//! Extension experiments beyond the paper's figures: sweeps over the two
//! Part-1 budgets the paper fixes by fiat — the number of candidate types
//! per column (paper: "up to 3") and the number of entities retrieved per
//! mention (paper: "up to 10") — quantifying how sensitive KGLink is to
//! each design choice.

use kglink_bench::{print_markdown, run_kglink, ExpEnv, Which};

fn main() {
    let env = ExpEnv::load();
    let which = Which::SemTab;

    // ---- candidate types per column (j) -----------------------------------
    let mut rows = Vec::new();
    for &j in &[0usize, 1, 3, 5] {
        let mut config = env.kglink_config(which);
        config.max_candidate_types = j;
        if j == 0 {
            config.use_candidate_types = false;
        }
        let (r, _, _) = run_kglink(&env, which, config, &format!("KGLink j={j}"));
        rows.push(vec![
            j.to_string(),
            format!("{:.2}", r.summary.accuracy_pct()),
            format!("{:.2}", r.summary.weighted_f1_pct()),
            format!("{:.1}", r.fit_seconds),
        ]);
    }
    print_markdown(
        "Design sweep — candidate types per column (SemTab-like)",
        &[
            "max candidate types j",
            "Accuracy",
            "Weighted F1",
            "Fit (s)",
        ],
        &rows,
    );

    // ---- entities retrieved per mention ------------------------------------
    let mut rows = Vec::new();
    for &e in &[1usize, 3, 10, 25] {
        let mut config = env.kglink_config(which);
        config.max_entities_per_mention = e;
        let (r, _, _) = run_kglink(&env, which, config, &format!("KGLink E={e}"));
        rows.push(vec![
            e.to_string(),
            format!("{:.2}", r.summary.accuracy_pct()),
            format!("{:.2}", r.summary.weighted_f1_pct()),
            format!("{:.1}", r.fit_seconds),
        ]);
    }
    print_markdown(
        "Design sweep — entities retrieved per mention (SemTab-like)",
        &[
            "max entities per mention",
            "Accuracy",
            "Weighted F1",
            "Fit (s)",
        ],
        &rows,
    );
}
