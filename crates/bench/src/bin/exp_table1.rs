//! Table I — main results: accuracy and weighted F1 of every method on the
//! SemTab-like and VizNet-like benchmarks.
//!
//! Paper reference (Table I):
//! ```text
//! Model      SemTab acc/wF1     VizNet acc/wF1
//! MTab       89.10 / -          38.21 / -
//! TaBERT     72.69 / 71.21      94.68 / 94.07
//! Doduo      84.06 / 82.43      95.40 / 95.06
//! HNN        66.54 / 65.12      66.89 / 68.82
//! Sudowoodo  79.34 / 79.24      91.57 / 91.08
//! RECA       86.12 / 84.91      93.25 / 93.18
//! KGLink     87.12 / 85.78      96.28 / 96.07
//! ```

use kglink_bench::{
    baseline_registry, print_markdown, run_baseline, run_kglink, ExpEnv, RunResult, Which,
};

fn main() {
    let env = ExpEnv::load();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut results: Vec<(String, [Option<RunResult>; 2])> = Vec::new();

    for which in [Which::SemTab, Which::VizNet] {
        let idx = usize::from(which == Which::VizNet);
        for mut model in baseline_registry(&env, which) {
            let r = run_baseline(&env, model.as_mut(), which);
            if let Some(entry) = results.iter_mut().find(|(n, _)| *n == r.model) {
                entry.1[idx] = Some(r);
            } else {
                let mut slots: [Option<RunResult>; 2] = [None, None];
                let name = r.model.clone();
                slots[idx] = Some(r);
                results.push((name, slots));
            }
        }
        let (r, _, _) = run_kglink(&env, which, env.kglink_config(which), "KGLink");
        if let Some(entry) = results.iter_mut().find(|(n, _)| n == "KGLink") {
            entry.1[idx] = Some(r);
        } else {
            let mut slots: [Option<RunResult>; 2] = [None, None];
            slots[idx] = Some(r);
            results.push(("KGLink".to_string(), slots));
        }
    }

    for (name, slots) in &results {
        let fmt = |r: &Option<RunResult>, f1: bool| -> String {
            match r {
                Some(r) if f1 => format!("{:.2}", r.summary.weighted_f1_pct()),
                Some(r) => format!("{:.2}", r.summary.accuracy_pct()),
                None => "-".to_string(),
            }
        };
        // The paper omits MTab's weighted F1 (different problem definition).
        let is_mtab = name == "MTab";
        rows.push(vec![
            name.clone(),
            fmt(&slots[0], false),
            if is_mtab {
                "-".into()
            } else {
                fmt(&slots[0], true)
            },
            fmt(&slots[1], false),
            if is_mtab {
                "-".into()
            } else {
                fmt(&slots[1], true)
            },
        ]);
    }
    print_markdown(
        "Table I — main results (measured)",
        &[
            "Model",
            "SemTab Acc",
            "SemTab wF1",
            "VizNet Acc",
            "VizNet wF1",
        ],
        &rows,
    );
}
