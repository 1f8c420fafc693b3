//! Figure 9 — data efficiency: KGLink vs. KGLink w/o msk with training
//! fraction p ∈ {0.2, 0.4, 0.6, 0.8, 1.0} (test split fixed).
//!
//! Paper reference: with small p the multi-task model benefits less from
//! the representation-generation sub-task (the extra head is harder to
//! train); KGLink reaches most baselines' full-data performance at ≈ 60%
//! of the training data.

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_core::pipeline::KgLink;
use kglink_table::Split;

fn main() {
    let env = ExpEnv::load();
    let which = Which::SemTab;
    let resources = env.resources();
    let mut rows = Vec::new();
    for &p in &[0.2f64, 0.4, 0.6, 0.8, 1.0] {
        for (name, config) in [
            ("KGLink", env.kglink_config(which)),
            (
                "KGLink w/o msk",
                env.kglink_config(which).without_mask_task(),
            ),
        ] {
            let mut dataset = env.bench(which).dataset.clone();
            dataset.subsample_train(p, env.seed ^ 0x90);
            let t0 = std::time::Instant::now();
            let (model, _) = KgLink::fit(&resources, &dataset, config);
            let summary = model.evaluate(&resources, &dataset, Split::Test);
            eprintln!(
                "[run] p={p:.1} {name:<16} acc {:.2} wF1 {:.2} ({:.1}s)",
                summary.accuracy_pct(),
                summary.weighted_f1_pct(),
                t0.elapsed().as_secs_f64()
            );
            rows.push(vec![
                format!("{p:.1}"),
                name.to_string(),
                format!("{:.2}", summary.accuracy_pct()),
                format!("{:.2}", summary.weighted_f1_pct()),
            ]);
        }
    }
    print_markdown(
        "Figure 9 — accuracy / weighted F1 vs training fraction p (measured, SemTab-like)",
        &["p", "Model", "Accuracy", "Weighted F1"],
        &rows,
    );
}
