//! §V-D qualitative evaluation — the classes whose accuracy improves most
//! when the column-type representation generation task is added (KGLink vs
//! KGLink w/o msk).
//!
//! Paper reference: on SemTab the top gainers are Athlete, Protein, Film
//! (avg +9.70); on VizNet they are Artist, Year, Rank (avg +3.18) — classes
//! that suffer from the type granularity gap or are numeric.

use kglink_bench::{print_markdown, run_kglink, ExpEnv, Which};
use kglink_core::Preprocessor;
use kglink_table::{per_class_report, LabelId, Split};

fn main() {
    let env = ExpEnv::load();
    let resources = env.resources();
    let mut rows = Vec::new();
    for which in [Which::SemTab, Which::VizNet] {
        let dataset = &env.bench(which).dataset;
        // The paper uses >10 (SemTab) / >100 (VizNet) test samples; scaled
        // to this reproduction's test-split sizes.
        let min_support = if which == Which::SemTab { 3 } else { 20 };
        let (_, _, full) = run_kglink(&env, which, env.kglink_config(which), "KGLink");
        let (_, _, nomask) = run_kglink(
            &env,
            which,
            env.kglink_config(which).without_mask_task(),
            "KGLink w/o msk",
        );
        // Per-class recall on the test split for both variants.
        let pre = Preprocessor::new(resources.graph, resources.backend, env.kglink_config(which));
        let processed: Vec<_> = dataset
            .tables_in(Split::Test)
            .flat_map(|t| pre.process(t))
            .collect();
        let truths: Vec<LabelId> = processed.iter().flat_map(|p| p.labels.clone()).collect();
        let collect = |model: &kglink_core::KgLink| -> Vec<LabelId> {
            model
                .predict_processed(&resources, &processed)
                .into_iter()
                .flatten()
                .collect()
        };
        let full_preds = collect(&full);
        let nomask_preds = collect(&nomask);
        let full_report = per_class_report(&full_preds, &truths);
        let nomask_report = per_class_report(&nomask_preds, &truths);
        let mut gains: Vec<(LabelId, f64, usize)> = full_report
            .iter()
            .filter_map(|(&l, r)| {
                let base = nomask_report.get(&l)?;
                (r.support >= min_support).then_some((
                    l,
                    100.0 * (r.recall - base.recall),
                    r.support,
                ))
            })
            .collect();
        gains.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (l, gain, support) in gains.into_iter().take(3) {
            rows.push(vec![
                which.name().to_string(),
                dataset.labels.name(l).to_string(),
                format!("{gain:+.2}"),
                support.to_string(),
            ]);
        }
    }
    print_markdown(
        "§V-D — top classes improved by the representation-generation task (measured)",
        &["Dataset", "Class", "Δ accuracy (pp)", "Test support"],
        &rows,
    );
}
