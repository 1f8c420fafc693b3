//! Table IV — accuracy on the test subset with **no extracted KG
//! information**, split into numeric and non-numeric columns (VizNet).
//!
//! Paper reference (Table IV):
//! ```text
//! Model      Numeric Acc   Non-numeric Acc
//! KGLink     97.04         90.92
//! HNN        44.05         18.37
//! TaBERT     96.57         90.27
//! Doduo      96.28         89.50
//! RECA       96.89         61.54
//! Sudowoodo  96.21         67.72
//! ```

use kglink_bench::{
    baseline_registry, no_linkage_test_subset, print_markdown, run_kglink, ExpEnv, Which,
};
use kglink_table::LabelId;

fn subset_accuracy(preds_truths: &[(Vec<LabelId>, Vec<LabelId>, Vec<bool>)]) -> (f64, f64) {
    let mut num_ok = 0usize;
    let mut num_n = 0usize;
    let mut txt_ok = 0usize;
    let mut txt_n = 0usize;
    for (preds, truths, numeric) in preds_truths {
        for ((p, t), &is_num) in preds.iter().zip(truths).zip(numeric) {
            if is_num {
                num_n += 1;
                num_ok += usize::from(p == t);
            } else {
                txt_n += 1;
                txt_ok += usize::from(p == t);
            }
        }
    }
    (
        100.0 * num_ok as f64 / num_n.max(1) as f64,
        100.0 * txt_ok as f64 / txt_n.max(1) as f64,
    )
}

fn main() {
    let env = ExpEnv::load();
    let which = Which::VizNet;
    let dataset = &env.bench(which).dataset;
    let subset = no_linkage_test_subset(&env, dataset);
    let n_cols: usize = subset.iter().map(|&i| dataset.tables[i].n_cols()).sum();
    let n_numeric: usize = subset
        .iter()
        .map(|&i| {
            let t = &dataset.tables[i];
            (0..t.n_cols()).filter(|&c| t.is_numeric_column(c)).count()
        })
        .sum();
    eprintln!(
        "[subset] {} zero-linkage test tables, {} columns ({} numeric, {} non-numeric)",
        subset.len(),
        n_cols,
        n_numeric,
        n_cols - n_numeric
    );
    if subset.is_empty() {
        println!("No zero-linkage test tables in this configuration — rerun without KGLINK_FAST.");
        return;
    }

    let resources = env.resources();
    let benv = env.baseline_env(&resources, which);
    let mut rows = Vec::new();

    // KGLink first (paper order).
    {
        let (_, _, model) = run_kglink(&env, which, env.kglink_config(which), "KGLink");
        let data: Vec<_> = subset
            .iter()
            .map(|&i| {
                let t = &dataset.tables[i];
                let preds = model
                    .annotate_request(&resources, kglink_core::req(t))
                    .labels;
                let numeric: Vec<bool> = (0..t.n_cols()).map(|c| t.is_numeric_column(c)).collect();
                (preds, t.labels.clone(), numeric)
            })
            .collect();
        let (num, txt) = subset_accuracy(&data);
        rows.push(vec![
            "KGLink".to_string(),
            format!("{num:.2}"),
            format!("{txt:.2}"),
        ]);
    }
    for mut model in baseline_registry(&env, which) {
        if model.name() == "MTab" {
            continue; // the paper's Table IV covers learning-based models
        }
        model.fit(&benv, dataset);
        let data: Vec<_> = subset
            .iter()
            .map(|&i| {
                let t = &dataset.tables[i];
                let preds = model.predict_table(&benv, t);
                let numeric: Vec<bool> = (0..t.n_cols()).map(|c| t.is_numeric_column(c)).collect();
                (preds, t.labels.clone(), numeric)
            })
            .collect();
        let (num, txt) = subset_accuracy(&data);
        eprintln!(
            "[run] {:<10} numeric {num:.2}  non-numeric {txt:.2}",
            model.name()
        );
        rows.push(vec![
            model.name().to_string(),
            format!("{num:.2}"),
            format!("{txt:.2}"),
        ]);
    }
    print_markdown(
        "Table IV — accuracy on zero-KG-linkage test columns (measured, VizNet-like)",
        &["Model", "Numeric Acc", "Non-numeric Acc"],
        &rows,
    );
}
