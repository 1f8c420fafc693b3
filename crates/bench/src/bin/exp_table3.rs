//! Table III — link statistics between the datasets and the KG.
//!
//! Paper reference (Table III):
//! ```text
//!                              SemTab          VizNet
//! Numeric columns              0      (0%)     9489  (12.8%)
//! Non-numeric columns w/o fv   0      (0%)     9278  (12.5%)
//! Non-numeric columns w/o ct   1144   (15.1%)  55374 (74.7%)
//! Total columns                7587   (100%)   74141 (100%)
//! ```

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_core::{LinkStatistics, Preprocessor};

fn main() {
    let env = ExpEnv::load();
    let resources = env.resources();
    let mut stats = Vec::new();
    for which in [Which::SemTab, Which::VizNet] {
        let dataset = &env.bench(which).dataset;
        let pre = Preprocessor::new(resources.graph, resources.backend, env.kglink_config(which));
        let processed: Vec<_> = dataset.tables.iter().flat_map(|t| pre.process(t)).collect();
        let s = LinkStatistics::compute(&processed);
        eprintln!("[{}]\n{}", which.name(), s);
        stats.push(s);
    }
    let fmt = |c: usize, s: &LinkStatistics| format!("{} ({:.1}%)", c, s.pct(c));
    let rows = vec![
        vec![
            "Numeric columns".to_string(),
            fmt(stats[0].numeric_columns, &stats[0]),
            fmt(stats[1].numeric_columns, &stats[1]),
        ],
        vec![
            "Non-numeric columns w/o fv".to_string(),
            fmt(stats[0].non_numeric_without_fv, &stats[0]),
            fmt(stats[1].non_numeric_without_fv, &stats[1]),
        ],
        vec![
            "Non-numeric columns w/o ct".to_string(),
            fmt(stats[0].non_numeric_without_ct, &stats[0]),
            fmt(stats[1].non_numeric_without_ct, &stats[1]),
        ],
        vec![
            "Total columns".to_string(),
            format!("{} (100%)", stats[0].total_columns),
            format!("{} (100%)", stats[1].total_columns),
        ],
    ];
    print_markdown(
        "Table III — link statistics (measured)",
        &["", "SemTab-like", "VizNet-like"],
        &rows,
    );
}
