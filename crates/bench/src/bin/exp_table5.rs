//! Table V — row filter comparison: KGLink's link-score top-k row filter
//! vs. taking the table's original first k rows.
//!
//! Paper reference (Table V):
//! ```text
//! Filter                SemTab acc/wF1    VizNet acc/wF1
//! Our top-k row filter  87.12 / 85.78     96.28 / 96.07
//! Original top-k rows   85.93 / 84.39     96.14 / 95.97
//! ```

use kglink_bench::{print_markdown, run_kglink, ExpEnv, Which};
use kglink_core::RowFilter;

fn main() {
    let env = ExpEnv::load();
    let mut rows = Vec::new();
    for (name, filter) in [
        ("Our top-k row filter", RowFilter::LinkScore),
        ("Original top-k rows", RowFilter::Original),
    ] {
        let mut row = vec![name.to_string()];
        for which in [Which::SemTab, Which::VizNet] {
            let mut config = env.kglink_config(which);
            config.row_filter = filter;
            // Make the filter bite: keep fewer rows than tables typically have.
            config.top_k_rows = 8;
            let (r, _, _) = run_kglink(&env, which, config, name);
            row.push(format!("{:.2}", r.summary.accuracy_pct()));
            row.push(format!("{:.2}", r.summary.weighted_f1_pct()));
        }
        rows.push(row);
    }
    print_markdown(
        "Table V — row filter comparison (measured, k = 8)",
        &[
            "Filter mechanism",
            "SemTab Acc",
            "SemTab wF1",
            "VizNet Acc",
            "VizNet wF1",
        ],
        &rows,
    );
}
