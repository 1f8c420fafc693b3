//! Chaos experiment — KGLink accuracy/weighted-F1 as the KG retrieval
//! backend degrades (not a paper table; exercises the resilience layer).
//!
//! For each injected fault rate the full pipeline (fit *and* evaluate) runs
//! against `ResilientBackend(FaultyBackend(DiskBackend))`. Columns whose
//! retrieval ultimately fails degrade to the paper's no-linkage path
//! (Table IV), so the expected curve interpolates between fault-free KGLink
//! and the `KGLink w/o ct` ablation floor — it never falls below a model
//! that had no KG to begin with, and a 100% outage must not panic.

use kglink_bench::{print_markdown, run_kglink, run_kglink_on, ExpEnv, Which};
use kglink_core::{DegradationStats, Preprocessor, RowFilter};
use kglink_search::{FaultConfig, FaultyBackend, ResilienceConfig, ResilientBackend};
use kglink_table::Split;

/// Tolerance, in weighted-F1 percentage points, for the endpoint checks.
const EPS: f64 = 0.5;

fn main() {
    let env = ExpEnv::load();
    let which = Which::SemTab;
    let dataset = &env.bench(which).dataset;
    let base = env.kglink_config(which);

    // Floor: the w/o-KG ablation on a healthy backend. RowFilter::Original
    // mirrors the fully-degraded run, where all-zero link scores make the
    // link-score sort collapse to original row order.
    let mut floor_cfg = base.clone().without_kg();
    floor_cfg.row_filter = RowFilter::Original;
    let (floor_run, _, _) = run_kglink(&env, which, floor_cfg, "w/o KG");
    let floor_wf1 = floor_run.summary.weighted_f1_pct();

    let rates = [0.0, 0.1, 0.25, 0.5, 1.0];
    let mut rows = Vec::new();
    let mut wf1_curve = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let faulty = FaultyBackend::new(
            &*env.searcher,
            FaultConfig::with_fault_rate(env.seed ^ (0x70 + i as u64), rate),
        );
        let resilient = ResilientBackend::new(&faulty, ResilienceConfig::default());
        let resources = env.resources_with(&resilient);
        let label = format!("chaos {rate:.2}");
        let (run, _, _) = run_kglink_on(&env, &resources, which, base.clone(), &label);

        // Degradation accounting: re-preprocess the test split through the
        // same backend; the decorator's counters are cumulative over the
        // whole run (fit + evaluate + this pass).
        let pre = Preprocessor::new(&env.graph, &resilient, base.clone());
        let processed: Vec<_> = dataset
            .tables_in(Split::Test)
            .flat_map(|t| pre.process(t))
            .collect();
        let stats = DegradationStats::from_processed(&processed).with_backend(&resilient.metrics());
        eprintln!(
            "[chaos] rate {rate:.2}: degraded {}/{} columns, {} failed cells, {} retries, {} trips, {} rejections, p50 {}us p99 {}us",
            stats.degraded_columns,
            stats.total_columns,
            stats.failed_cells,
            stats.retries,
            stats.breaker_trips,
            stats.breaker_rejections,
            stats.retrieval_p50_us,
            stats.retrieval_p99_us
        );
        wf1_curve.push(run.summary.weighted_f1_pct());
        rows.push(vec![
            format!("{rate:.2}"),
            format!("{:.2}", run.summary.accuracy_pct()),
            format!("{:.2}", run.summary.weighted_f1_pct()),
            format!("{:.1}", 100.0 * stats.degraded_fraction()),
            stats.retries.to_string(),
            stats.breaker_trips.to_string(),
            format!("{}/{}", stats.retrieval_p50_us, stats.retrieval_p99_us),
        ]);
    }
    rows.push(vec![
        "w/o KG".into(),
        format!("{:.2}", floor_run.summary.accuracy_pct()),
        format!("{floor_wf1:.2}"),
        "—".into(),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);
    print_markdown(
        "Chaos — KGLink under injected KG-retrieval faults (SemTab-like)",
        &[
            "Fault rate",
            "Accuracy",
            "Weighted F1",
            "Degraded cols %",
            "Retries",
            "Breaker trips",
            "p50/p99 us",
        ],
        &rows,
    );

    // Endpoint sanity: full outage degrades to (not below) the no-KG floor,
    // and never beats the best healthy reference. In under-trained smoke
    // runs (KGLINK_FAST) the fault-free model can land below the floor —
    // the upper bound therefore compares against max(clean, floor), which
    // is the fault-free run whenever the KG actually helps.
    let wf1_clean = wf1_curve[0];
    let wf1_outage = *wf1_curve.last().unwrap();
    if wf1_outage + EPS < floor_wf1 {
        eprintln!(
            "FAIL: wF1 under full outage ({wf1_outage:.2}) fell below the w/o-KG floor ({floor_wf1:.2})"
        );
        std::process::exit(1);
    }
    let ceiling = wf1_clean.max(floor_wf1);
    if wf1_outage > ceiling + EPS {
        eprintln!(
            "FAIL: wF1 under full outage ({wf1_outage:.2}) exceeds the healthy ceiling ({ceiling:.2})"
        );
        std::process::exit(1);
    }
    eprintln!(
        "[chaos] endpoints OK: ceiling {ceiling:.2} ≥ outage {wf1_outage:.2} ≥ floor {floor_wf1:.2} (±{EPS})"
    );
}
