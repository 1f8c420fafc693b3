//! exp_obs: observability-layer experiment (not a paper table; exercises
//! the tracing layer the other experiments report through).
//!
//! Trains KGLink once, then annotates the SemTab-like test split through
//! an enabled [`Tracer`] and checks the layer's two contracts:
//!
//! 1. **The stage spans tile the pipeline.** The per-stage histograms
//!    (`retrieval` / `filter` / `feature` from Part 1, `encode` /
//!    `classify` from Part 2) must sum to the `annotate` root span's
//!    total within 5% — no hidden untimed stage.
//! 2. **A disabled tracer is free.** The per-call cost of the no-op
//!    tracer, micro-measured in a tight loop, modeled over every tracer
//!    touchpoint of the traced run, must stay under 1% of the untraced
//!    run's wall time.
//!
//! 3. **Lifecycle events nest under serving spans.** A hot swap's shadow
//!    comparisons run inside the worker's `serve.request` span, so every
//!    `model.shadow` instant in the service's event log must carry an
//!    enclosing span id drawn from the `serve.request` span starts — the
//!    trace of a swap reads as *part of* request handling, not as a
//!    disconnected side channel.
//!
//! The full event log is exported to `results/obs_trace.jsonl` (one JSON
//! object per line: spans with ids/parents, counters, instants).
//!
//! `--smoke` shrinks the annotated subset; combine with `KGLINK_FAST=1`
//! for the CI gate.

use kglink_bench::{print_markdown, run_kglink, ExpEnv, Which};
use kglink_core::{req, Resources};
use kglink_obs::{EventKind, JsonlSink, Tracer};
use kglink_serve::{ServiceConfig, SwapPlan};
use kglink_table::Split;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stages that must tile the `annotate` root span, in pipeline order.
const STAGES: [&str; 5] = ["retrieval", "filter", "feature", "encode", "classify"];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env = ExpEnv::load();
    let which = Which::SemTab;
    let (_, _, model) = run_kglink(&env, which, env.kglink_config(which), "KGLink");
    let dataset = &env.bench(which).dataset;
    let tables: Vec<_> = dataset
        .tables_in(Split::Test)
        .take(if smoke { 6 } else { usize::MAX })
        .collect();

    // Untraced reference: the default resources carry the no-op tracer.
    let untraced_resources = env.resources();
    let t0 = Instant::now();
    for t in &tables {
        let outcome = model.annotate_request(&untraced_resources, req(t));
        assert_eq!(outcome.labels.len(), t.n_cols());
    }
    let untraced_wall_us = t0.elapsed().as_micros() as u64;

    // Traced run over the same workload.
    let tracer = Tracer::enabled();
    let resources = Resources {
        tracer: tracer.clone(),
        ..env.resources()
    };
    let t1 = Instant::now();
    for t in &tables {
        model.annotate_request(&resources, req(t));
    }
    let traced_wall_us = t1.elapsed().as_micros() as u64;

    let stages = tracer.stages();
    let annotate = stages.get("annotate").expect("root span recorded");
    assert_eq!(
        annotate.count(),
        tables.len() as u64,
        "one root span per table"
    );

    let mut rows = Vec::new();
    let mut stage_sum_us = 0u64;
    for name in STAGES {
        let h = stages
            .get(name)
            .unwrap_or_else(|| panic!("stage `{name}` never recorded"));
        stage_sum_us += h.sum();
        rows.push(vec![
            name.to_string(),
            h.count().to_string(),
            format!("{:.2}", h.sum() as f64 / 1000.0),
            format!("{:.1}", 100.0 * h.sum() as f64 / annotate.sum() as f64),
            h.p50().to_string(),
            h.p99().to_string(),
        ]);
    }
    // The batched encoder forward inside `classify` is broken out as a
    // nested `nn.forward` span. It is not part of the tiling sum (its
    // parent already covers it), but it must exist and cannot exceed the
    // stage that contains it.
    let forward = stages
        .get("nn.forward")
        .expect("nn.forward span never recorded — predict_table_traced lost its tracer");
    let classify = stages.get("classify").expect("classify stage recorded");
    assert!(
        forward.sum() <= classify.sum(),
        "nn.forward ({}us) exceeds its enclosing classify stage ({}us)",
        forward.sum(),
        classify.sum()
    );
    rows.push(vec![
        "└ nn.forward (in classify)".into(),
        forward.count().to_string(),
        format!("{:.2}", forward.sum() as f64 / 1000.0),
        format!(
            "{:.1}",
            100.0 * forward.sum() as f64 / annotate.sum() as f64
        ),
        forward.p50().to_string(),
        forward.p99().to_string(),
    ]);
    rows.push(vec![
        "annotate (root)".into(),
        annotate.count().to_string(),
        format!("{:.2}", annotate.sum() as f64 / 1000.0),
        "100.0".into(),
        annotate.p50().to_string(),
        annotate.p99().to_string(),
    ]);
    print_markdown(
        "Observability — per-stage breakdown of traced annotation (SemTab-like test split)",
        &["Stage", "Spans", "Total ms", "Share %", "p50 us", "p99 us"],
        &rows,
    );

    // Contract 1: the stages tile the root span within 5%.
    let gap = annotate.sum().abs_diff(stage_sum_us);
    let gap_frac = gap as f64 / annotate.sum().max(1) as f64;
    eprintln!(
        "[obs] stage sum {:.2}ms vs annotate {:.2}ms (gap {:.2}%)",
        stage_sum_us as f64 / 1000.0,
        annotate.sum() as f64 / 1000.0,
        100.0 * gap_frac
    );
    if gap_frac > 0.05 {
        eprintln!(
            "FAIL: stage spans leave {:.2}% of the annotate span unaccounted (>5%)",
            100.0 * gap_frac
        );
        std::process::exit(1);
    }

    // Contract 2: the disabled tracer is free. Micro-measure the no-op
    // span cost, then model it over every touchpoint the traced run made
    // (events().len() over-counts calls — each span is one call but two
    // events — so the model is conservative).
    let disabled = Tracer::disabled();
    let iters: u64 = 4_000_000;
    let t2 = Instant::now();
    for _ in 0..iters {
        let s = std::hint::black_box(&disabled).span("probe");
        std::hint::black_box(&s);
    }
    let ns_per_call = t2.elapsed().as_nanos() as f64 / iters as f64;
    let touchpoints = tracer.events().len() as u64;
    let modeled_overhead_us = touchpoints as f64 * ns_per_call / 1000.0;
    let overhead_frac = modeled_overhead_us / untraced_wall_us.max(1) as f64;
    eprintln!(
        "[obs] disabled tracer: {ns_per_call:.1}ns/call × {touchpoints} touchpoints \
         = {modeled_overhead_us:.0}us modeled vs {untraced_wall_us}us untraced wall \
         ({:.4}%); traced wall {traced_wall_us}us",
        100.0 * overhead_frac
    );
    if overhead_frac > 0.01 {
        eprintln!(
            "FAIL: modeled disabled-tracer overhead {:.3}% exceeds 1%",
            100.0 * overhead_frac
        );
        std::process::exit(1);
    }

    // Contract 3: model-lifecycle events nest under `serve.request`.
    // Run a short hot swap (same weights, so every gate passes) against a
    // traced service under a trickle of live traffic, then check that
    // each shadow comparison was logged from inside an open request span.
    let serve_tracer = Tracer::enabled();
    let model = Arc::new(model);
    let mut service = env.service(
        Arc::clone(&model),
        env.backend(),
        ServiceConfig {
            workers: 2,
            cache: None,
            tracer: serve_tracer.clone(),
            initial_version: 1,
            ..ServiceConfig::default()
        },
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (service_ref, stop_ref, tables_ref) = (&service, &stop, &tables);
        s.spawn(move || {
            let mut tickets = Vec::new();
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                let table = (*tables_ref[i % tables_ref.len()]).clone();
                tickets.push(service_ref.submit(table).expect("admitted"));
                i += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
            for t in tickets {
                t.wait().expect("request completes");
            }
        });
        let plan = SwapPlan {
            prepare_max_flip_rate: 1.0,
            shadow_sample_every: 1,
            shadow_min_requests: 4,
            shadow_max_flip_rate: 1.0,
            watch_min_requests: 0,
            phase_timeout: Duration::from_secs(30),
            ..SwapPlan::default()
        };
        service
            .swap_model(2, Arc::clone(&model), &plan)
            .expect("same-weights swap promotes");
        stop.store(true, Ordering::Relaxed);
    });
    service.shutdown();
    let serve_events = serve_tracer.events();
    let request_spans: std::collections::HashSet<u64> = serve_events
        .iter()
        .filter(|e| e.name == "serve.request" && e.kind == EventKind::SpanStart)
        .map(|e| e.span)
        .collect();
    let shadow_events: Vec<_> = serve_events
        .iter()
        .filter(|e| e.name == "model.shadow" && e.kind == EventKind::Instant)
        .collect();
    assert!(
        shadow_events.len() >= 4,
        "shadow phase compared at least its minimum ({} events)",
        shadow_events.len()
    );
    for e in &shadow_events {
        assert!(
            e.span != 0 && request_spans.contains(&e.span),
            "model.shadow event (seq {}) is not nested under any serve.request span \
             (span id {})",
            e.seq,
            e.span
        );
    }
    assert!(
        serve_events
            .iter()
            .any(|e| e.name == "model.promote" && e.kind == EventKind::Instant),
        "promotion must log a model.promote instant"
    );
    eprintln!(
        "[obs] {} model.shadow events, every one nested under a serve.request span \
         ({} request spans; promote event present)",
        shadow_events.len(),
        request_spans.len()
    );

    // Export the event log for offline inspection.
    std::fs::create_dir_all("results").expect("create results/");
    let mut sink =
        JsonlSink::create("results/obs_trace.jsonl").expect("open results/obs_trace.jsonl");
    let lines = sink.export(&tracer).expect("export event log");
    eprintln!("[obs] wrote {lines} events to results/obs_trace.jsonl");

    eprintln!(
        "OK: stages tile the pipeline (gap {:.2}%), disabled tracer is free ({:.4}%)",
        100.0 * gap_frac,
        100.0 * overhead_frac
    );
}
