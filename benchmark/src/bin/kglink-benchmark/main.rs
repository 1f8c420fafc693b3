//! End-to-end benchmark of table annotation over the disk world.
//!
//! ```text
//! kglink-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Drives the real `kglink_serve::AnnotationService` (real threads, wall
//! clock) over a world built by `kglink_datagen::generate_big_world`,
//! checks every answer, and prints one JSON object as the last line of
//! stdout. `--trace 0` measures the end-to-end metrics with tracing off
//! and no decorators anywhere; `--trace 1` takes the per-layer metrics
//! from a separate traced pass. README.md explains every metric.

mod drive;
mod setup;
mod stats;
mod timed;
mod trace;
mod workload;

use drive::{closed_loop, open_loop, Cursor, Window};
use kglink_core::pipeline::{req, Resources};
use kglink_kernels::{gemm, Mat, MatMut, Scratch, Trans};
use kglink_kg::GraphAccess;
use kglink_search::{CacheConfig, CachingBackend};
use kglink_serve::{AdmissionPolicy, AnnotationService, ServiceMetrics, SharedBackend};
use kglink_store::BlockCacheStats;
use kglink_table::LabelId;
use setup::{nproc, Ready, Scale};
use stats::{median, quantile, ratio, sorted, vm_hwm_mb, Metric};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use workload::{Loop, Workload};

/// Full set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Distinct tables of a timed window whose labels are checked against a
/// single-threaded `annotate_request`.
const VERIFY_TABLES: usize = 16;
/// Share of `--seconds` a traced run spends on each closed-loop scaling
/// probe, after an untraced window of the full length.
const PROBE_SHARE: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: kglink-benchmark --workload <{}> [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let (mut workload, mut seconds) = (None, None);
    let (mut seed, mut trace, mut smoke) = (7, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> String { format!("bad value for {flag}: {value}") };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| usage(&bad())))
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage(&bad())),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage(&bad()))),
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => usage(&bad()),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(if smoke { 3.0 } else { 12.0 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage("--seconds must lie in (0, 60]");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        smoke,
    }
}

/// What a run reports on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn start_service(ready: &Ready, workload: Workload) -> AnnotationService {
    setup::service(
        &ready.model,
        Arc::clone(&ready.stack.graph) as Arc<dyn GraphAccess>,
        Arc::clone(&ready.stack.resilient) as SharedBackend,
        // An open loop must never block its generator: a full queue
        // refuses, and the refusal counts as a failed request.
        if workload.open() {
            AdmissionPolicy::Reject
        } else {
            AdmissionPolicy::Block
        },
    )
}

/// One window of the workload's own loop, `seconds` long.
fn run_window(
    service: &AnnotationService,
    workload: Workload,
    ready: &Ready,
    cursor: &Cursor,
    seconds: f64,
) -> Window {
    let inputs = &ready.inputs;
    match workload.timed_loop(nproc()) {
        Loop::Closed { clients } => closed_loop(service, &inputs.tables, cursor, clients, seconds),
        Loop::Open => {
            let n = inputs
                .due_us
                .iter()
                .take_while(|&&d| (d as f64) < seconds * 1e6)
                .count();
            open_loop(service, &inputs.tables, cursor.reserve(n), &inputs.due_us)
        }
    }
}

/// Correct columns per second: the schedule sets it on an open loop, so
/// there the whole window counts; a closed loop reports its median run.
fn throughput(workload: Workload, window: &Window) -> f64 {
    if workload.open() {
        window.cols_per_s()
    } else {
        window.median_cols_per_s()
    }
}

/// Samples whose labels differ from a single-threaded `annotate_request`
/// over the same stack (behind a retrieval LRU of its own, so repeated
/// mentions cost one query), checked on the first [`VERIFY_TABLES`]
/// distinct tables of the window.
fn label_mismatches(ready: &Ready, window: &Window) -> u64 {
    let lru = CachingBackend::new(Arc::clone(&ready.stack.resilient), CacheConfig::default());
    let resources = Resources::builder()
        .graph(ready.stack.graph.as_ref())
        .backend(&lru)
        .tokenizer(&ready.model.tokenizer)
        .build()
        .expect("graph, backend and tokenizer are all present");
    let mut expected: HashMap<usize, Vec<LabelId>> = HashMap::new();
    let mut mismatches = 0;
    for s in &window.samples {
        if expected.len() >= VERIFY_TABLES && !expected.contains_key(&s.table) {
            continue;
        }
        let labels = expected.entry(s.table).or_insert_with(|| {
            let table = &ready.inputs.tables[s.table];
            ready
                .model
                .kglink
                .annotate_request(&resources, req(table))
                .labels
        });
        if *labels != s.labels {
            mismatches += 1;
        }
    }
    mismatches
}

/// Service counters must add up: every request sent was either refused or
/// accepted, every accepted one completed or was shed, nothing panicked.
fn reconciles(m: &ServiceMetrics, sent: u64, rejected: u64) -> bool {
    m.submitted + m.rejected == sent
        && m.submitted == m.completed + m.shed
        && m.rejected == rejected
        && m.worker_panics == 0
        && m.in_flight == 0
}

fn store_errors(ready: &Ready) -> u64 {
    ready.stack.graph.error_count() + ready.stack.disk.error_count()
}

/// `--trace 0`: the end-to-end metrics.
fn timed_run(args: &Args, scale: Scale) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let ready = loop {
        let ready = setup::set_up(args.workload, args.seed, args.seconds, scale);
        setups.push(ready.setup_s);
        if setups.len() == SETUP_REPEATS {
            break ready;
        }
    };
    let mut service = start_service(&ready, args.workload);
    drive::warm_up(&service, &ready.inputs.warmup);
    let cursor = Cursor::new(0, ready.inputs.tables.len(), args.workload.reusable());
    let window = run_window(&service, args.workload, &ready, &cursor, args.seconds);

    let sent = ready.inputs.warmup.len() as u64 + window.attempted;
    let reconciled = reconciles(&service.metrics(), sent, window.rejected);
    service.shutdown();
    let mismatches = label_mismatches(&ready, &window);
    let errors = store_errors(&ready);
    let failed = window.failed() + mismatches;
    let latencies = window.latencies_ms();
    eprintln!(
        "[{}] samples={} p95={:.3}ms attempted={} failed={} mismatches={mismatches} \
         store_errors={errors} reconciled={reconciled} window={:.2}s set-ups={setups:.3?}",
        args.workload.name(),
        latencies.len(),
        quantile(&latencies, 0.95),
        window.attempted,
        failed,
        window.elapsed_s,
    );
    let metrics = vec![
        Metric {
            name: "table_p50_ms",
            unit: "ms",
            value: quantile(&latencies, 0.5),
        },
        Metric {
            name: "cols_per_s",
            unit: "columns/s",
            value: throughput(args.workload, &window),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: vm_hwm_mb(),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&mut setups),
        },
    ];
    ready.world.remove();
    Outcome {
        correct: failed == 0 && errors == 0 && reconciled && !latencies.is_empty(),
        attempted: window.attempted.max(1),
        failed,
        metrics,
    }
}

/// Counters the library exposes without any decorator.
struct Counters {
    bm25: BlockCacheStats,
    graph: BlockCacheStats,
    retries: u64,
    failures: u64,
    breaker_trips: u64,
    service: ServiceMetrics,
}

impl Counters {
    fn take(ready: &Ready, service: &AnnotationService) -> Counters {
        let resilient = ready.stack.resilient.metrics();
        Counters {
            bm25: ready.stack.disk.cache_stats(),
            graph: ready.stack.graph.cache_stats(),
            retries: resilient.retries,
            failures: resilient.failures,
            breaker_trips: resilient.breaker_trips,
            service: service.metrics(),
        }
    }
}

fn hit_rate(before: &BlockCacheStats, after: &BlockCacheStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    ratio(hits, hits + (after.misses - before.misses) as f64)
}

/// `kglink_kernels::gemm` at the encoder's projection shape
/// (max_len × d_model against d_model × d_model), as `exp_bench` times it.
fn gemm_gflops() -> f64 {
    let (m, k, n) = (192usize, 48usize, 48usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 * 0.1 - 0.8).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
    let mut out = vec![0.0f32; m * n];
    let mut scratch = Scratch::new();
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_millis() < 200 {
        for _ in 0..64 {
            gemm(
                Mat::new(std::hint::black_box(&a), m, k),
                Mat::new(&b, k, n),
                Trans::No,
                Trans::No,
                &mut MatMut::new(&mut out, m, n),
                &mut scratch,
            );
            std::hint::black_box(&out);
        }
        iters += 64;
    }
    (2 * m * n * k) as f64 * iters as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(args: &Args, scale: Scale) -> Outcome {
    let workload = args.workload;
    let timed_loop = workload.timed_loop(nproc());
    // An open loop draws its probes' tables from the arrival stream too.
    let generate_for = if workload.open() {
        2.0 * args.seconds
    } else {
        args.seconds
    };
    let ready = setup::set_up(workload, args.seed, generate_for, scale);
    let tables = &ready.inputs.tables;
    let mut service = start_service(&ready, workload);
    let t0 = Instant::now();
    drive::warm_up(&service, &ready.inputs.warmup);
    let warmup_s = t0.elapsed().as_secs_f64();

    // The first tables belong to the traced pass; the window starts behind.
    let traced_tables = scale.traced_tables.min(tables.len() / 2);
    let cursor = Cursor::new(traced_tables, tables.len(), workload.reusable());
    let before = Counters::take(&ready, &service);
    let window = run_window(&service, workload, &ready, &cursor, args.seconds);
    let after = Counters::take(&ready, &service);
    // Columns per second on one client and on one client per core; the
    // window already is one of the two unless the loop is open.
    let mut probes: Vec<Window> = Vec::new();
    let mut cols_per_s_on = |clients: usize| match timed_loop {
        Loop::Closed { clients: c } if c == clients => window.median_cols_per_s(),
        _ => {
            let w = closed_loop(
                &service,
                tables,
                &cursor,
                clients,
                args.seconds * PROBE_SHARE,
            );
            let cols_per_s = w.median_cols_per_s();
            probes.push(w);
            cols_per_s
        }
    };
    let cols_per_s_1c = cols_per_s_on(1);
    let cols_per_s_nc = cols_per_s_on(nproc());
    let probes_done = service.metrics();
    let all = || std::iter::once(&window).chain(&probes);
    let mut attempted: u64 = all().map(|w| w.attempted).sum();
    let mut failed: u64 =
        all().map(Window::failed).sum::<u64>() + label_mismatches(&ready, &window);
    let rejected: u64 = all().map(|w| w.rejected).sum();
    let reconciled = reconciles(
        &probes_done,
        ready.inputs.warmup.len() as u64 + attempted,
        rejected,
    );

    service.shutdown();
    let traced = trace::Traced::open(&ready.model, &ready.world, scale);
    traced.warm_up(&ready.model, &ready.inputs.warmup);
    let pass = trace::traced_pass(&traced, &ready.model, &tables[..traced_tables]);
    let spans = traced.log.spans();
    let layers = trace::layer_times(&spans, traced_tables);
    attempted += 4 * traced_tables as u64;
    failed += pass.mismatches;
    // The decorators must see exactly the retrievals the LRU let through.
    let decorators_agree = layers.miss_calls == pass.lru_lookups - pass.lru_hits;

    let errors = store_errors(&ready) + traced.store_errors();
    let trace_path = setup::scratch_dir().join(format!("trace-{}.jsonl", workload.name()));
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"mode\": \"{}\", \
         \"tables\": {traced_tables}, \"spans\": {}}}",
        workload.name(),
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        spans.len(),
    );
    if let Err(e) = traced.log.write_jsonl(&trace_path, &header) {
        eprintln!(
            "[{}] could not write {}: {e}",
            workload.name(),
            trace_path.display()
        );
    }

    let col = |f: fn(&trace::TableTimes) -> f64| -> Vec<f64> { pass.times.iter().map(f).collect() };
    let untraced_p50 = median(&mut col(|t| t.untraced_us));
    let service_p50 = median(&mut col(|t| t.service_us));
    let overhead_us = median(&mut col(|t| t.service_us - t.direct_us));
    let tokens = pass.times.iter().map(|t| t.tokens as f64).sum::<f64>();
    let mut late = window.late_us.clone();
    let late = sorted(&mut late);
    let (bm25_before, bm25_after) = (&pass.backend_before, &pass.backend_after);
    let queries = (bm25_after.queries - bm25_before.queries) as f64;
    let served = window.samples.len() as f64;
    let lru = |m: &ServiceMetrics| m.cache.unwrap_or_default();
    let lookups = (lru(&after.service).lookups() - lru(&before.service).lookups()) as f64;
    let lru_hits = (lru(&after.service).hits - lru(&before.service).hits) as f64;
    let count = |name, value: u64| Metric {
        name,
        unit: "count",
        value: value as f64,
    };
    let us = |name, value| Metric {
        name,
        unit: "us",
        value,
    };
    let share = |name, value| Metric {
        name,
        unit: "ratio",
        value,
    };
    let [link, filter, feature, encode, classify, forward] = layers.stage_self_us;
    let metrics = vec![
        us("store.query_p50_us", layers.query_p50_us),
        us("store.query_p95_us", layers.query_p95_us),
        share("store.query_busy_share", layers.query_busy_share),
        Metric {
            name: "store.scored_docs_per_query",
            unit: "count",
            value: ratio(
                (bm25_after.scored_docs - bm25_before.scored_docs) as f64,
                queries,
            ),
        },
        Metric {
            name: "store.skipped_docs_per_query",
            unit: "count",
            value: ratio(
                (bm25_after.skipped_docs - bm25_before.skipped_docs) as f64,
                queries,
            ),
        },
        Metric {
            name: "store.skipped_blocks_per_query",
            unit: "count",
            value: ratio(
                (bm25_after.skipped_blocks - bm25_before.skipped_blocks) as f64,
                queries,
            ),
        },
        share(
            "store.bm25_cache_hit_rate",
            hit_rate(&before.bm25, &after.bm25),
        ),
        count(
            "store.bm25_cache_evictions",
            after.bm25.evictions - before.bm25.evictions,
        ),
        Metric {
            name: "store.graph_calls_per_table",
            unit: "count",
            value: ratio(layers.graph_calls as f64, traced_tables as f64),
        },
        us(
            "store.graph_busy_us_per_table",
            layers.graph_busy_us_per_table,
        ),
        share(
            "store.graph_cache_hit_rate",
            hit_rate(&before.graph, &after.graph),
        ),
        count(
            "store.graph_cache_evictions",
            after.graph.evictions - before.graph.evictions,
        ),
        count("store.errors", errors),
        Metric {
            name: "store.build_s",
            unit: "s",
            value: ready.world.build_s,
        },
        Metric {
            name: "store.build_entities_per_s",
            unit: "1/s",
            value: ratio(ready.world.entities as f64, ready.world.build_s),
        },
        Metric {
            name: "store.world_bytes",
            unit: "bytes",
            value: ready.world.bytes as f64,
        },
        share("search.cache_hit_rate", ratio(lru_hits, lookups)),
        Metric {
            name: "search.lookups_per_table",
            unit: "count",
            value: ratio(lookups, served),
        },
        Metric {
            name: "search.miss_calls_per_table",
            unit: "count",
            value: ratio(layers.miss_calls as f64, traced_tables as f64),
        },
        us("search.resilient_overhead_us", layers.resilient_overhead_us),
        count("search.retries", after.retries - before.retries),
        count("search.failures", after.failures - before.failures),
        count(
            "search.breaker_trips",
            after.breaker_trips - before.breaker_trips,
        ),
        us("core.link_us", link),
        us("core.filter_us", filter),
        us("core.feature_us", feature),
        us("core.encode_us", encode),
        us("core.classify_us", classify),
        share("core.stage_tiling", layers.stage_tiling),
        us("nn.forward_us", forward),
        share("nn.forward_share", layers.forward_share),
        Metric {
            name: "nn.tokens_per_table",
            unit: "count",
            value: ratio(tokens, traced_tables as f64),
        },
        Metric {
            name: "kernels.gemm_gflops",
            unit: "GFLOP/s",
            value: gemm_gflops(),
        },
        Metric {
            name: "serve.table_p95_ms",
            unit: "ms",
            value: quantile(&window.latencies_ms(), 0.95),
        },
        us("serve.queue_wait_p50_us", window.queue_wait_us(0.5)),
        us("serve.queue_wait_p95_us", window.queue_wait_us(0.95)),
        us("serve.overhead_us", overhead_us),
        Metric {
            name: "serve.scaling_x",
            unit: "x",
            value: ratio(cols_per_s_nc, cols_per_s_1c),
        },
        Metric {
            name: "serve.cols_per_s_1c",
            unit: "columns/s",
            value: cols_per_s_1c,
        },
        count(
            "serve.rejected",
            after.service.rejected - before.service.rejected,
        ),
        count("serve.shed", after.service.shed - before.service.shed),
        count(
            "serve.expired",
            after.service.expired - before.service.expired,
        ),
        count("serve.worker_panics", probes_done.worker_panics),
        share(
            "serve.slo_met_share",
            window.slo_met_share(workload.slo_ms()),
        ),
        share(
            "serve.failed_share",
            ratio(window.failed() as f64, window.attempted as f64),
        ),
        us("bench.gen_late_p95_us", quantile(late, 0.95)),
        us("bench.gen_late_max_us", late.last().copied().unwrap_or(0.0)),
        share(
            "bench.trace_overhead_share",
            ratio(service_p50, untraced_p50) - 1.0,
        ),
        Metric {
            name: "bench.warmup_s",
            unit: "s",
            value: warmup_s,
        },
        count("bench.samples", window.samples.len() as u64),
        count("bench.nproc", nproc() as u64),
    ];
    eprintln!(
        "[{}] traced {traced_tables} tables, {} spans → {}; window samples={} failed={failed} \
         store_errors={errors} reconciled={reconciled} decorators_agree={decorators_agree}",
        workload.name(),
        spans.len(),
        trace_path.display(),
        window.samples.len(),
    );
    drop(traced);
    ready.world.remove();
    Outcome {
        correct: failed == 0 && errors == 0 && reconciled && decorators_agree,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

fn main() {
    let args = parse_args();
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let outcome = if args.trace {
        traced_run(&args, scale)
    } else {
        timed_run(&args, scale)
    };
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
