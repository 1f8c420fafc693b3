//! exp_serve: serving-layer scaling experiment.
//!
//! Sweeps the `kglink-serve` worker pool over workers × cache on/off on
//! the VizNet-like benchmark and checks the serving layer's contract:
//!
//! 1. **Bit-identity** — every grid cell's annotations equal the
//!    single-threaded `KgLink::annotate_request` baseline, label for label,
//!    regardless of worker count, scheduling, or caching.
//! 2. **Scaling** — real wall-clock speedup from 1 to 4 workers, checked
//!    when the host actually has ≥4 cores. The measured, regression-gated
//!    scaling figure is `serve.scaling_x` in `BENCHMARK.json`.
//! 3. **Caching pays** — with the shared retrieval LRU on, the repeated
//!    workload hits the cache (hit rate > 0).
//! 4. **The feature memo pays** — the workload's second pass finds feature
//!    rows the first pass encoded in the serving epoch's memo (hit share
//!    > 0), and contract 1's bit-identity still holds with the memo on.
//!
//! The model itself is trained *through* a `CachingBackend` over the
//! searcher, demonstrating that training-time preprocessing reuses the
//! same cache layer the service uses (and measuring its hit rate).
//!
//! The `help items` column is `ServiceMetrics::help_items`: search and
//! one-hop batch items an idle worker ran for another worker's request.
//!
//! `--smoke` shrinks the workload and skips the scaling assertions (they
//! need the full grid); it keeps the bit-identity, cache-hit and memo
//! checks, over one and two workers.

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_search::{CacheConfig, CachingBackend, Deadline};
use kglink_serve::{AdmissionPolicy, ServiceConfig};
use kglink_table::{LabelId, Split, Table};
use std::sync::Arc;
use std::time::Instant;

struct Cell {
    workers: usize,
    cache: bool,
    wall_s: f64,
    real_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    hit_rate: f64,
    memo_hit_share: f64,
    help_items: u64,
    degraded: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env = ExpEnv::load();

    // Train KGLink on VizNet through the shared retrieval cache: Part-1
    // preprocessing re-queries the same mentions across epochs' splits, so
    // the training pass itself is the first cache consumer.
    let train_cache = CachingBackend::new(&*env.searcher, CacheConfig::default());
    let resources = env.resources_with(&train_cache);
    let dataset = &env.bench(Which::VizNet).dataset;
    eprintln!("[serve] training KGLink through CachingBackend…");
    let t0 = Instant::now();
    let model = env.fit_smoke(&resources, Which::VizNet, smoke);
    let train_stats = train_cache.stats();
    eprintln!(
        "[serve] trained in {:.1}s; training cache: {} lookups, hit rate {:.3}",
        t0.elapsed().as_secs_f64(),
        train_stats.lookups(),
        train_stats.hit_rate()
    );
    assert!(
        train_stats.lookups() > 0 && train_stats.hit_rate() > 0.0,
        "training-time preprocessing must exercise the retrieval cache"
    );

    // Workload: every test table, submitted twice — the repetition (and
    // mention overlap across tables) is what the cache feeds on.
    let test_tables: Vec<Table> = dataset
        .tables_in(Split::Test)
        .take(if smoke { 6 } else { usize::MAX })
        .cloned()
        .collect();
    let workload: Vec<Table> = test_tables
        .iter()
        .chain(test_tables.iter())
        .cloned()
        .collect();

    // Single-threaded reference: direct annotation over the raw searcher.
    let t0 = Instant::now();
    let baseline: Vec<Vec<LabelId>> = test_tables
        .iter()
        .map(|t| {
            model
                .annotate_request(&env.resources(), kglink_core::req(t))
                .labels
        })
        .collect();
    let seq_wall_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "[serve] sequential baseline: {} tables in {:.2}s",
        test_tables.len(),
        seq_wall_s
    );

    let model = Arc::new(model);
    let worker_grid: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let cache_grid: &[bool] = if smoke { &[true] } else { &[false, true] };
    let mut cells: Vec<Cell> = Vec::new();

    for &cache_on in cache_grid {
        for &workers in worker_grid {
            let mut service = env.service(
                Arc::clone(&model),
                env.backend(),
                ServiceConfig {
                    workers,
                    queue_capacity: 64,
                    admission: AdmissionPolicy::Block,
                    default_deadline: Deadline::UNBOUNDED,
                    cache: cache_on.then(CacheConfig::default),
                    ..ServiceConfig::default()
                },
            );
            let t0 = Instant::now();
            let tickets = service.submit_batch(workload.iter().cloned());
            let results: Vec<_> = tickets
                .into_iter()
                .map(|t| {
                    t.expect("Block admission never rejects")
                        .wait()
                        .expect("service stays up for the whole workload")
                })
                .collect();
            let wall_s = t0.elapsed().as_secs_f64();
            for (i, annotation) in results.iter().enumerate() {
                let expect = &baseline[i % test_tables.len()];
                assert_eq!(
                    &annotation.labels, expect,
                    "workers={workers} cache={cache_on}: request {i} diverged from the \
                     single-threaded baseline"
                );
                assert!(!annotation.expired, "unbounded deadlines never expire");
            }
            let m = service.metrics();
            assert_eq!(m.completed, workload.len() as u64);
            if cache_on {
                assert!(
                    m.cache_hit_rate() > 0.0,
                    "repeated workload must hit the cache (workers={workers})"
                );
            }
            assert!(
                m.feature_memo.hit_share() > 0.0,
                "the repeated workload must find its feature rows in the memo \
                 (workers={workers} cache={cache_on}): {:?}",
                m.feature_memo
            );
            cells.push(Cell {
                workers,
                cache: cache_on,
                wall_s,
                real_per_s: workload.len() as f64 / wall_s,
                p50_us: m.latency_p50_us,
                p99_us: m.latency_p99_us,
                hit_rate: m.cache_hit_rate(),
                memo_hit_share: m.feature_memo.hit_share(),
                help_items: m.help_items,
                degraded: m.degraded_columns,
            });
            eprintln!(
                "[serve] workers={workers} cache={cache_on}: wall {wall_s:.2}s, hit rate {:.3}, \
                 memo hit share {:.3}",
                m.cache_hit_rate(),
                m.feature_memo.hit_share()
            );
            service.shutdown();
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.workers.to_string(),
                if c.cache { "on" } else { "off" }.to_string(),
                format!("{:.2}", c.wall_s),
                format!("{:.1}", c.real_per_s),
                format!("{}", c.p50_us),
                format!("{}", c.p99_us),
                format!("{:.3}", c.hit_rate),
                format!("{:.3}", c.memo_hit_share),
                c.help_items.to_string(),
                c.degraded.to_string(),
            ]
        })
        .collect();
    print_markdown(
        &format!(
            "Serving-layer scaling on {} ({} requests; sequential baseline {:.2}s)",
            Which::VizNet.name(),
            workload.len(),
            seq_wall_s
        ),
        &[
            "workers",
            "cache",
            "wall s",
            "real tab/s",
            "p50 us",
            "p99 us",
            "hit rate",
            "memo hit share",
            "help items",
            "degraded cols",
        ],
        &rows,
    );

    if !smoke {
        let find = |workers: usize, cache: bool| {
            cells
                .iter()
                .find(|c| c.workers == workers && c.cache == cache)
                .expect("grid cell present")
        };
        // Wall-clock scaling is only observable with real cores.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            let real_speedup = find(1, false).wall_s / find(4, false).wall_s;
            println!("real speedup 1→4 workers (cache off): {real_speedup:.2}x");
            assert!(
                real_speedup >= 1.5,
                "expected real speedup on a {cores}-core host, got {real_speedup:.2}x"
            );
        } else {
            eprintln!(
                "[serve] host has {cores} core(s): skipping real wall-clock speedup check \
                 (`serve.scaling_x` in BENCHMARK.json is the measured scaling figure)"
            );
        }
    }

    println!("exp_serve: all assertions passed");
}
