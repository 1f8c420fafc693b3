//! exp_swap: zero-downtime model lifecycle experiment.
//!
//! Publishes two trained model generations ("baseline" and "retrained")
//! through the versioned [`ModelRegistry`], then drives an open-loop
//! request stream against an
//! [`AnnotationService`](kglink_serve::AnnotationService) while
//! hot-swapping between them, and checks the lifecycle contract
//! end-to-end:
//!
//! 1. **Zero dropped / torn tickets** — across ≥3 live swaps under load,
//!    every submitted request completes successfully, and every
//!    annotation's recorded `model_version` replays bit-identically
//!    against that exact version's model single-threaded. A request
//!    served "half by each model" would fail the replay and count as
//!    torn.
//! 2. **Bad candidates never reach traffic unguarded** — a
//!    corrupted-on-disk checkpoint and a NaN-poisoned publish are caught
//!    by the registry at load (prepare stage) and quarantined; an
//!    accuracy-cliff candidate (untrained weights) is rejected at
//!    prepare by the probe gate, at shadow by the live-traffic gate, and
//!    — when both gates are deliberately loosened — promoted and then
//!    rolled back by the watch-phase divergence guard, all without a
//!    single failed request.
//! 3. **Fail-closed rollback budget** — once the watch guard has spent
//!    the configured rollback budget, further swap attempts are refused
//!    with `RollbackBudgetExhausted` while the last-known-good epoch
//!    keeps serving.
//! 4. **Bounded interference** — end-to-end p99 over the whole run
//!    (shadow duplication, probes, swaps and all) stays within a
//!    generous factor of the pre-swap warmup p99.
//!
//! Results land in `BENCH_swap.json` (repo root on full runs,
//! `target/smoke/` on `--smoke`) so later PRs have a swap-latency and
//! shadow-overhead trajectory to move.

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_core::{KgLink, KgLinkModel};
use kglink_nn::layers::param::HasParams;
use kglink_registry::{ModelRegistry, RegistryError};
use kglink_serve::{
    AdmissionPolicy, Annotation, ServiceConfig, SwapError, SwapPhase, SwapPlan, SwapReport,
};
use kglink_table::{LabelId, Split, Table};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Synthetic version id for the accuracy-cliff candidate; never published,
/// handed straight to `swap_model` (registry versions and serving version
/// ids share a namespace by convention, not by force).
const CLIFF_VERSION: u64 = 99;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env = ExpEnv::load();
    let dataset = &env.bench(Which::VizNet).dataset;

    // ---- two model generations: baseline and retrained ----
    let config_a = env.smoke_config(Which::VizNet, smoke);
    let mut config_b = config_a.clone();
    config_b.seed ^= 0x5eed; // retrained generation: same data, new init
    eprintln!("[swap] training baseline + retrained generations…");
    let t0 = Instant::now();
    let (mut gen_a, _) = KgLink::fit(&env.resources(), dataset, config_a);
    let (mut gen_b, _) = KgLink::fit(&env.resources(), dataset, config_b);
    eprintln!("[swap] trained both in {:.1}s", t0.elapsed().as_secs_f64());

    // ---- publish both through the registry, then serve what it loads ----
    let work = PathBuf::from("target/exp_swap");
    let _ = std::fs::remove_dir_all(&work);
    let registry = ModelRegistry::open(work.join("registry")).expect("open registry");
    let vocab = env.tokenizer.vocab.len();
    let pub_a = registry
        .publish(&mut gen_a, vocab, "baseline")
        .expect("publish baseline");
    let pub_b = registry
        .publish(&mut gen_b, vocab, "retrained")
        .expect("publish retrained");
    assert_eq!((pub_a.version, pub_b.version), (1, 2));
    drop((gen_a, gen_b)); // serve the registry round-trip, not the originals
    let loaded_a = registry.load(1).expect("load v1");
    let loaded_b = registry.load(2).expect("load v2");
    assert_eq!(loaded_a.tag, "baseline");
    assert_eq!(loaded_b.tag, "retrained");
    let model_a = Arc::new(loaded_a.model);
    let model_b = Arc::new(loaded_b.model);

    // The accuracy-cliff candidate: the trained label space and config,
    // but freshly initialized (never trained) weights.
    let cliff = Arc::new(KgLink {
        config: model_b.config.clone(),
        model: KgLinkModel::new(&model_b.config, vocab, model_b.labels.len()),
        labels: model_b.labels.clone(),
    });

    // ---- workload and per-version offline references ----
    let test_tables: Vec<Table> = dataset
        .tables_in(Split::Test)
        .take(if smoke { 6 } else { 12 })
        .cloned()
        .collect();
    let reference: BTreeMap<u64, Vec<Vec<LabelId>>> = [
        (1u64, model_a.as_ref()),
        (2u64, model_b.as_ref()),
        (CLIFF_VERSION, cliff.as_ref()),
    ]
    .into_iter()
    .map(|(v, m)| {
        let labels = test_tables
            .iter()
            .map(|t| {
                m.annotate_request(&env.resources(), kglink_core::req(t))
                    .labels
            })
            .collect();
        (v, labels)
    })
    .collect();

    // ---- the service, started on the registry's v1 ----
    let mut service = env.service(
        Arc::clone(&model_a),
        env.backend(),
        ServiceConfig {
            workers: if smoke { 2 } else { 4 },
            queue_capacity: 64,
            admission: AdmissionPolicy::Block,
            cache: None,
            initial_version: 1,
            rollback_budget: 1,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.model_version(), 1);

    let min_shadow: u64 = if smoke { 6 } else { 16 };
    let good_plan = SwapPlan {
        probe_tables: test_tables[..3.min(test_tables.len())].to_vec(),
        // A retrained generation legitimately differs from the baseline:
        // divergence gates are open for planned swaps, strict for guards.
        prepare_max_flip_rate: 1.0,
        shadow_min_requests: min_shadow,
        shadow_max_flip_rate: 1.0,
        watch_min_requests: min_shadow,
        watch_max_flip_rate: 1.0,
        phase_timeout: Duration::from_secs(60),
    };

    // ---- open-loop load: feeder submits, collector redeems, forever ----
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, Annotation)>> = Mutex::new(Vec::new());
    let mut reports: Vec<SwapReport> = Vec::new();
    let mut p99_base: Option<u64> = None;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, kglink_serve::Ticket)>();
        let service_ref = &service;
        let stop_ref = &stop;
        let tables_ref = &test_tables;
        s.spawn(move || {
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                let idx = i % tables_ref.len();
                let ticket = service_ref
                    .submit(tables_ref[idx].clone())
                    .expect("Block admission never rejects");
                tx.send((idx, ticket)).expect("collector alive");
                i += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        let results_ref = &results;
        s.spawn(move || {
            // Redeeming every ticket is itself the hung-ticket check: a
            // request the service lost would park this thread forever and
            // the experiment would time out rather than pass.
            for (idx, ticket) in rx {
                let annotation = ticket.wait().expect("no request fails during swaps");
                results_ref.lock().unwrap().push((idx, annotation));
            }
        });

        // ---- warmup: a pre-swap latency baseline ----
        let warm_target = if smoke { 20 } else { 60 };
        while service.metrics().completed < warm_target {
            std::thread::sleep(Duration::from_millis(5));
        }
        let p99_base_us = service.metrics().latency_p99_us;
        eprintln!("[swap] warmup p99 = {p99_base_us}us; starting swaps");

        // ---- ≥3 good swaps under live load ----
        for (version, model) in [(2, &model_b), (1, &model_a), (2, &model_b)] {
            let report = service
                .swap_model(version, Arc::clone(model), &good_plan)
                .expect("planned swap succeeds");
            assert_eq!(service.model_version(), version);
            assert_eq!(report.to_version, version);
            assert!(
                report.shadow_compared >= min_shadow && report.watch_compared >= min_shadow,
                "shadow/watch phases must see live traffic"
            );
            assert!(
                report.promote_us < 250_000,
                "promotion is an epoch pointer bump, not a pause (took {}us)",
                report.promote_us
            );
            eprintln!(
                "[swap] v{} → v{}: shadow {}/{} flips, watch {}/{} flips, promote {}us",
                report.from_version,
                report.to_version,
                report.shadow_flips,
                report.shadow_compared,
                report.watch_flips,
                report.watch_compared,
                report.promote_us
            );
            reports.push(report);
        }
        let m = service.metrics();
        assert_eq!(m.swaps, 3, "three promotions recorded");
        assert_eq!(m.rollbacks, 0);
        assert_eq!(service.model_version(), 2);

        // ---- bad candidate 1: corrupted checkpoint, caught at load ----
        let mut junk = registry.load(2).expect("reload v2");
        let pub_c = registry
            .publish(&mut junk.model, vocab, "corrupt-me")
            .expect("publish victim");
        let weights = pub_c.dir.join("weights.kgck");
        let mut bytes = std::fs::read(&weights).expect("read weights");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&weights, &bytes).expect("corrupt weights");
        let err = match registry.load_or_quarantine(pub_c.version) {
            Ok(_) => panic!("corrupted checkpoint must not load"),
            Err(e) => e,
        };
        assert!(err.is_corruption(), "typed corruption error: {err}");
        assert!(
            !registry.list().contains(&pub_c.version),
            "corrupt version is quarantined, not listed"
        );
        eprintln!("[swap] corrupt candidate caught at prepare: {err}");

        // ---- bad candidate 2: NaN-poisoned weights, caught at load ----
        let mut poisoned = registry.load(2).expect("reload v2");
        let mut first = true;
        poisoned.model.model.visit_params(&mut |p| {
            if first {
                p.value.data_mut()[0] = f32::NAN;
                first = false;
            }
        });
        let pub_n = registry
            .publish(&mut poisoned.model, vocab, "poisoned")
            .expect("publish poisoned");
        let err = match registry.load_or_quarantine(pub_n.version) {
            Ok(_) => panic!("NaN-poisoned weights must not load"),
            Err(e) => e,
        };
        assert!(
            matches!(err, RegistryError::NonFiniteWeights { .. }),
            "expected NonFiniteWeights, got {err}"
        );
        eprintln!("[swap] NaN-poisoned candidate caught at prepare: {err}");

        // ---- bad candidate 3: accuracy cliff through each gate ----
        // (a) the prepare probe gate rejects it outright;
        let strict_prepare = SwapPlan {
            prepare_max_flip_rate: 0.05,
            ..good_plan.clone()
        };
        match service.swap_model(CLIFF_VERSION, Arc::clone(&cliff), &strict_prepare) {
            Err(SwapError::Rejected {
                phase: SwapPhase::Prepare,
                reason,
            }) => {
                eprintln!("[swap] cliff rejected at prepare: {reason}");
            }
            other => panic!("cliff must be rejected at prepare, got {other:?}"),
        }
        // (b) with the probe gate open, the shadow gate rejects it on
        // live traffic before it ever serves a user;
        let strict_shadow = SwapPlan {
            shadow_max_flip_rate: 0.05,
            ..good_plan.clone()
        };
        match service.swap_model(CLIFF_VERSION, Arc::clone(&cliff), &strict_shadow) {
            Err(SwapError::Rejected {
                phase: SwapPhase::Shadow,
                reason,
            }) => {
                eprintln!("[swap] cliff rejected at shadow: {reason}");
            }
            other => panic!("cliff must be rejected at shadow, got {other:?}"),
        }
        assert_eq!(
            service.model_version(),
            2,
            "rejections never touch the epoch"
        );
        // (c) with prepare and shadow both open, it is promoted — and the
        // watch-phase divergence guard rolls it back automatically.
        let strict_watch = SwapPlan {
            watch_max_flip_rate: 0.05,
            ..good_plan.clone()
        };
        match service.swap_model(CLIFF_VERSION, Arc::clone(&cliff), &strict_watch) {
            Err(SwapError::RolledBack { reason }) => {
                eprintln!("[swap] cliff promoted then rolled back: {reason}");
            }
            other => panic!("cliff must be rolled back from watch, got {other:?}"),
        }
        assert_eq!(
            service.model_version(),
            2,
            "rollback reinstalls the prior epoch"
        );
        let m = service.metrics();
        assert_eq!(m.rollbacks, 1);

        // ---- fail-closed: the rollback budget (1) is now spent ----
        match service.swap_model(2, Arc::clone(&model_b), &good_plan) {
            Err(SwapError::RollbackBudgetExhausted { budget }) => {
                assert_eq!(budget, 1);
            }
            other => panic!("expected RollbackBudgetExhausted, got {other:?}"),
        }
        // …and the last-known-good epoch keeps serving.
        let live = service
            .submit(test_tables[0].clone())
            .expect("still admitting")
            .wait()
            .expect("still serving after budget exhaustion");
        assert_eq!(live.model_version, 2);
        assert_eq!(live.labels, reference[&2][0]);

        p99_base = Some(p99_base_us);
        stop.store(true, Ordering::Relaxed);
    });

    // ---- every ticket completed; none torn ----
    let results = results.into_inner().unwrap();
    let metrics = service.metrics();
    assert_eq!(
        metrics.completed,
        results.len() as u64 + 1,
        "every submitted request completed (the +1 is the liveness probe)"
    );
    assert!(
        metrics.failed_cells == 0,
        "healthy backend never fails cells"
    );
    assert!(metrics.worker_panics == 0, "no worker died during swaps");
    let mut served_by: BTreeMap<u64, u64> = BTreeMap::new();
    for (idx, annotation) in &results {
        let v = annotation.model_version;
        let expect = reference
            .get(&v)
            .unwrap_or_else(|| panic!("request served by unknown version {v}"));
        assert_eq!(
            &annotation.labels, &expect[*idx],
            "torn ticket: table {idx} served under v{v} diverges from that \
             version's single-threaded replay"
        );
        assert!(!annotation.expired);
        *served_by.entry(v).or_insert(0) += 1;
    }
    assert!(
        served_by.get(&1).copied().unwrap_or(0) > 0,
        "v1 served traffic"
    );
    assert!(
        served_by.get(&2).copied().unwrap_or(0) > 0,
        "v2 served traffic"
    );
    let stats = service.version_stats();
    for (&v, &n) in &served_by {
        let st = &stats[&v];
        assert!(
            st.served >= n,
            "version_stats undercounts v{v}: {} < {n}",
            st.served
        );
    }

    // ---- bounded interference ----
    let p99_base_us = p99_base.expect("swap phase ran");
    let p99_swap_us = metrics.latency_p99_us;
    assert!(
        p99_swap_us <= p99_base_us * 20 + 50_000,
        "p99 during swaps ({p99_swap_us}us) blew past the warmup baseline \
         ({p99_base_us}us) by more than the generous interference budget"
    );

    let last = reports.last().expect("three reports");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                format!("v{}→v{}", r.from_version, r.to_version),
                r.shadow_compared.to_string(),
                format!("{:.3}", flip_rate(r.shadow_flips, r.shadow_compared)),
                r.shadow_p99_us.to_string(),
                r.shadow_baseline_p99_us.to_string(),
                r.watch_compared.to_string(),
                r.promote_us.to_string(),
            ]
        })
        .collect();
    print_markdown(
        &format!(
            "Zero-downtime swaps on {} ({} live requests, {} versions served, p99 {}us vs warmup {}us)",
            Which::VizNet.name(),
            results.len(),
            served_by.len(),
            p99_swap_us,
            p99_base_us,
        ),
        &[
            "swap",
            "shadow n",
            "flip rate",
            "shadow p99 us",
            "primary p99 us",
            "watch n",
            "promote us",
        ],
        &rows,
    );

    let promote_max = reports.iter().map(|r| r.promote_us).max().unwrap_or(0);
    // `metrics.swaps` counts every promotion, including the cliff
    // candidate's (promoted, then rolled back by the watch guard).
    let json = format!(
        "{{\n  \"experiment\": \"swap\",\n  \"mode\": \"{}\",\n  \"requests\": {},\n  \
         \"good_swaps\": {},\n  \"promotions\": {},\n  \"rollbacks\": {},\n  \
         \"promote_us_max\": {},\n  \
         \"shadow_p99_us\": {},\n  \"shadow_baseline_p99_us\": {},\n  \
         \"p99_warmup_us\": {},\n  \"p99_overall_us\": {},\n  \"versions_served\": {:?}\n}}\n",
        if smoke { "smoke" } else { "full" },
        results.len(),
        reports.len(),
        metrics.swaps,
        metrics.rollbacks,
        promote_max,
        last.shadow_p99_us,
        last.shadow_baseline_p99_us,
        p99_base_us,
        p99_swap_us,
        served_by.keys().collect::<Vec<_>>(),
    );
    let out = if smoke {
        std::fs::create_dir_all("target/smoke").expect("create target/smoke/");
        PathBuf::from("target/smoke/BENCH_swap.json")
    } else {
        PathBuf::from("BENCH_swap.json")
    };
    std::fs::write(&out, &json).expect("write BENCH_swap.json");
    eprintln!("[swap] wrote {}", out.display());

    service.shutdown();
    println!("exp_swap: all assertions passed");
}

fn flip_rate(flips: u64, compared: u64) -> f64 {
    if compared == 0 {
        0.0
    } else {
        flips as f64 / compared as f64
    }
}
