//! exp_scale: the disk-backed store at 10M+ entities.
//!
//! The paper links against WikiData (~100M entities); the in-memory
//! `KnowledgeGraph`/`InvertedIndex` stack caps our world orders of
//! magnitude below that. This experiment proves the `kglink-store` disk
//! stack closes the gap without changing observable behavior:
//!
//! 1. **Transparency** — on a small synthetic world, every `GraphAccess`
//!    method and every retrieval query through `DiskWorld` is
//!    bit-identical to the in-memory graph + `EntitySearcher`.
//! 2. **Typed failure** — a corrupted/truncated/foreign-version manifest
//!    refuses to open with a typed `StoreError`, never a panic.
//! 3. **Scale build** — `generate_big_world` streams a ≥10M-entity world
//!    (smoke: 150k) straight to segments in bounded memory; build
//!    throughput is the first headline number.
//! 4. **Read path** — random entity lookups and mention queries through
//!    the bounded block caches; p50/p99 latencies are the second headline.
//!    A second pass over 5 000 ids' one-hop lists and labels must be served
//!    by the answer tier alone.
//! 5. **Serving** — an `AnnotationService` runs end-to-end over
//!    `Arc<DiskGraph>` + `Arc<DiskBackend>` (+ the service's own
//!    `CachingBackend`), i.e. the production stack with only the storage
//!    layer swapped, against the big world.
//! 6. **Memory ceiling** — `VmHWM` must stay under a fixed budget that an
//!    in-memory 10M-entity world could not meet.
//!
//! Results land in `BENCH_scale.json` (repo root on full runs,
//! `target/smoke/` on `--smoke`) so later PRs have a perf trajectory to move.
//!
//! Knobs: `KGLINK_SCALE_ENTITIES` overrides the world size,
//! `KGLINK_SCALE_BUDGET_MB` the memory budget.

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_datagen::{generate_big_world, BigWorldConfig};
use kglink_kg::{EntityId, GraphAccess, SyntheticWorld, WorldConfig};
use kglink_obs::Histogram;
use kglink_search::EntitySearcher;
use kglink_serve::{AdmissionPolicy, AnnotationService, ServiceConfig, SharedBackend};
use kglink_store::{
    write_graph, DiskBackend, DiskWorld, StoreError, WorldWriterConfig, MANIFEST_FILE,
};
use kglink_table::{CellValue, LabelId, Table, TableId};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn splitmix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set (VmHWM) of this process, in MB.
fn vm_hwm_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb / 1024)
        .unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Part 1: the disk world must be observationally identical to memory.
fn check_transparency(dir: &Path, seed: u64) {
    eprintln!("[scale] part 1: transparency vs in-memory world…");
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: seed ^ 0x5ca1e,
        scale: 0.15,
        ..WorldConfig::default()
    });
    let g = &world.graph;
    write_graph(
        dir,
        g,
        WorldWriterConfig {
            per_shard: 512, // force many shards even on the small world
            ..WorldWriterConfig::default()
        },
    )
    .expect("write small world");
    let disk = DiskWorld::open(dir).expect("open small world");

    assert_eq!(disk.graph.entity_count(), g.len());
    for (id, entity) in g.entities() {
        let got = disk.graph.entity(id);
        assert_eq!(got.label, entity.label, "entity {id}");
        assert_eq!(got.aliases, entity.aliases, "entity {id}");
        assert_eq!(got.schema, entity.schema, "entity {id}");
        assert_eq!(disk.graph.one_hop(id), g.one_hop(id), "entity {id}");
        assert_eq!(
            disk.graph.one_hop_with_predicates(id),
            g.one_hop_with_predicates(id),
            "entity {id}"
        );
        assert_eq!(disk.graph.types_of(id), g.types_of(id), "entity {id}");
        assert_eq!(
            disk.graph.superclasses_of(id),
            g.superclasses_of(id),
            "entity {id}"
        );
    }

    let mem = EntitySearcher::build(g);
    let queries: Vec<String> = g
        .entities()
        .step_by(7)
        .map(|(_, e)| e.label.clone())
        .chain(["zzz no such entity".to_string()])
        .collect();
    for q in &queries {
        for k in [1usize, 5, 20] {
            let a = mem.link_mention(q, k);
            let b = disk.backend.try_search(q, k).expect("disk search");
            assert_eq!(a.len(), b.len(), "query {q:?} k {k}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0, "query {q:?} k {k}");
                assert_eq!(
                    x.1.to_bits(),
                    y.1.to_bits(),
                    "query {q:?} k {k}: disk score diverged"
                );
            }
        }
    }
    assert_eq!(disk.graph.error_count(), 0);
    assert_eq!(disk.backend.error_count(), 0);
    eprintln!(
        "[scale] part 1 OK: {} entities, {} queries × 3 k-values bit-identical",
        g.len(),
        queries.len()
    );
}

/// Part 2: damaged worlds fail typed, and recover when restored.
fn check_typed_failure(dir: &Path) {
    eprintln!("[scale] part 2: corruption drill on the manifest…");
    let path = dir.join(MANIFEST_FILE);
    let orig = std::fs::read(&path).expect("manifest bytes");

    std::fs::write(&path, &orig[..10]).unwrap();
    assert!(matches!(DiskWorld::open(dir), Err(StoreError::Truncated)));

    let mut bad = orig.clone();
    bad[0] = b'x';
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        DiskWorld::open(dir),
        Err(StoreError::BadMagic { .. })
    ));

    let mut bad = orig.clone();
    bad[4] = 99;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        DiskWorld::open(dir),
        Err(StoreError::WrongVersion { found: 99, .. })
    ));

    std::fs::write(&path, &orig).unwrap();
    assert!(DiskWorld::open(dir).is_ok());
    eprintln!("[scale] part 2 OK: truncated/foreign-magic/foreign-version all typed");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = env_u64("KGLINK_SEED").unwrap_or(7);
    let n_entities =
        env_u64("KGLINK_SCALE_ENTITIES").unwrap_or(if smoke { 150_000 } else { 10_000_000 });
    // Measured VmHWM: ~22 MB smoke, ~215 MB full. The budget leaves slack
    // for allocator/platform variance but sits far below what an in-memory
    // 10M-entity world would need (several GB) — the assert is meaningful.
    let budget_mb = env_u64("KGLINK_SCALE_BUDGET_MB").unwrap_or(if smoke { 600 } else { 2_000 });
    let work = PathBuf::from("target/exp_scale");
    let _ = std::fs::create_dir_all(&work);

    // Parts 1–2: identity and typed failure on a small world.
    let small_dir = work.join("small");
    check_transparency(&small_dir, seed);
    check_typed_failure(&small_dir);

    // Part 3: stream the big world to disk.
    eprintln!("[scale] part 3: building {n_entities}-entity world on disk…");
    let big_dir = work.join(format!("world-{n_entities}"));
    let t0 = Instant::now();
    let bw = generate_big_world(
        &big_dir,
        &BigWorldConfig {
            n_entities,
            seed: seed ^ 0xb16,
            ..BigWorldConfig::default()
        },
        WorldWriterConfig {
            // Spill well before the default so the merge path runs even in
            // smoke, and builder memory stays bounded at 10M entities.
            spill_postings: if smoke { 200_000 } else { 2_000_000 },
            ..WorldWriterConfig::default()
        },
    )
    .expect("big world build");
    let build_s = t0.elapsed().as_secs_f64();
    let total = bw.manifest.n_entities;
    assert!(total >= n_entities, "generator must round up, not down");
    let world_bytes = dir_bytes(&big_dir);
    let build_rate = total as f64 / build_s;
    eprintln!(
        "[scale] built {total} entities in {build_s:.1}s ({:.0} entities/s, {:.1} MB on disk)",
        build_rate,
        world_bytes as f64 / 1e6
    );

    // Part 4: read-path latency through bounded caches (32 MB each — the
    // point is the world does NOT fit; the cache must absorb the re-reads).
    let disk = DiskWorld::open_with_caches(&big_dir, 32 << 20, 32 << 20).expect("open big world");
    let n_lookups: u64 = if smoke { 20_000 } else { 100_000 };
    let mut lookup_ns = Histogram::new();
    let t0 = Instant::now();
    for i in 0..n_lookups {
        let id = EntityId((splitmix(seed ^ 0x100c, i) % total) as u32);
        let t = Instant::now();
        let rec = disk.graph.try_record(id).expect("lookup");
        lookup_ns.record(t.elapsed().as_nanos() as u64);
        assert!(!rec.entity.label.is_empty());
    }
    let lookup_wall = t0.elapsed().as_secs_f64();
    let n_queries: u64 = if smoke { 2_000 } else { 10_000 };
    let mut query_ns = Histogram::new();
    let t0 = Instant::now();
    for i in 0..n_queries {
        let q = &bw.mentions[(i as usize) % bw.mentions.len()];
        let t = Instant::now();
        let hits = disk.backend.try_search(q, 10).expect("query");
        query_ns.record(t.elapsed().as_nanos() as u64);
        assert!(!hits.is_empty(), "mention {q:?} must retrieve");
    }
    let query_wall = t0.elapsed().as_secs_f64();
    let gstats = disk.graph.cache_stats();
    let graph_hit_rate = gstats.hits as f64 / (gstats.hits + gstats.misses).max(1) as f64;
    let bstats = disk.backend.stats();
    // A count, not a timing: it repeats exactly, and it is what stays flat
    // as the world grows (a label is decided inside its rarest list).
    let scored_per_query = bstats.scored_docs as f64 / bstats.queries.max(1) as f64;
    eprintln!(
        "[scale] part 4: {n_lookups} lookups ({:.0}/s), {n_queries} queries ({:.0}/s); \
         graph cache hit rate {:.3}; {scored_per_query:.1} docs scored per query, \
         bounds skipped {} postings / {} blocks",
        n_lookups as f64 / lookup_wall,
        n_queries as f64 / query_wall,
        graph_hit_rate,
        bstats.skipped_docs,
        bstats.skipped_blocks,
    );

    // Part 4b (ROADMAP item-2 follow-up): the block-max skip path must
    // actually fire, not just exist. The generator's skewed hub terms put
    // 16 high-tf hot docs in the first posting block of each `skewhub{f}`
    // list; once those fill the top-10 heap, every later (all-cold) block's
    // max is below the threshold and is skipped without being decoded.
    let blocks_before = bstats.skipped_blocks;
    for q in &bw.skew_queries {
        let hits = disk.backend.try_search(q, 10).expect("skew query");
        assert!(!hits.is_empty(), "skew term {q:?} must retrieve");
    }
    let bstats = disk.backend.stats();
    assert!(
        bstats.skipped_blocks > blocks_before,
        "skewed-term queries skipped no posting blocks \
         (before={blocks_before}, after={}) — block-max skipping went dead",
        bstats.skipped_blocks
    );
    eprintln!(
        "[scale] part 4b OK: {} skew queries skipped {} whole blocks",
        bw.skew_queries.len(),
        bstats.skipped_blocks - blocks_before
    );

    // Part 4c: 5 000 distinct ids' one-hop lists and labels fit the
    // graph's 8 MB answer tier many times over, so a second pass over them
    // is answered by the tier alone — no tier miss, no block read.
    let n_hot = 5_000.min(total as usize);
    let mut hot = BTreeSet::new();
    let mut i = 0;
    while hot.len() < n_hot {
        hot.insert(EntityId((splitmix(seed ^ 0x40b, i) % total) as u32));
        i += 1;
    }
    let read_hot = || {
        for &id in &hot {
            disk.graph.try_one_hop(id).expect("one_hop");
            disk.graph.try_label(id).expect("label");
        }
    };
    read_hot();
    let (tier, loads) = (disk.graph.hop_tier_stats(), disk.graph.cache_stats().misses);
    read_hot();
    let after = disk.graph.hop_tier_stats();
    let (hits, misses) = (after.hits - tier.hits, after.misses - tier.misses);
    let block_loads = disk.graph.cache_stats().misses - loads;
    assert!(
        hits == 2 * n_hot as u64 && misses == 0 && block_loads == 0,
        "a second pass over {n_hot} ids' one-hop lists and labels hit the answer tier \
         {hits} times, missed it {misses} times and ran the block loader {block_loads} times"
    );
    eprintln!(
        "[scale] part 4c OK: second pass over {n_hot} one-hop lists and labels served by the tier alone"
    );

    // Part 5: the production serving stack over the disk world. The model
    // is trained on the small benchmark (accuracy is not the point here);
    // the service's graph + retrieval seams both point at the 10M world.
    eprintln!("[scale] part 5: AnnotationService over the disk stack…");
    let env = ExpEnv::load();
    let model = env.fit_smoke(&env.resources(), Which::SemTab, true);

    let disk_backend =
        Arc::new(DiskBackend::open_with_cache(&big_dir, 32 << 20).expect("service backend"));
    let mut service = AnnotationService::new(
        Arc::new(model),
        Arc::clone(&disk.graph) as Arc<dyn GraphAccess>,
        Arc::clone(&disk_backend) as SharedBackend,
        Arc::clone(&env.tokenizer),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            admission: AdmissionPolicy::Block,
            cache: Some(Default::default()),
            ..ServiceConfig::default()
        },
    );
    let n_tables = if smoke { 8 } else { 24 };
    let tables: Vec<Table> = (0..n_tables)
        .map(|t| {
            let cols: Vec<Vec<CellValue>> = (0..2)
                .map(|c| {
                    (0..6)
                        .map(|r| {
                            let m = &bw.mentions[(t * 12 + c * 6 + r) % bw.mentions.len()];
                            CellValue::Text(m.clone())
                        })
                        .collect()
                })
                .collect();
            Table::new(TableId(t as u32), Vec::new(), cols, vec![LabelId(0); 2])
        })
        .collect();
    let tickets = service.submit_batch(tables.iter().cloned());
    let mut annotated_cols = 0usize;
    for t in tickets {
        let a = t
            .expect("Block admission never rejects")
            .wait()
            .expect("service survives the big world");
        assert!(!a.expired);
        annotated_cols += a.labels.len();
    }
    service.shutdown();
    assert_eq!(annotated_cols, n_tables * 2);
    assert_eq!(disk.graph.error_count(), 0, "graph reads stayed clean");
    assert_eq!(disk_backend.error_count(), 0, "retrieval stayed clean");
    // No latency is recorded here: every table is submitted at once, so a
    // percentile would be queue wait. `serve.*` in BENCHMARK.json measures it.
    eprintln!("[scale] part 5 OK: {n_tables} tables annotated");

    // Part 6: memory ceiling.
    let tier = disk.graph.hop_tier_stats();
    let tier_hit_rate = tier.hits as f64 / (tier.hits + tier.misses).max(1) as f64;
    let hwm = vm_hwm_mb();
    eprintln!("[scale] part 6: VmHWM {hwm} MB (budget {budget_mb} MB)");
    assert!(
        hwm <= budget_mb,
        "peak resident {hwm} MB blew the {budget_mb} MB budget — the disk \
         stack must not pull the world into memory"
    );

    print_markdown(
        &format!(
            "exp_scale — {total} entities on disk ({})",
            if smoke { "smoke" } else { "full" }
        ),
        &["metric", "value"],
        &[
            vec!["entities".into(), total.to_string()],
            vec!["build s".into(), format!("{build_s:.1}")],
            vec!["build entities/s".into(), format!("{build_rate:.0}")],
            vec![
                "world MB on disk".into(),
                format!("{:.1}", world_bytes as f64 / 1e6),
            ],
            vec![
                "lookup p50 µs".into(),
                format!("{:.1}", lookup_ns.p50() as f64 / 1e3),
            ],
            vec![
                "lookup p99 µs".into(),
                format!("{:.1}", lookup_ns.p99() as f64 / 1e3),
            ],
            vec![
                "query p50 µs".into(),
                format!("{:.1}", query_ns.p50() as f64 / 1e3),
            ],
            vec![
                "query p99 µs".into(),
                format!("{:.1}", query_ns.p99() as f64 / 1e3),
            ],
            vec![
                "graph cache hit rate".into(),
                format!("{graph_hit_rate:.3}"),
            ],
            vec!["hop tier hit rate".into(), format!("{tier_hit_rate:.3}")],
            vec!["VmHWM MB".into(), hwm.to_string()],
        ],
    );

    let json = format!(
        "{{\n  \"experiment\": \"exp_scale\",\n  \"mode\": \"{mode}\",\n  \
         \"n_entities\": {total},\n  \"world_bytes\": {world_bytes},\n  \
         \"build_seconds\": {build_s:.3},\n  \"build_entities_per_s\": {build_rate:.1},\n  \
         \"lookup_p50_ns\": {lp50},\n  \"lookup_p99_ns\": {lp99},\n  \
         \"query_p50_ns\": {qp50},\n  \"query_p99_ns\": {qp99},\n  \
         \"graph_cache_hit_rate\": {ghr:.4},\n  \
         \"bm25_scored_docs_per_query\": {scored_per_query:.1},\n  \
         \"bm25_skipped_docs\": {skd},\n  \"bm25_skipped_blocks\": {skb},\n  \
         \"vmhwm_mb\": {hwm},\n  \"budget_mb\": {budget_mb}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        lp50 = lookup_ns.p50(),
        lp99 = lookup_ns.p99(),
        qp50 = query_ns.p50(),
        qp99 = query_ns.p99(),
        ghr = graph_hit_rate,
        skd = bstats.skipped_docs,
        skb = bstats.skipped_blocks,
    );
    let out = if smoke {
        std::fs::create_dir_all("target/smoke").expect("create target/smoke/");
        PathBuf::from("target/smoke/BENCH_scale.json")
    } else {
        PathBuf::from("BENCH_scale.json")
    };
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    eprintln!("[scale] wrote {}", out.display());
}
