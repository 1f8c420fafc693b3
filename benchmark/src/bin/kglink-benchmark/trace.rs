//! The traced pass: per-layer timings taken from outside the library.
//!
//! Each of the first tables of a workload is annotated four ways by one
//! client:
//!
//! * `table.untraced` — a service exactly as the timed window runs it;
//! * `table.service`  — a service whose backend and graph carry the
//!   timing decorators (`search.call` ⊃ `store.query`, `store.graph`);
//! * `table.direct`   — a single-threaded `KgLink::annotate_request` over
//!   the same decorated stack (the reference for serve overhead);
//! * `table.replay`   — the same annotation spelled out through
//!   `kglink_core`'s public stage functions with a span around each.
//!
//! Each way reads the world through a `DiskBackend` and a `DiskGraph` of
//! its own, warmed by the same tables, so all four see the same sequence
//! of block-cache states and none profits from blocks another decoded.
//! All four must return the same labels.

use crate::drive;
use crate::setup::{self, Model, Scale, Stack, World};
use crate::stats::{median, quantile, ratio, sorted};
use crate::timed::{Span, SpanLog, TimedBackend, TimedGraph, GRAPH_SPAN};
use kglink_core::candidates::candidate_types;
use kglink_core::feature::feature_sequences;
use kglink_core::filter::prune_and_filter;
use kglink_core::pipeline::{req, Resources};
use kglink_core::train::{predict_table_traced, prepare_tables};
use kglink_core::{LinkedTable, ProcessedTable};
use kglink_kg::GraphAccess;
use kglink_obs::{EventKind, Tracer};
use kglink_search::{
    CacheConfig, CachingBackend, Deadline, KgBackend, ResilienceConfig, ResilientBackend,
};
use kglink_serve::{AdmissionPolicy, AnnotationService, SharedBackend};
use kglink_store::{BackendStats, DiskGraph};
use kglink_table::{LabelId, Table};
use std::collections::HashMap;
use std::sync::Arc;

pub const ROOT_UNTRACED: &str = "table.untraced";
pub const ROOT_SERVICE: &str = "table.service";
pub const ROOT_DIRECT: &str = "table.direct";
pub const ROOT_REPLAY: &str = "table.replay";
const SEARCH_SPAN: &str = "search.call";
const QUERY_SPAN: &str = "store.query";
const FORWARD_SPAN: &str = "nn.forward";
/// Stage spans of the replay, in pipeline order.
const STAGES: [&str; 5] = [
    "core.link",
    "core.filter",
    "core.feature",
    "core.encode",
    "core.classify",
];

/// A freshly opened stack with the timing decorators on:
/// `Timed(ResilientBackend(Timed(DiskBackend)))` and `Timed(DiskGraph)`.
struct Decorated {
    stack: Stack,
    graph: Arc<TimedGraph<Arc<DiskGraph>>>,
    backend: SharedBackend,
}

impl Decorated {
    fn open(world: &World, scale: Scale, log: &Arc<SpanLog>) -> Decorated {
        let stack = setup::open_stack(world, scale);
        let inner = TimedBackend::new(Arc::clone(&stack.disk), QUERY_SPAN, log);
        let resilient = ResilientBackend::new(inner, ResilienceConfig::default());
        Decorated {
            graph: Arc::new(TimedGraph::new(Arc::clone(&stack.graph), log)),
            backend: Arc::new(TimedBackend::new(resilient, SEARCH_SPAN, log)),
            stack,
        }
    }
}

/// A decorated stack behind a retrieval LRU, standing in for the one
/// inside the service on the two single-threaded ways.
struct SingleThreaded {
    stack: Decorated,
    lru: CachingBackend<SharedBackend>,
}

impl SingleThreaded {
    fn open(world: &World, scale: Scale, log: &Arc<SpanLog>) -> SingleThreaded {
        let stack = Decorated::open(world, scale, log);
        let lru = CachingBackend::new(Arc::clone(&stack.backend), CacheConfig::default());
        SingleThreaded { stack, lru }
    }
}

/// The four ways, each over a stack of its own.
pub struct Traced {
    pub log: Arc<SpanLog>,
    untraced_stack: Stack,
    untraced: AnnotationService,
    service_stack: Decorated,
    service: AnnotationService,
    direct: SingleThreaded,
    replay: SingleThreaded,
}

impl Traced {
    pub fn open(model: &Model, world: &World, scale: Scale) -> Traced {
        let log = SpanLog::new();
        let untraced_stack = setup::open_stack(world, scale);
        let untraced = setup::service(
            model,
            Arc::clone(&untraced_stack.graph) as Arc<dyn GraphAccess>,
            Arc::clone(&untraced_stack.resilient) as SharedBackend,
            AdmissionPolicy::Block,
        );
        let service_stack = Decorated::open(world, scale, &log);
        let service = setup::service(
            model,
            Arc::clone(&service_stack.graph) as Arc<dyn GraphAccess>,
            Arc::clone(&service_stack.backend),
            AdmissionPolicy::Block,
        );
        Traced {
            direct: SingleThreaded::open(world, scale, &log),
            replay: SingleThreaded::open(world, scale, &log),
            log,
            untraced_stack,
            untraced,
            service_stack,
            service,
        }
    }

    /// Warm all four ways with the same tables, as the timed window's
    /// service is warmed.
    pub fn warm_up(&self, model: &Model, warmup: &[Table]) {
        for service in [&self.untraced, &self.service] {
            drive::warm_up(service, warmup);
        }
        for way in [&self.direct, &self.replay] {
            for table in warmup {
                let _ = model
                    .kglink
                    .annotate_request(&way.resources(model), req(table));
            }
        }
    }

    /// Reads the decorated or plain stacks degraded to empty results.
    pub fn store_errors(&self) -> u64 {
        [
            &self.untraced_stack,
            &self.service_stack.stack,
            &self.direct.stack.stack,
            &self.replay.stack.stack,
        ]
        .iter()
        .map(|s| s.graph.error_count() + s.disk.error_count())
        .sum()
    }
}

impl SingleThreaded {
    fn resources<'a>(&'a self, model: &'a Model) -> Resources<'a> {
        Resources::builder()
            .graph(self.stack.graph.as_ref())
            .backend(&self.lru)
            .tokenizer(&model.tokenizer)
            .build()
            .expect("graph, backend and tokenizer are all present")
    }
}

/// What the four ways measured for one table.
#[derive(Debug, Clone, Default)]
pub struct TableTimes {
    pub untraced_us: f64,
    pub service_us: f64,
    pub direct_us: f64,
    /// Token ids handed to the encoder (masked table + feature sequences).
    pub tokens: usize,
}

/// Outcome of the traced pass.
pub struct TracedPass {
    pub times: Vec<TableTimes>,
    /// Tables on which the four ways disagreed on the labels.
    pub mismatches: u64,
    /// Retrieval-LRU lookups and hits of the decorated service over the
    /// pass.
    pub lru_lookups: u64,
    pub lru_hits: u64,
    /// BM25 work counters of the decorated service's own `DiskBackend`
    /// over the pass: a fixed set of queries, so they repeat exactly.
    pub backend_before: BackendStats,
    pub backend_after: BackendStats,
}

/// `annotate_request` spelled out: the body of
/// `kglink_core::preprocess_table_traced` and of `KgLink::annotate_request`
/// through the crate's public stage functions, one span per stage. Must
/// return exactly what `annotate_request` returns.
fn replay(
    model: &Model,
    graph: &dyn GraphAccess,
    backend: &dyn KgBackend,
    table: &Table,
    log: &SpanLog,
) -> (Vec<LabelId>, usize) {
    let kglink = &model.kglink;
    let config = &kglink.config;
    let mut labels = Vec::with_capacity(table.n_cols());
    let mut tokens = 0usize;
    for chunk in table.split_columns(config.max_columns) {
        let (linked, failed_cells, degraded) = {
            let _span = log.enter(STAGES[0]);
            let mut linked = LinkedTable::link_with_deadline(
                &chunk,
                backend,
                config.max_entities_per_mention,
                Deadline::from_us(config.retrieval_deadline_us),
            );
            let failed_cells = linked.failed_cells();
            let degraded: Vec<bool> = (0..chunk.n_cols())
                .map(|c| linked.column_failed(c))
                .collect();
            for (c, _) in degraded.iter().enumerate().filter(|(_, &d)| d) {
                linked.degrade_column(c);
            }
            (linked, failed_cells, degraded)
        };
        let filtered = {
            let _span = log.enter(STAGES[1]);
            prune_and_filter(&chunk, &linked, graph, config.top_k_rows, config.row_filter)
        };
        let processed = {
            let _span = log.enter(STAGES[2]);
            let cts = candidate_types(&filtered, graph, config.max_candidate_types);
            let feature_seqs = feature_sequences(&filtered, graph);
            let n_cols = filtered.table.n_cols();
            ProcessedTable {
                numeric_stats: (0..n_cols)
                    .map(|c| {
                        filtered
                            .table
                            .is_numeric_column(c)
                            .then(|| filtered.table.numeric_stats(c))
                            .flatten()
                    })
                    .collect(),
                has_linkage: (0..n_cols)
                    .map(|c| {
                        filtered.cells[c]
                            .iter()
                            .any(|cell| !cell.entities.is_empty())
                    })
                    .collect(),
                candidate_type_names: cts
                    .iter()
                    .map(|col| col.iter().map(|ct| graph.label(ct.entity)).collect())
                    .collect(),
                candidate_type_entities: cts,
                feature_seqs,
                degraded,
                failed_cells,
                labels: filtered.table.labels.clone(),
                table: filtered.table,
            }
        };
        let prepared = {
            let _span = log.enter(STAGES[3]);
            prepare_tables(
                std::slice::from_ref(&processed),
                &model.tokenizer,
                &kglink.labels,
                config,
                false,
            )
        };
        tokens += prepared[0].masked.ids.len()
            + prepared[0]
                .features
                .iter()
                .flatten()
                .map(Vec::len)
                .sum::<usize>();
        let span = log.enter(STAGES[4]);
        // The library's own `nn.forward` span, read back from a tracer
        // that lives for this one call.
        let tracer = Tracer::enabled();
        labels.extend(predict_table_traced(
            &kglink.model,
            config,
            &prepared[0],
            &tracer,
        ));
        let mut started_us = 0;
        for event in tracer.events_named(FORWARD_SPAN) {
            match event.kind {
                EventKind::SpanStart => started_us = event.t_us,
                EventKind::SpanEnd { elapsed_us } => {
                    let start_ns = span.start_ns() + started_us * 1_000;
                    log.record_span(FORWARD_SPAN, start_ns, start_ns + elapsed_us * 1_000);
                }
                _ => {}
            }
        }
    }
    labels.resize(table.n_cols(), LabelId(0));
    (labels, tokens)
}

/// Run the four ways over `tables`, one client. The order alternates
/// between tables, forwards then backwards, so that whatever one way
/// leaves in the processor's and the OS's caches helps each other way
/// equally often.
pub fn traced_pass(traced: &Traced, model: &Model, tables: &[Table]) -> TracedPass {
    let log = &traced.log;
    let lru_before = traced.service.metrics().cache.unwrap_or_default();
    let backend_before = traced.service_stack.stack.disk.stats();
    let mut times = vec![TableTimes::default(); tables.len()];
    let mut mismatches = 0u64;
    for (i, table) in tables.iter().enumerate() {
        let mut answers: Vec<Option<Vec<LabelId>>> = Vec::with_capacity(4);
        let mut ways = [ROOT_UNTRACED, ROOT_SERVICE, ROOT_DIRECT, ROOT_REPLAY];
        if i % 2 == 1 {
            ways.reverse();
        }
        for way in ways {
            let request = table.clone();
            let root = log.enter_root(way, i);
            match way {
                ROOT_UNTRACED => {
                    let answer = traced.untraced.annotate(request);
                    times[i].untraced_us = root.close() as f64 / 1e3;
                    answers.push(answer.ok().map(|a| a.labels));
                }
                ROOT_SERVICE => {
                    let answer = traced.service.annotate(request);
                    times[i].service_us = root.close() as f64 / 1e3;
                    answers.push(answer.ok().map(|a| a.labels));
                }
                ROOT_DIRECT => {
                    let resources = traced.direct.resources(model);
                    let outcome = model.kglink.annotate_request(&resources, req(&request));
                    times[i].direct_us = root.close() as f64 / 1e3;
                    answers.push(Some(outcome.labels));
                }
                _ => {
                    let way = &traced.replay;
                    let (labels, tokens) =
                        replay(model, way.stack.graph.as_ref(), &way.lru, &request, log);
                    drop(root);
                    times[i].tokens = tokens;
                    answers.push(Some(labels));
                }
            }
        }
        if answers.iter().any(|a| a.is_none() || *a != answers[0]) {
            mismatches += 1;
        }
    }
    let lru_after = traced.service.metrics().cache.unwrap_or_default();
    TracedPass {
        times,
        mismatches,
        lru_lookups: lru_after.lookups() - lru_before.lookups(),
        lru_hits: lru_after.hits - lru_before.hits,
        backend_before,
        backend_after: traced.service_stack.stack.disk.stats(),
    }
}

/// Timings derived from the span log of a traced pass.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub query_p50_us: f64,
    pub query_p95_us: f64,
    /// Σ `store.query` ÷ Σ `table.service`.
    pub query_busy_share: f64,
    pub graph_calls: u64,
    pub graph_busy_us_per_table: f64,
    /// Outer-decorator calls: retrievals the LRU did not serve.
    pub miss_calls: u64,
    /// Mean self time of `search.call`: outer minus inner decorator.
    pub resilient_overhead_us: f64,
    /// Median per-table self time of each replay stage, in [`STAGES`]
    /// order, then of `nn.forward`.
    pub stage_self_us: [f64; 6],
    /// Σ `nn.forward` ÷ Σ `table.replay`.
    pub forward_share: f64,
    /// Σ stage spans ÷ Σ `table.direct`.
    pub stage_tiling: f64,
}

/// A layer's self time is its span minus the part its child spans cover.
pub fn layer_times(spans: &[Span], n_tables: usize) -> LayerTimes {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *children_ns.entry(s.parent).or_default() += s.ns();
    }
    let self_ns = |s: &Span| {
        s.ns()
            .saturating_sub(children_ns.get(&s.id).copied().unwrap_or(0))
    };
    let root_of = |s: &Span| {
        let mut at = s;
        while let Some(parent) = by_id.get(&at.parent) {
            at = parent;
        }
        at.name
    };
    let total_ns = |name: &str, root: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && root_of(s) == root)
            .map(|s| s.ns() as f64)
            .sum()
    };
    let n = n_tables as f64;

    let mut query_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == QUERY_SPAN && root_of(s) == ROOT_SERVICE)
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    let query_us = sorted(&mut query_us);
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == SEARCH_SPAN && root_of(s) == ROOT_SERVICE)
        .collect();
    let graph_calls = spans
        .iter()
        .filter(|s| s.name == GRAPH_SPAN && root_of(s) == ROOT_SERVICE)
        .count();

    // Per table, the self time of each replay stage (a wide table runs
    // every stage once per column chunk).
    let mut per_table: HashMap<(u64, &str), f64> = HashMap::new();
    for s in spans.iter().filter(|s| root_of(s) == ROOT_REPLAY) {
        if STAGES.contains(&s.name) || s.name == FORWARD_SPAN {
            *per_table.entry((s.table, s.name)).or_default() += self_ns(s) as f64 / 1e3;
        }
    }
    let mut stage_self_us = [0.0; 6];
    for (slot, name) in STAGES.iter().chain([&FORWARD_SPAN]).enumerate() {
        let mut v: Vec<f64> = per_table
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, &us)| us)
            .collect();
        stage_self_us[slot] = median(&mut v);
    }
    let stages_ns: f64 = STAGES.iter().map(|name| total_ns(name, ROOT_REPLAY)).sum();

    LayerTimes {
        query_p50_us: quantile(query_us, 0.5),
        query_p95_us: quantile(query_us, 0.95),
        query_busy_share: ratio(
            total_ns(QUERY_SPAN, ROOT_SERVICE),
            total_ns(ROOT_SERVICE, ROOT_SERVICE),
        ),
        graph_calls: graph_calls as u64,
        graph_busy_us_per_table: ratio(total_ns(GRAPH_SPAN, ROOT_SERVICE) / 1e3, n),
        miss_calls: calls.len() as u64,
        resilient_overhead_us: ratio(
            calls.iter().map(|s| self_ns(s) as f64 / 1e3).sum(),
            calls.len() as f64,
        ),
        stage_self_us,
        forward_share: ratio(
            total_ns(FORWARD_SPAN, ROOT_REPLAY),
            total_ns(ROOT_REPLAY, ROOT_REPLAY),
        ),
        stage_tiling: ratio(stages_ns, total_ns(ROOT_DIRECT, ROOT_DIRECT)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn two_traced_passes_agree_on_labels_and_repeat_their_counts_exactly() {
        let scale = Scale {
            entities: 20_000,
            cache_bytes: 1 << 18,
            traced_tables: 8,
            cold_tables_per_s: 100.0,
        };
        let ready = setup::set_up(Workload::ColdNoisy, 9001, 0.2, scale);
        let tables = &ready.inputs.tables[..scale.traced_tables];
        let run = || {
            let traced = Traced::open(&ready.model, &ready.world, scale);
            traced.warm_up(&ready.model, &ready.inputs.warmup);
            let pass = traced_pass(&traced, &ready.model, tables);
            let layers = layer_times(&traced.log.spans(), tables.len());
            assert_eq!(
                pass.mismatches, 0,
                "the four ways must return the same labels"
            );
            assert_eq!(traced.store_errors(), 0);
            (
                pass.backend_after.queries - pass.backend_before.queries,
                pass.backend_after.scored_docs - pass.backend_before.scored_docs,
                pass.backend_after.skipped_docs - pass.backend_before.skipped_docs,
                pass.lru_lookups - pass.lru_hits,
                layers.miss_calls,
            )
        };
        let first = run();
        // Every cold cell is a distinct mention: 24 retrievals per table.
        assert_eq!(first.0, 24 * tables.len() as u64);
        assert_eq!(first.3, first.0);
        assert!(first.1 > 0);
        assert_eq!(first, run());
        ready.world.remove();
    }

    fn span(id: u64, parent: u64, table: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            table,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_roots_scope_the_sums() {
        let spans = vec![
            span(1, 0, 0, ROOT_SERVICE, 0, 10_000),
            span(2, 1, 0, SEARCH_SPAN, 1_000, 7_000),
            span(3, 2, 0, QUERY_SPAN, 2_000, 6_000),
            span(4, 1, 0, GRAPH_SPAN, 8_000, 9_000),
            span(5, 0, 0, ROOT_DIRECT, 20_000, 30_000),
            // A query under the direct root must not count as service time.
            span(6, 5, 0, QUERY_SPAN, 21_000, 29_000),
            span(7, 0, 0, ROOT_REPLAY, 40_000, 52_000),
            span(8, 7, 0, "core.link", 40_000, 46_000),
            span(9, 8, 0, SEARCH_SPAN, 41_000, 45_000),
            span(10, 7, 0, "core.classify", 46_000, 51_000),
            span(11, 10, 0, FORWARD_SPAN, 47_000, 50_000),
        ];
        let t = layer_times(&spans, 1);
        assert_eq!(t.query_p50_us, 4.0);
        assert_eq!(t.query_busy_share, 0.4);
        assert_eq!(t.resilient_overhead_us, 2.0);
        assert_eq!((t.miss_calls, t.graph_calls), (1, 1));
        assert_eq!(t.graph_busy_us_per_table, 1.0);
        assert_eq!(t.stage_self_us[0], 2.0, "link minus its search call");
        assert_eq!(t.stage_self_us[4], 2.0, "classify minus nn.forward");
        assert_eq!(t.stage_self_us[5], 3.0);
        assert_eq!(t.forward_share, 0.25);
        assert_eq!(t.stage_tiling, 1.1);
    }
}
