//! Observability integration: a traced, fault-injected annotation run
//! must produce a causally ordered, well-formed, deterministic event log
//! that reconciles with the pipeline's own degradation accounting.

use kglink::core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink::core::KgLinkConfig;
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::{SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::obs::{Event, EventKind, Tracer};
use kglink::search::{FaultConfig, FaultyBackend};
use kglink::store::DiskWorld;

/// Everything about an event that must be identical across reruns —
/// wall-clock fields (`t_us`, span `elapsed_us`) are excluded, counter
/// totals and payload fields (degraded table and column) are not.
fn fingerprint(e: &Event) -> (String, String) {
    let kind = match &e.kind {
        EventKind::SpanStart => "start".to_string(),
        EventKind::SpanEnd { .. } => "end".to_string(),
        EventKind::Instant => "instant".to_string(),
        EventKind::Counter { value } => format!("counter={value}"),
    };
    (format!("{}:{kind}", e.name), format!("{:?}", e.fields))
}

/// One traced annotation pass over `n_tables` tables through a full-outage
/// backend. Fresh backend + tracer per call, so reruns are independent.
fn traced_outage_run(
    disk: &DiskWorld,
    tokenizer: &Tokenizer,
    model: &KgLink,
    tables: &[&kglink::table::Table],
) -> (Tracer, usize) {
    let tracer = Tracer::enabled();
    let dead = FaultyBackend::new(&disk.backend, FaultConfig::with_fault_rate(517, 1.0));
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&dead)
        .tokenizer(tokenizer)
        .tracer(&tracer)
        .build()
        .unwrap();
    let mut degraded_total = 0;
    for t in tables {
        let outcome = model.annotate_request(&resources, req(t));
        assert_eq!(outcome.labels.len(), t.n_cols());
        degraded_total += outcome.degraded_columns;
    }
    (tracer, degraded_total)
}

#[test]
fn fault_injected_run_produces_a_causally_ordered_deterministic_event_log() {
    let world = SyntheticWorld::generate(&WorldConfig::tiny(517));
    let bench = semtab_like(&world, &SemTabConfig::tiny(517));
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let corpus = pretrain_corpus(&world, 517);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
    let tokenizer = Tokenizer::new(vocab);
    let (model, _) = {
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .unwrap();
        KgLink::fit(
            &resources,
            &bench.dataset,
            KgLinkConfig {
                epochs: 1,
                ..KgLinkConfig::fast_test()
            },
        )
    };
    let tables: Vec<_> = bench.dataset.tables.iter().take(4).collect();

    let (tracer, degraded_total) = traced_outage_run(&disk, &tokenizer, &model, &tables);
    let events = tracer.events();
    assert!(!events.is_empty());

    // Sequence numbers are dense and monotone: seq order IS causal order.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "event log must be gap-free and ordered");
    }

    // Spans are well-formed: every SpanEnd closes an earlier SpanStart of
    // the same id and name.
    let mut open: std::collections::HashMap<u64, &str> = std::collections::HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::SpanStart => {
                assert!(open.insert(e.span, e.name).is_none(), "span ids are unique");
            }
            EventKind::SpanEnd { .. } => {
                assert_eq!(
                    open.remove(&e.span),
                    Some(e.name),
                    "SpanEnd must match an open SpanStart"
                );
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "every span closed by the end of the run");

    // The degrade path reads off the log in causal order, as the pipeline
    // documents: every `degrade.column` event is emitted inside a
    // `retrieval` span, after its SpanStart and before its SpanEnd.
    let mut retrieval_spans = std::collections::HashMap::new();
    for e in events.iter().filter(|e| e.name == "retrieval") {
        let (start, end) = retrieval_spans.entry(e.span).or_insert((None, None));
        match e.kind {
            EventKind::SpanStart => *start = Some(e.seq),
            EventKind::SpanEnd { .. } => *end = Some(e.seq),
            _ => {}
        }
    }
    let degrades: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "degrade.column")
        .collect();
    assert!(!degrades.is_empty(), "full outage emits degrade.column");
    for d in &degrades {
        let (start, end) = retrieval_spans
            .get(&d.span)
            .copied()
            .unwrap_or_else(|| panic!("degrade.column #{} is outside every retrieval span", d.seq));
        assert!(
            start.is_some_and(|s| s < d.seq) && end.is_some_and(|e| d.seq < e),
            "degrade.column #{} lies outside its retrieval span {start:?}..{end:?}",
            d.seq
        );
    }

    // Degradation events reconcile exactly with the pipeline's own count.
    assert!(degraded_total > 0, "full outage degrades linkable columns");
    assert_eq!(
        tracer.events_named("degrade.column").len(),
        degraded_total,
        "one degrade.column event per degraded column"
    );

    // Every pipeline stage timed something, under one root span per table.
    let stages = tracer.stages();
    for stage in [
        "annotate",
        "retrieval",
        "filter",
        "feature",
        "encode",
        "classify",
    ] {
        assert!(stages.contains_key(stage), "stage `{stage}` missing");
    }
    assert_eq!(stages["annotate"].count(), tables.len() as u64);

    // And the whole log is deterministic: an identically-seeded rerun
    // replays the same events in the same causal order (timing aside).
    let (tracer2, degraded2) = traced_outage_run(&disk, &tokenizer, &model, &tables);
    assert_eq!(degraded_total, degraded2);
    let fp1: Vec<_> = events.iter().map(fingerprint).collect();
    let fp2: Vec<_> = tracer2.events().iter().map(fingerprint).collect();
    assert_eq!(fp1, fp2, "fault-injected tracing must be deterministic");
}
