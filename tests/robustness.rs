//! Failure-injection and edge-case integration tests: the pipeline must
//! degrade gracefully, never panic, on degenerate inputs.

use kglink::core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink::core::serialize::{serialize_table, SlotFill};
use kglink::core::{KgLinkConfig, KgLinkError, Preprocessor};
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::{KnowledgeGraph, SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::search::{FaultConfig, FaultyBackend, ResilienceConfig, ResilientBackend};
use kglink::store::DiskWorld;
use kglink::table::{CellValue, LabelId, Table, TableId};

fn trained_model() -> (SyntheticWorld, DiskWorld, Tokenizer, KgLink) {
    let world = SyntheticWorld::generate(&WorldConfig::tiny(401));
    let bench = semtab_like(&world, &SemTabConfig::tiny(401));
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let corpus = pretrain_corpus(&world, 401);
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
                epochs: 2,
                ..KgLinkConfig::fast_test()
            },
        )
    };
    (world, disk, tokenizer, model)
}

#[test]
fn annotating_degenerate_tables_never_panics() {
    let (_, disk, tokenizer, model) = trained_model();
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .unwrap();
    let cases: Vec<Table> = vec![
        // All-empty cells.
        Table::new(
            TableId(1),
            vec![],
            vec![vec![CellValue::Empty; 3], vec![CellValue::Empty; 3]],
            vec![LabelId(0), LabelId(0)],
        ),
        // Single cell.
        Table::new(
            TableId(2),
            vec![],
            vec![vec![CellValue::Text("x".into())]],
            vec![LabelId(0)],
        ),
        // Only numeric columns.
        Table::new(
            TableId(3),
            vec![],
            vec![
                (0..5).map(|i| CellValue::Number(i as f64)).collect(),
                (0..5).map(|i| CellValue::Number(i as f64 * 2.0)).collect(),
            ],
            vec![LabelId(0), LabelId(0)],
        ),
        // Pathologically long cell text.
        Table::new(
            TableId(4),
            vec![],
            vec![vec![CellValue::Text("word ".repeat(500))]],
            vec![LabelId(0)],
        ),
        // Cells full of out-of-vocabulary gibberish.
        Table::new(
            TableId(5),
            vec![],
            vec![vec![
                CellValue::Text("zzqqj xxkwv".into()),
                CellValue::Text("bbnmp ccvty".into()),
            ]],
            vec![LabelId(0)],
        ),
        // Very wide table (exceeds max_columns, forces splitting).
        Table::new(
            TableId(6),
            vec![],
            (0..20)
                .map(|i| vec![CellValue::Text(format!("cell{i}"))])
                .collect(),
            (0..20).map(|_| LabelId(0)).collect(),
        ),
    ];
    for table in &cases {
        let preds = model.annotate_request(&resources, req(table)).labels;
        assert_eq!(preds.len(), table.n_cols(), "table {:?}", table.id);
        for p in preds {
            assert!((p.index()) < model.labels.len());
        }
    }
}

#[test]
fn empty_knowledge_graph_still_allows_training() {
    // KGLink degrades to a Doduo-style model when the KG has nothing.
    let world = SyntheticWorld::generate(&WorldConfig::tiny(402));
    let bench = semtab_like(&world, &SemTabConfig::tiny(402));
    let empty = KnowledgeGraph::new();
    let disk = DiskWorld::from_graph(&empty).unwrap();
    let corpus = pretrain_corpus(&world, 402);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
    let tokenizer = Tokenizer::new(vocab);
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .unwrap();
    // Without KG features the tiny fixture carries little signal per epoch;
    // give the optimizer a budget that can actually beat chance.
    let mut config = KgLinkConfig {
        epochs: 4,
        ..KgLinkConfig::fast_test()
    };
    config.optimizer.lr = 2e-3;
    let (model, _) = KgLink::fit(&resources, &bench.dataset, config);
    let summary = model.evaluate(&resources, &bench.dataset, kglink::table::Split::Test);
    assert!(summary.support > 0);
    assert!(
        summary.accuracy > 1.0 / bench.dataset.labels.len() as f64,
        "even KG-less, the PLM learns: {}",
        summary.accuracy
    );
}

#[test]
fn preprocessing_with_empty_graph_yields_no_kg_information() {
    let world = SyntheticWorld::generate(&WorldConfig::tiny(403));
    let bench = semtab_like(&world, &SemTabConfig::tiny(403));
    let empty = KnowledgeGraph::new();
    let disk = DiskWorld::from_graph(&empty).unwrap();
    let pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
    for table in bench.dataset.tables.iter().take(5) {
        for pt in pre.process(table) {
            for c in 0..pt.table.n_cols() {
                assert!(pt.candidate_type_names[c].is_empty());
                assert!(pt.feature_seqs[c].is_none());
                assert!(!pt.has_linkage[c]);
            }
        }
    }
}

#[test]
fn outage_mid_annotate_degrades_and_stays_deterministic() {
    // The backend dies after the 5th retrieval call and never recovers.
    // Annotation must keep its arity for every table and produce the same
    // predictions on an identically-configured rerun.
    let (world, disk, tokenizer, model) = trained_model();
    let bench = semtab_like(&world, &SemTabConfig::tiny(401));
    let tables: Vec<&Table> = bench.dataset.tables.iter().take(6).collect();
    let annotate_all = |resources: &Resources<'_>| -> Vec<Vec<LabelId>> {
        tables
            .iter()
            .map(|t| model.annotate_request(resources, req(t)).labels)
            .collect()
    };
    let run = || -> Vec<Vec<LabelId>> {
        let dying = FaultyBackend::new(
            &disk.backend,
            FaultConfig::healthy(404).with_outage(5, u64::MAX),
        );
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&dying)
            .tokenizer(&tokenizer)
            .build()
            .unwrap();
        annotate_all(&resources)
    };
    let first = run();
    for (preds, t) in first.iter().zip(&tables) {
        assert_eq!(preds.len(), t.n_cols(), "table {:?}", t.id);
        for p in preds {
            assert!(p.index() < model.labels.len());
        }
    }
    assert_eq!(first, run(), "fault injection must be deterministic");
}

#[test]
fn flapping_backend_during_fit_completes_deterministically() {
    // 30% of retrievals fail behind the resilient decorator for the whole
    // of training; fit must complete and be bit-for-bit repeatable.
    let world = SyntheticWorld::generate(&WorldConfig::tiny(405));
    let bench = semtab_like(&world, &SemTabConfig::tiny(405));
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let corpus = pretrain_corpus(&world, 405);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
    let tokenizer = Tokenizer::new(vocab);
    let run = || {
        let flaky = FaultyBackend::new(&disk.backend, FaultConfig::with_fault_rate(405, 0.3));
        let resilient = ResilientBackend::new(&flaky, ResilienceConfig::default());
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&resilient)
            .tokenizer(&tokenizer)
            .build()
            .unwrap();
        let (model, report) = KgLink::fit(&resources, &bench.dataset, KgLinkConfig::fast_test());
        let summary = model.evaluate(&resources, &bench.dataset, kglink::table::Split::Test);
        (report.epoch_loss, summary.accuracy, summary.support)
    };
    let (loss1, acc1, support1) = run();
    assert!(!loss1.is_empty());
    assert!(support1 > 0);
    assert!(loss1.iter().all(|l| l.is_finite()));
    let (loss2, acc2, _) = run();
    assert_eq!(loss1, loss2, "training under faults must be deterministic");
    assert_eq!(acc1, acc2);
}

#[test]
fn full_outage_degrades_every_linkable_column_to_the_no_kg_shape() {
    // Paper Table IV semantics: a column whose retrieval failed serializes
    // exactly like the `w/o ct` + `w/o fv` ablation — no candidate types,
    // no feature vector, [MASK]-only label slot.
    let world = SyntheticWorld::generate(&WorldConfig::tiny(406));
    let bench = semtab_like(&world, &SemTabConfig::tiny(406));
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let dead = FaultyBackend::new(&disk.backend, FaultConfig::with_fault_rate(406, 1.0));
    let config = KgLinkConfig::fast_test();
    let pre_dead = Preprocessor::new(&disk.graph, &dead, config.clone());
    let pre_ok = Preprocessor::new(&disk.graph, &disk.backend, config.clone());
    let vocab = build_vocab(
        pretrain_corpus(&world, 406).iter().map(String::as_str),
        &[&bench.dataset],
        6000,
    );
    let tokenizer = Tokenizer::new(vocab);
    let no_kg = config.clone().without_kg();
    let mut degraded_total = 0usize;
    for table in bench.dataset.tables.iter().take(8) {
        for (pt_dead, pt_ok) in pre_dead.process(table).iter().zip(pre_ok.process(table)) {
            for c in 0..pt_ok.table.n_cols() {
                // Every column the healthy run links must report degraded.
                if pt_ok.has_linkage[c] {
                    assert!(pt_dead.degraded[c]);
                }
                if pt_dead.degraded[c] {
                    degraded_total += 1;
                    assert!(!pt_dead.has_linkage[c]);
                    assert!(pt_dead.candidate_type_names[c].is_empty());
                    assert!(pt_dead.feature_seqs[c].is_none());
                }
            }
            // With zero KG information the ablation flags are inert: the
            // serialized token stream matches the w/o-KG ablation exactly.
            let with_flags = serialize_table(
                pt_dead,
                &tokenizer,
                &bench.dataset.labels,
                &config,
                SlotFill::Mask,
            );
            let without_kg = serialize_table(
                pt_dead,
                &tokenizer,
                &bench.dataset.labels,
                &no_kg,
                SlotFill::Mask,
            );
            assert_eq!(with_flags.ids, without_kg.ids);
            assert_eq!(with_flags.cls, without_kg.cls);
            assert_eq!(with_flags.slot, without_kg.slot);
        }
    }
    assert!(
        degraded_total > 0,
        "SemTab-like tables have linkable columns"
    );
}

#[test]
fn zero_column_table_yields_typed_error_and_annotate_survives() {
    let (_, disk, tokenizer, model) = trained_model();
    let pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
    let empty = Table::new(TableId(90), vec![], vec![], vec![]);
    match pre.try_process(&empty) {
        Err(KgLinkError::DegenerateTable { table, .. }) => assert_eq!(table, TableId(90)),
        other => panic!("expected DegenerateTable, got {other:?}"),
    }
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .unwrap();
    assert!(model
        .annotate_request(&resources, req(&empty))
        .labels
        .is_empty());
}

#[test]
fn extreme_config_values_are_tolerated() {
    let (world, disk, tokenizer, _) = trained_model();
    let bench = semtab_like(&world, &SemTabConfig::tiny(401));
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .unwrap();
    // k = 1 row, 1 entity per mention, 1 candidate type, tiny budgets.
    let config = KgLinkConfig {
        epochs: 1,
        top_k_rows: 1,
        max_entities_per_mention: 1,
        max_candidate_types: 1,
        tokens_per_column: 2,
        feature_seq_tokens: 1,
        max_columns: 1,
        ..KgLinkConfig::fast_test()
    };
    let (model, _) = KgLink::fit(&resources, &bench.dataset, config);
    let t = &bench.dataset.tables[0];
    assert_eq!(
        model.annotate_request(&resources, req(t)).labels.len(),
        t.n_cols()
    );
}
