//! Interop integration tests: CSV ingestion → annotation, and KG
//! export/import → identical pipeline behaviour.

use kglink::core::pipeline::{build_vocab, KgLink, Resources};
use kglink::core::{KgLinkConfig, Preprocessor};
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::io::{export_triples, import_triples};
use kglink::kg::{SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::search::EntitySearcher;
use kglink::store::DiskWorld;
use kglink::table::{table_from_csv, TableId};

#[test]
fn csv_file_can_be_annotated_end_to_end() {
    let world = SyntheticWorld::generate(&WorldConfig::tiny(301));
    let bench = semtab_like(&world, &SemTabConfig::tiny(301));
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let corpus = pretrain_corpus(&world, 301);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
    let tokenizer = Tokenizer::new(vocab);
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .unwrap();
    let (model, _) = KgLink::fit(
        &resources,
        &bench.dataset,
        KgLinkConfig {
            epochs: 3,
            ..KgLinkConfig::fast_test()
        },
    );

    // Build a CSV from world entities.
    let g = &world.graph;
    let mut csv = String::from("city,country\n");
    for &city in world.instances_of(world.types.city).iter().take(5) {
        let country = g
            .one_hop(city)
            .into_iter()
            .find(|&n| g.types_of(n).contains(&world.types.country))
            .map(|e| g.label(e).to_string())
            .unwrap_or_default();
        csv.push_str(&format!("{},{}\n", g.label(city), country));
    }
    let table = table_from_csv(TableId(500), &csv).unwrap();
    assert_eq!(table.headers, vec!["city", "country"]);
    let names = model
        .annotate_request(&resources, kglink::core::req(&table))
        .names(&model.labels);
    assert_eq!(names.len(), 2);
    // Predictions are valid label names from the trained vocabulary.
    for n in &names {
        assert!(model.labels.get(n).is_some());
    }
}

#[test]
fn exported_kg_behaves_identically_after_import() {
    let world = SyntheticWorld::generate(&WorldConfig::tiny(302));
    let round_tripped = import_triples(&export_triples(&world.graph)).unwrap();

    let s1 = EntitySearcher::build(&world.graph);
    let s2 = EntitySearcher::build(&round_tripped);
    // Same retrieval results for a real mention.
    let mention = world
        .graph
        .label(world.instances_of(world.types.city)[0])
        .to_string();
    let h1 = s1.link_mention(&mention, 5);
    let h2 = s2.link_mention(&mention, 5);
    assert_eq!(h1.len(), h2.len());
    for ((e1, sc1), (e2, sc2)) in h1.iter().zip(&h2) {
        assert_eq!(e1, e2);
        assert!((sc1 - sc2).abs() < 1e-5);
    }

    // Same Part-1 output on a generated table.
    let bench = semtab_like(&world, &SemTabConfig::tiny(302));
    let cfg = KgLinkConfig::fast_test();
    let pre1 = Preprocessor::new(&world.graph, &s1, cfg.clone());
    let pre2 = Preprocessor::new(&round_tripped, &s2, cfg);
    let t = &bench.dataset.tables[0];
    let p1 = pre1.process(t);
    let p2 = pre2.process(t);
    assert_eq!(p1.len(), p2.len());
    for (a, b) in p1.iter().zip(&p2) {
        assert_eq!(a.candidate_type_names, b.candidate_type_names);
        assert_eq!(a.feature_seqs, b.feature_seqs);
        assert_eq!(a.has_linkage, b.has_linkage);
    }
}
