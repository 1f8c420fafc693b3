//! Criterion microbenchmarks over the hot paths behind the paper's time
//! axes (Figure 7's end-to-end runtime, Figure 10's time-vs-k curve):
//! BM25 retrieval, each Part-1 stage, serialization, encoder forward, and a
//! full training step.

use criterion::{criterion_group, criterion_main, Criterion};
use kglink_core::config::KgLinkConfig;
use kglink_core::filter::prune_and_filter;
use kglink_core::linking::LinkedTable;
use kglink_core::model::KgLinkModel;
use kglink_core::pipeline::build_vocab;
use kglink_core::preprocess::{preprocess_table, Preprocessor};
use kglink_core::serialize::{serialize_table, SlotFill};
use kglink_core::train::{evaluate, prepare_tables};
use kglink_datagen::{semtab_like, SemTabConfig};
use kglink_kg::{SyntheticWorld, WorldConfig};
use kglink_nn::Tokenizer;
use kglink_search::KgBackend;
use kglink_store::DiskWorld;
use std::hint::black_box;

struct Fixture {
    world: DiskWorld,
    bench: kglink_datagen::GeneratedBenchmark,
    tokenizer: Tokenizer,
    config: KgLinkConfig,
}

fn fixture() -> Fixture {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: 5,
        scale: 0.4,
        ..WorldConfig::default()
    });
    let bench = semtab_like(
        &world,
        &SemTabConfig {
            seed: 5,
            n_tables: 40,
            ..SemTabConfig::default()
        },
    );
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let vocab = build_vocab([], &[&bench.dataset], 8000);
    Fixture {
        tokenizer: Tokenizer::new(vocab),
        world: disk,
        bench,
        config: KgLinkConfig::default(),
    }
}

fn bench_bm25(c: &mut Criterion) {
    let f = fixture();
    c.bench_function("bm25_link_mention_top10", |b| {
        b.iter(|| {
            black_box(f.world.backend.link_mention(black_box("Peter Steele"), 10));
        })
    });
}

fn bench_part1(c: &mut Criterion) {
    let f = fixture();
    let table = &f.bench.dataset.tables[0];
    c.bench_function("part1_link_table", |b| {
        b.iter(|| black_box(LinkedTable::link(table, &f.world.backend, 10)))
    });
    let linked = LinkedTable::link(table, &f.world.backend, 10);
    c.bench_function("part1_prune_and_filter", |b| {
        b.iter(|| {
            black_box(prune_and_filter(
                table,
                &linked,
                &f.world.graph,
                25,
                kglink_core::RowFilter::LinkScore,
            ))
        })
    });
    c.bench_function("part1_full_preprocess_table", |b| {
        b.iter(|| {
            black_box(preprocess_table(
                table,
                &f.world.graph,
                &f.world.backend,
                &f.config,
            ))
        })
    });
}

fn bench_serialization(c: &mut Criterion) {
    let f = fixture();
    let pt = preprocess_table(
        &f.bench.dataset.tables[0],
        &f.world.graph,
        &f.world.backend,
        &f.config,
    );
    c.bench_function("serialize_table_masked", |b| {
        b.iter(|| {
            black_box(serialize_table(
                &pt,
                &f.tokenizer,
                &f.bench.dataset.labels,
                &f.config,
                SlotFill::Mask,
            ))
        })
    });
}

fn bench_model(c: &mut Criterion) {
    let f = fixture();
    let pre = Preprocessor::new(&f.world.graph, &f.world.backend, f.config.clone());
    let processed: Vec<_> = f.bench.dataset.tables[..4]
        .iter()
        .flat_map(|t| pre.process(t))
        .collect();
    let prepared = prepare_tables(
        &processed,
        &f.tokenizer,
        &f.bench.dataset.labels,
        &f.config,
        true,
    );
    let model = KgLinkModel::new(
        &f.config,
        f.tokenizer.vocab.len(),
        f.bench.dataset.labels.len(),
    );
    c.bench_function("encoder_forward_table", |b| {
        b.iter(|| black_box(model.encoder.infer(&prepared[0].masked.ids)))
    });
    c.bench_function("predict_table", |b| {
        b.iter(|| {
            black_box(kglink_core::train::predict_table(
                &model,
                &f.config,
                &prepared[0],
            ))
        })
    });
    c.bench_function("evaluate_4_tables", |b| {
        b.iter(|| black_box(evaluate(&model, &f.config, &prepared)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bm25, bench_part1, bench_serialization, bench_model
}
criterion_main!(benches);
