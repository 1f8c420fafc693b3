//! Quickstart: generate a small world, train KGLink, annotate a table.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use kglink::core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink::core::KgLinkConfig;
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::{KgStats, SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::store::DiskWorld;
use kglink::table::Split;

fn main() {
    // 1. A synthetic WikiData-like world.
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: 42,
        scale: 0.3,
        ..WorldConfig::default()
    });
    println!("Knowledge graph:\n{}\n", KgStats::compute(&world.graph));

    // 2. A SemTab-like benchmark generated from that world.
    let bench = semtab_like(
        &world,
        &SemTabConfig {
            seed: 42,
            n_tables: 80,
            ..SemTabConfig::default()
        },
    );
    println!(
        "Dataset: {} tables, {} columns, {} semantic types\n",
        bench.dataset.len(),
        bench.dataset.n_columns(),
        bench.dataset.labels.len()
    );

    // 3. Shared resources: BM25 index + tokenizer.
    let disk = DiskWorld::from_graph(&world.graph).expect("the world writes to the temp dir");
    let corpus = pretrain_corpus(&world, 42);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 8000);
    let tokenizer = Tokenizer::new(vocab);
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .expect("a complete resource bundle");

    // 4. Train KGLink.
    let config = KgLinkConfig {
        epochs: 8,
        ..KgLinkConfig::default()
    };
    println!("Training KGLink ({} epochs)…", config.epochs);
    let (kglink, report) = KgLink::fit(&resources, &bench.dataset, config);
    println!(
        "Validation accuracy per epoch: {:?}",
        report
            .val_accuracy
            .iter()
            .map(|a| format!("{:.2}", 100.0 * a))
            .collect::<Vec<_>>()
    );

    // 5. Evaluate and annotate.
    let summary = kglink.evaluate(&resources, &bench.dataset, Split::Test);
    println!(
        "\nTest: accuracy {:.2}%, weighted F1 {:.2}% over {} columns",
        summary.accuracy_pct(),
        summary.weighted_f1_pct(),
        summary.support
    );

    let table = bench
        .dataset
        .tables_in(Split::Test)
        .next()
        .expect("test table");
    let names = kglink
        .annotate_request(&resources, req(table))
        .names(&kglink.labels);
    println!("\nAnnotated test table {:?}:", table.id);
    for (c, name) in names.iter().enumerate() {
        let truth = bench.dataset.labels.name(table.labels[c]);
        let first = table.cell(0, c).surface();
        println!("  column {c} (first cell {first:?}): predicted {name:?}, truth {truth:?}");
    }
}
