//! A tour of KGLink's ablations (the paper's Table II) on a small world:
//! toggling the mask task, the candidate types, and the feature vector,
//! and inspecting what each component contributes.
//!
//! ```bash
//! cargo run --release --example ablation_tour
//! ```

use kglink::core::pipeline::{build_vocab, KgLink, Resources};
use kglink::core::KgLinkConfig;
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::{SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::store::DiskWorld;
use kglink::table::Split;

fn main() {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: 31,
        scale: 0.35,
        ..WorldConfig::default()
    });
    let bench = semtab_like(
        &world,
        &SemTabConfig {
            seed: 31,
            n_tables: 100,
            ..SemTabConfig::default()
        },
    );
    let disk = DiskWorld::from_graph(&world.graph).expect("the world writes to the temp dir");
    let corpus = pretrain_corpus(&world, 31);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 8000);
    let tokenizer = Tokenizer::new(vocab);
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .expect("a complete resource bundle");

    let base = KgLinkConfig {
        epochs: 8,
        ..KgLinkConfig::default()
    };
    let variants: Vec<(&str, KgLinkConfig)> = vec![
        ("KGLink (full)", base.clone()),
        (
            "w/o msk  (no representation-generation task)",
            base.clone().without_mask_task(),
        ),
        ("w/o ct   (no KG info at all)", base.clone().without_kg()),
        (
            "w/o fv   (no feature vector)",
            base.clone().without_feature_vector(),
        ),
    ];

    println!("{:<48} {:>10} {:>12}", "variant", "accuracy", "weighted F1");
    for (name, config) in variants {
        let (model, _) = KgLink::fit(&resources, &bench.dataset, config);
        let s = model.evaluate(&resources, &bench.dataset, Split::Test);
        println!(
            "{:<48} {:>9.2}% {:>11.2}%",
            name,
            s.accuracy_pct(),
            s.weighted_f1_pct()
        );
    }
    println!(
        "\nExpected shape (paper Table II): the full model on top; dropping the\n\
         candidate types costs the most, the feature vector and mask task less."
    );
}
