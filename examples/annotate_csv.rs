//! Annotate a CSV file's columns with a trained KGLink.
//!
//! ```bash
//! cargo run --release --example annotate_csv                # built-in demo CSV
//! cargo run --release --example annotate_csv -- my.csv      # your own file
//! ```
//!
//! The model is trained on the VizNet-like benchmark (coarse web-table
//! labels), then applied to the CSV: each column gets one of the learned
//! semantic types together with the KG evidence Part 1 extracted for it.

use kglink::core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink::core::{KgLinkConfig, Preprocessor};
use kglink::datagen::{pretrain_corpus, viznet_like, VizNetConfig};
use kglink::kg::{SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::store::DiskWorld;
use kglink::table::{table_from_csv, TableId};

fn demo_csv(world: &SyntheticWorld) -> String {
    // Build a CSV out of real world entities so the KG has something to say.
    let g = &world.graph;
    let mut out = String::from("player,club,height\n");
    for &athlete in world.instances_of(world.types.footballer).iter().take(6) {
        let team = g
            .one_hop(athlete)
            .into_iter()
            .find(|&n| g.types_of(n).contains(&world.types.sports_team))
            .map(|t| g.label(t).to_string())
            .unwrap_or_default();
        let height = world
            .numeric
            .height_cm
            .get(&athlete)
            .copied()
            .unwrap_or(180.0);
        out.push_str(&format!("{},{},{height:.0}\n", g.label(athlete), team));
    }
    out
}

fn main() {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: 51,
        scale: 0.4,
        ..WorldConfig::default()
    });
    let csv_text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => demo_csv(&world),
    };
    let table = table_from_csv(TableId(0), &csv_text).unwrap_or_else(|e| {
        eprintln!("CSV parse error: {e}");
        std::process::exit(1);
    });
    println!(
        "Parsed table: {} columns × {} rows (headers: {:?})\n",
        table.n_cols(),
        table.n_rows(),
        table.headers
    );

    let bench = viznet_like(
        &world,
        &VizNetConfig {
            seed: 51,
            n_tables: 250,
            ..VizNetConfig::default()
        },
    );
    let disk = DiskWorld::from_graph(&world.graph).expect("the world writes to the temp dir");
    let corpus = pretrain_corpus(&world, 51);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 10_000);
    let tokenizer = Tokenizer::new(vocab);
    let resources = Resources::builder()
        .graph(&disk.graph)
        .backend(&disk.backend)
        .tokenizer(&tokenizer)
        .build()
        .expect("a complete resource bundle");
    println!("Training KGLink on the VizNet-like benchmark…");
    let (kglink, _) = KgLink::fit(
        &resources,
        &bench.dataset,
        KgLinkConfig {
            epochs: 6,
            ..KgLinkConfig::default()
        },
    );

    let pre = Preprocessor::new(&disk.graph, &disk.backend, kglink.config.clone());
    let processed = pre.process(&table);
    let predictions = kglink
        .annotate_request(&resources, req(&table))
        .names(&kglink.labels);
    println!("\nColumn annotations:");
    let mut col = 0usize;
    for pt in &processed {
        for c in 0..pt.table.n_cols() {
            let header = table
                .headers
                .get(col)
                .map(String::as_str)
                .unwrap_or("<no header>");
            println!("  column {col} ({header}): type = {:?}", predictions[col]);
            if let Some(stats) = pt.numeric_stats[c] {
                println!(
                    "      numeric column: mean {:.1}, variance {:.1}, median {:.1}",
                    stats.mean, stats.variance, stats.median
                );
            } else if !pt.candidate_type_names[c].is_empty() {
                println!("      KG candidate types: {:?}", pt.candidate_type_names[c]);
            } else {
                println!("      no KG evidence — prediction rests on the PLM prior");
            }
            col += 1;
        }
    }
}
