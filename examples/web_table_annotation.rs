//! Annotating hand-written "web tables" with a trained KGLink — including
//! the two failure regimes the paper opens with: a numeric column that no
//! KG method can link (valuable context missing), and a fine-grained
//! athlete column whose dataset label is coarse (type granularity gap).
//!
//! ```bash
//! cargo run --release --example web_table_annotation
//! ```

use kglink::core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink::core::{KgLinkConfig, Preprocessor};
use kglink::datagen::{pretrain_corpus, viznet_like, VizNetConfig};
use kglink::kg::{SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::store::DiskWorld;
use kglink::table::{CellValue, LabelId, Table, TableId};

fn main() {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: 21,
        scale: 0.4,
        ..WorldConfig::default()
    });
    let bench = viznet_like(
        &world,
        &VizNetConfig {
            seed: 21,
            n_tables: 200,
            ..VizNetConfig::default()
        },
    );
    let disk = DiskWorld::from_graph(&world.graph).expect("the world writes to the temp dir");
    let corpus = pretrain_corpus(&world, 21);
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

    // A hand-written roster table in the spirit of the paper's Figure 2:
    // real athlete names from the world, a team column, a position
    // abbreviation column, and a numeric column.
    let athletes = world.instances_of(world.types.basketball_player);
    let name_of = |e| world.graph.label(e).to_string();
    let team_of = |e| {
        world
            .graph
            .one_hop(e)
            .into_iter()
            .find(|&n| world.graph.types_of(n).contains(&world.types.sports_team))
            .map(name_of)
            .unwrap_or_default()
    };
    let rows: Vec<_> = athletes.iter().take(6).collect();
    let table = Table::new(
        TableId(9000),
        vec![],
        vec![
            rows.iter().map(|&&a| CellValue::Text(name_of(a))).collect(),
            rows.iter()
                .map(|&&a| CellValue::parse(&team_of(a)))
                .collect(),
            rows.iter()
                .enumerate()
                .map(|(i, _)| CellValue::Text(["PF", "PG", "SG", "C", "SF", "PF"][i].to_string()))
                .collect(),
            rows.iter()
                .enumerate()
                .map(|(i, _)| CellValue::Number(180.0 + 5.0 * i as f64))
                .collect(),
        ],
        vec![LabelId(0); 4], // ground truth unknown: we are annotating
    );

    // Peek into Part 1: what the KG stage extracted.
    let pre = Preprocessor::new(&disk.graph, &disk.backend, kglink.config.clone());
    let pt = &pre.process(&table)[0];
    println!("\nPart 1 — KG candidate types per column:");
    for c in 0..pt.table.n_cols() {
        println!(
            "  column {c}: candidate types {:?}{}",
            pt.candidate_type_names[c],
            if pt.numeric_stats[c].is_some() {
                " [numeric column — mean/variance/median injected instead]"
            } else {
                ""
            }
        );
    }

    let names = kglink
        .annotate_request(&resources, req(&table))
        .names(&kglink.labels);
    println!("\nPart 2 — predicted column types:");
    for (c, name) in names.iter().enumerate() {
        println!(
            "  column {c} (cells like {:?}): {name}",
            table.cell(0, c).surface()
        );
    }
    println!(
        "\nNote: even though the KG proposes fine types like 'Basketball player',\n\
         the model predicts the dataset's coarse 'name' label — the type\n\
         granularity gap the representation-generation sub-task bridges."
    );
}
