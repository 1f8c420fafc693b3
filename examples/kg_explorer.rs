//! Knowledge-graph exploration: walk through the paper's Figure 5 scenario
//! on the synthetic world — ambiguous mention linking, one-hop
//! neighborhoods, the overlapping filter, and the type hierarchy behind the
//! granularity gap.
//!
//! ```bash
//! cargo run --release --example kg_explorer
//! ```

use kglink::core::config::RowFilter;
use kglink::core::filter::prune_and_filter;
use kglink::core::linking::LinkedTable;
use kglink::kg::{GraphAccess, SyntheticWorld, TypeHierarchy, WorldConfig};
use kglink::search::KgBackend;
use kglink::store::DiskWorld;
use kglink::table::{CellValue, LabelId, Table, TableId};

fn main() {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed: 11,
        scale: 0.5,
        ..WorldConfig::default()
    });
    let disk = DiskWorld::from_graph(&world.graph).expect("the world writes to the temp dir");
    let g = &*disk.graph;

    // --- 1. Ambiguous mention linking -----------------------------------
    let some_athlete = world.instances_of(world.types.basketball_player)[0];
    let mention = g.label(some_athlete).to_string();
    println!("BM25 candidates for mention {mention:?}:");
    for (e, score) in disk.backend.link_mention(&mention, 5) {
        println!(
            "  {e} {:?} ({}) score {score:.2}",
            g.label(e),
            g.entity(e).description
        );
    }

    // --- 2. One-hop neighborhood (the feature sequence source) ----------
    println!("\nOne-hop neighborhood of {:?}:", g.label(some_athlete));
    for (p, o) in g.one_hop_with_predicates(some_athlete).iter().take(8) {
        println!("  --{}--> {:?}", g.predicate_name(*p), g.label(*o));
    }

    // --- 3. The overlapping filter on a two-column row -------------------
    // Build a row like Figure 5: an athlete and their team.
    let team = g
        .one_hop(some_athlete)
        .into_iter()
        .find(|&e| g.types_of(e).contains(&world.types.sports_team));
    if let Some(team) = team {
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![CellValue::Text(g.label(some_athlete).to_string())],
                vec![CellValue::Text(g.label(team).to_string())],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        let linked = LinkedTable::link(&table, &disk.backend, 10);
        let filtered = prune_and_filter(&table, &linked, g, 10, RowFilter::LinkScore);
        println!(
            "\nOverlapping filter on row [{:?}, {:?}]:",
            g.label(some_athlete),
            g.label(team)
        );
        for (c, col) in filtered.cells.iter().enumerate() {
            for pe in &col[0].entities {
                println!(
                    "  column {c}: kept {:?} (linking score {:.2}, overlap score {})",
                    g.label(pe.entity),
                    pe.linking_score,
                    pe.overlap_score
                );
            }
        }
    }

    // --- 4. The type granularity gap -------------------------------------
    let h = TypeHierarchy::new(g);
    let fine = world.types.basketball_player;
    let coarse = world.types.person;
    println!(
        "\nType hierarchy: {:?} is {} level(s) below {:?} (ancestors: {:?})",
        g.label(fine),
        h.depth(fine),
        g.label(coarse),
        h.ancestors(fine)
            .iter()
            .map(|&t| g.label(t))
            .collect::<Vec<_>>()
    );
    println!(
        "Granularity gap between {:?} and {:?}: {:?} — and between {:?} and an unrelated type {:?}: {:?} (the paper's Figure 2a case)",
        g.label(fine),
        g.label(coarse),
        h.granularity_gap(fine, coarse),
        g.label(fine),
        g.label(world.types.genre),
        h.granularity_gap(fine, world.types.genre),
    );
}
