//! Small-scale statistical shape checks tying the codebase to the paper's
//! headline claims. These train miniature models, so they use tiny
//! fixtures; the full-scale versions live in `kglink-bench`'s exp_*
//! binaries.

use kglink::core::pipeline::{build_vocab, KgLink, Resources};
use kglink::core::{KgLinkConfig, Preprocessor};
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::{SyntheticWorld, TypeHierarchy, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::store::DiskWorld;
use kglink::table::Split;

struct Fix {
    world: SyntheticWorld,
    bench: kglink::datagen::GeneratedBenchmark,
    disk: DiskWorld,
    tokenizer: Tokenizer,
}

fn fix(seed: u64) -> Fix {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed,
        scale: 0.25,
        ..WorldConfig::default()
    });
    let bench = semtab_like(
        &world,
        &SemTabConfig {
            seed,
            n_tables: 70,
            ..SemTabConfig::default()
        },
    );
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let corpus = pretrain_corpus(&world, seed);
    let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 8000);
    Fix {
        world,
        bench,
        disk,
        tokenizer: Tokenizer::new(vocab),
    }
}

/// Paper Table II's core claim: KG information helps. The full model must
/// beat the `w/o ct` ablation (which strips all KG signals) on KG-derived
/// data.
#[test]
fn kg_information_helps_on_semtab_like_data() {
    let f = fix(601);
    let resources = Resources::builder()
        .graph(&f.disk.graph)
        .backend(&f.disk.backend)
        .tokenizer(&f.tokenizer)
        .build()
        .unwrap();
    let base = KgLinkConfig {
        epochs: 6,
        patience: 0,
        ..KgLinkConfig::default()
    };
    let (full, _) = KgLink::fit(&resources, &f.bench.dataset, base.clone());
    let (no_kg, _) = KgLink::fit(&resources, &f.bench.dataset, base.without_kg());
    let s_full = full.evaluate(&resources, &f.bench.dataset, Split::Test);
    let s_no_kg = no_kg.evaluate(&resources, &f.bench.dataset, Split::Test);
    assert!(
        s_full.accuracy >= s_no_kg.accuracy,
        "KG info must not hurt: full {} vs w/o ct {}",
        s_full.accuracy,
        s_no_kg.accuracy
    );
}

/// The paper's Figure 2(a)/Figure 5 motivation, checked mechanically: for
/// an athlete column, Part 1 produces candidate types at *both*
/// granularities (the fine profession via `occupation`, the coarse
/// `Person` via `instance of`), and the two stand in an ancestor
/// relationship in the KG's hierarchy.
#[test]
fn candidate_types_span_the_granularity_hierarchy() {
    let f = fix(602);
    let pre = Preprocessor::new(&f.disk.graph, &f.disk.backend, KgLinkConfig::default());
    let h = TypeHierarchy::new(&f.disk.graph);
    let person = f.world.types.person;
    // Find a table whose first column is an athlete subject column.
    let mut checked = false;
    for table in &f.bench.dataset.tables {
        let label_name = f.bench.dataset.labels.name(table.labels[0]);
        if !matches!(label_name, "Basketball player" | "Cricketer" | "Footballer") {
            continue;
        }
        let pt = &pre.process(table)[0];
        let cts = &pt.candidate_type_entities[0];
        if cts.is_empty() {
            continue;
        }
        // Some candidate lies inside Person's subtree or is Person itself.
        let person_related = cts
            .iter()
            .filter(|ct| h.is_subtype_of(ct.entity, person))
            .count();
        if person_related >= 1 {
            checked = true;
            break;
        }
    }
    assert!(
        checked,
        "no athlete column produced person-hierarchy candidate types"
    );
}

/// Paper Table V's claim in miniature: with a small row budget, the
/// link-score row filter keeps more KG-linkable rows than original order.
#[test]
fn link_score_filter_keeps_better_linked_rows() {
    use kglink::core::config::RowFilter;
    use kglink::core::filter::prune_and_filter;
    use kglink::core::linking::LinkedTable;
    let f = fix(603);
    let mut ours_total = 0.0f32;
    let mut orig_total = 0.0f32;
    for table in f.bench.dataset.tables.iter().take(25) {
        let linked = LinkedTable::link(table, &f.disk.backend, 10);
        let ours = prune_and_filter(table, &linked, &f.disk.graph, 3, RowFilter::LinkScore);
        let orig = prune_and_filter(table, &linked, &f.disk.graph, 3, RowFilter::Original);
        ours_total += ours.row_scores.iter().sum::<f32>();
        orig_total += orig.row_scores.iter().sum::<f32>();
    }
    assert!(
        ours_total >= orig_total,
        "link-score filter must select rows with at least the linkage mass of original order: {ours_total} vs {orig_total}"
    );
}
