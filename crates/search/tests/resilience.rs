//! Property test for fault injection: at rate 0 the injector is
//! transparent.

use kglink_kg::{Entity, KgBuilder, KnowledgeGraph, NeSchema};
use kglink_search::{Deadline, EntitySearcher, FaultConfig, FaultyBackend, KgBackend};
use proptest::prelude::*;

fn tiny_graph() -> KnowledgeGraph {
    let mut b = KgBuilder::new();
    let musician = b.add_type("Musician", None);
    b.add_instance(Entity::new("Peter Steele", NeSchema::Person), musician);
    let city = b.add_type("City", None);
    b.add_instance(Entity::new("Springfield", NeSchema::Place), city);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // At fault rate 0 the injector is transparent: identical hits, never
    // truncated, never erroring.
    #[test]
    fn zero_fault_rate_is_transparent(
        queries in proptest::collection::vec("[a-z]{1,10}( [a-z]{1,10})?", 1..20),
        seed in 0u64..1_000,
    ) {
        let graph = tiny_graph();
        let searcher = EntitySearcher::build(&graph);
        let faulty = FaultyBackend::new(&searcher, FaultConfig::with_fault_rate(seed, 0.0));
        for q in &queries {
            let direct = searcher.search_entities(q, 5, Deadline::UNBOUNDED).unwrap();
            let via = faulty.search_entities(q, 5, Deadline::UNBOUNDED);
            prop_assert!(via.is_ok(), "fault injected at rate 0: {:?}", via);
            let via = via.unwrap();
            prop_assert_eq!(&via.hits, &direct.hits);
            prop_assert!(!via.truncated);
        }
    }
}
