//! The default batch read is the per-item loop: on random in-memory graphs,
//! `KgBackend::search_batch` over the in-memory index answers every query
//! exactly as `search_entities` does (same hits, same score bits, in query
//! order) — directly, through `&dyn` and through `Arc`.

use kglink_kg::{Entity, EntityId, KgBuilder, NeSchema};
use kglink_search::{Deadline, EntitySearcher, KgBackend, RetrievalError, SearchOutcome};
use proptest::prelude::*;
use std::sync::Arc;

const SCHEMAS: [NeSchema; 3] = [NeSchema::Person, NeSchema::Place, NeSchema::Work];

/// Hits with their score bits, or the error: what a per-item call answered.
fn key(answer: &Result<SearchOutcome, RetrievalError>) -> Result<Vec<(EntityId, u32)>, String> {
    match answer {
        Ok(outcome) => Ok(outcome
            .hits
            .iter()
            .map(|&(e, s)| (e, s.to_bits()))
            .collect()),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn default_batches_equal_the_per_item_loops(
        labels in proptest::collection::vec(("[a-e]{1,4}", 0usize..3), 1..16),
        edges in proptest::collection::vec((0usize..16, 0usize..16), 0..20),
        queries in proptest::collection::vec("[a-e]{0,4}( [a-e]{1,3})?", 0..8),
        top_k in 1usize..5,
    ) {
        let mut b = KgBuilder::new();
        let ty = b.add_type("Thing", None);
        let ids: Vec<EntityId> = labels
            .iter()
            .map(|(label, schema)| b.add_instance(Entity::new(label.clone(), SCHEMAS[*schema]), ty))
            .collect();
        let mut g = b.build();
        let related = g.intern_predicate("related to");
        for (s, t) in &edges {
            g.add_edge(ids[s % ids.len()], related, ids[t % ids.len()]);
        }
        let searcher = EntitySearcher::build(&g);
        let deadline = Deadline::UNBOUNDED;
        let want: Vec<_> = queries
            .iter()
            .map(|q| key(&searcher.search_entities(q, top_k, deadline)))
            .collect();
        let shared = Arc::new(EntitySearcher::build(&g));
        let backends: [&dyn KgBackend; 3] = [&searcher, &&searcher, &shared];
        for backend in backends {
            let got: Vec<_> = backend
                .search_batch(queries.clone(), top_k, deadline)
                .iter()
                .map(key)
                .collect();
            prop_assert_eq!(&got, &want);
        }
    }
}
