//! Shared helpers for the dataset generators.

use kglink_kg::{EntityId, KnowledgeGraph, SyntheticWorld};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// First outgoing edge of `e` with predicate `pred`, if any.
pub fn related(graph: &KnowledgeGraph, e: EntityId, pred: &str) -> Option<EntityId> {
    let p = graph.predicate_id(pred)?;
    graph
        .outgoing(e)
        .iter()
        .find(|edge| edge.predicate == p)
        .map(|edge| edge.target)
}

/// First outgoing edge of `e` with predicate `pred` whose target belongs to
/// the generator-side instance set of `ty` (robust to KG coverage holes).
pub fn related_of_type(
    world: &SyntheticWorld,
    e: EntityId,
    pred: &str,
    ty_members: &HashSet<EntityId>,
) -> Option<EntityId> {
    let p = world.graph.predicate_id(pred)?;
    world
        .graph
        .outgoing(e)
        .iter()
        .find(|edge| edge.predicate == p && ty_members.contains(&edge.target))
        .map(|edge| edge.target)
}

/// Sample up to `n` distinct instances of a pool.
pub fn sample_instances(pool: &[EntityId], n: usize, rng: &mut StdRng) -> Vec<EntityId> {
    let mut idxs: Vec<usize> = (0..pool.len()).collect();
    idxs.shuffle(rng);
    idxs.truncate(n);
    idxs.into_iter().map(|i| pool[i]).collect()
}

/// Surface form of an entity: usually the label, sometimes an alias.
pub fn mention_of(
    graph: &KnowledgeGraph,
    e: EntityId,
    alias_prob: f64,
    rng: &mut StdRng,
) -> String {
    let ent = graph.entity(e);
    if !ent.aliases.is_empty() && rng.gen_bool(alias_prob) {
        ent.aliases[rng.gen_range(0..ent.aliases.len())].clone()
    } else {
        ent.label.clone()
    }
}

/// A synthesized street address (deliberately unlinkable to the KG —
/// the paper's example of hard non-numeric columns).
pub fn synth_address(rng: &mut StdRng) -> String {
    const STREETS: [&str; 8] = [
        "Maple Street",
        "Oak Avenue",
        "Elm Drive",
        "Pine Road",
        "Birch Lane",
        "Cedar Court",
        "Willow Way",
        "Aspen Boulevard",
    ];
    let number = rng.gen_range(1..9999);
    let street = STREETS[rng.gen_range(0..STREETS.len())];
    let unit: u32 = rng.gen_range(0..4);
    if unit == 0 {
        format!("{number} {street}, Apt {}", rng.gen_range(1..40))
    } else {
        format!("{number} {street}")
    }
}

/// A synthesized opaque code (the paper's abbreviation-code example).
/// Three letters keep accidental collisions with entity-alias initialisms
/// rare, so code columns stay genuinely unlinkable.
pub fn synth_code(rng: &mut StdRng) -> String {
    let a = (b'A' + rng.gen_range(0..26u8)) as char;
    let b = (b'A' + rng.gen_range(0..26u8)) as char;
    let c = (b'A' + rng.gen_range(0..26u8)) as char;
    format!("{a}{b}{c}-{}", rng.gen_range(1..99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::WorldConfig;
    use rand::SeedableRng;

    #[test]
    fn related_follows_predicates() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(1));
        let cities = world.instances_of(world.types.city);
        let mut found = false;
        for &c in cities {
            if let Some(country) = related(&world.graph, c, kglink_kg::predicates::COUNTRY) {
                let countries: HashSet<EntityId> = world
                    .instances_of(world.types.country)
                    .iter()
                    .copied()
                    .collect();
                assert!(countries.contains(&country));
                found = true;
                break;
            }
        }
        assert!(found, "cities should have country edges");
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let pool: Vec<EntityId> = (0..10).map(EntityId).collect();
        let s = sample_instances(&pool, 5, &mut rng);
        assert_eq!(s.len(), 5);
        let set: HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 5);
        let all = sample_instances(&pool, 100, &mut rng);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn synth_strings_have_expected_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let addr = synth_address(&mut rng);
        assert!(addr.chars().next().unwrap().is_ascii_digit());
        let code = synth_code(&mut rng);
        assert!(code.contains('-'));
        assert!(code.len() <= 6);
    }
}
