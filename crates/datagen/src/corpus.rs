//! MLM pre-training corpus: verbalized knowledge-graph facts.
//!
//! BERT arrives at the CTA task already knowing that "Peter Steele" is a
//! musician; the paper leans on that prior knowledge (its Table IV shows all
//! PLM-based methods handling no-linkage columns well). The reproduction's
//! encoder acquires the equivalent prior by MLM pre-training on sentences
//! verbalized from the synthetic KG.

use kglink_kg::SyntheticWorld;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Build the pre-training corpus for a world: one sentence per outgoing
/// fact plus "X is a T ." sentences for typed instances, shuffled
/// deterministically.
pub fn pretrain_corpus(world: &SyntheticWorld, seed: u64) -> Vec<String> {
    let g = &world.graph;
    let mut sentences = Vec::with_capacity(g.edge_count() + g.len());
    for (id, entity) in g.entities() {
        if entity.is_type {
            continue;
        }
        sentences.extend(g.verbalize(id));
        for ty in g.types_of(id) {
            sentences.push(format!("{} is a {} .", entity.label, g.label(ty)));
        }
        if !entity.description.is_empty() {
            sentences.push(format!("{} : {} .", entity.label, entity.description));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    sentences.shuffle(&mut rng);
    sentences
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::WorldConfig;

    #[test]
    fn corpus_covers_facts_and_types() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(4));
        let corpus = pretrain_corpus(&world, 1);
        assert!(
            corpus.len() > world.graph.len(),
            "at least one sentence per entity on average"
        );
        assert!(corpus.iter().any(|s| s.contains(" is a ")));
        assert!(corpus.iter().any(|s| s.contains("instance of")));
    }

    #[test]
    fn corpus_is_deterministic() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(4));
        assert_eq!(pretrain_corpus(&world, 9), pretrain_corpus(&world, 9));
        assert_ne!(pretrain_corpus(&world, 9), pretrain_corpus(&world, 10));
    }

    #[test]
    fn type_entities_do_not_generate_sentences() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(4));
        let corpus = pretrain_corpus(&world, 1);
        // "Basketball player subclass of Athlete" style sentences are absent.
        assert!(!corpus.iter().any(|s| s.contains("subclass of")));
    }
}
