//! The knowledge-graph store: entities plus typed, bidirectional adjacency.

use crate::entity::{Entity, EntityId, PredicateId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A directed, labeled edge `(subject) --predicate--> (object)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    pub predicate: PredicateId,
    pub target: EntityId,
}

/// An in-memory knowledge graph.
///
/// Storage is column-oriented: one `Vec<Entity>` plus per-entity outgoing and
/// incoming edge lists. The two KGLink-critical queries are:
///
/// * [`KnowledgeGraph::one_hop`] — the set `N(e)` of entities reachable in
///   one hop, in **either direction**. The paper's Figure 5 treats the album
///   `Rust` and its performer `Peter Steele` as mutual one-hop neighbors,
///   i.e. neighborhoods are undirected.
/// * [`KnowledgeGraph::types_of`] — targets of `instance of` edges.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeGraph {
    entities: Vec<Entity>,
    predicates: Vec<String>,
    outgoing: Vec<Vec<Edge>>,
    incoming: Vec<Vec<Edge>>,
    /// Predicate id of `instance of`, if registered.
    instance_of: Option<PredicateId>,
    /// Predicate id of `subclass of`, if registered.
    subclass_of: Option<PredicateId>,
}

impl KnowledgeGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entities.
    #[inline]
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the graph has no entities.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.outgoing.iter().map(Vec::len).sum()
    }

    /// Register (or look up) a predicate by name, returning its id.
    pub fn intern_predicate(&mut self, name: &str) -> PredicateId {
        if let Some(pos) = self.predicates.iter().position(|p| p == name) {
            return PredicateId(pos as u16);
        }
        #[expect(
            clippy::expect_used,
            reason = "capacity guard: the KGLink predicate vocabulary is a few dozen relations (Wikidata uses ~11k); a typed error would ripple through every intern call site for a bound no real graph approaches"
        )]
        let id = PredicateId(
            u16::try_from(self.predicates.len()).expect("more than u16::MAX predicates"),
        );
        self.predicates.push(name.to_string());
        if name == crate::predicates::INSTANCE_OF {
            self.instance_of = Some(id);
        } else if name == crate::predicates::SUBCLASS_OF {
            self.subclass_of = Some(id);
        }
        id
    }

    /// Look up a predicate id by name without interning.
    pub fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        self.predicates
            .iter()
            .position(|p| p == name)
            .map(|pos| PredicateId(pos as u16))
    }

    /// Name of a predicate.
    #[inline]
    pub fn predicate_name(&self, p: PredicateId) -> &str {
        &self.predicates[p.index()]
    }

    /// Number of interned predicates. Predicate ids are dense, so
    /// `0..predicate_count()` enumerates them (converters that re-intern a
    /// graph's vocabulary in id order depend on this).
    #[inline]
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Append an entity, returning its id.
    pub fn add_entity(&mut self, entity: Entity) -> EntityId {
        #[expect(
            clippy::expect_used,
            reason = "capacity guard: EntityId is u32 by design (4G entities ≫ the paper's 100M-entity KG); overflow is a build-time sizing decision, not a runtime data condition"
        )]
        let id = EntityId(u32::try_from(self.entities.len()).expect("more than u32::MAX entities"));
        self.entities.push(entity);
        self.outgoing.push(Vec::new());
        self.incoming.push(Vec::new());
        id
    }

    /// Add a directed edge. Both adjacency directions are updated.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, subject: EntityId, predicate: PredicateId, object: EntityId) {
        assert!(
            subject.index() < self.entities.len(),
            "subject out of range"
        );
        assert!(object.index() < self.entities.len(), "object out of range");
        self.outgoing[subject.index()].push(Edge {
            predicate,
            target: object,
        });
        self.incoming[object.index()].push(Edge {
            predicate,
            target: subject,
        });
    }

    /// The entity record for `id`.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Preferred label of `id`.
    #[inline]
    pub fn label(&self, id: EntityId) -> &str {
        &self.entities[id.index()].label
    }

    /// Iterate over all `(id, entity)` pairs.
    pub fn entities(&self) -> impl Iterator<Item = (EntityId, &Entity)> {
        self.entities
            .iter()
            .enumerate()
            .map(|(i, e)| (EntityId(i as u32), e))
    }

    /// Outgoing edges of `id`.
    #[inline]
    pub fn outgoing(&self, id: EntityId) -> &[Edge] {
        &self.outgoing[id.index()]
    }

    /// Incoming edges of `id` (edge `target` is the *subject* on this side).
    #[inline]
    pub fn incoming(&self, id: EntityId) -> &[Edge] {
        &self.incoming[id.index()]
    }

    /// The one-hop neighborhood `N(e)`: all entities adjacent to `id` in
    /// either direction, deduplicated and sorted.
    pub fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        let out = &self.outgoing[id.index()];
        let inc = &self.incoming[id.index()];
        let mut set: BTreeSet<EntityId> = BTreeSet::new();
        for e in out.iter().chain(inc.iter()) {
            set.insert(e.target);
        }
        set.remove(&id);
        set.into_iter().collect()
    }

    /// One-hop neighborhood together with the connecting predicate, outgoing
    /// direction first. Used to build KGLink's feature sequence `S(e)`
    /// (Eq. 9): `s || (p || o)` for each neighbor `o` with predicate `p`.
    pub fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        let mut pairs: Vec<(PredicateId, EntityId)> = self.outgoing[id.index()]
            .iter()
            .chain(self.incoming[id.index()].iter())
            .map(|e| (e.predicate, e.target))
            .filter(|&(_, t)| t != id)
            .collect();
        // Order by predicate *name* so the result is stable across graphs
        // with different predicate interning orders (e.g. after an
        // export/import round trip).
        pairs.sort_unstable_by(|a, b| {
            self.predicate_name(a.0)
                .cmp(self.predicate_name(b.0))
                .then(a.1.cmp(&b.1))
        });
        pairs.dedup();
        pairs
    }

    /// Direct types of an entity: targets of its `instance of` edges.
    pub fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        let Some(p31) = self.instance_of else {
            return Vec::new();
        };
        self.outgoing[id.index()]
            .iter()
            .filter(|e| e.predicate == p31)
            .map(|e| e.target)
            .collect()
    }

    /// Direct super-classes of a type entity: targets of `subclass of` edges.
    pub fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        let Some(p279) = self.subclass_of else {
            return Vec::new();
        };
        self.outgoing[id.index()]
            .iter()
            .filter(|e| e.predicate == p279)
            .map(|e| e.target)
            .collect()
    }

    /// All type entities (classes) in the graph.
    pub fn type_entities(&self) -> Vec<EntityId> {
        self.entities()
            .filter(|(_, e)| e.is_type)
            .map(|(id, _)| id)
            .collect()
    }

    /// Verbalize the outgoing facts of `id` as short sentences, used for the
    /// MLM pre-training corpus (the stand-in for BERT's web-scale pre-training).
    pub fn verbalize(&self, id: EntityId) -> Vec<String> {
        let subject = self.label(id);
        self.outgoing[id.index()]
            .iter()
            .map(|e| {
                format!(
                    "{} {} {} .",
                    subject,
                    self.predicate_name(e.predicate),
                    self.label(e.target)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::NeSchema;
    use crate::predicates;

    fn toy() -> (KnowledgeGraph, EntityId, EntityId, EntityId) {
        let mut g = KnowledgeGraph::new();
        let p31 = g.intern_predicate(predicates::INSTANCE_OF);
        let performer = g.intern_predicate(predicates::PERFORMER);
        let musician = g.add_entity(Entity::new_type("Musician"));
        let steele = g.add_entity(Entity::new("Peter Steele", NeSchema::Person));
        let rust_album = g.add_entity(Entity::new("Rust", NeSchema::Work));
        g.add_edge(steele, p31, musician);
        g.add_edge(rust_album, performer, steele);
        (g, musician, steele, rust_album)
    }

    #[test]
    fn one_hop_is_bidirectional() {
        let (g, musician, steele, rust_album) = toy();
        // Peter Steele's neighbors: Musician (out) and Rust (in).
        let n = g.one_hop(steele);
        assert_eq!(n, vec![musician, rust_album]);
        // The album sees its performer.
        assert_eq!(g.one_hop(rust_album), vec![steele]);
    }

    #[test]
    fn types_of_follows_instance_of_only() {
        let (g, musician, steele, rust_album) = toy();
        assert_eq!(g.types_of(steele), vec![musician]);
        assert!(g.types_of(rust_album).is_empty());
    }

    #[test]
    fn predicate_interning_is_idempotent() {
        let mut g = KnowledgeGraph::new();
        let a = g.intern_predicate("performer");
        let b = g.intern_predicate("performer");
        assert_eq!(a, b);
        assert_eq!(g.predicate_name(a), "performer");
        assert_eq!(g.predicate_id("performer"), Some(a));
        assert_eq!(g.predicate_id("missing"), None);
    }

    #[test]
    fn one_hop_with_predicates_dedups_and_sorts() {
        let (g, _, steele, _) = toy();
        let pairs = g.one_hop_with_predicates(steele);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn verbalize_produces_triple_sentences() {
        let (g, _, steele, _) = toy();
        let sents = g.verbalize(steele);
        assert_eq!(sents, vec!["Peter Steele instance of Musician ."]);
    }

    #[test]
    fn edge_count_counts_directed_edges() {
        let (g, ..) = toy();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn self_loops_are_excluded_from_one_hop() {
        let mut g = KnowledgeGraph::new();
        let p = g.intern_predicate("related to");
        let a = g.add_entity(Entity::new("A", NeSchema::Other));
        g.add_edge(a, p, a);
        assert!(g.one_hop(a).is_empty());
        assert!(g.one_hop_with_predicates(a).is_empty());
    }
}
