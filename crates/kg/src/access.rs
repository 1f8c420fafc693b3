//! Backend-agnostic read access to a knowledge graph.
//!
//! The KGLink pipeline needs a handful of queries against the KG — labels,
//! one-hop neighborhoods, `instance of` targets — and nothing else. This
//! trait captures exactly that surface so the pipeline can run against the
//! in-memory [`KnowledgeGraph`] *or* a disk-backed store (`kglink-store`'s
//! `DiskGraph`) without knowing which one it has. It is the graph-side
//! sibling of `kglink_search::KgBackend`: the retrieval trait abstracts
//! *candidate search*, this one abstracts *entity/edge lookup*.
//!
//! Methods return owned values: a disk-backed implementation decodes
//! records out of block-cached segment bytes and has no stable `&Entity`
//! to hand out. The in-memory graph pays a clone per call, which the
//! pipeline only makes for the few entities that survive candidate
//! pruning — not per cell.
//!
//! Implementations must be infallible: identifiers flow in from retrieval
//! over the same store, so an unknown id is a bug upstream, not a data
//! condition. Disk-backed implementations degrade I/O or corruption errors
//! to empty results (mirroring the paper's no-linkage fallback, exactly
//! like `KgBackend::link_mention`) and surface them through their own
//! typed-error API and error counters.

use crate::entity::{Entity, EntityId, NeSchema, PredicateId};
use crate::graph::KnowledgeGraph;

/// Read-only query surface the KGLink pipeline needs from a knowledge
/// graph. Object-safe; `Send + Sync` so serving workers can share one
/// store behind an `Arc`.
pub trait GraphAccess: Send + Sync {
    /// Number of entities in the store.
    fn entity_count(&self) -> usize;

    /// Full record of an entity (label, aliases, description, schema,
    /// type flag). Unknown ids yield a default placeholder on disk-backed
    /// stores; the in-memory graph panics like slice indexing does.
    fn entity(&self, id: EntityId) -> Entity;

    /// Preferred label of `id`.
    fn label(&self, id: EntityId) -> String;

    /// Named-entity schema of `id` without materializing the whole record
    /// (the candidate-type filter calls this in a loop).
    fn schema_of(&self, id: EntityId) -> NeSchema;

    /// Name of a predicate.
    fn predicate_name(&self, p: PredicateId) -> String;

    /// The one-hop neighborhood `N(e)`: entities adjacent in either
    /// direction, deduplicated, sorted, self-loops removed.
    fn one_hop(&self, id: EntityId) -> Vec<EntityId>;

    /// One-hop neighborhood with connecting predicates, ordered by
    /// predicate *name* then target id (stable across interning orders).
    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)>;

    /// Direct types of an entity: targets of its `instance of` edges, in
    /// edge insertion order.
    fn types_of(&self, id: EntityId) -> Vec<EntityId>;

    /// Direct super-classes of a type entity: targets of its `subclass of`
    /// edges, in edge insertion order. [`crate::TypeHierarchy`] builds its
    /// transitive queries on this.
    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId>;
}

impl GraphAccess for KnowledgeGraph {
    fn entity_count(&self) -> usize {
        self.len()
    }

    fn entity(&self, id: EntityId) -> Entity {
        KnowledgeGraph::entity(self, id).clone()
    }

    fn label(&self, id: EntityId) -> String {
        KnowledgeGraph::label(self, id).to_string()
    }

    fn schema_of(&self, id: EntityId) -> NeSchema {
        KnowledgeGraph::entity(self, id).schema
    }

    fn predicate_name(&self, p: PredicateId) -> String {
        KnowledgeGraph::predicate_name(self, p).to_string()
    }

    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        KnowledgeGraph::one_hop(self, id)
    }

    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        KnowledgeGraph::one_hop_with_predicates(self, id)
    }

    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        KnowledgeGraph::types_of(self, id)
    }

    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        KnowledgeGraph::superclasses_of(self, id)
    }
}

/// Blanket impls so decorated/shared graphs thread through the pipeline
/// the same way `KgBackend` stacks do.
impl<G: GraphAccess + ?Sized> GraphAccess for &G {
    fn entity_count(&self) -> usize {
        (**self).entity_count()
    }
    fn entity(&self, id: EntityId) -> Entity {
        (**self).entity(id)
    }
    fn label(&self, id: EntityId) -> String {
        (**self).label(id)
    }
    fn schema_of(&self, id: EntityId) -> NeSchema {
        (**self).schema_of(id)
    }
    fn predicate_name(&self, p: PredicateId) -> String {
        (**self).predicate_name(p)
    }
    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        (**self).one_hop(id)
    }
    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        (**self).one_hop_with_predicates(id)
    }
    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        (**self).types_of(id)
    }
    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        (**self).superclasses_of(id)
    }
}

impl<G: GraphAccess + ?Sized> GraphAccess for std::sync::Arc<G> {
    fn entity_count(&self) -> usize {
        (**self).entity_count()
    }
    fn entity(&self, id: EntityId) -> Entity {
        (**self).entity(id)
    }
    fn label(&self, id: EntityId) -> String {
        (**self).label(id)
    }
    fn schema_of(&self, id: EntityId) -> NeSchema {
        (**self).schema_of(id)
    }
    fn predicate_name(&self, p: PredicateId) -> String {
        (**self).predicate_name(p)
    }
    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        (**self).one_hop(id)
    }
    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        (**self).one_hop_with_predicates(id)
    }
    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        (**self).types_of(id)
    }
    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        (**self).superclasses_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;
    use crate::predicates;

    fn toy() -> (KnowledgeGraph, EntityId, EntityId) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let steele = b.add_instance(
            Entity::new("Peter Steele", NeSchema::Person).with_alias("P. Steele"),
            musician,
        );
        (b.build(), musician, steele)
    }

    fn via_trait<G: GraphAccess>(g: &G, id: EntityId) -> (String, Vec<EntityId>) {
        (g.label(id), g.types_of(id))
    }

    #[test]
    fn in_memory_graph_round_trips_through_the_trait() {
        let (g, musician, steele) = toy();
        let dynamic: &dyn GraphAccess = &g;
        assert_eq!(dynamic.entity_count(), g.len());
        assert_eq!(dynamic.label(steele), "Peter Steele");
        assert_eq!(dynamic.schema_of(steele), NeSchema::Person);
        assert_eq!(dynamic.entity(steele).aliases, vec!["P. Steele"]);
        assert_eq!(dynamic.types_of(steele), vec![musician]);
        assert_eq!(dynamic.one_hop(steele), g.one_hop(steele));
        assert_eq!(
            dynamic.one_hop_with_predicates(steele),
            g.one_hop_with_predicates(steele)
        );
        let p31 = g.predicate_id(predicates::INSTANCE_OF).unwrap();
        assert_eq!(dynamic.predicate_name(p31), predicates::INSTANCE_OF);
    }

    #[test]
    fn references_and_arcs_delegate() {
        let (g, _, steele) = toy();
        assert_eq!(via_trait(&&g, steele), via_trait(&g, steele));
        let shared = std::sync::Arc::new(g);
        let via_arc = via_trait(&shared, steele);
        let via_dyn_arc: std::sync::Arc<dyn GraphAccess> = shared.clone();
        assert_eq!(via_trait(&via_dyn_arc, steele), via_arc);
    }
}
