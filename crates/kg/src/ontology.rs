//! Type-hierarchy reasoning over `subclass of` edges.
//!
//! The paper's *type granularity gap* (Figure 2a) is a property of the type
//! hierarchy: the KG proposes `Basketball player` (fine) where the dataset
//! label is `Name` (coarse, possibly outside the hierarchy entirely). These
//! helpers let experiments quantify that gap.

use crate::access::GraphAccess;
use crate::entity::EntityId;
use std::collections::{BTreeSet, VecDeque};

/// A view over the `subclass of` lattice of any [`GraphAccess`] store.
#[derive(Clone, Copy)]
pub struct TypeHierarchy<'g> {
    graph: &'g (dyn GraphAccess + 'g),
}

impl<'g> TypeHierarchy<'g> {
    /// Wrap a graph.
    pub fn new(graph: &'g (dyn GraphAccess + 'g)) -> Self {
        TypeHierarchy { graph }
    }

    /// All ancestors of `ty` (transitive `subclass of` targets), excluding
    /// `ty` itself, in BFS order.
    pub fn ancestors(&self, ty: EntityId) -> Vec<EntityId> {
        let mut seen: BTreeSet<EntityId> = BTreeSet::new();
        let mut order = Vec::new();
        let mut queue: VecDeque<EntityId> = self.graph.superclasses_of(ty).into();
        while let Some(t) = queue.pop_front() {
            if seen.insert(t) {
                order.push(t);
                queue.extend(self.graph.superclasses_of(t));
            }
        }
        order
    }

    /// Whether `sub` is `sup` or a transitive subclass of it.
    pub fn is_subtype_of(&self, sub: EntityId, sup: EntityId) -> bool {
        sub == sup || self.ancestors(sub).contains(&sup)
    }

    /// Depth of `ty`: number of edges to its furthest root. Roots have depth 0.
    pub fn depth(&self, ty: EntityId) -> usize {
        self.graph
            .superclasses_of(ty)
            .into_iter()
            .map(|p| 1 + self.depth(p))
            .max()
            .unwrap_or(0)
    }

    /// Granularity gap between a candidate type and a dataset label type:
    /// `Some(levels)` if one is an ancestor of the other, `None` if they are
    /// unrelated in the hierarchy (the hard case from Figure 2a).
    pub fn granularity_gap(&self, a: EntityId, b: EntityId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        if self.is_subtype_of(a, b) || self.is_subtype_of(b, a) {
            return Some(self.depth(a).abs_diff(self.depth(b)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;
    use crate::graph::KnowledgeGraph;

    fn hierarchy() -> (KnowledgeGraph, EntityId, EntityId, EntityId, EntityId) {
        let mut b = KgBuilder::new();
        let person = b.add_type("Person", None);
        let athlete = b.add_type("Athlete", Some(person));
        let bballer = b.add_type("Basketball player", Some(athlete));
        let name = b.add_type("Name", None);
        (b.build(), person, athlete, bballer, name)
    }

    #[test]
    fn ancestors_are_transitive() {
        let (g, person, athlete, bballer, _) = hierarchy();
        let h = TypeHierarchy::new(&g);
        assert_eq!(h.ancestors(bballer), vec![athlete, person]);
        assert!(h.ancestors(person).is_empty());
    }

    #[test]
    fn subtype_checks() {
        let (g, person, athlete, bballer, name) = hierarchy();
        let h = TypeHierarchy::new(&g);
        assert!(h.is_subtype_of(bballer, person));
        assert!(h.is_subtype_of(athlete, athlete));
        assert!(!h.is_subtype_of(person, bballer));
        assert!(!h.is_subtype_of(bballer, name));
    }

    #[test]
    fn depth_counts_levels() {
        let (g, person, athlete, bballer, name) = hierarchy();
        let h = TypeHierarchy::new(&g);
        assert_eq!(h.depth(person), 0);
        assert_eq!(h.depth(athlete), 1);
        assert_eq!(h.depth(bballer), 2);
        assert_eq!(h.depth(name), 0);
    }

    #[test]
    fn granularity_gap_mirrors_figure_2a() {
        let (g, person, _, bballer, name) = hierarchy();
        let h = TypeHierarchy::new(&g);
        // Basketball player is two levels finer than Person.
        assert_eq!(h.granularity_gap(bballer, person), Some(2));
        // Name is outside the hierarchy of Basketball player: the paper's gap.
        assert_eq!(h.granularity_gap(bballer, name), None);
        assert_eq!(h.granularity_gap(name, name), Some(0));
    }
}
