//! Entity, predicate and named-entity-schema definitions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of an entity inside one [`crate::KnowledgeGraph`].
///
/// Identifiers are assigned contiguously by the [`crate::KgBuilder`], so they
/// can index flat `Vec`s. They are not stable across differently-configured
/// graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The index of this entity in the graph's entity table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirror WikiData's Q-identifiers for readability in logs.
        write!(f, "Q{}", self.0)
    }
}

/// Dense identifier of a predicate (edge label) inside one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PredicateId(pub u16);

impl PredicateId {
    /// The index of this predicate in the graph's predicate table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Named-entity schema category of an entity.
///
/// KGLink uses spaCy's named entity schema to (a) decide that numeric/date
/// cell mentions must not be linked to the KG and (b) exclude `PERSON` and
/// `DATE` entities from the candidate *type* pool (paper §III-A, step 3).
/// This enum is the rule-based stand-in for that schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum NeSchema {
    /// A human being — excluded from candidate types.
    Person,
    /// A calendar entity — excluded from candidate types.
    Date,
    /// Organizations: teams, bands, companies, universities.
    Organization,
    /// Geographic entities.
    Place,
    /// Creative works: films, albums, books.
    Work,
    /// Biological entities: proteins, genes.
    Biology,
    /// Abstract concepts, including most *type* entities.
    Concept,
    /// Anything else.
    #[default]
    Other,
}

impl NeSchema {
    /// Whether entities of this category may serve as a *candidate type*
    /// for a column. The paper's label-based filter removes `PERSON` and
    /// `DATE` because such entities "are not well-suited to represent column
    /// types within a table".
    #[inline]
    pub fn eligible_as_type(self) -> bool {
        !matches!(self, NeSchema::Person | NeSchema::Date)
    }
}

/// A knowledge-graph entity.
///
/// Mirrors the WikiData item fields KGLink consumes: a preferred label, a
/// set of alternative labels (aliases) that participate in BM25 retrieval,
/// a short description, and a schema category.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entity {
    /// Preferred human-readable label (e.g. `"Peter Steele"`).
    pub label: String,
    /// Alternative labels, also indexed for retrieval.
    pub aliases: Vec<String>,
    /// Short description (e.g. `"American musician"`).
    pub description: String,
    /// Named-entity schema category.
    pub schema: NeSchema,
    /// Whether this entity is a *class* (a potential column type) rather
    /// than an instance. Type entities are the targets of `instance of`
    /// edges and the pool from which candidate types are drawn.
    pub is_type: bool,
}

impl Entity {
    /// Create an instance entity with the given label.
    pub fn new(label: impl Into<String>, schema: NeSchema) -> Self {
        Entity {
            label: label.into(),
            aliases: Vec::new(),
            description: String::new(),
            schema,
            is_type: false,
        }
    }

    /// Create a class/type entity with the given label.
    pub fn new_type(label: impl Into<String>) -> Self {
        Entity {
            label: label.into(),
            aliases: Vec::new(),
            description: String::new(),
            schema: NeSchema::Concept,
            is_type: true,
        }
    }

    /// Builder-style: attach a description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Builder-style: attach an alias.
    pub fn with_alias(mut self, alias: impl Into<String>) -> Self {
        self.aliases.push(alias.into());
        self
    }

    /// All searchable strings for this entity: label then aliases.
    pub fn searchable_texts(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.label.as_str()).chain(self.aliases.iter().map(String::as_str))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_id_display_mimics_wikidata() {
        assert_eq!(EntityId(42).to_string(), "Q42");
        assert_eq!(PredicateId(31).to_string(), "P31");
    }

    #[test]
    fn person_and_date_are_ineligible_types() {
        assert!(!NeSchema::Person.eligible_as_type());
        assert!(!NeSchema::Date.eligible_as_type());
        assert!(NeSchema::Concept.eligible_as_type());
        assert!(NeSchema::Organization.eligible_as_type());
    }

    #[test]
    fn searchable_texts_include_aliases() {
        let e = Entity::new("Peter Steele", NeSchema::Person).with_alias("Petrus T. Ratajczyk");
        let texts: Vec<&str> = e.searchable_texts().collect();
        assert_eq!(texts, vec!["Peter Steele", "Petrus T. Ratajczyk"]);
    }

    #[test]
    fn builder_style_helpers() {
        let e =
            Entity::new_type("Basketball player").with_description("athlete who plays basketball");
        assert!(e.is_type);
        assert_eq!(e.schema, NeSchema::Concept);
        assert_eq!(e.description, "athlete who plays basketball");
    }
}
