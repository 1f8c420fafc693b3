//! An in-memory, WikiData-like knowledge graph substrate.
//!
//! The original KGLink system (ICDE 2024) links table cell mentions against
//! the full WikiData knowledge graph served through Elasticsearch. This crate
//! provides the equivalent substrate for the reproduction:
//!
//! * [`KnowledgeGraph`] — an entity store with labels, aliases, descriptions,
//!   a named-entity schema category per entity, and typed directed edges with
//!   forward and inverse adjacency. One-hop neighborhoods (the core KG
//!   primitive consumed by KGLink's Part 1) are first-class queries.
//! * [`ontology`] — `instance of` / `subclass of` reasoning helpers used to
//!   study the paper's *type granularity gap*.
//! * [`synthetic`] — a deterministic generator for a small "world" with the
//!   same structural properties as the WikiData slices behind SemTab and
//!   VizNet: multi-level type hierarchies (`Person ⊃ Athlete ⊃ Basketball
//!   player`), relation-rich instances, aliases, and noise knobs.
//!
//! All identifiers are dense `u32` indices so that downstream code (BM25
//! index, entity filters) can use flat vectors instead of hash maps on the
//! hot path.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::disallowed_methods,
        clippy::iter_over_hash_type
    )
)]

pub mod access;
pub mod builder;
pub mod entity;
pub mod graph;
pub mod idhash;
pub mod io;
pub mod ontology;
pub mod stats;
pub mod synthetic;

pub use access::GraphAccess;
pub use builder::KgBuilder;
pub use entity::{Entity, EntityId, NeSchema, PredicateId};
pub use graph::{Edge, KnowledgeGraph};
pub use idhash::{IdHasher, IdMap};
pub use ontology::TypeHierarchy;
pub use stats::KgStats;
pub use synthetic::{SyntheticWorld, WorldConfig};

/// Well-known predicate names shared between the generator and the pipeline.
pub mod predicates {
    /// WikiData P31.
    pub const INSTANCE_OF: &str = "instance of";
    /// WikiData P279.
    pub const SUBCLASS_OF: &str = "subclass of";
    /// WikiData P54.
    pub const MEMBER_OF_SPORTS_TEAM: &str = "member of sports team";
    /// WikiData P413.
    pub const POSITION_PLAYED: &str = "position played";
    /// WikiData P641.
    pub const SPORT: &str = "sport";
    /// WikiData P175.
    pub const PERFORMER: &str = "performer";
    /// WikiData P86.
    pub const COMPOSER: &str = "composer";
    /// WikiData P57.
    pub const DIRECTOR: &str = "director";
    /// WikiData P161.
    pub const CAST_MEMBER: &str = "cast member";
    /// WikiData P17.
    pub const COUNTRY: &str = "country";
    /// WikiData P36.
    pub const CAPITAL: &str = "capital";
    /// WikiData P131.
    pub const LOCATED_IN: &str = "located in";
    /// WikiData P702.
    pub const ENCODED_BY: &str = "encoded by";
    /// WikiData P527.
    pub const HAS_PART: &str = "has part";
    /// WikiData P463.
    pub const MEMBER_OF: &str = "member of";
    /// WikiData P136.
    pub const GENRE: &str = "genre";
    /// WikiData P69.
    pub const EDUCATED_AT: &str = "educated at";
    /// WikiData P108.
    pub const EMPLOYER: &str = "employer";
    /// WikiData P166.
    pub const AWARD_RECEIVED: &str = "award received";
    /// WikiData P1344.
    pub const PARTICIPANT_IN: &str = "participant in";
    /// WikiData P403 (river → mouth).
    pub const MOUTH_OF_WATERCOURSE: &str = "mouth of watercourse";
    /// WikiData P50.
    pub const AUTHOR: &str = "author";
    /// WikiData P407.
    pub const LANGUAGE_OF_WORK: &str = "language of work";
    /// WikiData P106.
    pub const OCCUPATION: &str = "occupation";
}
