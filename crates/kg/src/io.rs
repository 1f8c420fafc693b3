//! Knowledge-graph interchange: a line-oriented triples format.
//!
//! Lets users bring their own KG instead of the synthetic world. The format
//! is a pragmatic N-Triples-like TSV, one statement per line:
//!
//! ```text
//! # entity declarations
//! E <id> <schema> <is_type> <label>
//! A <id> <alias>
//! D <id> <description>
//! # edges
//! T <subject-id> <predicate-name> <object-id>
//! ```
//!
//! Ids are arbitrary strings; they are mapped to dense [`EntityId`]s on
//! load in first-seen order, so round-trips through this format are stable.

use crate::entity::{Entity, EntityId, NeSchema, PredicateId};
use crate::graph::KnowledgeGraph;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// Parse errors with line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KgIoError {
    BadRecord { line: usize, reason: String },
    UnknownEntity { line: usize, id: String },
    /// The underlying reader failed. `line` is the 1-based number of the
    /// line being read when the error surfaced.
    Io { line: usize, message: String },
}

impl std::fmt::Display for KgIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KgIoError::BadRecord { line, reason } => write!(f, "line {line}: {reason}"),
            KgIoError::UnknownEntity { line, id } => {
                write!(f, "line {line}: unknown entity id {id:?}")
            }
            KgIoError::Io { line, message } => write!(f, "line {line}: I/O error: {message}"),
        }
    }
}

impl std::error::Error for KgIoError {}

fn schema_name(s: NeSchema) -> &'static str {
    match s {
        NeSchema::Person => "person",
        NeSchema::Date => "date",
        NeSchema::Organization => "organization",
        NeSchema::Place => "place",
        NeSchema::Work => "work",
        NeSchema::Biology => "biology",
        NeSchema::Concept => "concept",
        NeSchema::Other => "other",
    }
}

fn schema_from(name: &str) -> Option<NeSchema> {
    Some(match name {
        "person" => NeSchema::Person,
        "date" => NeSchema::Date,
        "organization" => NeSchema::Organization,
        "place" => NeSchema::Place,
        "work" => NeSchema::Work,
        "biology" => NeSchema::Biology,
        "concept" => NeSchema::Concept,
        "other" => NeSchema::Other,
        _ => return None,
    })
}

/// Serialize a graph to the triples text format.
pub fn export_triples(graph: &KnowledgeGraph) -> String {
    let mut out = String::new();
    out.push_str("# kglink knowledge graph export v1\n");
    for (id, e) in graph.entities() {
        let _ = writeln!(
            out,
            "E\t{}\t{}\t{}\t{}",
            id.0,
            schema_name(e.schema),
            u8::from(e.is_type),
            e.label.replace(['\t', '\n'], " ")
        );
        for alias in &e.aliases {
            let _ = writeln!(out, "A\t{}\t{}", id.0, alias.replace(['\t', '\n'], " "));
        }
        if !e.description.is_empty() {
            let _ = writeln!(out, "D\t{}\t{}", id.0, e.description.replace(['\t', '\n'], " "));
        }
    }
    for (id, _) in graph.entities() {
        for edge in graph.outgoing(id) {
            let _ = writeln!(
                out,
                "T\t{}\t{}\t{}",
                id.0,
                graph.predicate_name(edge.predicate),
                edge.target.0
            );
        }
    }
    out
}

/// Parse the triples text format into a graph.
///
/// Thin wrapper over [`import_triples_from`] for callers that already hold
/// the whole document in memory.
pub fn import_triples(text: &str) -> Result<KnowledgeGraph, KgIoError> {
    import_triples_from(text.as_bytes())
}

/// An entity reference in a record that arrived before its `E` declaration.
/// Resolution is deferred to end-of-stream so declaration order stays as
/// flexible as it was with the old whole-document parser.
enum Pending {
    Alias { line: usize, id: String, value: String },
    Description { line: usize, id: String, value: String },
    Edge { line: usize, subject: String, predicate: PredicateId, object: String },
}

/// Parse the triples format from a buffered reader in a single streaming
/// pass, holding only the graph under construction (plus an edge buffer) in
/// memory — never the whole document. This is the entry point for
/// multi-million-entity world files.
///
/// Records referencing entities declared *later* in the stream are legal
/// (the old two-pass parser accepted them) and are resolved at end of
/// stream; for such out-of-order documents, forward-referencing aliases and
/// edges are applied after all in-order ones. Exports produced by
/// [`export_triples`] declare every entity before referencing it, so their
/// round-trip is byte-order faithful.
pub fn import_triples_from(reader: impl BufRead) -> Result<KnowledgeGraph, KgIoError> {
    let mut entities: Vec<Entity> = Vec::new();
    let mut ids: HashMap<String, EntityId> = HashMap::new();
    // Predicates interned up front so buffered edges store a dense id, not
    // a cloned name.
    let mut graph = KnowledgeGraph::new();
    let mut edges: Vec<(EntityId, PredicateId, EntityId)> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();

    let mut line = 0usize;
    for raw in reader.lines() {
        line += 1;
        let raw = raw.map_err(|e| KgIoError::Io {
            line,
            message: e.to_string(),
        })?;
        let trimmed = raw.trim_end();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tag = trimmed.split('\t').next().unwrap_or("");
        match tag {
            "E" => {
                let mut parts = trimmed.splitn(5, '\t').skip(1);
                let id = parts.next().ok_or_else(|| bad(line, "missing id"))?;
                let schema = parts.next().ok_or_else(|| bad(line, "missing schema"))?;
                let is_type = parts.next().ok_or_else(|| bad(line, "missing is_type"))?;
                let label = parts.next().ok_or_else(|| bad(line, "missing label"))?;
                let schema = schema_from(schema)
                    .ok_or_else(|| bad(line, &format!("unknown schema {schema:?}")))?;
                let mut entity = Entity::new(label, schema);
                entity.is_type = is_type == "1";
                #[expect(
                    clippy::expect_used,
                    reason = "capacity guard mirroring KnowledgeGraph::add_entity: ids are u32 by design"
                )]
                let eid = EntityId(u32::try_from(entities.len()).expect("more than u32::MAX entities"));
                entities.push(entity);
                if ids.insert(id.to_string(), eid).is_some() {
                    return Err(bad(line, &format!("duplicate entity id {id:?}")));
                }
            }
            "A" | "D" => {
                let mut parts = trimmed.splitn(3, '\t').skip(1);
                let id = parts.next().unwrap_or("");
                let value = parts.next().unwrap_or("").to_string();
                match ids.get(id) {
                    Some(&eid) => apply_attr(&mut entities, eid, tag, value),
                    None if tag == "A" => pending.push(Pending::Alias {
                        line,
                        id: id.to_string(),
                        value,
                    }),
                    None => pending.push(Pending::Description {
                        line,
                        id: id.to_string(),
                        value,
                    }),
                }
            }
            "T" => {
                let mut parts = trimmed.splitn(4, '\t').skip(1);
                let s = parts.next().ok_or_else(|| bad(line, "missing subject"))?;
                let p = parts.next().ok_or_else(|| bad(line, "missing predicate"))?;
                let o = parts.next().ok_or_else(|| bad(line, "missing object"))?;
                let pid = graph.intern_predicate(p);
                match (ids.get(s), ids.get(o)) {
                    (Some(&sid), Some(&oid)) => edges.push((sid, pid, oid)),
                    _ => pending.push(Pending::Edge {
                        line,
                        subject: s.to_string(),
                        predicate: pid,
                        object: o.to_string(),
                    }),
                }
            }
            other => return Err(bad(line, &format!("unknown record tag {other:?}"))),
        }
    }

    // Resolve forward references now that every entity is known.
    for p in pending {
        match p {
            Pending::Alias { line, id, value } => {
                let eid = resolve(&ids, &id, line)?;
                apply_attr(&mut entities, eid, "A", value);
            }
            Pending::Description { line, id, value } => {
                let eid = resolve(&ids, &id, line)?;
                apply_attr(&mut entities, eid, "D", value);
            }
            Pending::Edge {
                line,
                subject,
                predicate,
                object,
            } => {
                let sid = resolve(&ids, &subject, line)?;
                let oid = resolve(&ids, &object, line)?;
                edges.push((sid, predicate, oid));
            }
        }
    }

    for entity in entities {
        graph.add_entity(entity);
    }
    for (s, p, o) in edges {
        graph.add_edge(s, p, o);
    }
    Ok(graph)
}

fn resolve(ids: &HashMap<String, EntityId>, id: &str, line: usize) -> Result<EntityId, KgIoError> {
    ids.get(id).copied().ok_or_else(|| KgIoError::UnknownEntity {
        line,
        id: id.to_string(),
    })
}

fn apply_attr(entities: &mut [Entity], eid: EntityId, tag: &str, value: String) {
    let e = &mut entities[eid.index()];
    if tag == "A" {
        e.aliases.push(value);
    } else {
        e.description = value;
    }
}

fn bad(line: usize, reason: &str) -> KgIoError {
    KgIoError::BadRecord {
        line,
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;
    use crate::synthetic::{SyntheticWorld, WorldConfig};

    #[test]
    fn round_trip_preserves_everything() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(8));
        let text = export_triples(&world.graph);
        let back = import_triples(&text).unwrap();
        assert_eq!(back.len(), world.graph.len());
        assert_eq!(back.edge_count(), world.graph.edge_count());
        for (id, e) in world.graph.entities() {
            let b = back.entity(id);
            assert_eq!(b.label, e.label);
            assert_eq!(b.schema, e.schema);
            assert_eq!(b.is_type, e.is_type);
            assert_eq!(b.aliases, e.aliases);
        }
        // Structure preserved: one-hop neighborhoods match.
        for (id, _) in world.graph.entities().take(50) {
            assert_eq!(back.one_hop(id), world.graph.one_hop(id));
        }
    }

    #[test]
    fn import_rejects_unknown_tags_and_ids() {
        assert!(matches!(
            import_triples("X\t1\tperson\t0\tAlice\n"),
            Err(KgIoError::BadRecord { line: 1, .. })
        ));
        assert!(matches!(
            import_triples("E\t1\tperson\t0\tAlice\nT\t1\tknows\t99\n"),
            Err(KgIoError::UnknownEntity { line: 2, .. })
        ));
        assert!(matches!(
            import_triples("E\t1\tklingon\t0\tAlice\n"),
            Err(KgIoError::BadRecord { .. })
        ));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let text = "E\ta\tperson\t0\tAlice\nE\ta\tperson\t0\tBob\n";
        assert!(matches!(import_triples(text), Err(KgIoError::BadRecord { .. })));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = import_triples("# hello\n\nE\t1\tconcept\t1\tCity\n").unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.entity(EntityId(0)).is_type);
    }

    #[test]
    fn streaming_import_matches_string_import() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(9));
        let text = export_triples(&world.graph);
        // A deliberately tiny BufReader capacity forces many refills, so the
        // parser really runs incrementally.
        let reader = std::io::BufReader::with_capacity(16, text.as_bytes());
        let streamed = import_triples_from(reader).unwrap();
        let whole = import_triples(&text).unwrap();
        assert_eq!(streamed.len(), whole.len());
        assert_eq!(streamed.edge_count(), whole.edge_count());
        for (id, e) in whole.entities() {
            assert_eq!(streamed.entity(id).label, e.label);
            assert_eq!(streamed.entity(id).aliases, e.aliases);
            assert_eq!(streamed.one_hop(id), whole.one_hop(id));
        }
    }

    #[test]
    fn forward_references_resolve_at_end_of_stream() {
        // Alias and edge lines before the entities they reference.
        let text = "A\tb\tSpring\nT\ta\tcountry\tb\nE\ta\tplace\t0\tNorland\nE\tb\tplace\t0\tSpringfield\n";
        let g = import_triples(text).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.entity(EntityId(1)).aliases, vec!["Spring"]);
        let pid = g.predicate_id("country").unwrap();
        assert!(g.outgoing(EntityId(0)).iter().any(|e| e.predicate == pid));
    }

    #[test]
    fn reader_failures_surface_as_typed_io_errors() {
        struct FailAfter(usize);
        impl std::io::Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk gone"));
                }
                self.0 -= 1;
                let line = b"E\tx1\tperson\t0\tAlice\n";
                // A fresh id per call to avoid duplicate-id errors.
                let rendered = format!("E\tid{}\tperson\t0\tAlice\n", self.0);
                let n = rendered.len().min(buf.len()).min(line.len().max(1));
                buf[..n].copy_from_slice(&rendered.as_bytes()[..n]);
                Ok(n)
            }
        }
        let reader = std::io::BufReader::new(FailAfter(2));
        match import_triples_from(reader) {
            Err(KgIoError::Io { message, .. }) => assert!(message.contains("disk gone")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn predicates_survive_round_trip() {
        let mut b = KgBuilder::new();
        let ty = b.add_type("City", None);
        let a = b.instance("Springfield", NeSchema::Place, ty);
        let c = b.instance("Norland", NeSchema::Place, ty);
        let p = b.predicate("country");
        b.relate(a, p, c);
        let g = b.build();
        let back = import_triples(&export_triples(&g)).unwrap();
        let pid = back.predicate_id("country").expect("predicate preserved");
        assert!(back.outgoing(a).iter().any(|e| e.predicate == pid && e.target == c));
    }
}
