//! `KGES` entity-shard segments: the on-disk record format for entities
//! and their adjacency.
//!
//! One shard holds a contiguous id range of entity records. The layout is
//! the checkpoint (`KGCK`) idiom adapted for random access — magic, then
//! version, then CRC-guarded contents — with the single whole-payload CRC
//! replaced by *per-block* CRCs so a reader can verify exactly the bytes
//! it touches instead of hashing a multi-gigabyte file on open:
//!
//! ```text
//! offset 0, little-endian
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "KGES" │ u32 version │ u32 index_crc                   │
//! │ u64 index_off │ u64 index_len                                │
//! │ u32 shard_index │ u32 first_id │ u32 n_records │ u32 n_blocks│  44-byte header
//! ├──────────────────────────────────────────────────────────────┤
//! │ per block: a record block, then its adjacency block          │
//! │   record block: records, each `u32 len | payload`            │
//! │   adjacency block: the same records' one-hop lists, each     │
//! │     `varint len | delta-varint ids`                          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ block index: per block                                       │
//! │   `u64 off | u32 len | u32 crc | u32 first_rec`              │
//! │   `u32 adj_len | u32 adj_crc`                    (28 bytes)  │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Version is checked before any CRC (a different version implies a
//! different layout, so hashing it is meaningless); the index CRC is
//! checked once at open; each block's CRC — record or adjacency, each has
//! its own — is checked when the block first enters the block cache. A
//! block's adjacency block starts where its record block ends
//! (`off + len`). Blocks close at [`MAX_BLOCK_BYTES`] of records *or*
//! [`MAX_BLOCK_RECORDS`], whichever comes first — variable records per
//! block means a handful of giant records (hub entities with huge edge
//! lists) cannot force every lookup in their neighborhood to read
//! megabytes.
//!
//! A record payload is fully self-describing:
//!
//! ```text
//! str label | varint n_aliases + strs | str description
//! u8 schema | u8 is_type
//! varint n_out + (varint predicate, varint target)*
//! varint n_in  + (varint predicate, varint target)*
//! ```
//!
//! Strings lead so the hot partial decodes (`label`, `schema`) never touch
//! the edge lists.
//!
//! An adjacency record is what `one_hop` answers, derived from the
//! record's edges at write time: the targets of both directions, sorted,
//! deduplicated, the entity itself removed; stored as the first id, then
//! gaps (each ≥ 1), all varints, behind the varint byte length that lets
//! [`Segment::read_one_hop`] skip a record in one step. In the benchmark's
//! world an adjacency block is ≈ 3 KB where its record block is ≈ 12.5 KB,
//! and a one-hop miss reads and CRCs the small block alone.

use crate::atomic::AtomicFile;
use crate::blockcache::BlockCache;
use crate::error::StoreError;
use crate::varint::{
    borrow_str, crc32, get_count, get_str, get_uv32, put_str, put_uv, read_verified, skip_str,
};
use kglink_kg::{Edge, Entity, EntityId, NeSchema, PredicateId};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"KGES";
pub(crate) const VERSION: u32 = 2;
pub(crate) const HEADER_LEN: usize = 44;
const INDEX_ENTRY_LEN: usize = 28;
/// Set on the block ordinal of an adjacency block's cache key, so it never
/// meets its record block's key `(shard, block)`.
const ADJACENCY_KEY: u32 = 1 << 31;

/// A data block closes once it holds this many payload bytes…
pub const MAX_BLOCK_BYTES: usize = 256 * 1024;
/// …or this many records, whichever comes first.
pub const MAX_BLOCK_RECORDS: u32 = 256;

/// File name of shard `i` inside a world directory.
pub fn shard_file_name(shard: u32) -> String {
    format!("entities-{shard:05}.kges")
}

pub(crate) fn schema_tag(s: NeSchema) -> u8 {
    match s {
        NeSchema::Person => 0,
        NeSchema::Date => 1,
        NeSchema::Organization => 2,
        NeSchema::Place => 3,
        NeSchema::Work => 4,
        NeSchema::Biology => 5,
        NeSchema::Concept => 6,
        NeSchema::Other => 7,
    }
}

/// Every schema at the index of its tag: the inverse of [`schema_tag`].
pub(crate) const SCHEMAS: [NeSchema; 8] = [
    NeSchema::Person,
    NeSchema::Date,
    NeSchema::Organization,
    NeSchema::Place,
    NeSchema::Work,
    NeSchema::Biology,
    NeSchema::Concept,
    NeSchema::Other,
];

fn schema_from_tag(tag: u8) -> Result<NeSchema, StoreError> {
    SCHEMAS
        .get(usize::from(tag))
        .copied()
        .ok_or_else(|| StoreError::Corrupt(format!("unknown schema tag {tag}")))
}

/// One entity record decoded from a shard: the entity plus both adjacency
/// directions, exactly as the in-memory graph stores them.
#[derive(Debug, Clone)]
pub struct EntityRecord {
    pub entity: Entity,
    pub outgoing: Vec<Edge>,
    pub incoming: Vec<Edge>,
}

/// Encode one record payload (no length prefix).
pub(crate) fn encode_record(
    entity: &Entity,
    outgoing: &[Edge],
    incoming: &[Edge],
    buf: &mut Vec<u8>,
) {
    put_str(buf, &entity.label);
    put_uv(buf, entity.aliases.len() as u64);
    for a in &entity.aliases {
        put_str(buf, a);
    }
    put_str(buf, &entity.description);
    buf.push(schema_tag(entity.schema));
    buf.push(u8::from(entity.is_type));
    for edges in [outgoing, incoming] {
        put_uv(buf, edges.len() as u64);
        for e in edges {
            put_uv(buf, u64::from(e.predicate.0));
            put_uv(buf, u64::from(e.target.0));
        }
    }
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, StoreError> {
    let &b = bytes.get(*pos).ok_or(StoreError::Truncated)?;
    *pos += 1;
    Ok(b)
}

/// Length of the edge list at `*pos`. Each edge costs ≥ 2 bytes, so the
/// remaining byte count bounds it — a corrupt count cannot drive an
/// allocation or a walk.
fn edge_count(bytes: &[u8], pos: &mut usize) -> Result<usize, StoreError> {
    get_count(bytes, pos, bytes.len().saturating_sub(*pos))
}

fn get_edge(bytes: &[u8], pos: &mut usize) -> Result<Edge, StoreError> {
    let pred = get_uv32(bytes, pos)?;
    let pred = u16::try_from(pred)
        .map_err(|_| StoreError::Corrupt(format!("predicate id {pred} overflows u16")))?;
    let target = get_uv32(bytes, pos)?;
    Ok(Edge {
        predicate: PredicateId(pred),
        target: EntityId(target),
    })
}

fn decode_edges(bytes: &[u8], pos: &mut usize) -> Result<Vec<Edge>, StoreError> {
    let n = edge_count(bytes, pos)?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(get_edge(bytes, pos)?);
    }
    Ok(edges)
}

/// `(schema, is_type)` as [`decode_record`] reads them: both bytes checked.
fn decode_flags(bytes: &[u8], pos: &mut usize) -> Result<(NeSchema, bool), StoreError> {
    let schema = schema_from_tag(get_u8(bytes, pos)?)?;
    let is_type = match get_u8(bytes, pos)? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::Corrupt(format!(
                "is_type flag must be 0 or 1, found {other}"
            )))
        }
    };
    Ok((schema, is_type))
}

/// Decode a full record payload.
pub(crate) fn decode_record(bytes: &[u8]) -> Result<EntityRecord, StoreError> {
    let mut pos = 0;
    let label = get_str(bytes, &mut pos)?;
    let n_aliases = get_count(bytes, &mut pos, bytes.len())?;
    let mut aliases = Vec::with_capacity(n_aliases);
    for _ in 0..n_aliases {
        aliases.push(get_str(bytes, &mut pos)?);
    }
    let description = get_str(bytes, &mut pos)?;
    let (schema, is_type) = decode_flags(bytes, &mut pos)?;
    let outgoing = decode_edges(bytes, &mut pos)?;
    let incoming = decode_edges(bytes, &mut pos)?;
    Ok(EntityRecord {
        entity: Entity {
            label,
            aliases,
            description,
            schema,
            is_type,
        },
        outgoing,
        incoming,
    })
}

/// The edge lists of a record, `visit(outgoing, edge)` in stored order,
/// without materialising the entity: every check [`decode_record`] makes on
/// the fields in front of them is made (bounds, UTF-8, schema tag, `is_type`
/// flag — same typed errors), nothing is allocated for them. On `Err`,
/// `visit` may already have seen a prefix of the edges.
pub(crate) fn decode_edge_lists(
    bytes: &[u8],
    mut visit: impl FnMut(bool, Edge),
) -> Result<(), StoreError> {
    let mut pos = 0;
    borrow_str(bytes, &mut pos)?;
    for _ in 0..get_count(bytes, &mut pos, bytes.len())? {
        borrow_str(bytes, &mut pos)?;
    }
    borrow_str(bytes, &mut pos)?;
    decode_flags(bytes, &mut pos)?;
    for outgoing in [true, false] {
        for _ in 0..edge_count(bytes, &mut pos)? {
            visit(outgoing, get_edge(bytes, &mut pos)?);
        }
    }
    Ok(())
}

/// Decode only the label — the hottest partial read.
pub(crate) fn decode_label(bytes: &[u8]) -> Result<String, StoreError> {
    let mut pos = 0;
    get_str(bytes, &mut pos)
}

/// Decode the entity fields without materializing the edge lists.
pub(crate) fn decode_entity(bytes: &[u8]) -> Result<Entity, StoreError> {
    let mut pos = 0;
    let label = get_str(bytes, &mut pos)?;
    let n_aliases = get_count(bytes, &mut pos, bytes.len())?;
    let mut aliases = Vec::with_capacity(n_aliases);
    for _ in 0..n_aliases {
        aliases.push(get_str(bytes, &mut pos)?);
    }
    let description = get_str(bytes, &mut pos)?;
    let schema = schema_from_tag(get_u8(bytes, &mut pos)?)?;
    let is_type = get_u8(bytes, &mut pos)? == 1;
    Ok(Entity {
        label,
        aliases,
        description,
        schema,
        is_type,
    })
}

/// Decode only `(schema, is_type)`, skipping the strings without
/// allocating.
pub(crate) fn decode_schema(bytes: &[u8]) -> Result<(NeSchema, bool), StoreError> {
    let mut pos = 0;
    skip_str(bytes, &mut pos)?;
    let n_aliases = get_count(bytes, &mut pos, bytes.len())?;
    for _ in 0..n_aliases {
        skip_str(bytes, &mut pos)?;
    }
    skip_str(bytes, &mut pos)?;
    let schema = schema_from_tag(get_u8(bytes, &mut pos)?)?;
    let is_type = get_u8(bytes, &mut pos)? == 1;
    Ok((schema, is_type))
}

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    off: u64,
    len: u32,
    crc: u32,
    first_rec: u32,
    /// The adjacency block, at `off + len`.
    adj_len: u32,
    adj_crc: u32,
}

/// Append the one-hop list of entity `id` to `adj` as an adjacency record:
/// `hop` (scratch, overwritten) collects the targets of `edges` other than
/// `id`, sorted and deduplicated, exactly the list `KnowledgeGraph::one_hop`
/// answers. `bytes` is scratch too.
fn encode_one_hop<'e>(
    id: EntityId,
    edges: impl Iterator<Item = &'e Edge>,
    hop: &mut Vec<EntityId>,
    bytes: &mut Vec<u8>,
    adj: &mut Vec<u8>,
) {
    hop.clear();
    hop.extend(edges.map(|e| e.target).filter(|&t| t != id));
    hop.sort_unstable();
    hop.dedup();
    bytes.clear();
    let mut prev = 0;
    for t in hop.iter() {
        put_uv(bytes, u64::from(t.0 - prev));
        prev = t.0;
    }
    put_uv(adj, bytes.len() as u64);
    adj.extend_from_slice(bytes);
}

/// Decode an adjacency record payload (no length prefix): the first id,
/// then gaps. A gap of 0 or past `u32::MAX` is `Corrupt`: the writer only
/// stores strictly ascending ids.
fn decode_one_hop(bytes: &[u8]) -> Result<Vec<EntityId>, StoreError> {
    // Every id costs at least one byte.
    let mut hop = Vec::with_capacity(bytes.len());
    let mut pos = 0;
    while pos < bytes.len() {
        let gap = get_uv32(bytes, &mut pos)?;
        let id = match hop.last() {
            None => Some(gap),
            Some(&EntityId(prev)) if gap > 0 => prev.checked_add(gap),
            Some(_) => None,
        }
        .ok_or_else(|| StoreError::Corrupt(format!("one-hop gap {gap} breaks the order")))?;
        hop.push(EntityId(id));
    }
    Ok(hop)
}

/// Streaming writer for one entity shard. Records arrive in id order via
/// [`SegmentWriter::push`]; [`SegmentWriter::finish`] seals the file
/// through the atomic temp → fsync → rename protocol.
#[derive(Debug)]
pub struct SegmentWriter {
    file: AtomicFile,
    shard_index: u32,
    first_id: u32,
    n_records: u32,
    /// Payload of the currently open block (record frames, concatenated).
    block: Vec<u8>,
    /// Payload of its adjacency block (adjacency records, concatenated).
    adj: Vec<u8>,
    block_records: u32,
    index: Vec<BlockMeta>,
    scratch: Vec<u8>,
    hop: Vec<EntityId>,
}

impl SegmentWriter {
    /// Open a shard writer for entities `first_id..`.
    pub fn create(path: &Path, shard_index: u32, first_id: u32) -> Result<Self, StoreError> {
        let mut file = AtomicFile::create(path)?;
        // Header placeholder; patched with real offsets in `finish`.
        file.write_all(&[0u8; HEADER_LEN])?;
        Ok(SegmentWriter {
            file,
            shard_index,
            first_id,
            n_records: 0,
            block: Vec::with_capacity(MAX_BLOCK_BYTES + 4096),
            adj: Vec::new(),
            block_records: 0,
            index: Vec::new(),
            scratch: Vec::new(),
            hop: Vec::new(),
        })
    }

    /// Append the record for the next entity id in sequence, and its
    /// one-hop list to the adjacency block.
    pub fn push(
        &mut self,
        entity: &Entity,
        outgoing: &[Edge],
        incoming: &[Edge],
    ) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_record(entity, outgoing, incoming, &mut self.scratch);
        let len = u32::try_from(self.scratch.len()).map_err(|_| {
            StoreError::Corrupt(format!(
                "record for '{}' exceeds u32::MAX bytes",
                entity.label
            ))
        })?;
        self.block.extend_from_slice(&len.to_le_bytes());
        self.block.extend_from_slice(&self.scratch);
        encode_one_hop(
            EntityId(self.first_id.wrapping_add(self.n_records)),
            outgoing.iter().chain(incoming),
            &mut self.hop,
            &mut self.scratch,
            &mut self.adj,
        );
        self.block_records += 1;
        self.n_records += 1;
        if self.block.len() >= MAX_BLOCK_BYTES || self.block_records >= MAX_BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), StoreError> {
        if self.block.is_empty() {
            return Ok(());
        }
        let off = self.file.position();
        let adj_len = u32::try_from(self.adj.len()).map_err(|_| {
            StoreError::Corrupt(format!("adjacency block at {off} exceeds u32::MAX bytes"))
        })?;
        self.file.write_all(&self.block)?;
        self.file.write_all(&self.adj)?;
        self.index.push(BlockMeta {
            off,
            len: self.block.len() as u32,
            crc: crc32(&self.block),
            first_rec: self.n_records - self.block_records,
            adj_len,
            adj_crc: crc32(&self.adj),
        });
        self.block.clear();
        self.adj.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Seal the shard: flush the open block, append the block index, patch
    /// the header, fsync, rename. Returns the number of records written.
    pub fn finish(mut self) -> Result<u32, StoreError> {
        self.flush_block()?;
        let index_off = self.file.position();
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_LEN);
        for b in &self.index {
            index_bytes.extend_from_slice(&b.off.to_le_bytes());
            index_bytes.extend_from_slice(&b.len.to_le_bytes());
            index_bytes.extend_from_slice(&b.crc.to_le_bytes());
            index_bytes.extend_from_slice(&b.first_rec.to_le_bytes());
            index_bytes.extend_from_slice(&b.adj_len.to_le_bytes());
            index_bytes.extend_from_slice(&b.adj_crc.to_le_bytes());
        }
        self.file.write_all(&index_bytes)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&crc32(&index_bytes).to_le_bytes());
        header.extend_from_slice(&index_off.to_le_bytes());
        header.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
        header.extend_from_slice(&self.shard_index.to_le_bytes());
        header.extend_from_slice(&self.first_id.to_le_bytes());
        header.extend_from_slice(&self.n_records.to_le_bytes());
        header.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        debug_assert_eq!(header.len(), HEADER_LEN);
        self.file.patch(0, &header)?;
        let n = self.n_records;
        self.file.commit()?;
        Ok(n)
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    // Callers slice from fixed-size buffers they just length-checked.
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
        bytes[at + 4],
        bytes[at + 5],
        bytes[at + 6],
        bytes[at + 7],
    ])
}

/// Read access to one sealed shard. Holds the open file handle and the
/// decoded block index; record bytes flow through the shared
/// [`BlockCache`] keyed by `(shard_index, block ordinal)`.
#[derive(Debug)]
pub struct Segment {
    file: File,
    shard_index: u32,
    first_id: u32,
    n_records: u32,
    blocks: Vec<BlockMeta>,
}

impl Segment {
    /// Open and validate a shard: magic, then version, then the index CRC.
    /// Block payloads are verified lazily on first read.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact_at(&mut header, 0)?;
        if &header[0..4] != MAGIC {
            return Err(StoreError::BadMagic { expected: "KGES" });
        }
        let version = read_u32(&header, 4);
        if version != VERSION {
            return Err(StoreError::WrongVersion {
                found: version,
                expected: VERSION,
            });
        }
        let index_crc = read_u32(&header, 8);
        let index_off = read_u64(&header, 12);
        let index_len = read_u64(&header, 20);
        let shard_index = read_u32(&header, 28);
        let first_id = read_u32(&header, 32);
        let n_records = read_u32(&header, 36);
        let n_blocks = read_u32(&header, 40);
        if n_blocks >= ADJACENCY_KEY || index_len != u64::from(n_blocks) * INDEX_ENTRY_LEN as u64 {
            return Err(StoreError::Corrupt(format!(
                "index length {index_len} does not match {n_blocks} blocks"
            )));
        }
        let file_len = file.metadata()?.len();
        if index_off
            .checked_add(index_len)
            .map(|end| end > file_len)
            .unwrap_or(true)
        {
            return Err(StoreError::Truncated);
        }
        let index_bytes = read_verified(&file, index_off, index_len as usize, index_crc)?;
        let mut blocks = Vec::with_capacity(n_blocks as usize);
        for i in 0..n_blocks as usize {
            let at = i * INDEX_ENTRY_LEN;
            let meta = BlockMeta {
                off: read_u64(&index_bytes, at),
                len: read_u32(&index_bytes, at + 8),
                crc: read_u32(&index_bytes, at + 12),
                first_rec: read_u32(&index_bytes, at + 16),
                adj_len: read_u32(&index_bytes, at + 20),
                adj_crc: read_u32(&index_bytes, at + 24),
            };
            let len = u64::from(meta.len) + u64::from(meta.adj_len);
            if meta
                .off
                .checked_add(len)
                .map(|end| end > index_off)
                .unwrap_or(true)
            {
                return Err(StoreError::Corrupt(format!(
                    "block {i} spans [{}, +{len}) past the data section",
                    meta.off
                )));
            }
            blocks.push(meta);
        }
        Ok(Segment {
            file,
            shard_index,
            first_id,
            n_records,
            blocks,
        })
    }

    /// Shard ordinal recorded at write time.
    pub fn shard_index(&self) -> u32 {
        self.shard_index
    }

    /// First global entity id stored in this shard.
    pub fn first_id(&self) -> u32 {
        self.first_id
    }

    /// Number of records in this shard.
    pub fn n_records(&self) -> u32 {
        self.n_records
    }

    /// Fetch a block through the cache, verifying its CRC on first load:
    /// the record block of `block_idx`, or its adjacency block.
    fn block(
        &self,
        block_idx: usize,
        adjacency: bool,
        cache: &BlockCache,
    ) -> Result<std::sync::Arc<Vec<u8>>, StoreError> {
        let meta = self.blocks[block_idx];
        let (key, off, len, crc) = if adjacency {
            let off = meta.off + u64::from(meta.len);
            (
                block_idx as u32 | ADJACENCY_KEY,
                off,
                meta.adj_len,
                meta.adj_crc,
            )
        } else {
            (block_idx as u32, meta.off, meta.len, meta.crc)
        };
        cache.get_or_try_load((self.shard_index, key), || {
            read_verified(&self.file, off, len as usize, crc)
        })
    }

    /// The block holding local record `local`: the last whose `first_rec`
    /// is at most `local`.
    fn block_of(&self, local: u32) -> Result<usize, StoreError> {
        if local >= self.n_records {
            return Err(StoreError::UnknownEntity {
                id: self.first_id.saturating_add(local),
                n_entities: u64::from(self.first_id) + u64::from(self.n_records),
            });
        }
        self.blocks
            .partition_point(|b| b.first_rec <= local)
            .checked_sub(1)
            .ok_or_else(|| StoreError::Corrupt("record before first block".into()))
    }

    /// Run `decode` over the payload bytes of local record `local`.
    fn with_record<T>(
        &self,
        local: u32,
        cache: &BlockCache,
        decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let block_idx = self.block_of(local)?;
        let bytes = self.block(block_idx, false, cache)?;
        let mut pos = 0usize;
        let mut rec = self.blocks[block_idx].first_rec;
        loop {
            if pos + 4 > bytes.len() {
                return Err(StoreError::Truncated);
            }
            let len = read_u32(&bytes, pos) as usize;
            pos += 4;
            let end = pos.checked_add(len).ok_or(StoreError::Truncated)?;
            if end > bytes.len() {
                return Err(StoreError::Truncated);
            }
            if rec == local {
                return decode(&bytes[pos..end]);
            }
            pos = end;
            rec += 1;
        }
    }

    /// One-hop list of local record `local` from its adjacency block:
    /// sorted, deduplicated ids, the entity itself excluded.
    pub fn read_one_hop(
        &self,
        local: u32,
        cache: &BlockCache,
    ) -> Result<Vec<EntityId>, StoreError> {
        let block_idx = self.block_of(local)?;
        let bytes = self.block(block_idx, true, cache)?;
        let mut pos = 0;
        for _ in self.blocks[block_idx].first_rec..local {
            let len = get_count(&bytes, &mut pos, bytes.len())?;
            pos += len;
        }
        let len = get_count(&bytes, &mut pos, bytes.len())?;
        let end = pos.checked_add(len).ok_or(StoreError::Truncated)?;
        decode_one_hop(bytes.get(pos..end).ok_or(StoreError::Truncated)?)
    }

    /// Full record of local record `local`.
    pub fn read_record(&self, local: u32, cache: &BlockCache) -> Result<EntityRecord, StoreError> {
        self.with_record(local, cache, decode_record)
    }

    /// Both edge lists of local record `local`, `visit(outgoing, edge)` in
    /// stored order, the entity fields checked but not materialised.
    pub fn read_edges(
        &self,
        local: u32,
        cache: &BlockCache,
        visit: impl FnMut(bool, Edge),
    ) -> Result<(), StoreError> {
        self.with_record(local, cache, |bytes| decode_edge_lists(bytes, visit))
    }

    /// Entity fields only, edge lists untouched.
    pub fn read_entity(&self, local: u32, cache: &BlockCache) -> Result<Entity, StoreError> {
        self.with_record(local, cache, decode_entity)
    }

    /// Label only.
    pub fn read_label(&self, local: u32, cache: &BlockCache) -> Result<String, StoreError> {
        self.with_record(local, cache, decode_label)
    }

    /// `(schema, is_type)` only.
    pub fn read_schema(
        &self,
        local: u32,
        cache: &BlockCache,
    ) -> Result<(NeSchema, bool), StoreError> {
        self.with_record(local, cache, decode_schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("kglink-store-segment-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_entity(i: u32) -> (Entity, Vec<Edge>, Vec<Edge>) {
        let e = Entity::new(format!("entity {i}"), NeSchema::Work)
            .with_alias(format!("alias {i}"))
            .with_description(format!("the {i}th sample"));
        let out = vec![Edge {
            predicate: PredicateId(0),
            target: EntityId(i.wrapping_add(1)),
        }];
        let inc = vec![Edge {
            predicate: PredicateId(1),
            target: EntityId(i.wrapping_mul(7)),
        }];
        (e, out, inc)
    }

    fn write_shard(path: &Path, n: u32) {
        let mut w = SegmentWriter::create(path, 3, 100).unwrap();
        for i in 0..n {
            let (e, out, inc) = sample_entity(i);
            w.push(&e, &out, &inc).unwrap();
        }
        assert_eq!(w.finish().unwrap(), n);
    }

    /// Edges of local record `i` of the one-hop fixture, entity id
    /// `first + i`: none, a self-loop, one target in both directions,
    /// repeats, and at `hub` enough edges to close a block by bytes.
    fn one_hop_edges(first: u32, i: u32, hub: u32) -> (Vec<Edge>, Vec<Edge>) {
        let me = first + i;
        let edge = |p: u16, t: u32| Edge {
            predicate: PredicateId(p),
            target: EntityId(t),
        };
        if i == hub {
            // ≈ 4 bytes an edge: the record alone passes MAX_BLOCK_BYTES.
            let out = (0..70_000u32)
                .map(|k| edge(1, k * 29 % 2_000_000))
                .collect();
            return (out, vec![edge(0, me)]);
        }
        match i % 5 {
            0 => (Vec::new(), Vec::new()),
            1 => (vec![edge(0, me), edge(1, me + 3)], vec![edge(0, me)]),
            2 => (vec![edge(2, me + 1)], vec![edge(3, me + 1), edge(0, 7)]),
            3 => (
                vec![edge(0, me - 1), edge(1, me - 1), edge(0, 9)],
                vec![edge(4, 5), edge(2, 9)],
            ),
            _ => (vec![edge(1, u32::MAX), edge(1, 0)], vec![edge(0, me + 2)]),
        }
    }

    #[test]
    fn one_hop_lists_match_the_records_they_derive_from() {
        let dir = tmpdir("onehop");
        let path = dir.join(shard_file_name(2));
        let (first, n, hub) = (100, MAX_BLOCK_RECORDS * 2 + 77, MAX_BLOCK_RECORDS + 40);
        let mut w = SegmentWriter::create(&path, 2, first).unwrap();
        for i in 0..n {
            let (out, inc) = one_hop_edges(first, i, hub);
            let e = Entity::new(format!("entity {i}"), NeSchema::Place);
            w.push(&e, &out, &inc).unwrap();
        }
        assert_eq!(w.finish().unwrap(), n);
        let seg = Segment::open(&path).unwrap();
        // The hub's block closed at the hub, by bytes, short of the
        // record cap; blocks before and after it are record-capped.
        let hub_block = seg.blocks.partition_point(|b| b.first_rec <= hub) - 1;
        let (start, next) = (
            seg.blocks[hub_block].first_rec,
            seg.blocks[hub_block + 1].first_rec,
        );
        assert_eq!(next, hub + 1);
        assert!(next - start < MAX_BLOCK_RECORDS);
        assert!(seg.blocks.len() >= 4, "{} blocks", seg.blocks.len());
        let cache = BlockCache::new(1 << 20, 2);
        let mut kinds = [0usize; 3];
        for i in 0..n {
            let rec = seg.read_record(i, &cache).unwrap();
            let me = EntityId(first + i);
            let mut want: Vec<EntityId> = rec
                .outgoing
                .iter()
                .chain(&rec.incoming)
                .map(|e| e.target)
                .collect();
            kinds[0] += usize::from(want.contains(&me));
            want.sort_unstable();
            want.dedup();
            want.retain(|&t| t != me);
            kinds[1] += usize::from(want.is_empty());
            kinds[2] += usize::from(want.len() > 20_000);
            assert_eq!(seg.read_one_hop(i, &cache).unwrap(), want, "record {i}");
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
        assert!(matches!(
            seg.read_one_hop(n, &cache),
            Err(StoreError::UnknownEntity { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_hop_decode_rejects_out_of_order_gaps() {
        let mut bytes = Vec::new();
        for gap in [5, 0] {
            put_uv(&mut bytes, gap);
        }
        assert!(matches!(
            decode_one_hop(&bytes),
            Err(StoreError::Corrupt(_))
        ));
        let mut bytes = Vec::new();
        for gap in [u64::from(u32::MAX), 1] {
            put_uv(&mut bytes, gap);
        }
        assert!(matches!(
            decode_one_hop(&bytes),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(
            decode_one_hop(&[0, 1, 2]).unwrap(),
            vec![EntityId(0), EntityId(1), EntityId(3)]
        );
    }

    #[test]
    fn records_round_trip_across_block_boundaries() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(shard_file_name(3));
        // > MAX_BLOCK_RECORDS records forces multiple blocks.
        let n = MAX_BLOCK_RECORDS * 2 + 13;
        write_shard(&path, n);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.shard_index(), 3);
        assert_eq!(seg.first_id(), 100);
        assert_eq!(seg.n_records(), n);
        let cache = BlockCache::new(1 << 20, 2);
        for i in [0, 1, MAX_BLOCK_RECORDS - 1, MAX_BLOCK_RECORDS, n - 1] {
            let (e, out, inc) = sample_entity(i);
            let rec = seg.read_record(i, &cache).unwrap();
            assert_eq!(rec.entity.label, e.label);
            assert_eq!(rec.entity.aliases, e.aliases);
            assert_eq!(rec.entity.description, e.description);
            assert_eq!(rec.outgoing, out);
            assert_eq!(rec.incoming, inc);
            assert_eq!(seg.read_label(i, &cache).unwrap(), e.label);
            assert_eq!(seg.read_schema(i, &cache).unwrap(), (NeSchema::Work, false));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_record_is_unknown_entity() {
        let dir = tmpdir("range");
        let path = dir.join(shard_file_name(0));
        write_shard(&path, 5);
        let seg = Segment::open(&path).unwrap();
        let cache = BlockCache::new(1 << 16, 1);
        assert!(matches!(
            seg.read_record(5, &cache),
            Err(StoreError::UnknownEntity { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_wrong_version_fail_typed() {
        let dir = tmpdir("magic");
        let path = dir.join(shard_file_name(0));
        write_shard(&path, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let orig = bytes.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(StoreError::BadMagic { expected: "KGES" })
        ));
        bytes = orig.clone();
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(StoreError::WrongVersion {
                found: 99,
                expected: VERSION
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_fails_typed() {
        let dir = tmpdir("trunc");
        let path = dir.join(shard_file_name(0));
        write_shard(&path, 10);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(Segment::open(&path), Err(StoreError::Truncated)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_data_bit_is_caught_at_read_time() {
        let dir = tmpdir("bitrot");
        let path = dir.join(shard_file_name(0));
        write_shard(&path, 10);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the data section (past the header, before the
        // index): open still succeeds, the damaged block fails on read.
        bytes[HEADER_LEN + 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).unwrap();
        let cache = BlockCache::new(1 << 16, 1);
        assert!(matches!(
            seg.read_record(0, &cache),
            Err(StoreError::CrcMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_index_bit_is_caught_at_open() {
        let dir = tmpdir("idxrot");
        let path = dir.join(shard_file_name(0));
        write_shard(&path, 10);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(StoreError::CrcMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edge_list_decode_checks_what_record_decode_checks() {
        // Every one-byte corruption and every truncation of a record: the
        // edge-only decoder returns the edges the full decoder returns, or
        // fails with the very same error.
        let (e, out, inc) = sample_entity(300);
        let mut good = Vec::new();
        encode_record(&e, &out, &inc, &mut good);
        let mut cases: Vec<Vec<u8>> = (0..=good.len()).map(|n| good[..n].to_vec()).collect();
        for at in 0..good.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[at] ^= flip;
                cases.push(bad);
            }
        }
        let mut failures = 0;
        for bytes in &cases {
            let full = decode_record(bytes).map(|r| (r.outgoing, r.incoming));
            let mut lists = (Vec::new(), Vec::new());
            let walked = decode_edge_lists(bytes, |outgoing, edge| {
                if outgoing {
                    lists.0.push(edge);
                } else {
                    lists.1.push(edge);
                }
            });
            assert_eq!(walked.map(|()| lists), full, "bytes {bytes:?}");
            failures += usize::from(full.is_err());
        }
        assert!(
            failures > good.len(),
            "the corpus exercises the error paths"
        );
    }

    #[test]
    fn corrupt_enum_tags_fail_typed() {
        let mut buf = Vec::new();
        let e = Entity::new("x", NeSchema::Other);
        encode_record(&e, &[], &[], &mut buf);
        // Schema byte sits right after the three strings; label "x" is
        // [1,'x'], no aliases [0], empty description [0] → offset 5.
        buf[5] = 200;
        assert!(matches!(decode_record(&buf), Err(StoreError::Corrupt(_))));
        let mut buf = Vec::new();
        encode_record(&e, &[], &[], &mut buf);
        buf[6] = 9; // is_type flag
        assert!(matches!(decode_record(&buf), Err(StoreError::Corrupt(_))));
    }
}
