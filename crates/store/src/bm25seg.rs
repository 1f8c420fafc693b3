//! `KGBM` compressed on-disk BM25 index segments.
//!
//! The in-memory [`kglink_search::InvertedIndex`] holds every posting as a
//! struct in a `HashMap` — fine at 100k entities, impossible at 10M. This
//! module stores the same index as one segment file: delta-varint
//! compressed postings with per-block *max-score* metadata, a
//! binary-searchable sorted term dictionary, and a dense document-length
//! array. Queries over it return **bit-identical** hits to
//! `InvertedIndex::search` (same f32 summation order, same IDF, same
//! heap tie-breaks) — the transparency proptests pin this.
//!
//! ```text
//! offset 0, little-endian
//! ┌───────────────────────────────────────────────────────────────────┐
//! │ magic "KGBM" │ u32 version │ u32 header_crc (over bytes 12..80)   │
//! │ u32 n_terms │ u64 postings_off │ u64 postings_len                 │
//! │ u64 dict_off │ u64 dict_len │ u32 dict_crc                        │
//! │ u64 doclen_off │ u64 doclen_len │ u32 doclen_crc │ f32 k1 │ f32 b │  80-byte header
//! ├───────────────────────────────────────────────────────────────────┤
//! │ postings: per term, blocks of ≤ 128 postings                      │
//! │   varint count │ varint first_delta │ varint span                 │
//! │   f32 max_score │ varint payload_len                              │
//! │   payload: (count−1) varint doc gaps, then count varint tfs       │
//! ├───────────────────────────────────────────────────────────────────┤
//! │ dict: [u32 entry_off]*n_terms ++ entries (sorted by term bytes)   │
//! │   entry: varint term_len + bytes │ varint df                      │
//! │          u64 post_off (rel) │ u32 post_len │ u32 post_crc         │
//! │          varint n_blocks                                          │
//! ├───────────────────────────────────────────────────────────────────┤
//! │ doclens: dense u32 token count per doc id                         │
//! └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! **Why per-block max scores: the staged traversal.** `max_score` is the
//! largest BM25 contribution any posting in the block can make (computable
//! at build time: df, doc lengths, and corpus stats are all final). When
//! a term's posting bytes enter the block cache they are CRC-checked and
//! every block header is decoded once into a fixed-width block table
//! appended to the cached entry, with the term bound `ub = max(block
//! max)`; a query opens a list by reading that table's trailer. Lists are
//! then walked one per *stage*, rarest first. A doc met in stage `s` that
//! an earlier-stage list contains was handled there; any other doc is
//! scored in full — one `term_score` per list containing it, added to
//! `0.0` in query-term order, its `tf` in the other lists found by seeking
//! their block tables (binary search on `last` forward from the list's
//! last seek, decode at most that one block) — and offered to the top-k
//! heap. Before a stage, if the heap is full
//! and the most an unseen doc can score — `Σ max(ub, 0)` over the lists
//! of stage ≥ `s`, summed in query-term order — is strictly below the
//! k-th best, the query is finished; before a block, the same sum with
//! the stage's own `ub` replaced by the block's max skips the block
//! *undecoded* via `payload_len`. For `first second tag` that scores the
//! few hundred docs of the tag list and never walks the two name lists.
//!
//! This is rank-safe and bit-identical, not approximate. Every doc that
//! can enter the top-k is scored by the same expression in the same
//! summation order as `InvertedIndex::search`. The heap order is total
//! (`total_cmp`, then doc id), so the k survivors do not depend on the
//! order docs arrive in. A doc outside the earlier lists only sums terms
//! of stage ≥ `s`; block maxes are computed by the very expression
//! scoring uses, absent terms count as `0.0`, and f32 addition is
//! monotone, so its score cannot exceed the staged bound. Strict `<`
//! leaves ties (which break by doc id) to exact scoring. Worst case:
//! several long lists of equal bound never cut off, so every posting is
//! visited once and each scored doc costs one seek per other list — the
//! same order of work as a document-at-a-time walk of the union.
//!
//! **Why the builder spills.** `Bm25SegBuilder` interns each term once per
//! run: a probe-only hash map gives the term a slot, and postings
//! accumulate in a `Vec` indexed by slot, so a token of a known term costs
//! a lookup, not an allocation. Past a posting budget it spills a run to a
//! scratch file — always at a document boundary, so one document's
//! postings never straddle runs — with the slots sorted by term bytes.
//! `finish` k-way merges the runs (term order from that sort, doc order
//! from run order) and streams blocks through the atomic writer. The map
//! is never iterated, so hash order reaches no byte, and the output is the
//! same for every budget. Peak memory is the budget, not the corpus.

use crate::atomic::AtomicFile;
use crate::blockcache::BlockCache;
use crate::error::StoreError;
use crate::varint::{
    crc32, get_count, get_uv, get_uv32, put_uv, read_verified, Crc32, MAX_VARINT_LEN,
};
use kglink_search::tokenize::{for_each_token, tokenize_unique};
use kglink_search::Bm25Params;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub(crate) const MAGIC: &[u8; 4] = b"KGBM";
pub(crate) const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: usize = 80;

/// Postings per block. 128 keeps blocks ≲ 1 KiB while making whole-block
/// skips worth real decode work.
pub const MAX_BLOCK_POSTINGS: usize = 128;

/// Default spill threshold: postings buffered in memory before a run goes
/// to disk (8 B each plus their lists' growth slack). The builder runs on
/// its own thread, whose malloc arena the caller never reuses, so the
/// budget adds to the process peak in full; every budget writes the same
/// bytes.
pub const DEFAULT_SPILL_POSTINGS: usize = 1_000_000;

/// File name of the BM25 segment inside a world directory.
pub const BM25_FILE: &str = "index.kgbm";

/// Corpus statistics produced by [`Bm25SegBuilder::finish`] — what the
/// manifest records.
pub use crate::manifest::Bm25Stats;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streaming builder for a `KGBM` segment. Documents must arrive in
/// ascending id order (multiple fields of one document are consecutive
/// calls with the same id, exactly like `InvertedIndex::add_document`).
#[derive(Debug)]
pub struct Bm25SegBuilder {
    path: PathBuf,
    run_dir: PathBuf,
    params: Bm25Params,
    spill_budget: usize,
    /// Term → slot in `cur`. Only ever probed, never iterated, so hash
    /// order cannot reach a byte of the segment.
    slots: HashMap<String, u32>,
    /// Per slot: the term and its `(doc, tf)` postings since the last
    /// spill, in first-seen order; `sorted_slots` gives term order.
    cur: Vec<(String, Vec<(u32, u32)>)>,
    cur_postings: usize,
    /// Reused per document: the analyzer's token buffer and the slot of
    /// every token, sorted to count term frequencies.
    token: String,
    doc_slots: Vec<u32>,
    runs: Vec<PathBuf>,
    doc_lens: Vec<u32>,
    last_doc: Option<u32>,
    n_docs: usize,
    total_len: u64,
}

impl Bm25SegBuilder {
    /// Start building the segment that will be committed at `path`.
    pub fn create(path: &Path, params: Bm25Params, spill_budget: usize) -> Self {
        Bm25SegBuilder {
            path: path.to_path_buf(),
            run_dir: path.with_extension("runs"),
            params,
            spill_budget: spill_budget.max(1),
            slots: HashMap::new(),
            cur: Vec::new(),
            cur_postings: 0,
            token: String::new(),
            doc_slots: Vec::new(),
            runs: Vec::new(),
            doc_lens: Vec::new(),
            last_doc: None,
            n_docs: 0,
            total_len: 0,
        }
    }

    /// Index one field of document `doc`. Ids must be non-decreasing.
    pub fn add_doc(&mut self, doc: u32, text: &str) -> Result<(), StoreError> {
        if let Some(last) = self.last_doc {
            if doc < last {
                return Err(StoreError::Corrupt(format!(
                    "documents must arrive in ascending id order (got {doc} after {last})"
                )));
            }
            // Spill only when crossing to a *new* document, so one
            // document's postings never straddle two runs.
            if doc > last && self.cur_postings >= self.spill_budget {
                self.spill()?;
            }
        }
        self.last_doc = Some(doc);
        // Map every token to its slot; a `String` is made only for a term
        // this run has not seen.
        let Self {
            slots,
            cur,
            token,
            doc_slots,
            ..
        } = self;
        doc_slots.clear();
        for_each_token(text, token, |term| {
            let slot = match slots.get(term) {
                Some(&slot) => slot,
                None => {
                    let slot = cur.len() as u32;
                    slots.insert(term.to_owned(), slot);
                    cur.push((term.to_owned(), Vec::new()));
                    slot
                }
            };
            doc_slots.push(slot);
        });
        let n_tokens = self.doc_slots.len();
        if n_tokens == 0 {
            return Ok(());
        }
        if self.doc_lens.len() <= doc as usize {
            self.doc_lens.resize(doc as usize + 1, 0);
        }
        if self.doc_lens[doc as usize] == 0 {
            self.n_docs += 1;
        }
        self.doc_lens[doc as usize] += n_tokens as u32;
        self.total_len += n_tokens as u64;
        // Equal slots are adjacent once sorted: each run is one term's tf.
        self.doc_slots.sort_unstable();
        for run in self.doc_slots.chunk_by(|a, b| a == b) {
            let count = run.len() as u32;
            let list = &mut self.cur[run[0] as usize].1;
            if let Some(last) = list.last_mut() {
                if last.0 == doc {
                    last.1 += count;
                    continue;
                }
            }
            list.push((doc, count));
            self.cur_postings += 1;
        }
        Ok(())
    }

    /// Slots in ascending term-byte order — the order runs and the
    /// segment's dictionary are written in.
    fn sorted_slots(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cur.len()).collect();
        order.sort_unstable_by(|&a, &b| self.cur[a].0.as_bytes().cmp(self.cur[b].0.as_bytes()));
        order
    }

    fn spill(&mut self) -> Result<(), StoreError> {
        if self.cur.is_empty() {
            return Ok(());
        }
        std::fs::create_dir_all(&self.run_dir)?;
        let run_path = self.run_dir.join(format!("run-{:04}.bin", self.runs.len()));
        #[expect(
            clippy::disallowed_methods,
            reason = "runs are transient scratch (deleted in finish/Drop), not store files: plain sequential writes, no framing, no fsync"
        )]
        let file = File::create(&run_path)?;
        let mut w = BufWriter::new(file);
        let mut buf = Vec::new();
        for slot in self.sorted_slots() {
            let (term, list) = &self.cur[slot];
            buf.clear();
            put_uv(&mut buf, term.len() as u64);
            buf.extend_from_slice(term.as_bytes());
            put_uv(&mut buf, list.len() as u64);
            for &(doc, tf) in list {
                put_uv(&mut buf, u64::from(doc));
                put_uv(&mut buf, u64::from(tf));
            }
            w.write_all(&buf)?;
        }
        w.flush()?;
        self.runs.push(run_path);
        self.slots.clear();
        self.cur.clear();
        self.cur_postings = 0;
        Ok(())
    }

    /// Merge, compress, and atomically commit the segment. Returns the
    /// corpus statistics for the manifest.
    pub fn finish(mut self) -> Result<Bm25Stats, StoreError> {
        let stats = Bm25Stats {
            n_docs: self.n_docs as u64,
            total_len: self.total_len,
            k1: self.params.k1,
            b: self.params.b,
        };
        if !self.runs.is_empty() {
            // Earlier spills mean the in-memory tail must join the merge.
            self.spill()?;
        }
        let mut file = AtomicFile::create(&self.path)?;
        file.write_all(&[0u8; HEADER_LEN])?;
        let mut sink = TermSink {
            file: &mut file,
            params: self.params,
            n_docs: self.n_docs,
            avg: avg_len(self.n_docs, self.total_len),
            doc_lens: &self.doc_lens,
            entries: Vec::new(),
            offsets: Vec::new(),
            prev_term: String::new(),
            block_buf: Vec::new(),
        };
        if self.runs.is_empty() {
            for slot in self.sorted_slots() {
                let (term, list) = &self.cur[slot];
                sink.emit(term, list)?;
            }
        } else {
            merge_runs(&self.runs, &mut sink)?;
        }
        let n_terms = sink.offsets.len() as u32;
        let postings_len = sink.file.position() - HEADER_LEN as u64;
        // Dictionary: offset table then entries, CRC'd as one blob.
        let mut dict = Vec::with_capacity(sink.offsets.len() * 4 + sink.entries.len());
        for off in &sink.offsets {
            dict.extend_from_slice(&off.to_le_bytes());
        }
        dict.extend_from_slice(&sink.entries);
        drop(sink);
        let dict_off = file.position();
        file.write_all(&dict)?;
        let doclen_off = file.position();
        let mut doclens = Vec::with_capacity(self.doc_lens.len() * 4);
        for &len in &self.doc_lens {
            doclens.extend_from_slice(&len.to_le_bytes());
        }
        file.write_all(&doclens)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&[0u8; 4]); // header_crc, patched below
        header.extend_from_slice(&n_terms.to_le_bytes());
        header.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes());
        header.extend_from_slice(&postings_len.to_le_bytes());
        header.extend_from_slice(&dict_off.to_le_bytes());
        header.extend_from_slice(&(dict.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(&dict).to_le_bytes());
        header.extend_from_slice(&doclen_off.to_le_bytes());
        header.extend_from_slice(&(doclens.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(&doclens).to_le_bytes());
        header.extend_from_slice(&self.params.k1.to_le_bytes());
        header.extend_from_slice(&self.params.b.to_le_bytes());
        debug_assert_eq!(header.len(), HEADER_LEN);
        let hcrc = crc32(&header[12..HEADER_LEN]);
        header[8..12].copy_from_slice(&hcrc.to_le_bytes());
        file.patch(0, &header)?;
        file.commit()?;
        self.cleanup_runs();
        Ok(stats)
    }

    fn cleanup_runs(&mut self) {
        if self.run_dir.exists() {
            let _ = std::fs::remove_dir_all(&self.run_dir);
        }
        self.runs.clear();
    }
}

impl Drop for Bm25SegBuilder {
    fn drop(&mut self) {
        self.cleanup_runs();
    }
}

fn avg_len(n_docs: usize, total_len: u64) -> f32 {
    // Exactly InvertedIndex::avg_doc_len() followed by the .max(1e-6) its
    // query paths apply — same f32 expression, same types.
    let avg = if n_docs == 0 {
        0.0
    } else {
        total_len as f32 / n_docs as f32
    };
    avg.max(1e-6)
}

/// Streams per-term posting blocks to the segment file and accumulates
/// dictionary entries.
struct TermSink<'a> {
    file: &'a mut AtomicFile,
    params: Bm25Params,
    n_docs: usize,
    avg: f32,
    doc_lens: &'a [u32],
    entries: Vec<u8>,
    offsets: Vec<u32>,
    prev_term: String,
    block_buf: Vec<u8>,
}

impl TermSink<'_> {
    fn emit(&mut self, term: &str, postings: &[(u32, u32)]) -> Result<(), StoreError> {
        if postings.is_empty() {
            return Ok(());
        }
        if !self.offsets.is_empty() && term.as_bytes() <= self.prev_term.as_bytes() {
            return Err(StoreError::Corrupt(format!(
                "terms must be emitted in ascending order ('{term}' after '{}')",
                self.prev_term
            )));
        }
        let df = postings.len();
        let idf = Bm25Params::idf(self.n_docs, df);
        let post_off = self.file.position() - HEADER_LEN as u64;
        let mut crc = Crc32::new();
        let mut post_len = 0u64;
        let mut n_blocks = 0u64;
        let mut prev_last = 0u32;
        for chunk in postings.chunks(MAX_BLOCK_POSTINGS) {
            // The block max is computed by the *same* f32 expression the
            // reader scores with — that equality is what makes skipping
            // against it rank-safe rather than heuristic.
            let mut max_score = f32::NEG_INFINITY;
            for &(doc, tf) in chunk {
                let dl = *self.doc_lens.get(doc as usize).ok_or_else(|| {
                    StoreError::Corrupt(format!("posting names doc {doc} outside the corpus"))
                })?;
                max_score =
                    max_score.max(self.params.term_score(idf, tf as f32, dl as f32, self.avg));
            }
            self.block_buf.clear();
            put_block(&mut self.block_buf, chunk, prev_last, max_score);
            crc.update(&self.block_buf);
            post_len += self.block_buf.len() as u64;
            let block = std::mem::take(&mut self.block_buf);
            self.file.write_all(&block)?;
            self.block_buf = block;
            n_blocks += 1;
            prev_last = chunk[chunk.len() - 1].0;
        }
        self.offsets.push(
            u32::try_from(self.entries.len()).map_err(|_| {
                StoreError::Corrupt("dictionary entries exceed u32::MAX bytes".into())
            })?,
        );
        put_uv(&mut self.entries, term.len() as u64);
        self.entries.extend_from_slice(term.as_bytes());
        put_uv(&mut self.entries, df as u64);
        self.entries.extend_from_slice(&post_off.to_le_bytes());
        self.entries.extend_from_slice(
            &u32::try_from(post_len)
                .map_err(|_| {
                    StoreError::Corrupt(format!("postings for '{term}' exceed u32::MAX bytes"))
                })?
                .to_le_bytes(),
        );
        self.entries.extend_from_slice(&crc.finish().to_le_bytes());
        put_uv(&mut self.entries, n_blocks);
        self.prev_term.clear();
        self.prev_term.push_str(term);
        Ok(())
    }
}

/// Append one posting block — header, then payload — for `chunk`, the
/// `(doc, tf)` postings after a block ending at doc `prev_last`.
fn put_block(buf: &mut Vec<u8>, chunk: &[(u32, u32)], prev_last: u32, max_score: f32) {
    let first = chunk[0].0;
    let last = chunk[chunk.len() - 1].0;
    put_uv(buf, chunk.len() as u64);
    put_uv(buf, u64::from(first - prev_last));
    put_uv(buf, u64::from(last - first));
    buf.extend_from_slice(&max_score.to_le_bytes());
    let mut payload = Vec::with_capacity(chunk.len() * 2);
    let mut prev = first;
    for &(doc, _) in &chunk[1..] {
        put_uv(&mut payload, u64::from(doc - prev));
        prev = doc;
    }
    for &(_, tf) in chunk {
        put_uv(&mut payload, u64::from(tf));
    }
    put_uv(buf, payload.len() as u64);
    buf.extend_from_slice(&payload);
}

/// K-way merge of term-sorted runs into the sink. Runs are indexed in
/// creation order; because spills happen at document boundaries and
/// documents arrive ascending, concatenating one term's lists in run order
/// preserves ascending doc order with no duplicates.
fn merge_runs(runs: &[PathBuf], sink: &mut TermSink<'_>) -> Result<(), StoreError> {
    struct RunHead {
        term: String,
        run: usize,
    }
    impl PartialEq for RunHead {
        fn eq(&self, other: &Self) -> bool {
            self.term == other.term && self.run == other.run
        }
    }
    impl Eq for RunHead {}
    impl PartialOrd for RunHead {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RunHead {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we pop the smallest term,
            // earliest run first.
            other
                .term
                .cmp(&self.term)
                .then_with(|| other.run.cmp(&self.run))
        }
    }

    let mut readers: Vec<BufReader<File>> = Vec::with_capacity(runs.len());
    for p in runs {
        readers.push(BufReader::new(File::open(p)?));
    }
    let mut heap: BinaryHeap<RunHead> = BinaryHeap::new();
    let mut pending: Vec<Option<Vec<(u32, u32)>>> = Vec::new();
    pending.resize_with(runs.len(), || None);
    for run in 0..readers.len() {
        if let Some((term, list)) = read_run_record(&mut readers[run])? {
            pending[run] = Some(list);
            heap.push(RunHead { term, run });
        }
    }
    /// Append run `run`'s pending list, then refill it from its reader.
    fn take(
        run: usize,
        readers: &mut [BufReader<File>],
        heap: &mut BinaryHeap<RunHead>,
        pending: &mut [Option<Vec<(u32, u32)>>],
        merged: &mut Vec<(u32, u32)>,
    ) -> Result<(), StoreError> {
        let list = pending[run]
            .take()
            .ok_or_else(|| StoreError::Corrupt("run record lost".into()))?;
        merged.extend_from_slice(&list);
        if let Some((t, l)) = read_run_record(&mut readers[run])? {
            pending[run] = Some(l);
            heap.push(RunHead { term: t, run });
        }
        Ok(())
    }

    let mut merged: Vec<(u32, u32)> = Vec::new();
    while let Some(head) = heap.pop() {
        merged.clear();
        let term = head.term;
        take(head.run, &mut readers, &mut heap, &mut pending, &mut merged)?;
        while heap.peek().is_some_and(|h| h.term == term) {
            #[expect(clippy::expect_used, reason = "peek just proved non-empty")]
            let next = heap.pop().expect("peeked entry");
            take(next.run, &mut readers, &mut heap, &mut pending, &mut merged)?;
        }
        sink.emit(&term, &merged)?;
    }
    Ok(())
}

/// A spilled run record: the term and its `(doc, tf)` postings.
type RunRecord = (String, Vec<(u32, u32)>);

/// Read one run record, or `None` at clean end-of-run.
fn read_run_record(r: &mut BufReader<File>) -> Result<Option<RunRecord>, StoreError> {
    let Some(term_len) = read_uv_opt(r)? else {
        return Ok(None);
    };
    if term_len > 1 << 20 {
        return Err(StoreError::Corrupt(format!("run term length {term_len}")));
    }
    let mut term = vec![0u8; term_len as usize];
    r.read_exact(&mut term)?;
    let term =
        String::from_utf8(term).map_err(|_| StoreError::Corrupt("run term is not UTF-8".into()))?;
    let count = read_uv(r)?;
    if count > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt(format!("run posting count {count}")));
    }
    let mut list = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let doc = read_uv(r)?;
        let tf = read_uv(r)?;
        list.push((
            u32::try_from(doc).map_err(|_| StoreError::Corrupt("run doc id".into()))?,
            u32::try_from(tf).map_err(|_| StoreError::Corrupt("run tf".into()))?,
        ));
    }
    Ok(Some((term, list)))
}

fn read_uv(r: &mut BufReader<File>) -> Result<u64, StoreError> {
    read_uv_opt(r)?.ok_or(StoreError::Truncated)
}

/// Varint from a reader; `None` only on EOF *before the first byte*.
fn read_uv_opt(r: &mut BufReader<File>) -> Result<Option<u64>, StoreError> {
    // A varint is at most MAX_VARINT_LEN bytes, so with that many buffered
    // it decodes in place; only near a buffer boundary go byte by byte.
    let buffered = r.buffer();
    if buffered.len() >= MAX_VARINT_LEN {
        let mut pos = 0;
        let v = get_uv(buffered, &mut pos)?;
        r.consume(pos);
        return Ok(Some(v));
    }
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 if first => return Ok(None),
            0 => return Err(StoreError::Truncated),
            _ => {}
        }
        first = false;
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
        if shift as usize > (MAX_VARINT_LEN - 1) * 7 {
            return Err(StoreError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Work counters for one query — proof that the staged bounds engage.
/// Every posting of every opened list is met once as its stage's own, so
/// `scored_docs + skipped_docs` is the summed `df` of the query's terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Docs scored in full and offered to the heap.
    pub scored_docs: u64,
    /// Postings never scored: in a skipped block, in a list cut off before
    /// its stage, or of a doc an earlier stage already handled.
    pub skipped_docs: u64,
    /// Blocks never decoded as their stage's own (skipped or cut off).
    pub skipped_blocks: u64,
}

#[derive(Debug, Clone)]
struct DictEntry {
    df: usize,
    post_off: u64,
    post_len: u32,
    post_crc: u32,
}

/// Read access to a sealed `KGBM` segment. The dictionary and document
/// lengths are resident (a few MB per 10M docs); posting bytes are read on
/// demand through a [`BlockCache`] keyed by `(0, term ordinal)`, each entry
/// carrying its block table.
#[derive(Debug)]
pub struct Bm25Segment {
    file: File,
    params: Bm25Params,
    postings_off: u64,
    n_terms: u32,
    /// `[u32 entry_off]*n_terms` portion of the dict blob.
    dict_offsets: Vec<u32>,
    /// Entries portion of the dict blob.
    dict_entries: Vec<u8>,
    doc_lens: Vec<u32>,
    n_docs: usize,
    avg: f32,
}

fn le_u32(bytes: &[u8], at: usize) -> Result<u32, StoreError> {
    bytes
        .get(at..at + 4)
        .ok_or(StoreError::Truncated)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn le_u64(bytes: &[u8], at: usize) -> Result<u64, StoreError> {
    bytes
        .get(at..at + 8)
        .ok_or(StoreError::Truncated)
        .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
}

impl Bm25Segment {
    /// Open and validate a segment: magic, version, header CRC, dictionary
    /// CRC, doc-length CRC. Posting bytes verify lazily per term.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact_at(&mut header, 0)?;
        if &header[0..4] != MAGIC {
            return Err(StoreError::BadMagic { expected: "KGBM" });
        }
        let version = le_u32(&header, 4)?;
        if version != VERSION {
            return Err(StoreError::WrongVersion {
                found: version,
                expected: VERSION,
            });
        }
        let header_crc = le_u32(&header, 8)?;
        let found = crc32(&header[12..HEADER_LEN]);
        if found != header_crc {
            return Err(StoreError::CrcMismatch {
                expected: header_crc,
                found,
            });
        }
        let n_terms = le_u32(&header, 12)?;
        let postings_off = le_u64(&header, 16)?;
        let postings_len = le_u64(&header, 24)?;
        let dict_off = le_u64(&header, 32)?;
        let dict_len = le_u64(&header, 40)?;
        let dict_crc = le_u32(&header, 48)?;
        let doclen_off = le_u64(&header, 52)?;
        let doclen_len = le_u64(&header, 60)?;
        let doclen_crc = le_u32(&header, 68)?;
        let k1 = f32::from_bits(le_u32(&header, 72)?);
        let b = f32::from_bits(le_u32(&header, 76)?);
        if !(k1.is_finite() && b.is_finite()) {
            return Err(StoreError::Corrupt("BM25 parameters must be finite".into()));
        }
        if postings_off != HEADER_LEN as u64 {
            return Err(StoreError::Corrupt(format!(
                "postings section at {postings_off}, expected {HEADER_LEN}"
            )));
        }
        let file_len = file.metadata()?.len();
        for (off, len) in [
            (postings_off, postings_len),
            (dict_off, dict_len),
            (doclen_off, doclen_len),
        ] {
            if off.checked_add(len).map(|e| e > file_len).unwrap_or(true) {
                return Err(StoreError::Truncated);
            }
        }
        if doclen_len % 4 != 0 {
            return Err(StoreError::Corrupt(format!(
                "doc-length section of {doclen_len} bytes is not u32-aligned"
            )));
        }
        let mut dict = read_verified(&file, dict_off, dict_len as usize, dict_crc)?;
        let offsets_len = n_terms as usize * 4;
        if dict.len() < offsets_len {
            return Err(StoreError::Corrupt(format!(
                "dict blob of {} bytes cannot hold {n_terms} offsets",
                dict.len()
            )));
        }
        let dict_entries = dict.split_off(offsets_len);
        let dict_offsets: Vec<u32> = dict
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let doclen_bytes = read_verified(&file, doclen_off, doclen_len as usize, doclen_crc)?;
        let doc_lens: Vec<u32> = doclen_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let n_docs = doc_lens.iter().filter(|&&l| l > 0).count();
        let total_len: u64 = doc_lens.iter().map(|&l| u64::from(l)).sum();
        Ok(Bm25Segment {
            file,
            params: Bm25Params { k1, b },
            postings_off,
            n_terms,
            dict_offsets,
            dict_entries,
            doc_lens,
            n_docs,
            avg: avg_len(n_docs, total_len),
        })
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.n_docs
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.n_terms as usize
    }

    /// Token count of `doc`, or `None` if it was never indexed.
    pub fn doc_len(&self, doc: u32) -> Option<u32> {
        match self.doc_lens.get(doc as usize) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// The BM25 parameters the segment was built with.
    pub fn params(&self) -> Bm25Params {
        self.params
    }

    /// Decode the dictionary entry at ordinal `i`, returning the term bytes
    /// and metadata.
    fn entry(&self, i: usize) -> Result<(&[u8], DictEntry), StoreError> {
        let start = *self
            .dict_offsets
            .get(i)
            .ok_or_else(|| StoreError::Corrupt(format!("term ordinal {i} out of range")))?
            as usize;
        let bytes = &self.dict_entries;
        let mut pos = start;
        let term_len = get_count(bytes, &mut pos, bytes.len())?;
        let end = pos
            .checked_add(term_len)
            .filter(|&e| e <= bytes.len())
            .ok_or(StoreError::Truncated)?;
        let term = &bytes[pos..end];
        pos = end;
        let df = get_count(bytes, &mut pos, u32::MAX as usize)?;
        let post_off = le_u64(bytes, pos)?;
        pos += 8;
        let post_len = le_u32(bytes, pos)?;
        pos += 4;
        let post_crc = le_u32(bytes, pos)?;
        if df == 0 {
            return Err(StoreError::Corrupt("dictionary entry with df = 0".into()));
        }
        Ok((
            term,
            DictEntry {
                df,
                post_off,
                post_len,
                post_crc,
            },
        ))
    }

    /// Binary-search the sorted dictionary for `term`.
    fn lookup(&self, term: &str) -> Result<Option<(usize, DictEntry)>, StoreError> {
        let needle = term.as_bytes();
        let (mut lo, mut hi) = (0usize, self.n_terms as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (probe, entry) = self.entry(mid)?;
            match probe.cmp(needle) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(Some((mid, entry))),
            }
        }
        Ok(None)
    }

    /// A term's full posting bytes with their block table appended (see
    /// [`List`]): read, CRC-verified and header-decoded once per cache
    /// residency. A load that fails either check caches nothing.
    fn postings(
        &self,
        ordinal: usize,
        entry: &DictEntry,
        cache: &BlockCache,
    ) -> Result<Arc<Vec<u8>>, StoreError> {
        cache.get_or_try_load((0, ordinal as u32), || {
            let off = self.postings_off + entry.post_off;
            let mut buf = read_verified(&self.file, off, entry.post_len as usize, entry.post_crc)?;
            append_block_table(&mut buf, entry.df)?;
            Ok(buf)
        })
    }

    /// Top-`k` documents for `query`, bit-identical to
    /// `InvertedIndex::search` on the same corpus.
    pub fn search(
        &self,
        query: &str,
        k: usize,
        cache: &BlockCache,
    ) -> Result<Vec<(u32, f32)>, StoreError> {
        self.search_with_stats(query, k, cache)
            .map(|(hits, _)| hits)
    }

    /// [`Bm25Segment::search`] plus the work counters.
    pub fn search_with_stats(
        &self,
        query: &str,
        k: usize,
        cache: &BlockCache,
    ) -> Result<(Vec<(u32, f32)>, QueryStats), StoreError> {
        let mut stats = QueryStats::default();
        let terms = tokenize_unique(query);
        if terms.is_empty() || k == 0 {
            return Ok((Vec::new(), stats));
        }
        // Lists in query-term order: scores and bounds are summed in this
        // order, matching the in-memory term loop.
        let mut lists: Vec<List> = Vec::with_capacity(terms.len());
        for term in &terms {
            if let Some((ordinal, entry)) = self.lookup(term)? {
                let bytes = self.postings(ordinal, &entry, cache)?;
                let idf = Bm25Params::idf(self.n_docs, entry.df);
                lists.push(List::open(bytes, idf, entry.df)?);
            }
        }
        // Stage s walks list order[s]: rarest first (stable, so ties keep
        // query position); stage_of inverts the permutation.
        let mut order: Vec<usize> = (0..lists.len()).collect();
        order.sort_by_key(|&j| lists[j].df);
        let mut stage_of = vec![0usize; lists.len()];
        for (s, &j) in order.iter().enumerate() {
            stage_of[j] = s;
        }
        let mut heap = BinaryHeap::with_capacity(k + 1);
        // Can no doc enter the top-k whose lists all have stage >= s and
        // whose posting in the stage's own list p scores at most `own`?
        // Unseen terms count as 0.0 and f32 addition is monotone, so the
        // sum — in scoring order — bounds every such doc's exact score;
        // strict `<` against the k-th best leaves ties (which break by doc
        // id) to exact scoring.
        type Heap = BinaryHeap<HeapEntry>;
        let hopeless = |heap: &Heap, lists: &[List], s: usize, p: usize, own: f32| {
            if heap.len() < k {
                return false;
            }
            let mut ub = 0.0f32;
            for (j, l) in lists.iter().enumerate().filter(|&(j, _)| stage_of[j] >= s) {
                ub += if j == p { own } else { l.ub }.max(0.0);
            }
            heap.peek().is_some_and(|kth| ub < kth.score)
        };
        for (s, &p) in order.iter().enumerate() {
            if hopeless(&heap, &lists, s, p, lists[p].ub) {
                // Nothing outside the finished stages can enter the top-k.
                for &j in &order[s..] {
                    stats.skipped_docs += lists[j].df as u64;
                    stats.skipped_blocks += lists[j].n_blocks as u64;
                }
                break;
            }
            for b in 0..lists[p].n_blocks {
                let head = lists[p].head(b);
                if hopeless(&heap, &lists, s, p, head.max) {
                    stats.skipped_blocks += 1;
                    stats.skipped_docs += head.count as u64;
                    continue;
                }
                lists[p].load(b)?;
                for i in 0..lists[p].docs.len() {
                    let (d, own_tf) = (lists[p].docs[i], lists[p].tfs[i]);
                    let len = *self.doc_lens.get(d as usize).ok_or_else(|| {
                        StoreError::Corrupt(format!("posting names doc {d} outside the corpus"))
                    })? as f32;
                    let mut score = 0.0f32;
                    let mut fresh = true;
                    for (j, l) in lists.iter_mut().enumerate() {
                        let tf = if j == p { Some(own_tf) } else { l.seek(d)? };
                        let Some(tf) = tf else { continue };
                        if stage_of[j] < s {
                            // Scored, or ruled out with its block, back then.
                            fresh = false;
                            break;
                        }
                        score += self.params.term_score(l.idf, tf as f32, len, self.avg);
                    }
                    if fresh {
                        stats.scored_docs += 1;
                        offer(&mut heap, k, d, score);
                    } else {
                        stats.skipped_docs += 1;
                    }
                }
            }
        }
        let mut hits: Vec<(u32, f32)> = heap.into_iter().map(|e| (e.doc, e.score)).collect();
        hits.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok((hits, stats))
    }
}

fn offer(heap: &mut BinaryHeap<HeapEntry>, k: usize, doc: u32, score: f32) {
    let entry = HeapEntry { doc, score };
    // A full heap pops its worst entry after the push, so an entry worse
    // than that one would be popped straight back: most scored docs are.
    if heap.len() >= k && heap.peek().is_some_and(|worst| entry > *worst) {
        return;
    }
    heap.push(entry);
    if heap.len() > k {
        heap.pop();
    }
}

/// Min-heap entry replicating `kglink_search::index`'s top-k semantics:
/// pop the smallest score first, and among equal scores the *larger* doc
/// id, so the k survivors are exactly the in-memory ones.
struct HeapEntry {
    doc: u32,
    score: f32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

/// One block of a posting list, as its header describes it.
#[derive(Debug)]
struct BlockHead {
    count: usize,
    first: u32,
    last: u32,
    max: f32,
    payload_start: usize,
    payload_len: usize,
}

/// Bytes of one block-table row: `count, first, last, max bits, payload
/// start, payload len`, each a `u32` LE, in [`BlockHead`] field order.
const ROW_LEN: usize = 24;
/// Row fields the seek reads on its own.
const FIRST: usize = 1;
const LAST: usize = 2;
/// After the rows: `u32 n_blocks`, then the bits of the list bound `ub`.
const TRAILER_LEN: usize = 8;

/// Field `i` of a block-table row.
fn row_field(row: &[u8; ROW_LEN], i: usize) -> u32 {
    u32::from_le_bytes([row[4 * i], row[4 * i + 1], row[4 * i + 2], row[4 * i + 3]])
}

/// Decode every block header of a term's verified posting bytes, with all
/// of [`read_head`]'s checks, and append the block table and trailer
/// [`List::open`] reads. One `reserve_exact` keeps `capacity() == len()`,
/// so the cache's charge is the allocation; a header that fails to decode
/// fails the load.
fn append_block_table(bytes: &mut Vec<u8>, df: usize) -> Result<(), StoreError> {
    let mut heads = Vec::with_capacity(df.div_ceil(MAX_BLOCK_POSTINGS).min(bytes.len()));
    let (mut pos, mut prev_last, mut ub) = (0usize, 0u32, f32::NEG_INFINITY);
    while pos < bytes.len() {
        let head = read_head(bytes, pos, prev_last)?;
        pos = head.payload_start + head.payload_len;
        prev_last = head.last;
        ub = ub.max(head.max);
        heads.push(head);
    }
    bytes.reserve_exact(heads.len() * ROW_LEN + TRAILER_LEN);
    // Counts are ≤ 128 and offsets lie inside a list whose length is a
    // `u32` in the dictionary, so every field fits.
    for h in &heads {
        let (start, len) = (h.payload_start as u32, h.payload_len as u32);
        for v in [h.count as u32, h.first, h.last, h.max.to_bits(), start, len] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(heads.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&ub.to_bits().to_le_bytes());
    Ok(())
}

/// One query term's posting list over its cached entry — the posting
/// bytes, then the block table [`append_block_table`] built when the entry
/// was loaded — and at most one decoded block. Opening reads the trailer:
/// no header is parsed per query.
///
/// Seeks move forward from a cursor. Within a stage the docs seeked into
/// a list ascend; a new stage restarts at low ids. `seek_at` is the last
/// seek's doc `d` and `B(d)`, the first block whose `last` is not below
/// it; `found_at` is a block and `I(d')`, the first index of its decoded
/// docs not below some `d' ≤ d`. Both `B` and `I` are `partition_point`s
/// over ascending keys, hence monotone in the doc: for a seek of `doc ≥
/// d`, `B(doc) ≥ B(d)` and, in the same block, `I(doc) ≥ I(d')`. So
/// checking block `B(d)` and then binary-searching only the blocks after
/// it, and searching a block only from the remembered index (galloping:
/// the same `partition_point`), gives exactly the whole-table
/// `partition_point` and, docs being strictly ascending in a valid list,
/// the whole-block `binary_search`. A seek of `doc < d`
/// voids both premises, so it forgets the cursor and searches from zero.
struct List {
    bytes: Arc<Vec<u8>>,
    /// Where the posting bytes end and the block table starts.
    table: usize,
    n_blocks: usize,
    idf: f32,
    df: usize,
    /// Largest block max: no posting of this list scores higher.
    ub: f32,
    /// Index of the block decoded into `docs`/`tfs`.
    loaded: Option<usize>,
    docs: Vec<u32>,
    tfs: Vec<u32>,
    /// The last seek: its doc and the first block whose `last` is ≥ it.
    seek_at: (u32, usize),
    /// The last in-block search: its block and the index it stopped at.
    found_at: (usize, usize),
}

impl List {
    /// Open a cached posting entry; payloads stay undecoded until a stage
    /// walks them or a seek lands in them.
    fn open(bytes: Arc<Vec<u8>>, idf: f32, df: usize) -> Result<Self, StoreError> {
        let trailer = bytes
            .len()
            .checked_sub(TRAILER_LEN)
            .ok_or(StoreError::Truncated)?;
        let n_blocks = le_u32(&bytes, trailer)? as usize;
        let ub = f32::from_bits(le_u32(&bytes, trailer + 4)?);
        let table = trailer
            .checked_sub(n_blocks * ROW_LEN)
            .ok_or_else(|| StoreError::Corrupt("block table overruns its list".into()))?;
        Ok(List {
            bytes,
            table,
            n_blocks,
            idf,
            df,
            ub,
            loaded: None,
            docs: Vec::new(),
            tfs: Vec::new(),
            seek_at: (0, 0),
            found_at: (0, 0),
        })
    }

    /// The block table, one row per block.
    fn rows(&self) -> &[[u8; ROW_LEN]] {
        self.bytes[self.table..self.table + self.n_blocks * ROW_LEN]
            .as_chunks()
            .0
    }

    /// Block `b`'s header, as its table row holds it.
    fn head(&self, b: usize) -> BlockHead {
        let row = &self.rows()[b];
        BlockHead {
            count: row_field(row, 0) as usize,
            first: row_field(row, FIRST),
            last: row_field(row, LAST),
            max: f32::from_bits(row_field(row, 3)),
            payload_start: row_field(row, 4) as usize,
            payload_len: row_field(row, 5) as usize,
        }
    }

    /// Term frequency of `doc` in this list, decoding at most the one
    /// block whose id range covers it.
    fn seek(&mut self, doc: u32) -> Result<Option<u32>, StoreError> {
        let (at_doc, mut b) = self.seek_at;
        if doc < at_doc {
            (b, self.found_at) = (0, (0, 0));
        }
        let rows = self.rows();
        if rows.get(b).is_some_and(|r| row_field(r, LAST) < doc) {
            b += 1 + rows[b + 1..].partition_point(|r| row_field(r, LAST) < doc);
        }
        let uncovered = rows.get(b).is_none_or(|r| doc < row_field(r, FIRST));
        self.seek_at = (doc, b);
        if uncovered {
            return Ok(None);
        }
        self.load(b)?;
        let from = if self.found_at.0 == b {
            self.found_at.1
        } else {
            0
        };
        let i = from + gallop(&self.docs[from..], doc);
        self.found_at = (b, i);
        Ok((self.docs.get(i) == Some(&doc)).then(|| self.tfs[i]))
    }

    /// Decode block `b`'s payload, unless it is the one already held.
    fn load(&mut self, b: usize) -> Result<(), StoreError> {
        if self.loaded == Some(b) {
            return Ok(());
        }
        self.loaded = None;
        let head = self.head(b);
        let end = head.payload_start + head.payload_len;
        let bytes = &self.bytes[..self.table];
        let mut p = head.payload_start;
        self.docs.clear();
        self.tfs.clear();
        self.docs.reserve(head.count);
        self.tfs.reserve(head.count);
        self.docs.push(head.first);
        let mut prev = head.first;
        for _ in 1..head.count {
            let gap = get_uv32(bytes, &mut p)?;
            prev = prev
                .checked_add(gap)
                .ok_or_else(|| StoreError::Corrupt("doc id overflows u32".into()))?;
            self.docs.push(prev);
        }
        if prev != head.last {
            return Err(StoreError::Corrupt(format!(
                "block ends at doc {prev}, header says {}",
                head.last
            )));
        }
        for _ in 0..head.count {
            self.tfs.push(get_uv32(bytes, &mut p)?);
        }
        if p != end {
            return Err(StoreError::Corrupt(format!(
                "block payload has {} undecoded bytes",
                end as i64 - p as i64
            )));
        }
        self.loaded = Some(b);
        Ok(())
    }
}

/// `docs.partition_point(|&d| d < doc)` for ascending `docs`, galloping
/// from the front: a seek's doc is usually at or just past the cursor, so
/// this takes a comparison or two where a search of the block takes seven.
fn gallop(docs: &[u32], doc: u32) -> usize {
    // Every doc in `docs[..lo]` is below `doc`.
    let (mut lo, mut step) = (0, 1);
    while lo + step <= docs.len() && docs[lo + step - 1] < doc {
        lo += step;
        step *= 2;
    }
    lo + docs[lo..(lo + step - 1).min(docs.len())].partition_point(|&d| d < doc)
}

/// Decode the block header at `p` without touching its payload.
fn read_head(bytes: &[u8], mut p: usize, prev_last: u32) -> Result<BlockHead, StoreError> {
    let count = get_count(bytes, &mut p, MAX_BLOCK_POSTINGS)?;
    if count == 0 {
        return Err(StoreError::Corrupt("empty posting block".into()));
    }
    let delta = get_uv32(bytes, &mut p)?;
    let span = get_uv32(bytes, &mut p)?;
    let max_bytes = bytes.get(p..p + 4).ok_or(StoreError::Truncated)?;
    let max = f32::from_le_bytes([max_bytes[0], max_bytes[1], max_bytes[2], max_bytes[3]]);
    p += 4;
    let remaining = bytes.len().saturating_sub(p);
    let payload_len = get_count(bytes, &mut p, remaining)?;
    let first = prev_last
        .checked_add(delta)
        .ok_or_else(|| StoreError::Corrupt("doc id overflows u32".into()))?;
    let last = first
        .checked_add(span)
        .ok_or_else(|| StoreError::Corrupt("doc id overflows u32".into()))?;
    Ok(BlockHead {
        count,
        first,
        last,
        max,
        payload_start: p,
        payload_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_search::InvertedIndex;

    /// A fresh directory per call: tests run on parallel threads and
    /// several build the same corpus with the same spill budget.
    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "kglink-store-bm25-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Corpus of (doc, field text) pairs, doc-ascending.
    fn corpus() -> Vec<(u32, String)> {
        let words = ["peter", "steele", "rust", "album", "band", "city"];
        let mut docs = Vec::new();
        for i in 0u32..400 {
            let a = words[(i % 6) as usize];
            let b = words[((i / 6) % 6) as usize];
            docs.push((i, format!("{a} {b} item{i}")));
            if i % 3 == 0 {
                docs.push((i, format!("alias {a}")));
            }
        }
        docs
    }

    fn build_both(docs: &[(u32, String)], spill: usize) -> (InvertedIndex, Bm25Segment, PathBuf) {
        let mut idx = InvertedIndex::new(Bm25Params::default());
        for (d, t) in docs {
            idx.add_document(*d, t);
        }
        idx.finish();
        let dir = tmpdir(&format!("build-{spill}"));
        let path = dir.join(BM25_FILE);
        let mut b = Bm25SegBuilder::create(&path, Bm25Params::default(), spill);
        for (d, t) in docs {
            b.add_doc(*d, t).unwrap();
        }
        b.finish().unwrap();
        (idx, Bm25Segment::open(&path).unwrap(), dir)
    }

    /// Disk hits equal memory hits in `(doc, score bits)`, and every
    /// posting of every opened list is accounted for exactly once.
    fn assert_same_hits(
        idx: &InvertedIndex,
        seg: &Bm25Segment,
        cache: &BlockCache,
        query: &str,
        k: usize,
    ) -> QueryStats {
        let mem: Vec<(u32, u32)> = idx
            .search(query, k)
            .iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect();
        let (disk, stats) = seg.search_with_stats(query, k, cache).unwrap();
        let disk: Vec<(u32, u32)> = disk.iter().map(|&(d, s)| (d, s.to_bits())).collect();
        assert_eq!(mem, disk, "{query:?} k={k}");
        let df: usize = tokenize_unique(query).iter().map(|t| idx.doc_freq(t)).sum();
        assert_eq!(
            stats.scored_docs + stats.skipped_docs,
            df as u64,
            "{query:?} k={k}: {stats:?}"
        );
        stats
    }

    #[test]
    fn disk_search_is_bit_identical_to_memory() {
        let docs = corpus();
        let (idx, seg, dir) = build_both(&docs, usize::MAX);
        let cache = BlockCache::new(1 << 20, 2);
        for query in [
            "peter steele",
            "rust",
            "album band city",
            "item7",
            "zzz",
            "",
        ] {
            for k in [1, 3, 10, 50] {
                let mem = idx.search(query, k);
                let disk = seg.search(query, k, &cache).unwrap();
                assert_eq!(mem.len(), disk.len(), "{query} k={k}");
                for (m, d) in mem.iter().zip(&disk) {
                    assert_eq!(m.doc, d.0, "{query} k={k}");
                    assert_eq!(m.score.to_bits(), d.1.to_bits(), "{query} k={k}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilling_builder_produces_the_same_segment_results() {
        let docs = corpus();
        let (_, seg_nospill, dir1) = build_both(&docs, usize::MAX);
        // A 50-posting budget forces many runs through the merge path.
        let (_, seg_spill, dir2) = build_both(&docs, 50);
        let cache = BlockCache::new(1 << 20, 2);
        assert_eq!(seg_nospill.term_count(), seg_spill.term_count());
        assert_eq!(seg_nospill.doc_count(), seg_spill.doc_count());
        for query in ["peter steele", "rust album", "item11 city"] {
            let a = seg_nospill.search(query, 10, &cache).unwrap();
            let b = seg_spill.search(query, 10, &cache).unwrap();
            assert_eq!(a, b, "{query}");
        }
        // No run scratch left behind.
        assert!(!dir2.join("index.runs").exists());
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn spill_budgets_write_byte_identical_segments() {
        // Non-ASCII fields too, so both analyzer paths feed the table.
        let mut docs = corpus();
        docs.push((400, "Österreich İstanbul straße".into()));
        docs.push((400, "ǅemal ÖSTERREICH 4x4".into()));
        docs.push((401, "Straße Peter-İnan".into()));
        let segment_bytes = |spill: usize| {
            let (_, _, dir) = build_both(&docs, spill);
            let bytes = std::fs::read(dir.join(BM25_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        };
        // Budget 1 spills a run at every document boundary.
        let whole = segment_bytes(usize::MAX);
        assert!(whole == segment_bytes(1), "budget 1 moved a byte");
        assert!(whole == segment_bytes(50), "budget 50 moved a byte");
    }

    #[test]
    fn block_max_skipping_engages_and_stays_exact() {
        // One common term over many docs of increasing length: scores fall
        // with id, so later blocks cannot beat an established top-3.
        let mut docs = Vec::new();
        for i in 0u32..800 {
            let pad: String = (0..(i as usize / 4 + 1))
                .map(|j| format!(" w{j}"))
                .collect();
            docs.push((i, format!("common{pad}")));
        }
        let (idx, seg, dir) = build_both(&docs, usize::MAX);
        let cache = BlockCache::new(1 << 20, 2);
        let (hits, stats) = seg.search_with_stats("common", 3, &cache).unwrap();
        let mem = idx.search("common", 3);
        assert_eq!(hits.len(), mem.len());
        for (m, d) in mem.iter().zip(&hits) {
            assert_eq!((m.doc, m.score.to_bits()), (d.0, d.1.to_bits()));
        }
        assert!(stats.skipped_docs > 0, "skipping never engaged: {stats:?}");
        assert!(
            stats.scored_docs + stats.skipped_docs == 800,
            "every posting accounted for: {stats:?}"
        );
        // The same accounting over several lists: each posting is met once
        // as its stage's own, whether scored, skipped or cut off.
        for query in [
            "common w0",
            "w199 common",
            "w150 w40 common w199",
            "w7 nosuch w3",
        ] {
            for k in [1, 3, 10, 801] {
                assert_same_hits(&idx, &seg, &cache, query, k);
            }
        }
        // Four long docs hold `w199`; once they are scored nothing in
        // `common` alone can reach them, so that list is never walked.
        let stats = assert_same_hits(&idx, &seg, &cache, "w199 common", 3);
        assert_eq!(
            (stats.scored_docs, stats.skipped_docs, stats.skipped_blocks),
            (4, 800, 7)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_classes_fail_typed() {
        let docs = corpus();
        let (_, _, dir) = build_both(&docs, usize::MAX);
        let path = dir.join(BM25_FILE);
        let orig = std::fs::read(&path).unwrap();

        let mut bad = orig.clone();
        bad[0] = b'x';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Bm25Segment::open(&path),
            Err(StoreError::BadMagic { expected: "KGBM" })
        ));

        let mut bad = orig.clone();
        bad[4] = 7;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Bm25Segment::open(&path),
            Err(StoreError::WrongVersion {
                found: 7,
                expected: VERSION
            })
        ));

        let mut bad = orig.clone();
        bad[20] ^= 1; // inside the CRC'd header region
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Bm25Segment::open(&path),
            Err(StoreError::CrcMismatch { .. })
        ));

        std::fs::write(&path, &orig[..HEADER_LEN + 3]).unwrap();
        assert!(matches!(
            Bm25Segment::open(&path),
            Err(StoreError::Truncated)
        ));

        // A bit flip in the postings section passes open (lazy) but fails
        // the term's CRC at query time.
        let mut bad = orig.clone();
        bad[HEADER_LEN + 2] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        let seg = Bm25Segment::open(&path).unwrap();
        let cache = BlockCache::new(1 << 20, 1);
        let mut saw_crc_error = false;
        for q in ["peter", "steele", "rust", "album", "band", "city"] {
            if matches!(
                seg.search(q, 5, &cache),
                Err(StoreError::CrcMismatch { .. })
            ) {
                saw_crc_error = true;
            }
        }
        assert!(saw_crc_error, "flipped posting byte never surfaced");
        // The damaged list fails the whole query, wherever its term stands.
        for q in [
            "peter steele rust album band city",
            "item7 city band album rust steele peter",
        ] {
            assert!(
                matches!(
                    seg.search(q, 5, &cache),
                    Err(StoreError::CrcMismatch { .. })
                ),
                "{q}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-encode block `b` of a term's posting bytes with another `count`
    /// and `span`, resizing the payload so the block keeps its length.
    fn rewrite_head(posts: &mut [u8], b: usize, count: u64, span: u64) {
        let (mut pos, mut prev_last) = (0, 0);
        for _ in 0..b {
            let h = read_head(posts, pos, prev_last).unwrap();
            (pos, prev_last) = (h.payload_start + h.payload_len, h.last);
        }
        let h = read_head(posts, pos, prev_last).unwrap();
        let end = h.payload_start + h.payload_len;
        let mut head = Vec::new();
        put_uv(&mut head, count);
        put_uv(&mut head, u64::from(h.first - prev_last));
        put_uv(&mut head, span);
        head.extend_from_slice(&h.max.to_le_bytes());
        // A full block's payload is 255 bytes give or take the few moved
        // here: its length is a two-byte varint before and after.
        let payload_len = end - pos - head.len() - 2;
        put_uv(&mut head, payload_len as u64);
        assert_eq!(pos + head.len() + payload_len, end);
        posts[pos..pos + head.len()].copy_from_slice(&head);
    }

    /// Apply `edit` to `term`'s posting bytes and recompute every CRC above
    /// them (term, dictionary, header): only structural checks are left to
    /// catch the damage.
    fn reseal(path: &Path, term: &str, edit: impl FnOnce(&mut [u8])) {
        let seg = Bm25Segment::open(path).unwrap();
        let (ordinal, e) = seg.lookup(term).unwrap().unwrap();
        let mut file = std::fs::read(path).unwrap();
        let at = HEADER_LEN + e.post_off as usize;
        let posts = &mut file[at..at + e.post_len as usize];
        edit(posts);
        let post_crc = crc32(posts);
        // entry: varint term_len, term, varint df, u64 off, u32 len, u32 crc
        let mut prefix = Vec::new();
        put_uv(&mut prefix, term.len() as u64);
        put_uv(&mut prefix, e.df as u64);
        let dict_off = le_u64(&file, 32).unwrap() as usize;
        let dict_len = le_u64(&file, 40).unwrap() as usize;
        let crc_at = dict_off
            + seg.n_terms as usize * 4
            + seg.dict_offsets[ordinal] as usize
            + prefix.len()
            + term.len()
            + 12;
        file[crc_at..crc_at + 4].copy_from_slice(&post_crc.to_le_bytes());
        let dict_crc = crc32(&file[dict_off..dict_off + dict_len]);
        file[48..52].copy_from_slice(&dict_crc.to_le_bytes());
        let header_crc = crc32(&file[12..HEADER_LEN]);
        file[8..12].copy_from_slice(&header_crc.to_le_bytes());
        std::fs::write(path, &file).unwrap();
    }

    #[test]
    fn bad_block_headers_behind_valid_crcs_fail_corrupt() {
        // `common` spans five blocks; the four `rare` docs sit in its block
        // 2, so "rare common" scores them and cuts `common` off: block 2 is
        // only ever seeked into, never walked.
        let docs: Vec<(u32, String)> = (0u32..600)
            .map(|i| {
                let rare = if (300..304).contains(&i) { " rare" } else { "" };
                (i, format!("common filler{}{rare}", i % 7))
            })
            .collect();
        let (idx, seg, dir) = build_both(&docs, usize::MAX);
        let path = dir.join(BM25_FILE);
        let orig = std::fs::read(&path).unwrap();
        let cache = BlockCache::new(1 << 20, 1);
        let stats = assert_same_hits(&idx, &seg, &cache, "rare common", 3);
        assert_eq!((stats.scored_docs, stats.skipped_blocks), (4, 5));
        // (count, span) for block 2, whose true values are (128, 127).
        for (what, count, span) in [
            ("count 0", 0, 127),
            ("count 129", 129, 127),
            ("first + span overflows u32", 128, u64::from(u32::MAX)),
            ("span disagrees with the payload", 128, 128),
        ] {
            reseal(&path, "common", |posts| rewrite_head(posts, 2, count, span));
            let seg = Bm25Segment::open(&path).expect("every CRC was recomputed");
            for query in ["common", "rare common", "common rare filler3"] {
                let cache = BlockCache::new(1 << 20, 1);
                assert!(
                    matches!(seg.search(query, 3, &cache), Err(StoreError::Corrupt(_))),
                    "{what}: {query:?} gave {:?}",
                    seg.search(query, 3, &cache)
                );
            }
            // The other lists are untouched and still answer.
            assert_same_hits(&idx, &seg, &cache, "rare filler3", 3);
            std::fs::write(&path, &orig).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_header_failing_behind_a_valid_crc_fails_every_load_and_caches_nothing() {
        let docs: Vec<(u32, String)> = (0u32..600)
            .map(|i| {
                let rare = if (300..304).contains(&i) { " rare" } else { "" };
                (i, format!("common filler{}{rare}", i % 7))
            })
            .collect();
        let (_, _, dir) = build_both(&docs, usize::MAX);
        let path = dir.join(BM25_FILE);
        reseal(&path, "common", |posts| rewrite_head(posts, 2, 129, 127));
        let seg = Bm25Segment::open(&path).unwrap();
        let cache = BlockCache::new(1 << 20, 1);
        // The undamaged lists are resident; only `common` loads from here.
        seg.search("rare filler3", 3, &cache).unwrap();
        let before = cache.stats();
        for (n, query) in (1u64..).zip(["common", "rare common", "common rare filler3"]) {
            let got = seg.search(query, 3, &cache);
            assert!(
                matches!(got, Err(StoreError::Corrupt(_))),
                "{query:?} gave {got:?}"
            );
            let s = cache.stats();
            assert_eq!(
                s.misses,
                before.misses + n,
                "{query:?}: the load runs again"
            );
            assert_eq!(
                s.resident_bytes, before.resident_bytes,
                "{query:?}: nothing cached"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_loaded_list_is_charged_exactly_its_allocation() {
        let (_, seg, dir) = build_both(&corpus(), usize::MAX);
        let cache = BlockCache::new(1 << 20, 1);
        let mut charged = 0;
        for term in ["peter", "alias", "item7", "album"] {
            let (ordinal, entry) = seg.lookup(term).unwrap().unwrap();
            let bytes = seg.postings(ordinal, &entry, &cache).unwrap();
            assert_eq!(bytes.capacity(), bytes.len(), "{term}");
            // The posting bytes, a 24-byte row a block, the trailer.
            let rows = entry.df.div_ceil(MAX_BLOCK_POSTINGS) * ROW_LEN;
            assert_eq!(
                bytes.len(),
                entry.post_len as usize + rows + TRAILER_LEN,
                "{term}"
            );
            charged += crate::blockcache::ENTRY_OVERHEAD_BYTES + bytes.len();
        }
        assert_eq!(cache.stats().resident_bytes, charged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_seeks_equal_whole_table_searches() {
        let mut state = 0u64;
        let mut rnd = move |n: u64| {
            state += 1;
            mix(state) % n
        };
        for case in 0..300 {
            // A quarter of the lists fit one or two blocks.
            let len = 1 + rnd(if case % 4 == 0 { 200 } else { 5_000 }) as usize;
            // Ascending docs, some adjacent, with the odd long jump: gaps
            // inside blocks and between them.
            let mut postings = Vec::with_capacity(len);
            let mut doc = rnd(50) as u32;
            for _ in 0..len {
                postings.push((doc, 1 + rnd(4) as u32));
                doc += 1 + if rnd(40) == 0 { rnd(5_000) } else { rnd(3) } as u32;
            }
            let blocks: Vec<&[(u32, u32)]> = postings.chunks(MAX_BLOCK_POSTINGS).collect();
            let mut bytes = Vec::new();
            let mut prev_last = 0;
            for block in &blocks {
                put_block(&mut bytes, block, prev_last, 1.0);
                prev_last = block[block.len() - 1].0;
            }
            append_block_table(&mut bytes, len).unwrap();
            let mut list = List::open(Arc::new(bytes), 1.0, len).unwrap();
            // What a seek answered before it had a cursor.
            let reference = |doc: u32| {
                let b = blocks.partition_point(|c| c[c.len() - 1].0 < doc);
                let c = blocks.get(b).filter(|c| c[0].0 <= doc)?;
                c.binary_search_by_key(&doc, |&(d, _)| d)
                    .ok()
                    .map(|i| c[i].1)
            };
            let (first, last) = (postings[0].0, postings[len - 1].0);
            let mut target = 0u32;
            for step in 0..600 {
                target = match rnd(12) {
                    // Ascending runs, repeats among them.
                    0..=4 => target.saturating_add(rnd(40) as u32),
                    5 => target,
                    6 => target.saturating_sub(rnd(3_000) as u32),
                    7 => postings[rnd(len as u64) as usize].0,
                    8 => rnd(u64::from(first) + 1) as u32,
                    9 => [last + 1 + rnd(100) as u32, u32::MAX][rnd(2) as usize],
                    // Just past a block's last doc: a gap when the next
                    // block does not start there.
                    _ => blocks[rnd(blocks.len() as u64) as usize].last().unwrap().0 + 1,
                };
                assert_eq!(
                    list.seek(target).unwrap(),
                    reference(target),
                    "case {case}, step {step}, doc {target}"
                );
            }
        }
    }

    fn mix(v: u64) -> u64 {
        let z = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The label shape of `kglink_datagen::generate_big_world` (which
    /// depends on this crate, so it is restated): `first second tag` with
    /// 576 consecutive ids per tag, a quarter of the docs with an
    /// `initial second` alias, and sixteen `category b t` type labels
    /// closing each block of 10 000, whose numbers collide with tags.
    fn name_label(id: u32) -> (String, Option<String>) {
        if id % 10_000 >= 9_984 {
            return (
                format!("category {} {}", id / 10_000, id % 10_000 - 9_984),
                None,
            );
        }
        let h = mix(u64::from(id));
        // 24 first and 24 second names, each with its own initial.
        let first = format!("{}ina", (b'a' + (h % 24) as u8) as char);
        let second = format!("{}berg", (b'a' + ((h >> 8) % 24) as u8) as char);
        let alias = (h & 0x3000 == 0).then(|| format!("{} {second}", &first[..1]));
        (format!("{first} {second} {}", id / 576), alias)
    }

    #[test]
    fn name_corpus_queries_are_exact_and_score_only_the_rarest_list() {
        let mut docs = Vec::new();
        for id in 0u32..30_000 {
            let (label, alias) = name_label(id);
            docs.push((id, label));
            docs.extend(alias.map(|a| (id, a)));
        }
        let (idx, seg, dir) = build_both(&docs, usize::MAX);
        let cache = BlockCache::new(8 << 20, 2);
        // Every 499th id, plus one type label per block.
        let sampled = (0u32..30_000).step_by(499).chain([9_990, 19_999, 29_984]);
        for id in sampled {
            let (label, _) = name_label(id);
            let t: Vec<&str> = label.split(' ').collect();
            let (first, second, tag) = (t[0], t[1], t[2]);
            let mentions = [
                // The five `cold_noisy` shapes of the benchmark…
                format!("{}q {second} {tag}", &first[1..]),
                format!("{tag} {second} {first} jr"),
                format!("{first} {}x {tag}", &second[1..]),
                format!("{} {second} {tag}", &first[..1]),
                format!("zq{id} xv{id} {tag}"),
                // …and mentions that lost their tag: two long lists of
                // nearly equal bound, the traversal's worst case.
                format!("{first} {second}"),
                format!("{} {second}", &first[..1]),
            ];
            for k in [1, 3, 10, 60] {
                assert_same_hits(&idx, &seg, &cache, &label, k);
                for mention in &mentions {
                    assert_same_hits(&idx, &seg, &cache, mention, k);
                }
            }
            // The count gate: an exact label is decided inside its rarest
            // list. Scoring more means the traversal has degraded into a
            // walk of the union.
            let rarest = t.iter().map(|term| idx.doc_freq(term)).min().unwrap();
            let stats = assert_same_hits(&idx, &seg, &cache, &label, 10);
            // A type label may walk one block more: "category 0 0" holds
            // its number twice, and no bound rules out that block's max.
            let slack = if first == "category" {
                MAX_BLOCK_POSTINGS
            } else {
                0
            };
            assert!(
                stats.scored_docs <= (rarest + slack) as u64,
                "{label:?}: {stats:?} against a rarest list of {rarest}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_docs_and_terms_are_rejected() {
        let dir = tmpdir("order");
        let mut b = Bm25SegBuilder::create(&dir.join(BM25_FILE), Bm25Params::default(), 10);
        b.add_doc(5, "alpha").unwrap();
        assert!(matches!(b.add_doc(4, "beta"), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
