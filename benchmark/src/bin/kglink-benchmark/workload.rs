//! The four workloads and their inputs.
//!
//! Everything here is a pure function of `--seed` and the world on disk:
//! the same seed gives byte-identical tables and due times. The program
//! under test receives only the generated tables.
//!
//! Why these four (see README.md for the long form):
//!
//! * `cold_exact` — every cell is a distinct exact entity label, so the
//!   retrieval LRU cannot help and BM25 over the disk index does almost
//!   all the work. The single-request number.
//! * `cold_noisy` — same shape, but no cell is an exact label (typos,
//!   reordered tokens, initials, out-of-KG strings). A staged lookup that
//!   wins `cold_exact` by probing for exact hits pays for its misses here.
//! * `hot_mixed` — wide tables whose text cells repeat a small pre-warmed
//!   pool: retrieval is bypassed, the work is graph reads, serialisation
//!   and the model, on every core.
//! * `open_mixed` — a Poisson arrival stream blending the three table
//!   kinds at a fixed rate, where queueing behind cold tables shows.

use crate::stats::{splitmix, unit};
use kglink_datagen::BigWorldConfig;
use kglink_kg::EntityId;
use kglink_search::normalize_mention;
use kglink_store::DiskGraph;
use kglink_table::{CellValue, LabelId, Table, TableId};
use std::collections::HashSet;

/// Distinct mentions the hot text cells are drawn from. Half the
/// retrieval LRU's 4096 entries, so the pre-warmed pool is never evicted.
const HOT_POOL: usize = 2048;
/// Hot tables materialised per run; closed-loop clients cycle through
/// them (their mentions repeat by design, so reuse changes nothing).
const HOT_TABLES: usize = 512;
/// Cold tables annotated (and discarded) before a cold window opens.
const COLD_WARMUP_TABLES: usize = 8;
/// Rows per single-column warm-up table that pre-loads the hot pool.
const POOL_WARMUP_ROWS: usize = 64;
/// Fixed arrival rate of `open_mixed`, tables per second: one third of
/// the blend's measured two-worker capacity on the baseline machine
/// (`serve.cols_per_s_1c × serve.scaling_x` of `open_mixed`). Frozen: a
/// later change moves the latency at this rate, not the rate.
pub const OPEN_RATE_PER_S: f64 = 36.0;
const COLD_COLS: usize = 3;
const COLD_ROWS: usize = 8;
const HOT_TEXT_COLS: usize = 4;
const HOT_NUMERIC_COLS: usize = 5;
const HOT_ROWS: usize = 12;

// Independent hash streams under one seed.
const STREAM_IDS: u64 = 0x1d5;
const STREAM_NOISE: u64 = 0x2015e;
const STREAM_HOT: u64 = 0x407;
const STREAM_KIND: u64 = 0x31ad;
const STREAM_DUE: u64 = 0xd0e;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdExact,
    ColdNoisy,
    HotMixed,
    OpenMixed,
}

/// How requests are offered to the service.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Each client sends its next table when the previous one returned.
    Closed { clients: usize },
    /// Tables are sent at their due times whatever the service is doing.
    Open,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdExact,
        Workload::ColdNoisy,
        Workload::HotMixed,
        Workload::OpenMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExact => "cold_exact",
            Workload::ColdNoisy => "cold_noisy",
            Workload::HotMixed => "hot_mixed",
            Workload::OpenMixed => "open_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The loop of the timed window. `nproc` clients never exceed the
    /// machine's parallelism, so the generator is not itself the load.
    pub fn timed_loop(self, nproc: usize) -> Loop {
        match self {
            Workload::ColdExact | Workload::ColdNoisy => Loop::Closed { clients: 1 },
            Workload::HotMixed => Loop::Closed { clients: nproc },
            Workload::OpenMixed => Loop::Open,
        }
    }

    /// Latency limit behind `serve.slo_met_share`, milliseconds.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::HotMixed => 25.0,
            _ => 100.0,
        }
    }

    /// Whether requests are sent on a schedule instead of by waiting clients.
    pub fn open(self) -> bool {
        self == Workload::OpenMixed
    }

    /// Whether the workload's tables may be offered more than once.
    pub fn reusable(self) -> bool {
        self == Workload::HotMixed
    }
}

/// Everything a workload offers the service, materialised before warm-up.
pub struct Inputs {
    /// The request stream, in offer order.
    pub tables: Vec<Table>,
    /// Open loop only: `due_us[i]` is when `tables[i]` is due, in
    /// microseconds after the window opens. Empty for closed loops.
    pub due_us: Vec<u64>,
    /// Annotated and discarded before any measurement.
    pub warmup: Vec<Table>,
}

/// Arrival times of a Poisson process at `rate` per second over
/// `seconds`, as microsecond offsets, conditioned on its expected count:
/// exponential gaps from the seed, scaled so that exactly
/// `rate × seconds` arrivals fall inside the window. Bursts and lulls are
/// those of a Poisson process; the offered load is the same for every
/// seed, so goodput repeats.
pub fn due_times_us(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let n = (rate * seconds).round() as u64;
    let mut at = 0.0f64;
    let arrivals: Vec<f64> = (0..=n)
        .map(|i| {
            at += -(1.0 - unit(splitmix(seed ^ STREAM_DUE, i))).ln();
            at
        })
        .collect();
    // The (n+1)-th arrival marks the end of the window.
    arrivals[..n as usize]
        .iter()
        .map(|t| (t / at * seconds * 1e6) as u64)
        .collect()
}

/// Table kinds of an open-loop stream: every ten consecutive arrivals
/// hold exactly 7 hot, 2 cold-exact and 1 cold-noisy table, in an order
/// shuffled from the seed. The blend is the same for every seed; only
/// the arrangement varies.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot,
    Exact,
    Noisy,
}

fn open_kinds(seed: u64, n: usize) -> Vec<Kind> {
    use Kind::{Exact, Hot, Noisy};
    let mut kinds = Vec::with_capacity(n + 10);
    for block in 0..n.div_ceil(10) as u64 {
        let mut ten = [Hot, Hot, Hot, Hot, Hot, Hot, Hot, Exact, Exact, Noisy];
        for i in (1..10).rev() {
            let j = splitmix(seed ^ STREAM_KIND, block * 10 + i as u64) % (i as u64 + 1);
            ten.swap(i, j as usize);
        }
        kinds.extend(ten);
    }
    kinds.truncate(n);
    kinds
}

/// Draws entity labels from the disk world and turns them into mentions
/// that are pairwise distinct under the retrieval cache's own key
/// (`normalize_mention`), so "never repeated" holds where it matters.
struct Mentions<'a> {
    graph: &'a DiskGraph,
    seed: u64,
    n_blocks: u64,
    block: u64,
    insts: u64,
    draws: u64,
    made: u64,
    buffered: std::vec::IntoIter<String>,
    seen: HashSet<String>,
}

impl<'a> Mentions<'a> {
    fn new(graph: &'a DiskGraph, geometry: &BigWorldConfig, seed: u64) -> Self {
        let block = u64::from(geometry.block_entities);
        let total = graph.manifest().n_entities;
        Mentions {
            graph,
            seed,
            n_blocks: (total - u64::from(geometry.core_types)) / block,
            block,
            insts: block - u64::from(geometry.types_per_block),
            draws: 0,
            made: 0,
            buffered: Vec::new().into_iter(),
            seen: HashSet::new(),
        }
    }

    /// Labels of the next batch of sampled instance ids. Reads go in id
    /// order so ids of one block share one decode (a batch this large
    /// touches every block about once, where small ones decode the whole
    /// world again each time); the labels come back in draw order, so the
    /// result does not depend on the batching.
    fn refill(&mut self) {
        const BATCH: u64 = 1 << 15;
        let mut ids: Vec<(u64, u32)> = (self.draws..self.draws + BATCH)
            .map(|i| {
                let h = splitmix(self.seed ^ STREAM_IDS, i);
                let id = (h % self.n_blocks) * self.block + (h >> 32) % self.insts;
                (i, id as u32)
            })
            .collect();
        self.draws += BATCH;
        ids.sort_unstable_by_key(|&(_, id)| id);
        let mut labels: Vec<(u64, String)> = ids
            .into_iter()
            .map(|(i, id)| {
                let label = self
                    .graph
                    .try_label(EntityId(id))
                    .expect("a freshly built world reads back cleanly");
                (i, label)
            })
            .collect();
        labels.sort_unstable_by_key(|&(i, _)| i);
        self.buffered = labels
            .into_iter()
            .map(|(_, l)| l)
            .collect::<Vec<_>>()
            .into_iter();
    }

    fn next_label(&mut self) -> String {
        loop {
            if let Some(label) = self.buffered.next() {
                return label;
            }
            self.refill();
        }
    }

    /// A mention no earlier call returned. `noise_slot` selects the
    /// perturbation (see [`perturb`]); `None` keeps the exact label.
    fn fresh(&mut self, noise_slot: Option<usize>) -> String {
        loop {
            let label = self.next_label();
            if !self.seen.insert(normalize_mention(&label)) {
                continue;
            }
            let Some(slot) = noise_slot else {
                return label;
            };
            self.made += 1;
            let noisy = perturb(&label, slot, splitmix(self.seed ^ STREAM_NOISE, self.made));
            if self.seen.insert(normalize_mention(&noisy)) {
                return noisy;
            }
        }
    }
}

/// A letter that differs from `c`, chosen by `h` from letters rare in the
/// world's name pools, so the damaged token has no postings.
fn other_letter(c: char, h: u64) -> char {
    const RARE: [char; 4] = ['q', 'x', 'z', 'j'];
    let pick = RARE[(h % 4) as usize];
    if pick == c {
        RARE[((h + 1) % 4) as usize]
    } else {
        pick
    }
}

fn typo(token: &str, h: u64) -> String {
    let chars: Vec<char> = token.chars().collect();
    let at = (h >> 8) as usize % chars.len();
    chars
        .iter()
        .enumerate()
        .map(|(i, &c)| if i == at { other_letter(c, h) } else { c })
        .collect()
}

/// Turn an exact `first second tag` label into a mention that is not one,
/// by row slot: 0–2 typo in the first token, 3–4 tokens reordered plus an
/// extra token, 5 typo in the second token, 6 first name cut to its
/// initial, 7 an out-of-KG string that keeps only the tag.
fn perturb(label: &str, slot: usize, h: u64) -> String {
    const EXTRA: [&str; 4] = ["jr", "sr", "phd", "esq"];
    let mut it = label.split_whitespace();
    let (first, second, tag) = (
        it.next().unwrap_or("x"),
        it.next().unwrap_or("y"),
        it.next().unwrap_or("0"),
    );
    match slot % COLD_ROWS {
        0..=2 => format!("{} {second} {tag}", typo(first, h)),
        3 | 4 => format!("{tag} {second} {first} {}", EXTRA[(h % 4) as usize]),
        5 => format!("{first} {} {tag}", typo(second, h)),
        6 => format!(
            "{} {second} {tag}",
            first.chars().take(1).collect::<String>()
        ),
        _ => format!("zq{} xv{} {tag}", h % 100_000, (h >> 20) % 100_000),
    }
}

fn cold_table(id: usize, mentions: &mut Mentions<'_>, noisy: bool) -> Table {
    let columns = (0..COLD_COLS)
        .map(|_| {
            (0..COLD_ROWS)
                .map(|r| CellValue::Text(mentions.fresh(noisy.then_some(r))))
                .collect()
        })
        .collect();
    Table::new(
        TableId(id as u32),
        Vec::new(),
        columns,
        vec![LabelId(0); COLD_COLS],
    )
}

/// A wide table: text cells drawn from `pool` with a cubic skew (a few
/// mentions dominate, as in real corpora), numeric columns and one date
/// column, which the paper never links.
fn hot_table(id: usize, seed: u64, pool: &[String]) -> Table {
    let n_cols = HOT_TEXT_COLS + HOT_NUMERIC_COLS + 1;
    let columns = (0..n_cols)
        .map(|c| {
            (0..HOT_ROWS)
                .map(|r| {
                    let h = splitmix(seed ^ STREAM_HOT, ((id * n_cols + c) * HOT_ROWS + r) as u64);
                    if c < HOT_TEXT_COLS {
                        let u = unit(h);
                        CellValue::Text(pool[(u * u * u * pool.len() as f64) as usize].clone())
                    } else if c < HOT_TEXT_COLS + HOT_NUMERIC_COLS {
                        CellValue::Number((h % 1_000_000) as f64 / 10f64.powi((c % 3) as i32))
                    } else {
                        CellValue::Date(format!(
                            "{}-{:02}-{:02}",
                            1950 + h % 70,
                            1 + (h >> 8) % 12,
                            1 + (h >> 16) % 28
                        ))
                    }
                })
                .collect()
        })
        .collect();
    Table::new(
        TableId(id as u32),
        Vec::new(),
        columns,
        vec![LabelId(0); n_cols],
    )
}

/// Single-column tables that together mention every pool entry once.
fn pool_warmup(pool: &[String]) -> Vec<Table> {
    pool.chunks(POOL_WARMUP_ROWS)
        .enumerate()
        .map(|(i, chunk)| {
            let column = chunk.iter().cloned().map(CellValue::Text).collect();
            Table::new(
                TableId(i as u32),
                Vec::new(),
                vec![column],
                vec![LabelId(0)],
            )
        })
        .collect()
}

/// Materialise a workload's inputs: `cold_cap` tables for a cold closed
/// loop, the arrivals of `seconds` for the open loop. `graph` is only read
/// for labels; pass a handle that is not the one under test so generation
/// does not warm the measured caches.
pub fn generate(
    workload: Workload,
    seed: u64,
    seconds: f64,
    cold_cap: usize,
    graph: &DiskGraph,
    geometry: &BigWorldConfig,
) -> Inputs {
    let mut mentions = Mentions::new(graph, geometry, seed);
    match workload {
        Workload::ColdExact | Workload::ColdNoisy => {
            let noisy = workload == Workload::ColdNoisy;
            let warmup = (0..COLD_WARMUP_TABLES)
                .map(|i| cold_table(i, &mut mentions, noisy))
                .collect();
            let tables = (0..cold_cap)
                .map(|i| cold_table(i, &mut mentions, noisy))
                .collect();
            Inputs {
                tables,
                due_us: Vec::new(),
                warmup,
            }
        }
        Workload::HotMixed => {
            let pool: Vec<String> = (0..HOT_POOL).map(|_| mentions.fresh(None)).collect();
            let tables = (0..HOT_TABLES).map(|i| hot_table(i, seed, &pool)).collect();
            Inputs {
                tables,
                due_us: Vec::new(),
                warmup: pool_warmup(&pool),
            }
        }
        Workload::OpenMixed => {
            let pool: Vec<String> = (0..HOT_POOL).map(|_| mentions.fresh(None)).collect();
            let due_us = due_times_us(seed, OPEN_RATE_PER_S, seconds);
            let tables = open_kinds(seed, due_us.len())
                .into_iter()
                .enumerate()
                .map(|(i, kind)| match kind {
                    Kind::Hot => hot_table(i, seed, &pool),
                    kind => cold_table(i, &mut mentions, kind == Kind::Noisy),
                })
                .collect();
            Inputs {
                tables,
                due_us,
                warmup: pool_warmup(&pool),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;

    fn text_cells(tables: &[Table]) -> Vec<String> {
        tables
            .iter()
            .flat_map(|t| t.columns.iter().flatten())
            .filter_map(|c| c.as_text().map(str::to_string))
            .collect()
    }

    fn fingerprint(inputs: &Inputs) -> String {
        format!(
            "{:?}|{:?}|{:?}",
            inputs.tables, inputs.warmup, inputs.due_us
        )
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_seeds_differ() {
        let world = setup::build_world("wl-det", 11, 20_000);
        let graph = DiskGraph::open_with_cache(&world.dir, 1 << 20).unwrap();
        for w in Workload::ALL {
            let a = generate(w, 11, 0.5, 50, &graph, &world.geometry);
            let b = generate(w, 11, 0.5, 50, &graph, &world.geometry);
            let c = generate(w, 12, 0.5, 50, &graph, &world.geometry);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}: same seed", w.name());
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}: other seed", w.name());
            assert!(!a.tables.is_empty());
        }
        assert_eq!(due_times_us(5, 40.0, 2.0), due_times_us(5, 40.0, 2.0));
        assert_ne!(due_times_us(5, 40.0, 2.0), due_times_us(6, 40.0, 2.0));
        world.remove();
    }

    #[test]
    fn cold_mentions_are_pairwise_distinct_and_noisy_ones_are_not_labels() {
        let world = setup::build_world("wl-distinct", 3, 20_000);
        let graph = DiskGraph::open_with_cache(&world.dir, 1 << 20).unwrap();
        let mut exact_keys = HashSet::new();
        for w in [Workload::ColdExact, Workload::ColdNoisy] {
            let inputs = generate(w, 3, 1.0, 100, &graph, &world.geometry);
            let mut cells = text_cells(&inputs.warmup);
            cells.extend(text_cells(&inputs.tables));
            let keys: HashSet<String> = cells.iter().map(|m| normalize_mention(m)).collect();
            assert_eq!(keys.len(), cells.len(), "{}: repeated mention", w.name());
            if w == Workload::ColdExact {
                exact_keys = keys;
            } else {
                // Same seed draws the same entities; no noisy mention may
                // equal the exact label it was made from.
                assert!(keys.is_disjoint(&exact_keys));
            }
        }
        world.remove();
    }

    #[test]
    fn due_times_are_ascending_and_hold_the_rate_exactly() {
        let due = due_times_us(9, 36.0, 12.0);
        assert_eq!(due.len(), 432);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 12_000_000);
        // Gaps are exponential, not regular: some arrivals bunch up.
        let gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|&g| g < 5_000) && gaps.iter().any(|&g| g > 80_000));
    }

    #[test]
    fn open_stream_holds_the_blend_in_every_ten_arrivals() {
        let kinds = open_kinds(3, 95);
        assert_eq!(kinds.len(), 95);
        for ten in kinds.chunks_exact(10) {
            assert_eq!(ten.iter().filter(|&&k| k == Kind::Hot).count(), 7);
            assert_eq!(ten.iter().filter(|&&k| k == Kind::Noisy).count(), 1);
        }
        assert!(
            kinds != open_kinds(4, 95),
            "the arrangement follows the seed"
        );
    }

    #[test]
    fn hot_tables_only_mention_the_pool() {
        let world = setup::build_world("wl-hot", 4, 20_000);
        let graph = DiskGraph::open_with_cache(&world.dir, 1 << 20).unwrap();
        let inputs = generate(Workload::HotMixed, 4, 1.0, 0, &graph, &world.geometry);
        let pool: HashSet<String> = text_cells(&inputs.warmup).into_iter().collect();
        assert_eq!(pool.len(), HOT_POOL);
        assert!(text_cells(&inputs.tables).iter().all(|m| pool.contains(m)));
        let t = &inputs.tables[0];
        assert_eq!((t.n_cols(), t.n_rows()), (10, 12));
        assert_eq!((4..9).filter(|&c| t.is_numeric_column(c)).count(), 5);
        world.remove();
    }
}
