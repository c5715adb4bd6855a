//! Column-column similarity and edge construction (paper §3.3).
//!
//! Edge potentials transfer labels between content-overlapping columns of
//! *different* tables. Three robustness mechanisms from the paper:
//!
//! 1. **Max-matching edges** — per table pair, only the one-one
//!    max-weight matching between their columns produces edges (prevents
//!    label bleeding when columns within a table resemble each other);
//! 2. **Normalized similarity** — `nsim(tc → t'c') = sim / (λ + Σ sim)`
//!    bounds the total influence on a column at one (λ = 0.3);
//! 3. **Confidence gating** (applied by the inference drivers): a column's
//!    similarity only votes when its own labeling is confident.
//!
//! # The content-signature index
//!
//! Naively, [`build_edges`] scores O(candidates² · cols²) column pairs
//! per query, each one a string merge over the two columns' value lists
//! plus a header-vector cosine — the dominant edge-construction cost.
//! When every view carries bind-time [`InternedFeatures`], the pairs are
//! instead *admitted* through each column's FNV-1a content signatures
//! (normalized cell values, and header terms under a domain tag): two
//! columns are admitted iff they share at least one signature.
//!
//! The index is one sorted vector of `(signature, table, column)`
//! triples. Every run of equal signatures sets, for each pair of its
//! members from different tables `i < j`, bit `cb` of the `u64` mask
//! kept for column `ca` of `i` against table `j` — a dense slot table
//! addressed by `(j, ca)`. A table pair whose masks are all zero is
//! skipped outright; otherwise only the set bits are scored. Tables
//! wider than 64 columns do not fit a mask: their pairs are scored
//! densely, which is exact, just not accelerated.
//!
//! Skipping non-admitted pairs is **provably identical** to scoring
//! them: equal strings always hash equal, so a non-admitted pair shares
//! no cell value (overlap = 0) and no header term (cosine = 0) — its
//! similarity is exactly `mix·0 + (1−mix)·0 = 0.0`, which never survives
//! the `s > 0.0` edge filter regardless of `min_column_sim`. Hash
//! *collisions* between unequal strings merely admit a pair whose exact
//! similarity is then computed — no false negatives, no approximation.
//! Table pairs are still visited in the same `(i, j)` lexicographic
//! order and matched columns emitted in the same order, so the `nsim`
//! normalization sums accumulate identically and the resulting edges are
//! bit-for-bit the dense loop's. If any view lacks signatures (the
//! string-only oracle path), the dense loop runs unchanged.
//!
//! # Forced matchings
//!
//! Most table pairs need no matching flow at all. When the positive
//! cells of the thresholded similarity matrix already form a partial
//! matching — at most one per row and one per column — that matching is
//! the **unique** optimum: every other one-one assignment either drops
//! one of those cells (losing its positive weight) or uses a cell of
//! weight `−∞`. The flow solver, whose shortest-path relaxation has a
//! 1e-12 slack, reaches the same assignment whenever every positive
//! weight is far above that slack; the similarity floor guarantees this
//! (`min_column_sim` defaults to 0.1), and the shortcut is only taken
//! when the floor exceeds `FORCED_MIN_SIM`. The cells are then emitted
//! in row order, exactly as the solver's assignment is read.
//!
//! # The cross-query pair memo
//!
//! A table pair's matched columns are a pure function of the two tables
//! and two mapper parameters (`min_column_sim`, `content_sim_mix`) — the
//! query never enters `match_columns`. An engine therefore shares one
//! [`PairMemo`] across all of its queries: the first query to visit a
//! pair pays the similarity matrix and the matching flow, every later
//! query replays the recorded `(col_a, col_b, sim)` list bit-for-bit.
//! The per-query `nsim` normalization runs *after* the memo over the
//! query's own candidate set, so memoized and freshly computed pairs
//! produce identical edges. The memo is fingerprinted with the two
//! parameters it bakes in (ignored on mismatch) and must not outlive
//! the table contents it describes — the engine replaces it whenever a
//! live mutation can rebind a table id.
//!
//! ## Layout and eviction
//!
//! The memo is 16 lock stripes. A stripe keeps up to two *generations*,
//! each a `(table id, table id)` → `(offset, length)` table over two flat
//! arenas: one of one-byte column-id pairs, one of `f64` similarities. A
//! memoized pair therefore costs one table slot and ten bytes per matched
//! column pair, and no allocation of its own. A generation reserves room
//! for 28 672 pairs and 57 344 matched column pairs once, when first
//! needed, and never grows: a 32 768-bucket table of 16-byte slots plus
//! the arenas, 1 130 496 bytes. When the current generation is full it
//! becomes the previous one, and the old previous one is emptied whole
//! and reused as the new current one. A lookup tries the current
//! generation, then the previous one, and copies a hit from the previous
//! generation into the current one, so a pair still in use survives a
//! rotation.
//!
//! The memo thus evicts, oldest generation first, instead of refusing to
//! learn once full. It reserves at most 36 175 872 bytes (≈ 36.2 MB),
//! with both generations of every stripe allocated. One generation holds
//! the working set of the scale-10 serving benchmark's cold walk
//! (348 682 pairs with 743 211 matched column pairs, so about 21.8 k
//! pairs and 46.5 k matches a stripe). A pair of a table wider than 256
//! columns does not fit the one-byte ids: it is recomputed on every
//! visit, which is exact, just not accelerated.
//!
//! A query maps its candidates twice: the stage-1 premap, then — when
//! the second probe adds tables — the final map over stage 1 ++ stage 2,
//! which revisits every stage-1 pair in the same relative order. The
//! premap has just inserted or refreshed every one of those pairs, so the
//! final map replays them from the engine-wide memo; only two rotations
//! of a stripe in between could evict one, and that pair is then
//! recomputed bit-for-bit.

use crate::config::MapperConfig;
use crate::view::{InternedFeatures, TableView};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use wwt_graph::{solve_assignment, Assignment};
use wwt_model::WwtError;

/// Counters describing one edge-construction run (exposed through the
/// mapper's [`crate::mapper::MapStats`] and the service stats surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Column pairs whose exact similarity was computed.
    pub pairs_scored: u64,
    /// Column pairs skipped by the content-signature index (their
    /// similarity is provably exactly zero).
    pub pairs_skipped: u64,
    /// Column pairs replayed from the cross-query [`PairMemo`] without
    /// recomputation.
    pub pairs_memoized: u64,
}

/// Lock stripes of the pair memo: bounds contention when many queries
/// warm the memo concurrently.
const MEMO_STRIPES: usize = 16;
/// Table pairs one generation of a stripe holds: 7/8 of a power of two,
/// so its table fills 32 768 buckets exactly.
const GEN_PAIRS: usize = 28_672;
/// Matched column pairs one generation of a stripe holds: two per table
/// pair, where the cold working set averages 2.13.
const GEN_MATCHES: usize = 2 * GEN_PAIRS;
/// Widest table whose pairs the memo holds: the arenas store column ids
/// as single bytes.
const MEMO_MAX_COLS: usize = 1 << u8::BITS;
/// Smallest `min_column_sim` for which [`match_columns`] trusts a forced
/// matching without running the flow (see "Forced matchings" in the
/// module docs): three orders of magnitude above the solver's 1e-12
/// relaxation slack.
const FORCED_MIN_SIM: f64 = 1e-9;

/// One matched column pair `(col_a, col_b, sim)`, as memoized.
type Match = (u8, u8, f64);

/// The room of one generation: table pairs, and matched column pairs.
#[derive(Debug, Clone, Copy)]
struct Budget {
    pairs: usize,
    matches: usize,
}

/// One generation of a memo stripe: a key → `(offset << 16) | length`
/// table over the two arenas, all reserved once at full size.
#[derive(Debug)]
struct Generation {
    index: HashMap<u64, u64>,
    cols: Vec<[u8; 2]>,
    sims: Vec<f64>,
}

impl Generation {
    fn reserve(budget: Budget) -> Self {
        Generation {
            index: HashMap::with_capacity(budget.pairs),
            cols: Vec::with_capacity(budget.matches),
            sims: Vec::with_capacity(budget.matches),
        }
    }

    /// Appends the matching memoized under `key` to `out`; false if none.
    fn get(&self, key: u64, out: &mut Vec<Match>) -> bool {
        let Some(&slot) = self.index.get(&key) else {
            return false;
        };
        let range = (slot >> 16) as usize..(slot >> 16) as usize + (slot & 0xFFFF) as usize;
        out.extend(
            self.cols[range.clone()]
                .iter()
                .zip(&self.sims[range])
                .map(|(&[ca, cb], &sim)| (ca, cb, sim)),
        );
        true
    }

    /// Memoizes `matched` under `key`; false, storing nothing, when the
    /// generation has no room left. The capacity checks come first so the
    /// table is never asked to grow.
    fn push(&mut self, key: u64, matched: &[Match], budget: Budget) -> bool {
        if self.index.contains_key(&key) {
            return true;
        }
        if self.index.len() == budget.pairs || self.cols.len() + matched.len() > budget.matches {
            return false;
        }
        self.index
            .insert(key, (self.cols.len() as u64) << 16 | matched.len() as u64);
        self.cols
            .extend(matched.iter().map(|&(ca, cb, _)| [ca, cb]));
        self.sims.extend(matched.iter().map(|&(_, _, sim)| sim));
        true
    }

    /// Drops every entry at once, keeping the reserved room.
    fn clear(&mut self) {
        self.index.clear();
        self.cols.clear();
        self.sims.clear();
    }
}

/// One lock stripe: the current generation and the previous one, each
/// allocated on first need.
#[derive(Debug, Default)]
struct Stripe {
    current: Option<Generation>,
    previous: Option<Generation>,
}

impl Stripe {
    /// Replaces `out` with the matching memoized under `key`; false if
    /// none. A hit in the previous generation is copied into the current
    /// one.
    fn get(&mut self, key: u64, out: &mut Vec<Match>, budget: Budget) -> bool {
        out.clear();
        if self.current.as_ref().is_some_and(|g| g.get(key, out)) {
            return true;
        }
        if !self.previous.as_ref().is_some_and(|g| g.get(key, out)) {
            return false;
        }
        // `out` is a copy, so a rotation that empties the previous
        // generation cannot lose it.
        self.insert(key, out, budget);
        true
    }

    /// Memoizes `matched` under `key`, rotating the generations when the
    /// current one is full.
    fn insert(&mut self, key: u64, matched: &[Match], budget: Budget) {
        if matched.len() > budget.matches {
            return;
        }
        let current = self
            .current
            .get_or_insert_with(|| Generation::reserve(budget));
        if current.push(key, matched, budget) {
            return;
        }
        let mut fresh = self
            .previous
            .take()
            .unwrap_or_else(|| Generation::reserve(budget));
        fresh.clear();
        fresh.push(key, matched, budget);
        self.previous = self.current.replace(fresh);
    }
}

/// Cross-query memo of per-table-pair column matchings keyed by the
/// `(table id, table id)` pair in visit order (see the module docs for
/// the exactness argument and the layout). Shared by reference through
/// [`crate::mapper::ColumnMapper::pair_memo`].
#[derive(Debug)]
pub struct PairMemo {
    /// Bit patterns of the two [`MapperConfig`] fields the cached
    /// matchings depend on; a mismatching mapper bypasses the memo.
    min_sim_bits: u64,
    mix_bits: u64,
    budget: Budget,
    stripes: Vec<Mutex<Stripe>>,
}

impl PairMemo {
    /// An empty memo fingerprinted for `cfg`'s similarity parameters.
    pub fn for_config(cfg: &MapperConfig) -> Self {
        Self::with_budget(
            cfg,
            Budget {
                pairs: GEN_PAIRS,
                matches: GEN_MATCHES,
            },
        )
    }

    fn with_budget(cfg: &MapperConfig, budget: Budget) -> Self {
        PairMemo {
            min_sim_bits: cfg.min_column_sim.to_bits(),
            mix_bits: cfg.content_sim_mix.to_bits(),
            budget,
            stripes: (0..MEMO_STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// Whether cached matchings are valid under `cfg` — true iff the two
    /// parameters `match_columns` reads are bit-identical.
    pub fn matches(&self, cfg: &MapperConfig) -> bool {
        self.min_sim_bits == cfg.min_column_sim.to_bits()
            && self.mix_bits == cfg.content_sim_mix.to_bits()
    }

    /// Number of memoized table pairs (observability). A pair promoted
    /// out of the previous generation counts once.
    pub fn entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                let s = s.lock().expect("pair memo stripe poisoned");
                let current = s.current.as_ref().map_or(0, |g| g.index.len());
                let previous = s.previous.as_ref().map_or(0, |p| {
                    p.index
                        .keys()
                        .filter(|k| !s.current.as_ref().is_some_and(|c| c.index.contains_key(k)))
                        .count()
                });
                current + previous
            })
            .sum()
    }

    fn stripe(&self, key: u64) -> MutexGuard<'_, Stripe> {
        let h = (key >> 32)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key & 0xFFFF_FFFF);
        self.stripes[(h >> 32) as usize % MEMO_STRIPES]
            .lock()
            .expect("pair memo stripe poisoned")
    }

    /// Replaces `out` with the matching memoized for the table pair
    /// `key`; false if none.
    fn get(&self, key: u64, out: &mut Vec<Match>) -> bool {
        self.stripe(key).get(key, out, self.budget)
    }

    fn insert(&self, key: u64, matched: &[Match]) {
        self.stripe(key).insert(key, matched, self.budget);
    }
}

/// An undirected cross-table column edge selected by the max-matching, with
/// the two directed normalized similarities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnEdge {
    /// First endpoint: (table index, column index).
    pub a: (usize, usize),
    /// Second endpoint.
    pub b: (usize, usize),
    /// Raw symmetric similarity.
    pub sim: f64,
    /// `nsim(a → b)`: a's similarity to b after normalizing over a's
    /// neighborhood.
    pub nsim_ab: f64,
    /// `nsim(b → a)`.
    pub nsim_ba: f64,
}

/// Raw similarity between two columns of *different* tables: a mix of
/// normalized-cell-value overlap and header TF-IDF cosine
/// (`sim = mix·overlap + (1−mix)·header_cos`).
pub fn column_similarity(
    va: &TableView<'_>,
    ca: usize,
    vb: &TableView<'_>,
    cb: usize,
    mix: f64,
) -> f64 {
    let a_vals = &va.column_values[ca];
    let b_vals = &vb.column_values[cb];
    let overlap = if a_vals.is_empty() || b_vals.is_empty() {
        0.0
    } else {
        let inter = sorted_intersection_count(a_vals, b_vals) as f64;
        inter / a_vals.len().min(b_vals.len()) as f64
    };
    let header_cos = va.column_header_vecs[ca].cosine(&vb.column_header_vecs[cb]);
    mix * overlap + (1.0 - mix) * header_cos
}

/// `|A ∩ B|` of two sorted, deduplicated value lists — the same count a
/// set intersection produces, via a linear merge.
fn sorted_intersection_count(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Builds the cross-table edge set: for every pair of tables, the one-one
/// max-weight matching between their columns (similarities below
/// `cfg.min_column_sim` dropped), then `nsim` normalization over each
/// column's kept neighborhood.
pub fn build_edges(views: &[TableView<'_>], cfg: &MapperConfig) -> Vec<ColumnEdge> {
    build_edges_with(views, cfg, None, None)
        .expect("infallible without a cancel hook")
        .0
}

/// Widest table the admission masks cover: column `cb` of a pair's later
/// table is bit `cb` of a `u64`.
const MASK_COLS: usize = 64;

/// The per-query content-signature index (see the module docs): for views
/// `i < j` and column `ca` of `i`, the mask of `j`'s columns sharing at
/// least one signature with it.
struct AdmitIndex {
    /// Number of columns of the views before each view.
    col_base: Vec<usize>,
    /// Total number of columns over all views: the stride of `masks`.
    total_cols: usize,
    /// `masks[j * total_cols + col_base[i] + ca]`, meaningful for `i < j`.
    masks: Vec<u64>,
    /// Views whose pairs go through the masks: at most [`MASK_COLS`]
    /// columns wide. Pairs touching any other view are scored densely.
    indexed: Vec<bool>,
}

impl AdmitIndex {
    /// Builds the index over every view's content signatures, or `None`
    /// if any view lacks bind-time features (oracle path → dense).
    fn build(views: &[TableView<'_>]) -> Option<Self> {
        let mut col_base = Vec::with_capacity(views.len());
        let mut total_cols = 0;
        for v in views {
            col_base.push(total_cols);
            total_cols += v.n_cols();
        }
        let mut indexed = vec![false; views.len()];
        let mut entries: Vec<(u64, u32, u32)> = Vec::new();
        for (t, v) in views.iter().enumerate() {
            let f: &InternedFeatures = v.interned()?;
            if v.n_cols() > MASK_COLS {
                continue;
            }
            indexed[t] = true;
            for group in [&f.value_sigs, &f.header_sigs] {
                for (c, sigs) in group.iter().enumerate() {
                    entries.extend(sigs.iter().map(|&sig| (sig, t as u32, c as u32)));
                }
            }
        }
        // Runs of one signature, members in (table, column) order — so
        // within a run an earlier member never belongs to a later table.
        entries.sort_unstable();
        let mut masks = vec![0u64; views.len() * total_cols];
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            for (x, &(_, ti, ca)) in run.iter().enumerate() {
                for &(_, tj, cb) in &run[x + 1..] {
                    if ti != tj {
                        let slot = tj as usize * total_cols + col_base[ti as usize] + ca as usize;
                        masks[slot] |= 1 << cb;
                    }
                }
            }
        }
        Some(AdmitIndex {
            col_base,
            total_cols,
            masks,
            indexed,
        })
    }

    /// The masks of pair `i < j`, one per column of `i`; `None` when the
    /// pair is scored densely.
    fn pair(&self, i: usize, j: usize) -> Option<&[u64]> {
        if !(self.indexed[i] && self.indexed[j]) {
            return None;
        }
        // `i < j`, so view `i + 1` exists and bounds `i`'s columns.
        let row = j * self.total_cols;
        Some(&self.masks[row + self.col_base[i]..row + self.col_base[i + 1]])
    }
}

/// [`build_edges`] with an optional cancellation hook checked once per
/// outer table, an optional cross-query [`PairMemo`], and skip counters.
/// Every pair of tables is considered. On the fast path, column pairs
/// sharing no content signature are skipped and previously visited pairs
/// replay from the memo — both provably without changing the result (see
/// the module docs).
pub fn build_edges_with(
    views: &[TableView<'_>],
    cfg: &MapperConfig,
    cancel: Option<&(dyn Fn() -> Result<(), WwtError> + Sync)>,
    memo: Option<&PairMemo>,
) -> Result<(Vec<ColumnEdge>, EdgeStats), WwtError> {
    // A memo built for different similarity parameters is ignored.
    let memo = memo.filter(|m| m.matches(cfg));
    // The admission index is built lazily on the first memo miss: a query
    // whose every pair replays from the memo never pays for it.
    let mut admit: Option<Option<AdmitIndex>> = None;
    let mut stats = EdgeStats::default();
    let mut raw: Vec<((usize, usize), (usize, usize), f64)> = Vec::new();
    // One matching on its way into or out of the memo.
    let mut memoized: Vec<Match> = Vec::new();
    for i in 0..views.len() {
        if let Some(check) = cancel {
            check()?;
        }
        for j in (i + 1)..views.len() {
            let (na, nb) = (views[i].n_cols(), views[j].n_cols());
            // Pairs of a table too wide for the memo's one-byte column
            // ids are always recomputed.
            let memo = memo.filter(|_| na.max(nb) <= MEMO_MAX_COLS);
            let key = u64::from(views[i].table.id.0) << 32 | u64::from(views[j].table.id.0);
            if let Some(m) = memo {
                if m.get(key, &mut memoized) {
                    stats.pairs_memoized += (na * nb) as u64;
                    for &(ca, cb, sim) in &memoized {
                        raw.push(((i, ca.into()), (j, cb.into()), sim));
                    }
                    continue;
                }
            }
            let admit = admit.get_or_insert_with(|| AdmitIndex::build(views));
            let mask = admit.as_ref().and_then(|index| index.pair(i, j));
            if mask.is_some_and(|m| m.iter().all(|&bits| bits == 0)) {
                // No column pair shares a signature: every similarity is
                // exactly zero, no edges possible.
                stats.pairs_skipped += (na * nb) as u64;
                if let Some(m) = memo {
                    m.insert(key, &[]);
                }
                continue;
            }
            let matched = match_columns(&views[i], &views[j], cfg, mask, &mut stats);
            if let Some(m) = memo {
                memoized.clear();
                memoized.extend(
                    matched
                        .iter()
                        .map(|&(ca, cb, sim)| (ca as u8, cb as u8, sim)),
                );
                m.insert(key, &memoized);
            }
            for (ca, cb, sim) in matched {
                raw.push(((i, ca), (j, cb), sim));
            }
        }
    }
    // Σ sim per column over kept edges.
    let mut sums: HashMap<(usize, usize), f64> = HashMap::new();
    for &(a, b, sim) in &raw {
        *sums.entry(a).or_insert(0.0) += sim;
        *sums.entry(b).or_insert(0.0) += sim;
    }
    let edges = raw
        .into_iter()
        .map(|(a, b, sim)| ColumnEdge {
            a,
            b,
            sim,
            nsim_ab: sim / (cfg.nsim_lambda + sums[&a]),
            nsim_ba: sim / (cfg.nsim_lambda + sums[&b]),
        })
        .collect();
    Ok((edges, stats))
}

/// One-one max-weight matching between the columns of two tables; returns
/// `(col_a, col_b, sim)` for matched pairs above the similarity floor.
///
/// With admission masks (one per column of `va`), only admitted cells are
/// scored; the rest keep similarity `0.0` — exactly what scoring them
/// would produce (no shared signature ⟹ no shared value, no shared header
/// term).
fn match_columns(
    va: &TableView<'_>,
    vb: &TableView<'_>,
    cfg: &MapperConfig,
    mask: Option<&[u64]>,
    stats: &mut EdgeStats,
) -> Vec<(usize, usize, f64)> {
    let (na, nb) = (va.n_cols(), vb.n_cols());
    let mut sims = vec![0.0f64; na * nb];
    let mut any = false;
    for ca in 0..na {
        for cb in 0..nb {
            if mask.is_some_and(|m| (m[ca] >> cb) & 1 == 0) {
                stats.pairs_skipped += 1;
                continue;
            }
            stats.pairs_scored += 1;
            let v = column_similarity(va, ca, vb, cb, cfg.content_sim_mix);
            if v >= cfg.min_column_sim {
                sims[ca * nb + cb] = v;
                any = true;
            }
        }
    }
    if !any {
        return Vec::new();
    }
    if cfg.min_column_sim > FORCED_MIN_SIM {
        if let Some(forced) = forced_matching(&sims, nb) {
            return forced;
        }
    }
    flow_matching(&sims, na, nb)
}

/// The matching of a thresholded `na × nb` similarity matrix (row-major)
/// whose positive cells already form a partial matching — at most one per
/// row and per column — listed in row order; `None` when they do not.
/// Such a matching is the unique optimum (see "Forced matchings" in the
/// module docs).
fn forced_matching(sims: &[f64], nb: usize) -> Option<Vec<(usize, usize, f64)>> {
    let mut col_taken = vec![false; nb];
    let mut out = Vec::new();
    for (ca, row) in sims.chunks_exact(nb).enumerate() {
        let mut positive = row.iter().enumerate().filter(|&(_, &s)| s > 0.0);
        if let Some((cb, &s)) = positive.next() {
            if positive.next().is_some() || std::mem::replace(&mut col_taken[cb], true) {
                return None;
            }
            out.push((ca, cb, s));
        }
    }
    Some(out)
}

/// The one-one max-weight matching of a thresholded `na × nb` similarity
/// matrix by min-cost flow: items are the rows; bins are the columns
/// (capacity 1) plus an "unmatched" bin with room for every row.
fn flow_matching(sims: &[f64], na: usize, nb: usize) -> Vec<(usize, usize, f64)> {
    let weights: Vec<Vec<f64>> = sims
        .chunks_exact(nb)
        .map(|row| {
            let mut r: Vec<f64> = row
                .iter()
                .map(|&s| if s > 0.0 { s } else { f64::NEG_INFINITY })
                .collect();
            r.push(0.0); // unmatched
            r
        })
        .collect();
    let mut bin_caps = vec![1u32; nb];
    bin_caps.push(na as u32);
    let Some(sol) = solve_assignment(&Assignment { bin_caps, weights }) else {
        return Vec::new();
    };
    sol.assignment
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b < nb)
        .map(|(ca, &cb)| (ca, cb, sims[ca * nb + cb]))
        .filter(|&(_, _, s)| s > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::TableFeatures;
    use std::sync::Arc;
    use wwt_model::{TableId, WebTable};
    use wwt_text::CorpusStats;

    fn make(id: u32, headers: Vec<&str>, cols: Vec<Vec<&str>>) -> WebTable {
        let n_rows = cols[0].len();
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|r| cols.iter().map(|c| c[r].to_string()).collect())
            .collect();
        WebTable::new(
            TableId(id),
            "u",
            None,
            vec![headers.into_iter().map(String::from).collect()],
            rows,
            vec![],
        )
        .unwrap()
    }

    fn cfg() -> MapperConfig {
        MapperConfig::default()
    }

    #[test]
    fn value_overlap_drives_similarity() {
        let stats = CorpusStats::new();
        let t1 = make(
            0,
            vec!["Country", "Currency"],
            vec![
                vec!["India", "Japan", "France"],
                vec!["Rupee", "Yen", "Euro"],
            ],
        );
        let t2 = make(
            1,
            vec!["Nation", "Money"],
            vec![
                vec!["India", "Japan", "Brazil"],
                vec!["Rupee", "Yen", "Real"],
            ],
        );
        let v1 = TableView::new(&t1, &stats, 0.3);
        let v2 = TableView::new(&t2, &stats, 0.3);
        let same = column_similarity(&v1, 0, &v2, 0, 0.7);
        let cross = column_similarity(&v1, 0, &v2, 1, 0.7);
        assert!(same > cross, "same {same} cross {cross}");
        assert!(same > 0.4);
    }

    #[test]
    fn header_cosine_contributes() {
        let stats = CorpusStats::new();
        // No shared values, shared header tokens.
        let t1 = make(0, vec!["Currency"], vec![vec!["Rupee", "Yen"]]);
        let t2 = make(1, vec!["Currency"], vec![vec!["Peso", "Won"]]);
        let v1 = TableView::new(&t1, &stats, 0.3);
        let v2 = TableView::new(&t2, &stats, 0.3);
        let s = column_similarity(&v1, 0, &v2, 0, 0.7);
        assert!((s - 0.3).abs() < 1e-9, "header-only sim {s}");
    }

    #[test]
    fn max_matching_yields_one_edge_per_column() {
        let stats = CorpusStats::new();
        // t2's two columns BOTH resemble t1's capital column (the paper's
        // "us states | capitals | largest cities" trap); matching must pick
        // only the best pair per column.
        let t1 = make(
            0,
            vec!["State", "Capital"],
            vec![
                vec!["Ohio", "Texas", "Utah"],
                vec!["Columbus", "Austin", "Salt Lake City"],
            ],
        );
        let t2 = make(
            1,
            vec!["State", "Capital", "Largest city"],
            vec![
                vec!["Ohio", "Texas", "Utah"],
                vec!["Columbus", "Austin", "Salt Lake City"],
                vec!["Columbus", "Houston", "Salt Lake City"],
            ],
        );
        let v1 = TableView::new(&t1, &stats, 0.3);
        let v2 = TableView::new(&t2, &stats, 0.3);
        let views = vec![v1, v2];
        let edges = build_edges(&views, &cfg());
        // Each column of t1 appears in at most one edge.
        for c in 0..2 {
            let deg = edges.iter().filter(|e| e.a == (0, c)).count();
            assert!(deg <= 1, "column (0,{c}) has degree {deg}");
        }
        // The capital column must match t2's capital column, not largest
        // city (same values but "largest city" header mismatch drops it).
        let cap_edge = edges.iter().find(|e| e.a == (0, 1)).expect("capital edge");
        assert_eq!(cap_edge.b, (1, 1));
    }

    #[test]
    fn weak_similarities_dropped() {
        let stats = CorpusStats::new();
        let t1 = make(0, vec!["A"], vec![vec!["x1", "x2"]]);
        let t2 = make(1, vec!["B"], vec![vec!["y1", "y2"]]);
        let views = vec![
            TableView::new(&t1, &stats, 0.3),
            TableView::new(&t2, &stats, 0.3),
        ];
        assert!(build_edges(&views, &cfg()).is_empty());
    }

    #[test]
    fn nsim_normalization_bounds_influence() {
        let stats = CorpusStats::new();
        // One column similar to many copies: per-edge nsim must shrink
        // relative to the isolated-pair case.
        let base = make(0, vec!["Country"], vec![vec!["India", "Japan", "France"]]);
        let copies: Vec<WebTable> = (1..5)
            .map(|i| make(i, vec!["Country"], vec![vec!["India", "Japan", "France"]]))
            .collect();
        let mut views = vec![TableView::new(&base, &stats, 0.3)];
        for c in &copies {
            views.push(TableView::new(c, &stats, 0.3));
        }
        let edges = build_edges(&views, &cfg());
        let total_in: f64 = edges
            .iter()
            .filter(|e| e.a == (0, 0))
            .map(|e| e.nsim_ab)
            .sum();
        assert!(total_in <= 1.0 + 1e-9, "total incoming nsim {total_in}");
        // Isolated pair for comparison: one neighbor keeps most of its sim.
        let pair_views = vec![
            TableView::new(&base, &stats, 0.3),
            TableView::new(&copies[0], &stats, 0.3),
        ];
        let pair = build_edges(&pair_views, &cfg());
        assert_eq!(pair.len(), 1);
        let hub_edge = edges.iter().find(|e| e.a == (0, 0)).unwrap();
        assert!(
            hub_edge.nsim_ab < pair[0].nsim_ab,
            "hub nsim {} should shrink below pair nsim {}",
            hub_edge.nsim_ab,
            pair[0].nsim_ab
        );
        // Normalization never exceeds the raw similarity.
        assert!(pair[0].nsim_ab < pair[0].sim);
    }

    /// A small corpus with overlapping, header-only-related, and fully
    /// disjoint tables — exercises every admission outcome.
    fn mixed_tables() -> Vec<WebTable> {
        vec![
            make(
                0,
                vec!["Country", "Currency"],
                vec![
                    vec!["India", "Japan", "France"],
                    vec!["Rupee", "Yen", "Euro"],
                ],
            ),
            make(
                1,
                vec!["Nation", "Money"],
                vec![
                    vec!["India", "Japan", "Brazil"],
                    vec!["Rupee", "Yen", "Real"],
                ],
            ),
            // Shares only header terms with table 0.
            make(2, vec!["Currency"], vec![vec!["Peso", "Won"]]),
            // Completely disjoint from everything.
            make(
                3,
                vec!["Element", "Symbol"],
                vec![vec!["Iron", "Gold"], vec!["Fe", "Au"]],
            ),
        ]
    }

    #[test]
    fn signature_index_matches_dense_bitwise() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let fast: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let oracle: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new_oracle(t, &stats, 0.3))
            .collect();
        assert!(fast.iter().all(|v| v.interned().is_some()));
        assert!(oracle.iter().all(|v| v.interned().is_none()));
        let (indexed, istats) = build_edges_with(&fast, &cfg(), None, None).unwrap();
        let (dense, dstats) = build_edges_with(&oracle, &cfg(), None, None).unwrap();
        assert_eq!(indexed.len(), dense.len());
        for (a, b) in indexed.iter().zip(&dense) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
        // The disjoint table's pairs must actually be skipped, and the
        // dense path must score every pair.
        assert!(istats.pairs_skipped > 0, "{istats:?}");
        assert_eq!(dstats.pairs_skipped, 0);
        assert_eq!(
            istats.pairs_scored + istats.pairs_skipped,
            dstats.pairs_scored
        );
    }

    #[test]
    fn pair_memo_replays_matches_bitwise() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let memo = PairMemo::for_config(&cfg());
        let (reference, _) = build_edges_with(&views, &cfg(), None, None).unwrap();
        let (cold, cs) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
        assert_eq!(cs.pairs_memoized, 0, "first visit computes everything");
        assert!(cs.pairs_scored > 0);
        assert!(memo.entries() > 0);
        let (warm, ws) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
        assert_eq!(ws.pairs_scored, 0, "second visit replays everything");
        assert_eq!(ws.pairs_skipped, 0, "admission-skipped pairs memoize too");
        assert!(ws.pairs_memoized > 0);
        for (a, b) in reference.iter().zip(cold.iter().chain(warm.iter())) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
        assert_eq!(cold.len(), reference.len());
        assert_eq!(warm.len(), reference.len());
    }

    #[test]
    fn pair_memo_over_a_candidate_subset_keeps_global_indices() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let full: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let memo = PairMemo::for_config(&cfg());
        build_edges_with(&full, &cfg(), None, Some(&memo)).unwrap();
        // A later query retrieves a different, reordered candidate subset:
        // replayed pairs must land on the subset's own view indices.
        let subset: Vec<TableView<'_>> = [2usize, 0, 1]
            .iter()
            .map(|&i| TableView::new(&tables[i], &stats, 0.3))
            .collect();
        let (memoized, ms) = build_edges_with(&subset, &cfg(), None, Some(&memo)).unwrap();
        let (fresh, _) = build_edges_with(&subset, &cfg(), None, None).unwrap();
        assert!(ms.pairs_memoized > 0, "{ms:?}");
        assert_eq!(memoized.len(), fresh.len());
        for (a, b) in memoized.iter().zip(&fresh) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
    }

    #[test]
    fn pair_memo_config_mismatch_is_bypassed() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let other = MapperConfig {
            min_column_sim: 0.5,
            ..MapperConfig::default()
        };
        let memo = PairMemo::for_config(&other);
        assert!(!memo.matches(&cfg()));
        for _ in 0..2 {
            let (_, s) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
            assert_eq!(s.pairs_memoized, 0, "mismatched memo must be ignored");
            assert!(s.pairs_scored > 0);
        }
        assert_eq!(memo.entries(), 0);
    }

    #[test]
    fn cancel_hook_aborts_edge_construction() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let cancel = || Err(WwtError::DeadlineExceeded("edges".into()));
        let res = build_edges_with(&views, &cfg(), Some(&cancel), None);
        assert!(matches!(res, Err(WwtError::DeadlineExceeded(_))));
    }

    #[test]
    fn no_self_table_edges() {
        let stats = CorpusStats::new();
        let t1 = make(
            0,
            vec!["A", "B"],
            vec![
                vec!["x", "y"],
                vec!["x", "y"], // identical columns within the table
            ],
        );
        let views = vec![TableView::new(&t1, &stats, 0.3)];
        assert!(build_edges(&views, &cfg()).is_empty());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn forced_matchings_equal_the_flow_solution() {
        // Duplicate levels on purpose: exact ties between cells.
        let levels = [0.1, 0.25, 0.5, 0.5, 0.75, 1.0];
        let mut state = 0x00C0_15E5_u64;
        let mut next = |n: usize| (splitmix(&mut state) % n as u64) as usize;
        let (mut forced, mut unforced) = (0, 0);
        for _ in 0..500 {
            let (na, nb) = (1 + next(6), 1 + next(6));
            let mut sims = vec![0.0; na * nb];
            // A random partial matching (rows past it stay all-zero)…
            let mut cols: Vec<usize> = (0..nb).collect();
            for k in (1..nb).rev() {
                cols.swap(k, next(k + 1));
            }
            for (ca, &cb) in cols.iter().enumerate().take(na) {
                if next(3) != 0 {
                    sims[ca * nb + cb] = levels[next(levels.len())];
                }
            }
            // …plus, sometimes, one extra cell that may break it.
            if next(4) == 0 {
                sims[next(na * nb)] = levels[next(levels.len())];
            }
            match forced_matching(&sims, nb) {
                Some(m) => {
                    forced += 1;
                    assert_eq!(m, flow_matching(&sims, na, nb), "{na}x{nb} {sims:?}");
                }
                None => unforced += 1,
            }
        }
        assert!(
            forced > 300 && unforced > 20,
            "{forced} forced, {unforced} not"
        );

        // All-zero rows around a single cell.
        let sims = [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(forced_matching(&sims, 3), Some(vec![(1, 1, 0.5)]));
        assert_eq!(flow_matching(&sims, 3, 3), vec![(1, 1, 0.5)]);
        // Exactly equal values on a diagonal.
        let sims = [0.5, 0.0, 0.0, 0.5];
        let diagonal = vec![(0, 0, 0.5), (1, 1, 0.5)];
        assert_eq!(forced_matching(&sims, 2), Some(diagonal.clone()));
        assert_eq!(flow_matching(&sims, 2, 2), diagonal);
        // Not forced: row 0 has two candidates, and taking its best cell
        // (0.6) would lose the better anti-diagonal (0.5 + 0.5).
        let sims = [0.6, 0.5, 0.5, 0.0];
        assert_eq!(forced_matching(&sims, 2), None);
        assert_eq!(flow_matching(&sims, 2, 2), vec![(0, 1, 0.5), (1, 0, 0.5)]);
    }

    /// A table with `n` columns whose column `k` holds `col{k}-a`,
    /// `col{k}-b` — except column `countries`, which repeats table 0's
    /// countries.
    fn wide_table(id: u32, n: usize, countries: usize) -> WebTable {
        let headers: Vec<String> = (0..n).map(|k| format!("h{k}")).collect();
        let cols: Vec<Vec<String>> = (0..n)
            .map(|k| match k {
                _ if k == countries => vec!["India".into(), "Japan".into()],
                _ => vec![format!("col{k}-a"), format!("col{k}-b")],
            })
            .collect();
        make(
            id,
            headers.iter().map(String::as_str).collect(),
            cols.iter()
                .map(|c| c.iter().map(String::as_str).collect())
                .collect(),
        )
    }

    #[test]
    fn bitmask_index_admits_exactly_the_pairs_sharing_a_signature() {
        let stats = CorpusStats::new();
        let mut tables = mixed_tables();
        tables.push(wide_table(4, 70, 65));
        let mut feats: Vec<TableFeatures> = tables
            .iter()
            .map(|t| TableFeatures::compute(t, &stats, 0.3))
            .collect();
        // A forced hash collision: table 3's "Symbol" column (Fe, Au)
        // claims the signature of one of table 0's currencies.
        let stolen = feats[0].interned.as_ref().unwrap().value_sigs[1][0];
        let sigs = &mut feats[3].interned.as_mut().unwrap().value_sigs[1];
        sigs.push(stolen);
        sigs.sort_unstable();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .zip(feats)
            .map(|(t, f)| TableView::with_features(t, Arc::new(f)))
            .collect();
        let shares = |i: usize, ca: usize, j: usize, cb: usize| {
            let sigs = |v: &TableView<'_>, c: usize| -> std::collections::HashSet<u64> {
                let f = v.interned().unwrap();
                f.value_sigs[c]
                    .iter()
                    .chain(&f.header_sigs[c])
                    .copied()
                    .collect()
            };
            !sigs(&views[i], ca).is_disjoint(&sigs(&views[j], cb))
        };
        let index = AdmitIndex::build(&views).unwrap();
        for i in 0..views.len() {
            for j in (i + 1)..views.len() {
                let (na, nb) = (views[i].n_cols(), views[j].n_cols());
                let Some(masks) = index.pair(i, j) else {
                    assert_eq!(j, 4, "only the 70-column table is scored densely");
                    continue;
                };
                for ca in 0..na {
                    for cb in 0..nb {
                        let admitted = (masks[ca] >> cb) & 1 == 1;
                        assert_eq!(admitted, shares(i, ca, j, cb), "({i},{ca})~({j},{cb})");
                    }
                }
            }
        }
        assert_eq!(index.pair(0, 3).unwrap()[1], 0b10, "the collision admits");

        // Admission (collision and dense wide table included) is exact.
        let oracle: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new_oracle(t, &stats, 0.3))
            .collect();
        let (indexed, _) = build_edges_with(&views, &cfg(), None, None).unwrap();
        let (dense, _) = build_edges_with(&oracle, &cfg(), None, None).unwrap();
        assert!(indexed.iter().any(|e| e.a == (0, 0) && e.b == (4, 65)));
        assert_eq!(indexed.len(), dense.len());
        for (a, b) in indexed.iter().zip(&dense) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
    }

    /// Asserts two edge lists are bit-for-bit the same.
    fn assert_same_edges(got: &[ColumnEdge], want: &[ColumnEdge], context: &str) {
        assert_eq!(got.len(), want.len(), "{context}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!((a.a, a.b), (b.a, b.b), "{context}");
            assert_eq!(a.sim.to_bits(), b.sim.to_bits(), "{context}");
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits(), "{context}");
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits(), "{context}");
        }
    }

    #[test]
    fn pair_counters_cover_every_visited_cell_across_premap_and_final_map() {
        let stats = CorpusStats::new();
        let mut tables = mixed_tables();
        tables.push(wide_table(4, 70, 65));
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let cells = |n: usize| -> u64 {
            let mut sum = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    sum += (views[i].n_cols() * views[j].n_cols()) as u64;
                }
            }
            sum
        };
        let total = |s: &EdgeStats| s.pairs_scored + s.pairs_skipped + s.pairs_memoized;
        let (reference, plain) = build_edges_with(&views, &cfg(), None, None).unwrap();
        assert_eq!(total(&plain), cells(5));
        assert_eq!(plain.pairs_memoized, 0);

        // Two requests over one engine-wide memo, each mapping its first
        // three tables (premap) and then all five (final map). The final
        // map replays the premap's three pairs from the memo.
        let memo = PairMemo::for_config(&cfg());
        for request in 0..2 {
            let (_, pre) = build_edges_with(&views[..3], &cfg(), None, Some(&memo)).unwrap();
            assert_eq!(total(&pre), cells(3), "request {request}");
            let replayed = if request == 0 { 0 } else { cells(3) };
            assert_eq!(pre.pairs_memoized, replayed, "request {request}");
            let (edges, fin) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
            assert_eq!(total(&fin), cells(5), "request {request}");
            let replayed = if request == 0 { cells(3) } else { cells(5) };
            assert_eq!(fin.pairs_memoized, replayed, "request {request}");
            assert_same_edges(&edges, &reference, &format!("request {request}"));
        }
        assert_eq!(memo.entries(), 10, "every pair is memoized");
    }

    #[test]
    fn pair_memo_keeps_learning_past_the_old_cap() {
        // 400 one-column tables in 7 groups sharing a value and a header:
        // 79 800 pairs, past the 65 536 a memo once stopped learning at.
        let stats = CorpusStats::new();
        let cells: Vec<(String, String)> = (0..400)
            .map(|t| (format!("h{}", t % 7), format!("v{}", t % 7)))
            .collect();
        let tables: Vec<WebTable> = cells
            .iter()
            .enumerate()
            .map(|(t, (h, v))| make(t as u32, vec![h], vec![vec![v.as_str()]]))
            .collect();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let pairs: u64 = 400 * 399 / 2;
        let memo = PairMemo::for_config(&cfg());
        let (first, cold) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
        assert_eq!(cold.pairs_scored + cold.pairs_skipped, pairs);
        assert!(cold.pairs_scored > 0 && cold.pairs_skipped > 0, "{cold:?}");
        assert_eq!(memo.entries(), pairs as usize);
        let (second, warm) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
        assert_eq!(warm.pairs_scored, 0, "{warm:?}");
        assert_eq!(warm.pairs_skipped, 0, "{warm:?}");
        assert_eq!(warm.pairs_memoized, pairs);
        assert!(!first.is_empty());
        assert_same_edges(&second, &first, "second visit");
    }

    /// A seeded table pool with overlapping values and headers, so pairs
    /// match zero to several columns.
    fn seeded_tables(n: u32, state: &mut u64) -> Vec<WebTable> {
        let mut next = |k: u64| splitmix(state) % k;
        (0..n)
            .map(|id| {
                let n_cols = 1 + next(4) as usize;
                let headers: Vec<String> = (0..n_cols).map(|_| format!("h{}", next(5))).collect();
                let cols: Vec<Vec<String>> = (0..n_cols)
                    .map(|_| {
                        let domain = next(4);
                        (0..3).map(|_| format!("d{domain}-{}", next(6))).collect()
                    })
                    .collect();
                make(
                    id,
                    headers.iter().map(String::as_str).collect(),
                    cols.iter()
                        .map(|c| c.iter().map(String::as_str).collect())
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn pair_memo_eviction_is_exact() {
        // A stripe keeps the current generation, falls back to the
        // previous one, promotes its hits, and forgets the generation
        // before that.
        let budget = Budget {
            pairs: 1,
            matches: 4,
        };
        let mut stripe = Stripe::default();
        let mut out = Vec::new();
        stripe.insert(1, &[(0, 1, 0.5)], budget);
        stripe.insert(2, &[(1, 0, 0.25), (2, 2, 0.75)], budget);
        assert!(stripe.get(1, &mut out, budget), "previous generation hit");
        assert_eq!(out, [(0, 1, 0.5)]);
        stripe.insert(3, &[], budget);
        assert!(!stripe.get(2, &mut out, budget), "two rotations evict");
        assert!(
            stripe.get(1, &mut out, budget),
            "the promoted pair survives"
        );
        assert_eq!(out, [(0, 1, 0.5)]);
        assert!(stripe.get(3, &mut out, budget) && out.is_empty());
        stripe.insert(4, &[(0, 0, 1.0); 5], budget);
        assert!(!stripe.get(4, &mut out, budget), "a matching over budget");

        // Through edge construction: a memo of one pair per generation
        // rotates all the time, and every build stays bit-identical to a
        // memo-free one.
        let stats = CorpusStats::new();
        let mut state = 0x5EED_E71C_u64;
        let tables = seeded_tables(14, &mut state);
        let memo = PairMemo::with_budget(&cfg(), budget);
        let (mut memoized, mut recomputed, mut edges_seen) = (0, 0, 0);
        for round in 0..60 {
            let mut order: Vec<usize> = (0..tables.len()).collect();
            for k in (1..order.len()).rev() {
                order.swap(k, (splitmix(&mut state) % (k as u64 + 1)) as usize);
            }
            order.truncate(2 + (splitmix(&mut state) % 11) as usize);
            let views: Vec<TableView<'_>> = order
                .iter()
                .map(|&t| TableView::new(&tables[t], &stats, 0.3))
                .collect();
            let (fresh, _) = build_edges_with(&views, &cfg(), None, None).unwrap();
            let (edges, s) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
            assert_same_edges(&edges, &fresh, &format!("round {round} {order:?}"));
            edges_seen += fresh.len();
            memoized += s.pairs_memoized;
            if round > 0 {
                recomputed += s.pairs_scored + s.pairs_skipped;
            }
            assert!(memo.entries() <= 2 * MEMO_STRIPES, "round {round}");
        }
        assert!(edges_seen > 60, "{edges_seen} edges over 60 rounds");
        assert!(memoized > 0, "the memo never replayed");
        assert!(recomputed > 0, "the memo never evicted");
        assert!(!memo
            .stripes
            .iter()
            .all(|s| s.lock().unwrap().previous.is_none()));
    }

    /// Bytes one generation reserves for a table of capacity `pairs` and
    /// arenas of `matches` entries. The standard `HashMap` gives a table
    /// of capacity `pairs` `pairs · 8/7` buckets, rounded up to a power of
    /// two; a bucket is one 16-byte slot and one control byte.
    fn generation_bytes(pairs: usize, matches: usize) -> usize {
        let buckets = (pairs * 8 / 7).next_power_of_two();
        buckets * (size_of::<(u64, u64)>() + 1)
            + matches * (size_of::<[u8; 2]>() + size_of::<f64>())
    }

    /// Bytes the memo's allocated generations reserve, read from their
    /// capacities.
    fn reserved_bytes(memo: &PairMemo) -> usize {
        let mut bytes = 0;
        for stripe in &memo.stripes {
            let stripe = stripe.lock().unwrap();
            for g in stripe.current.iter().chain(&stripe.previous) {
                assert_eq!(g.cols.capacity(), g.sims.capacity());
                bytes += generation_bytes(g.index.capacity(), g.cols.capacity());
            }
        }
        bytes
    }

    #[test]
    fn pair_memo_reserved_bytes_stay_under_the_documented_bound() {
        // The figures the module docs state.
        assert_eq!(generation_bytes(GEN_PAIRS, GEN_MATCHES), 1_130_496);
        let bound = MEMO_STRIPES * 2 * generation_bytes(GEN_PAIRS, GEN_MATCHES);
        assert_eq!(bound, 36_175_872);

        // Matches per pair drawn from the cold working set's shares (0 to
        // 5 matches, cumulative per mille), until every stripe has rotated.
        let cumulative = [105, 225, 598, 944, 995, 1000];
        let memo = PairMemo::for_config(&cfg());
        assert_eq!(reserved_bytes(&memo), 0, "nothing is reserved up front");
        let mut state = 0xB0_0D_u64;
        let mut matched = Vec::new();
        for n in 0u64.. {
            let draw = splitmix(&mut state) % 1000;
            let len = cumulative.iter().position(|&c| draw < c).unwrap();
            matched.clear();
            matched.extend((0..len as u8).map(|c| (c, c, 0.5)));
            memo.insert(splitmix(&mut state), &matched);
            if n % 4096 == 0 {
                let reserved = reserved_bytes(&memo);
                assert!(reserved <= bound, "{reserved} > {bound} after {n} inserts");
                let rotated = memo.stripes.iter().all(|s| {
                    let s = s.lock().unwrap();
                    s.previous
                        .as_ref()
                        .is_some_and(|p| p.index.len() > GEN_PAIRS / 2)
                        && s.current
                            .as_ref()
                            .is_some_and(|c| c.index.len() > GEN_PAIRS / 2)
                });
                if rotated {
                    assert_eq!(reserved, bound, "both generations of every stripe");
                    break;
                }
            }
        }
    }

    #[test]
    fn pairs_of_tables_too_wide_for_the_memo_are_recomputed_exactly() {
        let stats = CorpusStats::new();
        let mut tables = mixed_tables();
        // Column 270 needs more than a byte; it matches table 0's
        // countries, so a truncated id would land on the wrong column.
        tables.push(wide_table(4, 300, 270));
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let (reference, _) = build_edges_with(&views, &cfg(), None, None).unwrap();
        assert!(reference.iter().any(|e| e.a == (0, 0) && e.b == (4, 270)));
        let narrow_cells = (2 * 2 + 2 + 2 * 2 + 2 + 2 * 2 + 2) as u64;
        let wide_cells = 300 * (2 + 2 + 1 + 2);
        let memo = PairMemo::for_config(&cfg());
        for visit in 0..3 {
            let (edges, s) = build_edges_with(&views, &cfg(), None, Some(&memo)).unwrap();
            assert_same_edges(&edges, &reference, &format!("visit {visit}"));
            if visit > 0 {
                assert_eq!(s.pairs_memoized, narrow_cells, "visit {visit}");
                assert_eq!(
                    s.pairs_scored + s.pairs_skipped,
                    wide_cells,
                    "visit {visit}"
                );
            }
        }
        assert_eq!(memo.entries(), 6, "only the narrow pairs are memoized");
    }
}
