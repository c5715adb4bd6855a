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
//! when the floor exceeds [`FORCED_MIN_SIM`]. The cells are then emitted
//! in row order, exactly as the solver's assignment is read.
//!
//! # The cross-query pair memo
//!
//! A table pair's matched columns are a pure function of the two tables
//! and two mapper parameters (`min_column_sim`, `content_sim_mix`) — the
//! query never enters [`match_columns`]. An engine therefore shares one
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
//! A query maps its candidates twice: the stage-1 premap, then — when
//! the second probe adds tables — the final map over stage 1 ++ stage 2,
//! which revisits every stage-1 pair in the same relative order. A
//! request-scoped memo ([`PairMemo::scoped`]) carries the premap's
//! matchings into the final map even once the engine-wide memo is full:
//! it is consulted before its parent, records every matching the request
//! computes or replays, and forwards new ones to the parent.

use crate::config::MapperConfig;
use crate::view::{InternedFeatures, TableView};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
/// Per-stripe entry cap. Inserts beyond it are dropped (never evicted):
/// the memo is an accelerator, not a source of truth, and a bounded one
/// cannot grow without limit on a hostile workload. The cost is that an
/// engine-wide memo saturates: at corpus scale 10 (19 170 tables) its
/// 65 536 entries are full within the first ~100 cold queries, and it
/// learns no new pair after that.
const MEMO_STRIPE_CAP: usize = 4096;

/// Smallest `min_column_sim` for which [`match_columns`] trusts a forced
/// matching without running the flow (see "Forced matchings" in the
/// module docs): three orders of magnitude above the solver's 1e-12
/// relaxation slack.
const FORCED_MIN_SIM: f64 = 1e-9;

/// One table pair's matched `(col_a, col_b, sim)` list, as memoized.
type Matched = Arc<Vec<(u32, u32, f64)>>;

/// Cross-query memo of per-table-pair column matchings keyed by the
/// `(table id, table id)` pair in visit order (see the module docs for
/// the exactness argument). Shared by reference through
/// [`crate::mapper::ColumnMapper::pair_memo`].
#[derive(Debug)]
pub struct PairMemo {
    /// Bit patterns of the two [`MapperConfig`] fields the cached
    /// matchings depend on; a mismatching mapper bypasses the memo.
    min_sim_bits: u64,
    mix_bits: u64,
    stripes: Vec<Mutex<HashMap<(u32, u32), Matched>>>,
    /// The engine-wide memo behind a request-scoped one: consulted after
    /// this memo's own entries and sent every matching computed here.
    parent: Option<Arc<PairMemo>>,
    /// Lookups answered by this memo's own entries (not its parent's).
    own_hits: AtomicU64,
}

impl PairMemo {
    /// An empty memo fingerprinted for `cfg`'s similarity parameters.
    pub fn for_config(cfg: &MapperConfig) -> Self {
        Self::new(
            cfg.min_column_sim.to_bits(),
            cfg.content_sim_mix.to_bits(),
            None,
        )
    }

    /// An empty request-scoped memo in front of `parent` (same
    /// fingerprint). It records every matching it hands out — computed,
    /// or replayed from the parent — so a later map in the same request
    /// replays them whatever the parent kept; see the module docs.
    pub fn scoped(parent: &Arc<PairMemo>) -> Self {
        Self::new(
            parent.min_sim_bits,
            parent.mix_bits,
            Some(Arc::clone(parent)),
        )
    }

    fn new(min_sim_bits: u64, mix_bits: u64, parent: Option<Arc<PairMemo>>) -> Self {
        PairMemo {
            min_sim_bits,
            mix_bits,
            stripes: (0..MEMO_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            parent,
            own_hits: AtomicU64::new(0),
        }
    }

    /// Lookups answered by this memo's own entries rather than its
    /// parent's. For a request-scoped memo after the final map: the pairs
    /// replayed from the premap.
    pub fn own_hits(&self) -> u64 {
        self.own_hits.load(Ordering::Relaxed)
    }

    /// Whether cached matchings are valid under `cfg` — true iff the two
    /// parameters [`match_columns`] reads are bit-identical.
    pub fn matches(&self, cfg: &MapperConfig) -> bool {
        self.min_sim_bits == cfg.min_column_sim.to_bits()
            && self.mix_bits == cfg.content_sim_mix.to_bits()
    }

    /// Number of memoized table pairs (observability).
    pub fn entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("pair memo stripe poisoned").len())
            .sum()
    }

    fn stripe(&self, key: (u32, u32)) -> &Mutex<HashMap<(u32, u32), Matched>> {
        let h = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1 as u64);
        &self.stripes[(h >> 32) as usize % MEMO_STRIPES]
    }

    fn get(&self, key: (u32, u32)) -> Option<Matched> {
        let own = self
            .stripe(key)
            .lock()
            .expect("pair memo stripe poisoned")
            .get(&key)
            .cloned();
        if own.is_some() {
            self.own_hits.fetch_add(1, Ordering::Relaxed);
            return own;
        }
        let hit = self.parent.as_ref()?.get(key)?;
        self.insert_own(key, Arc::clone(&hit));
        Some(hit)
    }

    fn insert(&self, key: (u32, u32), matched: Matched) {
        if let Some(parent) = &self.parent {
            parent.insert(key, Arc::clone(&matched));
        }
        self.insert_own(key, matched);
    }

    fn insert_own(&self, key: (u32, u32), matched: Matched) {
        let mut map = self.stripe(key).lock().expect("pair memo stripe poisoned");
        if map.len() < MEMO_STRIPE_CAP {
            map.insert(key, matched);
        }
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
    for i in 0..views.len() {
        if let Some(check) = cancel {
            check()?;
        }
        for j in (i + 1)..views.len() {
            let (na, nb) = (views[i].n_cols(), views[j].n_cols());
            let key = (views[i].table.id.0, views[j].table.id.0);
            if let Some(m) = memo {
                if let Some(hit) = m.get(key) {
                    stats.pairs_memoized += (na * nb) as u64;
                    for &(ca, cb, sim) in hit.iter() {
                        raw.push(((i, ca as usize), (j, cb as usize), sim));
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
                    m.insert(key, Matched::default());
                }
                continue;
            }
            let matched = match_columns(&views[i], &views[j], cfg, mask, &mut stats);
            if let Some(m) = memo {
                m.insert(
                    key,
                    Arc::new(
                        matched
                            .iter()
                            .map(|&(ca, cb, sim)| (ca as u32, cb as u32, sim))
                            .collect(),
                    ),
                );
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
    /// `col{k}-b` — except column 65, which repeats table 0's countries.
    fn wide_table(id: u32, n: usize) -> WebTable {
        let headers: Vec<String> = (0..n).map(|k| format!("h{k}")).collect();
        let cols: Vec<Vec<String>> = (0..n)
            .map(|k| match k {
                65 => vec!["India".into(), "Japan".into()],
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
        tables.push(wide_table(4, 70));
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

    #[test]
    fn pair_counters_cover_every_visited_cell_with_and_without_a_carry() {
        let stats = CorpusStats::new();
        let mut tables = mixed_tables();
        tables.push(wide_table(4, 70));
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
        // three tables (premap) and then all five (final map) through a
        // request-scoped memo. The final map replays the premap's three
        // pairs from the carry whether the parent knew them or not.
        let parent = Arc::new(PairMemo::for_config(&cfg()));
        for request in 0..2 {
            let carry = PairMemo::scoped(&parent);
            let (_, pre) = build_edges_with(&views[..3], &cfg(), None, Some(&carry)).unwrap();
            assert_eq!(total(&pre), cells(3), "request {request}");
            let from_parent = if request == 0 { 0 } else { cells(3) };
            assert_eq!(pre.pairs_memoized, from_parent, "request {request}");
            assert_eq!(carry.own_hits(), 0, "request {request}");
            let (edges, fin) = build_edges_with(&views, &cfg(), None, Some(&carry)).unwrap();
            assert_eq!(total(&fin), cells(5), "request {request}");
            assert_eq!(carry.own_hits(), 3, "request {request}");
            let from_parent = if request == 0 { cells(3) } else { cells(5) };
            assert_eq!(fin.pairs_memoized, from_parent, "request {request}");
            assert_eq!(edges.len(), reference.len());
            for (a, b) in edges.iter().zip(&reference) {
                assert_eq!((a.a, a.b), (b.a, b.b));
                assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
                assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
            }
        }
        assert_eq!(parent.entries(), 10, "every pair reached the parent");
    }
}
