//! The immutable fielded inverted index and its query operations.
//!
//! The query path is fully **interned**: postings are a dense vector
//! indexed by [`TermId`] (one string-hash per query token resolves it to
//! an id, everything after is integer indexing), per-term IDF and
//! per-posting `√tf` / per-doc `√(len+1)` are precomputed at freeze, and
//! ranked probes score into a reusable dense accumulator with bounded-heap
//! top-k selection. All arithmetic keeps the exact operand values and
//! association order of the classic string-keyed formulation, so scores —
//! and therefore answers — are bit-identical to it.

use crate::docset_cache::DocsetCache;
use crate::field::Field;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use wwt_model::TableId;
use wwt_text::{CorpusStats, TermDict, TermId};

/// Conjunctive doc-set probes over a table corpus — the index operations
/// the PMI² feature (§3.2.3) consumes. Implemented by [`TableIndex`]
/// (single partition) and [`crate::ShardedIndex`] (hash-partitioned); the
/// column mapper takes `&dyn DocSets` so it works against either without
/// knowing the partitioning.
///
/// Implementations must return *mutually consistent* doc ids: the ids of
/// two probe results intersect correctly. Ids from different
/// implementations (or differently sharded indexes) are not comparable.
pub trait DocSets: Send + Sync {
    /// Sorted ids of documents containing **all** of `tokens` in the
    /// union of `fields`.
    fn docs_with_all(&self, tokens: &[String], fields: &[Field]) -> Arc<Vec<u32>>;
}

/// One posting: a document, its term frequency, and the `√tf` the scorer
/// multiplies by (precomputed at freeze so the hot loop never calls
/// `sqrt`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Posting {
    pub(crate) doc: u32,
    pub(crate) tf: u32,
    pub(crate) sqrt_tf: f64,
}

/// Per-term postings: for each field, a doc-ordered list of postings.
/// Docs are internal dense ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Postings {
    pub(crate) per_field: [Vec<Posting>; 3],
}

impl Postings {
    /// Sorted doc ids of the union of the given fields.
    pub(crate) fn docs_in_fields(&self, fields: &[Field]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for f in fields {
            let list = &self.per_field[f.dense()];
            out = union_sorted(&out, list.iter().map(|p| p.doc));
        }
        out
    }
}

fn union_sorted(a: &[u32], b: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut ai = 0;
    for d in b {
        while ai < a.len() && a[ai] < d {
            out.push(a[ai]);
            ai += 1;
        }
        if ai < a.len() && a[ai] == d {
            ai += 1;
        }
        out.push(d);
    }
    out.extend_from_slice(&a[ai..]);
    out
}

pub(crate) fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// A ranked retrieval result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching table.
    pub table: TableId,
    /// TF-IDF score with field boosts applied; higher is better.
    pub score: f64,
}

impl SearchHit {
    /// **The** ranking order of every probe: score descending, ties
    /// broken by ascending [`TableId`]. A total order over distinct
    /// tables — which is exactly what makes per-shard top-k lists merge
    /// back into the unsharded ranking byte-for-byte, so every sorter
    /// (single-index search, facade merge, engine scatter-gather) must
    /// call this one comparator rather than respell it.
    pub fn rank_order(a: &SearchHit, b: &SearchHit) -> Ordering {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then(a.table.cmp(&b.table))
    }
}

/// `SearchHit` wrapped so a `BinaryHeap` orders it by [`SearchHit::
/// rank_order`] with the **worst** hit on top — the shape a bounded
/// top-k selection peeks at.
struct WorstOnTop(SearchHit);

impl PartialEq for WorstOnTop {
    fn eq(&self, other: &Self) -> bool {
        SearchHit::rank_order(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for WorstOnTop {}
impl PartialOrd for WorstOnTop {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstOnTop {
    fn cmp(&self, other: &Self) -> Ordering {
        // rank_order sorts best-first (Less = ranks earlier), so the
        // rank-latest element is the heap maximum.
        SearchHit::rank_order(&self.0, &other.0)
    }
}

/// Selects the `k` best hits under [`SearchHit::rank_order`] and returns
/// them rank-sorted — identical output to "sort everything, truncate to
/// k", without the full sort: a bounded heap of the current top k absorbs
/// the candidate stream in O(n log k).
pub(crate) fn top_k(hits: impl IntoIterator<Item = SearchHit>, k: usize) -> Vec<SearchHit> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<WorstOnTop> = BinaryHeap::with_capacity(k + 1);
    for hit in hits {
        if heap.len() < k {
            heap.push(WorstOnTop(hit));
        } else if let Some(worst) = heap.peek() {
            if SearchHit::rank_order(&hit, &worst.0) == Ordering::Less {
                heap.pop();
                heap.push(WorstOnTop(hit));
            }
        }
    }
    let mut out: Vec<SearchHit> = heap.into_iter().map(|w| w.0).collect();
    out.sort_by(SearchHit::rank_order);
    out
}

/// Reusable per-thread scoring scratch: a dense score accumulator with an
/// epoch tag per slot (so "clearing" between probes is one counter bump,
/// not an O(n_docs) memset) plus the list of touched docs.
#[derive(Default)]
struct ScoreScratch {
    scores: Vec<f64>,
    epoch_of: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
}

impl ScoreScratch {
    fn begin(&mut self, n_docs: usize) {
        if self.scores.len() < n_docs {
            self.scores.resize(n_docs, 0.0);
            self.epoch_of.resize(n_docs, 0);
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Adds `contrib` to `doc`'s accumulator, registering first touches.
    #[inline]
    fn add(&mut self, doc: u32, contrib: f64) {
        let d = doc as usize;
        if self.epoch_of[d] == self.epoch {
            self.scores[d] += contrib;
        } else {
            self.epoch_of[d] = self.epoch;
            self.scores[d] = contrib;
            self.touched.push(doc);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::default());
}

/// The immutable fielded index over a table corpus.
///
/// Built with [`crate::IndexBuilder`]; every query-side operation takes
/// `&self`, so the index can be shared across threads (`Sync`).
#[derive(Debug)]
pub struct TableIndex {
    /// The interned vocabulary. Shards of a [`crate::ShardedIndex`] share
    /// one *global* dictionary, so a term id means the same thing in
    /// every shard.
    pub(crate) dict: Arc<TermDict>,
    /// `postings[term_id]`; `None` for vocabulary terms absent from this
    /// partition (a multi-shard layout leaves most global terms out of
    /// each shard).
    pub(crate) postings: Vec<Option<Box<Postings>>>,
    /// Number of terms present (`Some`) in `postings`.
    pub(crate) n_terms: usize,
    /// Internal doc id → table id.
    pub(crate) doc_tables: Vec<TableId>,
    /// Per doc, per field: number of tokens (for length normalization).
    pub(crate) field_lens: Vec<[u32; 3]>,
    /// Per doc, per field: `√(len + 1)`, the scorer's denominator,
    /// precomputed at freeze.
    pub(crate) field_norms: Vec<[f64; 3]>,
    /// Corpus document-frequency statistics over all fields combined.
    /// `Arc`-shared so the shards of a [`crate::ShardedIndex`] can score
    /// against one *global* statistics table without N copies of it.
    pub(crate) stats: Arc<CorpusStats>,
    /// `idf[term_id]`, aligned with `dict` — bit-identical to
    /// `stats.idf(term)`, precomputed so the scorer neither hashes nor
    /// takes a logarithm. Shared across shards like `stats`.
    pub(crate) idf: Arc<Vec<f64>>,
    /// Memo for `docs_with_all` (PMI² issues many repeated probes).
    docset_cache: DocsetCache,
}

impl TableIndex {
    /// Assembles an index from interned parts. `postings` must be aligned
    /// with `dict` and doc-sorted per field; `idf[id]` must equal
    /// `stats.idf(dict.term(id))` bit for bit.
    pub(crate) fn from_interned_parts(
        dict: Arc<TermDict>,
        postings: Vec<Option<Box<Postings>>>,
        doc_tables: Vec<TableId>,
        field_lens: Vec<[u32; 3]>,
        stats: Arc<CorpusStats>,
        idf: Arc<Vec<f64>>,
    ) -> Self {
        let n_terms = postings.iter().filter(|p| p.is_some()).count();
        let field_norms = field_lens
            .iter()
            .map(|lens| {
                let mut norms = [0.0f64; 3];
                for (n, &len) in norms.iter_mut().zip(lens) {
                    *n = (len as f64 + 1.0).sqrt();
                }
                norms
            })
            .collect();
        TableIndex {
            dict,
            postings,
            n_terms,
            doc_tables,
            field_lens,
            field_norms,
            stats,
            idf,
            docset_cache: DocsetCache::default(),
        }
    }

    /// The shared statistics handle.
    pub(crate) fn stats_arc(&self) -> Arc<CorpusStats> {
        Arc::clone(&self.stats)
    }

    /// The shared vocabulary handle.
    pub(crate) fn dict_arc(&self) -> Arc<TermDict> {
        Arc::clone(&self.dict)
    }

    /// Number of indexed tables.
    pub fn n_docs(&self) -> usize {
        self.doc_tables.len()
    }

    /// The table id of every indexed document, in internal doc order —
    /// the set a backing table store must be able to resolve.
    pub fn table_ids(&self) -> &[TableId] {
        &self.doc_tables
    }

    /// Corpus statistics (shared IDF source for all features).
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// Vocabulary size: terms with postings in *this* index (for a shard,
    /// its local vocabulary, not the global dictionary's).
    pub fn vocab_size(&self) -> usize {
        self.n_terms
    }

    /// Resolves query tokens to term ids: first occurrence kept (the
    /// probe is a set-of-keywords union), duplicates and
    /// out-of-vocabulary tokens dropped — exactly the tokens the scorer
    /// would skip anyway. One string hash per token, here and nowhere
    /// else on the ranked-probe path.
    pub fn resolve_query(&self, tokens: &[String]) -> Vec<TermId> {
        resolve_query_ids(&self.dict, tokens)
    }

    /// OR-keyword probe: returns up to `k` tables scored by boosted
    /// TF-IDF, descending (ties broken by table id for determinism).
    ///
    /// `score(d) = Σ_f boost(f) · Σ_t idf(t) · √tf(d,f,t) / √(len_f(d)+1)`
    pub fn search(&self, tokens: &[String], k: usize) -> Vec<SearchHit> {
        self.search_ids(&self.weigh(&self.resolve_query(tokens)), k)
    }

    /// Pairs resolved term ids with this index's own IDF — the weighted
    /// terms [`TableIndex::search_ids`] scores.
    pub(crate) fn weigh(&self, ids: &[TermId]) -> Vec<(TermId, f64)> {
        ids.iter().map(|&id| (id, self.idf[id.index()])).collect()
    }

    /// [`TableIndex::search`] over pre-resolved terms, each with the IDF
    /// it scores at: the facade and the engine resolve once and probe
    /// every shard with the same weighted ids, and the live delta passes
    /// IDF merged across its segments and the frozen corpus.
    pub fn search_ids(&self, terms: &[(TermId, f64)], k: usize) -> Vec<SearchHit> {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.begin(self.doc_tables.len());
            for &(id, idf) in terms {
                let Some(post) = &self.postings[id.index()] else {
                    continue;
                };
                for f in Field::ALL {
                    // Same association order as the classic expression
                    // `boost * idf * √tf / √(len+1)`: hoisting the first
                    // product out of the loop reorders nothing.
                    let boost_idf = f.boost() * idf;
                    for p in &post.per_field[f.dense()] {
                        let contrib =
                            boost_idf * p.sqrt_tf / self.field_norms[p.doc as usize][f.dense()];
                        scratch.add(p.doc, contrib);
                    }
                }
            }
            let scratch = &*scratch;
            top_k(
                scratch.touched.iter().map(|&doc| SearchHit {
                    table: self.doc_tables[doc as usize],
                    score: scratch.scores[doc as usize],
                }),
                k,
            )
        })
    }

    /// Resolves a conjunctive probe to its canonical memo key: sorted,
    /// deduplicated term ids. `None` when a token is out of vocabulary —
    /// the conjunction is then empty by definition.
    pub(crate) fn resolve_all(&self, tokens: &[String]) -> Option<Vec<u32>> {
        resolve_conjunction_ids(&self.dict, tokens)
    }

    /// Tables containing **all** of `tokens` in the union of `fields`
    /// (conjunctive probe). This realizes `H(Qℓ)` (fields = header,
    /// context) and `B(cell)` (fields = content) of the PMI² feature.
    ///
    /// Returns the count only via `.len()` of the shared vector; results
    /// are memoized because PMI² re-probes the same cell values often.
    pub fn docs_with_all(&self, tokens: &[String], fields: &[Field]) -> Arc<Vec<u32>> {
        let Some(ids) = self.resolve_all(tokens) else {
            return Arc::new(Vec::new());
        };
        let key = (ids.into_boxed_slice(), field_mask(fields));
        if let Some(hit) = self.docset_cache.get(&key) {
            return hit;
        }
        let result = Arc::new(self.docs_with_all_ids(&key.0, fields));
        self.docset_cache.insert(key, Arc::clone(&result));
        result
    }

    /// The probe behind [`TableIndex::docs_with_all`], skipping the memo
    /// entirely. A multi-shard [`crate::ShardedIndex`] memoizes at the
    /// facade (where results are relabeled), so caching here too would
    /// only double the resident memory of every distinct PMI probe.
    /// `ids` must already be sorted and deduplicated.
    pub(crate) fn docs_with_all_ids(&self, ids: &[u32], fields: &[Field]) -> Vec<u32> {
        let mut acc: Option<Vec<u32>> = None;
        for &id in ids {
            let docs = match &self.postings[id as usize] {
                Some(p) => p.docs_in_fields(fields),
                None => Vec::new(),
            };
            acc = Some(match acc {
                None => docs,
                Some(prev) => intersect_sorted(&prev, &docs),
            });
            if acc.as_ref().map(Vec::is_empty).unwrap_or(false) {
                break;
            }
        }
        acc.unwrap_or_default()
    }

    /// Entries resident in this index's doc-set memo.
    pub fn docset_cache_entries(&self) -> usize {
        self.docset_cache.entries()
    }

    /// The table id of an internal doc id (used by persistence tests).
    pub fn table_of_doc(&self, doc: u32) -> TableId {
        self.doc_tables[doc as usize]
    }
}

/// The field bitmask of a probe (part of the memo key).
pub(crate) fn field_mask(fields: &[Field]) -> u8 {
    fields.iter().fold(0, |m, f| m | (1 << f.dense()))
}

/// Shared resolver behind [`TableIndex::resolve_query`] (order-preserving
/// dedup for ranked probes).
pub(crate) fn resolve_query_ids(dict: &TermDict, tokens: &[String]) -> Vec<TermId> {
    let mut seen = std::collections::HashSet::with_capacity(tokens.len());
    let mut ids = Vec::with_capacity(tokens.len());
    for t in tokens {
        if let Some(id) = dict.lookup(t) {
            if seen.insert(id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// Shared resolver for conjunctive probes: sorted + deduplicated ids, or
/// `None` when any token is out of vocabulary (the conjunction is empty).
pub(crate) fn resolve_conjunction_ids(dict: &TermDict, tokens: &[String]) -> Option<Vec<u32>> {
    let mut ids = Vec::with_capacity(tokens.len());
    for t in tokens {
        ids.push(dict.lookup(t)?.0);
    }
    ids.sort_unstable();
    ids.dedup();
    Some(ids)
}

impl DocSets for TableIndex {
    fn docs_with_all(&self, tokens: &[String], fields: &[Field]) -> Arc<Vec<u32>> {
        TableIndex::docs_with_all(self, tokens, fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use wwt_model::{ContextSnippet, WebTable};

    fn table(id: u32, header: &str, context: &str, cells: &[&str]) -> WebTable {
        WebTable::new(
            TableId(id),
            "u",
            None,
            vec![header.split(',').map(str::to_string).collect()],
            vec![cells.iter().map(|s| s.to_string()).collect()],
            vec![ContextSnippet::new(context, 0.8)],
        )
        .unwrap()
    }

    fn index() -> TableIndex {
        let mut b = IndexBuilder::new();
        b.add_table(&table(
            0,
            "country,currency",
            "list of currencies",
            &["india", "rupee"],
        ));
        b.add_table(&table(
            1,
            "country,population",
            "world population",
            &["india", "1.2b"],
        ));
        b.add_table(&table(
            2,
            "name,area",
            "forest reserves",
            &["hills", "2236"],
        ));
        b.build()
    }

    fn toks(s: &str) -> Vec<String> {
        wwt_text::tokenize(s)
    }

    /// The string-keyed scorer the interned path replaced, kept as a test
    /// oracle: every probe must reproduce it bit for bit.
    fn search_oracle(idx: &TableIndex, tokens: &[String], k: usize) -> Vec<SearchHit> {
        let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        let mut seen: Vec<&str> = Vec::new();
        for t in tokens {
            if seen.contains(&t.as_str()) {
                continue;
            }
            seen.push(t);
            let Some(id) = idx.dict.lookup(t) else {
                continue;
            };
            let Some(post) = &idx.postings[id.index()] else {
                continue;
            };
            let idf = idx.stats.idf(t);
            for f in Field::ALL {
                for p in &post.per_field[f.dense()] {
                    let len = idx.field_lens[p.doc as usize][f.dense()] as f64;
                    let contrib = f.boost() * idf * (p.tf as f64).sqrt() / (len + 1.0).sqrt();
                    *scores.entry(p.doc).or_insert(0.0) += contrib;
                }
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit {
                table: idx.doc_tables[doc as usize],
                score,
            })
            .collect();
        hits.sort_by(SearchHit::rank_order);
        hits.truncate(k);
        hits
    }

    #[test]
    fn keyword_probe_ranks_matches_first() {
        let idx = index();
        let hits = idx.search(&toks("country currency"), 10);
        assert_eq!(hits[0].table, TableId(0));
        assert!(hits.iter().any(|h| h.table == TableId(1))); // matches "country"
        assert!(hits.iter().all(|h| h.table != TableId(2)));
    }

    #[test]
    fn interned_probe_matches_string_oracle_bit_for_bit() {
        let idx = index();
        for probe in [
            "country currency",
            "country country currency india",
            "india rupee population forest",
            "unknown zzz country",
            "",
        ] {
            for k in [1usize, 2, 10] {
                let a = idx.search(&toks(probe), k);
                let b = search_oracle(&idx, &toks(probe), k);
                assert_eq!(a.len(), b.len(), "probe {probe:?} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.table, y.table, "probe {probe:?} k={k}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "score drift for {probe:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn header_boost_outranks_content_match() {
        let mut b = IndexBuilder::new();
        // "rupee" in header of t0, in content of t1; equal lengths.
        b.add_table(&table(0, "rupee,rate", "x y", &["a", "b"]));
        b.add_table(&table(1, "name,rate", "x y", &["rupee", "b"]));
        let idx = b.build();
        let hits = idx.search(&toks("rupee"), 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].table, TableId(0));
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn k_truncates() {
        let idx = index();
        assert_eq!(idx.search(&toks("country"), 1).len(), 1);
        assert!(idx.search(&toks("zzz-unknown"), 5).is_empty());
        assert!(idx.search(&toks("country"), 0).is_empty());
    }

    #[test]
    fn duplicate_query_tokens_do_not_double_count() {
        let idx = index();
        let once = idx.search(&toks("currency"), 10);
        let twice = idx.search(&toks("currency currency"), 10);
        assert_eq!(once.len(), twice.len());
        assert!((once[0].score - twice[0].score).abs() < 1e-12);
    }

    #[test]
    fn top_k_selects_like_full_sort() {
        let hits: Vec<SearchHit> = (0..40u32)
            .map(|i| SearchHit {
                table: TableId(i),
                // Repeating scores exercise the id tie-break.
                score: f64::from(i % 7),
            })
            .collect();
        for k in [0usize, 1, 5, 39, 40, 100] {
            let mut full = hits.clone();
            full.sort_by(SearchHit::rank_order);
            full.truncate(k);
            let heap = top_k(hits.iter().copied(), k);
            assert_eq!(heap.len(), full.len(), "k={k}");
            for (a, b) in heap.iter().zip(&full) {
                assert_eq!(a.table, b.table, "k={k}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn resolve_query_dedups_and_drops_unknown() {
        let idx = index();
        let ids = idx.resolve_query(&toks("country zzz currency country"));
        assert_eq!(ids.len(), 2);
        assert_eq!(idx.dict.term(ids[0]), "country");
        assert_eq!(idx.dict.term(ids[1]), "currency");
    }

    #[test]
    fn docs_with_all_conjunctive() {
        let idx = index();
        // "country" appears in headers of t0 and t1.
        let hc = [Field::Header, Field::Context];
        assert_eq!(idx.docs_with_all(&toks("country"), &hc).len(), 2);
        // "country currency" only in t0.
        assert_eq!(idx.docs_with_all(&toks("country currency"), &hc).len(), 1);
        // "india" is content-only.
        assert_eq!(idx.docs_with_all(&toks("india"), &hc).len(), 0);
        assert_eq!(
            idx.docs_with_all(&toks("india"), &[Field::Content]).len(),
            2
        );
        // unknown token kills the intersection.
        assert_eq!(idx.docs_with_all(&toks("country zebra"), &hc).len(), 0);
    }

    #[test]
    fn docs_with_all_memoized() {
        let idx = index();
        let a = idx.docs_with_all(&toks("country"), &[Field::Header]);
        let b = idx.docs_with_all(&toks("country"), &[Field::Header]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(idx.docset_cache_entries() >= 1);
    }

    #[test]
    fn sorted_set_helpers() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(
            union_sorted(&[1, 4], [2, 4, 6].into_iter()),
            vec![1, 2, 4, 6]
        );
        assert_eq!(union_sorted(&[], [1, 2].into_iter()), vec![1, 2]);
        assert_eq!(union_sorted(&[1, 2], std::iter::empty()), vec![1, 2]);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut b = IndexBuilder::new();
        b.add_table(&table(5, "alpha,beta", "c c", &["x", "y"]));
        b.add_table(&table(3, "alpha,beta", "c c", &["x", "y"]));
        let idx = b.build();
        let hits = idx.search(&toks("alpha"), 10);
        assert_eq!(hits[0].table, TableId(3));
        assert_eq!(hits[1].table, TableId(5));
    }
}
