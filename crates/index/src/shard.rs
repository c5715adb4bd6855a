//! Hash-partitioned index: N independent [`TableIndex`] shards behind a
//! facade that answers **byte-identically** to the unsharded index.
//!
//! Partitioning is the classic source of silent result drift, so every
//! design choice here serves the equivalence guarantee:
//!
//! * **Global vocabulary and statistics.** The freeze builds one term
//!   dictionary and one merged document-frequency table over the whole
//!   corpus (shared via `Arc`), so a [`wwt_text::TermId`] means the same
//!   thing in every shard and per-shard TF-IDF contributions are
//!   bit-identical to the unsharded index — a document's score is
//!   accumulated in the same token × field order either way
//!   ([`wwt_text::CorpusStats::merge`]).
//! * **Total-order merging.** Each shard returns its own top-k under the
//!   full `(score desc, TableId asc)` comparator; the union of per-shard
//!   top-ks is a superset of the global top-k, and re-sorting it with the
//!   same comparator reproduces the unsharded ranking exactly (ties are
//!   broken by the globally unique table id, never by shard position).
//! * **Consistent doc ids.** Doc-set probes relabel each shard's local
//!   ids into one global id space (`shard base + local id`), so
//!   intersections between two probe results — all PMI² consumes — are
//!   preserved under the relabeling.
//!
//! The assignment of a table to a shard depends only on its [`TableId`]
//! (a seeded SplitMix64 mix — deterministic across runs, platforms and
//! processes), so a persisted sharded layout reloads into the same
//! partitioning that built it.

use crate::builder::{assemble_sharded, IndexBuilder};
use crate::docset_cache::DocsetCache;
use crate::field::Field;
use crate::search::{
    field_mask, resolve_conjunction_ids, resolve_query_ids, DocSets, SearchHit, TableIndex,
};
use std::sync::Arc;
use wwt_model::{TableId, WebTable};
use wwt_text::{CorpusStats, TermDict, TermId};

/// The shard a table id lands in, out of `n_shards`. Deterministic:
/// depends only on the id value, never on process state.
pub fn shard_of(id: TableId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (splitmix64(u64::from(id.0)) % n_shards as u64) as usize
}

/// SplitMix64 finalizer: cheap, well-mixed, and stable across platforms
/// (unlike `DefaultHasher`, whose algorithm is unspecified). Shared with
/// the doc-set memo's stripe selector.
pub(crate) fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Accumulates tables into N hash-partitioned [`IndexBuilder`]s and
/// freezes them into a [`ShardedIndex`] scoring against one merged global
/// vocabulary + statistics.
pub struct ShardedIndexBuilder {
    builders: Vec<IndexBuilder>,
}

impl ShardedIndexBuilder {
    /// A builder partitioning into `n_shards` (clamped to ≥ 1).
    pub fn new(n_shards: usize) -> Self {
        ShardedIndexBuilder {
            builders: (0..n_shards.max(1)).map(|_| IndexBuilder::new()).collect(),
        }
    }

    /// Routes one table to its shard's builder.
    pub fn add_table(&mut self, t: &WebTable) {
        let s = shard_of(t.id, self.builders.len());
        self.builders[s].add_table(t);
    }

    /// Number of documents added so far, across all shards.
    pub fn n_docs(&self) -> usize {
        self.builders.iter().map(IndexBuilder::n_docs).sum()
    }

    /// Number of shards being built.
    pub fn n_shards(&self) -> usize {
        self.builders.len()
    }

    /// Freezes every shard. Per-shard statistics are merged into one
    /// global table first and the vocabulary is interned over it (sorted
    /// term order), so each shard indexes in the *whole corpus's* id
    /// space and scores with its IDF — the linchpin of the equivalence
    /// guarantee. Per-shard freezes fan out over the persistent worker
    /// pool (they are independent and hash-free).
    pub fn build(self) -> ShardedIndex {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.build_with_threads(threads)
    }

    /// [`ShardedIndexBuilder::build`] with an explicit freeze
    /// concurrency (`<= 1` freezes serially). The frozen shards are
    /// assembled in shard order either way, so the resulting index is
    /// identical for every thread count.
    pub fn build_with_threads(mut self, threads: usize) -> ShardedIndex {
        if self.builders.len() == 1 {
            // One shard: its vocabulary *is* the global vocabulary —
            // skip the merge machinery.
            return ShardedIndex::single(self.builders.pop().expect("one builder").build());
        }
        let frozen = if threads <= 1 {
            self.builders
                .into_iter()
                .map(IndexBuilder::freeze)
                .collect()
        } else {
            let slots: Vec<std::sync::Mutex<Option<IndexBuilder>>> = self
                .builders
                .into_iter()
                .map(|b| std::sync::Mutex::new(Some(b)))
                .collect();
            wwt_pool::fan_out(slots.len(), threads, |s| {
                slots[s]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each shard frozen once")
                    .freeze()
            })
        };
        assemble_sharded(frozen)
    }
}

/// N independent [`TableIndex`] shards behind the single-index probe API.
///
/// Ranked probes ([`ShardedIndex::search`], or the per-shard
/// [`ShardedIndex::shard`] + [`ShardedIndex::merge_hits`] pair a caller
/// scatter-gathers with) and doc-set probes ([`ShardedIndex::docs_with_all`])
/// return exactly what a single [`TableIndex`] over the same corpus
/// would — see the module docs for why.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<TableIndex>,
    /// `bases[s]` = number of docs in shards `0..s`: the offset turning a
    /// shard-local doc id into a global one.
    bases: Vec<u32>,
    dict: Arc<TermDict>,
    stats: Arc<CorpusStats>,
    /// Facade-level memo for relabeled doc sets, mirroring the per-shard
    /// memo (PMI² re-probes the same cell values often).
    docset_cache: DocsetCache,
}

impl ShardedIndex {
    pub(crate) fn from_shards(
        shards: Vec<TableIndex>,
        dict: Arc<TermDict>,
        stats: Arc<CorpusStats>,
    ) -> Self {
        assert!(!shards.is_empty(), "a sharded index needs >= 1 shard");
        debug_assert!(
            shards.iter().all(|s| Arc::ptr_eq(&s.dict_arc(), &dict)),
            "every shard must share the facade's dictionary"
        );
        let mut bases = Vec::with_capacity(shards.len());
        let mut base = 0u32;
        for s in &shards {
            bases.push(base);
            base += s.n_docs() as u32;
        }
        ShardedIndex {
            shards,
            bases,
            dict,
            stats,
            docset_cache: DocsetCache::default(),
        }
    }

    /// Wraps one existing index as a single-shard facade (sharing its
    /// vocabulary and statistics — no copies). The facade answers
    /// identically to the wrapped index by construction.
    pub fn single(index: TableIndex) -> Self {
        let dict = index.dict_arc();
        let stats = index.stats_arc();
        Self::from_shards(vec![index], dict, stats)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's index (for scatter-gather callers and persistence).
    pub fn shard(&self, s: usize) -> &TableIndex {
        &self.shards[s]
    }

    /// Total number of indexed tables across all shards.
    pub fn n_docs(&self) -> usize {
        self.shards.iter().map(TableIndex::n_docs).sum()
    }

    /// Global corpus statistics (shared IDF source for all features).
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// The shared handle to the global statistics.
    pub fn stats_arc(&self) -> Arc<CorpusStats> {
        Arc::clone(&self.stats)
    }

    /// The global interned vocabulary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Distinct terms across the whole corpus.
    pub fn vocab_size(&self) -> usize {
        self.dict.len()
    }

    /// The table id of every indexed document, shard by shard (the set a
    /// backing table store must be able to resolve).
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.table_ids().iter().copied())
    }

    /// Resolves ranked-probe tokens against the global dictionary once,
    /// each with its global IDF — the weighted ids every shard's
    /// [`TableIndex::search_ids`] accepts.
    pub fn resolve_query(&self, tokens: &[String]) -> Vec<(TermId, f64)> {
        self.shards[0].weigh(&resolve_query_ids(&self.dict, tokens))
    }

    /// OR-keyword probe over every shard, merged: identical output to
    /// [`TableIndex::search`] on the unsharded corpus. Callers wanting
    /// parallelism resolve once ([`ShardedIndex::resolve_query`]), probe
    /// [`ShardedIndex::shard`]s on their own pool and combine with
    /// [`ShardedIndex::merge_hits`]; this convenience form runs the
    /// shards serially.
    pub fn search(&self, tokens: &[String], k: usize) -> Vec<SearchHit> {
        let ids = self.resolve_query(tokens);
        if self.shards.len() == 1 {
            return self.shards[0].search_ids(&ids, k);
        }
        Self::merge_hits(self.shards.iter().map(|s| s.search_ids(&ids, k)), k)
    }

    /// Merges per-shard top-k hit lists into the global top-k with the
    /// same total order the single index sorts by — score descending,
    /// ties broken by ascending [`TableId`] — so the result is
    /// byte-identical to the unsharded ranking. Each input list must be a
    /// shard's own top-`k` (a shorter prefix could starve the merge).
    pub fn merge_hits(lists: impl IntoIterator<Item = Vec<SearchHit>>, k: usize) -> Vec<SearchHit> {
        let mut all: Vec<SearchHit> = lists.into_iter().flatten().collect();
        all.sort_by(SearchHit::rank_order);
        all.truncate(k);
        all
    }

    /// Conjunctive doc-set probe, relabeled into the facade's global id
    /// space: shard `s`'s local ids are offset by the number of docs in
    /// earlier shards, which keeps each concatenated result sorted and
    /// makes any two results from *this facade* intersect exactly like
    /// the unsharded sets would.
    pub fn docs_with_all(&self, tokens: &[String], fields: &[Field]) -> Arc<Vec<u32>> {
        if self.shards.len() == 1 {
            return self.shards[0].docs_with_all(tokens, fields);
        }
        let Some(ids) = resolve_conjunction_ids(&self.dict, tokens) else {
            // An out-of-vocabulary token empties the conjunction in every
            // shard; nothing worth memoizing.
            return Arc::new(Vec::new());
        };
        let key = (ids.into_boxed_slice(), field_mask(fields));
        if let Some(hit) = self.docset_cache.get(&key) {
            return hit;
        }
        let mut out: Vec<u32> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            // The uncached per-shard probe: memoizing both here *and* per
            // shard would double the resident memory of every distinct
            // PMI probe for zero extra hits.
            let local = shard.docs_with_all_ids(&key.0, fields);
            let base = self.bases[s];
            out.extend(local.iter().map(|&d| base + d));
        }
        let result = Arc::new(out);
        self.docset_cache.insert(key, Arc::clone(&result));
        result
    }

    /// Entries resident across the facade's and every shard's doc-set
    /// memo (the `wwt_docset_cache_entries` gauge).
    pub fn docset_cache_entries(&self) -> usize {
        self.docset_cache.entries()
            + self
                .shards
                .iter()
                .map(TableIndex::docset_cache_entries)
                .sum::<usize>()
    }

    /// The table id behind a *global* doc id handed out by
    /// [`ShardedIndex::docs_with_all`].
    pub fn table_of_doc(&self, doc: u32) -> TableId {
        // partition_point: first shard whose base exceeds `doc`, minus 1.
        let s = self.bases.partition_point(|&b| b <= doc) - 1;
        self.shards[s].table_of_doc(doc - self.bases[s])
    }
}

impl DocSets for ShardedIndex {
    fn docs_with_all(&self, tokens: &[String], fields: &[Field]) -> Arc<Vec<u32>> {
        ShardedIndex::docs_with_all(self, tokens, fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_model::ContextSnippet;

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

    /// A corpus with repeated vocabulary so scores genuinely depend on
    /// global document frequencies.
    fn corpus(n: u32) -> Vec<WebTable> {
        (0..n)
            .map(|i| {
                let header = match i % 3 {
                    0 => "country,currency",
                    1 => "country,population",
                    _ => "name,area",
                };
                let context = match i % 2 {
                    0 => "list of currencies and countries",
                    _ => "world records archive",
                };
                let a = format!("entity{}", i % 7);
                let b = format!("value{}", i % 5);
                table(i, header, context, &[&a, &b])
            })
            .collect()
    }

    fn single_index(tables: &[WebTable]) -> TableIndex {
        let mut b = IndexBuilder::new();
        for t in tables {
            b.add_table(t);
        }
        b.build()
    }

    fn sharded_index(tables: &[WebTable], n: usize) -> ShardedIndex {
        let mut b = ShardedIndexBuilder::new(n);
        for t in tables {
            b.add_table(t);
        }
        b.build()
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 8] {
            for id in 0..200u32 {
                let s = shard_of(TableId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(TableId(id), n), "stable per id");
            }
        }
        // With enough ids, every shard of an 8-way split gets some.
        let mut seen = [false; 8];
        for id in 0..200u32 {
            seen[shard_of(TableId(id), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "degenerate partitioning: {seen:?}");
    }

    #[test]
    fn global_stats_match_unsharded() {
        let tables = corpus(40);
        let single = single_index(&tables);
        for n in [1usize, 2, 3, 8] {
            let sharded = sharded_index(&tables, n);
            assert_eq!(sharded.n_shards(), n);
            assert_eq!(sharded.n_docs(), single.n_docs());
            assert_eq!(sharded.stats().n_docs(), single.stats().n_docs());
            assert_eq!(sharded.vocab_size(), single.vocab_size());
            for (term, df) in single.stats().iter() {
                assert_eq!(sharded.stats().df(term), df, "df({term}) at n={n}");
                assert_eq!(
                    sharded.stats().idf(term).to_bits(),
                    single.stats().idf(term).to_bits(),
                    "idf({term}) must be bit-identical at n={n}"
                );
            }
        }
    }

    #[test]
    fn global_dict_is_shared_and_matches_unsharded() {
        let tables = corpus(30);
        let single = single_index(&tables);
        let sharded = sharded_index(&tables, 3);
        // Same sorted vocabulary → same ids as the unsharded freeze.
        assert_eq!(single.dict.terms(), sharded.dict().terms());
        for s in 0..sharded.n_shards() {
            assert!(Arc::ptr_eq(
                &sharded.shard(s).dict_arc(),
                &sharded.dict_arc_for_test()
            ));
        }
    }

    #[test]
    fn search_is_bit_identical_to_unsharded() {
        let tables = corpus(40);
        let single = single_index(&tables);
        let probes = [
            "country currency",
            "world records",
            "entity1 value2",
            "area name country",
            "unknown zzz",
        ];
        for n in [1usize, 2, 3, 8] {
            let sharded = sharded_index(&tables, n);
            for probe in probes {
                for k in [1usize, 5, 40, 100] {
                    let toks = wwt_text::tokenize(probe);
                    let a = single.search(&toks, k);
                    let b = sharded.search(&toks, k);
                    assert_eq!(a.len(), b.len(), "probe {probe:?} k={k} n={n}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.table, y.table, "probe {probe:?} k={k} n={n}");
                        assert_eq!(
                            x.score.to_bits(),
                            y.score.to_bits(),
                            "score drift for {probe:?} k={k} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn docsets_relabel_consistently() {
        let tables = corpus(40);
        let single = single_index(&tables);
        let sharded = sharded_index(&tables, 3);
        let hc = [Field::Header, Field::Context];
        for probe in ["country", "currency list", "entity1", "zzz"] {
            let toks = wwt_text::tokenize(probe);
            let a = single.docs_with_all(&toks, &hc);
            let b = ShardedIndex::docs_with_all(&sharded, &toks, &hc);
            // Same *set of tables*, possibly different raw ids.
            let at: Vec<TableId> = a.iter().map(|&d| single.table_of_doc(d)).collect();
            let mut bt: Vec<TableId> = b.iter().map(|&d| sharded.table_of_doc(d)).collect();
            bt.sort();
            let mut at_sorted = at.clone();
            at_sorted.sort();
            assert_eq!(at_sorted, bt, "probe {probe:?}");
            // Sorted output (intersection algorithms rely on it).
            assert!(b.windows(2).all(|w| w[0] < w[1]), "unsorted: {b:?}");
        }
        // Intersections are preserved under the relabeling: check a pair
        // of probes against the content field.
        let h = ShardedIndex::docs_with_all(&sharded, &wwt_text::tokenize("country"), &hc);
        let c = ShardedIndex::docs_with_all(
            &sharded,
            &wwt_text::tokenize("entity1"),
            &[Field::Content],
        );
        let hs = single.docs_with_all(&wwt_text::tokenize("country"), &hc);
        let cs = single.docs_with_all(&wwt_text::tokenize("entity1"), &[Field::Content]);
        let count = |a: &[u32], b: &[u32]| a.iter().filter(|d| b.contains(d)).count();
        assert_eq!(count(&h, &c), count(&hs, &cs));
    }

    #[test]
    fn docset_cache_returns_shared_arc() {
        let tables = corpus(12);
        let sharded = sharded_index(&tables, 2);
        let toks = wwt_text::tokenize("country");
        let a = ShardedIndex::docs_with_all(&sharded, &toks, &[Field::Header]);
        let b = ShardedIndex::docs_with_all(&sharded, &toks, &[Field::Header]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(sharded.docset_cache_entries() >= 1);
    }

    #[test]
    fn single_wraps_without_copying_behavior() {
        let tables = corpus(12);
        let plain = single_index(&tables);
        let reference = single_index(&tables);
        let facade = ShardedIndex::single(plain);
        assert_eq!(facade.n_shards(), 1);
        let toks = wwt_text::tokenize("country currency");
        let a = reference.search(&toks, 10);
        let b = facade.search(&toks, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.table, y.table);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn table_of_doc_roundtrips_every_global_id() {
        let tables = corpus(25);
        let sharded = sharded_index(&tables, 4);
        // Every doc id seen in a full-corpus probe maps back to a real
        // table of the corpus.
        let all: Vec<TableId> = sharded.table_ids().collect();
        assert_eq!(all.len(), 25);
        for s in 0..sharded.n_shards() {
            for d in 0..sharded.shard(s).n_docs() as u32 {
                let global = sharded.bases[s] + d;
                assert_eq!(
                    sharded.table_of_doc(global),
                    sharded.shard(s).table_of_doc(d)
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_corpora_are_safe() {
        let sharded = sharded_index(&[], 4);
        assert_eq!(sharded.n_docs(), 0);
        assert!(sharded.search(&["x".into()], 5).is_empty());
        assert!(ShardedIndex::docs_with_all(&sharded, &["x".into()], &[Field::Header]).is_empty());
        let one = sharded_index(&corpus(1), 8);
        assert_eq!(one.n_docs(), 1);
        assert_eq!(
            one.search(&wwt_text::tokenize("country currency"), 5).len(),
            1
        );
    }

    impl ShardedIndex {
        fn dict_arc_for_test(&self) -> Arc<TermDict> {
            Arc::clone(&self.dict)
        }
    }
}
