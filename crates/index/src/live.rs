//! Mutable overlay over a frozen [`ShardedIndex`]: the **delta**.
//!
//! The frozen index is immutable by design — that is what makes its
//! probes lock-free and its persistence byte-stable. Live ingest
//! therefore never touches it: a [`LiveIndex`] pairs the frozen shards
//! with a small picture of everything that changed since the last
//! compaction:
//!
//! * **delta segments** — newly ingested (or re-ingested) tables, held
//!   in a log of immutable, `Arc`-shared segments. Each segment keeps its
//!   tables, their cached token lists and a small [`TableIndex`] over
//!   them;
//! * **tombstones** — frozen tables deleted since the last compaction;
//! * **overridden** — frozen table ids shadowed by a delta re-ingest
//!   (the delta copy wins).
//!
//! ## Segments and folds
//!
//! A mutation batch ([`LiveIndex::with_ops_applied`]) tokenizes only its
//! own surviving adds, into one new segment. Segments fold by binary
//! counter: every segment carries the number of batches folded into it
//! (a power of two, strictly decreasing from the oldest segment to the
//! newest), and a new one-batch segment absorbs the trailing segments
//! its carry reaches — rebuilt from their cached token lists, never
//! re-tokenized. So a batch costs O(its own tables) plus an amortized
//! O(log batches) share of folding, and after `n` batches at most
//! ⌈log₂ n⌉ + 1 segments exist. A removal or re-add of a delta id
//! rebuilds only the segment holding it (again from cached lists); a
//! segment left empty is dropped.
//!
//! Ranked probes merge frozen and delta hits under the one total order
//! every sorter in the repo uses ([`SearchHit::rank_order`]), after
//! over-fetching the frozen side by the number of shadowed tables so
//! filtering tombstoned hits can never starve the top-k.
//!
//! ## Scoring statistics: merged at probe time
//!
//! Delta hits are scored against the **merged** document frequencies
//! (frozen df + Σ segment df, N = frozen N + delta N), so a delta table
//! competes on the same IDF scale as the corpus it joins. The merge
//! happens per query term at probe time ([`LiveIndex::delta_search`]),
//! and every segment scores through the one scorer
//! ([`TableIndex::search_ids`]) with that IDF: a document's score is
//! summed in the same order, from the same operands, as in one index
//! over the whole delta, so answers do not depend on how the mutations
//! were batched into segments.
//!
//! Frozen hits keep their freeze-time statistics — rescoring billions of
//! postings per ingest would defeat the point of a delta. The two scales
//! differ by at most the delta's contribution to df/N, which the
//! compaction threshold keeps small; **compaction erases the
//! approximation entirely** (a compacted engine is byte-identical to a
//! from-scratch build over the same logical tables, which
//! `tests/live_equivalence.rs` asserts).
//!
//! A `LiveIndex` is itself immutable: mutations return a new value
//! (sharing the frozen `Arc` and every untouched segment), so a server
//! can publish each one through its generation-tagged engine slot
//! without locking readers.

use crate::builder::DocTokens;
use crate::field::Field;
use crate::search::{DocSets, SearchHit, TableIndex};
use crate::shard::ShardedIndex;
use crate::IndexBuilder;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use wwt_model::{TableId, WebTable};
use wwt_text::CorpusStats;

/// One mutation in a batch handed to [`LiveIndex::with_ops_applied`].
///
/// The `overrides_frozen` / `tombstone_frozen` flags carry the caller's
/// knowledge of the frozen table store (the overlay never sees it);
/// because the frozen store is immutable between compactions, those
/// flags depend only on the id, never on the position in the batch.
#[derive(Debug, Clone)]
pub enum LiveOp {
    /// Add (or replace) one table in the delta.
    Add {
        /// The table to ingest.
        table: WebTable,
        /// Whether the frozen corpus also contains this id (shadow it).
        overrides_frozen: bool,
    },
    /// Remove one table: delta eviction, frozen tombstone, or both.
    Remove {
        /// The id to remove.
        id: TableId,
        /// Whether the frozen corpus contains this id (tombstone it).
        tombstone_frozen: bool,
    },
}

/// One delta table with its cached token lists.
#[derive(Debug)]
struct DeltaDoc {
    table: WebTable,
    tokens: DocTokens,
}

/// An immutable run of delta tables and the index over exactly them.
#[derive(Debug)]
struct DeltaSegment {
    /// Ascending by table id; `docs[i]` is doc `i` of `index`.
    docs: Vec<Arc<DeltaDoc>>,
    /// Scores with IDF passed in at probe time; its own statistics
    /// supply the segment's document frequencies.
    index: TableIndex,
    /// Batches folded into this segment: its binary-counter rank.
    batches: usize,
}

impl DeltaSegment {
    /// Indexes `docs` from their cached token lists.
    fn new(mut docs: Vec<Arc<DeltaDoc>>, batches: usize) -> Self {
        docs.sort_unstable_by_key(|d| d.table.id);
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_doc(&d.tokens);
        }
        DeltaSegment {
            index: b.build(),
            docs,
            batches,
        }
    }

    fn find(&self, id: TableId) -> Option<&WebTable> {
        let i = self.docs.binary_search_by_key(&id, |d| d.table.id).ok()?;
        Some(&self.docs[i].table)
    }
}

/// A frozen [`ShardedIndex`] plus the mutable delta riding on top of it.
#[derive(Debug)]
pub struct LiveIndex {
    frozen: Arc<ShardedIndex>,
    /// The delta, oldest segment first; ranks strictly decreasing.
    segments: Vec<Arc<DeltaSegment>>,
    /// Frozen tables deleted since the last compaction.
    tombstones: BTreeSet<TableId>,
    /// Frozen tables shadowed by a delta re-ingest of the same id.
    overridden: BTreeSet<TableId>,
}

impl LiveIndex {
    /// An overlay with an empty delta: answers exactly like `frozen`.
    pub fn empty(frozen: Arc<ShardedIndex>) -> Self {
        LiveIndex {
            frozen,
            segments: Vec::new(),
            tombstones: BTreeSet::new(),
            overridden: BTreeSet::new(),
        }
    }

    /// The frozen side of the overlay.
    pub fn frozen(&self) -> &ShardedIndex {
        &self.frozen
    }

    /// The shared handle to the frozen side.
    pub fn frozen_arc(&self) -> Arc<ShardedIndex> {
        Arc::clone(&self.frozen)
    }

    /// Adds (or replaces) one table in the delta. `overrides_frozen`
    /// says whether the frozen corpus also contains this id — the caller
    /// owns the table store, so it makes that call — in which case the
    /// frozen copy is shadowed until compaction.
    pub fn with_table_added(&self, table: WebTable, overrides_frozen: bool) -> Self {
        self.with_ops_applied(vec![LiveOp::Add {
            table,
            overrides_frozen,
        }])
    }

    /// Removes one table: drops it from the delta if present, and
    /// tombstones the frozen copy when `tombstone_frozen` (the caller
    /// checked the frozen store). The caller is responsible for not
    /// removing ids that exist nowhere.
    pub fn with_table_removed(&self, id: TableId, tombstone_frozen: bool) -> Self {
        self.with_ops_applied(vec![LiveOp::Remove {
            id,
            tombstone_frozen,
        }])
    }

    /// Applies a whole batch of mutations. The set mutations (delta
    /// membership, tombstones, overrides) apply in batch order — so an
    /// add and a remove of the same id interact exactly as they would
    /// applied one by one. Then every id the batch touched leaves the
    /// older segments (each holder rebuilt from its cached token lists),
    /// the batch's surviving adds — and only they — are tokenized into
    /// one new segment, and trailing segments fold into it by binary
    /// counter. Answers depend only on the resulting logical table set,
    /// not on how the mutations were batched; this is what makes journal
    /// replay reproduce the live engine byte-for-byte.
    pub fn with_ops_applied(&self, ops: Vec<LiveOp>) -> Self {
        let mut tombstones = self.tombstones.clone();
        let mut overridden = self.overridden.clone();
        let mut added: BTreeMap<TableId, WebTable> = BTreeMap::new();
        let mut touched: HashSet<TableId> = HashSet::new();
        for op in ops {
            match op {
                LiveOp::Add {
                    table,
                    overrides_frozen,
                } => {
                    let id = table.id;
                    touched.insert(id);
                    added.insert(id, table);
                    tombstones.remove(&id); // a re-add revives a deleted id
                    if overrides_frozen {
                        overridden.insert(id);
                    }
                }
                LiveOp::Remove {
                    id,
                    tombstone_frozen,
                } => {
                    touched.insert(id);
                    added.remove(&id);
                    overridden.remove(&id);
                    if tombstone_frozen {
                        tombstones.insert(id);
                    }
                }
            }
        }
        let mut segments: Vec<Arc<DeltaSegment>> = Vec::with_capacity(self.segments.len() + 1);
        for seg in &self.segments {
            if !touched.iter().any(|&id| seg.find(id).is_some()) {
                segments.push(Arc::clone(seg));
                continue;
            }
            let docs: Vec<Arc<DeltaDoc>> = seg
                .docs
                .iter()
                .filter(|d| !touched.contains(&d.table.id))
                .cloned()
                .collect();
            if !docs.is_empty() {
                segments.push(Arc::new(DeltaSegment::new(docs, seg.batches)));
            }
        }
        let mut docs: Vec<Arc<DeltaDoc>> = added
            .into_values()
            .map(|table| {
                let tokens = DocTokens::of(&table);
                Arc::new(DeltaDoc { table, tokens })
            })
            .collect();
        if !docs.is_empty() {
            let mut batches = 1;
            while let Some(last) = segments.pop_if(|s| s.batches == batches) {
                docs.extend(last.docs.iter().cloned());
                batches *= 2;
            }
            segments.push(Arc::new(DeltaSegment::new(docs, batches)));
        }
        LiveIndex {
            frozen: Arc::clone(&self.frozen),
            segments,
            tombstones,
            overridden,
        }
    }

    /// Number of tables in the delta.
    pub fn delta_len(&self) -> usize {
        self.segments.iter().map(|s| s.docs.len()).sum()
    }

    /// Number of segments the delta is held in.
    pub fn delta_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of tombstoned frozen tables.
    pub fn tombstone_len(&self) -> usize {
        self.tombstones.len()
    }

    /// Frozen tables a probe must skip: tombstoned or delta-overridden.
    pub fn shadowed_len(&self) -> usize {
        self.tombstones.len() + self.overridden.len()
    }

    /// True when the delta carries no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.tombstones.is_empty() && self.overridden.is_empty()
    }

    /// True when frozen hits for this table must be dropped.
    pub fn is_shadowed(&self, id: TableId) -> bool {
        self.tombstones.contains(&id) || self.overridden.contains(&id)
    }

    /// True when this frozen table is deleted (not merely overridden).
    pub fn is_tombstoned(&self, id: TableId) -> bool {
        self.tombstones.contains(&id)
    }

    /// The delta's copy of a table, if it has one: a binary search in
    /// each of the O(log batches) id-sorted segments.
    pub fn delta_table(&self, id: TableId) -> Option<&WebTable> {
        self.segments.iter().find_map(|s| s.find(id))
    }

    /// The delta tables, segment by segment (ascending by id within a
    /// segment).
    pub fn delta_tables(&self) -> impl Iterator<Item = &WebTable> {
        self.segments
            .iter()
            .flat_map(|s| s.docs.iter().map(|d| &d.table))
    }

    /// Logical table count: frozen minus shadowed, plus delta.
    pub fn n_tables(&self) -> usize {
        self.frozen.n_docs() - self.shadowed_len() + self.delta_len()
    }

    /// Ranked probe over the delta only (the engine merges these with
    /// its scatter-gathered frozen hits under [`SearchHit::rank_order`]).
    /// Each distinct query token, in query order, scores at the IDF of
    /// its merged df (frozen df + Σ segment df, N = frozen N + delta N);
    /// tokens no delta table holds are dropped. Every segment then scores
    /// through [`TableIndex::search_ids`] and the per-segment top-k lists
    /// merge under the global total order.
    pub fn delta_search(&self, tokens: &[String], k: usize) -> Vec<SearchHit> {
        if self.segments.is_empty() {
            return Vec::new();
        }
        let n_docs = self.frozen.stats().n_docs() + self.delta_len() as u64;
        let mut seen = HashSet::with_capacity(tokens.len());
        let mut terms: Vec<(&str, f64)> = Vec::with_capacity(tokens.len());
        for t in tokens {
            if !seen.insert(t.as_str()) {
                continue;
            }
            let delta_df: u32 = self.segments.iter().map(|s| s.index.stats().df(t)).sum();
            if delta_df > 0 {
                let df = delta_df + self.frozen.stats().df(t);
                terms.push((t, CorpusStats::idf_of(n_docs, df)));
            }
        }
        ShardedIndex::merge_hits(
            self.segments.iter().map(|s| {
                let weighted: Vec<_> = terms
                    .iter()
                    .filter_map(|&(t, idf)| Some((s.index.dict.lookup(t)?, idf)))
                    .collect();
                s.index.search_ids(&weighted, k)
            }),
            k,
        )
    }

    /// Ranked probe over the whole live view: frozen hits (over-fetched
    /// by the shadow count, then filtered) merged with delta hits under
    /// the global total order.
    pub fn search(&self, tokens: &[String], k: usize) -> Vec<SearchHit> {
        let mut hits = self.frozen.search(tokens, k + self.shadowed_len());
        hits.retain(|h| !self.is_shadowed(h.table));
        hits.extend(self.delta_search(tokens, k));
        hits.sort_by(SearchHit::rank_order);
        hits.truncate(k);
        hits
    }

    /// The table id behind a doc id handed out by this overlay's
    /// [`DocSets`] impl: frozen ids keep their global ids, delta ids sit
    /// above them, each segment's offset by the doc counts before it.
    pub fn table_of_doc(&self, doc: u32) -> TableId {
        let n_frozen = self.frozen.n_docs() as u32;
        if doc < n_frozen {
            return self.frozen.table_of_doc(doc);
        }
        let mut local = (doc - n_frozen) as usize;
        for s in &self.segments {
            if local < s.docs.len() {
                return s.docs[local].table.id;
            }
            local -= s.docs.len();
        }
        panic!("doc {doc} is beyond the live view")
    }
}

impl DocSets for LiveIndex {
    /// Conjunctive probe over the live view: the frozen result with
    /// shadowed tables filtered out, then each segment's result relabeled
    /// above the frozen id space at that segment's offset — sorted
    /// overall, and mutually consistent across probes of the same
    /// overlay (all PMI² needs: it reads only set sizes). The expensive
    /// sub-probes are memoized inside the frozen facade and each segment
    /// index; the filter-and-offset pass here is linear in the result
    /// and cheap enough to redo per call.
    fn docs_with_all(&self, tokens: &[String], fields: &[Field]) -> Arc<Vec<u32>> {
        let frozen = self.frozen.docs_with_all(tokens, fields);
        let deltas: Vec<Arc<Vec<u32>>> = self
            .segments
            .iter()
            .map(|s| s.index.docs_with_all(tokens, fields))
            .collect();
        if self.shadowed_len() == 0 && deltas.iter().all(|d| d.is_empty()) {
            return frozen;
        }
        let mut out: Vec<u32> = frozen
            .iter()
            .copied()
            .filter(|&d| !self.is_shadowed(self.frozen.table_of_doc(d)))
            .collect();
        let mut offset = self.frozen.n_docs() as u32;
        for (s, docs) in self.segments.iter().zip(&deltas) {
            out.extend(docs.iter().map(|&d| offset + d));
            offset += s.docs.len() as u32;
        }
        Arc::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedIndexBuilder;
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

    fn frozen(n: u32, shards: usize) -> Arc<ShardedIndex> {
        let mut b = ShardedIndexBuilder::new(shards);
        for i in 0..n {
            let a = format!("entity{}", i % 5);
            b.add_table(&table(
                i,
                "country,currency",
                "list of currencies",
                &[&a, "rupee"],
            ));
        }
        Arc::new(b.build())
    }

    fn toks(s: &str) -> Vec<String> {
        wwt_text::tokenize(s)
    }

    #[test]
    fn empty_delta_answers_like_frozen() {
        let f = frozen(10, 3);
        let live = LiveIndex::empty(Arc::clone(&f));
        assert!(live.is_empty());
        assert_eq!(live.n_tables(), 10);
        let a = f.search(&toks("country currency"), 5);
        let b = live.search(&toks("country currency"), 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.table, y.table);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn added_table_becomes_searchable() {
        let live = LiveIndex::empty(frozen(6, 2));
        let t = table(
            100,
            "volcano,elevation",
            "volcano heights",
            &["etna", "3329"],
        );
        let live = live.with_table_added(t, false);
        assert_eq!(live.delta_len(), 1);
        assert_eq!(live.n_tables(), 7);
        let hits = live.search(&toks("volcano elevation"), 5);
        assert_eq!(hits.first().map(|h| h.table), Some(TableId(100)));
        // The frozen corpus is untouched.
        assert!(live.frozen().search(&toks("volcano"), 5).is_empty());
    }

    #[test]
    fn removal_tombstones_frozen_tables() {
        let live = LiveIndex::empty(frozen(6, 2));
        let victim = live.frozen().search(&toks("country currency"), 1)[0].table;
        let live = live.with_table_removed(victim, true);
        assert_eq!(live.tombstone_len(), 1);
        assert_eq!(live.n_tables(), 5);
        let hits = live.search(&toks("country currency"), 10);
        assert!(hits.iter().all(|h| h.table != victim));
        // Over-fetch keeps the top-k full despite the filtered hit.
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn reingest_overrides_frozen_copy() {
        let live = LiveIndex::empty(frozen(6, 2));
        let id = TableId(0);
        let replacement = table(0, "volcano,elevation", "volcanoes", &["etna", "3329"]);
        let live = live.with_table_added(replacement, true);
        assert!(live.is_shadowed(id));
        assert!(!live.is_tombstoned(id));
        let hits = live.search(&toks("volcano"), 5);
        assert_eq!(hits.first().map(|h| h.table), Some(id));
        // The old copy no longer matches its frozen vocabulary.
        let country = live.search(&toks("country currency"), 10);
        assert!(country.iter().all(|h| h.table != id));
    }

    #[test]
    fn removing_a_delta_table_then_reviving_a_tombstone() {
        let live = LiveIndex::empty(frozen(4, 2));
        let t = table(50, "volcano,height", "volcanoes", &["etna", "3329"]);
        let live = live.with_table_added(t.clone(), false);
        let live = live.with_table_removed(TableId(50), false);
        assert!(live.is_empty(), "delta add+remove cancels out");
        // Tombstone a frozen table, then re-add under the same id.
        let live = live.with_table_removed(TableId(1), true);
        assert!(live.is_tombstoned(TableId(1)));
        let live = live.with_table_added(table(1, "volcano,height", "v", &["x", "y"]), true);
        assert!(!live.is_tombstoned(TableId(1)));
        assert!(live.is_shadowed(TableId(1)), "override, not tombstone");
    }

    #[test]
    fn delta_scores_use_merged_statistics() {
        // "rupee" saturates the frozen corpus; a brand-new term does not.
        // With merged stats the delta index must score the common term
        // lower than the rare one, even though *within the delta alone*
        // both appear once.
        let f = frozen(20, 2);
        let live = LiveIndex::empty(f)
            .with_table_added(table(200, "rupee,xylophone", "mixed", &["a", "b"]), false);
        let rupee = live.delta_search(&toks("rupee"), 1)[0].score;
        let xylo = live.delta_search(&toks("xylophone"), 1)[0].score;
        assert!(
            xylo > rupee,
            "merged idf must rank the corpus-rare term higher: {xylo} vs {rupee}"
        );
    }

    #[test]
    fn docsets_filter_shadowed_and_relabel_delta() {
        let f = frozen(6, 2);
        let n_frozen = f.n_docs() as u32;
        let live = LiveIndex::empty(f)
            .with_table_added(
                table(80, "country,mountain", "peaks", &["k2", "8611"]),
                false,
            )
            .with_table_removed(TableId(2), true);
        let docs = DocSets::docs_with_all(&live, &toks("country"), &[Field::Header]);
        assert!(docs.windows(2).all(|w| w[0] < w[1]), "sorted: {docs:?}");
        let tables: Vec<TableId> = docs.iter().map(|&d| live.table_of_doc(d)).collect();
        assert!(tables.contains(&TableId(80)), "delta doc present");
        assert!(!tables.contains(&TableId(2)), "tombstoned doc filtered");
        // The delta doc sits above the frozen id space.
        assert!(docs.iter().any(|&d| d >= n_frozen));
    }

    #[test]
    fn batch_ops_match_sequential_mutations() {
        let f = frozen(8, 2);
        let a = table(40, "volcano,height", "volcanoes", &["etna", "3329"]);
        let b = table(41, "volcano,height", "volcanoes", &["fuji", "3776"]);
        let c = table(3, "volcano,height", "replacement", &["k2", "8611"]);
        let ops = vec![
            LiveOp::Add {
                table: a.clone(),
                overrides_frozen: false,
            },
            LiveOp::Add {
                table: b.clone(),
                overrides_frozen: false,
            },
            LiveOp::Remove {
                id: TableId(40),
                tombstone_frozen: false,
            },
            LiveOp::Remove {
                id: TableId(1),
                tombstone_frozen: true,
            },
            LiveOp::Add {
                table: c.clone(),
                overrides_frozen: true,
            },
        ];
        let sequential = LiveIndex::empty(Arc::clone(&f))
            .with_table_added(a, false)
            .with_table_added(b, false)
            .with_table_removed(TableId(40), false)
            .with_table_removed(TableId(1), true)
            .with_table_added(c, true);
        let batched = LiveIndex::empty(f).with_ops_applied(ops);
        assert_eq!(sequential.delta_len(), batched.delta_len());
        assert_eq!(sequential.tombstone_len(), batched.tombstone_len());
        assert_eq!(sequential.shadowed_len(), batched.shadowed_len());
        for query in ["volcano height", "country currency", "replacement"] {
            let x = sequential.search(&toks(query), 10);
            let y = batched.search(&toks(query), 10);
            assert_eq!(x.len(), y.len(), "query {query:?}");
            for (h1, h2) in x.iter().zip(&y) {
                assert_eq!(h1.table, h2.table);
                assert_eq!(h1.score.to_bits(), h2.score.to_bits());
            }
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn segments_answer_like_one_batch_whatever_the_batching() {
        const WORDS: [&str; 12] = [
            "volcano", "river", "country", "currency", "peak", "lake", "city", "rupee", "etna",
            "nile", "height", "entity0",
        ];
        let mut state = 0x5E6_0E17_u64;
        let word = |s: &mut u64| WORDS[(splitmix(s) % WORDS.len() as u64) as usize];
        let mut ops = Vec::new();
        for step in 0..120u32 {
            let r = splitmix(&mut state) % 8;
            ops.push(if r < 6 {
                // New ids and re-adds of earlier ones, some overriding
                // frozen ids (below 20).
                let id = (splitmix(&mut state) % 70) as u32;
                let header = format!("{},{}", word(&mut state), word(&mut state));
                let context = format!("{} {} {step}", word(&mut state), word(&mut state));
                let cells = [word(&mut state), word(&mut state)];
                LiveOp::Add {
                    table: table(id, &header, &context, &cells),
                    overrides_frozen: id < 20,
                }
            } else {
                let id = (splitmix(&mut state) % 70) as u32;
                LiveOp::Remove {
                    id: TableId(id),
                    tombstone_frozen: id < 20,
                }
            });
        }
        let f = frozen(20, 2);
        let one = LiveIndex::empty(Arc::clone(&f)).with_ops_applied(ops.clone());
        let probes = [
            "volcano height",
            "rupee country currency",
            "nile nile lake",
            "entity0",
        ];
        for max_chunk in [1u64, 3, 7, 40] {
            let mut live = LiveIndex::empty(Arc::clone(&f));
            let mut batches = 0usize;
            let mut rest = &ops[..];
            while !rest.is_empty() {
                let n = (1 + splitmix(&mut state) % max_chunk) as usize;
                let (chunk, tail) = rest.split_at(n.min(rest.len()));
                live = live.with_ops_applied(chunk.to_vec());
                batches += 1;
                rest = tail;
                let bound = batches.next_power_of_two().trailing_zeros() as usize + 1;
                assert!(
                    live.delta_segments() <= bound,
                    "{} segments after {batches} batches",
                    live.delta_segments()
                );
            }
            assert_eq!(live.delta_len(), one.delta_len());
            assert!(max_chunk == 40 || live.delta_segments() > 1, "{max_chunk}");
            for probe in probes {
                let (a, b) = (
                    one.delta_search(&toks(probe), 8),
                    live.delta_search(&toks(probe), 8),
                );
                assert_eq!(a.len(), b.len(), "{probe:?} chunks of ≤ {max_chunk}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.table, y.table, "{probe:?} chunks of ≤ {max_chunk}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{probe:?}");
                }
                for fields in [&[Field::Header, Field::Context][..], &[Field::Content]] {
                    let tables = |l: &LiveIndex| -> BTreeSet<TableId> {
                        let docs = DocSets::docs_with_all(l, &toks(probe), fields);
                        docs.iter().map(|&d| l.table_of_doc(d)).collect()
                    };
                    assert_eq!(tables(&one), tables(&live), "{probe:?} {fields:?}");
                }
            }
        }
    }

    #[test]
    fn merge_respects_the_global_total_order() {
        // Hits from frozen and delta interleave by (score desc, id asc).
        let live = LiveIndex::empty(frozen(8, 2)).with_table_added(
            table(
                300,
                "country,currency",
                "list of currencies",
                &["entity0", "rupee"],
            ),
            false,
        );
        let hits = live.search(&toks("country currency"), 9);
        for w in hits.windows(2) {
            assert!(
                SearchHit::rank_order(&w[0], &w[1]) != std::cmp::Ordering::Greater,
                "out of order: {w:?}"
            );
        }
        assert!(hits.iter().any(|h| h.table == TableId(300)));
    }
}
