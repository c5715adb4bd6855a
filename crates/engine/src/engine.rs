//! The offline/online split of the service-grade API.
//!
//! [`EngineBuilder`] runs the paper's offline pipeline (§2.1): table
//! extraction → table store → fielded index. [`Engine`] is the resulting
//! immutable snapshot — its internals are `Arc`-shared and every online
//! operation takes `&self`, so one build can serve queries from many
//! threads (`Engine: Send + Sync + Clone`, and cloning is cheap).

mod exec;
mod online;

use crate::fan_out;
use crate::request::WwtConfig;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use wwt_core::{PairMemo, TableFeatures};
use wwt_html::extract_tables;
use wwt_index::{
    JournalRecord, LiveIndex, LiveOp, ShardedIndex, ShardedIndexBuilder, TableIndex, TableStore,
};
use wwt_model::{TableId, WebTable, WwtError};

/// Default shard count: one shard per core, capped — beyond a handful of
/// shards the per-probe fan-out overhead outgrows the win.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Offline builder: accumulates documents/tables, then freezes them into
/// an [`Engine`] (extract → store → index, paper §2.1).
#[derive(Debug, Default)]
pub struct EngineBuilder {
    config: WwtConfig,
    tables: Vec<WebTable>,
    next_table_id: u32,
    n_docs: usize,
    /// Requested shard count; 0 means "auto" ([`default_shards`]).
    shards: usize,
    /// Worker threads for the bind itself (per-shard freeze fan-out and
    /// the per-table feature precompute); 0 means "auto" (one per core).
    /// Never changes the built engine — only how fast it binds.
    bind_threads: usize,
}

impl EngineBuilder {
    /// A builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with the given engine configuration.
    pub fn with_config(config: WwtConfig) -> Self {
        EngineBuilder {
            config,
            ..Self::default()
        }
    }

    /// Replaces the engine configuration.
    pub fn config(&mut self, config: WwtConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Extracts data tables from one HTML document under a synthetic
    /// `doc://N` URL.
    pub fn add_html(&mut self, html: &str) -> &mut Self {
        let url = format!("doc://{}", self.n_docs);
        self.add_document(html, &url)
    }

    /// Extracts data tables from one HTML document.
    pub fn add_document(&mut self, html: &str, url: &str) -> &mut Self {
        let extracted = extract_tables(html, url, self.next_table_id);
        self.next_table_id += extracted.len() as u32;
        self.n_docs += 1;
        self.tables.extend(extracted);
        self
    }

    /// Extracts data tables from many HTML documents.
    pub fn add_documents<'a>(&mut self, docs: impl IntoIterator<Item = &'a str>) -> &mut Self {
        for html in docs {
            self.add_html(html);
        }
        self
    }

    /// Adds an already extracted table verbatim.
    pub fn add_table(&mut self, table: WebTable) -> &mut Self {
        self.next_table_id = self.next_table_id.max(table.id.0 + 1);
        self.tables.push(table);
        self
    }

    /// Adds many already extracted tables verbatim.
    pub fn add_tables(&mut self, tables: impl IntoIterator<Item = WebTable>) -> &mut Self {
        for t in tables {
            self.add_table(t);
        }
        self
    }

    /// Number of tables accumulated so far.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Sets the number of index shards the build hash-partitions tables
    /// into (0 restores the auto default, [`default_shards`]). Sharding
    /// never changes answers — [`ShardedIndex`] is byte-identical to the
    /// single index — only how retrieval parallelizes.
    pub fn shards(&mut self, n: usize) -> &mut Self {
        self.shards = n;
        self
    }

    /// Sets how many worker threads the bind fans out over — the
    /// per-shard index freeze and the per-table feature precompute (0
    /// restores the auto default, one per core). The built engine is
    /// identical for every value; only bind wall-clock changes.
    pub fn bind_threads(&mut self, n: usize) -> &mut Self {
        self.bind_threads = n;
        self
    }

    /// Freezes the accumulated tables into an immutable [`Engine`],
    /// consuming the builder (reuse after `build` is a compile error).
    pub fn build(self) -> Engine {
        let n_shards = if self.shards == 0 {
            default_shards()
        } else {
            self.shards
        };
        let threads = if self.bind_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.bind_threads
        };
        let mut builder = ShardedIndexBuilder::new(n_shards);
        for t in &self.tables {
            builder.add_table(t);
        }
        Engine::assemble_with_threads(
            builder.build_with_threads(threads),
            TableStore::from_tables(self.tables),
            self.config,
            threads,
        )
    }
}

/// The immutable, thread-shareable WWT engine: sharded index + table
/// store + configuration. All query-side methods take `&self`; share one
/// engine across threads with [`Clone`] or `Arc`.
#[derive(Debug, Clone)]
pub struct Engine {
    index: Arc<ShardedIndex>,
    store: Arc<TableStore>,
    config: WwtConfig,
    /// Per-table feature views (tokenized headers, TF-IDF vectors, value
    /// sets), computed **once at bind time** against the engine's
    /// statistics and mapper configuration, then shared by every query —
    /// the per-query mapper used to rebuild all of this per request.
    /// Empty when `config.precompute_views` is off (the oracle path).
    features: Arc<HashMap<TableId, Arc<TableFeatures>>>,
    /// Worker threads used to scatter an index probe across shards
    /// (computed once at build; the workers come from the persistent
    /// [`fan_out`] pool, which only engages above
    /// [`online::PARALLEL_PROBE_MIN_DOCS`] where probe time dwarfs handoff
    /// cost).
    probe_threads: usize,
    /// Worker threads for the per-candidate column-mapping batch (one
    /// per core — unlike `probe_threads` it is not capped by the shard
    /// count, since candidates outnumber shards).
    map_threads: usize,
    /// Live-ingest overlay: the delta plus features for its
    /// tables. `None` on a purely frozen engine, which then takes
    /// exactly the pre-live code paths.
    live: Option<Arc<LiveOverlay>>,
    /// Cross-query memo of per-table-pair column matchings (edge
    /// construction §3.3): a pair's matching is query-independent, so
    /// every query on this engine shares one memo. Replaced — not
    /// carried over — on live mutations, since an ingest can rebind a
    /// table id to new content.
    pair_memo: Arc<PairMemo>,
}

/// The live delta and the bind-time state riding with it: feature
/// views for delta tables, computed against the **frozen** statistics
/// (same IDF source every other view uses, so `map_views` sees one
/// consistent scale).
#[derive(Debug)]
struct LiveOverlay {
    live: Arc<LiveIndex>,
    features: HashMap<TableId, Arc<TableFeatures>>,
}

/// One live mutation in a batch handed to
/// [`Engine::with_mutations_applied`] — the engine-level twin of a
/// journal record (the journal stores the serialized form, this is the
/// applied form).
#[derive(Debug, Clone)]
pub enum EngineMutation {
    /// Ingest (or replace) one table.
    Add(WebTable),
    /// Remove one table by id.
    Remove(TableId),
}

// Compile-time proof that one engine can serve many threads.
const _: () = {
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<Engine>();
};

impl Engine {
    /// A fresh offline builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Builds an engine directly from extracted tables.
    pub fn from_tables(tables: Vec<WebTable>, config: WwtConfig) -> Self {
        let mut b = EngineBuilder::with_config(config);
        b.add_tables(tables);
        b.build()
    }

    /// The (sharded) fielded index. A single-shard engine behaves — and
    /// answers — exactly like the pre-sharding `TableIndex`.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Number of index shards this engine scatter-gathers over.
    pub fn n_shards(&self) -> usize {
        self.index.n_shards()
    }

    /// The table store.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// The engine configuration (per-request overrides are applied on
    /// top via [`QueryRequest`](crate::QueryRequest)).
    pub fn config(&self) -> &WwtConfig {
        &self.config
    }

    /// Assembles an engine from a built sharded index and store without
    /// validation (internal: the builder feeds the store and index from
    /// the same table list, so they cannot disagree). When
    /// `config.precompute_views` is on (the default), every stored
    /// table's feature view is computed here, once, against the final
    /// global statistics — the per-query mapper then reuses them instead
    /// of re-tokenizing candidates on every request.
    fn assemble(index: ShardedIndex, store: TableStore, config: WwtConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::assemble_with_threads(index, store, config, threads)
    }

    /// [`Engine::assemble`] with an explicit bind concurrency: the
    /// per-table feature precompute — the dominant bind-time cost after
    /// the freeze — fans out over the persistent worker pool. Each
    /// table's features depend only on that table and the shared frozen
    /// statistics, so the resulting engine is identical for every thread
    /// count.
    fn assemble_with_threads(
        index: ShardedIndex,
        store: TableStore,
        config: WwtConfig,
        threads: usize,
    ) -> Self {
        let features: HashMap<TableId, Arc<TableFeatures>> = if config.precompute_views {
            let tables: Vec<&WebTable> = store.iter().collect();
            fan_out(tables.len(), threads, |i| {
                let t = tables[i];
                (
                    t.id,
                    Arc::new(TableFeatures::compute(
                        t,
                        index.stats(),
                        config.mapper.body_freq_frac,
                    )),
                )
            })
            .into_iter()
            .collect()
        } else {
            HashMap::new()
        };
        Engine {
            probe_threads: index.n_shards().min(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            map_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            index: Arc::new(index),
            store: Arc::new(store),
            features: Arc::new(features),
            pair_memo: Arc::new(PairMemo::for_config(&config.mapper)),
            config,
            live: None,
        }
    }

    /// Assembles an engine from already-built single-index parts (e.g. a
    /// legacy persisted layout). Every table the index knows must be
    /// present in the store — a missing table would silently vanish from
    /// answers, so the mismatch is rejected up front.
    pub fn from_parts(
        index: TableIndex,
        store: TableStore,
        config: WwtConfig,
    ) -> Result<Self, WwtError> {
        Self::from_sharded_parts(ShardedIndex::single(index), store, config)
    }

    /// [`Engine::from_parts`] for a sharded index.
    pub fn from_sharded_parts(
        index: ShardedIndex,
        store: TableStore,
        config: WwtConfig,
    ) -> Result<Self, WwtError> {
        for id in index.table_ids() {
            if store.get(id).is_none() {
                return Err(WwtError::Corrupt(format!(
                    "index references table {id} missing from the store"
                )));
            }
        }
        Ok(Self::assemble(index, store, config))
    }

    /// True when this engine carries uncompacted live mutations.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// Tables in the live delta (0 on a frozen engine).
    pub fn delta_len(&self) -> usize {
        self.live.as_ref().map_or(0, |o| o.live.delta_len())
    }

    /// Segments the live delta is held in (0 on a frozen engine).
    pub fn delta_segments(&self) -> usize {
        self.live.as_ref().map_or(0, |o| o.live.delta_segments())
    }

    /// Tombstoned frozen tables (0 on a frozen engine).
    pub fn tombstone_len(&self) -> usize {
        self.live.as_ref().map_or(0, |o| o.live.tombstone_len())
    }

    /// Logical table count: frozen minus deleted/overridden, plus delta.
    pub fn n_tables(&self) -> usize {
        match &self.live {
            Some(overlay) => overlay.live.n_tables(),
            None => self.store.len(),
        }
    }

    /// A new engine with `table` added to (or replacing the same id in)
    /// the live delta. The frozen shards are untouched — sharing
    /// stays `Arc`-cheap — and the returned engine answers queries over
    /// the updated corpus immediately. Cost is O(batch) plus an
    /// amortized O(log batches) share of segment folding: the new table
    /// is tokenized into a fresh delta segment, trailing segments fold
    /// from their cached token lists, and one feature view is computed
    /// for the new table. A single-op batch of
    /// [`Engine::with_mutations_applied`].
    pub fn with_table_added(&self, table: WebTable) -> Engine {
        self.with_mutations_applied(vec![EngineMutation::Add(table)])
    }

    /// A new engine with table `id` removed from the live view: dropped
    /// from the delta if it lives there, tombstoned if it is a frozen
    /// table. Returns `None` when the id exists nowhere (already
    /// deleted, or never ingested).
    pub fn with_table_removed(&self, id: TableId) -> Option<Engine> {
        let in_frozen = self.store.get(id).is_some();
        let (in_delta, already_gone) = match &self.live {
            Some(o) => (o.live.delta_table(id).is_some(), o.live.is_tombstoned(id)),
            None => (false, false),
        };
        if !in_delta && (!in_frozen || already_gone) {
            return None;
        }
        Some(self.with_mutations_applied(vec![EngineMutation::Remove(id)]))
    }

    /// A new engine with N tables added as **one** delta segment — the
    /// batch-ingest path (`POST /admin/tables/batch`). Answers like
    /// folding the tables through [`Engine::with_table_added`] one at a
    /// time, but the segment log takes one append instead of N and the
    /// caller publishes one generation instead of N.
    pub fn with_tables_added(&self, tables: Vec<WebTable>) -> Engine {
        self.with_mutations_applied(tables.into_iter().map(EngineMutation::Add).collect())
    }

    /// Applies an ordered batch of live mutations as one delta segment
    /// append ([`LiveIndex::with_ops_applied`]) and returns the resulting
    /// engine. This is the single apply path every live mutation goes
    /// through — single-table ingest/removal, batch ingest, and journal
    /// replay — and answers depend only on the logical corpus it leaves,
    /// not on how the mutations were batched, which is what makes a
    /// replayed engine byte-identical to one that took the same
    /// mutations live.
    ///
    /// Removals of ids that exist nowhere *at their position in the
    /// batch* are skipped, matching [`Engine::with_table_removed`]
    /// returning `None`. An empty (or all-skipped) batch returns a cheap
    /// clone.
    pub fn with_mutations_applied(&self, mutations: Vec<EngineMutation>) -> Engine {
        // Pending delta membership / tombstones, tracked through the
        // batch so each removal sees the state its predecessors left:
        // the base overlay's view, corrected by what this batch has
        // tombstoned (`added_tombstones`) or re-added (`revived`).
        // `in_delta` holds this batch's verdict for every id it touched;
        // the rest keep the base overlay's.
        let mut in_delta: HashMap<TableId, bool> = HashMap::new();
        let mut added_tombstones: HashSet<TableId> = HashSet::new();
        let mut revived: HashSet<TableId> = HashSet::new();
        let mut features = self
            .live
            .as_ref()
            .map(|o| o.features.clone())
            .unwrap_or_default();
        let mut ops: Vec<LiveOp> = Vec::with_capacity(mutations.len());
        for mutation in mutations {
            match mutation {
                EngineMutation::Add(table) => {
                    let id = table.id;
                    let overrides_frozen = self.store.get(id).is_some();
                    features.remove(&id);
                    if self.config.precompute_views {
                        features.insert(
                            id,
                            Arc::new(TableFeatures::compute(
                                &table,
                                self.index.stats(),
                                self.config.mapper.body_freq_frac,
                            )),
                        );
                    }
                    in_delta.insert(id, true);
                    added_tombstones.remove(&id);
                    revived.insert(id);
                    ops.push(LiveOp::Add {
                        table,
                        overrides_frozen,
                    });
                }
                EngineMutation::Remove(id) => {
                    let in_frozen = self.store.get(id).is_some();
                    let base_tombstoned =
                        self.live.as_ref().is_some_and(|o| o.live.is_tombstoned(id));
                    let tombstoned = (base_tombstoned && !revived.contains(&id))
                        || added_tombstones.contains(&id);
                    let was_in_delta = *in_delta.entry(id).or_insert_with(|| {
                        self.live
                            .as_ref()
                            .is_some_and(|o| o.live.delta_table(id).is_some())
                    });
                    if !was_in_delta && (!in_frozen || tombstoned) {
                        continue; // removing what isn't there: a no-op
                    }
                    features.remove(&id);
                    in_delta.insert(id, false);
                    if in_frozen {
                        added_tombstones.insert(id);
                        revived.remove(&id);
                    }
                    ops.push(LiveOp::Remove {
                        id,
                        tombstone_frozen: in_frozen,
                    });
                }
            }
        }
        if ops.is_empty() {
            return self.clone();
        }
        let base_live = match &self.live {
            Some(o) => o.live.with_ops_applied(ops),
            None => LiveIndex::empty(Arc::clone(&self.index)).with_ops_applied(ops),
        };
        self.with_overlay(base_live, features)
    }

    /// Replays a journal recovered at boot over this (frozen) engine,
    /// reconstructing the exact pre-crash logical corpus: add records
    /// parse back through the table codec, remove records tombstone or
    /// evict, and the whole sequence applies as one batch. The result is
    /// byte-identical to the engine that originally took those mutations
    /// live (`tests/crash_recovery.rs` is the differential proof).
    pub fn with_journal_replayed(&self, records: &[JournalRecord]) -> Result<Engine, WwtError> {
        let mut mutations = Vec::with_capacity(records.len());
        for record in records {
            match record {
                JournalRecord::AddTable(line) => {
                    let table = wwt_index::table_from_json(line.trim()).map_err(|e| {
                        WwtError::Corrupt(format!("journal add record does not parse: {e}"))
                    })?;
                    mutations.push(EngineMutation::Add(table));
                }
                JournalRecord::RemoveTable(id) => mutations.push(EngineMutation::Remove(*id)),
            }
        }
        Ok(self.with_mutations_applied(mutations))
    }

    /// Freezes the live delta into the main shards: rebuilds the engine
    /// canonically over its logical tables (frozen minus deleted and
    /// overridden, plus delta, ascending by id). The result is
    /// **byte-identical** to a from-scratch build over the same tables
    /// with the same configuration and shard count — compaction erases
    /// the delta approximation entirely. A frozen engine compacts to a
    /// cheap clone of itself.
    pub fn compacted(&self) -> Engine {
        let Some(overlay) = &self.live else {
            return self.clone();
        };
        let mut tables: Vec<WebTable> = self
            .store
            .iter()
            .filter(|t| !overlay.live.is_shadowed(t.id))
            .cloned()
            .collect();
        tables.extend(overlay.live.delta_tables().cloned());
        tables.sort_by_key(|t| t.id);
        let mut b = EngineBuilder::with_config(self.config.clone());
        b.shards(self.n_shards());
        b.add_tables(tables);
        b.build()
    }

    /// Wraps live state into a new engine sharing every frozen part.
    fn with_overlay(
        &self,
        live: LiveIndex,
        features: HashMap<TableId, Arc<TableFeatures>>,
    ) -> Engine {
        let mut next = self.clone();
        // A mutation can rebind a table id to different content, which
        // would poison memoized pair matchings keyed by id: start fresh.
        next.pair_memo = Arc::new(PairMemo::for_config(&self.config.mapper));
        next.live = if live.is_empty() && features.is_empty() {
            // An overlay that cancelled itself out (add then remove):
            // drop it so the engine takes the frozen-only paths again.
            None
        } else {
            Some(Arc::new(LiveOverlay {
                live: Arc::new(live),
                features,
            }))
        };
        next
    }

    /// Persists the engine into `dir` (created if needed): the sharded
    /// index layout (versioned `manifest.json` + one `shard-NNNN.idx`
    /// per shard, [`wwt_index::persist::save_sharded`]) and
    /// `tables.jsonl` (the table store). [`Engine::load_from_dir`] reads
    /// it back into an identical-answering engine with the same shard
    /// count.
    ///
    /// An engine carrying uncompacted live mutations refuses to save —
    /// the persisted layout has no delta section, so saving would
    /// silently drop the mutations. Compact first ([`Engine::compacted`]).
    pub fn save_to_dir(&self, dir: &Path) -> Result<(), WwtError> {
        if self.is_live() {
            return Err(WwtError::Invalid(format!(
                "engine has {} uncompacted live mutation(s); fold them first — \
                 call compacted() (over HTTP: POST /admin/compact), or restart \
                 with --journal so the delta replays instead of being saved",
                self.delta_len() + self.tombstone_len()
            )));
        }
        std::fs::create_dir_all(dir)?;
        wwt_index::persist::save_sharded(&self.index, dir)?;
        self.store.save(&dir.join("tables.jsonl"))?;
        Ok(())
    }

    /// Persists like [`Engine::save_to_dir`], but replaces an existing
    /// directory's files through a write-new-then-rename dance:
    /// everything is written into a temporary subdirectory first, then
    /// renamed over the live files one by one — data files first, the
    /// manifest last, so a crash mid-replacement leaves a directory the
    /// manifest's term checksum flags as inconsistent instead of one
    /// that silently misloads. This is the "write-new, rename" half of
    /// compaction's persist-then-truncate-journal contract.
    pub fn save_to_dir_atomic(&self, dir: &Path) -> Result<(), WwtError> {
        let tmp = dir.join(format!(".compact-tmp-{}", std::process::id()));
        self.save_to_dir(&tmp)?;
        let mut names: Vec<String> = (0..self.n_shards())
            .map(wwt_index::persist::shard_file)
            .collect();
        names.push("tables.jsonl".into());
        names.push(wwt_index::persist::MANIFEST_FILE.into());
        for name in &names {
            std::fs::rename(tmp.join(name), dir.join(name))?;
        }
        let _ = std::fs::remove_dir_all(&tmp);
        // Best-effort directory fsync so the renames themselves are
        // durable before the caller truncates its journal.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Loads an engine persisted by [`Engine::save_to_dir`], with the
    /// given online configuration (the persisted files carry no config).
    /// Directories written before the sharded layout existed — a bare
    /// `index.idx` with no manifest — still load, as a single shard.
    pub fn load_from_dir(dir: &Path, config: WwtConfig) -> Result<Self, WwtError> {
        let store = TableStore::load(&dir.join("tables.jsonl"))?;
        let index = if dir.join(wwt_index::persist::MANIFEST_FILE).exists() {
            wwt_index::persist::load_sharded(dir)?
        } else {
            // Pre-manifest layout: one unsharded index file.
            ShardedIndex::single(wwt_index::persist::load(&dir.join("index.idx"))?)
        };
        Self::from_sharded_parts(index, store, config)
    }
}

#[cfg(test)]
mod tests {
    use super::exec::ExecCtx;
    use super::online::merge_shard_hits;
    use super::*;
    use crate::request::{QueryOptions, QueryRequest, QueryResponse};
    use wwt_core::InferenceAlgorithm;
    use wwt_index::SearchHit;
    use wwt_model::ContextSnippet;
    use wwt_model::Query;

    fn currency_page(i: usize, countries: &[(&str, &str)]) -> String {
        let mut rows = String::new();
        for (c, m) in countries {
            rows.push_str(&format!("<tr><td>{c}</td><td>{m}</td></tr>"));
        }
        format!(
            "<html><head><title>currencies {i}</title></head><body>\
             <p>List of countries and their currency</p>\
             <table><tr><th>Country</th><th>Currency</th></tr>{rows}</table>\
             </body></html>"
        )
    }

    fn junk_page() -> String {
        "<html><body><p>nothing here about forests</p>\
         <table><tr><th>ID</th><th>Area</th></tr>\
         <tr><td>7</td><td>2236</td></tr><tr><td>9</td><td>880</td></tr></table>\
         </body></html>"
            .to_string()
    }

    /// The engine-default answer to a bare query.
    fn answer(engine: &Engine, query: &Query) -> QueryResponse {
        engine.answer(&QueryRequest::new(query.clone())).unwrap()
    }

    fn build_engine() -> Engine {
        let docs = [
            currency_page(
                0,
                &[("India", "Rupee"), ("Japan", "Yen"), ("France", "Euro")],
            ),
            currency_page(
                1,
                &[("India", "Rupee"), ("Brazil", "Real"), ("Japan", "Yen")],
            ),
            junk_page(),
        ];
        let mut b = Engine::builder();
        b.add_documents(docs.iter().map(String::as_str));
        b.build()
    }

    #[test]
    fn offline_build_extracts_and_indexes() {
        let engine = build_engine();
        assert_eq!(engine.store().len(), 3);
        assert_eq!(engine.index().n_docs(), 3);
    }

    #[test]
    fn answer_consolidates_currency_tables() {
        let engine = build_engine();
        let q = Query::parse("country | currency").unwrap();
        let out = answer(&engine, &q);
        assert!(!out.table.is_empty(), "no answer rows");
        // India appears in both tables: must be merged with support 2.
        let india = out
            .table
            .rows
            .iter()
            .find(|r| r.cells[0] == "India")
            .expect("India row");
        assert_eq!(india.support, 2);
        assert_eq!(india.cells[1], "Rupee");
        // Four distinct countries in total.
        assert_eq!(out.table.len(), 4);
        // Junk table must not contribute.
        assert!(out
            .table
            .rows
            .iter()
            .all(|r| r.cells[0] != "7" && r.cells[1] != "2236"));
    }

    #[test]
    fn timings_and_diagnostics_populated() {
        let engine = build_engine();
        let q = Query::parse("country | currency").unwrap();
        let out = answer(&engine, &q);
        assert!(out.diagnostics.timing.column_map > std::time::Duration::ZERO);
        assert!(out.diagnostics.timing.total() >= out.diagnostics.timing.column_map);
        assert_eq!(out.diagnostics.n_candidates, out.candidates.len());
        assert!(out.diagnostics.n_relevant >= 2);
        assert_eq!(out.diagnostics.rows_before_limit, out.table.len());
    }

    #[test]
    fn explain_attaches_a_trace_and_plain_requests_stay_trace_free() {
        let engine = build_engine();
        let request = QueryRequest::parse("country | currency").unwrap();

        let plain = engine.answer(&request).unwrap();
        assert!(plain.diagnostics.trace.is_none());

        let traced = engine.answer(&request.clone().explain(true)).unwrap();
        let trace = traced.diagnostics.trace.expect("explain must trace");
        // Everything except the trace is identical to the plain answer.
        assert_eq!(plain.table, traced.table);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"probe1"), "spans: {names:?}");
        assert!(names.contains(&"read1"), "spans: {names:?}");
        assert!(
            names.iter().any(|n| n.starts_with("column_map")),
            "spans: {names:?}"
        );
        assert!(names.contains(&"consolidate"), "spans: {names:?}");
        // Per-shard hit counts and candidate accounting rode along.
        assert!(trace.notes.iter().any(|(k, _)| k == "probe1_shard_hits"));
        assert!(trace.notes.iter().any(|(k, _)| k == "candidates"));
        // A service-supplied trace carries its request id into the report.
        let external = wwt_obs::Trace::enabled("req-42");
        let out = engine.answer_traced(&request, &external).unwrap();
        let report = out.diagnostics.trace.expect("enabled trace is attached");
        assert_eq!(report.request_id, "req-42");
        assert!(!report.spans.is_empty());
    }

    #[test]
    fn fail_soft_without_faults_matches_the_healthy_answer() {
        let engine = build_engine();
        let req = QueryRequest::parse("country | currency").unwrap();
        let healthy = engine.answer(&req).unwrap();
        let soft = engine.answer(&req.clone().fail_soft(true)).unwrap();
        // No fault, no deadline: fail-soft must be a pure pass-through.
        assert_eq!(healthy.table, soft.table);
        assert_eq!(healthy.candidates, soft.candidates);
        assert!(!soft.diagnostics.degraded);
        assert!(soft.diagnostics.degraded_reasons.is_empty());
        assert!(!healthy.diagnostics.degraded);
    }

    #[test]
    fn fail_soft_expired_admission_still_fails_hard() {
        // A budget spent before any work ran has nothing to salvage:
        // fail-soft keeps the admission-time 504 contract.
        let engine = build_engine();
        let req = QueryRequest::parse("country | currency")
            .unwrap()
            .fail_soft(true)
            .deadline_ms(0);
        assert!(matches!(
            engine.answer(&req),
            Err(WwtError::DeadlineExceeded(_))
        ));
    }

    #[test]
    fn retrieval_finds_stage1_candidates() {
        let engine = build_engine();
        let q = Query::parse("country | currency").unwrap();
        let r = engine.retrieve(&q);
        assert!(r.stage1.len() >= 2, "stage1 {:?}", r.stage1);
        assert_eq!(r.len(), r.stage1.len() + r.stage2.len());
    }

    #[test]
    fn unanswerable_query_yields_empty_table() {
        let engine = build_engine();
        let q = Query::parse("zebra migrations | season").unwrap();
        let out = answer(&engine, &q);
        assert!(out.table.is_empty());
    }

    #[test]
    fn empty_engine_is_safe() {
        let engine = Engine::from_tables(vec![], WwtConfig::default());
        let q = Query::parse("anything | at all").unwrap();
        let out = answer(&engine, &q);
        assert!(out.table.is_empty());
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn request_overrides_change_behavior() {
        let engine = build_engine();
        let req = QueryRequest::parse("country | currency").unwrap();
        let full = engine.answer(&req).unwrap();
        assert_eq!(full.table.len(), 4);

        // Row limit truncates, keeping rank order, and diagnostics keep
        // the pre-limit count.
        let limited = engine.answer(&req.clone().max_rows(2)).unwrap();
        assert_eq!(limited.table.len(), 2);
        assert_eq!(limited.diagnostics.rows_before_limit, 4);
        assert_eq!(limited.table.rows[0].cells, full.table.rows[0].cells);

        // Algorithm override is honored.
        let indep = engine
            .answer(&req.clone().algorithm(InferenceAlgorithm::Independent))
            .unwrap();
        assert!(!indep.table.is_empty());

        // Invalid overrides surface as typed errors.
        assert!(matches!(
            engine.answer(&req.clone().probe1_k(0)),
            Err(WwtError::Invalid(_))
        ));
        assert!(matches!(
            engine.answer(&req.clone().high_relevance(2.0)),
            Err(WwtError::Invalid(_))
        ));
    }

    #[test]
    fn engine_answers_identically_across_threads() {
        let engine = Arc::new(build_engine());
        let q = Query::parse("country | currency").unwrap();
        let serial = answer(&engine, &q);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                let q = q.clone();
                let serial_table = serial.table.clone();
                scope.spawn(move || {
                    for _ in 0..3 {
                        let out = answer(&engine, &q);
                        assert_eq!(out.table, serial_table);
                    }
                });
            }
        });
    }

    #[test]
    fn builder_counts_and_config_roundtrip() {
        let mut b = EngineBuilder::with_config(WwtConfig {
            probe1_k: 17,
            ..WwtConfig::default()
        });
        assert_eq!(b.n_tables(), 0);
        b.add_html(&currency_page(0, &[("India", "Rupee")]));
        assert_eq!(b.n_tables(), 1);
        let engine = b.build();
        assert_eq!(engine.config().probe1_k, 17);
        assert_eq!(engine.store().len(), 1);
    }

    #[test]
    fn zero_deadline_trips_before_any_work() {
        let engine = build_engine();
        let req = QueryRequest::parse("country | currency")
            .unwrap()
            .deadline_ms(0);
        match engine.answer(&req) {
            Err(WwtError::DeadlineExceeded(stage)) => assert_eq!(stage, "retrieval"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_answers_identically() {
        let engine = build_engine();
        let plain = QueryRequest::parse("country | currency").unwrap();
        let reference = engine.answer(&plain).unwrap();
        let budgeted = engine.answer(&plain.clone().deadline_ms(60_000)).unwrap();
        assert_eq!(budgeted.table, reference.table);
        assert_eq!(budgeted.candidates, reference.candidates);
        assert_eq!(
            budgeted.retrieval.stage1, reference.retrieval.stage1,
            "a deadline that never trips must not change retrieval"
        );
    }

    #[test]
    fn dir_persistence_roundtrip_answers_identically() {
        let engine = build_engine();
        let dir = std::env::temp_dir().join(format!("wwt_engine_dir_{}", std::process::id()));
        engine.save_to_dir(&dir).unwrap();
        let restored = Engine::load_from_dir(&dir, engine.config().clone()).unwrap();
        assert_eq!(restored.store().len(), engine.store().len());
        let q = Query::parse("country | currency").unwrap();
        let a = answer(&engine, &q);
        let b = answer(&restored, &q);
        assert_eq!(a.table, b.table);
        assert_eq!(a.candidates, b.candidates);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_parts_rejects_index_store_mismatch() {
        let engine = build_engine();
        let dir = std::env::temp_dir().join(format!("wwt_engine_mismatch_{}", std::process::id()));
        engine.save_to_dir(&dir).unwrap();
        let index = wwt_index::persist::load_sharded(&dir).unwrap();
        // An empty store cannot back a populated index.
        let r = Engine::from_sharded_parts(index, TableStore::new(), WwtConfig::default());
        assert!(matches!(r, Err(WwtError::Corrupt(_))), "{r:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_single_index_layout_still_loads() {
        // A pre-manifest directory: bare `index.idx` + `tables.jsonl`.
        let engine = {
            let docs = [currency_page(0, &[("India", "Rupee"), ("Japan", "Yen")])];
            let mut b = Engine::builder();
            b.shards(1);
            b.add_documents(docs.iter().map(String::as_str));
            b.build()
        };
        let dir = std::env::temp_dir().join(format!("wwt_engine_legacy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        wwt_index::persist::save(engine.index().shard(0), &dir.join("index.idx")).unwrap();
        engine.store().save(&dir.join("tables.jsonl")).unwrap();
        let restored = Engine::load_from_dir(&dir, engine.config().clone()).unwrap();
        assert_eq!(restored.n_shards(), 1);
        let q = Query::parse("country | currency").unwrap();
        assert_eq!(answer(&restored, &q).table, answer(&engine, &q).table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_persistence_roundtrip_keeps_shard_count_and_answers() {
        let docs: Vec<String> = (0..6)
            .map(|i| currency_page(i, &[("India", "Rupee"), ("Japan", "Yen")]))
            .collect();
        let mut b = Engine::builder();
        b.shards(4);
        b.add_documents(docs.iter().map(String::as_str));
        let engine = b.build();
        assert_eq!(engine.n_shards(), 4);
        let dir = std::env::temp_dir().join(format!("wwt_engine_shards_{}", std::process::id()));
        engine.save_to_dir(&dir).unwrap();
        let restored = Engine::load_from_dir(&dir, engine.config().clone()).unwrap();
        assert_eq!(restored.n_shards(), 4);
        let q = Query::parse("country | currency").unwrap();
        let a = answer(&engine, &q);
        let b = answer(&restored, &q);
        assert_eq!(a.table, b.table);
        assert_eq!(a.candidates, b.candidates);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_engine_answers_identically_to_single_shard() {
        let docs = [
            currency_page(
                0,
                &[("India", "Rupee"), ("Japan", "Yen"), ("France", "Euro")],
            ),
            currency_page(
                1,
                &[("India", "Rupee"), ("Brazil", "Real"), ("Japan", "Yen")],
            ),
            junk_page(),
        ];
        let build = |n: usize| {
            let mut b = Engine::builder();
            b.shards(n);
            b.add_documents(docs.iter().map(String::as_str));
            b.build()
        };
        let reference = build(1);
        let q = Query::parse("country | currency").unwrap();
        let expected = answer(&reference, &q);
        for n in [2usize, 3, 8] {
            let sharded = build(n);
            assert_eq!(sharded.n_shards(), n);
            let out = answer(&sharded, &q);
            assert_eq!(out.table, expected.table, "answer drift at {n} shards");
            assert_eq!(
                out.candidates, expected.candidates,
                "candidate drift at {n} shards"
            );
            assert_eq!(out.retrieval.stage1, expected.retrieval.stage1);
            assert_eq!(out.retrieval.stage2, expected.retrieval.stage2);
        }
    }

    #[test]
    fn merge_loop_respects_an_expired_deadline() {
        let hits: Vec<SearchHit> = (0..10)
            .map(|i| SearchHit {
                table: TableId(i),
                score: 1.0 / (i + 1) as f64,
            })
            .collect();
        // A generous deadline merges normally...
        let merged =
            merge_shard_hits(vec![hits.clone(), hits.clone()], 5, &ExecCtx::default()).unwrap();
        assert_eq!(merged.len(), 5);
        // ...an expired one is refused inside the merge itself, naming
        // the in-stage checkpoint.
        let options = QueryOptions {
            deadline_ms: Some(0),
            ..QueryOptions::default()
        };
        let expired = ExecCtx::new(&options, &wwt_obs::Trace::disabled());
        match merge_shard_hits(vec![hits.clone(), hits], 5, &expired) {
            Err(WwtError::DeadlineExceeded(stage)) => assert_eq!(stage, "retrieval merge"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn precomputed_views_answer_identically_to_per_query_views() {
        let docs = [
            currency_page(
                0,
                &[("India", "Rupee"), ("Japan", "Yen"), ("France", "Euro")],
            ),
            currency_page(1, &[("India", "Rupee"), ("Brazil", "Real")]),
            junk_page(),
        ];
        let build = |precompute: bool| {
            let mut b = EngineBuilder::with_config(WwtConfig {
                precompute_views: precompute,
                ..WwtConfig::default()
            });
            b.add_documents(docs.iter().map(String::as_str));
            b.build()
        };
        let fast = build(true);
        let oracle = build(false);
        for query in ["country | currency", "forest | area", "zebra | stripes"] {
            let q = Query::parse(query).unwrap();
            let a = answer(&fast, &q);
            let b = answer(&oracle, &q);
            assert_eq!(a.table, b.table, "{query}");
            assert_eq!(a.candidates, b.candidates, "{query}");
            for (x, y) in a
                .mapping
                .table_relevance
                .iter()
                .zip(&b.mapping.table_relevance)
            {
                assert_eq!(x.to_bits(), y.to_bits(), "relevance drift for {query}");
            }
        }
    }

    #[test]
    fn per_shard_probe_timings_reported() {
        let engine = build_engine();
        let q = Query::parse("country | currency").unwrap();
        let out = answer(&engine, &q);
        assert_eq!(
            out.diagnostics.timing.probe1_shards.len(),
            engine.n_shards(),
            "one probe-1 entry per shard"
        );
        if out.diagnostics.probe2_used {
            assert_eq!(
                out.diagnostics.timing.probe2_shards.len(),
                engine.n_shards()
            );
        } else {
            assert!(out.diagnostics.timing.probe2_shards.is_empty());
        }
    }

    #[test]
    fn live_ingest_makes_a_table_queryable_without_rebuild() {
        let engine = build_engine();
        let volcano = WebTable::new(
            TableId(900),
            "u",
            Some("Volcano heights".into()),
            vec![vec!["Volcano".into(), "Elevation".into()]],
            vec![
                vec!["Etna".into(), "3329".into()],
                vec!["Fuji".into(), "3776".into()],
            ],
            vec![],
        )
        .unwrap();
        let live = engine.with_table_added(volcano);
        assert!(live.is_live());
        assert_eq!(live.delta_len(), 1);
        assert_eq!(live.n_tables(), engine.n_tables() + 1);
        let q = Query::parse("volcano | elevation").unwrap();
        let out = answer(&live, &q);
        assert!(
            out.table.rows.iter().any(|r| r.cells[0] == "Etna"),
            "ingested table must answer: {:?}",
            out.table
        );
        // The original engine is untouched (immutable snapshots).
        assert!(answer(&engine, &q).table.is_empty());
        // Existing queries still answer over the frozen corpus.
        let cq = Query::parse("country | currency").unwrap();
        assert_eq!(answer(&live, &cq).table, answer(&engine, &cq).table);
    }

    #[test]
    fn live_removal_tombstones_and_double_delete_is_none() {
        let engine = build_engine();
        let victim = engine
            .retrieve(&Query::parse("country | currency").unwrap())
            .stage1[0];
        let live = engine.with_table_removed(victim).expect("known table");
        assert_eq!(live.tombstone_len(), 1);
        let q = Query::parse("country | currency").unwrap();
        let out = answer(&live, &q);
        assert!(out.candidates.iter().all(|&id| id != victim));
        // Deleting again, or deleting an unknown id, reports not-found.
        assert!(live.with_table_removed(victim).is_none());
        assert!(engine.with_table_removed(TableId(12345)).is_none());
    }

    #[test]
    fn compaction_is_byte_identical_to_a_fresh_build() {
        let engine = build_engine();
        let extra = WebTable::new(
            TableId(50),
            "u",
            None,
            vec![vec!["Country".into(), "Capital".into()]],
            vec![vec!["India".into(), "Delhi".into()]],
            vec![ContextSnippet::new("capitals of countries", 0.7)],
        )
        .unwrap();
        let victim = engine.store().iter().next().unwrap().id;
        let live = engine
            .with_table_added(extra.clone())
            .with_table_removed(victim)
            .unwrap();
        let compacted = live.compacted();
        assert!(!compacted.is_live());

        // The oracle: build from scratch over the same logical tables.
        let mut tables: Vec<WebTable> = engine
            .store()
            .iter()
            .filter(|t| t.id != victim)
            .cloned()
            .collect();
        tables.push(extra);
        tables.sort_by_key(|t| t.id);
        let mut b = EngineBuilder::with_config(engine.config().clone());
        b.shards(engine.n_shards());
        b.add_tables(tables);
        let oracle = b.build();

        for probe in ["country | currency", "country | capital"] {
            let q = Query::parse(probe).unwrap();
            let a = answer(&compacted, &q);
            let o = answer(&oracle, &q);
            assert_eq!(a.table, o.table, "{probe}");
            assert_eq!(a.candidates, o.candidates, "{probe}");
            for (x, y) in a
                .mapping
                .table_relevance
                .iter()
                .zip(&o.mapping.table_relevance)
            {
                assert_eq!(x.to_bits(), y.to_bits(), "relevance drift for {probe}");
            }
        }
    }

    #[test]
    fn add_then_remove_cancels_back_to_frozen() {
        let engine = build_engine();
        let t = WebTable::new(
            TableId(700),
            "u",
            None,
            vec![vec!["A".into(), "B".into()]],
            vec![vec!["x".into(), "y".into()]],
            vec![],
        )
        .unwrap();
        let live = engine.with_table_added(t);
        assert!(live.is_live());
        let back = live.with_table_removed(TableId(700)).unwrap();
        assert!(!back.is_live(), "cancelled overlay must be dropped");
    }

    #[test]
    fn live_engine_refuses_to_save_until_compacted() {
        let engine = build_engine();
        let t = WebTable::new(
            TableId(800),
            "u",
            None,
            vec![vec!["A".into(), "B".into()]],
            vec![vec!["x".into(), "y".into()]],
            vec![],
        )
        .unwrap();
        let live = engine.with_table_added(t);
        let dir = std::env::temp_dir().join(format!("wwt_live_save_{}", std::process::id()));
        assert!(matches!(live.save_to_dir(&dir), Err(WwtError::Invalid(_))));
        live.compacted().save_to_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reingest_overrides_the_frozen_copy_end_to_end() {
        let engine = build_engine();
        let victim = engine
            .retrieve(&Query::parse("country | currency").unwrap())
            .stage1[0];
        let replacement = WebTable::new(
            victim,
            "u",
            Some("Volcano heights".into()),
            vec![vec!["Volcano".into(), "Elevation".into()]],
            vec![vec!["Etna".into(), "3329".into()]],
            vec![],
        )
        .unwrap();
        let live = engine.with_table_added(replacement);
        assert_eq!(live.n_tables(), engine.n_tables());
        let vq = Query::parse("volcano | elevation").unwrap();
        assert!(answer(&live, &vq).candidates.contains(&victim));
        let cq = Query::parse("country | currency").unwrap();
        let out = answer(&live, &cq);
        assert!(
            out.candidates.iter().all(|&id| id != victim),
            "stale frozen copy must not answer: {:?}",
            out.candidates
        );
    }

    #[test]
    fn bind_threads_produce_identical_engines() {
        let docs: Vec<String> = (0..10)
            .map(|i| currency_page(i, &[("India", "Rupee"), ("Japan", "Yen")]))
            .collect();
        let build = |threads: usize| {
            let mut b = Engine::builder();
            b.shards(4);
            b.bind_threads(threads);
            b.add_documents(docs.iter().map(String::as_str));
            b.build()
        };
        let serial = build(1);
        let q = Query::parse("country | currency").unwrap();
        let expected = answer(&serial, &q);
        for threads in [2usize, 8] {
            let parallel = build(threads);
            let out = answer(&parallel, &q);
            assert_eq!(out.table, expected.table, "threads={threads}");
            assert_eq!(out.candidates, expected.candidates);
            for (x, y) in out
                .mapping
                .table_relevance
                .iter()
                .zip(&expected.mapping.table_relevance)
            {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn default_options_resolve_to_engine_config() {
        let engine = build_engine();
        let cfg = QueryOptions::default().resolve(engine.config()).unwrap();
        assert_eq!(cfg.probe1_k, engine.config().probe1_k);
        assert_eq!(cfg.algorithm, engine.config().algorithm);
    }
}
