//! # wwt-service
//!
//! The concurrent serving layer over an immutable [`Engine`] — the piece
//! that turns the paper's pipeline into the interactive, many-user system
//! its introduction describes.
//!
//! [`TableSearchService`] holds the current engine behind an
//! [`EngineSlot`] — a hot-swappable, generation-tagged snapshot holder —
//! and adds:
//!
//! * a **sharded LRU response cache** keyed by the snapshot generation
//!   plus the normalized query and its per-request option fingerprint
//!   ([`QueryRequest::cache_key`]), returning `Arc<QueryResponse>` so
//!   hits are zero-copy;
//! * **singleflight coalescing**: N concurrent identical cold queries
//!   run the engine once — followers block on the leader's flight and
//!   share its response, always one computed against the same generation
//!   they observed;
//! * **zero-downtime reloads**: [`TableSearchService::reload`] swaps in
//!   a rebuilt engine while queries keep being answered; the generation
//!   bump logically invalidates stale cache entries and in-flight
//!   coalescing without a stop-the-world clear;
//! * [`TableSearchService::answer_batch`], fanning a slice of requests
//!   across a scoped worker pool (work-stealing over a shared cursor);
//! * hit/miss/coalesce/entry/generation/deadline counters
//!   ([`ServiceStats`]) for capacity planning.
//!
//! Everything takes `&self`; one service instance can be shared across
//! any number of threads.

mod cache;
mod singleflight;
mod slot;

use cache::ShardedCache;
use singleflight::{FlightGroup, Role};
pub use slot::{EngineSlot, EngineSnapshot};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wwt_engine::{Engine, QueryRequest, QueryResponse};
use wwt_index::{table_to_json, Journal, JournalRecord};
use wwt_model::{TableId, WebTable, WwtError};
pub use wwt_obs::{FlightRecord, QueryOutcome, RecorderConfig, RecorderCounters};
use wwt_obs::{FlightRecorder, SpanRecord, Stage, Trace, TraceReport};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total response-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Worker threads used by [`TableSearchService::answer_batch`]
    /// (capped by the batch size).
    pub batch_threads: usize,
    /// Slow-query flight recorder retention
    /// ([`TableSearchService::answer_observed`] feeds it).
    pub recorder: RecorderConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            cache_shards: 8,
            batch_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            recorder: RecorderConfig::default(),
        }
    }
}

wwt_obs::series! {
    /// Serving counters, taken as a consistent-enough snapshot. Each one
    /// is declared here once; `GET /stats` and `GET /metrics` render
    /// from this list.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServiceStats stored in Counters {
        stored hits: u64 => "hits", "wwt_cache_hits_total", Counter,
            "Requests served from the response cache.";
        /// One per actual engine execution.
        stored misses: u64 => "misses", "wwt_cache_misses_total", Counter,
            "Requests that ran the engine.";
        /// These are the singleflight followers.
        stored coalesced: u64 => "coalesced", "wwt_cache_coalesced_total", Counter,
            "Requests served by joining an identical in-flight computation.";
        /// Stale generations count until the LRU ages them out.
        sampled entries: usize => "entries", "wwt_cache_entries", Gauge,
            "Responses currently cached.";
        sampled shards: usize => "shards", _, Gauge, "Number of cache shards.";
        /// 0 until the first reload.
        sampled generation: u64 => "generation", "wwt_engine_generation", Gauge,
            "Generation of the engine snapshot currently serving.";
        /// Each one a [`TableSearchService::reload`].
        stored swap_count: u64 => "swap_count", "wwt_engine_swaps_total", Counter,
            "Engine snapshots hot-swapped in since boot.";
        /// Not the HTTP 504 count: `wwt_http_deadline_exceeded_total` also
        /// counts queries shed at admission and expired batch slots.
        stored deadline_exceeded: u64 => "deadline_exceeded", _, Counter,
            "Engine runs that hit their deadline_ms budget.";
        /// 1 = unsharded; sharding never changes answers, only parallelism.
        sampled index_shards: usize => "index_shards", "wwt_index_shards", Gauge,
            "Index shards the serving engine scatter-gathers over.";
        /// Facade plus shards. Bounded and striped, so the gauge plateaus
        /// at the cache capacity under PMI-heavy traffic.
        sampled docset_cache_entries: usize => "docset_cache_entries",
            "wwt_docset_cache_entries", Gauge,
            "Entries resident in the bounded doc-set probe memo.";
        /// 0 when the engine is fully compacted.
        sampled delta_tables: usize => "delta_tables", "wwt_delta_tables", Gauge,
            "Tables in the serving engine's mutable delta segment.";
        /// 0 when the engine is fully compacted.
        sampled delta_tombstones: usize => "delta_tombstones", "wwt_delta_tombstones", Gauge,
            "Frozen tables shadowed by a tombstone or re-ingested copy.";
        /// Through [`TableSearchService::ingest_table`] or
        /// [`TableSearchService::ingest_tables`].
        stored tables_ingested: u64 => "tables_ingested", "wwt_tables_ingested_total", Counter,
            "Tables accepted by live ingest since boot.";
        /// Through [`TableSearchService::remove_table`].
        stored tables_deleted: u64 => "tables_deleted", "wwt_tables_deleted_total", Counter,
            "Tables removed by live delete since boot.";
        /// Through [`TableSearchService::compact`].
        stored compactions: u64 => "compactions", "wwt_compactions_total", Counter,
            "Delta-into-frozen compactions performed since boot.";
        /// Through [`TableSearchService::ingest_tables`]; each batch also
        /// counts its tables in `tables_ingested`.
        stored batches_ingested: u64 => "batches_ingested", "wwt_batches_ingested_total", Counter,
            "Multi-table ingest batches accepted since boot.";
        /// Live mutations are then fsync'd before they are acknowledged
        /// and replay at boot.
        stored journal_attached: bool => "journal_attached", "wwt_journal_attached", Gauge,
            "1 when a write-ahead journal is attached, else 0.";
        /// 0 without one; drops to 0 when compaction truncates it.
        stored journal_records: u64 => "journal_records", "wwt_journal_records", Gauge,
            "Intact mutation records currently in the write-ahead journal.";
        stored journal_bytes: u64 => "journal_bytes", "wwt_journal_bytes", Gauge,
            "Bytes of intact records currently in the write-ahead journal.";
        /// Flight-recorder totals over every query that went through
        /// [`TableSearchService::answer_observed`] (queries answered via the
        /// plain [`TableSearchService::answer`] path are not recorded).
        nested recorder: RecorderCounters;
        /// Summed over every engine run.
        stored map_edge_pairs_scored: u64 => "map_edge_pairs_scored",
            "wwt_map_edge_pairs_scored_total", Counter,
            "Column pairs exactly scored during edge construction.";
        /// Their similarity is provably zero. Summed over every engine run.
        stored map_edge_pairs_skipped: u64 => "map_edge_pairs_skipped",
            "wwt_map_edge_pairs_skipped_total", Counter,
            "Column pairs skipped by the content-signature edge index.";
        /// Instead of being recomputed. Summed over every engine run.
        stored map_edge_pairs_memoized: u64 => "map_edge_pairs_memoized",
            "wwt_map_edge_pairs_memoized_total", Counter,
            "Column pairs replayed from the cross-query pair memo.";
        /// The exact solver early exit. Summed over every engine run.
        stored map_early_exit_tables: u64 => "map_early_exit_tables",
            "wwt_map_early_exit_tables_total", Counter,
            "Tables whose relevant upper bound could not beat all-nr.";
        /// Converted to [`WwtError::Internal`] instead of killing a worker.
        stored internal_errors: u64 => "internal_errors", "wwt_internal_errors_total", Counter,
            "Pipeline panics caught at the service boundary and answered 500.";
        /// Partial answers that survived a shard failure, panic or
        /// deadline squeeze.
        stored degraded_queries: u64 => "degraded_queries", "wwt_degraded_queries_total", Counter,
            "Fail-soft responses served with degraded: true (partial results).";
        /// Transient write errors absorbed by the bounded backoff loop.
        stored journal_retries: u64 => "journal_retries", "wwt_journal_retries_total", Counter,
            "Journal appends that needed at least one retry before succeeding.";
        /// Journal appends exhausted their retries: mutations are refused
        /// with [`WwtError::Unavailable`] (HTTP 503) until an operator
        /// recovers it; queries are unaffected.
        stored read_only: bool => "read_only", "wwt_read_only", Gauge,
            "1 while the service is in sticky read-only degraded mode, else 0.";
    }
}

impl ServiceStats {
    /// Fraction of requests in `[0, 1]` that avoided an engine run —
    /// cache hits plus coalesced followers over everything served.
    /// Exactly `0.0` (never `NaN`) when nothing was served yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }
}

/// The attached write-ahead journal plus the directory compaction
/// persists the folded index into (when the engine was booted from a
/// saved index directory).
struct JournalState {
    journal: Journal,
    /// Where compaction saves the folded frozen index before truncating
    /// the journal. `None` when the engine has no on-disk home (e.g.
    /// booted from a raw corpus): compaction then *keeps* the journal,
    /// because a restart rebuilds the pre-mutation corpus and needs the
    /// full mutation history to catch up.
    persist_dir: Option<PathBuf>,
}

/// A thread-safe table-search front end over a hot-swappable engine
/// snapshot.
pub struct TableSearchService {
    slot: EngineSlot,
    cache: Option<ShardedCache<Arc<QueryResponse>>>,
    inflight: FlightGroup<Arc<QueryResponse>>,
    /// The stored [`ServiceStats`] series. `read_only` doubles as the
    /// sticky read-only degraded mode flag: set when a journal append
    /// exhausts its retries, cleared only by
    /// [`TableSearchService::clear_read_only`]; mutations check it up
    /// front, queries never look at it.
    counters: Counters,
    /// Serializes live mutations (ingest / remove / compact) so each one
    /// applies to the engine the previous one published. Queries never
    /// take this lock.
    live_lock: Mutex<()>,
    /// The write-ahead journal (if attached) and where compaction
    /// persists the folded index. Only touched under `live_lock` on the
    /// mutation path; `stats()` reads the mirrored counters instead.
    journal: Mutex<Option<JournalState>>,
    recorder: FlightRecorder,
    config: ServiceConfig,
}

/// Which serving path produced a response — the flight recorder's
/// `cache` note.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachePath {
    /// Served straight from the response cache.
    Hit,
    /// Joined an identical in-flight computation.
    Shared,
    /// Ran the engine as the singleflight leader.
    Leader,
    /// Ran the engine after an abandoned flight (no coalescing).
    Fallback,
    /// Ran the engine for an `explain` request, past cache and flights.
    Bypass,
}

impl CachePath {
    fn label(self) -> &'static str {
        match self {
            CachePath::Hit => "hit",
            CachePath::Shared => "shared",
            CachePath::Leader => "miss (leader)",
            CachePath::Fallback => "miss (fallback)",
            CachePath::Bypass => "bypass (explain)",
        }
    }
}

/// What [`TableSearchService::answer_observed`] returns: the response
/// plus whether *this* call executed the engine (as opposed to serving
/// cached or coalesced bytes) — so callers feeding per-stage histograms
/// never re-observe a pipeline run that already happened.
#[derive(Debug, Clone)]
pub struct ObservedAnswer {
    /// The answer, shared exactly as [`TableSearchService::answer`]
    /// would return it.
    pub response: Arc<QueryResponse>,
    /// True when this call ran the pipeline (singleflight leader,
    /// post-flight fallback, or an explain bypass).
    pub engine_ran: bool,
}

// One service serves many threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TableSearchService>();
};

impl TableSearchService {
    /// A service with default configuration.
    pub fn new(engine: Arc<Engine>) -> Self {
        Self::with_config(engine, ServiceConfig::default())
    }

    /// A service with explicit serving knobs.
    pub fn with_config(engine: Arc<Engine>, config: ServiceConfig) -> Self {
        let cache = (config.cache_capacity > 0)
            .then(|| ShardedCache::new(config.cache_capacity, config.cache_shards));
        TableSearchService {
            slot: EngineSlot::new(engine),
            cache,
            inflight: FlightGroup::new(),
            counters: Counters::default(),
            live_lock: Mutex::new(()),
            journal: Mutex::new(None),
            recorder: FlightRecorder::new(config.recorder),
            config,
        }
    }

    /// The engine currently serving. A concurrent [`reload`] may replace
    /// it the moment this returns; one *request* always runs against a
    /// single coherent snapshot internally.
    ///
    /// [`reload`]: TableSearchService::reload
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.slot.load().engine)
    }

    /// The current generation-tagged engine snapshot.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.slot.load()
    }

    /// The current engine generation (0 until the first reload).
    pub fn generation(&self) -> u64 {
        self.slot.generation()
    }

    /// Swaps in a rebuilt engine and returns its generation. Queries in
    /// flight finish against the snapshot they observed; new queries see
    /// the new engine immediately. Cached responses of earlier
    /// generations are logically invalidated by the generation-qualified
    /// cache key and age out of the LRU — there is no stop-the-world
    /// clear, so the hit rate of unrelated traffic is undisturbed.
    pub fn reload(&self, engine: Arc<Engine>) -> u64 {
        let generation = self.slot.swap(engine);
        self.counters.swap_count.inc();
        generation
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Ingests one table into the serving engine's mutable delta segment
    /// and publishes the result as a new generation — no full rebuild.
    /// A table whose id already exists (frozen or delta) is replaced.
    /// Returns the generation now serving the table.
    ///
    /// Mutations are serialized by an internal lock so concurrent
    /// ingests/removals/compactions compose instead of clobbering each
    /// other; queries keep flowing against whichever snapshot they
    /// observed.
    pub fn ingest_table(&self, table: WebTable) -> Result<u64, WwtError> {
        self.check_writable()?;
        let _guard = self.live_lock.lock().unwrap();
        let record = JournalRecord::AddTable(table_to_json(&table));
        let next = self.engine().with_table_added(table);
        self.journal_append(std::slice::from_ref(&record))?;
        let generation = self.reload(Arc::new(next));
        self.counters.tables_ingested.inc();
        Ok(generation)
    }

    /// Ingests a whole batch of tables with **one** delta rebuild, one
    /// journal flush and one generation bump — the cost of N single
    /// ingests collapses to roughly the cost of one. Returns the
    /// generation now serving every table in the batch; an empty batch
    /// is a no-op returning the current generation.
    pub fn ingest_tables(&self, tables: Vec<WebTable>) -> Result<u64, WwtError> {
        if tables.is_empty() {
            return Ok(self.generation());
        }
        self.check_writable()?;
        let _guard = self.live_lock.lock().unwrap();
        let records: Vec<JournalRecord> = tables
            .iter()
            .map(|t| JournalRecord::AddTable(table_to_json(t)))
            .collect();
        let count = tables.len() as u64;
        let next = self.engine().with_tables_added(tables);
        self.journal_append(&records)?;
        let generation = self.reload(Arc::new(next));
        self.counters.tables_ingested.add(count);
        self.counters.batches_ingested.inc();
        Ok(generation)
    }

    /// Removes one table (delta eviction or frozen tombstone) and
    /// publishes the result as a new generation. Returns `Ok(None)` when
    /// the id is unknown (or already tombstoned) — nothing is swapped,
    /// no generation is burned and nothing is journaled.
    pub fn remove_table(&self, id: TableId) -> Result<Option<u64>, WwtError> {
        self.check_writable()?;
        let _guard = self.live_lock.lock().unwrap();
        let Some(next) = self.engine().with_table_removed(id) else {
            return Ok(None);
        };
        self.journal_append(&[JournalRecord::RemoveTable(id)])?;
        let generation = self.reload(Arc::new(next));
        self.counters.tables_deleted.inc();
        Ok(Some(generation))
    }

    /// Folds the delta segment and tombstones into a freshly built frozen
    /// engine — byte-identical to building from scratch over the live
    /// logical corpus — and publishes it. A no-op (returning the current
    /// generation, swapping nothing) when the engine has no live
    /// mutations. Returns the generation now serving.
    ///
    /// With a journal attached and an on-disk index home configured, the
    /// folded index is persisted first (write-new, rename) and the
    /// journal truncated after — its records are redundant once the fold
    /// is durable. If persisting fails the journal is kept and the error
    /// surfaces; the freshly compacted engine still serves.
    pub fn compact(&self) -> Result<u64, WwtError> {
        self.check_writable()?;
        let _guard = self.live_lock.lock().unwrap();
        let engine = self.engine();
        if !engine.is_live() {
            return Ok(self.generation());
        }
        let next = Arc::new(engine.compacted());
        let generation = self.reload(Arc::clone(&next));
        self.counters.compactions.inc();
        let mut guard = self.journal.lock().unwrap();
        if let Some(state) = guard.as_mut() {
            if let Some(dir) = state.persist_dir.clone() {
                next.save_to_dir_atomic(&dir)?;
                state.journal.truncate().map_err(WwtError::Io)?;
                self.note_journal_size(&state.journal);
            }
        }
        Ok(generation)
    }

    /// Attaches a write-ahead journal: every subsequent live mutation is
    /// appended (and fsync'd, per the journal's policy) *before* it is
    /// acknowledged, so an uncompacted delta survives a crash and
    /// replays at the next boot. `persist_dir` names the engine's
    /// on-disk home (the `--index-path` directory) when it has one:
    /// compaction then persists the folded index there and truncates the
    /// journal; without one the journal is kept across compactions so a
    /// rebuilt-from-source boot can still catch up.
    ///
    /// The caller replays the journal's recovered records into the
    /// engine *before* constructing the service (see
    /// [`Engine::with_journal_replayed`]) and hands the opened journal
    /// here.
    pub fn attach_journal(&self, journal: Journal, persist_dir: Option<PathBuf>) {
        let _guard = self.live_lock.lock().unwrap();
        self.note_journal_size(&journal);
        self.counters.journal_attached.set(1);
        *self.journal.lock().unwrap() = Some(JournalState {
            journal,
            persist_dir,
        });
    }

    /// The attached journal's path, if one is attached.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.journal
            .lock()
            .unwrap()
            .as_ref()
            .map(|s| s.journal.path().to_path_buf())
    }

    /// Appends records to the attached journal (a no-op without one),
    /// returning only once they are durable per the fsync policy — the
    /// call that must succeed before a mutation is acknowledged.
    ///
    /// Transient append errors are retried a bounded number of times
    /// with a short backoff (the journal rolls back partial records, so
    /// a retry starts from a clean tail). If every attempt fails the
    /// service enters **sticky read-only degraded mode**: this and all
    /// further mutations are refused with [`WwtError::Unavailable`]
    /// until [`TableSearchService::clear_read_only`], while queries
    /// keep being answered from the already-published engine.
    fn journal_append(&self, records: &[JournalRecord]) -> Result<(), WwtError> {
        const ATTEMPTS: u32 = 3;
        let mut guard = self.journal.lock().unwrap();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        let mut last = None;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                // 2ms, then 4ms: long enough to ride out an fsync hiccup,
                // short enough that the mutation caller never notices.
                std::thread::sleep(Duration::from_millis(1 << attempt));
            }
            match state.journal.append_all(records) {
                Ok(()) => {
                    self.note_journal_size(&state.journal);
                    self.counters.journal_retries.add(u64::from(attempt));
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        let e = last.expect("at least one append attempt ran");
        self.counters.read_only.set(1);
        Err(WwtError::Unavailable(format!(
            "journal append failed {ATTEMPTS} times ({e}); service is read-only until recovery"
        )))
    }

    /// Mirrors the journal's size into the `journal_records` and
    /// `journal_bytes` gauges.
    fn note_journal_size(&self, journal: &Journal) {
        self.counters.journal_records.set(journal.records());
        self.counters.journal_bytes.set(journal.bytes());
    }

    /// Fast-fail gate at the top of every mutation: refuses with
    /// [`WwtError::Unavailable`] while the service is in sticky
    /// read-only degraded mode.
    fn check_writable(&self) -> Result<(), WwtError> {
        if self.read_only() {
            Err(WwtError::Unavailable(
                "service is read-only (journal degraded); mutations are refused until recovery"
                    .to_string(),
            ))
        } else {
            Ok(())
        }
    }

    /// Whether the service is in sticky read-only degraded mode
    /// (mutations refused, queries unaffected).
    pub fn read_only(&self) -> bool {
        self.counters.read_only.get() != 0
    }

    /// Clears sticky read-only degraded mode — the operator's recovery
    /// lever (`POST /admin/recover`) once the journal's storage is
    /// healthy again. A no-op when the service is already writable.
    pub fn clear_read_only(&self) {
        self.counters.read_only.set(0);
    }

    /// Tables currently in the serving engine's delta segment.
    pub fn delta_len(&self) -> usize {
        self.engine().delta_len()
    }

    /// Answers one request: response cache first, then singleflight — if
    /// an identical request is already executing, this caller blocks and
    /// shares the leader's response instead of re-running the engine.
    /// Errors (bad options, expired deadlines) are never cached and
    /// never shared: a failed flight makes each caller compute (and
    /// fail) for itself.
    ///
    /// The snapshot is loaded once up front and the cache/singleflight
    /// key is qualified by its generation, so everything this request
    /// touches — cache hits, shared flights, the engine run itself —
    /// belongs to the one generation the caller observed, even while a
    /// concurrent [`TableSearchService::reload`] swaps the slot.
    pub fn answer(&self, request: &QueryRequest) -> Result<Arc<QueryResponse>, WwtError> {
        self.answer_path(&self.slot.load(), request)
            .map(|(response, _)| response)
    }

    /// [`answer`](TableSearchService::answer) against a pinned snapshot,
    /// plus which serving path produced the response, for the flight
    /// recorder.
    fn answer_path(
        &self,
        snapshot: &EngineSnapshot,
        request: &QueryRequest,
    ) -> Result<(Arc<QueryResponse>, CachePath), WwtError> {
        let key = format!("g{}\u{1f}{}", snapshot.generation, request.cache_key());
        if let Some(hit) = self.cache_get(&key) {
            self.counters.hits.inc();
            return Ok((hit, CachePath::Hit));
        }
        let (flight, path) = match self.inflight.join(&key, || self.cache_get(&key)) {
            Role::Cached(hit) => {
                self.counters.hits.inc();
                return Ok((hit, CachePath::Hit));
            }
            Role::Shared(Some(shared)) => {
                self.counters.coalesced.inc();
                return Ok((shared, CachePath::Shared));
            }
            // The leader failed (or unwound); coalescing is best-effort,
            // so compute directly — error paths fail fast anyway.
            Role::Shared(None) => (None, CachePath::Fallback),
            Role::Leader(guard) => (Some(guard), CachePath::Leader),
        };
        let result = self.run(snapshot, request, &Trace::disabled());
        let insert = || {
            if let (Ok(response), Some(cache)) = (&result, &self.cache) {
                cache.insert(key.clone(), Arc::clone(response));
            }
        };
        match flight {
            // The cache insert happens while the flight closes, so late
            // joiners either share the flight or hit the cache in their
            // recheck — never a second engine run.
            Some(guard) => guard.publish(result.as_ref().ok().cloned(), insert),
            None => insert(),
        }
        result.map(|response| (response, path))
    }

    /// Answers one request under the flight recorder's watch, stamping it
    /// with the caller-supplied `request_id` (the `x-request-id` of the
    /// HTTP layer).
    ///
    /// * `explain` requests bypass the response cache and singleflight
    ///   entirely: each one runs the engine with a fresh enabled
    ///   [`Trace`], so the returned
    ///   [`trace`](wwt_engine::QueryDiagnostics::trace) is this
    ///   execution's, never a cached stranger's — and no trace-carrying
    ///   response is ever cached where a plain request could share it.
    /// * Plain requests take the exact
    ///   [`answer`](TableSearchService::answer) path (byte-identical
    ///   responses, zero tracing overhead in the engine); afterwards a
    ///   stage-level trace is synthesized from the response's
    ///   [`StageTimings`](wwt_engine::StageTimings) for the recorder.
    ///
    /// Every query lands in the flight recorder, stamped with the
    /// generation of the snapshot that answered it: the N slowest and N
    /// most recent are retained, and deadline-exceeded / zero-result
    /// queries are additionally kept in the anomaly buffer.
    pub fn answer_observed(
        &self,
        request: &QueryRequest,
        request_id: &str,
    ) -> Result<ObservedAnswer, WwtError> {
        let t0 = Instant::now();
        let snapshot = self.slot.load();
        let result = if request.options.explain {
            let trace = Trace::enabled(request_id);
            trace.note("cache", CachePath::Bypass.label());
            trace.note("generation", snapshot.generation.to_string());
            self.run(&snapshot, request, &trace)
                .map(|response| (response, CachePath::Bypass))
        } else {
            self.answer_path(&snapshot, request)
        };
        let elapsed = t0.elapsed();
        self.record_flight(request, request_id, snapshot.generation, elapsed, &result);
        result.map(|(response, path)| ObservedAnswer {
            response,
            engine_ran: !matches!(path, CachePath::Hit | CachePath::Shared),
        })
    }

    /// Captures one finished query, answered by engine `generation`, in
    /// the flight recorder.
    fn record_flight(
        &self,
        request: &QueryRequest,
        request_id: &str,
        generation: u64,
        elapsed: Duration,
        result: &Result<(Arc<QueryResponse>, CachePath), WwtError>,
    ) {
        let (outcome, rows) = match result {
            Ok((response, _)) if response.table.is_empty() => (QueryOutcome::ZeroResults, 0),
            Ok((response, _)) => (QueryOutcome::Ok, response.table.len()),
            Err(WwtError::DeadlineExceeded(_)) => (QueryOutcome::DeadlineExceeded, 0),
            Err(_) => (QueryOutcome::Error, 0),
        };
        let trace = match result {
            // An explain run already carries its own full trace.
            Ok((response, path)) => match &response.diagnostics.trace {
                Some(report) => report.clone(),
                None => synthetic_trace(request_id, response, *path, elapsed),
            },
            Err(e) => error_trace(request_id, e, elapsed),
        };
        self.recorder.record(FlightRecord {
            seq: 0, // assigned by the recorder
            request_id: request_id.to_string(),
            query: request.query.to_string(),
            duration_us: elapsed.as_micros() as u64,
            outcome,
            generation,
            rows,
            trace,
        });
    }

    /// The N slowest recorded queries, slowest first.
    pub fn slow_queries(&self) -> Vec<FlightRecord> {
        self.recorder.slowest()
    }

    /// The N most recently recorded queries, newest first.
    pub fn recent_queries(&self) -> Vec<FlightRecord> {
        self.recorder.recent()
    }

    /// Recently recorded deadline-exceeded / zero-result / failed
    /// queries, newest first.
    pub fn anomalous_queries(&self) -> Vec<FlightRecord> {
        self.recorder.anomalies()
    }

    /// The most recent retained record for `request_id`, if any buffer
    /// still holds one.
    pub fn find_trace(&self, request_id: &str) -> Option<FlightRecord> {
        self.recorder.find(request_id)
    }

    fn cache_get(&self, key: &str) -> Option<Arc<QueryResponse>> {
        self.cache.as_ref().and_then(|cache| cache.get(key))
    }

    /// The one engine run: `request` against a pinned snapshot,
    /// recording into `trace` (disabled on the cached path, enabled for
    /// explain), behind a panic barrier and with the serving counters
    /// maintained.
    ///
    /// A pipeline panic (a poisoned shard worker, an injected
    /// `probe.shard=panic`, a plain bug) becomes [`WwtError::Internal`]
    /// instead of unwinding into the serving stack — so a singleflight
    /// leader still closes its flight with an explicit failure and an
    /// HTTP worker answers 500 instead of dying. Every caught panic ticks
    /// [`ServiceStats::internal_errors`]; the error text carries the
    /// panic message so `/flights` anomalies stay attributable.
    fn run(
        &self,
        snapshot: &EngineSnapshot,
        request: &QueryRequest,
        trace: &Trace,
    ) -> Result<Arc<QueryResponse>, WwtError> {
        let run = || snapshot.engine.answer_traced(request, trace);
        let c = &self.counters;
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => {
                if matches!(e, WwtError::DeadlineExceeded(_)) {
                    c.deadline_exceeded.inc();
                }
                return Err(e);
            }
            Err(payload) => {
                c.internal_errors.inc();
                return Err(WwtError::Internal(format!(
                    "query pipeline panicked: {}",
                    wwt_pool::panic_message(payload.as_ref())
                )));
            }
        };
        if response.diagnostics.degraded {
            c.degraded_queries.inc();
        }
        let ms = response.diagnostics.map_stats;
        c.map_edge_pairs_scored.add(ms.edge_pairs_scored);
        c.map_edge_pairs_skipped.add(ms.edge_pairs_skipped);
        c.map_edge_pairs_memoized.add(ms.edge_pairs_memoized);
        c.map_early_exit_tables.add(ms.early_exit_tables);
        c.misses.inc();
        Ok(Arc::new(response))
    }

    /// Answers a batch of requests concurrently, fanning them over up to
    /// `batch_threads` scoped workers ([`wwt_engine::fan_out`]). Results
    /// come back in input order; each slot carries its own request's
    /// result.
    pub fn answer_batch(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<Arc<QueryResponse>, WwtError>> {
        wwt_engine::fan_out(requests.len(), self.config.batch_threads, |i| {
            self.answer(&requests[i])
        })
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServiceStats {
        let snapshot = self.slot.load();
        let cache = self.cache.as_ref();
        self.counters.load(ServiceStats {
            entries: cache.map(ShardedCache::len).unwrap_or(0),
            shards: cache.map(ShardedCache::n_shards).unwrap_or(0),
            generation: self.slot.generation(),
            index_shards: snapshot.engine.n_shards(),
            docset_cache_entries: snapshot.engine.docset_cache_entries(),
            delta_tables: snapshot.engine.delta_len(),
            delta_tombstones: snapshot.engine.tombstone_len(),
            recorder: self.recorder.counters(),
            ..ServiceStats::default()
        })
    }

    /// Drops every cached response (counters are kept).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }
}

/// A stage-level trace reconstructed from a finished response's
/// [`StageTimings`] — what the flight recorder stores for plain
/// (non-explain) queries, whose hot path records no spans of its own.
/// For cached/coalesced responses the stage spans describe the engine run
/// that originally produced the shared bytes, flagged by the `cache`
/// note.
///
/// [`StageTimings`]: wwt_engine::StageTimings
fn synthetic_trace(
    request_id: &str,
    response: &QueryResponse,
    path: CachePath,
    elapsed: Duration,
) -> TraceReport {
    let trace = Trace::enabled(request_id);
    trace.note("cache", path.label());
    let timing = &response.diagnostics.timing;
    for (stage, elapsed) in timing.stages() {
        let shards: &[Duration] = match stage {
            Stage::Probe1 => &timing.probe1_shards,
            Stage::Probe2 => &timing.probe2_shards,
            _ => &[],
        };
        let mut span = SpanRecord::new(stage.label(), elapsed);
        for (i, d) in shards.iter().enumerate() {
            span = span.with_child(SpanRecord::new(format!("shard{i}"), *d));
        }
        trace.push_span(span);
    }
    trace.note("candidates", response.diagnostics.n_candidates.to_string());
    trace.note("rows", response.table.len().to_string());
    trace
        .finish(elapsed)
        .expect("an enabled trace always yields a report")
}

/// The minimal trace recorded for a failed query.
fn error_trace(request_id: &str, error: &WwtError, elapsed: Duration) -> TraceReport {
    let trace = Trace::enabled(request_id);
    trace.note("error", error.to_string());
    trace
        .finish(elapsed)
        .expect("an enabled trace always yields a report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_core::InferenceAlgorithm;
    use wwt_corpus::{workload, CorpusConfig, CorpusGenerator};
    use wwt_engine::{bind_corpus, EngineBuilder, WwtConfig};

    fn small_engine() -> Arc<Engine> {
        let specs: Vec<_> = workload()
            .into_iter()
            .filter(|s| {
                let q = s.query.to_string();
                q.starts_with("country | currency") || q.starts_with("dog breed")
            })
            .collect();
        let corpus = CorpusGenerator::new(CorpusConfig::small()).generate_for(&specs);
        Arc::new(bind_corpus(&corpus, WwtConfig::default()).engine)
    }

    fn tiny_engine() -> Arc<Engine> {
        let page = "<html><body><p>countries and currency</p><table>\
             <tr><th>Country</th><th>Currency</th></tr>\
             <tr><td>India</td><td>Rupee</td></tr>\
             <tr><td>Japan</td><td>Yen</td></tr></table></body></html>";
        let mut b = EngineBuilder::new();
        b.add_html(page);
        Arc::new(b.build())
    }

    #[test]
    fn concurrent_answers_match_serial() {
        let engine = small_engine();
        let requests: Vec<QueryRequest> = [
            "country | currency",
            "dog breed",
            "country | currency | xyz",
            "currency",
        ]
        .iter()
        .map(|s| QueryRequest::parse(s).unwrap())
        .collect();

        // Serial reference answers through a cache-less service.
        let no_cache = ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let serial_service = TableSearchService::with_config(Arc::clone(&engine), no_cache);
        let serial: Vec<_> = requests
            .iter()
            .map(|r| serial_service.answer(r).unwrap())
            .collect();

        // ≥ 4 threads hammer one shared (caching) service.
        let service = Arc::new(TableSearchService::new(engine));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                let requests = &requests;
                let serial = &serial;
                scope.spawn(move || {
                    for _ in 0..3 {
                        for (req, reference) in requests.iter().zip(serial) {
                            let out = service.answer(req).unwrap();
                            assert_eq!(out.table, reference.table);
                            assert_eq!(out.candidates, reference.candidates);
                        }
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.coalesced,
            4 * 3 * requests.len() as u64
        );
        assert!(stats.hits > 0, "repeats must hit the cache: {stats:?}");
    }

    #[test]
    fn repeated_request_hits_cache_and_override_misses() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();

        let first = service.answer(&req).unwrap();
        assert_eq!(service.stats().hits, 0);
        assert_eq!(service.stats().misses, 1);

        // Identical request: cache hit, same shared response.
        let second = service.answer(&req).unwrap();
        assert_eq!(service.stats().hits, 1);
        assert_eq!(service.stats().misses, 1);
        assert!(Arc::ptr_eq(&first, &second));

        // An option override changes the key: miss.
        let tuned = service.answer(&req.clone().max_rows(1)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert!(tuned.table.len() <= 1);
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
    }

    #[test]
    fn errors_are_not_cached() {
        let service = TableSearchService::new(tiny_engine());
        let bad = QueryRequest::parse("country | currency")
            .unwrap()
            .probe1_k(0);
        assert!(service.answer(&bad).is_err());
        assert!(service.answer(&bad).is_err());
        assert_eq!(service.stats().entries, 0);
    }

    #[test]
    fn batch_matches_individual_answers_and_preserves_order() {
        let service = TableSearchService::new(tiny_engine());
        let requests: Vec<QueryRequest> = vec![
            QueryRequest::parse("country | currency").unwrap(),
            QueryRequest::parse("currency").unwrap(),
            QueryRequest::parse("country | currency")
                .unwrap()
                .probe1_k(0), // error slot
            QueryRequest::parse("country | currency")
                .unwrap()
                .algorithm(InferenceAlgorithm::Independent),
        ];
        let batch = service.answer_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        assert!(batch[2].is_err(), "error requests keep their slot");
        for (i, req) in requests.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let individual = service.answer(req).unwrap();
            let batched = batch[i].as_ref().unwrap();
            assert_eq!(batched.table, individual.table);
        }
    }

    #[test]
    fn cache_disabled_still_serves() {
        let service = TableSearchService::with_config(
            tiny_engine(),
            ServiceConfig {
                cache_capacity: 0,
                cache_shards: 0,
                batch_threads: 2,
                recorder: RecorderConfig::default(),
            },
        );
        let req = QueryRequest::parse("country | currency").unwrap();
        let a = service.answer(&req).unwrap();
        let b = service.answer(&req).unwrap();
        assert_eq!(a.table, b.table);
        let stats = service.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_any_request() {
        let service = TableSearchService::new(tiny_engine());
        let stats = service.stats();
        assert_eq!(stats.hits + stats.misses + stats.coalesced, 0);
        let rate = stats.hit_rate();
        assert!(!rate.is_nan(), "hit_rate must never be NaN");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn singleflight_runs_engine_once_for_concurrent_identical_queries() {
        const CALLERS: usize = 8;
        let service = Arc::new(TableSearchService::new(small_engine()));
        let request = QueryRequest::parse("country | currency").unwrap();
        let barrier = std::sync::Barrier::new(CALLERS);
        let answers: Vec<Arc<QueryResponse>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let request = request.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        service.answer(&request).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for answer in &answers[1..] {
            assert_eq!(answer.table, answers[0].table);
        }
        let stats = service.stats();
        // Exactly one engine execution: late joiners either shared the
        // flight (coalesced) or hit the cache the leader filled while
        // closing it (hits) — the `misses` counter is the engine-run
        // count.
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(
            stats.hits + stats.coalesced,
            (CALLERS - 1) as u64,
            "{stats:?}"
        );
        // How the 7 followers split between `coalesced` (joined the
        // in-flight computation) and `hits` (arrived after the leader
        // cached) is a scheduling race — on a single core a fast engine
        // can finish before any follower starts, so neither side is
        // asserted non-zero here. `singleflight_coalesces_even_without_a
        // _cache` pins the coalescing path itself.
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn singleflight_coalesces_even_without_a_cache() {
        const CALLERS: usize = 6;
        let no_cache = ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let service = Arc::new(TableSearchService::with_config(small_engine(), no_cache));
        // The slowest algorithm keeps the leader's flight open long enough
        // for the callers the barrier releases to join it.
        let request = QueryRequest::parse("country | currency")
            .unwrap()
            .algorithm(InferenceAlgorithm::BeliefPropagation);
        let barrier = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                let service = Arc::clone(&service);
                let request = request.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    service.answer(&request).unwrap();
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses + stats.coalesced, CALLERS as u64, "{stats:?}");
        // Without a cache a caller arriving after the flight closed runs
        // the engine itself, so allow a straggler — but the barrier makes
        // genuine concurrency overwhelmingly likely.
        assert!(stats.coalesced > 0, "no caller coalesced: {stats:?}");
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn singleflight_errors_stay_per_caller() {
        let service = Arc::new(TableSearchService::new(tiny_engine()));
        let bad = QueryRequest::parse("country | currency")
            .unwrap()
            .probe1_k(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                let bad = bad.clone();
                scope.spawn(move || {
                    assert!(matches!(service.answer(&bad), Err(WwtError::Invalid(_))));
                });
            }
        });
        assert_eq!(service.stats().entries, 0);
    }

    #[test]
    fn clear_cache_forces_recompute() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();
        service.answer(&req).unwrap();
        service.clear_cache();
        assert_eq!(service.stats().entries, 0);
        service.answer(&req).unwrap();
        assert_eq!(service.stats().misses, 2);
    }

    /// A second tiny engine over a different corpus, to make swaps
    /// observable in answers.
    fn brazil_engine() -> Arc<Engine> {
        let page = "<html><body><p>countries and currency</p><table>\
             <tr><th>Country</th><th>Currency</th></tr>\
             <tr><td>Brazil</td><td>Real</td></tr>\
             <tr><td>India</td><td>Rupee</td></tr></table></body></html>";
        let mut b = EngineBuilder::new();
        b.add_html(page);
        Arc::new(b.build())
    }

    #[test]
    fn reload_swaps_the_engine_and_bumps_generation() {
        let service = TableSearchService::new(tiny_engine());
        assert_eq!(service.generation(), 0);
        let req = QueryRequest::parse("country | currency").unwrap();
        let before = service.answer(&req).unwrap();
        assert!(before.table.rows.iter().all(|r| r.cells[0] != "Brazil"));

        assert_eq!(service.reload(brazil_engine()), 1);
        let stats = service.stats();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.swap_count, 1);

        let after = service.answer(&req).unwrap();
        assert!(
            after.table.rows.iter().any(|r| r.cells[0] == "Brazil"),
            "post-swap answers must reflect the new corpus: {:?}",
            after.table
        );
    }

    #[test]
    fn cache_entries_never_cross_generations() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();
        service.answer(&req).unwrap();
        assert_eq!(service.stats().misses, 1);
        assert_eq!(service.stats().entries, 1);

        // Swapping in *the same* engine must still miss: the key carries
        // the generation, so the gen-0 entry is logically invalidated.
        service.reload(service.engine());
        service.answer(&req).unwrap();
        let stats = service.stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses, 2, "gen-0 cache entry served across a swap");
        // The stale entry lingers in the LRU until evicted — by design.
        assert_eq!(stats.entries, 2);

        // Within the new generation, repeats hit again.
        service.answer(&req).unwrap();
        assert_eq!(service.stats().hits, 1);
    }

    #[test]
    fn answers_stay_clean_while_reloads_hammer_the_slot() {
        const WORKERS: usize = 4;
        const SWAPS: usize = 30;
        let service = Arc::new(TableSearchService::new(tiny_engine()));
        let req = QueryRequest::parse("country | currency").unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                let service = Arc::clone(&service);
                let req = req.clone();
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let out = service.answer(&req).unwrap();
                        // Every answer is complete and from one coherent
                        // snapshot — never empty, never torn.
                        assert_eq!(out.table.columns.len(), 2);
                        assert!(!out.table.is_empty());
                    }
                });
            }
            let tiny = tiny_engine();
            let brazil = brazil_engine();
            for i in 0..SWAPS {
                let next = if i % 2 == 0 { &brazil } else { &tiny };
                service.reload(Arc::clone(next));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let stats = service.stats();
        assert_eq!(stats.swap_count, SWAPS as u64);
        assert_eq!(stats.generation, SWAPS as u64);
    }

    fn volcano_table() -> WebTable {
        WebTable::new(
            TableId(9_000),
            "live://volcano",
            Some("Volcano heights".into()),
            vec![vec!["Volcano".into(), "Elevation".into()]],
            vec![
                vec!["Etna".into(), "3329".into()],
                vec!["Fuji".into(), "3776".into()],
            ],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn ingest_makes_a_table_queryable_and_bumps_generation() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("volcano | elevation").unwrap();
        assert!(service.answer(&req).unwrap().table.is_empty());

        let generation = service.ingest_table(volcano_table()).unwrap();
        assert_eq!(generation, 1);
        let out = service.answer(&req).unwrap();
        assert!(
            out.table.rows.iter().any(|r| r.cells[0] == "Etna"),
            "ingested table must answer: {:?}",
            out.table
        );

        let stats = service.stats();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.swap_count, 1);
        assert_eq!(stats.delta_tables, 1);
        assert_eq!(stats.tables_ingested, 1);
        assert_eq!(stats.tables_deleted, 0);
        assert_eq!(stats.compactions, 0);
    }

    #[test]
    fn remove_unknown_table_is_none_and_swaps_nothing() {
        let service = TableSearchService::new(tiny_engine());
        assert_eq!(service.remove_table(TableId(123_456)).unwrap(), None);
        let stats = service.stats();
        assert_eq!(stats.generation, 0);
        assert_eq!(stats.swap_count, 0);
        assert_eq!(stats.tables_deleted, 0);
    }

    #[test]
    fn compact_folds_the_delta_and_keeps_answers() {
        let service = TableSearchService::new(tiny_engine());
        // Compacting a fully frozen engine is a free no-op.
        assert_eq!(service.compact().unwrap(), 0);
        assert_eq!(service.stats().compactions, 0);

        service.ingest_table(volcano_table()).unwrap();
        assert_eq!(service.delta_len(), 1);
        let req = QueryRequest::parse("volcano | elevation").unwrap();
        let before = service.answer(&req).unwrap();

        let generation = service.compact().unwrap();
        assert_eq!(generation, 2);
        let stats = service.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.delta_tables, 0);
        assert_eq!(stats.delta_tombstones, 0);
        assert!(!service.engine().is_live());

        let after = service.answer(&req).unwrap();
        assert_eq!(after.table, before.table);

        // Removing the now-frozen table tombstones it.
        assert_eq!(service.remove_table(TableId(9_000)).unwrap(), Some(3));
        assert!(service.answer(&req).unwrap().table.is_empty());
        let stats = service.stats();
        assert_eq!(stats.tables_deleted, 1);
        assert_eq!(stats.delta_tombstones, 1);
    }

    #[test]
    fn concurrent_ingests_all_land() {
        const WRITERS: usize = 4;
        let service = Arc::new(TableSearchService::new(tiny_engine()));
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let t = WebTable::new(
                        TableId(9_100 + w as u32),
                        "live://w",
                        None,
                        vec![vec!["Volcano".into(), "Elevation".into()]],
                        vec![vec![format!("Peak{w}"), "1000".into()]],
                        vec![],
                    )
                    .unwrap();
                    service.ingest_table(t).unwrap();
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.delta_tables, WRITERS);
        assert_eq!(stats.tables_ingested, WRITERS as u64);
        assert_eq!(stats.swap_count, WRITERS as u64);
        assert_eq!(service.engine().n_tables(), 1 + WRITERS);
    }

    #[test]
    fn batch_ingest_is_one_generation_for_n_tables() {
        let service = TableSearchService::new(tiny_engine());
        let tables: Vec<WebTable> = (0..3u32)
            .map(|i| {
                WebTable::new(
                    TableId(9_200 + i),
                    "live://batch",
                    None,
                    vec![vec!["Volcano".into(), "Elevation".into()]],
                    vec![vec![format!("Peak{i}"), "1000".into()]],
                    vec![],
                )
                .unwrap()
            })
            .collect();
        let generation = service.ingest_tables(tables).unwrap();
        assert_eq!(generation, 1, "N tables, one generation bump");
        let stats = service.stats();
        assert_eq!(stats.tables_ingested, 3);
        assert_eq!(stats.batches_ingested, 1);
        assert_eq!(stats.swap_count, 1);
        assert_eq!(stats.delta_tables, 3);
        let req = QueryRequest::parse("volcano | elevation").unwrap();
        assert_eq!(service.answer(&req).unwrap().table.len(), 3);
        // An empty batch swaps nothing and counts nothing.
        assert_eq!(service.ingest_tables(Vec::new()).unwrap(), 1);
        assert_eq!(service.stats().batches_ingested, 1);
    }

    #[test]
    fn journal_makes_mutations_durable_and_truncates_on_compact() {
        let dir = std::env::temp_dir().join(format!("wwt-svc-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = tiny_engine();
        let frozen_tables = engine.n_tables();
        engine.save_to_dir(&dir).unwrap();
        let wal = dir.join("journal.wal");
        let req = QueryRequest::parse("volcano | elevation").unwrap();

        // Boot 1: attach a journal, ingest, then "crash" (drop).
        {
            let service = TableSearchService::new(engine);
            let (journal, replay) = Journal::open(&wal, wwt_index::FsyncPolicy::Never).unwrap();
            assert!(replay.records.is_empty());
            service.attach_journal(journal, Some(dir.clone()));
            service.ingest_table(volcano_table()).unwrap();
            let stats = service.stats();
            assert!(stats.journal_attached);
            assert_eq!(stats.journal_records, 1);
            assert!(stats.journal_bytes > 0);
        }

        // Boot 2: the frozen dir alone has no volcano table; dir +
        // journal replay reconstructs the pre-crash corpus.
        let (journal, replay) = Journal::open(&wal, wwt_index::FsyncPolicy::Never).unwrap();
        assert_eq!(replay.records.len(), 1);
        let recovered = Engine::load_from_dir(&dir, WwtConfig::default())
            .unwrap()
            .with_journal_replayed(&replay.records)
            .unwrap();
        assert_eq!(recovered.delta_len(), 1);
        let service = TableSearchService::new(Arc::new(recovered));
        service.attach_journal(journal, Some(dir.clone()));
        assert!(service
            .answer(&req)
            .unwrap()
            .table
            .rows
            .iter()
            .any(|r| r.cells[0] == "Etna"));

        // Compaction persists the fold into the dir and truncates the
        // journal — the records are redundant once the fold is durable.
        service.compact().unwrap();
        let stats = service.stats();
        assert_eq!(stats.journal_records, 0);
        assert_eq!(stats.journal_bytes, 0);
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
        drop(service);

        // Boot 3: the dir alone now carries the folded table.
        let fresh = Engine::load_from_dir(&dir, WwtConfig::default()).unwrap();
        assert_eq!(fresh.n_tables(), frozen_tables + 1);
        assert!(!fresh.is_live());
        let service = TableSearchService::new(Arc::new(fresh));
        assert!(service
            .answer(&req)
            .unwrap()
            .table
            .rows
            .iter()
            .any(|r| r.cells[0] == "Etna"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_without_an_index_home_keeps_the_journal() {
        let dir = std::env::temp_dir().join(format!("wwt-svc-nohome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("journal.wal");
        let service = TableSearchService::new(tiny_engine());
        let (journal, _) = Journal::open(&wal, wwt_index::FsyncPolicy::Never).unwrap();
        // No persist_dir: the engine was built from a source the journal
        // cannot re-create, so its records stay until an on-disk fold.
        service.attach_journal(journal, None);
        service.ingest_table(volcano_table()).unwrap();
        service.compact().unwrap();
        let stats = service.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(
            stats.journal_records, 1,
            "journal must survive a fold that was not persisted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_bypasses_the_cache_and_attaches_a_fresh_trace() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();

        // Warm the plain entry first; explain must not hit it.
        service.answer(&req).unwrap();
        assert_eq!(service.stats().entries, 1);

        let traced = req.clone().explain(true);
        let first = service.answer_observed(&traced, "rid-1").unwrap();
        assert!(first.engine_ran, "explain always runs the engine");
        let first = first.response;
        let second = service.answer_observed(&traced, "rid-2").unwrap().response;

        // Each explain run executed the engine itself and cached nothing.
        let stats = service.stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses, 3, "{stats:?}");
        assert_eq!(stats.entries, 1, "explain responses must never be cached");

        // Each response carries its own trace, stamped with its own id.
        let report1 = first.diagnostics.trace.as_ref().unwrap();
        let report2 = second.diagnostics.trace.as_ref().unwrap();
        assert_eq!(report1.request_id, "rid-1");
        assert_eq!(report2.request_id, "rid-2");
        assert!(report1.spans.iter().any(|s| s.name == "probe1"));
        assert!(report1.spans.iter().any(|s| s.name == "consolidate"));
        assert_eq!(
            report1.notes.iter().find(|(k, _)| k == "cache").unwrap().1,
            "bypass (explain)"
        );

        // And the answer itself matches the plain path.
        let plain = service.answer(&req).unwrap();
        assert_eq!(first.table, plain.table);
        assert_eq!(first.candidates, plain.candidates);
    }

    #[test]
    fn explain_runs_feed_the_mapper_counters() {
        let service = TableSearchService::new(small_engine());
        let traced = QueryRequest::parse("country | currency")
            .unwrap()
            .explain(true);
        let answer = service.answer_observed(&traced, "rid-map").unwrap();
        let ms = answer.response.diagnostics.map_stats;
        assert!(answer.response.candidates.len() > 1);
        let stats = service.stats();
        assert!(stats.map_edge_pairs_scored > 0, "{stats:?}");
        assert_eq!(stats.map_edge_pairs_scored, ms.edge_pairs_scored);
        assert_eq!(stats.map_edge_pairs_skipped, ms.edge_pairs_skipped);
        assert_eq!(stats.map_early_exit_tables, ms.early_exit_tables);
    }

    #[test]
    fn flight_recorder_captures_outcomes_paths_and_finds_traces() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();

        // Engine run (leader), then a cache hit of the same query.
        assert!(
            service
                .answer_observed(&req, "rid-cold")
                .unwrap()
                .engine_ran
        );
        assert!(
            !service
                .answer_observed(&req, "rid-warm")
                .unwrap()
                .engine_ran
        );
        // A zero-result query and a deadline-exceeded one.
        let empty = QueryRequest::parse("xylophone | zzzz").unwrap();
        service.answer_observed(&empty, "rid-empty").unwrap();
        // An uncached query: deadlines share cache keys with plain
        // requests, so a cached one would be a (successful) free hit.
        let hurried = QueryRequest::parse("currency").unwrap().deadline_ms(0);
        assert!(service.answer_observed(&hurried, "rid-late").is_err());

        let stats = service.stats();
        assert_eq!(stats.recorder.recorded, 4, "{stats:?}");
        assert_eq!(stats.recorder.zero_results, 1, "{stats:?}");
        assert_eq!(stats.recorder.deadline_exceeded, 1, "{stats:?}");

        let cold = service.find_trace("rid-cold").unwrap();
        assert_eq!(cold.outcome, QueryOutcome::Ok);
        assert!(cold.rows > 0);
        assert!(cold.trace.spans.iter().any(|s| s.name == "column_map"));
        assert_eq!(
            cold.trace
                .notes
                .iter()
                .find(|(k, _)| k == "cache")
                .unwrap()
                .1,
            "miss (leader)"
        );
        let warm = service.find_trace("rid-warm").unwrap();
        assert_eq!(
            warm.trace
                .notes
                .iter()
                .find(|(k, _)| k == "cache")
                .unwrap()
                .1,
            "hit"
        );
        let late = service.find_trace("rid-late").unwrap();
        assert_eq!(late.outcome, QueryOutcome::DeadlineExceeded);
        assert!(late.trace.notes.iter().any(|(k, _)| k == "error"));
        assert_eq!(
            service.find_trace("rid-empty").unwrap().outcome,
            QueryOutcome::ZeroResults
        );
        assert!(service.find_trace("rid-unknown").is_none());

        // Anomalies retain exactly the empty and late queries.
        let anomalies = service.anomalous_queries();
        assert_eq!(anomalies.len(), 2);
        // Slowest + recent both see all four.
        assert_eq!(service.recent_queries().len(), 4);
        assert_eq!(service.slow_queries().len(), 4);
    }

    #[test]
    fn expired_deadlines_surface_and_are_counted_not_cached() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();
        let hurried = req.clone().deadline_ms(0);
        assert!(matches!(
            service.answer(&hurried),
            Err(WwtError::DeadlineExceeded(_))
        ));
        let stats = service.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.entries, 0, "failed requests must not be cached");

        // A generous budget answers normally and shares the cache entry
        // with the unbudgeted form of the query.
        let relaxed = service.answer(&req.clone().deadline_ms(60_000)).unwrap();
        let plain = service.answer(&req).unwrap();
        assert!(Arc::ptr_eq(&relaxed, &plain));
        let stats = service.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.deadline_exceeded, 1);
    }

    #[test]
    fn read_only_mode_refuses_mutations_but_answers_queries() {
        let service = TableSearchService::new(tiny_engine());
        let req = QueryRequest::parse("country | currency").unwrap();
        assert!(!service.read_only());
        assert!(!service.stats().read_only);

        // Force the sticky degraded mode (journal_append sets this when
        // its retries are exhausted; see tests/chaos_resilience.rs for
        // the fault-injected end-to-end path).
        service.counters.read_only.set(1);

        for result in [
            service.ingest_table(volcano_table()).map(Some),
            service.ingest_tables(vec![volcano_table()]).map(Some),
            service.remove_table(TableId(0)).map(|_| None),
            service.compact().map(Some),
        ] {
            match result {
                Err(WwtError::Unavailable(m)) => {
                    assert!(m.contains("read-only"), "message names the mode: {m}")
                }
                other => panic!("mutations must 503 in read-only mode, got {other:?}"),
            }
        }
        // An empty batch is a no-op even in read-only mode.
        assert_eq!(service.ingest_tables(Vec::new()).unwrap(), 0);

        // Queries are untouched by the degraded write path.
        assert!(!service.answer(&req).unwrap().table.is_empty());
        let stats = service.stats();
        assert!(stats.read_only);
        assert_eq!(stats.tables_ingested, 0);
        assert_eq!(stats.swap_count, 0, "no generation was burned");

        // Operator recovery restores the write path.
        service.clear_read_only();
        assert!(!service.read_only());
        assert!(service.ingest_table(volcano_table()).is_ok());
    }
}
