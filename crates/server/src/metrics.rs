//! Request counters, a latency histogram and per-stage pipeline
//! histograms, rendered as Prometheus text exposition format (version
//! 0.0.4) for `GET /metrics`.
//!
//! Every exported series:
//!
//! | Series | Kind | Meaning |
//! |---|---|---|
//! | `wwt_http_requests_total{route,code}` | counter | Requests served, by route label and status code. |
//! | `wwt_http_request_duration_seconds` | histogram | End-to-end request handling latency (12 buckets, 100 µs – 2.5 s). |
//! | `wwt_http_requests_in_flight` | gauge | Requests currently being dispatched. |
//! | `wwt_stage_duration_us{stage}` | histogram | Query pipeline stage wall-clock in microseconds (12 buckets, 50 µs – 250 ms) for `probe1`, `read1`, `probe2`, `read2`, `column_map`, `consolidate`, plus the serving-layer `cache_lookup` and `serialize` stages. |
//! | `wwt_cache_hits_total` | counter | Requests served from the response cache. |
//! | `wwt_cache_misses_total` | counter | Requests that ran the engine. |
//! | `wwt_cache_coalesced_total` | counter | Requests that joined an identical in-flight computation. |
//! | `wwt_cache_entries` | gauge | Responses currently cached. |
//! | `wwt_http_deadline_exceeded_total` | counter | Requests refused with 504 (expired `deadline_ms`). |
//! | `wwt_engine_generation` | gauge | Generation of the engine snapshot currently serving. |
//! | `wwt_engine_swaps_total` | counter | Engine snapshots hot-swapped in since boot. |
//! | `wwt_engine_reload_failures_total` | counter | Engine reloads that failed to build or swap. |
//! | `wwt_http_concurrency_rejected_total` | counter | Query requests answered 429 at the concurrency limit. |
//! | `wwt_index_shards` | gauge | Index shards the engine scatter-gathers over. |
//! | `wwt_docset_cache_entries` | gauge | Entries in the bounded doc-set probe memo. |
//! | `wwt_delta_tables` | gauge | Tables in the mutable delta segment. |
//! | `wwt_delta_tombstones` | gauge | Frozen tables shadowed by a tombstone or re-ingested copy. |
//! | `wwt_tables_ingested_total` | counter | Tables accepted by live ingest since boot. |
//! | `wwt_tables_deleted_total` | counter | Tables removed by live delete since boot. |
//! | `wwt_compactions_total` | counter | Delta-into-frozen compactions since boot. |
//! | `wwt_batches_ingested_total` | counter | Multi-table ingest batches accepted since boot (their tables also count in `wwt_tables_ingested_total`). |
//! | `wwt_journal_attached` | gauge | 1 when a write-ahead journal is attached (mutations are fsync'd before the 202), else 0. |
//! | `wwt_journal_records` | gauge | Intact mutation records currently in the journal (drops to 0 when compaction truncates it). |
//! | `wwt_journal_bytes` | gauge | Bytes of intact records currently in the journal. |
//! | `wwt_flight_records_total` | counter | Queries captured by the slow-query flight recorder. |
//! | `wwt_flight_deadline_exceeded_total` | counter | Recorded queries that tripped their deadline. |
//! | `wwt_flight_zero_results_total` | counter | Recorded queries that answered an empty table. |
//! | `wwt_map_edge_pairs_scored_total` | counter | Column pairs exactly scored during edge construction. |
//! | `wwt_map_edge_pairs_skipped_total` | counter | Column pairs skipped by the content-signature edge index. |
//! | `wwt_map_edge_pairs_memoized_total` | counter | Column pairs replayed from the cross-query pair memo. |
//! | `wwt_map_early_exit_tables_total` | counter | Tables whose relevant upper bound could not beat all-`nr`. |
//! | `wwt_internal_errors_total` | counter | Pipeline panics caught at the service boundary and answered 500. |
//! | `wwt_degraded_queries_total` | counter | Fail-soft responses served with `degraded: true` (partial results). |
//! | `wwt_journal_retries_total` | counter | Journal appends that needed at least one retry before succeeding. |
//! | `wwt_read_only` | gauge | 1 while the service is in sticky read-only degraded mode (mutations answer 503), else 0. |
//! | `wwt_queries_shed_total` | counter | Queries shed at admission (504 before dispatch) because their deadline budget was already spent. |

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use wwt_obs::{Stage, StageHistograms};
use wwt_service::ServiceStats;

/// Histogram bucket upper bounds, in seconds. Spans cached hits (tens of
/// microseconds) through cold large-corpus queries (hundreds of ms).
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    0.000_1, 0.000_25, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 2.5,
];

/// The route label of a request, for per-route counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `POST /query`.
    Query,
    /// `POST /query/batch`.
    QueryBatch,
    /// `GET /healthz`.
    Healthz,
    /// `GET /stats`.
    Stats,
    /// `GET /metrics`.
    Metrics,
    /// `GET /version`.
    Version,
    /// `POST /admin/shutdown`.
    Shutdown,
    /// `POST /admin/reload`.
    Reload,
    /// `POST /admin/recover` (clear sticky read-only mode).
    Recover,
    /// `POST /admin/tables` (live ingest).
    TablesIngest,
    /// `POST /admin/tables/batch` (batched live ingest).
    TablesBatch,
    /// `DELETE /admin/tables/{id}`.
    TableDelete,
    /// `POST /admin/compact`.
    Compact,
    /// `GET /debug/slow_queries`.
    DebugSlowQueries,
    /// `GET /debug/trace/{request_id}`.
    DebugTrace,
    /// Anything else (404/405/413 traffic).
    Other,
}

impl Route {
    fn label(self) -> &'static str {
        match self {
            Route::Query => "query",
            Route::QueryBatch => "query_batch",
            Route::Healthz => "healthz",
            Route::Stats => "stats",
            Route::Metrics => "metrics",
            Route::Version => "version",
            Route::Shutdown => "shutdown",
            Route::Reload => "reload",
            Route::Recover => "recover",
            Route::TablesIngest => "tables_ingest",
            Route::TablesBatch => "tables_batch",
            Route::TableDelete => "table_delete",
            Route::Compact => "compact",
            Route::DebugSlowQueries => "debug_slow_queries",
            Route::DebugTrace => "debug_trace",
            Route::Other => "other",
        }
    }
}

/// Serving-layer counters; one instance shared by every worker.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total requests answered (any route, any status).
    requests_total: AtomicU64,
    /// Requests currently being dispatched.
    in_flight: AtomicU64,
    /// Cumulative request-handling time in microseconds.
    latency_sum_us: AtomicU64,
    /// Requests per histogram bucket (`LATENCY_BUCKETS_S`, cumulative
    /// counts are computed at render time; each observation lands in its
    /// first fitting bucket; overflows only count toward `+Inf`).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_S.len()],
    /// Requests by `(route, status)` label pair.
    by_route_status: Mutex<BTreeMap<(Route, u16), u64>>,
    /// Requests (or batch slots) refused because their `deadline_ms`
    /// budget expired — the 504 mapping's dedicated counter.
    deadline_exceeded: AtomicU64,
    /// Engine reloads that failed to build/swap (successful swaps show
    /// up as the service's `swap_count`).
    reload_failures: AtomicU64,
    /// Query/batch requests answered 429 because the per-route
    /// concurrency limit was saturated.
    queries_rejected: AtomicU64,
    /// Queries answered 504 at admission, before any dispatch, because
    /// their deadline budget was already spent on arrival.
    queries_shed: AtomicU64,
    /// Per-pipeline-stage duration histograms
    /// (`wwt_stage_duration_us{stage=…}`), fed from each answered
    /// query's [`StageTimings`](wwt_engine::StageTimings) plus the
    /// serving-layer cache-lookup and serialization measurements — the
    /// hot path pays only relaxed atomic bucket increments.
    stage: StageHistograms,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one handled request.
    pub fn observe(&self, route: Route, status: u16, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        if let Some(i) = LATENCY_BUCKETS_S.iter().position(|&le| secs <= le) {
            self.latency_buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        *self
            .by_route_status
            .lock()
            .unwrap()
            .entry((route, status))
            .or_insert(0) += 1;
    }

    /// Marks a request as entering dispatch (pair with
    /// [`Metrics::request_finished`]).
    pub fn request_started(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks a dispatched request as finished.
    pub fn request_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests currently being dispatched.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Total requests handled so far.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Records one deadline-expired request or batch slot.
    pub fn note_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline-expired requests so far.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Records one failed engine reload.
    pub fn note_reload_failure(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Failed engine reloads so far.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// Records one pipeline-stage duration in the
    /// `wwt_stage_duration_us` histogram family.
    pub fn observe_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage.observe(stage, elapsed.as_micros() as u64);
    }

    /// The per-stage histogram registry.
    pub fn stage_histograms(&self) -> &StageHistograms {
        &self.stage
    }

    /// Records one query rejected at the concurrency limit (429).
    pub fn note_query_rejected(&self) {
        self.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Concurrency-limit rejections so far.
    pub fn queries_rejected(&self) -> u64 {
        self.queries_rejected.load(Ordering::Relaxed)
    }

    /// Records one query shed at admission (its deadline budget was
    /// already spent before dispatch could start).
    pub fn note_query_shed(&self) {
        self.queries_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission-shed queries so far.
    pub fn queries_shed(&self) -> u64 {
        self.queries_shed.load(Ordering::Relaxed)
    }

    /// Renders every series in Prometheus text format, folding in the
    /// service's cache counters.
    pub fn render_prometheus(&self, cache: &ServiceStats) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str(
            "# HELP wwt_http_requests_total HTTP requests served, by route and status code.\n",
        );
        out.push_str("# TYPE wwt_http_requests_total counter\n");
        let by_route = self.by_route_status.lock().unwrap().clone();
        for ((route, status), count) in &by_route {
            out.push_str(&format!(
                "wwt_http_requests_total{{route=\"{}\",code=\"{status}\"}} {count}\n",
                route.label()
            ));
        }

        out.push_str("# HELP wwt_http_request_duration_seconds Request handling latency.\n");
        out.push_str("# TYPE wwt_http_request_duration_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS_S.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "wwt_http_request_duration_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        // Read the total *after* the buckets and clamp: a concurrent
        // observe between the two reads must never make a finite bucket
        // exceed +Inf (Prometheus treats a non-monotone histogram as
        // corrupt).
        let total = self.requests_total().max(cumulative);
        out.push_str(&format!(
            "wwt_http_request_duration_seconds_bucket{{le=\"+Inf\"}} {total}\n"
        ));
        out.push_str(&format!(
            "wwt_http_request_duration_seconds_sum {}\n",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "wwt_http_request_duration_seconds_count {total}\n"
        ));
        out.push_str(
            "# HELP wwt_http_requests_in_flight Requests currently being dispatched.\n\
             # TYPE wwt_http_requests_in_flight gauge\n",
        );
        out.push_str(&format!(
            "wwt_http_requests_in_flight {}\n",
            self.in_flight()
        ));

        self.stage.render_prometheus(&mut out);

        for (name, help, kind, value) in [
            (
                "wwt_cache_hits_total",
                "Requests served from the response cache.",
                "counter",
                cache.hits,
            ),
            (
                "wwt_cache_misses_total",
                "Requests that ran the engine.",
                "counter",
                cache.misses,
            ),
            (
                "wwt_cache_coalesced_total",
                "Requests served by joining an identical in-flight computation.",
                "counter",
                cache.coalesced,
            ),
            (
                "wwt_cache_entries",
                "Responses currently cached.",
                "gauge",
                cache.entries as u64,
            ),
            (
                "wwt_http_deadline_exceeded_total",
                "Requests refused with 504 because their deadline_ms budget expired.",
                "counter",
                self.deadline_exceeded(),
            ),
            (
                "wwt_engine_generation",
                "Generation of the engine snapshot currently serving.",
                "gauge",
                cache.generation,
            ),
            (
                "wwt_engine_swaps_total",
                "Engine snapshots hot-swapped in since boot.",
                "counter",
                cache.swap_count,
            ),
            (
                "wwt_engine_reload_failures_total",
                "Engine reloads that failed to build or swap.",
                "counter",
                self.reload_failures(),
            ),
            (
                "wwt_http_concurrency_rejected_total",
                "Query requests answered 429 at the per-route concurrency limit.",
                "counter",
                self.queries_rejected(),
            ),
            (
                "wwt_index_shards",
                "Index shards the serving engine scatter-gathers over.",
                "gauge",
                cache.index_shards as u64,
            ),
            (
                "wwt_docset_cache_entries",
                "Entries resident in the bounded doc-set probe memo.",
                "gauge",
                cache.docset_cache_entries as u64,
            ),
            (
                "wwt_delta_tables",
                "Tables in the serving engine's mutable delta segment.",
                "gauge",
                cache.delta_tables as u64,
            ),
            (
                "wwt_delta_tombstones",
                "Frozen tables shadowed by a tombstone or re-ingested copy.",
                "gauge",
                cache.delta_tombstones as u64,
            ),
            (
                "wwt_tables_ingested_total",
                "Tables accepted by live ingest since boot.",
                "counter",
                cache.tables_ingested,
            ),
            (
                "wwt_tables_deleted_total",
                "Tables removed by live delete since boot.",
                "counter",
                cache.tables_deleted,
            ),
            (
                "wwt_compactions_total",
                "Delta-into-frozen compactions performed since boot.",
                "counter",
                cache.compactions,
            ),
            (
                "wwt_batches_ingested_total",
                "Multi-table ingest batches accepted since boot.",
                "counter",
                cache.batches_ingested,
            ),
            (
                "wwt_journal_attached",
                "1 when a write-ahead journal is attached, else 0.",
                "gauge",
                cache.journal_attached as u64,
            ),
            (
                "wwt_journal_records",
                "Intact mutation records currently in the write-ahead journal.",
                "gauge",
                cache.journal_records,
            ),
            (
                "wwt_journal_bytes",
                "Bytes of intact records currently in the write-ahead journal.",
                "gauge",
                cache.journal_bytes,
            ),
            (
                "wwt_flight_records_total",
                "Queries captured by the slow-query flight recorder.",
                "counter",
                cache.recorder.recorded,
            ),
            (
                "wwt_flight_deadline_exceeded_total",
                "Recorded queries that tripped their deadline budget.",
                "counter",
                cache.recorder.deadline_exceeded,
            ),
            (
                "wwt_flight_zero_results_total",
                "Recorded queries that answered an empty table.",
                "counter",
                cache.recorder.zero_results,
            ),
            (
                "wwt_map_edge_pairs_scored_total",
                "Column pairs exactly scored during edge construction.",
                "counter",
                cache.map_edge_pairs_scored,
            ),
            (
                "wwt_map_edge_pairs_skipped_total",
                "Column pairs skipped by the content-signature edge index.",
                "counter",
                cache.map_edge_pairs_skipped,
            ),
            (
                "wwt_map_edge_pairs_memoized_total",
                "Column pairs replayed from the cross-query pair memo.",
                "counter",
                cache.map_edge_pairs_memoized,
            ),
            (
                "wwt_map_early_exit_tables_total",
                "Tables whose relevant upper bound could not beat all-nr.",
                "counter",
                cache.map_early_exit_tables,
            ),
            (
                "wwt_internal_errors_total",
                "Pipeline panics caught at the service boundary and answered 500.",
                "counter",
                cache.internal_errors,
            ),
            (
                "wwt_degraded_queries_total",
                "Fail-soft responses served with degraded: true (partial results).",
                "counter",
                cache.degraded_queries,
            ),
            (
                "wwt_journal_retries_total",
                "Journal appends that needed at least one retry before succeeding.",
                "counter",
                cache.journal_retries,
            ),
            (
                "wwt_read_only",
                "1 while the service is in sticky read-only degraded mode, else 0.",
                "gauge",
                cache.read_only as u64,
            ),
            (
                "wwt_queries_shed_total",
                "Queries answered 504 at admission because their deadline budget was spent.",
                "counter",
                self.queries_shed(),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_stats() -> ServiceStats {
        ServiceStats {
            hits: 3,
            misses: 2,
            coalesced: 1,
            entries: 2,
            shards: 8,
            index_shards: 4,
            generation: 4,
            swap_count: 4,
            deadline_exceeded: 0,
            docset_cache_entries: 5,
            delta_tables: 2,
            delta_tombstones: 1,
            tables_ingested: 6,
            tables_deleted: 1,
            compactions: 3,
            batches_ingested: 2,
            journal_attached: true,
            journal_records: 7,
            journal_bytes: 1024,
            recorder: wwt_service::RecorderCounters {
                recorded: 10,
                deadline_exceeded: 1,
                zero_results: 2,
            },
            map_edge_pairs_scored: 128,
            map_edge_pairs_skipped: 512,
            map_edge_pairs_memoized: 96,
            map_early_exit_tables: 9,
            internal_errors: 2,
            degraded_queries: 3,
            journal_retries: 1,
            read_only: true,
        }
    }

    #[test]
    fn observe_accumulates_and_renders() {
        let m = Metrics::new();
        m.observe(Route::Query, 200, Duration::from_micros(800));
        m.observe(Route::Query, 200, Duration::from_millis(30));
        m.observe(Route::Query, 400, Duration::from_micros(50));
        m.observe(Route::Healthz, 200, Duration::from_secs(9));
        assert_eq!(m.requests_total(), 4);

        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_http_requests_total{route=\"query\",code=\"200\"} 2\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"query\",code=\"400\"} 1\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"healthz\",code=\"200\"} 1\n"));
        // 50us and 800us fall at or below the 1ms bucket.
        assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"0.001\"} 2\n"));
        // The 9s observation only appears in +Inf: buckets stay cumulative.
        assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"2.5\"} 3\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_count 4\n"));
        assert!(text.contains("wwt_cache_hits_total 3\n"));
        assert!(text.contains("wwt_cache_coalesced_total 1\n"));
        assert!(text.contains("wwt_cache_entries 2\n"));
        assert!(text.contains("wwt_engine_generation 4\n"));
        assert!(text.contains("wwt_engine_swaps_total 4\n"));
        assert!(text.contains("wwt_docset_cache_entries 5\n"));
    }

    #[test]
    fn deadline_and_reload_counters_render() {
        let m = Metrics::new();
        m.note_deadline_exceeded();
        m.note_deadline_exceeded();
        m.note_reload_failure();
        assert_eq!(m.deadline_exceeded(), 2);
        assert_eq!(m.reload_failures(), 1);
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_http_deadline_exceeded_total 2\n"));
        assert!(text.contains("wwt_engine_reload_failures_total 1\n"));
    }

    #[test]
    fn live_ingest_series_render() {
        let m = Metrics::new();
        m.observe(Route::TablesIngest, 202, Duration::from_micros(900));
        m.observe(Route::TableDelete, 404, Duration::from_micros(100));
        m.observe(Route::Compact, 202, Duration::from_micros(400));
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_http_requests_total{route=\"tables_ingest\",code=\"202\"} 1\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"table_delete\",code=\"404\"} 1\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"compact\",code=\"202\"} 1\n"));
        assert!(text.contains("wwt_delta_tables 2\n"));
        assert!(text.contains("wwt_delta_tombstones 1\n"));
        assert!(text.contains("wwt_tables_ingested_total 6\n"));
        assert!(text.contains("wwt_tables_deleted_total 1\n"));
        assert!(text.contains("wwt_compactions_total 3\n"));
    }

    #[test]
    fn journal_and_batch_series_render() {
        let m = Metrics::new();
        m.observe(Route::TablesBatch, 202, Duration::from_micros(700));
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_http_requests_total{route=\"tables_batch\",code=\"202\"} 1\n"));
        assert!(text.contains("wwt_batches_ingested_total 2\n"));
        assert!(text.contains("wwt_journal_attached 1\n"));
        assert!(text.contains("wwt_journal_records 7\n"));
        assert!(text.contains("wwt_journal_bytes 1024\n"));
    }

    #[test]
    fn stage_histograms_and_flight_counters_render() {
        let m = Metrics::new();
        m.observe_stage(Stage::Probe1, Duration::from_micros(40));
        m.observe_stage(Stage::Probe1, Duration::from_micros(900));
        m.observe_stage(Stage::ColumnMap, Duration::from_millis(3));
        m.observe_stage(Stage::Serialize, Duration::from_micros(10));
        assert_eq!(m.stage_histograms().count(Stage::Probe1), 2);
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("# TYPE wwt_stage_duration_us histogram"));
        assert!(text.contains("wwt_stage_duration_us_bucket{stage=\"probe1\",le=\"50\"} 1\n"));
        assert!(text.contains("wwt_stage_duration_us_bucket{stage=\"probe1\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("wwt_stage_duration_us_count{stage=\"probe1\"} 2\n"));
        assert!(text.contains("wwt_stage_duration_us_count{stage=\"column_map\"} 1\n"));
        assert!(text.contains("wwt_stage_duration_us_count{stage=\"serialize\"} 1\n"));
        assert!(text.contains("wwt_flight_records_total 10\n"));
        assert!(text.contains("wwt_flight_deadline_exceeded_total 1\n"));
        assert!(text.contains("wwt_flight_zero_results_total 2\n"));
    }

    #[test]
    fn mapper_fast_path_counters_render() {
        let m = Metrics::new();
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_map_edge_pairs_scored_total 128\n"));
        assert!(text.contains("wwt_map_edge_pairs_skipped_total 512\n"));
        assert!(text.contains("wwt_map_edge_pairs_memoized_total 96\n"));
        assert!(text.contains("wwt_map_early_exit_tables_total 9\n"));
    }

    #[test]
    fn resilience_series_render() {
        let m = Metrics::new();
        m.note_query_shed();
        m.note_query_shed();
        assert_eq!(m.queries_shed(), 2);
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_internal_errors_total 2\n"));
        assert!(text.contains("wwt_degraded_queries_total 3\n"));
        assert!(text.contains("wwt_journal_retries_total 1\n"));
        assert!(text.contains("wwt_read_only 1\n"));
        assert!(text.contains("wwt_queries_shed_total 2\n"));
    }

    #[test]
    fn in_flight_gauge_tracks_and_renders() {
        let m = Metrics::new();
        m.request_started();
        m.request_started();
        m.request_finished();
        assert_eq!(m.in_flight(), 1);
        let text = m.render_prometheus(&cache_stats());
        assert!(text.contains("wwt_http_requests_in_flight 1\n"));
        m.request_finished();
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn empty_registry_renders_valid_series() {
        let m = Metrics::new();
        let text = m.render_prometheus(&ServiceStats {
            hits: 0,
            misses: 0,
            coalesced: 0,
            entries: 0,
            shards: 0,
            index_shards: 1,
            generation: 0,
            swap_count: 0,
            deadline_exceeded: 0,
            docset_cache_entries: 0,
            delta_tables: 0,
            delta_tombstones: 0,
            tables_ingested: 0,
            tables_deleted: 0,
            compactions: 0,
            batches_ingested: 0,
            journal_attached: false,
            journal_records: 0,
            journal_bytes: 0,
            recorder: wwt_service::RecorderCounters::default(),
            map_edge_pairs_scored: 0,
            map_edge_pairs_skipped: 0,
            map_edge_pairs_memoized: 0,
            map_early_exit_tables: 0,
            internal_errors: 0,
            degraded_queries: 0,
            journal_retries: 0,
            read_only: false,
        });
        assert!(text.contains("wwt_http_request_duration_seconds_count 0\n"));
        assert!(text.contains("wwt_internal_errors_total 0\n"));
        assert!(text.contains("wwt_read_only 0\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_sum 0\n"));
        assert!(text.contains("wwt_cache_misses_total 0\n"));
    }
}
