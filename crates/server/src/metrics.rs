//! Request counters, a latency histogram and per-stage pipeline
//! histograms, rendered as Prometheus text exposition format (version
//! 0.0.4) for `GET /metrics`.
//!
//! The scalar families are declared once each, with [`wwt_obs::series!`]:
//! the service's in [`ServiceStats`], the HTTP layer's own below. Every
//! exported family (`doc_table_names_exactly_the_rendered_families` keeps
//! this table in step with the render):
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
//! | `wwt_http_deadline_exceeded_total` | counter | Every 504 for an expired `deadline_ms` budget: engine runs, admission shed and batch slots. `/stats` `deadline_exceeded` counts only the engine runs. |
//! | `wwt_engine_generation` | gauge | Generation of the engine snapshot currently serving. |
//! | `wwt_engine_swaps_total` | counter | Engine snapshots hot-swapped in since boot. |
//! | `wwt_engine_reload_failures_total` | counter | Engine reloads that failed to build or swap. |
//! | `wwt_http_concurrency_rejected_total` | counter | Query requests answered 429 at the concurrency limit. |
//! | `wwt_index_shards` | gauge | Index shards the engine scatter-gathers over. |
//! | `wwt_docset_cache_entries` | gauge | Entries in the bounded doc-set probe memo. |
//! | `wwt_delta_tables` | gauge | Tables in the live delta. |
//! | `wwt_delta_segments` | gauge | Segments in the live delta (at most ⌈log₂ batches⌉ + 1). |
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
use std::sync::Mutex;
use std::time::Duration;
use wwt_obs::{write_header, write_prometheus, Histogram, Kind, Scalar, Stage, StageHistograms};
use wwt_service::ServiceStats;

/// Request-latency histogram bucket upper bounds, in microseconds
/// (exported in seconds: 100 µs – 2.5 s). Spans cached hits (tens of
/// microseconds) through cold large-corpus queries (hundreds of ms).
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000, 2_500_000,
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
    /// Every route, in declaration (and so label-sort) order.
    const ALL: [Route; 16] = [
        Route::Query,
        Route::QueryBatch,
        Route::Healthz,
        Route::Stats,
        Route::Metrics,
        Route::Version,
        Route::Shutdown,
        Route::Reload,
        Route::Recover,
        Route::TablesIngest,
        Route::TablesBatch,
        Route::TableDelete,
        Route::Compact,
        Route::DebugSlowQueries,
        Route::DebugTrace,
        Route::Other,
    ];

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

/// The status codes the server answers with, each counted per route in a
/// lock-free cell; any other status goes to a locked map.
const STATUSES: [u16; 12] = [200, 202, 400, 404, 405, 408, 409, 413, 429, 500, 503, 504];

wwt_obs::series! {
    /// The HTTP layer's own scalar series (the service's are
    /// [`ServiceStats`]).
    #[derive(Debug, Clone, Copy, Default)]
    struct ServerCounters stored in ServerCells {
        stored in_flight: u64 => _, "wwt_http_requests_in_flight", Gauge,
            "Requests currently being dispatched.";
        /// Engine runs, queries shed at admission and expired batch slots
        /// alike; `/stats` `deadline_exceeded` counts only the engine runs.
        stored deadline_exceeded: u64 => _, "wwt_http_deadline_exceeded_total", Counter,
            "Requests refused with 504 because their deadline_ms budget expired.";
        /// Successful swaps show up as the service's `swap_count`.
        stored reload_failures: u64 => _, "wwt_engine_reload_failures_total", Counter,
            "Engine reloads that failed to build or swap.";
        stored queries_rejected: u64 => _, "wwt_http_concurrency_rejected_total", Counter,
            "Query requests answered 429 at the per-route concurrency limit.";
        /// Before any dispatch.
        stored queries_shed: u64 => _, "wwt_queries_shed_total", Counter,
            "Queries answered 504 at admission because their deadline budget was spent.";
    }
}

/// Serving-layer counters; one instance shared by every worker.
#[derive(Debug)]
pub struct Metrics {
    /// End-to-end request handling latency; its count is the total of
    /// requests answered (any route, any status).
    latency: Histogram<{ LATENCY_BUCKETS_US.len() }>,
    /// Requests by `(route, status)` label pair for the statuses in
    /// [`STATUSES`], one relaxed cell each, so no request takes a lock.
    by_route_status: [[Scalar; STATUSES.len()]; Route::ALL.len()],
    /// Requests by `(route, status)` for any other status.
    by_route_rare_status: Mutex<BTreeMap<(Route, u16), u64>>,
    counters: ServerCells,
    /// Per-pipeline-stage duration histograms
    /// (`wwt_stage_duration_us{stage=…}`), fed from each answered
    /// query's [`StageTimings`](wwt_engine::StageTimings) plus the
    /// serving-layer cache-lookup and serialization measurements — the
    /// hot path pays only relaxed atomic bucket increments.
    stage: StageHistograms,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            latency: Histogram::new(&LATENCY_BUCKETS_US, 1e6),
            by_route_status: Default::default(),
            by_route_rare_status: Mutex::default(),
            counters: ServerCells::default(),
            stage: StageHistograms::new(),
        }
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one handled request.
    pub fn observe(&self, route: Route, status: u16, elapsed: Duration) {
        self.latency.observe(elapsed.as_micros() as u64);
        match STATUSES.iter().position(|&s| s == status) {
            Some(cell) => self.by_route_status[route as usize][cell].inc(),
            None => {
                *self
                    .by_route_rare_status
                    .lock()
                    .expect("status map poisoned")
                    .entry((route, status))
                    .or_insert(0) += 1
            }
        }
    }

    /// Marks a request as entering dispatch (pair with
    /// [`Metrics::request_finished`]).
    pub fn request_started(&self) {
        self.counters.in_flight.inc();
    }

    /// Marks a dispatched request as finished.
    pub fn request_finished(&self) {
        self.counters.in_flight.dec();
    }

    /// Requests currently being dispatched.
    pub fn in_flight(&self) -> u64 {
        self.counters.in_flight.get()
    }

    /// Total requests handled so far.
    pub fn requests_total(&self) -> u64 {
        self.latency.count()
    }

    /// Records one deadline-expired request or batch slot.
    pub fn note_deadline_exceeded(&self) {
        self.counters.deadline_exceeded.inc();
    }

    /// Records one failed engine reload.
    pub fn note_reload_failure(&self) {
        self.counters.reload_failures.inc();
    }

    /// Records one query rejected at the concurrency limit (429).
    pub fn note_query_rejected(&self) {
        self.counters.queries_rejected.inc();
    }

    /// Records one query shed at admission (its deadline budget was
    /// already spent before dispatch could start).
    pub fn note_query_shed(&self) {
        self.counters.queries_shed.inc();
    }

    /// Records one pipeline-stage duration in the
    /// `wwt_stage_duration_us` histogram family.
    pub fn observe_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage.observe(stage, elapsed.as_micros() as u64);
    }

    /// Renders every series in Prometheus text format, folding in the
    /// service's counters.
    pub fn render_prometheus(&self, service: &ServiceStats) -> String {
        let mut out = String::with_capacity(16 * 1024);
        write_header(
            &mut out,
            "wwt_http_requests_total",
            Kind::Counter,
            "HTTP requests served, by route and status code.",
        );
        let mut by_route = self
            .by_route_rare_status
            .lock()
            .expect("status map poisoned")
            .clone();
        for (route, cells) in Route::ALL.into_iter().zip(&self.by_route_status) {
            for (&status, cell) in STATUSES.iter().zip(cells) {
                let count = cell.get();
                if count > 0 {
                    by_route.insert((route, status), count);
                }
            }
        }
        for ((route, status), count) in &by_route {
            out.push_str(&format!(
                "wwt_http_requests_total{{route=\"{}\",code=\"{status}\"}} {count}\n",
                route.label()
            ));
        }
        const LATENCY: &str = "wwt_http_request_duration_seconds";
        write_header(
            &mut out,
            LATENCY,
            Kind::Histogram,
            "Request handling latency.",
        );
        self.latency.write_prometheus(&mut out, LATENCY, "");
        self.stage.render_prometheus(&mut out);
        write_prometheus(&mut out, service);
        write_prometheus(&mut out, &self.counters.load(ServerCounters::default()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(m: &Metrics) -> String {
        m.render_prometheus(&ServiceStats::default())
    }

    #[test]
    fn observe_accumulates_and_renders() {
        let m = Metrics::new();
        m.observe(Route::Query, 200, Duration::from_micros(800));
        m.observe(Route::Query, 200, Duration::from_millis(30));
        m.observe(Route::Query, 400, Duration::from_micros(50));
        m.observe(Route::Healthz, 200, Duration::from_secs(9));
        assert_eq!(m.requests_total(), 4);

        let text = render(&m);
        assert!(text.contains("wwt_http_requests_total{route=\"query\",code=\"200\"} 2\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"query\",code=\"400\"} 1\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"healthz\",code=\"200\"} 1\n"));
        // 50us and 800us fall at or below the 1ms bucket.
        assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"0.001\"} 2\n"));
        // The 9s observation only appears in +Inf: buckets stay cumulative.
        assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"2.5\"} 3\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_count 4\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_sum 9.03085\n"));
    }

    #[test]
    fn route_status_counts_render_in_label_order_with_rare_statuses() {
        for (i, route) in Route::ALL.into_iter().enumerate() {
            assert_eq!(route as usize, i, "{route:?}");
        }
        let m = Metrics::new();
        for (route, status) in [
            (Route::Other, 431),
            (Route::Query, 504),
            (Route::Query, 299),
            (Route::Healthz, 200),
            (Route::Query, 200),
            (Route::Query, 504),
        ] {
            m.observe(route, status, Duration::from_micros(10));
        }
        let text = render(&m);
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("wwt_http_requests_total{"))
            .collect();
        assert_eq!(
            lines,
            [
                "wwt_http_requests_total{route=\"query\",code=\"200\"} 1",
                "wwt_http_requests_total{route=\"query\",code=\"299\"} 1",
                "wwt_http_requests_total{route=\"query\",code=\"504\"} 2",
                "wwt_http_requests_total{route=\"healthz\",code=\"200\"} 1",
                "wwt_http_requests_total{route=\"other\",code=\"431\"} 1",
            ]
        );
    }

    #[test]
    fn deadline_and_reload_counters_render() {
        let m = Metrics::new();
        m.note_deadline_exceeded();
        m.note_deadline_exceeded();
        m.note_reload_failure();
        let text = render(&m);
        assert!(text.contains("wwt_http_deadline_exceeded_total 2\n"));
        assert!(text.contains("wwt_engine_reload_failures_total 1\n"));
    }

    #[test]
    fn live_ingest_series_render() {
        let m = Metrics::new();
        m.observe(Route::TablesIngest, 202, Duration::from_micros(900));
        m.observe(Route::TableDelete, 404, Duration::from_micros(100));
        m.observe(Route::Compact, 202, Duration::from_micros(400));
        let text = m.render_prometheus(&ServiceStats {
            delta_tables: 2,
            tables_ingested: 6,
            ..ServiceStats::default()
        });
        assert!(text.contains("wwt_http_requests_total{route=\"tables_ingest\",code=\"202\"} 1\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"table_delete\",code=\"404\"} 1\n"));
        assert!(text.contains("wwt_http_requests_total{route=\"compact\",code=\"202\"} 1\n"));
        assert!(text.contains("# TYPE wwt_delta_tables gauge\nwwt_delta_tables 2\n"));
        assert!(text
            .contains("# TYPE wwt_tables_ingested_total counter\nwwt_tables_ingested_total 6\n"));
    }

    #[test]
    fn journal_and_batch_series_render() {
        let m = Metrics::new();
        m.observe(Route::TablesBatch, 202, Duration::from_micros(700));
        let text = m.render_prometheus(&ServiceStats {
            journal_attached: true,
            ..ServiceStats::default()
        });
        assert!(text.contains("wwt_http_requests_total{route=\"tables_batch\",code=\"202\"} 1\n"));
        assert!(text.contains("wwt_journal_attached 1\n"));
    }

    #[test]
    fn stage_histograms_and_flight_counters_render() {
        let m = Metrics::new();
        m.observe_stage(Stage::Probe1, Duration::from_micros(40));
        m.observe_stage(Stage::Probe1, Duration::from_micros(900));
        m.observe_stage(Stage::ColumnMap, Duration::from_millis(3));
        m.observe_stage(Stage::Serialize, Duration::from_micros(10));
        let text = render(&m);
        assert!(text.contains("# TYPE wwt_stage_duration_us histogram"));
        assert!(text.contains("wwt_stage_duration_us_bucket{stage=\"probe1\",le=\"50\"} 1\n"));
        assert!(text.contains("wwt_stage_duration_us_bucket{stage=\"probe1\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("wwt_stage_duration_us_count{stage=\"probe1\"} 2\n"));
        assert!(text.contains("wwt_stage_duration_us_count{stage=\"column_map\"} 1\n"));
        assert!(text.contains("wwt_stage_duration_us_count{stage=\"serialize\"} 1\n"));
        assert!(text.contains("wwt_flight_records_total 0\n"));
    }

    #[test]
    fn mapper_fast_path_counters_render() {
        let text = Metrics::new().render_prometheus(&ServiceStats {
            map_edge_pairs_memoized: 96,
            ..ServiceStats::default()
        });
        let memoized = "wwt_map_edge_pairs_memoized_total";
        assert!(text.contains(&format!("# TYPE {memoized} counter\n{memoized} 96\n")));
    }

    #[test]
    fn resilience_series_render() {
        let m = Metrics::new();
        m.note_query_shed();
        m.note_query_shed();
        let text = m.render_prometheus(&ServiceStats {
            read_only: true,
            ..ServiceStats::default()
        });
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
        assert!(render(&m).contains("wwt_http_requests_in_flight 1\n"));
        m.request_finished();
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn empty_registry_renders_valid_series() {
        let text = render(&Metrics::new());
        assert!(text.contains("wwt_http_request_duration_seconds_count 0\n"));
        assert!(text.contains("wwt_internal_errors_total 0\n"));
        assert!(text.contains("wwt_read_only 0\n"));
        assert!(text.contains("wwt_http_request_duration_seconds_sum 0\n"));
        assert!(text.contains("wwt_cache_misses_total 0\n"));
    }

    #[test]
    fn doc_table_names_exactly_the_rendered_families() {
        let documented: BTreeMap<&str, &str> = include_str!("metrics.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"))
            .map(|row| {
                let mut cells = row.split(" | ");
                let name = cells.next().unwrap();
                let name = name.split(['`', '{']).next().unwrap();
                (name, cells.next().unwrap())
            })
            .collect();
        let text = render(&Metrics::new());
        let rendered: BTreeMap<&str, &str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|family| family.split_once(' ').unwrap())
            .collect();
        assert_eq!(documented, rendered);
        assert_eq!(
            text.matches("# TYPE ").count(),
            rendered.len(),
            "a family renders twice"
        );
    }
}
