//! Pins the exact `GET /stats` body and the `GET /metrics` content for
//! one fixed state, so a refactor of how the serving counters are
//! declared or rendered cannot change a byte a dashboard or scraper
//! reads. `/metrics` is compared as a sorted list of lines: the order of
//! the families may change, their content may not.

use std::time::Duration;
use wwt_obs::Stage;
use wwt_server::metrics::{Metrics, Route};
use wwt_server::wire::encode_stats_with;
use wwt_service::{RecorderCounters, ServiceStats};

/// Every serving counter at a distinct nonzero value. Set field by
/// field, so a counter added later only extends the expected bodies.
fn fixed_stats() -> ServiceStats {
    let mut stats = ServiceStats::default();
    let s = &mut stats;
    s.hits = 11;
    s.misses = 12;
    s.coalesced = 13;
    s.entries = 14;
    s.shards = 15;
    s.index_shards = 16;
    s.generation = 17;
    s.swap_count = 18;
    s.deadline_exceeded = 19;
    s.docset_cache_entries = 20;
    s.delta_tables = 21;
    s.delta_segments = 39;
    s.delta_tombstones = 22;
    s.tables_ingested = 23;
    s.tables_deleted = 24;
    s.compactions = 25;
    s.batches_ingested = 26;
    s.journal_attached = true;
    s.journal_records = 27;
    s.journal_bytes = 28;
    s.recorder = RecorderCounters {
        recorded: 29,
        deadline_exceeded: 30,
        zero_results: 31,
    };
    s.map_edge_pairs_scored = 32;
    s.map_edge_pairs_skipped = 33;
    s.map_edge_pairs_memoized = 34;
    s.map_early_exit_tables = 35;
    s.internal_errors = 36;
    s.degraded_queries = 37;
    s.journal_retries = 38;
    s.read_only = true;
    stats
}

/// The server's own counters at distinct nonzero values, plus one
/// route/status + latency observation and one stage observation.
fn fixed_metrics() -> Metrics {
    let m = Metrics::new();
    (0..2).for_each(|_| m.note_deadline_exceeded());
    (0..3).for_each(|_| m.note_reload_failure());
    (0..4).for_each(|_| m.note_query_rejected());
    (0..6).for_each(|_| m.note_query_shed());
    (0..5).for_each(|_| m.request_started());
    m.observe(Route::Query, 200, Duration::from_micros(1_500));
    m.observe_stage(Stage::ColumnMap, Duration::from_micros(700));
    m
}

#[test]
fn stats_body_is_pinned() {
    let body = encode_stats_with(
        &fixed_stats(),
        Some("reload failed: \"tables.jsonl\" missing"),
        Some("/var/lib/wwt/journal.wal"),
    );
    let expected = concat!(
        "{",
        r#""hits":11,"misses":12,"coalesced":13,"entries":14,"shards":15,"#,
        r#""hit_rate":0.6666666666666666,"generation":17,"swap_count":18,"#,
        r#""deadline_exceeded":19,"index_shards":16,"docset_cache_entries":20,"#,
        r#""delta_tables":21,"delta_segments":39,"delta_tombstones":22,"tables_ingested":23,"#,
        r#""tables_deleted":24,"compactions":25,"batches_ingested":26,"#,
        r#""journal_attached":true,"journal_records":27,"journal_bytes":28,"#,
        r#""flight_records":29,"flight_deadline_exceeded":30,"flight_zero_results":31,"#,
        r#""map_edge_pairs_scored":32,"map_edge_pairs_skipped":33,"#,
        r#""map_edge_pairs_memoized":34,"map_early_exit_tables":35,"#,
        r#""internal_errors":36,"degraded_queries":37,"journal_retries":38,"#,
        r#""read_only":true,"#,
        r#""last_reload_error":"reload failed: \"tables.jsonl\" missing","#,
        r#""journal_path":"/var/lib/wwt/journal.wal""#,
        "}",
    );
    assert_eq!(body, expected);
}

#[test]
fn metrics_lines_are_pinned() {
    let text = fixed_metrics().render_prometheus(&fixed_stats());
    assert!(text.ends_with('\n'));
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines, expected_metrics_lines());
}

/// The `/metrics` lines at the fixed state, sorted.
fn expected_metrics_lines() -> Vec<String> {
    let mut expected: Vec<String> = HISTOGRAM_LINES.lines().map(str::to_string).collect();
    for family in SCALAR_FAMILIES.lines() {
        let mut parts = family.splitn(4, ' ');
        let (kind, name, value, help) = (
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap(),
        );
        expected.push(format!("# HELP {name} {help}"));
        expected.push(format!("# TYPE {name} {kind}"));
        expected.push(format!("{name} {value}"));
    }
    // The stages nothing observed render all-zero histograms.
    for stage in UNOBSERVED_STAGES {
        for le in STAGE_BOUNDS.iter().chain(&["+Inf"]) {
            expected.push(format!(
                "wwt_stage_duration_us_bucket{{stage=\"{stage}\",le=\"{le}\"}} 0"
            ));
        }
        for part in ["sum", "count"] {
            expected.push(format!(
                "wwt_stage_duration_us_{part}{{stage=\"{stage}\"}} 0"
            ));
        }
    }
    expected.sort_unstable();
    expected
}

const UNOBSERVED_STAGES: [&str; 7] = [
    "probe1",
    "read1",
    "probe2",
    "read2",
    "consolidate",
    "cache_lookup",
    "serialize",
];
const STAGE_BOUNDS: [&str; 12] = [
    "50", "100", "250", "500", "1000", "2500", "5000", "10000", "25000", "50000", "100000",
    "250000",
];

/// Every single-sample family as `type name value help`: each expands
/// to its `# HELP`, `# TYPE` and sample lines.
const SCALAR_FAMILIES: &str = "\
gauge wwt_http_requests_in_flight 5 Requests currently being dispatched.
counter wwt_cache_hits_total 11 Requests served from the response cache.
counter wwt_cache_misses_total 12 Requests that ran the engine.
counter wwt_cache_coalesced_total 13 Requests served by joining an identical in-flight computation.
gauge wwt_cache_entries 14 Responses currently cached.
counter wwt_http_deadline_exceeded_total 2 Requests refused with 504 because their deadline_ms budget expired.
gauge wwt_engine_generation 17 Generation of the engine snapshot currently serving.
counter wwt_engine_swaps_total 18 Engine snapshots hot-swapped in since boot.
counter wwt_engine_reload_failures_total 3 Engine reloads that failed to build or swap.
counter wwt_http_concurrency_rejected_total 4 Query requests answered 429 at the per-route concurrency limit.
gauge wwt_index_shards 16 Index shards the serving engine scatter-gathers over.
gauge wwt_docset_cache_entries 20 Entries resident in the bounded doc-set probe memo.
gauge wwt_delta_tables 21 Tables in the serving engine's live delta.
gauge wwt_delta_segments 39 Segments in the serving engine's delta.
gauge wwt_delta_tombstones 22 Frozen tables shadowed by a tombstone or re-ingested copy.
counter wwt_tables_ingested_total 23 Tables accepted by live ingest since boot.
counter wwt_tables_deleted_total 24 Tables removed by live delete since boot.
counter wwt_compactions_total 25 Delta-into-frozen compactions performed since boot.
counter wwt_batches_ingested_total 26 Multi-table ingest batches accepted since boot.
gauge wwt_journal_attached 1 1 when a write-ahead journal is attached, else 0.
gauge wwt_journal_records 27 Intact mutation records currently in the write-ahead journal.
gauge wwt_journal_bytes 28 Bytes of intact records currently in the write-ahead journal.
counter wwt_flight_records_total 29 Queries captured by the slow-query flight recorder.
counter wwt_flight_deadline_exceeded_total 30 Recorded queries that tripped their deadline budget.
counter wwt_flight_zero_results_total 31 Recorded queries that answered an empty table.
counter wwt_map_edge_pairs_scored_total 32 Column pairs exactly scored during edge construction.
counter wwt_map_edge_pairs_skipped_total 33 Column pairs skipped by the content-signature edge index.
counter wwt_map_edge_pairs_memoized_total 34 Column pairs replayed from the cross-query pair memo.
counter wwt_map_early_exit_tables_total 35 Tables whose relevant upper bound could not beat all-nr.
counter wwt_internal_errors_total 36 Pipeline panics caught at the service boundary and answered 500.
counter wwt_degraded_queries_total 37 Fail-soft responses served with degraded: true (partial results).
counter wwt_journal_retries_total 38 Journal appends that needed at least one retry before succeeding.
gauge wwt_read_only 1 1 while the service is in sticky read-only degraded mode, else 0.
counter wwt_queries_shed_total 6 Queries answered 504 at admission because their deadline budget was spent.
";

/// The labelled counter and the histograms, verbatim (only the observed
/// stage, `column_map`, is listed here).
const HISTOGRAM_LINES: &str = r#"# HELP wwt_http_requests_total HTTP requests served, by route and status code.
# TYPE wwt_http_requests_total counter
wwt_http_requests_total{route="query",code="200"} 1
# HELP wwt_http_request_duration_seconds Request handling latency.
# TYPE wwt_http_request_duration_seconds histogram
wwt_http_request_duration_seconds_bucket{le="0.0001"} 0
wwt_http_request_duration_seconds_bucket{le="0.00025"} 0
wwt_http_request_duration_seconds_bucket{le="0.001"} 0
wwt_http_request_duration_seconds_bucket{le="0.0025"} 1
wwt_http_request_duration_seconds_bucket{le="0.005"} 1
wwt_http_request_duration_seconds_bucket{le="0.01"} 1
wwt_http_request_duration_seconds_bucket{le="0.025"} 1
wwt_http_request_duration_seconds_bucket{le="0.05"} 1
wwt_http_request_duration_seconds_bucket{le="0.1"} 1
wwt_http_request_duration_seconds_bucket{le="0.25"} 1
wwt_http_request_duration_seconds_bucket{le="1"} 1
wwt_http_request_duration_seconds_bucket{le="2.5"} 1
wwt_http_request_duration_seconds_bucket{le="+Inf"} 1
wwt_http_request_duration_seconds_sum 0.0015
wwt_http_request_duration_seconds_count 1
# HELP wwt_stage_duration_us Query pipeline stage duration in microseconds.
# TYPE wwt_stage_duration_us histogram
wwt_stage_duration_us_bucket{stage="column_map",le="50"} 0
wwt_stage_duration_us_bucket{stage="column_map",le="100"} 0
wwt_stage_duration_us_bucket{stage="column_map",le="250"} 0
wwt_stage_duration_us_bucket{stage="column_map",le="500"} 0
wwt_stage_duration_us_bucket{stage="column_map",le="1000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="2500"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="5000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="10000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="25000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="50000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="100000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="250000"} 1
wwt_stage_duration_us_bucket{stage="column_map",le="+Inf"} 1
wwt_stage_duration_us_sum{stage="column_map"} 700
wwt_stage_duration_us_count{stage="column_map"} 1
"#;
