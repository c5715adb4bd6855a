//! The HTTP JSON request/response layer: typed `QueryRequest`s in,
//! `QueryResponse`s out, over the shared [`wwt_json`] codec.
//!
//! Request body:
//!
//! ```text
//! {"query": "country | currency",
//!  "options": {"algorithm": "table_centric", "probe1_k": 60, "probe2_k": 12,
//!              "high_relevance": 0.75, "max_rows": 10}}
//! ```
//!
//! `options` and every key inside it are optional; unknown keys are a
//! 400 (catching typos beats silently ignoring a mistyped `max_rows`).
//! Batch bodies wrap a list: `{"requests": [<request>, …]}`, at most
//! [`MAX_BATCH_REQUESTS`] slots per request.

use std::time::Duration;
use wwt_core::InferenceAlgorithm;
use wwt_engine::{QueryOptions, QueryRequest, QueryResponse};
use wwt_json::{write_num, write_str, write_u64, Json};
use wwt_model::{Query, TableId, WwtError};
use wwt_service::ServiceStats;

/// A client-visible failure: HTTP status plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Human-readable description, returned in the JSON error body.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Maps an engine/service error onto a status: unparseable queries and
/// invalid option values are the client's fault (400), an expired
/// request deadline is 504 (the upstream engine ran out of time, not
/// crashed), everything else — I/O, corruption — is the server's (500).
/// Keeping bad input and timeouts out of the plain-5xx class keeps
/// server-error alerting meaningful.
pub fn api_error(e: &WwtError) -> ApiError {
    let status = match e {
        WwtError::Query(_) | WwtError::Invalid(_) => 400,
        WwtError::DeadlineExceeded(_) => 504,
        // Explicit, not caught by the catch-all: a panic converted at the
        // service boundary must read as a server fault even if the
        // catch-all ever changes.
        WwtError::Internal(_) => 500,
        // Degraded mode (e.g. sticky read-only after journal failures):
        // the request was fine, the service just will not take it right
        // now — retryable, so 503 rather than a plain 500.
        WwtError::Unavailable(_) => 503,
        _ => 500,
    };
    ApiError {
        status,
        message: e.to_string(),
    }
}

/// The JSON error body `{"error":{"status":…,"message":…}}`.
pub fn encode_error(e: &ApiError) -> String {
    error_json(e).encode()
}

fn error_json(e: &ApiError) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("status", Json::from(u64::from(e.status))),
            ("message", Json::from(e.message.as_str())),
        ]),
    )])
}

/// Parses a `POST /query` body into a typed request.
pub fn parse_query_request(body: &[u8]) -> Result<QueryRequest, ApiError> {
    request_from_json(&parse_body(body)?)
}

/// Most requests accepted in one `POST /query/batch` body. `answer_batch`
/// fans slots across every core, so without a cap a single HTTP request
/// could pin the whole machine for minutes.
pub const MAX_BATCH_REQUESTS: usize = 64;

/// Parses a `POST /query/batch` body (`{"requests":[…]}`).
pub fn parse_batch_request(body: &[u8]) -> Result<Vec<QueryRequest>, ApiError> {
    let value = parse_body(body)?;
    ensure_known_keys(&value, &["requests"])?;
    let requests = value
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("body must be {\"requests\": [...]}"))?;
    if requests.len() > MAX_BATCH_REQUESTS {
        return Err(ApiError::bad_request(format!(
            "batch of {} requests exceeds the limit of {MAX_BATCH_REQUESTS}",
            requests.len()
        )));
    }
    requests.iter().map(request_from_json).collect()
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not valid utf-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_request(e.to_string()))
}

fn request_from_json(value: &Json) -> Result<QueryRequest, ApiError> {
    if value.as_obj().is_none() {
        return Err(ApiError::bad_request("request must be a JSON object"));
    }
    ensure_known_keys(value, &["query", "options"])?;
    let raw = value
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("missing string field \"query\""))?;
    let query = Query::parse(raw).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let options = match value.get("options") {
        None => QueryOptions::default(),
        Some(opts) => options_from_json(opts)?,
    };
    Ok(QueryRequest { query, options })
}

fn options_from_json(value: &Json) -> Result<QueryOptions, ApiError> {
    if value.as_obj().is_none() {
        return Err(ApiError::bad_request("\"options\" must be a JSON object"));
    }
    ensure_known_keys(
        value,
        &[
            "algorithm",
            "probe1_k",
            "probe2_k",
            "high_relevance",
            "max_rows",
            "deadline_ms",
            "explain",
            "fail_soft",
        ],
    )?;
    let uint = |key: &str| -> Result<Option<usize>, ApiError> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
                ApiError::bad_request(format!("\"{key}\" must be a non-negative integer"))
            }),
        }
    };
    let algorithm = match value.get("algorithm") {
        None => None,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("\"algorithm\" must be a string"))?;
            Some(algorithm_from_str(name).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "unknown algorithm {name:?} (expected one of: independent, \
                     table_centric, alpha_expansion, belief_propagation, trws)"
                ))
            })?)
        }
    };
    let high_relevance = match value.get("high_relevance") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| ApiError::bad_request("\"high_relevance\" must be a number"))?,
        ),
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            ApiError::bad_request("\"deadline_ms\" must be a non-negative integer")
        })?),
    };
    let flag = |key: &str| -> Result<bool, ApiError> {
        match value.get(key) {
            None => Ok(false),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ApiError::bad_request(format!("\"{key}\" must be a boolean"))),
        }
    };
    Ok(QueryOptions {
        algorithm,
        probe1_k: uint("probe1_k")?,
        probe2_k: uint("probe2_k")?,
        high_relevance,
        max_rows: uint("max_rows")?,
        deadline_ms,
        explain: flag("explain")?,
        fail_soft: flag("fail_soft")?,
    })
}

fn ensure_known_keys(value: &Json, known: &[&str]) -> Result<(), ApiError> {
    if let Some(fields) = value.as_obj() {
        for (key, _) in fields {
            if !known.contains(&key.as_str()) {
                return Err(ApiError::bad_request(format!(
                    "unknown field {key:?} (expected one of: {})",
                    known.join(", ")
                )));
            }
        }
    }
    Ok(())
}

/// Wire name of an inference algorithm.
pub fn algorithm_to_str(a: InferenceAlgorithm) -> &'static str {
    match a {
        InferenceAlgorithm::Independent => "independent",
        InferenceAlgorithm::TableCentric => "table_centric",
        InferenceAlgorithm::AlphaExpansion => "alpha_expansion",
        InferenceAlgorithm::BeliefPropagation => "belief_propagation",
        InferenceAlgorithm::Trws => "trws",
    }
}

/// Parses a wire algorithm name.
pub fn algorithm_from_str(s: &str) -> Option<InferenceAlgorithm> {
    Some(match s {
        "independent" => InferenceAlgorithm::Independent,
        "table_centric" => InferenceAlgorithm::TableCentric,
        "alpha_expansion" => InferenceAlgorithm::AlphaExpansion,
        "belief_propagation" => InferenceAlgorithm::BeliefPropagation,
        "trws" => InferenceAlgorithm::Trws,
        _ => return None,
    })
}

/// Encodes one answered query for the wire. Deterministic for a given
/// response value, so a cached `Arc<QueryResponse>` always serializes to
/// identical bytes. A cache hit therefore costs the lookup plus this one
/// write into a buffer sized up front.
pub fn encode_response(request: &QueryRequest, response: &QueryResponse) -> String {
    let mut out = String::with_capacity(size_hint(response));
    write_response(&mut out, request, response);
    out
}

/// A generous guess at the encoded size (a benchmark response spends
/// ~140 B per row and ~6 B per candidate id), so one allocation usually
/// suffices.
fn size_hint(response: &QueryResponse) -> usize {
    512 + 192 * response.table.rows.len() + 8 * response.candidates.len()
}

/// Appends one answered query's wire JSON to `out`, field by field, with
/// no intermediate [`Json`] tree. Integers print through
/// [`wwt_json::write_u64`], so the bytes match the tree encoder's
/// `f64` rules exactly.
pub fn write_response(out: &mut String, request: &QueryRequest, response: &QueryResponse) {
    out.push_str("{\"query\":");
    write_str(out, &request.query.to_string());
    out.push_str(",\"columns\":");
    write_strs(out, &response.table.columns);
    out.push_str(",\"rows\":[");
    for (i, row) in response.table.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cells\":");
        write_strs(out, &row.cells);
        out.push_str(",\"support\":");
        write_u64(out, u64::from(row.support));
        out.push_str(",\"score\":");
        write_num(out, row.score);
        out.push_str(",\"sources\":");
        write_ids(out, &row.sources);
        out.push('}');
    }
    out.push_str("],\"candidates\":");
    write_ids(out, &response.candidates);

    let d = &response.diagnostics;
    let count = |out: &mut String, key: &str, n: usize| {
        out.push_str(key);
        write_u64(out, n as u64);
    };
    count(out, ",\"diagnostics\":{\"n_candidates\":", d.n_candidates);
    count(out, ",\"n_relevant\":", d.n_relevant);
    out.push_str(",\"probe2_used\":");
    out.push_str(if d.probe2_used { "true" } else { "false" });
    count(out, ",\"rows_before_limit\":", d.rows_before_limit);
    count(out, ",\"stage1\":", response.retrieval.stage1.len());
    count(out, ",\"stage2\":", response.retrieval.stage2.len());

    let t = &d.timing;
    let micros = |out: &mut String, key: &str, elapsed: Duration| {
        out.push_str(key);
        write_u64(out, elapsed.as_micros() as u64);
    };
    micros(out, ",\"timing_us\":{\"index1\":", t.index1);
    micros(out, ",\"read1\":", t.read1);
    micros(out, ",\"index2\":", t.index2);
    micros(out, ",\"read2\":", t.read2);
    micros(out, ",\"column_map\":", t.column_map);
    micros(out, ",\"consolidate\":", t.consolidate);
    micros(out, ",\"total\":", t.total());
    // Per-shard probe wall-clocks (scatter order): the straggler view of
    // the scatter-gather.
    for (key, shards) in [
        (",\"probe1_shards\":[", &t.probe1_shards),
        (",\"probe2_shards\":[", &t.probe2_shards),
    ] {
        out.push_str(key);
        for (i, &elapsed) in shards.iter().enumerate() {
            micros(out, if i > 0 { "," } else { "" }, elapsed);
        }
        out.push(']');
    }
    out.push('}');
    // Present only on explain runs: plain responses stay byte-identical
    // to the pre-trace wire format.
    if let Some(trace) = &d.trace {
        out.push_str(",\"trace\":");
        trace.to_json().write_to(out);
    }
    // Present only on degraded fail-soft runs: healthy responses (and
    // every response with `fail_soft` off) stay byte-identical.
    if d.degraded {
        out.push_str(",\"degraded\":true,\"degraded_reasons\":");
        write_strs(out, &d.degraded_reasons);
    }
    out.push_str("}}");
}

fn write_strs(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, s);
    }
    out.push(']');
}

fn write_ids(out: &mut String, ids: &[TableId]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u64(out, u64::from(id.0));
    }
    out.push(']');
}

/// Encodes a batch of per-slot results (`{"responses":[…]}`); error
/// slots carry the same shape as a top-level error body.
pub fn encode_batch_response(
    requests: &[QueryRequest],
    results: &[Result<std::sync::Arc<QueryResponse>, WwtError>],
) -> String {
    let mut out = String::from("{\"responses\":[");
    for (i, (req, res)) in requests.iter().zip(results).enumerate() {
        if i > 0 {
            out.push(',');
        }
        match res {
            Ok(resp) => write_response(&mut out, req, resp),
            Err(e) => error_json(&api_error(e)).write_to(&mut out),
        }
    }
    out.push_str("]}");
    out
}

/// Encodes `GET /stats`: every [`ServiceStats`] series with a `/stats`
/// key, in declaration order, plus the derived hit rate (0.0 — never NaN
/// — when nothing has been served). New counters are only ever appended
/// — existing field names are load-bearing for dashboards.
pub fn encode_stats(stats: &ServiceStats) -> String {
    encode_stats_with(stats, None, None)
}

/// [`encode_stats`] plus the most recent reload failure, when one is
/// pending — the read-only way to see why the generation never bumped
/// (the field is absent while reloads are healthy) — and the attached
/// write-ahead journal's path (absent when running without one).
pub fn encode_stats_with(
    stats: &ServiceStats,
    last_reload_error: Option<&str>,
    journal_path: Option<&str>,
) -> String {
    let mut fields = wwt_obs::json_fields(stats);
    // `hit_rate` is derived rather than declared; it keeps its place
    // right after `shards`.
    let at = fields
        .iter()
        .position(|(key, _)| *key == "shards")
        .map_or(0, |i| i + 1);
    fields.insert(at, ("hit_rate", Json::from(stats.hit_rate())));
    if let Some(error) = last_reload_error {
        fields.push(("last_reload_error", Json::from(error)));
    }
    if let Some(path) = journal_path {
        fields.push(("journal_path", Json::from(path)));
    }
    Json::obj(fields).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree builder the direct writer replaced, kept verbatim as the
    /// oracle for byte identity.
    fn response_json(request: &QueryRequest, response: &QueryResponse) -> Json {
        let rows = response
            .table
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("cells", Json::arr(r.cells.iter().map(String::as_str))),
                    ("support", Json::from(u64::from(r.support))),
                    ("score", Json::from(r.score)),
                    ("sources", Json::arr(r.sources.iter().map(|t| t.0))),
                ])
            })
            .collect();
        let d = &response.diagnostics;
        let t = &d.timing;
        let shard_us =
            |shards: &[std::time::Duration]| Json::arr(shards.iter().map(|d| d.as_micros() as u64));
        let timing_us = Json::obj([
            ("index1", Json::from(t.index1.as_micros() as u64)),
            ("read1", Json::from(t.read1.as_micros() as u64)),
            ("index2", Json::from(t.index2.as_micros() as u64)),
            ("read2", Json::from(t.read2.as_micros() as u64)),
            ("column_map", Json::from(t.column_map.as_micros() as u64)),
            ("consolidate", Json::from(t.consolidate.as_micros() as u64)),
            ("total", Json::from(t.total().as_micros() as u64)),
            // Per-shard probe wall-clocks (scatter order): the straggler
            // view of the scatter-gather.
            ("probe1_shards", shard_us(&t.probe1_shards)),
            ("probe2_shards", shard_us(&t.probe2_shards)),
        ]);
        let mut diagnostic_fields = vec![
            ("n_candidates", Json::from(d.n_candidates)),
            ("n_relevant", Json::from(d.n_relevant)),
            ("probe2_used", Json::from(d.probe2_used)),
            ("rows_before_limit", Json::from(d.rows_before_limit)),
            ("stage1", Json::from(response.retrieval.stage1.len())),
            ("stage2", Json::from(response.retrieval.stage2.len())),
            ("timing_us", timing_us),
        ];
        // Present only on explain runs: plain responses stay byte-identical
        // to the pre-trace wire format.
        if let Some(trace) = &d.trace {
            diagnostic_fields.push(("trace", trace.to_json()));
        }
        // Present only on degraded fail-soft runs: healthy responses (and
        // every response with `fail_soft` off) stay byte-identical.
        if d.degraded {
            diagnostic_fields.push(("degraded", Json::Bool(true)));
            diagnostic_fields.push((
                "degraded_reasons",
                Json::arr(d.degraded_reasons.iter().map(String::as_str)),
            ));
        }
        let diagnostics = Json::obj(diagnostic_fields);
        Json::obj([
            ("query", Json::from(request.query.to_string())),
            (
                "columns",
                Json::arr(response.table.columns.iter().map(String::as_str)),
            ),
            ("rows", Json::Arr(rows)),
            (
                "candidates",
                Json::arr(response.candidates.iter().map(|t| t.0)),
            ),
            ("diagnostics", diagnostics),
        ])
    }

    /// A small deterministic generator (SplitMix64), so every run checks
    /// the same responses.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Clone>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize].clone()
        }

        fn text(&mut self) -> String {
            const PIECES: [&str; 10] = [
                "India",
                "\"quoted\"",
                "back\\slash",
                "\u{0}\u{1}\u{1f}",
                "\n\r\t",
                "é",
                "😀",
                "\u{10ffff}",
                " | ",
                "",
            ];
            (0..self.below(4)).map(|_| self.pick(&PIECES)).collect()
        }

        fn texts(&mut self, max: u64) -> Vec<String> {
            (0..self.below(max + 1)).map(|_| self.text()).collect()
        }

        fn id(&mut self) -> TableId {
            let any = self.next() as u32;
            TableId(self.pick(&[0, 1, 42, 65_535, u32::MAX - 1, u32::MAX, any]))
        }

        fn ids(&mut self, max: u64) -> Vec<TableId> {
            (0..self.below(max + 1)).map(|_| self.id()).collect()
        }

        fn score(&mut self) -> f64 {
            let fraction = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            self.pick(&[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                3.0,
                -7.0,
                0.1 + 0.2,
                1e-300,
                999_999_999_999_999.0,
                1e15,
                1.5e300,
                fraction,
            ])
        }

        fn count(&mut self) -> usize {
            self.pick(&[
                0,
                1,
                17,
                999_999_999_999_999,
                1_000_000_000_000_000,
                usize::MAX,
            ])
        }

        fn duration(&mut self) -> Duration {
            Duration::from_micros(self.pick(&[
                0,
                7,
                123_456,
                999_999_999_999_999,
                1_000_000_000_000_000,
                1_000_000_000_000_001,
                u64::MAX,
            ]))
        }

        fn durations(&mut self) -> Vec<Duration> {
            (0..self.below(4)).map(|_| self.duration()).collect()
        }

        fn span(&mut self, depth: u32) -> wwt_obs::SpanRecord {
            let mut span = wwt_obs::SpanRecord::new(self.text(), self.duration());
            for _ in 0..self.below(3) {
                span = span.with_detail(self.text(), self.text());
            }
            if depth > 0 {
                for _ in 0..self.below(3) {
                    span = span.with_child(self.span(depth - 1));
                }
            }
            span
        }

        fn request(&mut self) -> QueryRequest {
            let mut columns = self.texts(3);
            columns.push(self.pick(&["country".to_string(), "cur\"ren\\cy 😀".into()]));
            QueryRequest::new(Query::new(columns))
        }

        fn response(&mut self) -> QueryResponse {
            let columns = self.texts(4);
            let rows = (0..self.below(6))
                .map(|_| wwt_model::AnswerRow {
                    cells: self.texts(4),
                    support: self.pick(&[0, 1, 5, u32::MAX]),
                    sources: self.ids(4),
                    score: self.score(),
                })
                .collect();
            let t = self.durations();
            let timing = wwt_engine::StageTimings {
                index1: self.duration(),
                read1: self.duration(),
                index2: self.duration(),
                read2: self.duration(),
                column_map: self.duration(),
                consolidate: self.duration(),
                probe1_shards: t,
                probe2_shards: self.durations(),
            };
            let trace = (self.below(3) == 0).then(|| wwt_obs::TraceReport {
                request_id: self.text(),
                total_us: self.duration().as_micros() as u64,
                spans: (0..self.below(3)).map(|_| self.span(2)).collect(),
                notes: (0..self.below(3))
                    .map(|_| (self.text(), self.text()))
                    .collect(),
            });
            let degraded_reasons = if self.below(3) == 0 {
                self.texts(3)
            } else {
                Vec::new()
            };
            QueryResponse {
                table: wwt_model::AnswerTable { columns, rows },
                mapping: wwt_core::MappingResult::empty(),
                candidates: self.ids(8),
                retrieval: wwt_engine::Retrieval {
                    stage1: self.ids(5),
                    stage2: self.ids(5),
                    ..Default::default()
                },
                diagnostics: wwt_engine::QueryDiagnostics {
                    timing,
                    probe2_used: self.below(2) == 0,
                    n_candidates: self.count(),
                    n_relevant: self.count(),
                    rows_before_limit: self.count(),
                    trace,
                    degraded: !degraded_reasons.is_empty() || self.below(4) == 0,
                    degraded_reasons,
                    ..Default::default()
                },
            }
        }
    }

    #[test]
    fn writer_matches_the_tree_oracle_byte_for_byte() {
        let mut gen = Gen(0x5eed);
        let (mut traced, mut degraded, mut empty) = (0, 0, 0);
        for _ in 0..2_000 {
            let request = gen.request();
            let response = gen.response();
            traced += usize::from(response.diagnostics.trace.is_some());
            degraded += usize::from(response.diagnostics.degraded);
            empty += usize::from(response.table.rows.is_empty());
            let expected = response_json(&request, &response).encode();
            assert_eq!(encode_response(&request, &response), expected);
            // Appending keeps what the buffer already held.
            let mut out = String::from("prefix");
            write_response(&mut out, &request, &response);
            assert_eq!(out.strip_prefix("prefix"), Some(expected.as_str()));
        }
        assert!(traced > 0 && degraded > 0 && empty > 0);
    }

    #[test]
    fn writer_matches_the_oracle_on_fixed_edge_cases() {
        let request = QueryRequest::new(Query::new(vec!["a\"b", "c\\d\u{1}😀"]));
        let mut response = Gen(1).response();
        response.table = wwt_model::AnswerTable::empty(vec![]);
        response.candidates = vec![TableId(u32::MAX)];
        response.diagnostics.n_candidates = usize::MAX;
        response.diagnostics.timing = wwt_engine::StageTimings {
            index1: Duration::from_micros(1_000_000_000_000_000),
            read1: Duration::from_micros(999_999_999_999_999),
            ..Default::default()
        };
        let expected = response_json(&request, &response).encode();
        assert_eq!(encode_response(&request, &response), expected);
        assert!(expected.contains("\"rows\":[]"), "{expected}");
        assert!(expected.contains("[4294967295]"), "{expected}");
        assert!(expected.contains("1.8446744073709552e19"), "{expected}");
        assert!(
            expected.contains("\"index1\":1000000000000000.0,\"read1\":999999999999999,"),
            "{expected}"
        );
    }

    #[test]
    fn batch_writer_matches_the_tree_oracle() {
        let mut gen = Gen(7);
        for _ in 0..200 {
            let slots = gen.below(5) as usize;
            let requests: Vec<QueryRequest> = (0..slots).map(|_| gen.request()).collect();
            let results: Vec<Result<std::sync::Arc<QueryResponse>, WwtError>> = (0..slots)
                .map(|_| match gen.below(4) {
                    0 => Err(WwtError::DeadlineExceeded(gen.text())),
                    1 => Err(WwtError::Query(Query::parse(" | ").unwrap_err())),
                    _ => Ok(std::sync::Arc::new(gen.response())),
                })
                .collect();
            let slots_json = requests
                .iter()
                .zip(&results)
                .map(|(req, res)| match res {
                    Ok(resp) => response_json(req, resp),
                    Err(e) => error_json(&api_error(e)),
                })
                .collect();
            let expected = Json::obj([("responses", Json::Arr(slots_json))]).encode();
            assert_eq!(encode_batch_response(&requests, &results), expected);
        }
    }

    #[test]
    fn parses_bare_query() {
        let req = parse_query_request(br#"{"query":"country | currency"}"#).unwrap();
        assert_eq!(req.query.to_string(), "country | currency");
        assert!(req.options.is_default());
    }

    #[test]
    fn parses_full_options() {
        let req = parse_query_request(
            br#"{"query":"a | b","options":{"algorithm":"independent","probe1_k":10,
                 "probe2_k":3,"high_relevance":0.5,"max_rows":7,"deadline_ms":250}}"#,
        )
        .unwrap();
        assert_eq!(req.options.algorithm, Some(InferenceAlgorithm::Independent));
        assert_eq!(req.options.probe1_k, Some(10));
        assert_eq!(req.options.probe2_k, Some(3));
        assert_eq!(req.options.high_relevance, Some(0.5));
        assert_eq!(req.options.max_rows, Some(7));
        assert_eq!(req.options.deadline_ms, Some(250));
    }

    #[test]
    fn deadline_parses_and_rejects_bad_values() {
        let req = parse_query_request(br#"{"query":"a","options":{"deadline_ms":0}}"#).unwrap();
        assert_eq!(req.options.deadline_ms, Some(0));
        let err =
            parse_query_request(br#"{"query":"a","options":{"deadline_ms":-5}}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("deadline_ms"), "{}", err.message);
        let err =
            parse_query_request(br#"{"query":"a","options":{"deadline_ms":"soon"}}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn rejects_bad_bodies() {
        for (body, needle) in [
            (&b"not json"[..], "invalid json"),
            (br#"{"query":42}"#, "missing string field"),
            (br#"{"qerry":"a"}"#, "unknown field \"qerry\""),
            (br#"{"query":" | "}"#, "no column keywords"),
            (
                br#"{"query":"a","options":{"max_rows":-1}}"#,
                "non-negative",
            ),
            (
                br#"{"query":"a","options":{"algorithm":"magic"}}"#,
                "unknown algorithm",
            ),
            (
                br#"{"query":"a","options":{"high_relevance":"x"}}"#,
                "must be a number",
            ),
            (
                br#"{"query":"a","options":{"probes":3}}"#,
                "unknown field \"probes\"",
            ),
        ] {
            let err = parse_query_request(body).unwrap_err();
            assert_eq!(err.status, 400, "{body:?}");
            assert!(
                err.message.contains(needle),
                "{:?} !~ {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn parses_batch_and_rejects_non_list() {
        let reqs =
            parse_batch_request(br#"{"requests":[{"query":"a"},{"query":"b | c"}]}"#).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].query.q(), 2);
        assert!(parse_batch_request(br#"{"requests":7}"#).is_err());
        assert!(parse_batch_request(br#"{"query":"a"}"#).is_err());
        // One bad slot poisons the whole batch at parse time.
        assert!(parse_batch_request(br#"{"requests":[{"query":" | "}]}"#).is_err());
    }

    #[test]
    fn oversized_batches_rejected() {
        let slots = vec![r#"{"query":"a"}"#; MAX_BATCH_REQUESTS + 1].join(",");
        let body = format!("{{\"requests\":[{slots}]}}");
        let err = parse_batch_request(body.as_bytes()).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("exceeds"), "{}", err.message);
        // Exactly at the cap is fine.
        let slots = vec![r#"{"query":"a"}"#; MAX_BATCH_REQUESTS].join(",");
        let body = format!("{{\"requests\":[{slots}]}}");
        assert_eq!(
            parse_batch_request(body.as_bytes()).unwrap().len(),
            MAX_BATCH_REQUESTS
        );
    }

    #[test]
    fn algorithm_names_roundtrip() {
        for a in [
            InferenceAlgorithm::Independent,
            InferenceAlgorithm::TableCentric,
            InferenceAlgorithm::AlphaExpansion,
            InferenceAlgorithm::BeliefPropagation,
            InferenceAlgorithm::Trws,
        ] {
            assert_eq!(algorithm_from_str(algorithm_to_str(a)), Some(a));
        }
        assert_eq!(algorithm_from_str("nope"), None);
    }

    #[test]
    fn error_mapping_statuses() {
        let parse_err = Query::parse(" | ").unwrap_err();
        assert_eq!(api_error(&WwtError::Query(parse_err)).status, 400);
        // Client-supplied option values that fail validation are client
        // errors, not 5xx noise.
        assert_eq!(api_error(&WwtError::Invalid("k".into())).status, 400);
        assert_eq!(api_error(&WwtError::Corrupt("c".into())).status, 500);
        // Deadlines are timeouts, not crashes: 504, not 500.
        assert_eq!(
            api_error(&WwtError::DeadlineExceeded("map".into())).status,
            504
        );
        // A caught pipeline panic is the server's fault.
        assert_eq!(api_error(&WwtError::Internal("panic".into())).status, 500);
        // Degraded mode is retryable, not broken: 503.
        assert_eq!(
            api_error(&WwtError::Unavailable("read-only".into())).status,
            503
        );
    }

    #[test]
    fn fail_soft_parses_and_rejects_non_bool() {
        let req = parse_query_request(br#"{"query":"a","options":{"fail_soft":true}}"#).unwrap();
        assert!(req.options.fail_soft);
        let req = parse_query_request(br#"{"query":"a","options":{"fail_soft":false}}"#).unwrap();
        assert!(!req.options.fail_soft);
        assert!(req.options.is_default());
        let err = parse_query_request(br#"{"query":"a","options":{"fail_soft":1}}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("fail_soft"), "{}", err.message);
    }

    #[test]
    fn error_body_shape() {
        let body = encode_error(&ApiError::bad_request("boom"));
        let v = Json::parse(&body).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("status").and_then(Json::as_u64), Some(400));
        assert_eq!(e.get("message").and_then(Json::as_str), Some("boom"));
    }

    #[test]
    fn stats_body_has_zero_hit_rate_when_empty() {
        let body = encode_stats(&ServiceStats {
            shards: 4,
            index_shards: 2,
            ..ServiceStats::default()
        });
        assert!(body.contains("\"hit_rate\":0"), "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("hit_rate").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn stats_body_keeps_old_names_and_adds_swap_and_deadline_counters() {
        // The exact body is pinned in tests/pinned_bodies.rs; this checks
        // the additive-evolution promise on its own.
        let body = encode_stats(&ServiceStats::default());
        let v = Json::parse(&body).unwrap();
        for field in [
            "hits",
            "misses",
            "coalesced",
            "entries",
            "shards",
            "hit_rate",
            "swap_count",
            "deadline_exceeded",
        ] {
            assert!(v.get(field).is_some(), "missing {field} in {body}");
        }
        // No journal path was supplied, so the field is absent — it only
        // appears via encode_stats_with when a journal is attached.
        assert!(v.get("journal_path").is_none());
    }

    #[test]
    fn stats_body_carries_journal_path_when_supplied() {
        let body = encode_stats_with(
            &ServiceStats::default(),
            None,
            Some("/var/lib/wwt/journal.wal"),
        );
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("journal_path").and_then(Json::as_str),
            Some("/var/lib/wwt/journal.wal")
        );
    }

    #[test]
    fn early_exit_is_rejected_as_an_unknown_option() {
        let err =
            parse_query_request(br#"{"query":"a","options":{"early_exit":true}}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message.contains("unknown field \"early_exit\""),
            "{}",
            err.message
        );
    }

    #[test]
    fn explain_parses_and_rejects_non_bool() {
        let req = parse_query_request(br#"{"query":"a","options":{"explain":true}}"#).unwrap();
        assert!(req.options.explain);
        let req = parse_query_request(br#"{"query":"a","options":{"explain":false}}"#).unwrap();
        assert!(!req.options.explain);
        assert!(req.options.is_default());
        let err = parse_query_request(br#"{"query":"a","options":{"explain":1}}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("explain"), "{}", err.message);
    }
}
