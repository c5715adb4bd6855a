//! Typed request/response types of the service-grade query API.
//!
//! A [`QueryRequest`] carries the parsed [`Query`] plus optional
//! per-request overrides of the engine defaults ([`QueryOptions`]); the
//! engine answers it with a [`QueryResponse`] bundling the consolidated
//! answer, the column mapping, the named [`Retrieval`] and
//! [`QueryDiagnostics`] (per-stage timings and candidate counts).

use crate::pipeline::WwtConfig;
use crate::retrieval::Retrieval;
use crate::timing::StageTimings;
use wwt_core::{InferenceAlgorithm, MappingResult};
use wwt_model::{AnswerTable, Query, QueryParseError, TableId, WwtError};
use wwt_obs::TraceReport;

/// Per-request overrides of the engine configuration. `None` means "use
/// the engine default"; see [`WwtConfig`] for the semantics of each knob.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOptions {
    /// Collective inference algorithm override.
    pub algorithm: Option<InferenceAlgorithm>,
    /// First-probe candidate count override (must be ≥ 1).
    pub probe1_k: Option<usize>,
    /// Second-probe new-candidate cap override (0 disables the second
    /// probe's contribution).
    pub probe2_k: Option<usize>,
    /// Relevance bar for second-probe seed tables (must be in `[0, 1]`).
    pub high_relevance: Option<f64>,
    /// Maximum number of answer rows returned (`None` = unlimited).
    pub max_rows: Option<usize>,
    /// Wall-clock budget for this request in milliseconds. The engine
    /// checks it at pipeline stage boundaries and aborts with
    /// [`WwtError::DeadlineExceeded`] once it passes; `0` trips at the
    /// first checkpoint. `None` (the default) never reads the clock.
    pub deadline_ms: Option<u64>,
    /// Return a request-scoped execution trace in
    /// [`QueryDiagnostics::trace`]: one span per pipeline stage, child
    /// spans per shard probe / column-map batch, plus cache-path notes.
    /// Off by default — a disabled trace is a no-op handle, so plain
    /// requests pay nothing.
    pub explain: bool,
    /// Fail-soft execution: when a shard probe errors (or panics) or the
    /// deadline expires mid-stage, return the merged **partial** results
    /// with [`QueryDiagnostics::degraded`] set instead of aborting with
    /// 504/500, and downgrade joint mapping algorithms to `Independent`
    /// under deadline pressure rather than giving up. Off by default —
    /// and because a degraded answer may differ from the healthy one, it
    /// participates in the cache fingerprint.
    pub fail_soft: bool,
}

impl QueryOptions {
    /// True iff every knob is at the engine default.
    pub fn is_default(&self) -> bool {
        *self == QueryOptions::default()
    }

    /// Applies the overrides to a base configuration, validating them.
    pub(crate) fn resolve(&self, base: &WwtConfig) -> Result<WwtConfig, WwtError> {
        let mut cfg = base.clone();
        if let Some(alg) = self.algorithm {
            cfg.algorithm = alg;
        }
        if let Some(k) = self.probe1_k {
            if k == 0 {
                return Err(WwtError::Invalid("probe1_k must be >= 1".into()));
            }
            cfg.probe1_k = k;
        }
        if let Some(k) = self.probe2_k {
            cfg.probe2_k = k;
        }
        if let Some(bar) = self.high_relevance {
            if !(0.0..=1.0).contains(&bar) {
                return Err(WwtError::Invalid(format!(
                    "high_relevance must be in [0, 1], got {bar}"
                )));
            }
            cfg.high_relevance = bar;
        }
        Ok(cfg)
    }

    /// A stable textual fingerprint of the overrides, used in response
    /// cache keys. Defaults collapse to the empty string so that an
    /// explicit request and a plain query share cache entries.
    ///
    /// `deadline_ms` is deliberately excluded: a deadline bounds *when*
    /// a response may be computed, never *what* it contains, so requests
    /// differing only in their budget share one cache entry (and a
    /// deadline-carrying repeat of a cached query is a free hit).
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        if let Some(a) = self.algorithm {
            s.push_str(&format!("alg={a:?};"));
        }
        if let Some(k) = self.probe1_k {
            s.push_str(&format!("p1={k};"));
        }
        if let Some(k) = self.probe2_k {
            s.push_str(&format!("p2={k};"));
        }
        if let Some(b) = self.high_relevance {
            s.push_str(&format!("hr={};", b.to_bits()));
        }
        if let Some(m) = self.max_rows {
            s.push_str(&format!("rows={m};"));
        }
        if self.explain {
            // Defensive: the service layer bypasses the response cache
            // entirely for explain requests (each one gets a fresh
            // trace), but should one ever be cached, it must never
            // collide with the plain entry clients expect to be
            // trace-free.
            s.push_str("explain;");
        }
        if self.fail_soft {
            // A degraded (partial) answer must never be served from the
            // cache entry of a healthy run, nor vice versa.
            s.push_str("fs;");
        }
        s
    }
}

/// One query plus per-request options — the unit the engine and the
/// service layer answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The column-keyword query.
    pub query: Query,
    /// Per-request overrides.
    pub options: QueryOptions,
}

impl QueryRequest {
    /// A request with engine-default options.
    pub fn new(query: Query) -> Self {
        QueryRequest {
            query,
            options: QueryOptions::default(),
        }
    }

    /// Parses the `"kw kw | kw kw | ..."` syntax into a request.
    pub fn parse(s: &str) -> Result<Self, QueryParseError> {
        Ok(Self::new(Query::parse(s)?))
    }

    /// Overrides the inference algorithm for this request.
    pub fn algorithm(mut self, algorithm: InferenceAlgorithm) -> Self {
        self.options.algorithm = Some(algorithm);
        self
    }

    /// Overrides the first-probe candidate count.
    pub fn probe1_k(mut self, k: usize) -> Self {
        self.options.probe1_k = Some(k);
        self
    }

    /// Overrides the second-probe new-candidate cap.
    pub fn probe2_k(mut self, k: usize) -> Self {
        self.options.probe2_k = Some(k);
        self
    }

    /// Overrides the high-relevance bar seeding the second probe.
    pub fn high_relevance(mut self, bar: f64) -> Self {
        self.options.high_relevance = Some(bar);
        self
    }

    /// Limits the number of answer rows returned.
    pub fn max_rows(mut self, rows: usize) -> Self {
        self.options.max_rows = Some(rows);
        self
    }

    /// Bounds this request's wall-clock budget in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.options.deadline_ms = Some(ms);
        self
    }

    /// Requests an execution trace in [`QueryDiagnostics::trace`].
    pub fn explain(mut self, on: bool) -> Self {
        self.options.explain = on;
        self
    }

    /// Enables fail-soft execution ([`QueryOptions::fail_soft`]):
    /// partial results with `degraded: true` instead of 504/500.
    pub fn fail_soft(mut self, on: bool) -> Self {
        self.options.fail_soft = on;
        self
    }

    /// The canonical cache key of this request: the normalized query
    /// (columns joined by `" | "`, as parsed) plus the options
    /// fingerprint.
    pub fn cache_key(&self) -> String {
        format!("{}\u{1f}{}", self.query, self.options.fingerprint())
    }
}

impl From<Query> for QueryRequest {
    fn from(query: Query) -> Self {
        QueryRequest::new(query)
    }
}

/// Measurements and counters describing how a response was produced.
#[derive(Debug, Clone, Default)]
pub struct QueryDiagnostics {
    /// Per-stage wall-clock timing (Figure 7 breakdown).
    pub timing: StageTimings,
    /// Whether the second index probe fired.
    pub probe2_used: bool,
    /// Candidate tables retrieved across both probes.
    pub n_candidates: usize,
    /// Candidates the mapper labeled relevant.
    pub n_relevant: usize,
    /// Consolidated rows before the `max_rows` limit was applied.
    pub rows_before_limit: usize,
    /// The execution trace, present iff the request ran with tracing
    /// enabled ([`QueryOptions::explain`] or a service-supplied
    /// [`wwt_obs::Trace`]). `None` costs nothing on the wire.
    pub trace: Option<TraceReport>,
    /// Column-mapper fast-path counters (premap + final map combined).
    /// Diagnostics-only: deliberately **not** wire-encoded in query
    /// responses, so the default path stays byte-identical; the service
    /// aggregates it into its stats surface instead.
    pub map_stats: wwt_core::MapStats,
    /// True iff this response was produced fail-soft from partial data —
    /// a shard probe failed, a stage was cut short by the deadline, or
    /// the mapping algorithm was downgraded. Only ever set when
    /// [`QueryOptions::fail_soft`] was on; wire-encoded conditionally so
    /// healthy responses stay byte-identical.
    pub degraded: bool,
    /// Why the response is degraded, one human-readable reason per
    /// affected stage (e.g. `"probe1: shard 2 failed: …"`). Empty iff
    /// `degraded` is false.
    pub degraded_reasons: Vec<String>,
}

/// Everything the engine produces for one request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The consolidated, ranked answer table (truncated to the request's
    /// `max_rows`, if set).
    pub table: AnswerTable,
    /// The column mapping over all candidates.
    pub mapping: MappingResult,
    /// Candidate table ids, aligned with `mapping.labelings`.
    pub candidates: Vec<TableId>,
    /// The two-stage retrieval outcome.
    pub retrieval: Retrieval,
    /// Timings and counters.
    pub diagnostics: QueryDiagnostics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_options() {
        let req = QueryRequest::parse("country | currency")
            .unwrap()
            .algorithm(InferenceAlgorithm::Independent)
            .probe1_k(10)
            .probe2_k(3)
            .high_relevance(0.5)
            .max_rows(7);
        assert_eq!(req.query.q(), 2);
        assert_eq!(req.options.algorithm, Some(InferenceAlgorithm::Independent));
        assert_eq!(req.options.probe1_k, Some(10));
        assert_eq!(req.options.probe2_k, Some(3));
        assert_eq!(req.options.high_relevance, Some(0.5));
        assert_eq!(req.options.max_rows, Some(7));
        assert!(!req.options.is_default());
    }

    #[test]
    fn parse_propagates_query_errors() {
        assert!(QueryRequest::parse(" | ").is_err());
    }

    #[test]
    fn resolve_applies_and_validates() {
        let base = WwtConfig::default();
        let ok = QueryRequest::parse("a | b")
            .unwrap()
            .probe1_k(5)
            .high_relevance(0.9)
            .options
            .resolve(&base)
            .unwrap();
        assert_eq!(ok.probe1_k, 5);
        assert_eq!(ok.high_relevance, 0.9);
        assert_eq!(ok.probe2_k, base.probe2_k);

        let zero_probe = QueryOptions {
            probe1_k: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            zero_probe.resolve(&base),
            Err(WwtError::Invalid(_))
        ));
        let bad_bar = QueryOptions {
            high_relevance: Some(1.5),
            ..Default::default()
        };
        assert!(matches!(bad_bar.resolve(&base), Err(WwtError::Invalid(_))));
        let nan_bar = QueryOptions {
            high_relevance: Some(f64::NAN),
            ..Default::default()
        };
        assert!(matches!(nan_bar.resolve(&base), Err(WwtError::Invalid(_))));
    }

    #[test]
    fn cache_key_separates_query_and_options() {
        let plain = QueryRequest::parse("country | currency").unwrap();
        let tuned = plain.clone().probe1_k(10);
        let other = QueryRequest::parse("country | gdp").unwrap();
        assert_ne!(plain.cache_key(), tuned.cache_key());
        assert_ne!(plain.cache_key(), other.cache_key());
        // Whitespace-normalized equivalent queries share a key.
        let spaced = QueryRequest::parse("  country |currency ").unwrap();
        assert_eq!(plain.cache_key(), spaced.cache_key());
        // Default options fingerprint matches a bare query.
        assert_eq!(
            plain.cache_key(),
            QueryRequest::new(Query::parse("country | currency").unwrap()).cache_key()
        );
    }

    #[test]
    fn explain_changes_the_fingerprint_but_not_plain_keys() {
        let plain = QueryRequest::parse("country | currency").unwrap();
        let traced = plain.clone().explain(true);
        assert!(traced.options.explain);
        assert!(!traced.options.is_default());
        assert_ne!(plain.cache_key(), traced.cache_key());
        assert_eq!(plain.clone().explain(false).cache_key(), plain.cache_key());
    }

    #[test]
    fn fail_soft_changes_the_fingerprint() {
        let plain = QueryRequest::parse("country | currency").unwrap();
        let soft = plain.clone().fail_soft(true);
        assert!(soft.options.fail_soft);
        assert!(!soft.options.is_default());
        // A degraded answer may differ from the healthy one, so the two
        // must never share a cache entry.
        assert_ne!(plain.cache_key(), soft.cache_key());
        assert_eq!(
            plain.clone().fail_soft(false).cache_key(),
            plain.cache_key()
        );
    }

    #[test]
    fn deadline_does_not_change_the_cache_key() {
        // A deadline bounds when a response may be computed, not what it
        // contains: budgeted and unbudgeted requests share a cache entry.
        let plain = QueryRequest::parse("country | currency").unwrap();
        let hurried = plain.clone().deadline_ms(5);
        assert_eq!(hurried.options.deadline_ms, Some(5));
        assert!(!hurried.options.is_default());
        assert_eq!(plain.cache_key(), hurried.cache_key());
        // But combined with a result-shaping override the key still moves.
        let tuned = plain.clone().deadline_ms(5).max_rows(1);
        assert_ne!(plain.cache_key(), tuned.cache_key());
    }
}
