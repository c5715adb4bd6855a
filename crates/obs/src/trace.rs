//! Request-scoped tracing: a cheap cloneable [`Trace`] handle records a
//! span tree (one span per pipeline stage, child spans per shard or
//! batch) plus key/value notes, and snapshots into a [`TraceReport`].
//!
//! The disabled handle holds no allocation and every method on it
//! returns immediately without reading the clock, so the engine's
//! per-request execution context carries one through the query pipeline
//! for free unless a caller opted in. Callers that would have to
//! *format* a note value must guard on [`Trace::is_enabled`] so the
//! formatting itself is skipped too.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use wwt_json::Json;

/// One completed span: a named stage with a wall-clock duration,
/// optional key/value detail, and child spans (per-shard probes,
/// per-view column-map batches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`"probe1"`, `"column_map"`, `"shard0"`, …).
    pub name: String,
    /// Measured wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Key/value annotations scoped to this span.
    pub detail: Vec<(String, String)>,
    /// Child spans, in completion order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A leaf span with no detail.
    pub fn new(name: impl Into<String>, duration: Duration) -> Self {
        SpanRecord {
            name: name.into(),
            duration_us: duration.as_micros() as u64,
            detail: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends one key/value annotation (builder style).
    pub fn with_detail(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.detail.push((key.into(), value.into()));
        self
    }

    /// Appends one child span (builder style).
    pub fn with_child(mut self, child: SpanRecord) -> Self {
        self.children.push(child);
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("duration_us".to_string(), Json::from(self.duration_us)),
        ];
        if !self.detail.is_empty() {
            fields.push((
                "detail".to_string(),
                Json::Obj(
                    self.detail
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ));
        }
        if !self.children.is_empty() {
            fields.push((
                "children".to_string(),
                Json::arr(self.children.iter().map(|c| c.to_json())),
            ));
        }
        Json::Obj(fields)
    }

    fn zero_timings(&mut self) {
        self.duration_us = 0;
        for child in &mut self.children {
            child.zero_timings();
        }
    }
}

/// A finished trace: everything a query did, with timings.
///
/// Structure (names, notes, span tree shape) is deterministic for a
/// given request against a given engine generation; only the
/// `*_us` fields vary run to run — [`TraceReport::zero_timings`]
/// normalizes them away for byte-stability tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// The request id this trace belongs to (client-supplied or
    /// server-generated `x-request-id`).
    pub request_id: String,
    /// End-to-end duration in microseconds.
    pub total_us: u64,
    /// Top-level spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Trace-level key/value notes, in insertion order.
    pub notes: Vec<(String, String)>,
}

impl TraceReport {
    /// The wire form of this trace (insertion-ordered, deterministic).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("request_id", Json::from(self.request_id.as_str())),
            ("total_us", Json::from(self.total_us)),
            ("spans", Json::arr(self.spans.iter().map(|s| s.to_json()))),
            (
                "notes",
                Json::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Zeroes every duration, recursively — traces of the same request
    /// then compare (and encode) byte-identically run to run.
    pub fn zero_timings(&mut self) {
        self.total_us = 0;
        for span in &mut self.spans {
            span.zero_timings();
        }
    }
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    notes: Vec<(String, String)>,
}

#[derive(Debug)]
struct TraceInner {
    request_id: String,
    state: Mutex<TraceState>,
}

/// The recording handle threaded through the query pipeline.
///
/// Clones share the same underlying record. [`Trace::disabled`] is the
/// zero-cost form: `None` inside, so every record method is a branch
/// and a return.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// The no-op handle: records nothing, costs nothing.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// A live handle recording under the given request id.
    pub fn enabled(request_id: impl Into<String>) -> Self {
        Trace {
            inner: Some(Arc::new(TraceInner {
                request_id: request_id.into(),
                state: Mutex::new(TraceState::default()),
            })),
        }
    }

    /// Whether this handle records anything. Guard note *construction*
    /// (formatting, counting) on this so disabled traces skip it.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The request id, when enabled.
    pub fn request_id(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.request_id.as_str())
    }

    /// Records a completed leaf span from an already-measured duration.
    pub fn span(&self, name: &str, duration: Duration) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().unwrap();
            state.spans.push(SpanRecord::new(name, duration));
        }
    }

    /// Records a completed span built by the caller (children, detail).
    pub fn push_span(&self, span: SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().spans.push(span);
        }
    }

    /// Records a trace-level key/value note.
    pub fn note(&self, key: &str, value: impl Into<String>) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().unwrap();
            state.notes.push((key.to_string(), value.into()));
        }
    }

    /// Snapshots the record into a report; `None` when disabled.
    pub fn finish(&self, total: Duration) -> Option<TraceReport> {
        self.inner.as_ref().map(|inner| {
            let state = inner.state.lock().unwrap();
            TraceReport {
                request_id: inner.request_id.clone(),
                total_us: total.as_micros() as u64,
                spans: state.spans.clone(),
                notes: state.notes.clone(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        assert_eq!(trace.request_id(), None);
        trace.span("probe1", Duration::from_micros(10));
        trace.note("k", "v");
        assert_eq!(trace.finish(Duration::from_micros(99)), None);
    }

    #[test]
    fn enabled_trace_preserves_order_and_structure() {
        let trace = Trace::enabled("req-1");
        trace.span("probe1", Duration::from_micros(100));
        trace.push_span(
            SpanRecord::new("column_map", Duration::from_micros(900))
                .with_detail("views", "3")
                .with_child(SpanRecord::new("view:7", Duration::from_micros(400))),
        );
        trace.note("candidates", "12");
        let report = trace.finish(Duration::from_micros(1100)).unwrap();
        assert_eq!(report.request_id, "req-1");
        assert_eq!(report.total_us, 1100);
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[1].children[0].name, "view:7");
        assert_eq!(report.notes, vec![("candidates".into(), "12".into())]);
    }

    #[test]
    fn clones_share_one_record() {
        let trace = Trace::enabled("shared");
        let clone = trace.clone();
        clone.span("probe1", Duration::from_micros(5));
        let report = trace.finish(Duration::ZERO).unwrap();
        assert_eq!(report.spans.len(), 1);
    }

    #[test]
    fn zero_timings_makes_reports_comparable() {
        let make = |us: u64| {
            let trace = Trace::enabled("r");
            trace.push_span(
                SpanRecord::new("probe1", Duration::from_micros(us))
                    .with_child(SpanRecord::new("shard0", Duration::from_micros(us / 2))),
            );
            trace.finish(Duration::from_micros(us * 2)).unwrap()
        };
        let (mut a, mut b) = (make(100), make(250));
        assert_ne!(a, b);
        a.zero_timings();
        b.zero_timings();
        assert_eq!(a, b);
        assert_eq!(a.to_json().encode(), b.to_json().encode());
    }

    #[test]
    fn report_json_is_insertion_ordered() {
        let trace = Trace::enabled("id-9");
        trace.span("probe1", Duration::from_micros(3));
        trace.note("cache", "miss");
        let json = trace.finish(Duration::from_micros(7)).unwrap().to_json();
        assert_eq!(
            json.encode(),
            r#"{"request_id":"id-9","total_us":7,"spans":[{"name":"probe1","duration_us":3}],"notes":{"cache":"miss"}}"#
        );
    }
}
