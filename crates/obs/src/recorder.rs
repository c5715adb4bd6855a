//! The slow-query flight recorder: fixed-size, lock-striped ring
//! buffers capturing full [`TraceReport`]s for the N slowest and N most
//! recent queries, plus a dedicated buffer for anomalies (every
//! deadline-exceeded and zero-result query, bounded retention —
//! counters track the unbounded totals).
//!
//! Writers take exactly one striped mutex per record (stripe chosen by
//! sequence number, so load spreads evenly); readers merge across
//! stripes. The **strict-slowest invariant** holds under any
//! interleaving: each stripe retains its own top-`slowest` records by
//! duration, and since every record lands in exactly one stripe, the
//! global top-`slowest` is a subset of the union the reader merges.

use crate::trace::TraceReport;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wwt_json::Json;

/// Capacity knobs for [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// How many slowest queries to retain (globally).
    pub slowest: usize,
    /// How many most-recent queries to retain (globally).
    pub recent: usize,
    /// Lock stripes; writers on different stripes never contend.
    pub stripes: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            slowest: 16,
            recent: 16,
            stripes: 8,
        }
    }
}

/// How a recorded query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answered with at least one row.
    Ok,
    /// Answered, but with an empty table.
    ZeroResults,
    /// Tripped its deadline budget.
    DeadlineExceeded,
    /// Failed with any other engine error.
    Error,
}

impl QueryOutcome {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::ZeroResults => "zero_results",
            QueryOutcome::DeadlineExceeded => "deadline_exceeded",
            QueryOutcome::Error => "error",
        }
    }

    fn is_anomaly(self) -> bool {
        !matches!(self, QueryOutcome::Ok)
    }
}

/// One captured query: identity, outcome, and its full stage trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Recorder-assigned monotone sequence number (1-based).
    pub seq: u64,
    /// The query's `x-request-id`.
    pub request_id: String,
    /// The query text.
    pub query: String,
    /// End-to-end duration in microseconds.
    pub duration_us: u64,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// Engine generation the query ran against.
    pub generation: u64,
    /// Rows in the answer (0 for errors).
    pub rows: usize,
    /// The stage-level trace.
    pub trace: TraceReport,
}

impl FlightRecord {
    /// The wire form served by `/debug/slow_queries` and
    /// `/debug/trace/{request_id}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("request_id", Json::from(self.request_id.as_str())),
            ("query", Json::from(self.query.as_str())),
            ("duration_us", Json::from(self.duration_us)),
            ("outcome", Json::from(self.outcome.label())),
            ("generation", Json::from(self.generation)),
            ("rows", Json::from(self.rows)),
            ("trace", self.trace.to_json()),
        ])
    }
}

crate::series! {
    /// Monotone counters over everything ever recorded (not just retained).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RecorderCounters stored in RecorderCells {
        stored recorded: u64 => "flight_records", "wwt_flight_records_total", Counter,
            "Queries captured by the slow-query flight recorder.";
        stored deadline_exceeded: u64 => "flight_deadline_exceeded",
            "wwt_flight_deadline_exceeded_total", Counter,
            "Recorded queries that tripped their deadline budget.";
        stored zero_results: u64 => "flight_zero_results", "wwt_flight_zero_results_total", Counter,
            "Recorded queries that answered an empty table.";
    }
}

#[derive(Debug, Default)]
struct Stripe {
    /// Sorted slowest-first by `(duration_us desc, seq asc)`.
    slowest: Vec<FlightRecord>,
    recent: VecDeque<FlightRecord>,
    anomalies: VecDeque<FlightRecord>,
}

/// The recorder itself; shared behind the service layer.
#[derive(Debug)]
pub struct FlightRecorder {
    config: RecorderConfig,
    stripes: Vec<Mutex<Stripe>>,
    seq: AtomicU64,
    counters: RecorderCells,
}

/// Slowest-first total order: longer duration wins, earlier sequence
/// breaks ties (deterministic under concurrency tests).
fn slower(a: &FlightRecord, b: &FlightRecord) -> std::cmp::Ordering {
    b.duration_us.cmp(&a.duration_us).then(a.seq.cmp(&b.seq))
}

impl FlightRecorder {
    /// A recorder with the given capacities (stripes clamped to ≥ 1).
    pub fn new(config: RecorderConfig) -> Self {
        let stripes = config.stripes.max(1);
        FlightRecorder {
            config,
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            seq: AtomicU64::new(0),
            counters: RecorderCells::default(),
        }
    }

    /// The configured capacities.
    pub fn config(&self) -> RecorderConfig {
        self.config
    }

    /// Captures one query; assigns and returns its sequence number.
    /// `record.seq` on input is ignored.
    pub fn record(&self, mut record: FlightRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        record.seq = seq;
        self.counters.recorded.inc();
        match record.outcome {
            QueryOutcome::DeadlineExceeded => self.counters.deadline_exceeded.inc(),
            QueryOutcome::ZeroResults => self.counters.zero_results.inc(),
            _ => {}
        }

        let stripe = &self.stripes[(seq as usize) % self.stripes.len()];
        let mut s = stripe.lock().unwrap();
        if self.config.recent > 0 {
            if s.recent.len() == self.config.recent {
                s.recent.pop_front();
            }
            s.recent.push_back(record.clone());
        }
        if record.outcome.is_anomaly() {
            let cap = self.config.recent.max(self.config.slowest);
            if cap > 0 {
                if s.anomalies.len() == cap {
                    s.anomalies.pop_front();
                }
                s.anomalies.push_back(record.clone());
            }
        }
        if self.config.slowest > 0 {
            let keep = s.slowest.len() < self.config.slowest
                || slower(&record, s.slowest.last().unwrap()).is_lt();
            if keep {
                let at = s.slowest.partition_point(|r| slower(r, &record).is_lt());
                s.slowest.insert(at, record);
                s.slowest.truncate(self.config.slowest);
            }
        }
        seq
    }

    /// The strict global top-`slowest` records, slowest first.
    pub fn slowest(&self) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self
            .stripes
            .iter()
            .flat_map(|s| s.lock().unwrap().slowest.clone())
            .collect();
        all.sort_by(slower);
        all.truncate(self.config.slowest);
        all
    }

    /// The most recent records, newest first.
    pub fn recent(&self) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self
            .stripes
            .iter()
            .flat_map(|s| s.lock().unwrap().recent.iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.truncate(self.config.recent);
        all
    }

    /// Recently retained anomalies (deadline-exceeded / zero-result),
    /// newest first.
    pub fn anomalies(&self) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self
            .stripes
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap()
                    .anomalies
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all
    }

    /// The newest retained record with the given request id, searching
    /// every buffer.
    pub fn find(&self, request_id: &str) -> Option<FlightRecord> {
        let mut best: Option<FlightRecord> = None;
        for stripe in &self.stripes {
            let s = stripe.lock().unwrap();
            for r in s
                .slowest
                .iter()
                .chain(s.recent.iter())
                .chain(s.anomalies.iter())
            {
                if r.request_id == request_id && best.as_ref().is_none_or(|b| r.seq > b.seq) {
                    best = Some(r.clone());
                }
            }
        }
        best
    }

    /// Monotone totals for `/stats` and `/metrics`.
    pub fn counters(&self) -> RecorderCounters {
        self.counters.load(RecorderCounters::default())
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(RecorderConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, us: u64, outcome: QueryOutcome) -> FlightRecord {
        FlightRecord {
            seq: 0,
            request_id: id.to_string(),
            query: format!("q {id}"),
            duration_us: us,
            outcome,
            generation: 0,
            rows: if outcome == QueryOutcome::Ok { 1 } else { 0 },
            trace: TraceReport::default(),
        }
    }

    #[test]
    fn slowest_is_strict_top_n_across_stripes() {
        let r = FlightRecorder::new(RecorderConfig {
            slowest: 4,
            recent: 2,
            stripes: 3,
        });
        let durations = [5u64, 900, 30, 700, 30, 1, 800, 650, 2, 40];
        for (i, us) in durations.iter().enumerate() {
            r.record(rec(&format!("r{i}"), *us, QueryOutcome::Ok));
        }
        let got: Vec<u64> = r.slowest().into_iter().map(|x| x.duration_us).collect();
        assert_eq!(got, vec![900, 800, 700, 650]);
    }

    #[test]
    fn recent_keeps_newest_in_order() {
        let r = FlightRecorder::new(RecorderConfig {
            slowest: 2,
            recent: 3,
            stripes: 2,
        });
        for i in 0..10u64 {
            r.record(rec(&format!("r{i}"), i, QueryOutcome::Ok));
        }
        let ids: Vec<String> = r.recent().into_iter().map(|x| x.request_id).collect();
        assert_eq!(ids, vec!["r9", "r8", "r7"]);
    }

    #[test]
    fn ties_resolve_by_earlier_sequence() {
        let r = FlightRecorder::new(RecorderConfig {
            slowest: 2,
            recent: 0,
            stripes: 1,
        });
        for id in ["a", "b", "c"] {
            r.record(rec(id, 100, QueryOutcome::Ok));
        }
        let ids: Vec<String> = r.slowest().into_iter().map(|x| x.request_id).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn anomalies_and_counters_capture_failures() {
        let r = FlightRecorder::new(RecorderConfig::default());
        r.record(rec("ok", 10, QueryOutcome::Ok));
        r.record(rec("zero", 20, QueryOutcome::ZeroResults));
        r.record(rec("dead", 30, QueryOutcome::DeadlineExceeded));
        r.record(rec("err", 40, QueryOutcome::Error));
        let counters = r.counters();
        assert_eq!(counters.recorded, 4);
        assert_eq!(counters.deadline_exceeded, 1);
        assert_eq!(counters.zero_results, 1);
        let ids: Vec<String> = r.anomalies().into_iter().map(|x| x.request_id).collect();
        assert_eq!(ids, vec!["err", "dead", "zero"]);
    }

    #[test]
    fn find_returns_newest_match() {
        let r = FlightRecorder::new(RecorderConfig::default());
        r.record(rec("dup", 10, QueryOutcome::Ok));
        let seq2 = r.record(rec("dup", 99, QueryOutcome::Ok));
        assert_eq!(r.find("dup").unwrap().seq, seq2);
        assert!(r.find("missing").is_none());
    }

    #[test]
    fn record_json_round_trips_through_the_codec() {
        let mut record = rec("wire", 123, QueryOutcome::ZeroResults);
        record.trace.request_id = "wire".into();
        let encoded = record.to_json().encode();
        let parsed = wwt_json::Json::parse(&encoded).unwrap();
        assert_eq!(
            parsed.get("outcome").unwrap().as_str(),
            Some("zero_results")
        );
        assert_eq!(parsed.get("duration_us").unwrap().as_u64(), Some(123));
        assert!(parsed.get("trace").unwrap().get("spans").is_some());
    }
}
