//! # wwt-obs
//!
//! std-only observability primitives shared by the engine, service and
//! server layers. Five pieces, none of which costs anything on the hot
//! path when it is switched off:
//!
//! | piece | what it does |
//! |---|---|
//! | [`Trace`] | request-scoped span tree + notes; a **disabled** handle is a no-op that never reads the clock or allocates |
//! | [`series!`] | declares each scalar counter/gauge once; derives its snapshot struct, its relaxed atomic cell, its `/stats` key and its `/metrics` family |
//! | [`Histogram`] | 12-bucket latency histogram with a monotone render; [`StageHistograms`] holds one per pipeline stage (`wwt_stage_duration_us{stage=...}`) |
//! | [`FlightRecorder`] | lock-striped ring buffers keeping the N slowest + N most recent query traces, plus anomaly capture |
//! | [`log!`] | leveled, optionally-JSON, request-id-stamped one-line logging to stderr |
//!
//! The crate depends only on `std` and the workspace's hand-rolled JSON
//! codec (`wwt-json`), so every layer — including the engine — can take
//! it without pulling in serving concerns.

mod histogram;
mod log;
mod recorder;
mod series;
mod trace;

pub use histogram::{Histogram, Stage, StageHistograms, STAGE_BUCKET_BOUNDS_US};
pub use log::{log_enabled, log_event, log_json, log_level, set_log_json, set_log_level, LogLevel};
pub use recorder::{FlightRecord, FlightRecorder, QueryOutcome, RecorderConfig, RecorderCounters};
pub use series::{
    json_fields, write_header, write_prometheus, Kind, Sample, Scalar, Series, Snapshot, Visitor,
};
pub use trace::{SpanRecord, Trace, TraceReport};
