//! The per-request execution context of the online pipeline.
//!
//! One [`ExecCtx`] owns a request's deadline, its trace handle and its
//! fail-soft reasons ([`QueryOptions::fail_soft`]), and applies the three
//! policies every pipeline stage shares:
//!
//! * a **stage boundary** ([`ExecCtx::boundary`]): once the deadline has
//!   passed, the stage about to start is refused with
//!   [`WwtError::DeadlineExceeded`] — or, fail-soft, cut back with one
//!   recorded reason;
//! * an **absorb** step ([`ExecCtx::absorb`]): fail-soft turns a
//!   recoverable error (a failed shard probe, a failed column-map batch)
//!   into a recorded fallback instead of failing the request;
//! * **tracing** ([`ExecCtx::span`], [`ExecCtx::note`]): the span or note
//!   is built only when the trace is enabled.
//!
//! A plain request (no deadline, no fail-soft, no trace) reads no clock,
//! takes no lock and formats nothing on any of these paths. Reasons live
//! behind a `Mutex` because the context is shared with probe workers on
//! the pool; it is only locked when a reason is recorded or collected.
//!
//! [`QueryOptions::fail_soft`]: crate::QueryOptions::fail_soft

use crate::deadline::Deadline;
use crate::request::QueryOptions;
use crate::{fan_out, try_fan_out};
use std::fmt::Display;
use std::sync::Mutex;
use std::time::Duration;
use wwt_model::WwtError;
use wwt_obs::{SpanRecord, Trace, TraceReport};

/// A request's deadline, trace and fail-soft reasons.
#[derive(Debug, Default)]
pub(super) struct ExecCtx {
    deadline: Deadline,
    trace: Trace,
    fail_soft: bool,
    reasons: Mutex<Vec<String>>,
}

impl ExecCtx {
    /// The context of one request: its deadline starts now, and an
    /// `explain` request recording into a disabled `trace` gets a local
    /// enabled one, so in-process callers get diagnostics too.
    pub(super) fn new(options: &QueryOptions, trace: &Trace) -> Self {
        ExecCtx {
            deadline: Deadline::starting_now(options.deadline_ms),
            trace: if options.explain && !trace.is_enabled() {
                Trace::enabled("")
            } else {
                trace.clone()
            },
            fail_soft: options.fail_soft,
            reasons: Mutex::new(Vec::new()),
        }
    }

    /// True iff recoverable faults are absorbed instead of failing.
    pub(super) fn fail_soft(&self) -> bool {
        self.fail_soft
    }

    /// True iff fail-soft is on and over half the deadline budget is
    /// spent: the trigger for a cheaper mapping algorithm.
    pub(super) fn pressured(&self) -> bool {
        self.fail_soft && self.deadline.pressured()
    }

    /// A hard deadline check naming the stage about to start; fail-soft
    /// does not soften it.
    pub(super) fn check(&self, stage: &'static str) -> Result<(), WwtError> {
        self.deadline.check(stage)
    }

    /// A stage boundary. `Ok(false)` while time remains. Once the
    /// deadline has passed: fail-soft records `"{stage}: {consequence}"`
    /// and returns `Ok(true)`, telling the caller to cut the stage back;
    /// otherwise the stage is refused.
    pub(super) fn boundary(
        &self,
        stage: &'static str,
        consequence: &str,
    ) -> Result<bool, WwtError> {
        match self.deadline.check(stage) {
            Ok(()) => Ok(false),
            Err(_) if self.fail_soft => {
                self.degrade(format!("{stage}: {consequence}"));
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Absorbs a stage's error under fail-soft: `Ok(None)` after
    /// recording `"{what}: {error}"`, where the caller falls back.
    /// Without fail-soft the error propagates.
    pub(super) fn absorb<T>(
        &self,
        result: Result<T, WwtError>,
        what: impl Display,
    ) -> Result<Option<T>, WwtError> {
        match result {
            Ok(value) => Ok(Some(value)),
            Err(e) if self.fail_soft => {
                self.degrade(format!("{what}: {e}"));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `f` over `0..n` on the engine pool, results in order.
    /// Fail-soft also isolates a worker panic as that unit's
    /// [`WwtError::Internal`]; otherwise the panic propagates to the
    /// service boundary.
    pub(super) fn scatter<T: Send>(
        &self,
        n: usize,
        threads: usize,
        f: impl Fn(usize) -> Result<T, WwtError> + Sync,
    ) -> Vec<Result<T, WwtError>> {
        if !self.fail_soft {
            return fan_out(n, threads, f);
        }
        try_fan_out(n, threads, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| Err(WwtError::Internal(p.to_string()))))
            .collect()
    }

    /// Records why a stage degraded.
    pub(super) fn degrade(&self, reason: String) {
        self.reasons
            .lock()
            .expect("fail-soft reason lock poisoned")
            .push(reason);
    }

    /// The recorded degradation reasons, in the order they happened.
    pub(super) fn take_reasons(&self) -> Vec<String> {
        std::mem::take(&mut *self.reasons.lock().expect("fail-soft reason lock poisoned"))
    }

    /// True iff the trace records anything.
    pub(super) fn traced(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Records the span `build` makes, calling it only when traced.
    pub(super) fn span(&self, build: impl FnOnce() -> SpanRecord) {
        if self.traced() {
            self.trace.push_span(build());
        }
    }

    /// Records a trace note, formatting key and value only when traced.
    pub(super) fn note(&self, key: impl Display, value: impl FnOnce() -> String) {
        if self.traced() {
            self.trace.note(&key.to_string(), value());
        }
    }

    /// The finished trace report, `None` when untraced.
    pub(super) fn finish(&self, total: Duration) -> Option<TraceReport> {
        self.trace.finish(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(fail_soft: bool, deadline_ms: Option<u64>) -> ExecCtx {
        let options = QueryOptions {
            fail_soft,
            deadline_ms,
            ..QueryOptions::default()
        };
        ExecCtx::new(&options, &Trace::disabled())
    }

    #[test]
    fn off_is_inert() {
        let c = ctx(false, None);
        assert!(!c.fail_soft());
        assert!(!c.traced());
        assert!(!c.boundary("stage", "cut").unwrap());
        assert_eq!(c.absorb(Ok::<_, WwtError>(7), "x").unwrap(), Some(7));
        let err = WwtError::Invalid("boom".into());
        assert!(matches!(
            c.absorb::<()>(Err(err), "x"),
            Err(WwtError::Invalid(_))
        ));
        assert!(c.take_reasons().is_empty());
        // An expired deadline refuses the stage and records nothing.
        let spent = ctx(false, Some(0));
        assert!(matches!(
            spent.boundary("column mapping", "cut"),
            Err(WwtError::DeadlineExceeded(stage)) if stage == "column mapping"
        ));
        assert!(spent.take_reasons().is_empty());
    }

    #[test]
    fn on_collects_in_order() {
        let c = ctx(true, Some(0));
        assert!(c.fail_soft());
        assert!(c.pressured());
        let err = WwtError::Invalid("boom".into());
        assert_eq!(
            c.absorb::<()>(Err(err), "probe1: shard 2 dropped").unwrap(),
            None
        );
        assert!(c.boundary("second probe", "skipped").unwrap());
        // The hard check stays hard under fail-soft.
        assert!(c.check("retrieval").is_err());
        assert_eq!(
            c.take_reasons(),
            vec![
                "probe1: shard 2 dropped: invalid: boom".to_string(),
                "second probe: skipped".to_string()
            ]
        );
        assert!(c.take_reasons().is_empty());
    }
}
