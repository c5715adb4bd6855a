//! Request deadlines, checked at pipeline stage boundaries.
//!
//! A [`Deadline`] is an absolute wall-clock point derived from a
//! per-request millisecond budget ([`crate::QueryOptions::deadline_ms`]).
//! The engine calls [`Deadline::check`] between stages (retrieve →
//! column map → consolidate) and aborts with
//! [`WwtError::DeadlineExceeded`] instead of finishing late work nobody
//! will read. A stage already running is never interrupted — checks sit
//! on the boundaries, so the pipeline overshoots by at most one stage.
//!
//! The default deadline is a true no-op: no clock is read, so requests
//! without a deadline behave byte-identically to a build without this
//! module.

use std::time::{Duration, Instant};
use wwt_model::WwtError;

/// An absolute point in time a request must not run past; the default
/// is none, and its [`Deadline::check`] passes without reading the clock.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Deadline {
    at: Option<Instant>,
    /// The original budget, kept so fail-soft execution can judge
    /// *pressure* (more than half the budget spent) rather than only
    /// expiry.
    budget: Option<Duration>,
}

impl Deadline {
    /// A deadline `budget_ms` milliseconds from now; `None` means no
    /// deadline. A budget of `0` expires immediately — the first
    /// checkpoint trips.
    pub fn starting_now(budget_ms: Option<u64>) -> Self {
        let budget = budget_ms.map(Duration::from_millis);
        Deadline {
            at: budget.map(|b| Instant::now() + b),
            budget,
        }
    }

    /// True iff a deadline is set and more than half its budget is
    /// already spent — the trigger for fail-soft algorithm downgrades
    /// (cheaper inference while an answer is still possible, instead of
    /// an expensive one that will blow the budget).
    pub fn pressured(&self) -> bool {
        match (self.at, self.budget) {
            (Some(at), Some(budget)) => at.saturating_duration_since(Instant::now()) <= budget / 2,
            _ => false,
        }
    }

    /// Passes while time remains; once the deadline is behind us, fails
    /// with [`WwtError::DeadlineExceeded`] naming the stage about to
    /// start (the work being refused, not the work that consumed the
    /// budget).
    pub fn check(&self, stage: &'static str) -> Result<(), WwtError> {
        if self.at.is_some_and(|at| Instant::now() >= at) {
            Err(WwtError::DeadlineExceeded(stage.to_string()))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        assert!(Deadline::default().check("anything").is_ok());
        assert!(!Deadline::default().pressured());
        assert!(Deadline::starting_now(None).check("x").is_ok());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::starting_now(Some(0));
        assert!(d.pressured());
        match d.check("retrieve") {
            Err(WwtError::DeadlineExceeded(stage)) => assert_eq!(stage, "retrieve"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_passes() {
        let d = Deadline::starting_now(Some(60_000));
        assert!(!d.pressured());
        assert!(d.check("consolidate").is_ok());
    }

    #[test]
    fn after_expires_once_elapsed() {
        let d = Deadline::starting_now(Some(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.check("column_map").is_err());
    }

    #[test]
    fn pressure_starts_at_half_the_budget() {
        // Half the budget gone: pressured, well before expiry.
        let d = Deadline::starting_now(Some(20));
        std::thread::sleep(Duration::from_millis(12));
        assert!(d.pressured());
    }
}
