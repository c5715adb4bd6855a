//! # wwt-consolidate
//!
//! The consolidator and ranker of paper §2.2.3: merges the mapped columns
//! and rows of all relevant web tables into a single answer table, detects
//! duplicate rows across tables (standing in for the method of the
//! authors' earlier work, ref \[9\]), accumulates per-row support, and ranks
//! rows so that well-supported rows from highly relevant tables surface
//! first.

pub mod consolidator;
pub mod ranker;
pub mod row_metrics;

pub use consolidator::{consolidate, RelevantInput};
pub use ranker::rank_rows;
pub use row_metrics::row_set_error;
