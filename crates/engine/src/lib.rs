//! # wwt-engine
//!
//! The end-to-end WWT system of paper Figure 2, split along the
//! offline/online service boundary:
//!
//! * **offline** ([`EngineBuilder`]): crawl documents → table extraction
//!   (`wwt-html`) → table store + fielded index (`wwt-index`);
//! * **online** ([`Engine`]): an immutable, `Send + Sync` snapshot whose
//!   [`Engine::answer`] runs the two-stage index probe (§2.2.1), column
//!   mapping (`wwt-core`), consolidation and ranking (`wwt-consolidate`)
//!   for a typed [`QueryRequest`], returning a [`QueryResponse`] with
//!   per-stage timing (the Figure 7 breakdown) in [`QueryDiagnostics`];
//! * **baselines** ([`baselines`]): the Basic / NbrText / PMI2 methods of
//!   §5 that WWT is compared against;
//! * **evaluation** ([`evaluate`]): binding generated corpora to ground
//!   truth and computing the F1 error per method (the machinery behind
//!   every table and figure reproduction in `wwt-bench`).
//!
//! Build with [`EngineBuilder`], serve through `wwt-service`'s
//! `TableSearchService` (or over HTTP via `wwt-server`). The pre-0.2
//! `Wwt` facade and its `QueryOutcome` shape are gone: build via
//! [`EngineBuilder`] and answer via [`Engine::answer`] /
//! [`Engine::answer_query`] instead.

pub mod baselines;
pub mod deadline;
pub mod engine;
pub mod evaluate;
pub mod pipeline;
pub mod request;
pub mod retrieval;
pub mod soft;
pub mod timing;

pub use baselines::{baseline_map, BaselineConfig, BaselineMethod};
pub use deadline::Deadline;
pub use engine::{default_shards, Engine, EngineBuilder, EngineMutation};
pub use evaluate::{
    bind_corpus, bind_corpus_sharded, evaluate_query, evaluate_query_with, evaluate_workload,
    evaluate_workload_with, BoundCorpus, Method, QueryEvaluation,
};
pub use pipeline::WwtConfig;
pub use request::{QueryDiagnostics, QueryOptions, QueryRequest, QueryResponse};
pub use retrieval::Retrieval;
pub use soft::FailSoft;
pub use timing::StageTimings;
// The indexed fan-out the probe scatter, the evaluation harness and the
// service layer's `answer_batch` go through.
pub use wwt_pool::{fan_out, try_fan_out};
// Re-exported so `answer_traced` callers need no direct wwt-obs dep.
pub use wwt_obs::{Trace, TraceReport};

#[cfg(test)]
mod tests {
    use crate::fan_out;

    #[test]
    fn preserves_order_across_thread_counts() {
        let expected: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1, 2, 4, 16] {
            assert_eq!(fan_out(57, threads, |i| i * i), expected);
        }
    }

    #[test]
    fn empty_and_single_item() {
        assert_eq!(fan_out(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 4, |i| i + 1), vec![1]);
    }
}
