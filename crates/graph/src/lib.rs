//! # wwt-graph
//!
//! Graph-algorithm and MRF substrate for the WWT column mapper (paper §4).
//! Everything here is generic over problem structure and independently
//! tested against brute force; the core crate assembles these pieces into
//! the paper's inference algorithms.
//!
//! * [`mincost`] — min-cost max-flow with Bellman–Ford successive shortest
//!   paths, exposing the final residual graph (needed by Figure 3's
//!   max-marginal computation).
//! * [`assignment`] — generalized maximum-weight bipartite matching with
//!   bin capacities (§4.1) and all-pairs max-marginals via residual-graph
//!   shortest paths (§4.2.3).
//! * [`maxflow`] — Dinic max-flow / min-cut over `f64` capacities with
//!   incremental capacity raises (needed by the constrained-cut loop).
//! * [`constrained_cut`] — the constrained minimum s-t cut of Figure 4
//!   (at most one vertex per group on the t side).
//! * [`mrf`] — pairwise MRF with score-maximization semantics and a brute
//!   force MAP solver for validation.
//! * [`alpha`] — α-expansion (Boykov–Veksler–Zabih) with the paper's
//!   modification: mutex-constrained moves via [`constrained_cut`].
//! * [`bp`] — loopy max-product belief propagation (log domain, damped).
//! * [`mod@trws`] — sequential tree-reweighted message passing (TRW-S).

pub mod alpha;
pub mod assignment;
pub mod bp;
pub mod constrained_cut;
pub mod maxflow;
pub mod mincost;
pub mod mrf;
pub mod trws;

pub use alpha::{alpha_expansion, AlphaOptions};
pub use assignment::{max_marginals, solve_assignment, Assignment, AssignmentSolution};
pub use bp::{loopy_bp, BpOptions};
pub use constrained_cut::constrained_min_cut;
pub use maxflow::MaxFlowGraph;
pub use mincost::MinCostFlow;
pub use mrf::PairwiseMrf;
pub use trws::{trws, TrwsOptions};

/// Finite stand-in for `−∞` score (forbidden configuration). Using a large
/// finite value keeps message passing free of `NaN` from `∞ − ∞`.
pub const NEG_INF_SCORE: f64 = -1.0e12;
