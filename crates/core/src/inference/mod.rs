//! Inference algorithms for the column-mapping objective (paper §4).
//!
//! * [`independent`] — exact per-table inference via generalized bipartite
//!   matching (§4.1; edge potentials ignored);
//! * [`marginals`] — per-table max-marginals and calibrated label
//!   probabilities (§4.2.3, Figure 3);
//! * [`mod@table_centric`] — the collective algorithm the paper found best:
//!   marginal-weighted neighbor messages, then per-table re-solve (§4.2);
//! * [`mod@edge_centric`] — the α-expansion / BP / TRW-S alternatives over the
//!   full pairwise model with constraints lowered or handled by constrained
//!   cuts (§4.3).

pub mod edge_centric;
pub mod independent;
pub mod marginals;
pub mod table_centric;

pub use edge_centric::{edge_centric, EdgeCentricAlgorithm};
pub use independent::solve_table;
pub use marginals::{table_marginals, TableMarginals};
pub use table_centric::table_centric;
