//! Pairwise MRF with **score-maximization** semantics.
//!
//! The column-mapping objective (paper Eq. 9) is a sum of node potentials
//! and pairwise edge potentials to *maximize*. This module holds the
//! assembled model; [`crate::alpha`], [`crate::bp`] and [`mod@crate::trws`]
//! run approximate MAP inference on it, and [`PairwiseMrf::brute_force_map`]
//! provides the exact reference for small instances.
//!
//! Hard constraints are encoded as [`crate::NEG_INF_SCORE`] entries.

use crate::NEG_INF_SCORE;

/// A pairwise edge with a dense `L×L` potential table.
#[derive(Debug, Clone)]
pub struct MrfEdge {
    /// First endpoint (row index of the table).
    pub u: usize,
    /// Second endpoint (column index of the table).
    pub v: usize,
    /// `pot[lu * n_labels + lv]` = score of the pair `(lu, lv)`.
    pub pot: Vec<f64>,
}

/// A pairwise Markov random field over `n_vars` variables sharing one label
/// space of size `n_labels`.
#[derive(Debug, Clone)]
pub struct PairwiseMrf {
    n_labels: usize,
    node_pot: Vec<Vec<f64>>,
    edges: Vec<MrfEdge>,
    /// For each variable, indices into `edges` touching it.
    adj: Vec<Vec<usize>>,
}

impl PairwiseMrf {
    /// Creates an MRF from per-variable node potentials (scores).
    ///
    /// # Panics
    /// Panics if rows have inconsistent widths or `n_labels == 0`.
    pub fn new(node_pot: Vec<Vec<f64>>) -> Self {
        let n_labels = node_pot.first().map(Vec::len).unwrap_or(0);
        assert!(n_labels > 0, "need at least one label");
        assert!(
            node_pot.iter().all(|r| r.len() == n_labels),
            "ragged node potentials"
        );
        let n_vars = node_pot.len();
        PairwiseMrf {
            n_labels,
            node_pot,
            edges: Vec::new(),
            adj: vec![Vec::new(); n_vars],
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.node_pot.len()
    }

    /// Number of labels.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Node potential θ(v, l).
    #[inline]
    pub fn node_pot(&self, v: usize, l: usize) -> f64 {
        self.node_pot[v][l]
    }

    /// Adds a pairwise potential; `pot` is row-major `L×L` with rows
    /// indexed by `u`'s label.
    pub fn add_edge(&mut self, u: usize, v: usize, pot: Vec<f64>) {
        assert!(u != v, "self edge");
        assert!(u < self.n_vars() && v < self.n_vars());
        assert_eq!(pot.len(), self.n_labels * self.n_labels);
        let id = self.edges.len();
        self.edges.push(MrfEdge { u, v, pot });
        self.adj[u].push(id);
        self.adj[v].push(id);
    }

    /// Adds a Potts-style edge: score `w` when both labels are equal and
    /// the shared label is not in `excluded`; 0 otherwise. This is the
    /// paper's Eq. 4 shape (excluded = {nr}).
    pub fn add_potts_edge(&mut self, u: usize, v: usize, w: f64, excluded: &[usize]) {
        let l = self.n_labels;
        let mut pot = vec![0.0; l * l];
        for lab in 0..l {
            if !excluded.contains(&lab) {
                pot[lab * l + lab] = w;
            }
        }
        self.add_edge(u, v, pot);
    }

    /// The edges.
    pub fn edges(&self) -> &[MrfEdge] {
        &self.edges
    }

    /// Edge ids incident to variable `v`.
    pub fn incident(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Edge potential of edge `e` for labels `(lu, lv)` (in the edge's own
    /// endpoint order).
    #[inline]
    pub fn edge_pot(&self, e: usize, lu: usize, lv: usize) -> f64 {
        self.edges[e].pot[lu * self.n_labels + lv]
    }

    /// Total score of a full labeling (node + edge terms). Forbidden
    /// configurations score ≤ [`NEG_INF_SCORE`].
    pub fn score(&self, labeling: &[usize]) -> f64 {
        debug_assert_eq!(labeling.len(), self.n_vars());
        let mut s = 0.0;
        for (v, &l) in labeling.iter().enumerate() {
            s += self.node_pot[v][l];
        }
        for e in &self.edges {
            s += e.pot[labeling[e.u] * self.n_labels + labeling[e.v]];
        }
        s
    }

    /// Exact MAP by exhaustive enumeration — exponential, for tests and
    /// tiny models only.
    ///
    /// # Panics
    /// Panics if `n_labels ^ n_vars` exceeds 2_000_000 states.
    pub fn brute_force_map(&self) -> (Vec<usize>, f64) {
        let states = (self.n_labels as u64).checked_pow(self.n_vars() as u32);
        assert!(
            states.map(|s| s <= 2_000_000).unwrap_or(false),
            "state space too large for brute force"
        );
        let mut best = (vec![0; self.n_vars()], f64::NEG_INFINITY);
        let mut cur = vec![0usize; self.n_vars()];
        loop {
            let s = self.score(&cur);
            if s > best.1 {
                best = (cur.clone(), s);
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == self.n_vars() {
                    return best;
                }
                cur[i] += 1;
                if cur[i] < self.n_labels {
                    break;
                }
                cur[i] = 0;
                i += 1;
            }
        }
    }

    /// True iff the labeling avoids every forbidden (≤ [`NEG_INF_SCORE`])
    /// node or edge entry.
    pub fn is_feasible(&self, labeling: &[usize]) -> bool {
        labeling
            .iter()
            .enumerate()
            .all(|(v, &l)| self.node_pot[v][l] > NEG_INF_SCORE / 2.0)
            && self
                .edges
                .iter()
                .all(|e| e.pot[labeling[e.u] * self.n_labels + labeling[e.v]] > NEG_INF_SCORE / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> PairwiseMrf {
        // 3 vars, 2 labels; prefer alternating via dissociative edges.
        let mut m = PairwiseMrf::new(vec![vec![1.0, 0.0], vec![0.0, 0.0], vec![1.0, 0.0]]);
        let dissoc = vec![0.0, 2.0, 2.0, 0.0]; // reward different labels
        m.add_edge(0, 1, dissoc.clone());
        m.add_edge(1, 2, dissoc);
        m
    }

    #[test]
    fn score_adds_node_and_edge_terms() {
        let m = chain();
        // labeling [0,1,0]: nodes 1+0+1, edges 2+2 = 6.
        assert!((m.score(&[0, 1, 0]) - 6.0).abs() < 1e-12);
        // labeling [0,0,0]: nodes 2, edges 0.
        assert!((m.score(&[0, 0, 0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn brute_force_finds_map() {
        let m = chain();
        let (lab, s) = m.brute_force_map();
        assert_eq!(lab, vec![0, 1, 0]);
        assert!((s - 6.0).abs() < 1e-12);
    }

    #[test]
    fn potts_edge_shape() {
        let mut m = PairwiseMrf::new(vec![vec![0.0; 3], vec![0.0; 3]]);
        m.add_potts_edge(0, 1, 1.5, &[2]); // label 2 excluded (like nr)
        assert_eq!(m.edge_pot(0, 0, 0), 1.5);
        assert_eq!(m.edge_pot(0, 1, 1), 1.5);
        assert_eq!(m.edge_pot(0, 2, 2), 0.0);
        assert_eq!(m.edge_pot(0, 0, 1), 0.0);
    }

    #[test]
    fn feasibility_with_neg_inf() {
        let mut m = PairwiseMrf::new(vec![vec![0.0, NEG_INF_SCORE], vec![0.0, 0.0]]);
        m.add_edge(0, 1, vec![0.0, 0.0, 0.0, NEG_INF_SCORE]);
        assert!(m.is_feasible(&[0, 0]));
        assert!(!m.is_feasible(&[1, 0])); // node forbidden
        assert!(m.is_feasible(&[0, 1]));
    }

    #[test]
    fn incident_edges_tracked() {
        let m = chain();
        assert_eq!(m.incident(0), &[0]);
        assert_eq!(m.incident(1), &[0, 1]);
        assert_eq!(m.incident(2), &[1]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_potentials_rejected() {
        PairwiseMrf::new(vec![vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    #[should_panic(expected = "state space")]
    fn brute_force_guard() {
        let m = PairwiseMrf::new(vec![vec![0.0; 10]; 10]);
        m.brute_force_map();
    }
}
