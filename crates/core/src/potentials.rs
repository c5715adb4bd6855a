//! Node potentials θ(tc, ℓ) (paper Eq. 3).
//!
//! ```text
//! θ(tc, ℓ) = w1·SegSim + w2·Cover + w3·PMI² + w5        ℓ ∈ 1..q
//!          = w4 · (min(q,nt)/nt) · (1 − R(Q,t))          ℓ = nr
//!          = 0                                           ℓ = na
//! ```
//!
//! The negative bias `w5` disallows query-column maps justified only by
//! tiny similarities; the `nr` potential rewards marking a table irrelevant
//! when little of the query is covered (`R` low).
//!
//! # The bind-time fast path
//!
//! Evaluated naively, Eq. 3 runs the segmented similarity **three times**
//! per (query column, table column) pair: once inside `table_relevance`
//! (which needs `Cover` of every pair), and once each for the `SegSim`
//! and `Cover` terms of the θ row. When the view carries bind-time
//! [`crate::view::InternedFeatures`], [`node_potentials`] instead
//!
//! 1. resolves each query token to the table-local term id once,
//! 2. computes `SegSim` and `Cover` of every pair in **one fused pass**
//!    (they share the split enumeration, skip conditions, and out-part
//!    sums; only the in-similarity differs), and
//! 3. reuses that `Cover` matrix for `R(Q,t)` with the same fold order.
//!
//! One pass instead of three, and every membership/weight probe inside it
//! is an integer lookup — zero string hashing per query. The arithmetic
//! sequence per score is unchanged, so the result is **bit-identical** to
//! the string oracle (views built by [`TableFeatures::compute_oracle`]);
//! `tests/interned_equivalence.rs` pins this end to end and
//! `tests::fast_path_matches_oracle_bitwise` pins it per matrix entry.
//!
//! [`TableFeatures::compute_oracle`]: crate::view::TableFeatures::compute_oracle

use crate::config::{MapperConfig, SimilarityMode};
use crate::features::{
    bind_query_column, cover, pmi2, seg_and_cover_interned, seg_sim, table_relevance, QueryView,
};
use crate::view::TableView;
use wwt_index::DocSets;
use wwt_model::Label;

/// Dense node-potential table for one candidate web table:
/// `theta[c][Label::dense]` over the label space `Col(0..q-1), Na, Nr`.
#[derive(Debug, Clone)]
pub struct NodePotentials {
    /// Number of query columns.
    pub q: usize,
    /// `theta[c][l]` for the dense label order.
    pub theta: Vec<Vec<f64>>,
    /// The table-relevance feature `R(Q,t)` (kept for diagnostics).
    pub relevance: f64,
}

impl NodePotentials {
    /// θ for column `c` and label.
    #[inline]
    pub fn get(&self, c: usize, label: Label) -> f64 {
        self.theta[c][label.dense(self.q)]
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.theta.len()
    }

    /// Score of labeling all columns `nr` (used by the all-or-nothing
    /// relevance decision and by µ(nr) in Figure 3).
    pub fn all_nr_score(&self) -> f64 {
        (0..self.n_cols()).map(|c| self.theta[c][self.q + 1]).sum()
    }

    /// Score of a full labeling of this table under the node potentials.
    pub fn labeling_score(&self, labels: &[Label]) -> f64 {
        labels
            .iter()
            .enumerate()
            .map(|(c, &l)| self.get(c, l))
            .sum()
    }

    /// An upper bound on the score of **any relevant labeling**: per
    /// column the best of `0` (na) and the best query-label θ, summed in
    /// column order. Relevant labelings never use `nr`, so each column
    /// contributes at most its bound, and because IEEE addition is
    /// monotone the left-to-right sum of the bounds dominates the
    /// left-to-right sum of any labeling. Hence if
    /// `relevant_upper_bound() <= all_nr_score()`, no relevant labeling
    /// can beat all-`nr` under the strict `>` the relevance decision
    /// uses — [`crate::inference::solve_table`] exploits this as an
    /// always-on, provably exact early exit.
    pub fn relevant_upper_bound(&self) -> f64 {
        (0..self.n_cols())
            .map(|c| {
                self.theta[c][..self.q]
                    .iter()
                    .copied()
                    .fold(0.0f64, f64::max)
            })
            .sum()
    }
}

/// Computes Eq. 3 for every column of `view`. `index` enables the PMI²
/// term when [`MapperConfig::use_pmi`] is set.
///
/// Views carrying interned bind-time features take the fused fast path;
/// all others run the original string oracle. Both produce bit-identical
/// potentials (see the module docs).
pub fn node_potentials(
    qv: &QueryView,
    view: &TableView<'_>,
    cfg: &MapperConfig,
    index: Option<&dyn DocSets>,
) -> NodePotentials {
    if cfg.similarity == SimilarityMode::Segmented {
        if let Some(f) = view.interned() {
            if f.supports_potentials() {
                return node_potentials_fast(qv, view, cfg, index);
            }
        }
    }
    node_potentials_oracle(qv, view, cfg, index)
}

/// The original string-path implementation — the oracle the fast path is
/// pinned against (kept verbatim; also serves `SimilarityMode::Unsegmented`
/// and views without interned features).
pub fn node_potentials_oracle(
    qv: &QueryView,
    view: &TableView<'_>,
    cfg: &MapperConfig,
    index: Option<&dyn DocSets>,
) -> NodePotentials {
    let q = qv.q();
    let nt = view.n_cols();
    let relevance = table_relevance(qv, view, cfg);
    let w = &cfg.weights;
    let nr_pot = w.w4 * ((q.min(nt)) as f64 / nt as f64) * (1.0 - relevance);
    let theta = (0..nt)
        .map(|c| {
            let mut row = Vec::with_capacity(q + 2);
            for qc in &qv.columns {
                let mut score = w.w1 * seg_sim(qc, view, c, cfg) + w.w2 * cover(qc, view, c, cfg);
                if cfg.use_pmi {
                    if let Some(idx) = index {
                        score += w.w3 * pmi2(qc, view, c, idx);
                    }
                }
                row.push(score + w.w5);
            }
            row.push(0.0); // na
            row.push(nr_pot); // nr
            row
        })
        .collect();
    NodePotentials {
        q,
        theta,
        relevance,
    }
}

/// The fused interned fast path: one `SegSim`+`Cover` pass per pair, the
/// `Cover` matrix shared with `R(Q,t)`. Requires
/// `view.interned().is_some_and(|f| f.supports_potentials())` and
/// segmented similarity (the caller dispatches).
fn node_potentials_fast(
    qv: &QueryView,
    view: &TableView<'_>,
    cfg: &MapperConfig,
    index: Option<&dyn DocSets>,
) -> NodePotentials {
    let f = view
        .interned()
        .expect("fast path requires interned features");
    let q = qv.q();
    let nt = view.n_cols();
    let rel = &cfg.reliability;
    let bound: Vec<_> = qv
        .columns
        .iter()
        .map(|qc| bind_query_column(qc, f, rel))
        .collect();
    // seg[qc][c] / cov[qc][c] in one fused pass per pair.
    let mut seg = vec![vec![0.0f64; nt]; q];
    let mut cov = vec![vec![0.0f64; nt]; q];
    for (i, qc) in qv.columns.iter().enumerate() {
        for c in 0..nt {
            let (s, v) = seg_and_cover_interned(qc, &bound[i], view, f, c, rel);
            seg[i][c] = s;
            cov[i][c] = v;
        }
    }
    // R(Q,t) from the shared Cover matrix — fold order identical to
    // `table_relevance` (per query column: max over table columns in
    // column order; then summed in query-column order).
    let relevance = if q == 0 {
        0.0
    } else {
        let total: f64 = cov
            .iter()
            .map(|row| row.iter().copied().fold(0.0, f64::max))
            .sum();
        let bar = (q as f64).min(1.5);
        let clipped = if total < bar { 0.0 } else { total };
        clipped / q as f64
    };
    let w = &cfg.weights;
    let nr_pot = w.w4 * ((q.min(nt)) as f64 / nt as f64) * (1.0 - relevance);
    let theta = (0..nt)
        .map(|c| {
            let mut row = Vec::with_capacity(q + 2);
            for (i, qc) in qv.columns.iter().enumerate() {
                let mut score = w.w1 * seg[i][c] + w.w2 * cov[i][c];
                if cfg.use_pmi {
                    if let Some(idx) = index {
                        score += w.w3 * pmi2(qc, view, c, idx);
                    }
                }
                row.push(score + w.w5);
            }
            row.push(0.0); // na
            row.push(nr_pot); // nr
            row
        })
        .collect();
    NodePotentials {
        q,
        theta,
        relevance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_model::{Query, TableId, WebTable};
    use wwt_text::CorpusStats;

    fn currency_table() -> WebTable {
        WebTable::new(
            TableId(0),
            "u",
            None,
            vec![vec!["Country".into(), "Currency".into(), "ISO".into()]],
            vec![
                vec!["India".into(), "Rupee".into(), "INR".into()],
                vec!["Japan".into(), "Yen".into(), "JPY".into()],
            ],
            vec![],
        )
        .unwrap()
    }

    fn pots(query: &str, t: &WebTable) -> NodePotentials {
        let cfg = MapperConfig::default();
        let stats = CorpusStats::new();
        let qv = QueryView::new(&Query::parse(query).unwrap(), &stats);
        let view = TableView::new(t, &stats, cfg.body_freq_frac);
        node_potentials(&qv, &view, &cfg, None)
    }

    #[test]
    fn matching_column_beats_others() {
        let t = currency_table();
        let p = pots("country | currency", &t);
        // Column 0 ↔ Q1, column 1 ↔ Q2 dominate.
        assert!(p.get(0, Label::Col(0)) > p.get(0, Label::Col(1)));
        assert!(p.get(1, Label::Col(1)) > p.get(1, Label::Col(0)));
        assert!(p.get(0, Label::Col(0)) > p.get(2, Label::Col(0)));
    }

    #[test]
    fn na_is_zero_everywhere() {
        let t = currency_table();
        let p = pots("country | currency", &t);
        for c in 0..3 {
            assert_eq!(p.get(c, Label::Na), 0.0);
        }
    }

    #[test]
    fn nr_potential_high_for_irrelevant_table() {
        let t = currency_table();
        let relevant = pots("country | currency", &t);
        let irrelevant = pots("pain killers | company", &t);
        assert!(irrelevant.get(0, Label::Nr) > relevant.get(0, Label::Nr));
        assert!(irrelevant.relevance < relevant.relevance);
        // Unmatched query column potentials collapse to the bias.
        assert!(irrelevant.get(0, Label::Col(0)) < 0.0);
    }

    #[test]
    fn nr_scaled_by_query_table_width_ratio() {
        // Eq. 3 scales the nr potential by min(q, nt)/nt: wide tables get a
        // smaller per-column nr reward.
        let narrow = currency_table(); // nt = 3
        let wide = WebTable::new(
            TableId(1),
            "u",
            None,
            vec![(0..6).map(|i| format!("h{i}")).collect()],
            vec![(0..6).map(|i| format!("v{i}")).collect()],
            vec![],
        )
        .unwrap();
        let p_narrow = pots("x | y", &narrow);
        let p_wide = pots("x | y", &wide);
        // Same R (= 0); ratio 2/3 vs 2/6.
        assert!(p_narrow.get(0, Label::Nr) > p_wide.get(0, Label::Nr));
    }

    #[test]
    fn fast_path_matches_oracle_bitwise() {
        // Rich table: multi-row headers, title, context, frequent body
        // tokens — exercises every outSim part and the split loop.
        let t = WebTable::new(
            TableId(7),
            "u",
            Some("Currencies of the world".into()),
            vec![
                vec!["Country".into(), "Currency name".into(), "ISO".into()],
                vec!["".into(), "official".into(), "code".into()],
            ],
            vec![
                vec!["India".into(), "Indian Rupee".into(), "INR".into()],
                vec!["Japan".into(), "Japanese Yen".into(), "JPY".into()],
                vec!["France".into(), "Euro".into(), "EUR".into()],
            ],
            vec![wwt_model::ContextSnippet::new(
                "list of official currencies by country",
                0.9,
            )],
        )
        .unwrap();
        let cfg = MapperConfig::default();
        let stats = CorpusStats::new();
        for query in [
            "country | currency",
            "official currency name | iso code",
            "currencies of the world",
            "unrelated query words",
        ] {
            let qv = QueryView::new(&Query::parse(query).unwrap(), &stats);
            let fast_view = TableView::new(&t, &stats, cfg.body_freq_frac);
            let oracle_view = TableView::new_oracle(&t, &stats, cfg.body_freq_frac);
            assert!(fast_view.interned().is_some());
            assert!(oracle_view.interned().is_none());
            let fast = node_potentials(&qv, &fast_view, &cfg, None);
            let oracle = node_potentials(&qv, &oracle_view, &cfg, None);
            assert_eq!(
                fast.relevance.to_bits(),
                oracle.relevance.to_bits(),
                "{query}: relevance"
            );
            for (c, (fr, or)) in fast.theta.iter().zip(&oracle.theta).enumerate() {
                for (l, (a, b)) in fr.iter().zip(or).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{query}: theta[{c}][{l}]");
                }
            }
        }
    }

    #[test]
    fn relevant_upper_bound_dominates_labelings() {
        let t = currency_table();
        let p = pots("country | currency", &t);
        let ub = p.relevant_upper_bound();
        // Exhaustive over all labelings of 3 columns with labels
        // {Col0, Col1, Na} (relevant labelings never use Nr).
        let labels = [Label::Col(0), Label::Col(1), Label::Na];
        for a in labels {
            for b in labels {
                for c in labels {
                    let score = p.labeling_score(&[a, b, c]);
                    assert!(score <= ub, "{a:?}{b:?}{c:?}: {score} > {ub}");
                }
            }
        }
    }

    #[test]
    fn scores_and_helpers_consistent() {
        let t = currency_table();
        let p = pots("country | currency", &t);
        let labels = vec![Label::Col(0), Label::Col(1), Label::Na];
        let manual = p.get(0, Label::Col(0)) + p.get(1, Label::Col(1)) + p.get(2, Label::Na);
        assert!((p.labeling_score(&labels) - manual).abs() < 1e-12);
        let nr3 = p.get(0, Label::Nr) * 3.0;
        assert!((p.all_nr_score() - nr3).abs() < 1e-12);
    }
}
