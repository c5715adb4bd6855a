//! Mapper configuration: model weights, reliability parameters and
//! thresholds, with the paper's published values as defaults.

/// The six trainable parameters of objective Eq. 9.
///
/// The paper trained `w1..w5, we` by exhaustive enumeration on a held-out
/// labeled set; [`crate::training::grid_search`] reproduces that procedure.
/// The defaults here were obtained the same way on the synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Weight of the segmented similarity `SegSim` (Eq. 1).
    pub w1: f64,
    /// Weight of the query-coverage feature `Cover` (§3.2.2).
    pub w2: f64,
    /// Weight of the corpus co-occurrence feature `PMI²` (§3.2.3). Only
    /// used when [`MapperConfig::use_pmi`] is set (WWT does not use PMI²
    /// by default — §5.1).
    pub w3: f64,
    /// Weight of the irrelevance potential (`nr` label, Eq. 3).
    pub w4: f64,
    /// Negative bias disallowing query-column maps on tiny similarities.
    pub w5: f64,
    /// Weight of the cross-table edge potential (Eq. 4).
    pub we: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            w1: 1.0,
            w2: 0.6,
            w3: 0.4,
            w4: 0.5,
            w5: -0.35,
            we: 2.0,
        }
    }
}

/// Reliability of matches in the five out-of-header parts of a table
/// (§3.2.1). The paper estimated these empirically on its workload as
/// `(T, C, Hc, Hr, B) = (1.0, 0.9, 0.5, 1.0, 0.8)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartReliability {
    /// Title rows of the table.
    pub title: f64,
    /// Context extracted from the parent page.
    pub context: f64,
    /// Other header rows of the same column.
    pub other_header_rows: f64,
    /// Headers of other columns in the matched row.
    pub other_columns: f64,
    /// Frequent body content tokens.
    pub body: f64,
}

impl Default for PartReliability {
    fn default() -> Self {
        PartReliability {
            title: 1.0,
            context: 0.9,
            other_header_rows: 0.5,
            other_columns: 1.0,
            body: 0.8,
        }
    }
}

/// Which header similarity the node features use (the Figure 8 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimilarityMode {
    /// The paper's two-part segmented similarity (Eq. 1).
    #[default]
    Segmented,
    /// Standard IR practice: whole-query cosine / coverage against the
    /// concatenated column header, no segmentation, no out-of-header parts.
    Unsegmented,
}

/// Full configuration of the column mapper.
#[derive(Debug, Clone, PartialEq)]
pub struct MapperConfig {
    /// Trainable weights.
    pub weights: Weights,
    /// Part reliabilities for `outSim`.
    pub reliability: PartReliability,
    /// Segmented vs unsegmented similarity (Figure 8).
    pub similarity: SimilarityMode,
    /// Compute PMI² node features (requires a corpus index; expensive —
    /// the paper reports 40 s/query vs 6.7 s without). Off by default.
    pub use_pmi: bool,
    /// A token belongs to the frequent-body part `B` if some single column
    /// contains it in at least this fraction of its cells (min 2 cells).
    pub body_freq_frac: f64,
    /// `min-match`: minimum mapped columns for a relevant table when
    /// `q ≥ 2` (paper: 2). Always additionally capped at the table width.
    pub min_match: usize,
    /// Confidence gate for edge potentials: a column is confident when
    /// `max_{ℓ ∈ 1..q} Pr(ℓ|tc)` exceeds this (paper: 0.6).
    pub confidence_threshold: f64,
    /// Softmax temperature calibrating `Pr(ℓ|tc)` from max-marginals.
    /// Lower = sharper (more decisive confidence gating).
    pub calibration_temperature: f64,
    /// Smoothing constant λ of the `nsim` normalization (paper: 0.3).
    pub nsim_lambda: f64,
    /// Neighbors with raw similarity below this are ignored (paper: 0.1).
    pub min_column_sim: f64,
    /// Mix of cell-value overlap vs header cosine in column-column
    /// similarity (`sim = mix·overlap + (1−mix)·header_cos`).
    pub content_sim_mix: f64,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            weights: Weights::default(),
            reliability: PartReliability::default(),
            similarity: SimilarityMode::default(),
            use_pmi: false,
            body_freq_frac: 0.3,
            min_match: 2,
            confidence_threshold: 0.6,
            calibration_temperature: 0.5,
            nsim_lambda: 0.3,
            min_column_sim: 0.1,
            content_sim_mix: 0.7,
        }
    }
}

impl MapperConfig {
    /// Effective `min-match` for a query with `q` columns and a table with
    /// `nt` columns: 1 for single-column queries, else `min(min_match, nt)`
    /// (the paper is silent on `nt < m`; see DESIGN.md).
    pub fn effective_min_match(&self, q: usize, nt: usize) -> usize {
        if q < 2 {
            1
        } else {
            self.min_match.min(nt).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reliability_defaults() {
        let p = PartReliability::default();
        assert_eq!(
            (
                p.title,
                p.context,
                p.other_header_rows,
                p.other_columns,
                p.body
            ),
            (1.0, 0.9, 0.5, 1.0, 0.8)
        );
    }

    #[test]
    fn default_bias_is_negative() {
        assert!(Weights::default().w5 < 0.0);
    }

    #[test]
    fn effective_min_match_rules() {
        let c = MapperConfig::default();
        assert_eq!(c.effective_min_match(1, 5), 1);
        assert_eq!(c.effective_min_match(3, 5), 2);
        assert_eq!(c.effective_min_match(3, 1), 1);
        assert_eq!(c.effective_min_match(2, 2), 2);
    }

    #[test]
    fn default_thresholds_match_paper() {
        let c = MapperConfig::default();
        assert_eq!(c.confidence_threshold, 0.6);
        assert_eq!(c.nsim_lambda, 0.3);
        assert_eq!(c.min_column_sim, 0.1);
        assert!(!c.use_pmi);
    }
}
