//! The top-level column mapper: feature extraction → graphical model →
//! inference → labeled tables with calibrated scores (paper §2.2.2, §3, §4).

use crate::colsim::{build_edges_with, PairMemo};
use crate::config::MapperConfig;
use crate::features::QueryView;
use crate::inference::{
    edge_centric, solve_table, table_centric, table_marginals, EdgeCentricAlgorithm,
};
use crate::potentials::{node_potentials, NodePotentials};
use crate::view::TableView;
use wwt_index::DocSets;
use wwt_model::{Label, Labeling, Query, WebTable, WwtError};
use wwt_text::CorpusStats;

/// Counters from one mapping run, for perf observability (surfaced through
/// diagnostics and the service stats endpoint; never wire-encoded in query
/// responses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Column pairs whose exact similarity was computed during edge
    /// construction.
    pub edge_pairs_scored: u64,
    /// Column pairs skipped by the content-signature index (similarity
    /// provably zero).
    pub edge_pairs_skipped: u64,
    /// Column pairs replayed from the engine's cross-query pair memo,
    /// including the final map's replays of the pairs its own request's
    /// premap just matched.
    pub edge_pairs_memoized: u64,
    /// Tables whose relevant upper bound could not beat all-`nr` (the
    /// always-on exact solver early exit fires for these under
    /// independent inference).
    pub early_exit_tables: u64,
}

impl MapStats {
    /// Accumulates another run's counters (for premap + final map totals).
    pub fn merge(&mut self, other: &MapStats) {
        self.edge_pairs_scored += other.edge_pairs_scored;
        self.edge_pairs_skipped += other.edge_pairs_skipped;
        self.edge_pairs_memoized += other.edge_pairs_memoized;
        self.early_exit_tables += other.early_exit_tables;
    }
}

/// Inference algorithm selection (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferenceAlgorithm {
    /// No collective inference: each table labeled independently (§4.1).
    Independent,
    /// The table-centric collective algorithm (§4.2) — the paper's best
    /// and WWT's default.
    #[default]
    TableCentric,
    /// Constrained α-expansion (§4.3).
    AlphaExpansion,
    /// Loopy belief propagation baseline.
    BeliefPropagation,
    /// TRW-S baseline.
    Trws,
}

/// Output of the column mapper for one query.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// One labeling per candidate table, in input order.
    pub labelings: Vec<Labeling>,
    /// Calibrated per-column label distributions
    /// `probs[t][c][dense_label]`.
    pub column_probs: Vec<Vec<Vec<f64>>>,
    /// Per-table relevance probability (`1 − mean_c p(nr)`), used by the
    /// second index probe's top-2 selection (§2.2.1).
    pub table_relevance: Vec<f64>,
    /// Per-column confidence flags (gate of Eq. 4).
    pub confident: Vec<Vec<bool>>,
    /// Fast-path counters for this run.
    pub stats: MapStats,
}

impl MappingResult {
    /// A mapping over zero tables — the fail-soft substitute when the
    /// batch itself could not run (every table unlabeled, nothing
    /// relevant). Identical to mapping an empty candidate slice.
    pub fn empty() -> Self {
        MappingResult {
            labelings: Vec::new(),
            column_probs: Vec::new(),
            table_relevance: Vec::new(),
            confident: Vec::new(),
            stats: MapStats::default(),
        }
    }

    /// Tables labeled relevant, most relevant first.
    pub fn relevant_tables(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.labelings.len())
            .filter(|&t| self.labelings[t].is_relevant())
            .collect();
        idx.sort_by(|&a, &b| {
            self.table_relevance[b]
                .partial_cmp(&self.table_relevance[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }
}

/// The column mapper (Figure 2's "Column Mapper" box).
#[derive(Debug, Clone, Default)]
pub struct ColumnMapper {
    /// Model configuration.
    pub config: MapperConfig,
    /// Inference algorithm to run.
    pub algorithm: InferenceAlgorithm,
    /// Optional cross-query memo of per-table-pair column matchings
    /// (see [`PairMemo`]); typically the owning engine's, which all of
    /// its queries share. A memo fingerprinted for different similarity
    /// parameters is ignored.
    pub pair_memo: Option<std::sync::Arc<PairMemo>>,
}

impl ColumnMapper {
    /// A mapper with the given configuration and the default (table
    /// centric) algorithm.
    pub fn new(config: MapperConfig) -> Self {
        ColumnMapper {
            config,
            algorithm: InferenceAlgorithm::default(),
            pair_memo: None,
        }
    }

    /// Selects the inference algorithm.
    pub fn with_algorithm(mut self, algorithm: InferenceAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Maps every candidate table's columns to the query columns.
    ///
    /// `stats` supplies corpus IDF; `index` additionally enables the PMI²
    /// feature when `config.use_pmi` is set. Any [`DocSets`]
    /// implementation works — a plain [`wwt_index::TableIndex`] or a
    /// [`wwt_index::ShardedIndex`] answer identically.
    pub fn map(
        &self,
        query: &Query,
        tables: &[&WebTable],
        stats: &CorpusStats,
        index: Option<&dyn DocSets>,
    ) -> MappingResult {
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, stats, self.config.body_freq_frac))
            .collect();
        self.map_views(query, &views, stats, index)
    }

    /// [`ColumnMapper::map`] over already-built views — the entry point
    /// for callers holding **precomputed** per-table features (the engine
    /// computes them once at bind time). Views must have been built with
    /// the same statistics and `body_freq_frac` this mapper runs with;
    /// the output is then byte-identical to [`ColumnMapper::map`] on the
    /// same tables.
    pub fn map_views(
        &self,
        query: &Query,
        views: &[TableView<'_>],
        stats: &CorpusStats,
        index: Option<&dyn DocSets>,
    ) -> MappingResult {
        self.map_views_inner(query, views, stats, index, 1, false, None)
            .expect("infallible without a cancel hook")
            .0
    }

    /// [`ColumnMapper::map_views`] with the per-table node-potential
    /// batch fanned out over `threads` workers of the persistent pool,
    /// and an in-stage cancellation hook (typically a deadline check),
    /// consulted once per view inside the node-potential batch and once
    /// per table during edge construction. Each candidate's potentials
    /// depend only on its own view (and the shared read-only query view /
    /// doc-set index), and the fan-out returns results in input order, so
    /// the output is **identical** to [`ColumnMapper::map_views`] for
    /// every thread count. A hook that never fires (or `None`) is the
    /// identity.
    pub fn map_views_cancellable(
        &self,
        query: &Query,
        views: &[TableView<'_>],
        stats: &CorpusStats,
        index: Option<&dyn DocSets>,
        threads: usize,
        cancel: Option<&(dyn Fn() -> Result<(), WwtError> + Sync)>,
    ) -> Result<MappingResult, WwtError> {
        Ok(self
            .map_views_inner(query, views, stats, index, threads, false, cancel)?
            .0)
    }

    /// [`ColumnMapper::map_views_cancellable`], additionally returning
    /// each view's node-potential wall-clock duration (input order, one
    /// per view) so tracing callers can attach per-batch child spans.
    /// The mapping result is identical to the untimed form — the timing
    /// wrapper observes the same computation.
    pub fn map_views_cancellable_timed(
        &self,
        query: &Query,
        views: &[TableView<'_>],
        stats: &CorpusStats,
        index: Option<&dyn DocSets>,
        threads: usize,
        cancel: Option<&(dyn Fn() -> Result<(), WwtError> + Sync)>,
    ) -> Result<(MappingResult, Vec<std::time::Duration>), WwtError> {
        self.map_views_inner(query, views, stats, index, threads, true, cancel)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_views_inner(
        &self,
        query: &Query,
        views: &[TableView<'_>],
        stats: &CorpusStats,
        index: Option<&dyn DocSets>,
        threads: usize,
        timed: bool,
        cancel: Option<&(dyn Fn() -> Result<(), WwtError> + Sync)>,
    ) -> Result<(MappingResult, Vec<std::time::Duration>), WwtError> {
        let cfg = &self.config;
        let qv = QueryView::new(query, stats);
        let q = qv.q();
        let (pots, view_times): (Vec<NodePotentials>, Vec<std::time::Duration>) =
            if threads <= 1 || views.len() <= 1 {
                let mut pots = Vec::with_capacity(views.len());
                let mut times = Vec::new();
                for v in views {
                    if let Some(check) = cancel {
                        check()?;
                    }
                    if timed {
                        let t0 = std::time::Instant::now();
                        pots.push(node_potentials(&qv, v, cfg, index));
                        times.push(t0.elapsed());
                    } else {
                        pots.push(node_potentials(&qv, v, cfg, index));
                    }
                }
                (pots, times)
            } else if timed {
                let (res, times) = wwt_pool::fan_out_timed(views.len(), threads, |i| {
                    if let Some(check) = cancel {
                        check()?;
                    }
                    Ok::<_, WwtError>(node_potentials(&qv, &views[i], cfg, index))
                });
                (res.into_iter().collect::<Result<_, _>>()?, times)
            } else {
                let res = wwt_pool::fan_out(views.len(), threads, |i| {
                    if let Some(check) = cancel {
                        check()?;
                    }
                    Ok::<_, WwtError>(node_potentials(&qv, &views[i], cfg, index))
                });
                (res.into_iter().collect::<Result<_, _>>()?, Vec::new())
            };
        let m_eff: Vec<usize> = views
            .iter()
            .map(|v| cfg.effective_min_match(q, v.n_cols()))
            .collect();

        let mut map_stats = MapStats {
            early_exit_tables: pots
                .iter()
                .filter(|p| p.relevant_upper_bound() <= p.all_nr_score())
                .count() as u64,
            ..MapStats::default()
        };

        let needs_edges = !matches!(self.algorithm, InferenceAlgorithm::Independent);
        let edges = if needs_edges {
            let (edges, estats) = build_edges_with(views, cfg, cancel, self.pair_memo.as_deref())?;
            map_stats.edge_pairs_scored = estats.pairs_scored;
            map_stats.edge_pairs_skipped = estats.pairs_skipped;
            map_stats.edge_pairs_memoized = estats.pairs_memoized;
            edges
        } else {
            Vec::new()
        };

        let (labels, marginals) = match self.algorithm {
            InferenceAlgorithm::Independent => {
                let labels: Vec<Vec<Label>> = pots
                    .iter()
                    .zip(&m_eff)
                    .map(|(p, &m)| solve_table(p, m).0)
                    .collect();
                let marginals = pots.iter().map(|p| table_marginals(p, cfg)).collect();
                (labels, marginals)
            }
            InferenceAlgorithm::TableCentric => {
                let r = table_centric(&pots, &edges, &m_eff, cfg);
                (r.labels, r.marginals)
            }
            InferenceAlgorithm::AlphaExpansion => {
                let r = edge_centric(
                    &pots,
                    &edges,
                    &m_eff,
                    cfg,
                    EdgeCentricAlgorithm::AlphaExpansion,
                );
                (r.labels, r.marginals)
            }
            InferenceAlgorithm::BeliefPropagation => {
                let r = edge_centric(
                    &pots,
                    &edges,
                    &m_eff,
                    cfg,
                    EdgeCentricAlgorithm::BeliefPropagation,
                );
                (r.labels, r.marginals)
            }
            InferenceAlgorithm::Trws => {
                let r = edge_centric(&pots, &edges, &m_eff, cfg, EdgeCentricAlgorithm::Trws);
                (r.labels, r.marginals)
            }
        };

        let result = MappingResult {
            labelings: views
                .iter()
                .zip(&labels)
                .map(|(v, l)| Labeling::new(v.table.id, l.clone()))
                .collect(),
            column_probs: marginals.iter().map(|m| m.probs.clone()).collect(),
            table_relevance: marginals.iter().map(|m| m.relevance_prob).collect(),
            confident: marginals.iter().map(|m| m.confident.clone()).collect(),
            stats: map_stats,
        };
        Ok((result, view_times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_model::{ContextSnippet, TableId};

    fn currency_table(id: u32) -> WebTable {
        WebTable::new(
            TableId(id),
            "u",
            None,
            vec![vec!["Country".into(), "Currency".into()]],
            vec![
                vec!["India".into(), "Rupee".into()],
                vec!["Japan".into(), "Yen".into()],
                vec!["France".into(), "Euro".into()],
            ],
            vec![ContextSnippet::new(
                "currencies of the world by country",
                0.9,
            )],
        )
        .unwrap()
    }

    fn forest_table(id: u32) -> WebTable {
        WebTable::new(
            TableId(id),
            "u",
            Some("Forest reserves".into()),
            vec![vec!["ID".into(), "Name".into(), "Area".into()]],
            vec![
                vec!["7".into(), "Shakespeare Hills".into(), "2236".into()],
                vec!["9".into(), "Plains Creek".into(), "880".into()],
            ],
            vec![ContextSnippet::new(
                "areas available for mineral exploration and mining",
                0.8,
            )],
        )
        .unwrap()
    }

    fn headerless_currency(id: u32) -> WebTable {
        WebTable::new(
            TableId(id),
            "u",
            None,
            vec![],
            vec![
                vec!["India".into(), "Rupee".into()],
                vec!["Japan".into(), "Yen".into()],
                vec!["France".into(), "Euro".into()],
            ],
            vec![],
        )
        .unwrap()
    }

    fn all_algorithms() -> [InferenceAlgorithm; 5] {
        [
            InferenceAlgorithm::Independent,
            InferenceAlgorithm::TableCentric,
            InferenceAlgorithm::AlphaExpansion,
            InferenceAlgorithm::BeliefPropagation,
            InferenceAlgorithm::Trws,
        ]
    }

    #[test]
    fn relevant_and_irrelevant_separated_by_every_algorithm() {
        let q = Query::parse("country | currency").unwrap();
        let good = currency_table(0);
        let bad = forest_table(1);
        let stats = CorpusStats::new();
        for alg in all_algorithms() {
            let mapper = ColumnMapper::default().with_algorithm(alg);
            let r = mapper.map(&q, &[&good, &bad], &stats, None);
            assert_eq!(
                r.labelings[0].labels,
                vec![Label::Col(0), Label::Col(1)],
                "{alg:?} good table"
            );
            assert_eq!(
                r.labelings[1].labels,
                vec![Label::Nr; 3],
                "{alg:?} bad table"
            );
            assert!(r.table_relevance[0] > r.table_relevance[1], "{alg:?}");
        }
    }

    #[test]
    fn collective_inference_rescues_headerless_table() {
        let q = Query::parse("country | currency").unwrap();
        let good = currency_table(0);
        let naked = headerless_currency(1);
        let stats = CorpusStats::new();

        // Independent: headerless table cannot be mapped.
        let independent = ColumnMapper::default()
            .with_algorithm(InferenceAlgorithm::Independent)
            .map(&q, &[&good, &naked], &stats, None);
        assert!(!independent.labelings[1].is_relevant());

        // Table-centric: content overlap transfers the labels.
        let collective = ColumnMapper::default()
            .with_algorithm(InferenceAlgorithm::TableCentric)
            .map(&q, &[&good, &naked], &stats, None);
        assert_eq!(
            collective.labelings[1].labels,
            vec![Label::Col(0), Label::Col(1)],
            "headerless table not rescued"
        );
    }

    #[test]
    fn swapped_column_order_mapped_correctly() {
        // Like Figure 1's Table 2: columns in reverse query order.
        let q = Query::parse("country | currency").unwrap();
        let swapped = WebTable::new(
            TableId(0),
            "u",
            None,
            vec![vec!["Currency".into(), "Country name".into()]],
            vec![vec!["Rupee".into(), "India".into()]],
            vec![],
        )
        .unwrap();
        let stats = CorpusStats::new();
        let r = ColumnMapper::default().map(&q, &[&swapped], &stats, None);
        assert_eq!(r.labelings[0].labels, vec![Label::Col(1), Label::Col(0)]);
    }

    #[test]
    fn relevant_tables_sorted_by_relevance() {
        let q = Query::parse("country | currency").unwrap();
        let good = currency_table(0);
        let naked = headerless_currency(1);
        let stats = CorpusStats::new();
        let r = ColumnMapper::default().map(&q, &[&naked, &good], &stats, None);
        let rel = r.relevant_tables();
        assert!(!rel.is_empty());
        assert_eq!(rel[0], 1, "strongest table first: {rel:?}");
    }

    #[test]
    fn empty_candidate_set() {
        let q = Query::parse("country | currency").unwrap();
        let stats = CorpusStats::new();
        let r = ColumnMapper::default().map(&q, &[], &stats, None);
        assert!(r.labelings.is_empty());
        assert!(r.relevant_tables().is_empty());
    }

    #[test]
    fn pooled_mapping_is_identical_to_serial() {
        let q = Query::parse("country | currency").unwrap();
        let tables = [
            currency_table(0),
            forest_table(1),
            headerless_currency(2),
            currency_table(3),
        ];
        let refs: Vec<&WebTable> = tables.iter().collect();
        let stats = CorpusStats::new();
        for alg in all_algorithms() {
            let mapper = ColumnMapper::default().with_algorithm(alg);
            let views: Vec<crate::view::TableView<'_>> = refs
                .iter()
                .map(|t| crate::view::TableView::new(t, &stats, mapper.config.body_freq_frac))
                .collect();
            let serial = mapper.map_views(&q, &views, &stats, None);
            for threads in [2usize, 4, 8] {
                let pooled = mapper
                    .map_views_cancellable(&q, &views, &stats, None, threads, None)
                    .unwrap();
                assert_eq!(serial.labelings, pooled.labelings, "{alg:?} t={threads}");
                for (a, b) in serial.table_relevance.iter().zip(&pooled.table_relevance) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{alg:?} t={threads}");
                }
                assert_eq!(serial.confident, pooled.confident, "{alg:?} t={threads}");
            }
        }
    }

    #[test]
    fn timed_mapping_is_identical_and_times_every_view() {
        let q = Query::parse("country | currency").unwrap();
        let tables = [currency_table(0), forest_table(1), currency_table(2)];
        let refs: Vec<&WebTable> = tables.iter().collect();
        let stats = CorpusStats::new();
        let mapper = ColumnMapper::default();
        let views: Vec<crate::view::TableView<'_>> = refs
            .iter()
            .map(|t| crate::view::TableView::new(t, &stats, mapper.config.body_freq_frac))
            .collect();
        let plain = mapper.map_views(&q, &views, &stats, None);
        for threads in [1usize, 4] {
            let (timed, times) = mapper
                .map_views_cancellable_timed(&q, &views, &stats, None, threads, None)
                .unwrap();
            assert_eq!(plain.labelings, timed.labelings, "t={threads}");
            assert_eq!(times.len(), views.len(), "t={threads}");
            for (a, b) in plain.table_relevance.iter().zip(&timed.table_relevance) {
                assert_eq!(a.to_bits(), b.to_bits(), "t={threads}");
            }
        }
    }

    #[test]
    fn cancellation_propagates_from_potentials_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q = Query::parse("country | currency").unwrap();
        let tables = [currency_table(0), forest_table(1), currency_table(2)];
        let refs: Vec<&WebTable> = tables.iter().collect();
        let stats = CorpusStats::new();
        let mapper = ColumnMapper::default();
        let views: Vec<crate::view::TableView<'_>> = refs
            .iter()
            .map(|t| crate::view::TableView::new(t, &stats, mapper.config.body_freq_frac))
            .collect();
        let calls = AtomicUsize::new(0);
        let cancel = || {
            if calls.fetch_add(1, Ordering::SeqCst) >= 1 {
                Err(WwtError::DeadlineExceeded("column mapping".into()))
            } else {
                Ok(())
            }
        };
        for threads in [1usize, 4] {
            calls.store(0, Ordering::SeqCst);
            let r = mapper.map_views_cancellable(&q, &views, &stats, None, threads, Some(&cancel));
            assert!(
                matches!(r, Err(WwtError::DeadlineExceeded(_))),
                "t={threads}"
            );
        }
        // A hook that never fires is the identity.
        let ok = mapper
            .map_views_cancellable(&q, &views, &stats, None, 1, Some(&|| Ok(())))
            .unwrap();
        let plain = mapper.map_views(&q, &views, &stats, None);
        assert_eq!(ok.labelings, plain.labelings);
        for (a, b) in ok.table_relevance.iter().zip(&plain.table_relevance) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn probabilities_well_formed() {
        let q = Query::parse("country | currency").unwrap();
        let good = currency_table(0);
        let stats = CorpusStats::new();
        let r = ColumnMapper::default().map(&q, &[&good], &stats, None);
        for col in &r.column_probs[0] {
            assert_eq!(col.len(), 4); // q + 2
            let z: f64 = col.iter().sum();
            assert!((z - 1.0).abs() < 1e-9);
        }
        assert!(r.table_relevance[0] > 0.5);
    }
}
