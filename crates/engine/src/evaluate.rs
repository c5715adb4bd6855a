//! Evaluation machinery: binding a generated corpus to ground truth and
//! scoring every method with the F1 error of §5.

use crate::baselines::{baseline_map, BaselineConfig, BaselineMethod};
use crate::engine::Engine;
use crate::pipeline::WwtConfig;
use wwt_core::{f1_error, ColumnMapper, InferenceAlgorithm, SimilarityMode};
use wwt_corpus::{GeneratedCorpus, QuerySpec};
use wwt_html::extract_tables;
use wwt_model::{Label, Labeling, TableId, WebTable};

/// A corpus extracted, indexed and bound to ground truth.
pub struct BoundCorpus {
    /// The assembled immutable engine (index + store), shareable across
    /// evaluation threads.
    pub engine: Engine,
    /// For each table id: `(home query index, reference labels)`.
    /// Tables without an entry (distractors) are all-`nr` for every query.
    truth: std::collections::HashMap<TableId, (usize, Vec<Label>)>,
    /// Documents whose candidate table failed extraction (diagnostics).
    pub extraction_failures: usize,
}

impl BoundCorpus {
    /// Reference labels of `table` for workload query `qidx`: the stored
    /// labels when the table's home query matches, all-`nr` otherwise
    /// (domains are private — see wwt-corpus docs).
    pub fn truth_for(&self, qidx: usize, table: TableId, n_cols: usize) -> Vec<Label> {
        match self.truth.get(&table) {
            Some((home, labels)) if *home == qidx => labels.clone(),
            _ => vec![Label::Nr; n_cols],
        }
    }

    /// Number of ground-truth-labeled tables.
    pub fn n_labeled(&self) -> usize {
        self.truth.len()
    }
}

/// Extracts every document of `corpus`, builds the engine, and binds each
/// candidate table to its reference labeling.
pub fn bind_corpus(corpus: &GeneratedCorpus, config: WwtConfig) -> BoundCorpus {
    bind_corpus_sharded(corpus, config, None)
}

/// [`bind_corpus`] with an explicit index shard count (`None` = the
/// builder default). Sharding never changes evaluation results — it only
/// changes how retrieval parallelizes.
pub fn bind_corpus_sharded(
    corpus: &GeneratedCorpus,
    config: WwtConfig,
    shards: Option<usize>,
) -> BoundCorpus {
    let mut tables: Vec<WebTable> = Vec::new();
    let mut truth = std::collections::HashMap::new();
    let mut failures = 0usize;
    let mut next_id = 0u32;
    for doc in &corpus.documents {
        let extracted = extract_tables(&doc.html, &doc.url, next_id);
        match (extracted.len(), &doc.truth, doc.home_query) {
            (1, Some(labels), Some(home)) => {
                let t = extracted.into_iter().next().unwrap();
                if t.n_cols() == labels.len() {
                    truth.insert(t.id, (home, labels.clone()));
                    next_id += 1;
                    tables.push(t);
                } else {
                    failures += 1;
                }
            }
            (1, _, _) => {
                let t = extracted.into_iter().next().unwrap();
                next_id += 1;
                tables.push(t);
            }
            (0, Some(_), _) => failures += 1,
            _ => {
                // Multiple tables from one doc: keep them unlabeled.
                for t in extracted {
                    next_id += 1;
                    tables.push(t);
                }
            }
        }
    }
    let mut builder = crate::EngineBuilder::with_config(config);
    if let Some(n) = shards {
        builder.shards(n);
    }
    builder.add_tables(tables);
    BoundCorpus {
        engine: builder.build(),
        truth,
        extraction_failures: failures,
    }
}

/// A column-mapping method under evaluation (the rows of Figure 5 and
/// Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The Basic baseline.
    Basic,
    /// Basic + neighbor text.
    NbrText,
    /// Basic + PMI².
    Pmi2,
    /// Full WWT with the given inference algorithm.
    Wwt(InferenceAlgorithm),
    /// WWT with the unsegmented similarity (Figure 8 ablation).
    WwtUnsegmented,
}

impl Method {
    /// Display name used by the experiment harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Basic => "Basic",
            Method::NbrText => "NbrText",
            Method::Pmi2 => "PMI2",
            Method::Wwt(InferenceAlgorithm::Independent) => "WWT-None",
            Method::Wwt(InferenceAlgorithm::TableCentric) => "WWT",
            Method::Wwt(InferenceAlgorithm::AlphaExpansion) => "WWT-AlphaExp",
            Method::Wwt(InferenceAlgorithm::BeliefPropagation) => "WWT-BP",
            Method::Wwt(InferenceAlgorithm::Trws) => "WWT-TRWS",
            Method::WwtUnsegmented => "WWT-Unseg",
        }
    }
}

/// Result of evaluating one method on one query.
#[derive(Debug, Clone)]
pub struct QueryEvaluation {
    /// Workload query index.
    pub query_index: usize,
    /// The method evaluated.
    pub method: Method,
    /// F1 error (percent) over all candidate tables.
    pub f1_error: f64,
    /// Candidate tables retrieved.
    pub candidates: usize,
    /// Candidates whose reference marks them relevant.
    pub relevant_candidates: usize,
    /// Predicted labelings (aligned with candidate ids).
    pub labelings: Vec<Labeling>,
    /// Candidate table ids.
    pub candidate_ids: Vec<TableId>,
}

/// Evaluates `method` on one workload query against the bound corpus.
///
/// Retrieval always uses the full WWT two-stage probe so that every method
/// labels the *same* candidate set, exactly as the paper evaluates all
/// methods on the tables returned by the index probe.
pub fn evaluate_query(bound: &BoundCorpus, spec: &QuerySpec, method: Method) -> QueryEvaluation {
    evaluate_query_with(bound, spec, method, None)
}

/// [`evaluate_query`] with an optional mapper-configuration override for
/// `Method::Wwt` (used by ablation studies).
pub fn evaluate_query_with(
    bound: &BoundCorpus,
    spec: &QuerySpec,
    method: Method,
    mapper_override: Option<&wwt_core::MapperConfig>,
) -> QueryEvaluation {
    let query = &spec.query;
    let candidate_ids: Vec<TableId> = bound.engine.retrieve(query).candidates();
    let tables: Vec<&WebTable> = candidate_ids
        .iter()
        .filter_map(|&id| bound.engine.store().get(id))
        .collect();
    let stats = bound.engine.index().stats();
    let index = bound.engine.index() as &dyn wwt_index::DocSets;

    let labelings: Vec<Labeling> = match method {
        Method::Basic => baseline_map(
            BaselineMethod::Basic,
            query,
            &tables,
            stats,
            Some(index),
            &BaselineConfig::default(),
        ),
        Method::NbrText => baseline_map(
            BaselineMethod::NbrText,
            query,
            &tables,
            stats,
            Some(index),
            &BaselineConfig::default(),
        ),
        Method::Pmi2 => baseline_map(
            BaselineMethod::Pmi2,
            query,
            &tables,
            stats,
            Some(index),
            &BaselineConfig::default(),
        ),
        Method::Wwt(alg) => {
            let mapper = ColumnMapper {
                config: mapper_override
                    .cloned()
                    .unwrap_or_else(|| bound.engine.config().mapper.clone()),
                algorithm: alg,
                pair_memo: None,
            };
            mapper.map(query, &tables, stats, Some(index)).labelings
        }
        Method::WwtUnsegmented => {
            let mut cfg = bound.engine.config().mapper.clone();
            cfg.similarity = SimilarityMode::Unsegmented;
            let mapper = ColumnMapper {
                config: cfg,
                algorithm: bound.engine.config().algorithm,
                pair_memo: None,
            };
            mapper.map(query, &tables, stats, Some(index)).labelings
        }
    };

    let truths: Vec<Vec<Label>> = tables
        .iter()
        .map(|t| bound.truth_for(spec.index, t.id, t.n_cols()))
        .collect();
    let relevant_candidates = truths
        .iter()
        .filter(|l| l.iter().any(|x| x.is_query_col()))
        .count();
    let err = f1_error(
        labelings
            .iter()
            .zip(&truths)
            .map(|(p, t)| (p.labels.as_slice(), t.as_slice())),
    );
    QueryEvaluation {
        query_index: spec.index,
        method,
        f1_error: err,
        candidates: tables.len(),
        relevant_candidates,
        labelings,
        candidate_ids,
    }
}

/// Evaluates `method` on many queries in parallel (via
/// [`crate::fan_out`]). Results come back in workload order.
pub fn evaluate_workload(
    bound: &BoundCorpus,
    specs: &[QuerySpec],
    method: Method,
    threads: usize,
) -> Vec<QueryEvaluation> {
    evaluate_workload_with(bound, specs, method, threads, None)
}

/// [`evaluate_workload`] with an optional mapper-configuration override
/// for `Method::Wwt` (used by ablation studies).
pub fn evaluate_workload_with(
    bound: &BoundCorpus,
    specs: &[QuerySpec],
    method: Method,
    threads: usize,
    mapper_override: Option<&wwt_core::MapperConfig>,
) -> Vec<QueryEvaluation> {
    crate::fan_out(specs.len(), threads, |i| {
        evaluate_query_with(bound, &specs[i], method, mapper_override)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_corpus::{workload, CorpusConfig, CorpusGenerator};

    fn small_bound(query_prefix: &str) -> (BoundCorpus, QuerySpec) {
        let spec = workload()
            .into_iter()
            .find(|s| s.query.to_string().starts_with(query_prefix))
            .unwrap();
        let corpus =
            CorpusGenerator::new(CorpusConfig::small()).generate_for(std::slice::from_ref(&spec));
        (bind_corpus(&corpus, WwtConfig::default()), spec)
    }

    #[test]
    fn binding_labels_most_candidates() {
        let (bound, _) = small_bound("country | currency");
        assert!(bound.n_labeled() >= 5, "labeled {}", bound.n_labeled());
        assert!(
            bound.extraction_failures <= 1,
            "failures {}",
            bound.extraction_failures
        );
    }

    #[test]
    fn truth_for_foreign_query_is_all_nr() {
        let (bound, spec) = small_bound("country | currency");
        let some_id = *bound.truth.keys().next().unwrap();
        let foreign = bound.truth_for(spec.index + 1, some_id, 3);
        assert_eq!(foreign, vec![Label::Nr; 3]);
    }

    #[test]
    fn wwt_beats_or_matches_basic_on_clean_domain() {
        let (bound, spec) = small_bound("country | currency");
        let wwt = evaluate_query(&bound, &spec, Method::Wwt(InferenceAlgorithm::TableCentric));
        let basic = evaluate_query(&bound, &spec, Method::Basic);
        assert!(wwt.candidates > 0);
        assert!(
            wwt.f1_error <= basic.f1_error + 1e-9,
            "WWT {} vs Basic {}",
            wwt.f1_error,
            basic.f1_error
        );
        assert!(wwt.f1_error <= 50.0, "WWT error too high: {}", wwt.f1_error);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (bound, spec) = small_bound("black metal bands");
        let a = evaluate_query(&bound, &spec, Method::Wwt(InferenceAlgorithm::TableCentric));
        let b = evaluate_query(&bound, &spec, Method::Wwt(InferenceAlgorithm::TableCentric));
        assert_eq!(a.f1_error, b.f1_error);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let specs: Vec<QuerySpec> = workload()
            .into_iter()
            .filter(|s| {
                let q = s.query.to_string();
                q.starts_with("country | currency") || q.starts_with("dog breed")
            })
            .collect();
        let corpus = CorpusGenerator::new(CorpusConfig::small()).generate_for(&specs);
        let bound = bind_corpus(&corpus, WwtConfig::default());
        let serial = evaluate_workload(&bound, &specs, Method::Basic, 1);
        let parallel = evaluate_workload(&bound, &specs, Method::Basic, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.query_index, b.query_index);
            assert_eq!(a.f1_error, b.f1_error);
        }
    }

    #[test]
    fn method_names_unique() {
        let methods = [
            Method::Basic,
            Method::NbrText,
            Method::Pmi2,
            Method::Wwt(InferenceAlgorithm::Independent),
            Method::Wwt(InferenceAlgorithm::TableCentric),
            Method::Wwt(InferenceAlgorithm::AlphaExpansion),
            Method::Wwt(InferenceAlgorithm::BeliefPropagation),
            Method::Wwt(InferenceAlgorithm::Trws),
            Method::WwtUnsegmented,
        ];
        let mut names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), methods.len());
    }
}
