//! Helpers shared by the differential harnesses (`shard_equivalence`,
//! `interned_equivalence`, `live_equivalence`, `crash_recovery`). Each
//! harness is its own test binary and uses a subset of them.
#![allow(dead_code)]

use wwt::core::InferenceAlgorithm;
use wwt::corpus::{workload, CorpusConfig, CorpusGenerator, GeneratedCorpus};
use wwt::engine::{bind_corpus_sharded, Engine, EngineBuilder, QueryRequest, WwtConfig};
use wwt::model::WebTable;
use wwt::server::wire::encode_response;

/// Index shards of the engines the live-mutation harnesses
/// (`live_equivalence`, `crash_recovery`) build.
const MUTATION_SHARDS: usize = 3;

/// Every inference algorithm, in the order the harnesses sweep them.
pub const ALGORITHMS: [InferenceAlgorithm; 5] = [
    InferenceAlgorithm::Independent,
    InferenceAlgorithm::TableCentric,
    InferenceAlgorithm::AlphaExpansion,
    InferenceAlgorithm::BeliefPropagation,
    InferenceAlgorithm::Trws,
];

/// One SplitMix64 step: the deterministic stream behind every random
/// option draw, so a failure reproduces from its seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A corpus over the first `n_queries` workload specs at `scale`.
pub fn corpus(n_queries: usize, scale: f64) -> (GeneratedCorpus, Vec<wwt::model::Query>) {
    let specs: Vec<_> = workload().into_iter().take(n_queries).collect();
    let generated = CorpusGenerator::new(CorpusConfig {
        scale,
        ..CorpusConfig::default()
    })
    .generate_for(&specs);
    let queries = specs.iter().map(|s| s.query.clone()).collect();
    (generated, queries)
}

/// The canonical wire bytes of a response, with wall-clock timings
/// zeroed — in the stage timings and, for explain requests, in the
/// trace (they are diagnostics of *when*, not *what*).
pub fn canonical_bytes(request: &QueryRequest, engine: &Engine) -> String {
    let mut response = engine
        .answer(request)
        .expect("differential requests carry no deadline and valid options");
    response.diagnostics.timing = Default::default();
    response.retrieval.timing = Default::default();
    if let Some(trace) = response.diagnostics.trace.as_mut() {
        trace.zero_timings();
    }
    encode_response(request, &response)
}

/// The extracted tables of a generated corpus (id-ascending, as the
/// store keeps them).
pub fn extracted_tables(generated: &GeneratedCorpus) -> Vec<WebTable> {
    bind_corpus_sharded(generated, WwtConfig::default(), Some(MUTATION_SHARDS))
        .engine
        .store()
        .iter()
        .cloned()
        .collect()
}

/// A frozen engine built from scratch over `tables`.
pub fn from_scratch(tables: Vec<WebTable>) -> Engine {
    let mut b = EngineBuilder::with_config(WwtConfig::default());
    b.shards(MUTATION_SHARDS);
    b.add_tables(tables);
    b.build()
}
