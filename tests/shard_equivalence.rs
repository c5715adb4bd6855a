//! The differential harness behind the sharding guarantee: a sharded
//! engine must produce **byte-identical** `QueryResponse`s to the
//! single-shard engine over the same corpus — same rows, same scores,
//! same candidate order, same wire bytes — for every shard count,
//! corpus size and inference algorithm.
//!
//! Timing fields are zeroed before encoding (wall clocks are the one
//! thing sharding is *supposed* to change); everything else must match
//! to the byte. A property-style loop drives per-request option draws
//! from a deterministic SplitMix64 stream, so failures reproduce.
//!
//! `WWT_SHARDS=<n>` adds an extra shard count to the sweep (CI pins 4).

mod support;

use support::{canonical_bytes, corpus, splitmix, ALGORITHMS};
use wwt::core::MapperConfig;
use wwt::corpus::GeneratedCorpus;
use wwt::engine::{bind_corpus_sharded, Engine, QueryOptions, QueryRequest, WwtConfig};

/// Shard counts under test: the unsharded reference plus real splits,
/// plus whatever CI pins via `WWT_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![2, 3, 8];
    if let Some(n) = std::env::var("WWT_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Asserts byte-identity for one request across every shard count.
fn assert_equivalent(reference: &Engine, sharded: &[(usize, Engine)], request: &QueryRequest) {
    let expected = canonical_bytes(request, reference);
    for (n, engine) in sharded {
        let actual = canonical_bytes(request, engine);
        assert_eq!(
            expected, actual,
            "response drift at {n} shards for request {:?}",
            request
        );
    }
}

/// Builds the 1-shard reference and every sharded engine over one corpus.
fn engine_family(generated: &GeneratedCorpus, config: WwtConfig) -> (Engine, Vec<(usize, Engine)>) {
    let reference = bind_corpus_sharded(generated, config.clone(), Some(1)).engine;
    let sharded = shard_counts()
        .into_iter()
        .map(|n| {
            let engine = bind_corpus_sharded(generated, config.clone(), Some(n)).engine;
            assert_eq!(engine.n_shards(), n);
            (n, engine)
        })
        .collect();
    (reference, sharded)
}

#[test]
fn every_algorithm_answers_byte_identically_across_shard_counts() {
    let (generated, queries) = corpus(4, 0.05);
    let (reference, sharded) = engine_family(&generated, WwtConfig::default());
    for query in &queries {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::new(query.clone()).algorithm(algorithm);
            assert_equivalent(&reference, &sharded, &request);
        }
    }
}

#[test]
fn property_loop_random_option_draws_stay_byte_identical() {
    let (generated, queries) = corpus(3, 0.04);
    let (reference, sharded) = engine_family(&generated, WwtConfig::default());
    let mut state = 0xC0FF_EE00_D15C_07E5_u64;
    for case in 0..24u32 {
        let qi = (splitmix(&mut state) as usize) % queries.len();
        let options = QueryOptions {
            algorithm: Some(ALGORITHMS[(splitmix(&mut state) as usize) % ALGORITHMS.len()]),
            probe1_k: Some(1 + (splitmix(&mut state) as usize) % 80),
            probe2_k: Some((splitmix(&mut state) as usize) % 16),
            high_relevance: Some(((splitmix(&mut state) % 101) as f64) / 100.0),
            max_rows: splitmix(&mut state)
                .is_multiple_of(2)
                .then(|| (splitmix(&mut state) as usize) % 12),
            deadline_ms: None,
            explain: false,
            fail_soft: false,
        };
        let request = QueryRequest {
            query: queries[qi].clone(),
            options,
        };
        let expected = canonical_bytes(&request, &reference);
        for (n, engine) in &sharded {
            let actual = canonical_bytes(&request, engine);
            assert_eq!(expected, actual, "case {case}: drift at {n} shards");
        }
    }
}

#[test]
fn pmi_doc_set_probes_stay_byte_identical() {
    // PMI² is the one feature that reads raw doc-set probes off the
    // index, so it exercises the sharded id-relabeling path end to end.
    let (generated, queries) = corpus(2, 0.04);
    let config = WwtConfig {
        mapper: MapperConfig {
            use_pmi: true,
            ..MapperConfig::default()
        },
        ..WwtConfig::default()
    };
    let (reference, sharded) = engine_family(&generated, config);
    for query in &queries {
        let request = QueryRequest::new(query.clone());
        assert_equivalent(&reference, &sharded, &request);
    }
}

#[test]
fn corpus_sizes_from_empty_to_moderate_stay_byte_identical() {
    for (n_queries, scale) in [(1usize, 0.02), (2, 0.05), (6, 0.08)] {
        let (generated, queries) = corpus(n_queries, scale);
        let (reference, sharded) = engine_family(&generated, WwtConfig::default());
        for query in &queries {
            let request = QueryRequest::new(query.clone());
            assert_equivalent(&reference, &sharded, &request);
        }
    }
    // Degenerate corpus: more shards than documents.
    let empty = GeneratedCorpus {
        documents: Vec::new(),
    };
    let (reference, sharded) = engine_family(&empty, WwtConfig::default());
    let request = QueryRequest::parse("anything | at all").unwrap();
    assert_equivalent(&reference, &sharded, &request);
}

#[test]
fn persisted_sharded_engines_answer_byte_identically_after_reload() {
    let (generated, queries) = corpus(2, 0.04);
    let (reference, sharded) = engine_family(&generated, WwtConfig::default());
    for (n, engine) in &sharded {
        let dir = std::env::temp_dir().join(format!("wwt_shard_equiv_{}_{n}", std::process::id()));
        engine.save_to_dir(&dir).unwrap();
        let restored = Engine::load_from_dir(&dir, engine.config().clone()).unwrap();
        assert_eq!(restored.n_shards(), *n);
        for query in &queries {
            let request = QueryRequest::new(query.clone());
            assert_eq!(
                canonical_bytes(&request, &reference),
                canonical_bytes(&request, &restored),
                "reloaded {n}-shard engine drifted"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
