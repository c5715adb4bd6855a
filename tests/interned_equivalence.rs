//! The differential harness behind the interned query path: an engine
//! running the optimized path — term-id postings, dense top-k scoring,
//! bind-time precomputed table vectors — must produce **byte-identical**
//! wire responses to the oracle path that recomputes every table view
//! per query (`WwtConfig::precompute_views = false`), for every
//! algorithm, option draw, shard count and persistence round-trip.
//!
//! (The string-keyed *scoring* oracle — `HashMap` accumulation over raw
//! tokens — lives next to the scorer as a wwt-index unit test; this
//! harness covers everything above it, end to end.)
//!
//! Timing fields are zeroed before encoding (they are diagnostics of
//! *when*, not *what*); everything else must match to the byte. A
//! property-style loop drives per-request option draws from a
//! deterministic SplitMix64 stream, so failures reproduce.

mod support;

use support::{canonical_bytes, corpus, splitmix, ALGORITHMS};
use wwt::core::{ColumnMapper, MapperConfig, TableView};
use wwt::corpus::GeneratedCorpus;
use wwt::engine::{bind_corpus_sharded, Engine, QueryOptions, QueryRequest, WwtConfig};
use wwt::index::DocSets;
use wwt::model::WebTable;

fn oracle_config(base: WwtConfig) -> WwtConfig {
    WwtConfig {
        precompute_views: false,
        ..base
    }
}

/// The optimized engine and its per-query-recompute oracle over one
/// corpus, at the given shard count.
fn engine_pair(generated: &GeneratedCorpus, config: WwtConfig, shards: usize) -> (Engine, Engine) {
    let fast = bind_corpus_sharded(generated, config.clone(), Some(shards)).engine;
    let oracle = bind_corpus_sharded(generated, oracle_config(config), Some(shards)).engine;
    (fast, oracle)
}

#[test]
fn every_algorithm_matches_the_per_query_oracle() {
    let (generated, queries) = corpus(4, 0.05);
    for shards in [1usize, 3] {
        let (fast, oracle) = engine_pair(&generated, WwtConfig::default(), shards);
        for query in &queries {
            for algorithm in ALGORITHMS {
                let request = QueryRequest::new(query.clone()).algorithm(algorithm);
                assert_eq!(
                    canonical_bytes(&request, &oracle),
                    canonical_bytes(&request, &fast),
                    "interned-path drift at {shards} shard(s) for {request:?}"
                );
            }
        }
    }
}

#[test]
fn pmi_probes_match_the_oracle() {
    // PMI² drives the interned conjunctive doc-set probes (and their
    // bounded memo) harder than anything else.
    let (generated, queries) = corpus(2, 0.04);
    let config = WwtConfig {
        mapper: MapperConfig {
            use_pmi: true,
            ..MapperConfig::default()
        },
        ..WwtConfig::default()
    };
    let (fast, oracle) = engine_pair(&generated, config, 2);
    for query in &queries {
        let request = QueryRequest::new(query.clone());
        assert_eq!(
            canonical_bytes(&request, &oracle),
            canonical_bytes(&request, &fast),
            "PMI drift for {request:?}"
        );
    }
    assert!(
        fast.docset_cache_entries() > 0,
        "PMI queries must populate the doc-set memo"
    );
}

#[test]
fn relevance_bits_match_the_oracle_with_and_without_pmi() {
    // The fast and oracle engines transform identical potentials, so
    // every algorithm's answer — down to the relevance bits — must stay
    // identical under both column-similarity measures.
    let (generated, queries) = corpus(3, 0.05);
    for use_pmi in [false, true] {
        let config = WwtConfig {
            mapper: MapperConfig {
                use_pmi,
                ..MapperConfig::default()
            },
            ..WwtConfig::default()
        };
        let (fast, oracle) = engine_pair(&generated, config, 2);
        for query in &queries {
            for algorithm in ALGORITHMS {
                let request = QueryRequest::new(query.clone()).algorithm(algorithm);
                assert_eq!(
                    canonical_bytes(&request, &oracle),
                    canonical_bytes(&request, &fast),
                    "drift (pmi={use_pmi}) for {request:?}"
                );
                let fast_resp = fast.answer(&request).unwrap();
                let oracle_resp = oracle.answer(&request).unwrap();
                assert_eq!(
                    fast_resp.mapping.table_relevance.len(),
                    oracle_resp.mapping.table_relevance.len(),
                    "relevance length (pmi={use_pmi}) for {request:?}"
                );
                for (a, b) in fast_resp
                    .mapping
                    .table_relevance
                    .iter()
                    .zip(&oracle_resp.mapping.table_relevance)
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "relevance bits (pmi={use_pmi}) for {request:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn random_option_draws_match_the_oracle() {
    let (generated, queries) = corpus(3, 0.04);
    let (fast, oracle) = engine_pair(&generated, WwtConfig::default(), 1);
    let mut state = 0xD1C7_10AB_CA11_F00D_u64;
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
        assert_eq!(
            canonical_bytes(&request, &oracle),
            canonical_bytes(&request, &fast),
            "case {case}: option-draw drift"
        );
    }
}

/// The final map replays the premap's table-pair matchings from the
/// engine-wide pair memo. Whenever the second probe added tables, the
/// mapping the engine served must equal a from-scratch, memo-free map of
/// the same candidates — down to the relevance and probability bits.
#[test]
fn carried_premap_pairs_match_a_fresh_memo_free_map() {
    let (generated, queries) = corpus(4, 0.05);
    let engine = bind_corpus_sharded(&generated, WwtConfig::default(), Some(2)).engine;
    let stats = engine.index().stats();
    let docsets: &dyn DocSets = engine.index();
    let mut state = 0xCA77_1ED0_u64;
    for algorithm in ALGORITHMS {
        let mut probe2_fired = 0;
        for query in &queries {
            for _ in 0..3 {
                let options = QueryOptions {
                    algorithm: Some(algorithm),
                    probe2_k: Some(1 + (splitmix(&mut state) as usize) % 12),
                    high_relevance: Some(((splitmix(&mut state) % 61) as f64) / 100.0),
                    ..QueryOptions::default()
                };
                let request = QueryRequest {
                    query: query.clone(),
                    options,
                };
                let response = engine.answer(&request).unwrap();
                if response.retrieval.stage2.is_empty() {
                    continue;
                }
                probe2_fired += 1;
                let tables: Vec<&WebTable> = response
                    .candidates
                    .iter()
                    .map(|&id| engine.store().get(id).unwrap())
                    .collect();
                let config = engine.config().mapper.clone();
                let views: Vec<TableView<'_>> = tables
                    .iter()
                    .map(|t| TableView::new(t, stats, config.body_freq_frac))
                    .collect();
                let fresh = ColumnMapper {
                    config,
                    algorithm,
                    pair_memo: None,
                }
                .map_views(query, &views, stats, Some(docsets));
                let served = &response.mapping;
                let context = format!("{algorithm:?} {request:?}");
                assert_eq!(served.labelings, fresh.labelings, "{context}");
                assert_eq!(served.confident, fresh.confident, "{context}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&served.table_relevance),
                    bits(&fresh.table_relevance),
                    "{context}"
                );
                assert_eq!(served.column_probs.len(), fresh.column_probs.len());
                for (a, b) in served.column_probs.iter().zip(&fresh.column_probs) {
                    assert_eq!(a.len(), b.len(), "{context}");
                    for (pa, pb) in a.iter().zip(b) {
                        assert_eq!(bits(pa), bits(pb), "{context}");
                    }
                }
            }
        }
        assert!(
            probe2_fired > 0,
            "{algorithm:?}: the second probe never fired"
        );
    }
}

#[test]
fn explain_traces_are_byte_stable_and_oracle_equivalent() {
    // Explain mode attaches a trace whose `*_us` fields are the only
    // nondeterminism; after `zero_timings` the whole wire body — spans,
    // per-shard children, notes, and the table itself — must be stable
    // across reruns and identical between the fast and oracle paths.
    let (generated, queries) = corpus(2, 0.04);
    for shards in [1usize, 2] {
        let (fast, oracle) = engine_pair(&generated, WwtConfig::default(), shards);
        for query in &queries {
            let request = QueryRequest::new(query.clone()).explain(true);
            let first = canonical_bytes(&request, &fast);
            assert!(
                first.contains("\"trace\""),
                "explain responses must embed a trace"
            );
            assert_eq!(
                first,
                canonical_bytes(&request, &fast),
                "explain rerun drift at {shards} shard(s) for {request:?}"
            );
            assert_eq!(
                canonical_bytes(&request, &oracle),
                first,
                "explain oracle drift at {shards} shard(s) for {request:?}"
            );
            let plain = canonical_bytes(&QueryRequest::new(query.clone()), &fast);
            assert!(
                !plain.contains("\"trace\""),
                "plain responses must stay trace-free"
            );
        }
    }
}

#[test]
fn persisted_layouts_of_both_generations_serve_identical_bytes() {
    let (generated, queries) = corpus(2, 0.04);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::new(q.clone()))
        .collect();

    for shards in [1usize, 3] {
        let (fast, _) = engine_pair(&generated, WwtConfig::default(), shards);
        let expected: Vec<String> = requests.iter().map(|r| canonical_bytes(r, &fast)).collect();
        let dir = std::env::temp_dir().join(format!(
            "wwt_interned_equiv_{}_{shards}",
            std::process::id()
        ));

        // Current layout: v3 manifest carrying a dictionary checksum
        // instead of the vocabulary itself.
        fast.save_to_dir(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"version\":3"), "manifest: {manifest}");
        assert!(manifest.contains("\"term_count\""), "manifest: {manifest}");
        assert!(
            manifest.contains("\"term_checksum\""),
            "manifest: {manifest}"
        );
        assert!(
            !manifest.contains("\"terms\""),
            "v3 must not inline the dictionary: {manifest}"
        );
        let restored = Engine::load_from_dir(&dir, fast.config().clone()).unwrap();
        for (request, want) in requests.iter().zip(&expected) {
            assert_eq!(
                *want,
                canonical_bytes(request, &restored),
                "v3 reload drift at {shards} shard(s)"
            );
        }

        // PR-5 era layout: same shard files under a v2 manifest inlining
        // the full vocabulary.
        let v2 = wwt::json::Json::obj([
            ("version", wwt::json::Json::from(2u64)),
            ("shards", wwt::json::Json::from(shards)),
            (
                "terms",
                wwt::json::Json::arr(fast.index().dict().terms().iter().map(String::as_str)),
            ),
        ]);
        std::fs::write(dir.join("manifest.json"), v2.encode()).unwrap();
        let v2_manifest = Engine::load_from_dir(&dir, fast.config().clone()).unwrap();
        for (request, want) in requests.iter().zip(&expected) {
            assert_eq!(
                *want,
                canonical_bytes(request, &v2_manifest),
                "v2-manifest reload drift at {shards} shard(s)"
            );
        }

        // PR-4 era layout: same shard files under a v1 manifest with no
        // dictionary.
        std::fs::write(
            dir.join("manifest.json"),
            format!(r#"{{"version":1,"shards":{shards}}}"#),
        )
        .unwrap();
        let legacy_manifest = Engine::load_from_dir(&dir, fast.config().clone()).unwrap();
        for (request, want) in requests.iter().zip(&expected) {
            assert_eq!(
                *want,
                canonical_bytes(request, &legacy_manifest),
                "v1-manifest reload drift at {shards} shard(s)"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // Pre-manifest layout: a bare single `index.idx` next to the table
    // store.
    let (single, _) = engine_pair(&generated, WwtConfig::default(), 1);
    let dir = std::env::temp_dir().join(format!("wwt_interned_legacy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    wwt::index::persist::save(single.index().shard(0), &dir.join("index.idx")).unwrap();
    single.store().save(&dir.join("tables.jsonl")).unwrap();
    let legacy = Engine::load_from_dir(&dir, single.config().clone()).unwrap();
    assert_eq!(legacy.n_shards(), 1);
    for request in &requests {
        assert_eq!(
            canonical_bytes(request, &single),
            canonical_bytes(request, &legacy),
            "legacy index.idx drift"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
