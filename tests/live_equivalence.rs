//! The differential harness behind live ingest: an engine grown
//! table-by-table through the mutable delta segment and then compacted
//! must produce **byte-identical** wire responses to a from-scratch
//! build over the same logical corpus — for every inference algorithm,
//! under random option draws, after removals, and across a persistence
//! round-trip.
//!
//! Pre-compaction the delta path is checked for *liveness* (every
//! ingested table answers queries immediately) rather than byte
//! equality: delta hits are scored against merged corpus statistics
//! while frozen hits keep their freeze-time statistics, an approximation
//! compaction erases by construction.

mod support;

use support::{canonical_bytes, corpus, extracted_tables, from_scratch, splitmix, ALGORITHMS};
use wwt::engine::{Engine, QueryOptions, QueryRequest};
use wwt::model::WebTable;

/// Splits tables into (base, delta) halves and grows the base engine
/// one `with_table_added` at a time — the library-level equivalent of N
/// `POST /admin/tables` calls.
fn grow_live(tables: &[WebTable]) -> Engine {
    let base: Vec<WebTable> = tables
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, t)| t.clone())
        .collect();
    let delta: Vec<WebTable> = tables
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, t)| t.clone())
        .collect();
    let mut live = from_scratch(base);
    for (n, table) in delta.into_iter().enumerate() {
        live = live.with_table_added(table);
        assert_eq!(live.delta_len(), n + 1, "each ingest lands in the delta");
    }
    live
}

#[test]
fn ingested_then_compacted_matches_a_from_scratch_build() {
    let (generated, queries) = corpus(3, 0.05);
    let tables = extracted_tables(&generated);
    let live = grow_live(&tables);
    assert!(live.is_live());
    assert_eq!(live.n_tables(), tables.len());

    let oracle = from_scratch(tables);

    // Pre-compaction liveness: the delta path must answer every workload
    // query without error, retrieving candidates wherever the fully
    // frozen corpus does.
    for query in &queries {
        let request = QueryRequest::new(query.clone());
        let response = live.answer(&request).expect("live engine answers");
        let reference = oracle.answer(&request).unwrap();
        assert!(
            !response.candidates.is_empty() || reference.candidates.is_empty(),
            "live engine lost all candidates for {query}"
        );
    }

    let compacted = live.compacted();
    assert!(!compacted.is_live());
    for query in &queries {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::new(query.clone()).algorithm(algorithm);
            assert_eq!(
                canonical_bytes(&request, &oracle),
                canonical_bytes(&request, &compacted),
                "compaction drift for {request:?}"
            );
        }
    }
}

#[test]
fn random_option_draws_match_after_compaction() {
    let (generated, queries) = corpus(3, 0.04);
    let tables = extracted_tables(&generated);
    let compacted = grow_live(&tables).compacted();
    let oracle = from_scratch(tables);
    let mut state = 0x11FE_1CE5_CAFE_D00D_u64;
    for case in 0..16u32 {
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
            canonical_bytes(&request, &compacted),
            "case {case}: option-draw drift after compaction"
        );
    }
}

#[test]
fn removals_compact_to_the_surviving_corpus() {
    let (generated, queries) = corpus(2, 0.04);
    let tables = extracted_tables(&generated);
    let live = grow_live(&tables);

    // Remove one frozen-half table (tombstone) and one delta-half table
    // (eviction); indices 0 and 1 land in opposite halves by split.
    let frozen_victim = tables[0].id;
    let delta_victim = tables[1].id;
    let live = live
        .with_table_removed(frozen_victim)
        .expect("frozen table removable")
        .with_table_removed(delta_victim)
        .expect("delta table removable");
    assert_eq!(live.n_tables(), tables.len() - 2);

    let compacted = live.compacted();
    let survivors: Vec<WebTable> = tables
        .iter()
        .filter(|t| t.id != frozen_victim && t.id != delta_victim)
        .cloned()
        .collect();
    let oracle = from_scratch(survivors);
    for query in &queries {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::new(query.clone()).algorithm(algorithm);
            assert_eq!(
                canonical_bytes(&request, &oracle),
                canonical_bytes(&request, &compacted),
                "post-removal compaction drift for {request:?}"
            );
        }
    }
}

#[test]
fn compacted_engine_roundtrips_through_persistence() {
    let (generated, queries) = corpus(2, 0.04);
    let tables = extracted_tables(&generated);
    let live = grow_live(&tables);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::new(q.clone()))
        .collect();

    // A live engine refuses to save: the on-disk layout has no delta
    // section, so saving would silently drop mutations.
    let dir = std::env::temp_dir().join(format!("wwt_live_equiv_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        live.save_to_dir(&dir).is_err(),
        "live engines must not save"
    );

    let compacted = live.compacted();
    compacted.save_to_dir(&dir).unwrap();
    let restored = Engine::load_from_dir(&dir, compacted.config().clone()).unwrap();
    assert_eq!(restored.n_shards(), compacted.n_shards());
    for request in &requests {
        assert_eq!(
            canonical_bytes(request, &compacted),
            canonical_bytes(request, &restored),
            "persistence drift after live growth + compaction"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
