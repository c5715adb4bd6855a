//! The differential harness behind live ingest: an engine grown
//! table-by-table through the mutable delta segment and then compacted
//! must produce **byte-identical** wire responses to a from-scratch
//! build over the same logical corpus — for every inference algorithm,
//! under random option draws, after removals, and across a persistence
//! round-trip.
//!
//! Pre-compaction the delta path is checked for *liveness* (every
//! ingested table answers queries immediately) rather than byte
//! equality against a from-scratch build: delta hits are scored against
//! merged corpus statistics while frozen hits keep their freeze-time
//! statistics, an approximation compaction erases by construction. What
//! *is* byte-exact before compaction is independence from batching: the
//! same mutation sequence applied as one batch, one op per batch, in
//! random chunks, or through journal replay answers identically.

mod support;

use std::collections::BTreeMap;
use support::{canonical_bytes, corpus, extracted_tables, from_scratch, splitmix, ALGORITHMS};
use wwt::engine::{Engine, EngineMutation, QueryOptions, QueryRequest};
use wwt::index::{table_to_json, JournalRecord};
use wwt::model::{TableId, WebTable};

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

/// A table with `content`'s headers, rows and context under `id`: a
/// re-ingest of an existing id with new content.
fn rebound(content: &WebTable, id: TableId) -> WebTable {
    let mut table = content.clone();
    table.id = id;
    table
}

#[test]
fn answers_do_not_depend_on_how_mutations_are_batched() {
    let (generated, queries) = corpus(3, 0.05);
    let tables = extracted_tables(&generated);
    let base: Vec<WebTable> = tables.iter().step_by(2).cloned().collect();
    let mut fresh = tables.iter().skip(1).step_by(2).cloned();
    let engine = from_scratch(base.clone());

    // A seeded op list over a simulated logical corpus: new adds,
    // re-adds of delta ids, overrides of frozen ids, removals of delta
    // and frozen ids, and one removal of an id that exists nowhere.
    let mut state = 0xBA7C_4E5D_0F1E_2A3B_u64;
    let mut logical: BTreeMap<TableId, WebTable> = base.iter().map(|t| (t.id, t.clone())).collect();
    let mut delta_ids: Vec<TableId> = Vec::new();
    let missing = TableId(u32::MAX - 7);
    let mut mutations: Vec<EngineMutation> = Vec::new();
    let mut draw = |n: usize| (splitmix(&mut state) as usize) % n;
    for step in 0..90 {
        if step == 45 {
            mutations.push(EngineMutation::Remove(missing));
            continue;
        }
        let mutation = match draw(10) {
            0..=3 => match fresh.next() {
                Some(table) => {
                    delta_ids.push(table.id);
                    EngineMutation::Add(table)
                }
                None => continue,
            },
            4 | 5 if !delta_ids.is_empty() => {
                let id = delta_ids[draw(delta_ids.len())];
                EngineMutation::Add(rebound(&tables[draw(tables.len())], id))
            }
            6 => EngineMutation::Add(rebound(
                &tables[draw(tables.len())],
                base[draw(base.len())].id,
            )),
            7 | 8 if !delta_ids.is_empty() => {
                EngineMutation::Remove(delta_ids.remove(draw(delta_ids.len())))
            }
            _ => EngineMutation::Remove(base[draw(base.len())].id),
        };
        match &mutation {
            EngineMutation::Add(table) => {
                logical.insert(table.id, table.clone());
            }
            EngineMutation::Remove(id) => {
                logical.remove(id);
            }
        }
        mutations.push(mutation);
    }

    let one_batch = engine.with_mutations_applied(mutations.clone());
    let per_op = mutations.iter().fold(engine.clone(), |e, m| {
        e.with_mutations_applied(vec![m.clone()])
    });
    let mut chunked = engine.clone();
    let mut rest = &mutations[..];
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at((1 + draw(40)).min(rest.len()));
        chunked = chunked.with_mutations_applied(chunk.to_vec());
        rest = tail;
    }
    let records: Vec<JournalRecord> = mutations
        .iter()
        .map(|m| match m {
            EngineMutation::Add(table) => JournalRecord::AddTable(table_to_json(table)),
            EngineMutation::Remove(id) => JournalRecord::RemoveTable(*id),
        })
        .collect();
    let replayed = engine.with_journal_replayed(&records).unwrap();

    let batchings = [
        ("one op per batch", &per_op),
        ("seeded chunks", &chunked),
        ("journal replay", &replayed),
    ];
    for engine in std::iter::once(&one_batch).chain(batchings.iter().map(|(_, e)| *e)) {
        assert!(engine.is_live());
        assert_eq!(engine.n_tables(), logical.len());
    }
    for query in &queries {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::new(query.clone()).algorithm(algorithm);
            let expected = canonical_bytes(&request, &one_batch);
            for (name, engine) in &batchings {
                assert_eq!(
                    expected,
                    canonical_bytes(&request, engine),
                    "{name} drifts from one batch for {request:?}"
                );
            }
        }
    }

    let oracle = from_scratch(logical.into_values().collect());
    let compacted = one_batch.compacted();
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
