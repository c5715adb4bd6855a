//! The differential harness behind the resilience guarantee: with every
//! failpoint disarmed and `fail_soft` off, responses are **byte-identical**
//! to a run that never linked the chaos machinery; with any single fault
//! armed, the stack returns a typed error or a well-formed answer —
//! never a crash, a hang, or garbage — and heals to baseline bytes the
//! moment the fault clears; with `fail_soft` on, absorbable faults
//! produce degraded answers whose candidates are a subset of the
//! healthy candidate list, flagged as degraded with human-readable
//! reasons.
//!
//! `wwt_chaos` failpoints are process-global, so every test serializes
//! on [`CHAOS`] and disarms before and after its faults.

use std::sync::{Arc, Mutex, OnceLock};
use wwt::core::ColumnMapper;
use wwt::corpus::{workload, CorpusConfig, CorpusGenerator};
use wwt::engine::{bind_corpus, Engine, QueryRequest, WwtConfig};
use wwt::index::{FsyncPolicy, Journal};
use wwt::json::Json;
use wwt::model::{TableId, WebTable, WwtError};
use wwt::server::wire::encode_response;
use wwt::service::TableSearchService;

/// Failpoints are process-global; every test runs under this lock.
static CHAOS: Mutex<()> = Mutex::new(());

/// One small corpus-backed engine shared by every test (the corpus
/// generation dominates this binary's runtime).
fn shared_engine() -> Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let specs: Vec<_> = workload().into_iter().take(3).collect();
        let corpus = CorpusGenerator::new(CorpusConfig {
            scale: 0.04,
            ..CorpusConfig::default()
        })
        .generate_for(&specs);
        Arc::new(bind_corpus(&corpus, WwtConfig::default()).engine)
    }))
}

fn requests() -> Vec<QueryRequest> {
    workload()
        .into_iter()
        .take(3)
        .map(|s| QueryRequest::new(s.query))
        .collect()
}

/// Canonical wire bytes with wall-clock timings zeroed (timing is the
/// one thing a delay fault is *supposed* to change).
fn canonical_bytes(request: &QueryRequest, response: &wwt::engine::QueryResponse) -> String {
    let mut response = response.clone();
    response.diagnostics.timing = Default::default();
    response.retrieval.timing = Default::default();
    encode_response(request, &response)
}

fn volcano_table() -> WebTable {
    WebTable::new(
        TableId(77_000),
        "live://volcano",
        Some("Volcano heights".into()),
        vec![vec!["Volcano".into(), "Elevation".into()]],
        vec![vec!["Etna".into(), "3329".into()]],
        vec![],
    )
    .unwrap()
}

/// Disarmed chaos + `fail_soft: false` is the zero-cost contract: the
/// fast-path flag is down, and enabling `fail_soft` without any fault
/// or deadline pressure is a pure pass-through — same bytes, no
/// degraded flag.
#[test]
fn disarmed_chaos_and_idle_fail_soft_are_byte_identical() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    assert!(!wwt::chaos::armed(), "nothing may be armed at baseline");
    let engine = shared_engine();
    for request in requests() {
        let healthy = engine.answer(&request).unwrap();
        assert!(!healthy.diagnostics.degraded);
        let baseline = canonical_bytes(&request, &healthy);

        let soft = engine.answer(&request.clone().fail_soft(true)).unwrap();
        assert!(!soft.diagnostics.degraded);
        assert!(soft.diagnostics.degraded_reasons.is_empty());
        assert_eq!(
            baseline,
            canonical_bytes(&request, &soft),
            "idle fail_soft drifted for {request:?}"
        );
    }
}

/// One armed fault at a time, across every site and behavior the stack
/// exposes: the caller always gets a typed `WwtError` or a well-formed
/// answer, and once the fault is disarmed the very same request heals
/// back to baseline bytes.
#[test]
fn any_single_fault_yields_typed_errors_then_heals_to_baseline() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    // Cache off: every call must reach the engine, or an armed fault
    // would be papered over by a cache hit and never exercised.
    let service = TableSearchService::with_config(
        shared_engine(),
        wwt::service::ServiceConfig {
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let request = &requests()[0];
    let baseline = canonical_bytes(request, &service.answer(request).unwrap());

    let query_faults = [
        "probe.shard=error",
        "probe.shard=panic",
        "probe.shard=delay:2",
        "map.batch=error",
        "map.batch=panic",
        "map.batch=delay:2",
        "probe.shard=error~1in2",
    ];
    for spec in query_faults {
        wwt_chaos::arm(spec).unwrap();
        match service.answer(request) {
            Ok(response) => {
                // Delays and sampled misses may still answer: the bytes
                // must be well-formed JSON and identical to baseline
                // (a fault either fails the request or changes nothing).
                let bytes = canonical_bytes(request, &response);
                Json::parse(&bytes).expect("well-formed response bytes");
                assert_eq!(baseline, bytes, "fault {spec} corrupted an Ok answer");
            }
            Err(WwtError::Internal(m)) => {
                assert!(m.contains("panicked"), "{spec}: {m}")
            }
            Err(WwtError::Io(_)) => {}
            Err(other) => panic!("fault {spec} leaked an unexpected error: {other:?}"),
        }
        wwt_chaos::disarm_all();
        // Healing: the fault is gone, the same request answers baseline
        // bytes again (failed flights cached nothing).
        assert_eq!(
            baseline,
            canonical_bytes(request, &service.answer(request).unwrap()),
            "service did not heal after {spec}"
        );
    }
    let stats = service.stats();
    assert!(stats.internal_errors >= 2, "panics were counted: {stats:?}");

    // Mutation-path fault: journal appends fail persistently, mutations
    // refuse with a retryable typed error, queries never notice.
    let dir = std::env::temp_dir().join(format!("wwt-chaos-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (journal, _) = Journal::open(&dir.join("journal.wal"), FsyncPolicy::Never).unwrap();
    service.attach_journal(journal, None);
    wwt_chaos::arm("journal.append=error").unwrap();
    match service.ingest_table(volcano_table()) {
        Err(WwtError::Unavailable(m)) => assert!(m.contains("journal append failed"), "{m}"),
        other => panic!("journal fault must map to Unavailable, got {other:?}"),
    }
    assert!(service.read_only());
    assert_eq!(
        baseline,
        canonical_bytes(request, &service.answer(request).unwrap()),
        "read-only degradation must not touch the query path"
    );
    wwt_chaos::disarm_all();
    service.clear_read_only();
    service.ingest_table(volcano_table()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `fail_soft: true` turns absorbable faults into degraded answers: the
/// response flags `degraded` with a reason naming the absorbed stage,
/// and the candidate list never invents tables the healthy run did not
/// retrieve.
#[test]
fn fail_soft_absorbs_faults_into_flagged_degraded_subsets() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let engine = shared_engine();
    for request in requests() {
        let healthy = engine.answer(&request).unwrap();
        let soft_request = request.clone().fail_soft(true);

        // Every shard probe fails. Hard mode propagates the fault…
        wwt_chaos::arm("probe.shard=error").unwrap();
        assert!(
            engine.answer(&request).is_err(),
            "without fail_soft a probe fault must propagate"
        );
        // …soft mode serves what is left (here: nothing), flagged.
        let soft = engine.answer(&soft_request).unwrap();
        wwt_chaos::disarm_all();
        assert!(soft.diagnostics.degraded);
        assert!(
            soft.diagnostics
                .degraded_reasons
                .iter()
                .any(|r| r.contains("shard")),
            "reasons: {:?}",
            soft.diagnostics.degraded_reasons
        );
        assert!(soft.candidates.is_empty(), "all shards were dropped");
        assert!(soft.table.is_empty());

        // The column-map batch fails: soft mode falls back to the
        // stage-1 premapping instead of failing the whole query.
        wwt_chaos::arm("map.batch=error").unwrap();
        let soft = engine.answer(&soft_request).unwrap();
        wwt_chaos::disarm_all();
        assert!(soft.diagnostics.degraded);
        assert!(
            soft.diagnostics
                .degraded_reasons
                .iter()
                .any(|r| r.contains("column mapping")),
            "reasons: {:?}",
            soft.diagnostics.degraded_reasons
        );
        // Degradation never invents candidates: everything served came
        // out of the healthy retrieval set, in its ranked order.
        let healthy_rank: Vec<&TableId> = healthy.candidates.iter().collect();
        let mut last_pos = 0usize;
        for id in &soft.candidates {
            let pos = healthy_rank[last_pos..]
                .iter()
                .position(|h| *h == id)
                .unwrap_or_else(|| {
                    panic!("candidate {id:?} missing from (or reordered vs.) the healthy ranking")
                });
            last_pos += pos + 1;
        }
        // The degraded answer is still shaped like an answer.
        assert_eq!(soft.table.columns.len(), request.query.q());
    }
}

/// Arms `site` with `behavior` so that it fires once, on its `hit`-th
/// evaluation (0-based) from now: the `~1inK` sampler is seeded and
/// deterministic, so the test reads the firing pattern of each `K` off
/// the site itself and keeps the first whose first firing is `hit`.
fn arm_on_hit(site: &str, behavior: &str, hit: u64) {
    for k in 2..10_000u64 {
        wwt_chaos::arm(&format!("{site}=error~1in{k}")).unwrap();
        if (0..=hit).find(|_| wwt_chaos::evaluate(site).is_some()) == Some(hit) {
            // Re-arming resets the site's counters.
            wwt_chaos::arm(&format!("{site}={behavior}*1~1in{k}")).unwrap();
            return;
        }
    }
    panic!("no sampler fires {site} first on hit {hit}");
}

/// Fail-soft with a deadline that expires during the second probe: the
/// column mapping is cut back to the first-probe candidates, and what is
/// served for them is exactly the stage-1 premap — the same mapping a
/// fresh, memo-free mapper computes over those tables.
#[test]
fn fail_soft_mapping_cut_serves_exactly_the_premap_prefix() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let engine = shared_engine();
    let stats = engine.index().stats();
    let mut exercised = 0;
    for request in requests() {
        let healthy = engine.answer(&request).unwrap();
        if healthy.retrieval.stage2.is_empty() {
            continue;
        }
        exercised += 1;
        // The first probe evaluates the shard failpoint once per shard;
        // the next evaluation is the second probe, which sleeps past the
        // budget after its own deadline check has passed.
        arm_on_hit(
            wwt_chaos::PROBE_SHARD,
            "delay:1500",
            engine.n_shards() as u64,
        );
        let cut = engine.answer(&request.clone().deadline_ms(1000).fail_soft(true));
        wwt_chaos::disarm_all();
        let cut = cut.unwrap();
        let reasons = &cut.diagnostics.degraded_reasons;
        assert!(
            reasons
                .iter()
                .any(|r| r.contains("limited to first-probe candidates")),
            "reasons: {reasons:?}"
        );
        assert_eq!(cut.candidates, healthy.retrieval.stage1);
        assert_eq!(cut.mapping.labelings.len(), cut.candidates.len());
        let tables: Vec<&WebTable> = cut
            .candidates
            .iter()
            .map(|&id| engine.store().get(id).unwrap())
            .collect();
        let fresh = ColumnMapper {
            config: engine.config().mapper.clone(),
            algorithm: engine.config().algorithm,
            pair_memo: None,
        }
        .map(&request.query, &tables, stats, Some(engine.index()));
        assert_eq!(cut.mapping.labelings, fresh.labelings);
        assert_eq!(cut.mapping.confident, fresh.confident);
        for (a, b) in cut
            .mapping
            .table_relevance
            .iter()
            .zip(&fresh.table_relevance)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert!(exercised > 0, "no request reached the second probe");
}

/// The corpus of [`shared_engine`] bound fresh with an explicit shard
/// count: the pinned values below name shards, and `bind_corpus`
/// defaults to one shard per core. Each call binds a new engine, so the
/// doc-set memo a trace reports starts empty.
fn pinned_engine() -> Engine {
    static CORPUS: OnceLock<wwt::corpus::GeneratedCorpus> = OnceLock::new();
    let corpus = CORPUS.get_or_init(|| {
        let specs: Vec<_> = workload().into_iter().take(3).collect();
        CorpusGenerator::new(CorpusConfig {
            scale: 0.04,
            ..CorpusConfig::default()
        })
        .generate_for(&specs)
    });
    wwt::engine::bind_corpus_sharded(corpus, WwtConfig::default(), Some(2)).engine
}

/// An explain trace with timings zeroed and the host-dependent `threads`
/// detail (the core count) normalized, encoded.
fn pinned_trace(engine: &Engine, request: &QueryRequest) -> String {
    let response = engine.answer(&request.clone().explain(true)).unwrap();
    let mut trace = response.diagnostics.trace.expect("explain traces");
    trace.zero_timings();
    for span in &mut trace.spans {
        for (key, value) in &mut span.detail {
            if key == "threads" {
                *value = "N".to_string();
            }
        }
    }
    trace.to_json().to_string()
}

/// Exact outputs of the degraded and failing paths, pinned: the explain
/// trace of a request whose second probe fires and of one whose does
/// not, the `degraded_reasons` of every fail-soft absorb and stage
/// boundary, and the typed error (variant and stage) of the hard runs.
/// The other tests here only check reason substrings.
#[test]
fn degraded_reasons_traces_and_errors_are_pinned() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let requests = requests();
    let (fires, quiet) = (&requests[0], &requests[1]);

    assert_eq!(
        pinned_trace(&pinned_engine(), fires),
        concat!(
            r#"{"request_id":"","total_us":0,"spans":["#,
            r#"{"name":"probe1","duration_us":0,"detail":{"hits":"3","k":"60"},"children":[{"name":"shard0","duration_us":0},{"name":"shard1","duration_us":0}]},"#,
            r#"{"name":"read1","duration_us":0,"detail":{"tables":"3"}},"#,
            r#"{"name":"column_map:premap","duration_us":0,"detail":{"views":"3","threads":"N"},"children":[{"name":"view:1","duration_us":0},{"name":"view:0","duration_us":0},{"name":"view:2","duration_us":0}]},"#,
            r#"{"name":"probe2","duration_us":0,"detail":{"hits":"12","k":"12"},"children":[{"name":"shard0","duration_us":0},{"name":"shard1","duration_us":0}]},"#,
            r#"{"name":"column_map","duration_us":0,"detail":{"views":"15","threads":"N"},"children":[{"name":"view:1","duration_us":0},{"name":"view:0","duration_us":0},{"name":"view:2","duration_us":0},{"name":"view:45","duration_us":0},{"name":"view:110","duration_us":0},{"name":"view:124","duration_us":0},{"name":"view:38","duration_us":0},{"name":"view:13","duration_us":0}]},"#,
            r#"{"name":"consolidate","duration_us":0,"detail":{"relevant_tables":"2"}}],"#,
            r#""notes":{"probe1_shard_hits":"1,2","probe2_seeds":"2","probe2_shard_hits":"15,15","candidates":"15","docset_cache_entries":"0"}}"#,
        )
    );
    assert_eq!(
        pinned_trace(&pinned_engine(), quiet),
        concat!(
            r#"{"request_id":"","total_us":0,"spans":["#,
            r#"{"name":"probe1","duration_us":0,"detail":{"hits":"0","k":"60"},"children":[{"name":"shard0","duration_us":0},{"name":"shard1","duration_us":0}]},"#,
            r#"{"name":"read1","duration_us":0,"detail":{"tables":"0"}},"#,
            r#"{"name":"column_map:premap","duration_us":0,"detail":{"views":"0","threads":"N"}},"#,
            r#"{"name":"consolidate","duration_us":0,"detail":{"relevant_tables":"0"}}],"#,
            r#""notes":{"probe1_shard_hits":"0,0","probe2_seeds":"0","column_map":"reused premap","candidates":"0","docset_cache_entries":"0"}}"#,
        )
    );

    let engine = pinned_engine();
    let soft = fires.clone().fail_soft(true);
    let budgeted = |fail_soft: bool| fires.clone().deadline_ms(1000).fail_soft(fail_soft);
    let reasons =
        |request: &QueryRequest| engine.answer(request).unwrap().diagnostics.degraded_reasons;
    let error = |request: &QueryRequest| format!("{:?}", engine.answer(request).unwrap_err());

    wwt_chaos::arm("probe.shard=error").unwrap();
    assert_eq!(
        reasons(&soft),
        [
            "first probe: shard 0 dropped: io error: wwt-chaos: injected fault at probe.shard",
            "first probe: shard 1 dropped: io error: wwt-chaos: injected fault at probe.shard",
        ]
    );
    assert_eq!(
        error(fires),
        r#"Io(Custom { kind: Other, error: "wwt-chaos: injected fault at probe.shard" })"#
    );
    wwt_chaos::disarm_all();
    wwt_chaos::arm("map.batch=error").unwrap();
    assert_eq!(
        reasons(&soft),
        [
            "column mapping (premap): io error: wwt-chaos: injected fault at map.batch",
            "column mapping: io error: wwt-chaos: injected fault at map.batch",
        ]
    );
    assert_eq!(
        error(fires),
        r#"Io(Custom { kind: Other, error: "wwt-chaos: injected fault at map.batch" })"#
    );
    wwt_chaos::disarm_all();
    assert_eq!(
        error(&fires.clone().deadline_ms(0)),
        r#"DeadlineExceeded("retrieval")"#
    );

    // The second probe's first shard sleeps past the budget: the
    // deadline mapping cut.
    let shards = engine.n_shards() as u64;
    arm_on_hit(wwt_chaos::PROBE_SHARD, "delay:1500", shards);
    assert_eq!(
        reasons(&budgeted(true)),
        [
            "second probe: shard 1 dropped: deadline exceeded at second probe",
            "retrieval merge: candidate list truncated (deadline exceeded)",
            "column mapping: limited to first-probe candidates (deadline exceeded)",
            "consolidation: ran past the deadline",
        ]
    );
    arm_on_hit(wwt_chaos::PROBE_SHARD, "delay:1500", shards);
    assert_eq!(
        error(&budgeted(false)),
        r#"DeadlineExceeded("second probe")"#
    );
    wwt_chaos::disarm_all();

    // The premap's batch sleeps past the budget: every later boundary
    // trips, and with no premap to reuse the final mapper is skipped.
    wwt_chaos::arm("map.batch=delay:1500*1").unwrap();
    assert_eq!(
        reasons(&budgeted(true)),
        [
            "column mapping (premap): deadline exceeded at column mapping",
            "second probe: skipped (deadline exceeded)",
            "column mapping: skipped, no premap to reuse (deadline exceeded)",
            "consolidation: ran past the deadline",
        ]
    );
    wwt_chaos::arm("map.batch=delay:1500*1").unwrap();
    assert_eq!(
        error(&budgeted(false)),
        r#"DeadlineExceeded("column mapping")"#
    );
    wwt_chaos::disarm_all();
}
