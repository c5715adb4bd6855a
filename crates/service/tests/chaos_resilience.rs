//! Fault-injected resilience tests for the serving layer.
//!
//! These live in their own integration-test binary because `wwt_chaos`
//! failpoints are process-global: arming one here cannot poison the
//! service's unit tests, which run in a different process. Within this
//! binary every test serializes on [`CHAOS`].

use std::sync::{Arc, Barrier, Mutex};
use wwt_engine::{EngineBuilder, QueryRequest};
use wwt_index::{FsyncPolicy, Journal};
use wwt_model::{TableId, WebTable, WwtError};
use wwt_service::TableSearchService;

/// Failpoints are process-global; every test arms under this lock.
static CHAOS: Mutex<()> = Mutex::new(());

fn tiny_service() -> TableSearchService {
    let page = "<html><body><p>countries and currency</p><table>\
         <tr><th>Country</th><th>Currency</th></tr>\
         <tr><td>India</td><td>Rupee</td></tr>\
         <tr><td>Japan</td><td>Yen</td></tr></table></body></html>";
    let mut b = EngineBuilder::new();
    b.add_html(page);
    TableSearchService::new(Arc::new(b.build()))
}

fn volcano_table() -> WebTable {
    WebTable::new(
        TableId(9_000),
        "live://volcano",
        Some("Volcano heights".into()),
        vec![vec!["Volcano".into(), "Elevation".into()]],
        vec![
            vec!["Etna".into(), "3329".into()],
            vec!["Fuji".into(), "3776".into()],
        ],
        vec![],
    )
    .unwrap()
}

/// A pipeline panic under a singleflight leader must neither hang the
/// followers nor kill any thread: every concurrent caller gets a typed
/// `WwtError::Internal`, and once the fault clears the same query
/// answers normally.
#[test]
fn panicking_leader_never_hangs_followers() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let service = Arc::new(tiny_service());
    let req = QueryRequest::parse("country | currency").unwrap();

    wwt_chaos::arm("probe.shard=panic").unwrap();
    const CALLERS: usize = 6;
    let barrier = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..CALLERS {
            let service = Arc::clone(&service);
            let req = req.clone();
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                service.answer(&req)
            }));
        }
        for h in handles {
            // join() returning at all proves no follower hung on the
            // abandoned flight; the leader's panic was converted, not
            // propagated, so no test thread dies either.
            match h.join().expect("caller thread must not die") {
                Err(WwtError::Internal(m)) => {
                    assert!(m.contains("panicked"), "error names the panic: {m}")
                }
                other => panic!("expected Internal from an injected panic, got {other:?}"),
            }
        }
    });
    let stats = service.stats();
    assert!(
        stats.internal_errors >= 1,
        "caught panics must be counted: {stats:?}"
    );
    assert_eq!(stats.entries, 0, "failed flights must cache nothing");

    // The fault clears; the very same query now answers.
    wwt_chaos::disarm_all();
    assert!(!service.answer(&req).unwrap().table.is_empty());
}

/// The explain path bypasses singleflight but shares the same panic
/// barrier: an injected panic surfaces as `Internal` with the request
/// recorded, never an unwound worker.
#[test]
fn explain_path_isolates_panics_too() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let service = tiny_service();
    let req = QueryRequest::parse("country | currency")
        .unwrap()
        .explain(true);

    wwt_chaos::arm("map.batch=panic").unwrap();
    let result = service.answer_observed(&req, "rid-chaos");
    wwt_chaos::disarm_all();

    assert!(matches!(result, Err(WwtError::Internal(_))), "{result:?}");
    assert_eq!(service.stats().internal_errors, 1);
    // The failed flight is retained and attributable by request id.
    let record = service.find_trace("rid-chaos").expect("anomaly retained");
    assert!(record
        .trace
        .notes
        .iter()
        .any(|(k, v)| k == "error" && v.contains("internal error")));
}

/// Transient journal-append faults are absorbed by the bounded retry;
/// a persistent fault trips sticky read-only degraded mode (mutations
/// 503, queries unaffected) until the operator recovers the service.
/// A flight record names the generation of the snapshot that answered,
/// not the one serving when the query finished: an ingest landing while
/// a slow query runs must not relabel it.
#[test]
fn flight_records_name_the_generation_that_answered() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let service = tiny_service();
    let req = QueryRequest::parse("country | currency")
        .unwrap()
        .explain(true);
    wwt_chaos::arm("probe.shard=delay:300*1").unwrap();
    std::thread::scope(|scope| {
        let query = scope.spawn(|| service.answer_observed(&req, "slow-gen").unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(service.ingest_table(volcano_table()).unwrap(), 1);
        query.join().unwrap();
    });
    wwt_chaos::disarm_all();
    let record = service
        .find_trace("slow-gen")
        .expect("the query was recorded");
    assert_eq!(record.generation, 0);
    let noted = record.trace.notes.iter().find(|(k, _)| k == "generation");
    assert_eq!(noted.map(|(_, v)| v.as_str()), Some("0"));
}

#[test]
fn journal_faults_retry_then_stick_read_only_then_recover() {
    let _guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    wwt_chaos::disarm_all();
    let dir = std::env::temp_dir().join(format!("wwt-chaos-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let service = tiny_service();
    let (journal, _) = Journal::open(&dir.join("journal.wal"), FsyncPolicy::Never).unwrap();
    service.attach_journal(journal, None);
    let query = QueryRequest::parse("country | currency").unwrap();

    // One transient fault: the retry loop rides it out and the mutation
    // is acknowledged as if nothing happened.
    wwt_chaos::arm("journal.append=error*1").unwrap();
    service.ingest_table(volcano_table()).unwrap();
    let stats = service.stats();
    assert!(stats.journal_retries >= 1, "{stats:?}");
    assert!(!stats.read_only);
    assert_eq!(stats.journal_records, 1);

    // A persistent fault exhausts the retries: the mutation is refused
    // and the service turns sticky read-only.
    wwt_chaos::arm("journal.append=error").unwrap();
    match service.remove_table(TableId(9_000)) {
        Err(WwtError::Unavailable(m)) => assert!(m.contains("journal append failed"), "{m}"),
        other => panic!("exhausted retries must map to Unavailable, got {other:?}"),
    }
    assert!(service.read_only());
    // Stickiness: even though the next mutation might succeed, it is
    // refused up front — no half-durable acknowledgements.
    match service.ingest_table(volcano_table()) {
        Err(WwtError::Unavailable(m)) => assert!(m.contains("read-only"), "{m}"),
        other => panic!("read-only mode must fail fast, got {other:?}"),
    }
    // Queries never consult the write path.
    assert!(!service.answer(&query).unwrap().table.is_empty());

    // Operator recovery: clear the fault and the mode; mutations flow
    // and land in the journal again.
    wwt_chaos::disarm_all();
    service.clear_read_only();
    service.remove_table(TableId(9_000)).unwrap();
    let stats = service.stats();
    assert!(!stats.read_only);
    assert_eq!(stats.journal_records, 2, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}
