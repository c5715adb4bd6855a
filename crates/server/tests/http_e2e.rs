//! End-to-end tests over real sockets: an ephemeral-port server, the
//! keep-alive client, byte-identity with in-process answers, metrics
//! content, and graceful shutdown draining in-flight requests.

use std::sync::Arc;
use wwt_engine::{bind_corpus, EngineBuilder, QueryRequest, WwtConfig};
use wwt_json::Json;
use wwt_server::{run_load, serve, HttpClient, ServerConfig, ServerHandle};
use wwt_service::{ServiceConfig, TableSearchService};

/// Two-table currency engine: instant to build, answers in microseconds.
fn tiny_service() -> Arc<TableSearchService> {
    let mut b = EngineBuilder::new();
    for i in 0..2 {
        b.add_html(&format!(
            "<html><head><title>currencies {i}</title></head><body>\
             <p>List of countries and their currency</p>\
             <table><tr><th>Country</th><th>Currency</th></tr>\
             <tr><td>India</td><td>Rupee</td></tr>\
             <tr><td>Japan</td><td>Yen</td></tr></table></body></html>"
        ));
    }
    Arc::new(TableSearchService::new(Arc::new(b.build())))
}

/// A corpus-backed engine whose cold queries take real milliseconds —
/// slow enough that a shutdown can race an in-flight request. Built once
/// and shared: the corpus generation dominates the test binary's time.
fn slow_service(cache: bool) -> Arc<TableSearchService> {
    static ENGINE: std::sync::OnceLock<Arc<wwt_engine::Engine>> = std::sync::OnceLock::new();
    let engine = ENGINE.get_or_init(|| {
        let specs: Vec<_> = wwt_corpus::workload()
            .into_iter()
            .filter(|s| s.query.to_string().starts_with("country | currency"))
            .collect();
        let corpus = wwt_corpus::CorpusGenerator::new(wwt_corpus::CorpusConfig::small())
            .generate_for(&specs);
        Arc::new(bind_corpus(&corpus, WwtConfig::default()).engine)
    });
    let config = ServiceConfig {
        cache_capacity: if cache { 1024 } else { 0 },
        ..ServiceConfig::default()
    };
    Arc::new(TableSearchService::with_config(Arc::clone(engine), config))
}

fn start(service: Arc<TableSearchService>) -> ServerHandle {
    serve(service, ServerConfig::default()).expect("bind ephemeral port")
}

#[test]
fn healthz_stats_and_unknown_routes() {
    let handle = start(tiny_service());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "{\"status\":\"ok\",\"generation\":0}");

    let version = client.get("/version").unwrap();
    assert_eq!(version.status, 200);
    let v = Json::parse(&version.text()).unwrap();
    assert_eq!(
        v.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(matches!(
        v.get("profile").and_then(Json::as_str),
        Some("debug") | Some("release")
    ));
    assert_eq!(v.get("generation").and_then(Json::as_u64), Some(0));

    // Fresh server: stats must report a 0.0 (never NaN) hit rate.
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let v = Json::parse(&stats.text()).unwrap();
    assert_eq!(v.get("hits").and_then(Json::as_u64), Some(0));
    assert_eq!(v.get("hit_rate").and_then(Json::as_f64), Some(0.0));

    let missing = client.get("/nope").unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client.get("/query").unwrap();
    assert_eq!(wrong_method.status, 405);
    assert!(wrong_method.text().contains("requires POST"));

    handle.shutdown();
}

#[test]
fn parse_errors_answer_400_engine_stays_up() {
    let handle = start(tiny_service());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    for (body, needle) in [
        ("{", "invalid json"),
        (r#"{"query":" | "}"#, "no column keywords"),
        (
            r#"{"query":"a","options":{"algorithm":"magic"}}"#,
            "unknown algorithm",
        ),
        (r#"{"typo":"a"}"#, "unknown field"),
    ] {
        let resp = client.post("/query", body).unwrap();
        assert_eq!(resp.status, 400, "{body}");
        let v = Json::parse(&resp.text()).unwrap();
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains(needle), "{msg:?} !~ {needle:?}");
    }

    // Invalid engine options (WwtError::Invalid) are the client's fault:
    // 400, not 5xx-alert noise.
    let resp = client
        .post(
            "/query",
            r#"{"query":"country | currency","options":{"probe1_k":0}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 400);

    // The same connection still serves good requests afterwards.
    let ok = client
        .post("/query", r#"{"query":"country | currency"}"#)
        .unwrap();
    assert_eq!(ok.status, 200);
    handle.shutdown();
}

#[test]
fn query_response_is_byte_identical_to_in_process_answer() {
    let service = tiny_service();
    let handle = start(Arc::clone(&service));

    // Answer in-process first: the HTTP request then hits the same cache
    // entry, so the serialized bytes must match exactly (timings and
    // all).
    let request = QueryRequest::parse("country | currency").unwrap();
    let reference = service.answer(&request).unwrap();
    let expected = wwt_server::encode_response(&request, &reference);

    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client
        .post("/query", r#"{"query":"country | currency"}"#)
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), expected, "wire bytes != in-process encoding");

    // Sanity on the payload itself.
    let v = Json::parse(&resp.text()).unwrap();
    assert_eq!(
        v.get("columns").and_then(Json::as_arr).map(<[Json]>::len),
        Some(2)
    );
    let rows = v.get("rows").and_then(Json::as_arr).unwrap();
    assert!(!rows.is_empty());
    let india = rows
        .iter()
        .find(|r| {
            r.get("cells")
                .and_then(Json::as_arr)
                .is_some_and(|c| c.first().and_then(Json::as_str) == Some("India"))
        })
        .expect("India row");
    assert_eq!(india.get("support").and_then(Json::as_u64), Some(2));
    assert!(v
        .get("diagnostics")
        .and_then(|d| d.get("timing_us"))
        .is_some());
    handle.shutdown();
}

#[test]
fn options_roundtrip_over_the_wire() {
    let handle = start(tiny_service());
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client
        .post(
            "/query",
            r#"{"query":"country | currency","options":{"max_rows":1,"algorithm":"independent"}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let v = Json::parse(&resp.text()).unwrap();
    assert_eq!(
        v.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
    let d = v.get("diagnostics").unwrap();
    assert!(d.get("rows_before_limit").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn batch_preserves_slots_including_errors() {
    let handle = start(tiny_service());
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client
        .post(
            "/query/batch",
            r#"{"requests":[
                {"query":"country | currency"},
                {"query":"country | currency","options":{"probe1_k":0}},
                {"query":"currency"}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let v = Json::parse(&resp.text()).unwrap();
    let slots = v.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(slots.len(), 3);
    assert!(slots[0].get("rows").is_some());
    // The bad-options slot carries an error object without failing the
    // batch.
    let err = slots[1].get("error").expect("error slot");
    assert_eq!(err.get("status").and_then(Json::as_u64), Some(400));
    assert!(slots[2].get("rows").is_some());
    handle.shutdown();
}

#[test]
fn concurrent_requests_are_byte_identical_across_connections() {
    const CONNECTIONS: usize = 8;
    const REQUESTS_PER_CONNECTION: usize = 12;
    let service = tiny_service();
    let handle = start(Arc::clone(&service));

    let bodies = [
        (r#"{"query":"country | currency"}"#, "country | currency"),
        (r#"{"query":"currency"}"#, "currency"),
    ];
    // In-process references (shared cache ⇒ identical bytes over HTTP).
    let expected: Vec<String> = bodies
        .iter()
        .map(|(_, q)| {
            let req = QueryRequest::parse(q).unwrap();
            let resp = service.answer(&req).unwrap();
            wwt_server::encode_response(&req, &resp)
        })
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            let addr = handle.addr();
            let bodies = &bodies;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..REQUESTS_PER_CONNECTION {
                    let (body, _) = bodies[i % bodies.len()];
                    let resp = client.post("/query", body).unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.text(), expected[i % bodies.len()]);
                }
            });
        }
    });

    let served = handle.metrics().requests_total();
    assert_eq!(served, (CONNECTIONS * REQUESTS_PER_CONNECTION) as u64);
    handle.shutdown();
}

#[test]
fn metrics_expose_requests_latency_histogram_and_cache_stats() {
    let handle = start(tiny_service());
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    client
        .post("/query", r#"{"query":"country | currency"}"#)
        .unwrap();
    client
        .post("/query", r#"{"query":"country | currency"}"#)
        .unwrap();
    client.post("/query", r#"{"query":" | "}"#).unwrap();

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = resp.text();
    assert!(text.contains("wwt_http_requests_total{route=\"query\",code=\"200\"} 2\n"));
    assert!(text.contains("wwt_http_requests_total{route=\"query\",code=\"400\"} 1\n"));
    assert!(text.contains("# TYPE wwt_http_request_duration_seconds histogram"));
    assert!(text.contains("wwt_http_request_duration_seconds_bucket{le=\"+Inf\"} 3\n"));
    assert!(text.contains("wwt_http_request_duration_seconds_count 3\n"));
    assert!(text.contains("wwt_cache_hits_total 1\n"));
    assert!(text.contains("wwt_cache_misses_total 1\n"));
    assert!(text.contains("wwt_cache_coalesced_total 0\n"));
    assert!(text.contains("wwt_cache_entries 1\n"));
    // The /metrics request itself is mid-dispatch while rendering.
    assert!(text.contains("wwt_http_requests_in_flight 1\n"));
    handle.shutdown();
}

#[test]
fn load_generator_drives_the_server() {
    let handle = start(tiny_service());
    let report = run_load(
        handle.addr(),
        &[
            r#"{"query":"country | currency"}"#.to_string(),
            r#"{"query":"currency"}"#.to_string(),
        ],
        4,
        25,
    );
    assert_eq!(report.ok, 100, "{report:?}");
    assert_eq!(report.errors, 0);
    assert!(report.p50 <= report.p99 && report.p99 <= report.max);
    assert!(report.throughput() > 0.0);
    handle.shutdown();
}

#[test]
fn deadlines_map_to_504_with_their_own_counter_and_change_nothing_when_generous() {
    let service = slow_service(true);
    let handle = start(Arc::clone(&service));
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // A zero budget is shed at admission: 504 before the request ever
    // reaches the service, so the engine stays untouched, nothing is
    // cached, and only the HTTP-level counters tick.
    let resp = client
        .post(
            "/query",
            r#"{"query":"country | currency | deadline probe","options":{"deadline_ms":0}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    let v = Json::parse(&resp.text()).unwrap();
    let msg = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("deadline exceeded"), "{msg:?}");
    assert!(msg.contains("admission"), "{msg:?}");

    // The dedicated counters tick — deadline and shed in Prometheus,
    // while the service-level stat stays 0 (the service never ran).
    let metrics = client.get("/metrics").unwrap().text();
    assert!(
        metrics.contains("wwt_http_deadline_exceeded_total 1\n"),
        "{metrics}"
    );
    assert!(metrics.contains("wwt_queries_shed_total 1\n"), "{metrics}");
    let stats = Json::parse(&client.get("/stats").unwrap().text()).unwrap();
    assert_eq!(
        stats.get("deadline_exceeded").and_then(Json::as_u64),
        Some(0)
    );

    // No deadline, then a generous deadline: byte-identical responses
    // (the deadline is excluded from the cache key, so the second is the
    // same cached entry).
    let body = r#"{"query":"country | currency"}"#;
    let plain = client.post("/query", body).unwrap();
    assert_eq!(plain.status, 200);
    let generous = client
        .post(
            "/query",
            r#"{"query":"country | currency","options":{"deadline_ms":60000}}"#,
        )
        .unwrap();
    assert_eq!(generous.status, 200);
    assert_eq!(
        generous.text(),
        plain.text(),
        "a deadline that never trips must not change the response bytes"
    );

    // Batch slots carry per-slot 504 errors without failing the batch.
    let resp = client
        .post(
            "/query/batch",
            r#"{"requests":[
                {"query":"country | currency"},
                {"query":"country | currency | other probe","options":{"deadline_ms":0}}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let v = Json::parse(&resp.text()).unwrap();
    let slots = v.get("responses").and_then(Json::as_arr).unwrap();
    assert!(slots[0].get("rows").is_some());
    assert_eq!(
        slots[1]
            .get("error")
            .and_then(|e| e.get("status"))
            .and_then(Json::as_u64),
        Some(504)
    );
    handle.shutdown();
}

#[test]
fn admin_shutdown_requires_a_configured_matching_token() {
    // No token configured: the route does not exist, the server stays up.
    let handle = start(tiny_service());
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client.post("/admin/shutdown", "").unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();

    // Token configured: wrong/missing tokens are 403 and leave the
    // server up; the right token (either header form) shuts it down.
    let config = ServerConfig {
        admin_token: Some("sesame".to_string()),
        ..ServerConfig::default()
    };
    let handle = serve(tiny_service(), config).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    assert_eq!(client.post("/admin/shutdown", "").unwrap().status, 403);
    let wrong = client
        .post_with_headers("/admin/shutdown", "", &[("x-admin-token", "guess")])
        .unwrap();
    assert_eq!(wrong.status, 403);
    let wrong_bearer = client
        .post_with_headers("/admin/shutdown", "", &[("authorization", "Bearer guess")])
        .unwrap();
    assert_eq!(wrong_bearer.status, 403);
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let ok = client
        .post_with_headers("/admin/shutdown", "", &[("x-admin-token", "sesame")])
        .unwrap();
    assert_eq!(ok.status, 200);
    handle.wait_shutdown_requested();
    handle.shutdown();
}

#[test]
fn keep_alive_connections_are_rotated_after_the_request_cap() {
    let config = ServerConfig {
        max_requests_per_connection: 2,
        ..ServerConfig::default()
    };
    let handle = serve(tiny_service(), config).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let first = client.get("/healthz").unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    // The capped request still succeeds but closes the connection.
    let second = client.get("/healthz").unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("connection"), Some("close"));
    assert!(
        client.get("/healthz").is_err(),
        "connection must be closed after the per-connection cap"
    );
    // A fresh connection serves again.
    let mut fresh = HttpClient::connect(handle.addr()).unwrap();
    assert_eq!(fresh.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn a_waiting_connection_is_served_while_keep_alive_clients_stay_busy() {
    // Two workers, two clients looping keep-alive requests, and no
    // request cap to rotate them out: a third connection (an operator's
    // scrape) must still be answered promptly instead of waiting in the
    // accept queue until a busy client lets go.
    let config = ServerConfig {
        workers: 2,
        max_requests_per_connection: usize::MAX,
        ..ServerConfig::default()
    };
    let handle = serve(tiny_service(), config).unwrap();
    let addr = handle.addr();
    let stop = std::sync::atomic::AtomicBool::new(false);
    // Released once each busy client has been served on its connection,
    // so both workers are taken before the scrape connects.
    let both_served = std::sync::Barrier::new(3);
    let busy_until = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let waited = std::thread::scope(|scope| {
        for _ in 0..2 {
            let (stop, both_served) = (&stop, &both_served);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                assert_eq!(client.get("/healthz").unwrap().status, 200);
                both_served.wait();
                while !stop.load(std::sync::atomic::Ordering::Relaxed)
                    && std::time::Instant::now() < busy_until
                {
                    assert_eq!(client.get("/healthz").unwrap().status, 200);
                }
            });
        }
        both_served.wait();
        let t0 = std::time::Instant::now();
        let mut scrape = HttpClient::connect(addr).unwrap();
        let status = scrape.get("/healthz").map(|r| r.status);
        let waited = t0.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(status.ok(), Some(200));
        waited
    });
    assert!(
        waited < std::time::Duration::from_secs(2),
        "a new connection waited {waited:?} behind busy keep-alive clients"
    );
    handle.shutdown();
}

#[test]
fn accept_queue_overflow_answers_503_instead_of_queueing_unbounded() {
    // One worker and a one-slot queue. Idle keep-alive connections never
    // send a request, so the worker pins on the first one (until its
    // read timeout) and the queue fills with the second; every accept
    // after that must be turned away with 503 instead of queueing
    // without bound.
    let config = ServerConfig {
        workers: 1,
        pending_connections: 1,
        ..ServerConfig::default()
    };
    let handle = serve(tiny_service(), config).unwrap();
    let addr = handle.addr();

    let idle: Vec<HttpClient> = (0..4).map(|_| HttpClient::connect(addr).unwrap()).collect();
    let mut probe = HttpClient::connect(addr).unwrap();
    let resp = probe.get("/healthz").unwrap();
    assert_eq!(resp.status, 503, "full accept queue must answer 503");
    assert_eq!(resp.header("connection"), Some("close"));
    assert_eq!(
        resp.header("retry-after"),
        Some("1"),
        "503 must tell clients when to retry"
    );
    assert!(resp.text().contains("capacity"), "{}", resp.text());

    // Freeing the idle connections unclogs the pool; a new client is
    // served again once the worker drains the closed connections.
    drop(idle);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let ok = HttpClient::connect(addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_ok_and(|r| r.status == 200);
        if ok {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never recovered after idle connections closed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    // Cache off so the query actually runs the (slow) engine while the
    // shutdown races it.
    let service = slow_service(false);
    let handle = start(Arc::clone(&service));
    let addr = handle.addr();

    // Fire the (slow, uncached) request, then shut the server down while
    // it is being dispatched.
    let in_flight = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.post("/query", r#"{"query":"country | currency"}"#)
    });
    // Wait until a worker has actually picked the request up (or even
    // finished it) — no sleep race with the client thread's connect.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.metrics().in_flight() == 0 && handle.metrics().requests_total() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "request never reached the server"
        );
        std::thread::yield_now();
    }
    handle.shutdown(); // returns only after every worker exited

    let resp = in_flight
        .join()
        .unwrap()
        .expect("in-flight request must complete during graceful shutdown");
    assert_eq!(resp.status, 200);
    let v = Json::parse(&resp.text()).expect("drained response must be complete JSON");
    assert!(v.get("rows").is_some());

    // After shutdown the port no longer accepts work.
    assert!(
        HttpClient::connect(addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_err(),
        "server must be gone after shutdown"
    );
}

#[test]
fn singleflight_coalesces_identical_http_requests() {
    const CALLERS: usize = 6;
    let service = slow_service(true);
    let handle = start(Arc::clone(&service));
    let addr = handle.addr();

    let barrier = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                barrier.wait();
                let resp = client
                    .post("/query", r#"{"query":"country | currency"}"#)
                    .unwrap();
                assert_eq!(resp.status, 200);
            });
        }
    });

    let stats = service.stats();
    assert_eq!(
        stats.misses, 1,
        "one engine run for {CALLERS} callers: {stats:?}"
    );
    assert_eq!(stats.hits + stats.coalesced, (CALLERS - 1) as u64);
    handle.shutdown();
}
