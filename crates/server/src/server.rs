//! The accept loop, worker pool and request dispatch.
//!
//! One acceptor thread feeds accepted connections into a *bounded*
//! `mpsc` channel drained by a fixed pool of worker threads (the channel
//! mutex is the classic std work queue — workers block in `recv` one at
//! a time). When the queue is full the acceptor answers 503 and closes,
//! so an accept flood cannot grow memory without limit; keep-alive
//! connections are additionally bounded by a per-connection request cap
//! and the idle read timeout, so slow clients cannot pin workers
//! forever. A worker that finishes a request while another connection
//! waits in the queue with no worker free puts its keep-alive
//! connection back at the end of the queue and takes the waiting one,
//! so busy clients cannot starve a new one (an operator's scrape).
//! Shutdown is graceful by construction: the acceptor stops
//! accepting and drops the channel sender, workers finish every request
//! already accepted — in-flight and queued — and then exit on channel
//! disconnect; [`ServerHandle::shutdown`] joins them all before
//! returning.

use crate::http::{self, ReadError, Request};
use crate::metrics::{Metrics, Route};
use crate::source::EngineSource;
use crate::wire;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wwt_json::Json;
use wwt_model::WwtError;
use wwt_obs::{log, LogLevel, Stage};
use wwt_service::TableSearchService;

/// Process-wide sequence for generated request ids (clients that send no
/// `x-request-id` still get a correlatable one back).
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// The request's `x-request-id`, or a generated `wwt-{pid}-{seq}` one.
/// Echoed on every response and stamped on the query's flight record.
fn request_id_of(request: &Request) -> String {
    match request.header("x-request-id") {
        // Bound and sanitize: the id is echoed into a response header,
        // so strip anything that could split a header line.
        Some(id) if !id.is_empty() && id.len() <= 128 => id
            .chars()
            .filter(|c| c.is_ascii_graphic())
            .collect::<String>(),
        _ => generated_request_id(),
    }
}

fn generated_request_id() -> String {
    format!(
        "wwt-{}-{}",
        std::process::id(),
        REQUEST_SEQ.fetch_add(1, Ordering::Relaxed) + 1
    )
}

/// Serving knobs for one [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-read socket timeout; an idle keep-alive connection is closed
    /// after this long.
    pub read_timeout: Duration,
    /// Maximum accepted request-body size (413 above it).
    pub max_body_bytes: usize,
    /// Accepted connections allowed to wait for a free worker. Beyond
    /// this the acceptor answers 503 and closes instead of queueing
    /// without bound.
    pub pending_connections: usize,
    /// Requests served on one keep-alive connection in a row (a hand-off
    /// to a waiting connection restarts the count) before the server
    /// closes it, so a long-lived client cannot pin a worker of the
    /// fixed pool indefinitely.
    pub max_requests_per_connection: usize,
    /// Shared secret required by the admin routes (`POST
    /// /admin/shutdown`, `POST /admin/reload`), via an `x-admin-token`
    /// or `Authorization: Bearer …` header. `None` disables the admin
    /// routes entirely (they answer 404) — remote shutdown/reload must
    /// be opted into, never reachable by default.
    pub admin_token: Option<String>,
    /// Where `POST /admin/reload` rebuilds the engine from. `None`
    /// leaves the route answering 409: the server then has no way to
    /// reconstruct its index.
    pub engine_source: Option<EngineSource>,
    /// Per-route concurrency limit on the expensive routes (`POST
    /// /query` + `POST /query/batch` share one budget, each batch
    /// weighing its slot count): once this many queries are in flight,
    /// further query requests answer 429 with `Retry-After` instead of
    /// queueing behind a saturated engine. Cheap routes (health, stats,
    /// metrics, admin) are never limited, so the server stays observable
    /// under load. `0` disables the limit.
    ///
    /// Sizing note: single-query traffic is also bounded by the worker
    /// pool (at most `workers` requests are ever in dispatch), so for
    /// `/query` alone the gate only engages when set *below* `workers`.
    /// The default of 256 exists for batch traffic, where a handful of
    /// admitted requests can represent hundreds of engine-bound queries.
    pub max_concurrent_queries: usize,
    /// Delta-segment size that triggers a background compaction after a
    /// live ingest (`POST /admin/tables`): once the delta holds this
    /// many tables, the server folds it into a freshly built frozen
    /// engine off the request path. `0` disables auto-compaction —
    /// operators then compact explicitly via `POST /admin/compact`.
    pub max_delta_tables: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(16))
                .unwrap_or(4),
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
            pending_connections: 256,
            max_requests_per_connection: 1024,
            admin_token: None,
            engine_source: None,
            max_concurrent_queries: 256,
            max_delta_tables: 0,
        }
    }
}

/// State shared by the acceptor, the workers and the handle.
struct Shared {
    service: Arc<TableSearchService>,
    metrics: Metrics,
    config: ServerConfig,
    addr: SocketAddr,
    /// Once true, the acceptor stops and finished responses close their
    /// connections. Never unset.
    stopping: AtomicBool,
    /// Signalled when `POST /admin/shutdown` asks the owner to stop
    /// (`bool` = a request was seen).
    shutdown_requested: (Mutex<bool>, Condvar),
    /// True while a background engine rebuild is running; a second
    /// `POST /admin/reload` is refused (409) instead of racing it.
    reloading: AtomicBool,
    /// The most recent reload failure, surfaced by the next `/admin/reload`
    /// response so operators see why the generation never bumped.
    last_reload_error: Mutex<Option<String>>,
    /// True while a background delta compaction is running; further
    /// triggers (auto or explicit) are skipped/refused instead of piling
    /// up rebuild threads. The service's own mutation lock keeps the
    /// data safe either way — this flag only bounds thread count.
    compacting: AtomicBool,
    /// Query/batch requests currently being dispatched, gated by
    /// `config.max_concurrent_queries`.
    queries_in_flight: AtomicUsize,
    /// The sending half of the connection queue, shared by the acceptor
    /// and the workers that hand a keep-alive connection back. The
    /// acceptor drops it on exit, so workers drain the queue and stop.
    queue: Mutex<Option<SyncSender<TcpStream>>>,
    /// Connections waiting in the queue for a worker.
    queued_connections: AtomicUsize,
    /// Workers waiting for a connection.
    idle_workers: AtomicUsize,
}

/// Acquired slots of the query-concurrency budget; released on drop
/// (including on a panicking dispatch, so a crash never leaks capacity).
struct QueryPermit<'a> {
    shared: &'a Shared,
    weight: usize,
}

impl Drop for QueryPermit<'_> {
    fn drop(&mut self) {
        self.shared
            .queries_in_flight
            .fetch_sub(self.weight, Ordering::SeqCst);
    }
}

/// The shared 429 answer for a saturated query budget.
fn reject_at_capacity(shared: &Shared, route: Route) -> (Route, u16, &'static str, String) {
    shared.metrics.note_query_rejected();
    let err = wire::ApiError {
        status: 429,
        message: format!(
            "query concurrency limit ({}) reached; retry later",
            shared.config.max_concurrent_queries
        ),
    };
    (route, 429, "application/json", wire::encode_error(&err))
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Queues a connection for the workers, or gives it back when the
    /// queue is full or closed.
    fn enqueue(&self, stream: TcpStream) -> Result<(), TrySendError<TcpStream>> {
        let queue = self.queue.lock().expect("connection queue lock poisoned");
        let Some(tx) = queue.as_ref() else {
            return Err(TrySendError::Disconnected(stream));
        };
        self.queued_connections.fetch_add(1, Ordering::SeqCst);
        tx.try_send(stream).inspect_err(|_| {
            self.queued_connections.fetch_sub(1, Ordering::SeqCst);
        })
    }

    /// True while a connection waits in the queue and every worker is
    /// busy. Idle is read first: a worker taking a connection leaves the
    /// queue count before the idle count, so a hand-off in progress never
    /// reads as a wait.
    fn connection_waiting(&self) -> bool {
        self.idle_workers.load(Ordering::SeqCst) == 0
            && self.queued_connections.load(Ordering::SeqCst) > 0
    }

    /// Tries to take `weight` slots of the query-concurrency budget
    /// (one per query, so a 64-slot batch weighs 64). Admission is
    /// saturation-based: a request is admitted while the budget is not
    /// yet full and may overshoot it by its own weight — otherwise a
    /// batch heavier than the whole cap could never run — but once
    /// saturated, everything is refused until slots free up. `None`
    /// means answer 429.
    fn try_acquire_query_slots(&self, weight: usize) -> Option<Option<QueryPermit<'_>>> {
        let cap = self.config.max_concurrent_queries;
        if cap == 0 {
            return Some(None); // unlimited: nothing to hold or release
        }
        let prev = self.queries_in_flight.fetch_add(weight, Ordering::SeqCst);
        if prev >= cap {
            self.queries_in_flight.fetch_sub(weight, Ordering::SeqCst);
            None
        } else {
            Some(Some(QueryPermit {
                shared: self,
                weight,
            }))
        }
    }

    /// Flips the stop flag (the polling acceptor observes it within one
    /// poll interval) and wakes anyone parked in
    /// [`ServerHandle::wait_shutdown_requested`].
    fn begin_stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let (lock, cv) = &self.shutdown_requested;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
}

/// A running server: join handles plus the shared state.
///
/// Dropping the handle shuts the server down gracefully; call
/// [`ServerHandle::shutdown`] to do it explicitly.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<TableSearchService> {
        &self.shared.service
    }

    /// The serving-layer counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Blocks until a `POST /admin/shutdown` arrives (or shutdown is
    /// triggered some other way). The binary parks its main thread here.
    pub fn wait_shutdown_requested(&self) {
        let (lock, cv) = &self.shared.shutdown_requested;
        let mut requested = lock.lock().unwrap();
        while !*requested {
            requested = cv.wait(requested).unwrap();
        }
    }

    /// Graceful shutdown: stop accepting, finish every accepted request
    /// (in-flight and queued), join all threads. Returns the total
    /// number of requests served, read *after* the drain so requests
    /// completed during shutdown are counted.
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_impl();
        self.shared.metrics.requests_total()
    }

    fn shutdown_impl(&mut self) {
        self.shared.begin_stop();
        if let Some(acceptor) = self.acceptor.take() {
            drop(acceptor.join());
        }
        for worker in self.workers.drain(..) {
            drop(worker.join());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_impl();
        }
    }
}

/// Binds the address and starts serving `service` on a worker pool.
pub fn serve(
    service: Arc<TableSearchService>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Bounded: an accept flood beyond the backlog is answered 503 and
    // dropped instead of queueing connections without limit.
    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
        mpsc::sync_channel(config.pending_connections.max(1));
    let shared = Arc::new(Shared {
        service,
        metrics: Metrics::new(),
        config,
        addr,
        stopping: AtomicBool::new(false),
        shutdown_requested: (Mutex::new(false), Condvar::new()),
        reloading: AtomicBool::new(false),
        last_reload_error: Mutex::new(None),
        compacting: AtomicBool::new(false),
        queries_in_flight: AtomicUsize::new(0),
        queue: Mutex::new(Some(tx)),
        queued_connections: AtomicUsize::new(0),
        idle_workers: AtomicUsize::new(0),
    });

    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("wwt-http-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn http worker")
        })
        .collect();

    // Non-blocking accept with a short poll: the acceptor re-checks the
    // stop flag at least every poll interval, so shutdown can never hang
    // on a blocked `accept` even if the wake-up poke connection fails
    // (firewalled self-connects, exhausted local ports, …).
    listener.set_nonblocking(true)?;
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("wwt-http-accept".to_string())
            .spawn(move || {
                while !shared.stopping() {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // The worker side expects blocking reads.
                            if stream.set_nonblocking(false).is_err() {
                                continue;
                            }
                            match shared.enqueue(stream) {
                                Ok(()) => {}
                                Err(TrySendError::Full(mut stream)) => {
                                    // Backpressure: tell the client to
                                    // retry rather than parking its
                                    // connection in an unbounded queue.
                                    let err = wire::ApiError {
                                        status: 503,
                                        message: "server at capacity; retry later".to_string(),
                                    };
                                    shared.metrics.observe(Route::Other, 503, Duration::ZERO);
                                    // Retry-After tells well-behaved
                                    // clients when backing off is enough
                                    // (the queue drains in well under a
                                    // second unless the pool is wedged).
                                    // The request was never read, so the
                                    // echoed id is a generated one.
                                    let request_id = generated_request_id();
                                    drop(http::write_response_with(
                                        &mut stream,
                                        503,
                                        "application/json",
                                        wire::encode_error(&err).as_bytes(),
                                        false,
                                        &[("retry-after", "1"), ("x-request-id", &request_id)],
                                    ));
                                    // Best-effort drain of request bytes
                                    // that already arrived: closing with
                                    // unread data RSTs the connection,
                                    // which can discard the buffered 503
                                    // before the client reads it.
                                    // Non-blocking and bounded so a
                                    // streaming client cannot stall the
                                    // acceptor.
                                    if stream.set_nonblocking(true).is_ok() {
                                        let mut sink = [0u8; 4096];
                                        for _ in 0..16 {
                                            match stream.read(&mut sink) {
                                                Ok(n) if n > 0 => {}
                                                _ => break,
                                            }
                                        }
                                    }
                                }
                                Err(TrySendError::Disconnected(_)) => break,
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
                // Dropping the only sender lets workers drain out.
                *shared.queue.lock().expect("connection queue lock poisoned") = None;
            })
            .expect("spawn http acceptor")
    };

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

fn worker_loop(shared: &Arc<Shared>, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        shared.idle_workers.fetch_add(1, Ordering::SeqCst);
        // Lock only for the `recv` itself; handling runs unlocked.
        let stream = match rx.lock().unwrap().recv() {
            Ok(stream) => stream,
            Err(_) => break, // acceptor gone and queue drained
        };
        shared.queued_connections.fetch_sub(1, Ordering::SeqCst);
        shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
        handle_connection(shared, stream);
    }
}

/// Serves one connection until it closes, errors, times out, or the
/// server begins stopping (the current request always completes).
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
    {
        return;
    }
    drop(stream.set_nodelay(true));
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut served = 0usize;
    loop {
        // Framing errors are observed with the time since the read
        // started (includes keep-alive idle — still truer than zero).
        let read_start = Instant::now();
        let request = match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(request) => request,
            Err(ReadError::Disconnected) => return,
            Err(ReadError::Malformed(message)) => {
                let err = wire::ApiError {
                    status: 400,
                    message,
                };
                let body = wire::encode_error(&err);
                shared
                    .metrics
                    .observe(Route::Other, 400, read_start.elapsed());
                // The request never parsed, so no client id was read:
                // a generated one still gives the error a handle in logs.
                let request_id = generated_request_id();
                log!(
                    LogLevel::Warn,
                    "wwt-server",
                    id = request_id;
                    "malformed request: {}", err.message
                );
                drop(http::write_response_with(
                    &mut stream,
                    400,
                    "application/json",
                    body.as_bytes(),
                    false,
                    &[("x-request-id", &request_id)],
                ));
                return;
            }
            Err(ReadError::BodyTooLarge { declared, limit }) => {
                let err = wire::ApiError {
                    status: 413,
                    message: format!("body of {declared} bytes exceeds the {limit} byte limit"),
                };
                let body = wire::encode_error(&err);
                shared
                    .metrics
                    .observe(Route::Other, 413, read_start.elapsed());
                let request_id = generated_request_id();
                log!(
                    LogLevel::Warn,
                    "wwt-server",
                    id = request_id;
                    "rejected oversized body: {}", err.message
                );
                drop(http::write_response_with(
                    &mut stream,
                    413,
                    "application/json",
                    body.as_bytes(),
                    false,
                    &[("x-request-id", &request_id)],
                ));
                return;
            }
        };
        let request_id = request_id_of(&request);
        let start = Instant::now();
        shared.metrics.request_started();
        let (route, status, content_type, body) = dispatch(shared, &request, &request_id);
        shared.metrics.observe(route, status, start.elapsed());
        shared.metrics.request_finished();
        served += 1;
        // Finish the in-flight response even while stopping; just do not
        // keep the connection afterwards. The request cap rotates
        // long-lived clients out so they cannot pin a pooled worker
        // forever.
        let keep_alive = request.keep_alive
            && !shared.stopping()
            && served < shared.config.max_requests_per_connection.max(1);
        // Backpressure statuses carry Retry-After: 429 means the
        // concurrency budget is saturated and frees up as soon as an
        // in-flight query finishes (one second is plenty); 503 means
        // the service is in read-only degraded mode, where recovery is
        // an operator action — tell clients to back off longer.
        let extra_headers: &[(&str, &str)] = match status {
            429 => &[("retry-after", "1"), ("x-request-id", &request_id)],
            503 => &[("retry-after", "5"), ("x-request-id", &request_id)],
            _ => &[("x-request-id", &request_id)],
        };
        if http::write_response_with(
            &mut stream,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
            extra_headers,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
        // A connection waits for a busy pool: hand this one back to the
        // end of the queue and take the waiting one — unless the client
        // already sent more bytes, which the reader's buffer would lose.
        if reader.buffer().is_empty() && shared.connection_waiting() {
            match shared.enqueue(stream) {
                Ok(()) => return,
                Err(TrySendError::Full(s) | TrySendError::Disconnected(s)) => stream = s,
            }
        }
    }
}

/// Routes one request; returns `(route label, status, content type,
/// body)`.
fn dispatch(
    shared: &Arc<Shared>,
    request: &Request,
    request_id: &str,
) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    const PROM: &str = "text/plain; version=0.0.4";
    let route = match request.path.as_str() {
        "/query" => Route::Query,
        "/query/batch" => Route::QueryBatch,
        "/healthz" => Route::Healthz,
        "/stats" => Route::Stats,
        "/metrics" => Route::Metrics,
        "/version" => Route::Version,
        "/admin/shutdown" => Route::Shutdown,
        "/admin/reload" => Route::Reload,
        "/admin/recover" => Route::Recover,
        "/admin/tables" => Route::TablesIngest,
        // The exact arm must precede the `/admin/tables/` prefix arm
        // below, or "batch" would be parsed as a table id.
        "/admin/tables/batch" => Route::TablesBatch,
        "/admin/compact" => Route::Compact,
        "/debug/slow_queries" => Route::DebugSlowQueries,
        path if path.starts_with("/admin/tables/") => Route::TableDelete,
        path if path.starts_with("/debug/trace/") => Route::DebugTrace,
        _ => {
            let err = wire::ApiError {
                status: 404,
                message: format!("no route {}", request.path),
            };
            return (Route::Other, 404, JSON, wire::encode_error(&err));
        }
    };
    let expected = match route {
        Route::Query
        | Route::QueryBatch
        | Route::Shutdown
        | Route::Reload
        | Route::Recover
        | Route::TablesIngest
        | Route::TablesBatch
        | Route::Compact => "POST",
        Route::TableDelete => "DELETE",
        _ => "GET",
    };
    if request.method != expected {
        let err = wire::ApiError {
            status: 405,
            message: format!("{} requires {expected}", request.path),
        };
        return (route, 405, JSON, wire::encode_error(&err));
    }
    // The admin routes share one gate: unconfigured ⇒ the routes do not
    // exist (a reachable unauthenticated shutdown/reload would let any
    // client that can hit the socket kill or churn the service); a bad
    // token ⇒ 403. The debug routes sit behind the same gate: flight
    // records replay full query text, which is operator data.
    if matches!(
        route,
        Route::Shutdown
            | Route::Reload
            | Route::Recover
            | Route::TablesIngest
            | Route::TablesBatch
            | Route::TableDelete
            | Route::Compact
            | Route::DebugSlowQueries
            | Route::DebugTrace
    ) {
        match shared.config.admin_token.as_deref() {
            None => {
                let err = wire::ApiError {
                    status: 404,
                    message: "admin routes are disabled (no admin token configured)".to_string(),
                };
                return (route, 404, JSON, wire::encode_error(&err));
            }
            Some(expected) if !admin_authorized(request, expected) => {
                let err = wire::ApiError {
                    status: 403,
                    message: "missing or invalid admin token".to_string(),
                };
                return (route, 403, JSON, wire::encode_error(&err));
            }
            Some(_) => {}
        }
    }
    match route {
        Route::Query => {
            // One query = one slot of the shared budget, taken *before*
            // parsing (rejection must stay cheap under exactly the load
            // that triggers it); the permit is dropped with the arm.
            let Some(_permit) = shared.try_acquire_query_slots(1) else {
                return reject_at_capacity(shared, route);
            };
            match wire::parse_query_request(&request.body) {
                Ok(req) => {
                    // Admission-time shedding: a request that arrives
                    // with its deadline budget already spent can only
                    // burn pipeline work to produce the same 504 —
                    // refuse it before it touches the service. This
                    // stays a hard refusal even under fail_soft:
                    // degraded answers still need *some* budget.
                    if req.options.deadline_ms == Some(0) {
                        shared.metrics.note_query_shed();
                        shared.metrics.note_deadline_exceeded();
                        let err = wire::api_error(&WwtError::DeadlineExceeded("admission".into()));
                        log!(
                            LogLevel::Debug,
                            "wwt-server",
                            id = request_id;
                            "query shed at admission: zero deadline budget"
                        );
                        return (route, err.status, JSON, wire::encode_error(&err));
                    }
                    let answer_start = Instant::now();
                    match shared.service.answer_observed(&req, request_id) {
                        Ok(observed) => {
                            let answer_elapsed = answer_start.elapsed();
                            let response = &observed.response;
                            if observed.engine_ran {
                                // Feed the per-stage histograms from the
                                // timings the engine already measured —
                                // only for runs this request performed,
                                // so cached bytes never re-observe the
                                // pipeline that originally built them.
                                for (stage, elapsed) in response.diagnostics.timing.stages() {
                                    shared.metrics.observe_stage(stage, elapsed);
                                }
                            } else {
                                // Cache/coalesced path: the end-to-end
                                // service time *is* the lookup cost.
                                shared
                                    .metrics
                                    .observe_stage(Stage::CacheLookup, answer_elapsed);
                            }
                            let serialize_start = Instant::now();
                            let body = wire::encode_response(&req, response);
                            shared
                                .metrics
                                .observe_stage(Stage::Serialize, serialize_start.elapsed());
                            log!(
                                LogLevel::Debug,
                                "wwt-server",
                                id = request_id;
                                "query answered: {} rows in {} us",
                                response.table.len(),
                                answer_elapsed.as_micros()
                            );
                            (route, 200, JSON, body)
                        }
                        Err(e) => {
                            let err = wire::api_error(&e);
                            if err.status == 504 {
                                shared.metrics.note_deadline_exceeded();
                            }
                            log!(
                                LogLevel::Debug,
                                "wwt-server",
                                id = request_id;
                                "query failed ({}): {}", err.status, err.message
                            );
                            (route, err.status, JSON, wire::encode_error(&err))
                        }
                    }
                }
                Err(err) => (route, err.status, JSON, wire::encode_error(&err)),
            }
        }
        Route::QueryBatch => match wire::parse_batch_request(&request.body) {
            Ok(reqs) => {
                // A batch fans its slots across every core, so it weighs
                // its slot count against the budget — one 64-slot batch
                // loads the engine like 64 queries, and the limiter must
                // count it that way. (Parsing happens first to learn the
                // weight; batch parse cost is bounded by MAX_BATCH_REQUESTS
                // and the body-size cap.)
                let Some(_permit) = shared.try_acquire_query_slots(reqs.len().max(1)) else {
                    return reject_at_capacity(shared, route);
                };
                let results = shared.service.answer_batch(&reqs);
                for slot in &results {
                    if matches!(slot, Err(WwtError::DeadlineExceeded(_))) {
                        shared.metrics.note_deadline_exceeded();
                    }
                }
                (
                    route,
                    200,
                    JSON,
                    wire::encode_batch_response(&reqs, &results),
                )
            }
            Err(err) => (route, err.status, JSON, wire::encode_error(&err)),
        },
        Route::Healthz => (
            route,
            200,
            JSON,
            // Generation in the health body lets a load balancer (or the
            // CI smoke script) detect a completed reload by polling.
            // Status flips to "degraded" in sticky read-only mode — the
            // HTTP code stays 200 on purpose, since the query path is
            // fully serviceable and must not be drained by a balancer.
            format!(
                "{{\"status\":\"{}\",\"generation\":{}}}",
                if shared.service.read_only() {
                    "degraded"
                } else {
                    "ok"
                },
                shared.service.generation()
            ),
        ),
        Route::Stats => {
            let journal_path = shared.service.journal_path();
            (
                route,
                200,
                JSON,
                wire::encode_stats_with(
                    &shared.service.stats(),
                    shared.last_reload_error.lock().unwrap().as_deref(),
                    journal_path.as_deref().and_then(|p| p.to_str()),
                ),
            )
        }
        Route::Metrics => (
            route,
            200,
            PROM,
            shared.metrics.render_prometheus(&shared.service.stats()),
        ),
        Route::Version => {
            // The journal path rides along (JSON-escaped — paths are
            // operator input) so "is durability on, and where?" is
            // answerable from the unauthenticated version probe.
            let journal = shared
                .service
                .journal_path()
                .map(|p| {
                    format!(
                        ",\"journal\":{}",
                        Json::from(p.display().to_string().as_str()).encode()
                    )
                })
                .unwrap_or_default();
            (
                route,
                200,
                JSON,
                format!(
                    "{{\"version\":\"{}\",\"profile\":\"{}\",\"generation\":{},\"shards\":{}{journal}}}",
                    env!("CARGO_PKG_VERSION"),
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                    shared.service.generation(),
                    shared.service.engine().n_shards()
                ),
            )
        }
        Route::Shutdown => {
            shared.begin_stop();
            (
                route,
                200,
                JSON,
                "{\"status\":\"shutting down\"}".to_string(),
            )
        }
        Route::Reload => start_reload(shared),
        Route::Recover => {
            // Operator acknowledgement that the journal fault behind a
            // sticky read-only degradation has been fixed: lift the
            // refusal so mutations flow (and journal) again.
            shared.service.clear_read_only();
            log!(
                LogLevel::Info,
                "wwt-server",
                "read-only mode cleared by operator"
            );
            (
                route,
                200,
                JSON,
                "{\"status\":\"recovered\",\"read_only\":false}".to_string(),
            )
        }
        Route::TablesIngest => ingest_table(shared, request),
        Route::TablesBatch => ingest_tables_batch(shared, request),
        Route::TableDelete => delete_table(shared, request),
        Route::Compact => start_compaction(shared, true),
        Route::DebugSlowQueries => slow_queries(shared),
        Route::DebugTrace => find_trace(shared, request),
        Route::Other => unreachable!("handled above"),
    }
}

/// `GET /debug/slow_queries`: the flight recorder's retained buffers —
/// slowest first, then newest first, then the anomaly ring — plus its
/// monotone counters. Admin-gated: records replay full query text.
fn slow_queries(shared: &Arc<Shared>) -> (Route, u16, &'static str, String) {
    let records = |list: Vec<wwt_service::FlightRecord>| {
        Json::Arr(list.iter().map(|r| r.to_json()).collect())
    };
    let counters = shared.service.stats().recorder;
    let body = Json::obj([
        ("slowest", records(shared.service.slow_queries())),
        ("recent", records(shared.service.recent_queries())),
        ("anomalies", records(shared.service.anomalous_queries())),
        (
            "counters",
            Json::obj([
                ("recorded", Json::from(counters.recorded)),
                ("deadline_exceeded", Json::from(counters.deadline_exceeded)),
                ("zero_results", Json::from(counters.zero_results)),
            ]),
        ),
    ])
    .encode();
    (Route::DebugSlowQueries, 200, "application/json", body)
}

/// `GET /debug/trace/{request_id}`: the retained flight record for one
/// request id; 404 once it ages out of every buffer.
fn find_trace(shared: &Arc<Shared>, request: &Request) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    let id = request.path.trim_start_matches("/debug/trace/");
    match shared.service.find_trace(id) {
        Some(record) => (Route::DebugTrace, 200, JSON, record.to_json().encode()),
        None => {
            let err = wire::ApiError {
                status: 404,
                message: format!("no retained trace for request id {id:?}"),
            };
            (Route::DebugTrace, 404, JSON, wire::encode_error(&err))
        }
    }
}

/// `POST /admin/tables`: parses the body as one table-store JSON line
/// and publishes it into the serving engine's delta segment — queryable
/// on the very next request, no rebuild. Answers 202 with the new
/// generation. When the delta reaches `max_delta_tables`, a background
/// compaction is kicked off (best-effort — a compaction already running
/// just keeps running).
fn ingest_table(shared: &Arc<Shared>, request: &Request) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    let table = match std::str::from_utf8(&request.body)
        .map_err(|_| "body is not valid utf-8".to_string())
        .and_then(|text| wwt_index::table_from_json(text.trim()))
    {
        Ok(table) => table,
        Err(message) => {
            let err = wire::ApiError {
                status: 400,
                message,
            };
            return (Route::TablesIngest, 400, JSON, wire::encode_error(&err));
        }
    };
    let id = table.id.0;
    // A journal-append failure refuses the mutation (500, engine
    // untouched) — the 202 is a durability promise once a journal is
    // attached, so it must never outrun the fsync.
    let generation = match shared.service.ingest_table(table) {
        Ok(generation) => generation,
        Err(e) => {
            let err = wire::api_error(&e);
            return (
                Route::TablesIngest,
                err.status,
                JSON,
                wire::encode_error(&err),
            );
        }
    };
    maybe_start_auto_compaction(shared);
    (
        Route::TablesIngest,
        202,
        JSON,
        format!("{{\"status\":\"ingested\",\"table_id\":{id},\"generation\":{generation}}}"),
    )
}

/// `POST /admin/tables/batch`: parses the body as JSONL — one
/// table-store JSON line per table, the same codec as the single-table
/// route — and publishes every table in one delta rebuild, one journal
/// flush, and one generation bump. All-or-nothing: a line that does not
/// parse rejects the whole batch with 400 before the engine is touched.
fn ingest_tables_batch(
    shared: &Arc<Shared>,
    request: &Request,
) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    let parsed: Result<Vec<_>, String> = match std::str::from_utf8(&request.body) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty())
            .enumerate()
            .map(|(i, line)| {
                wwt_index::table_from_json(line).map_err(|e| format!("line {}: {e}", i + 1))
            })
            .collect(),
        Err(_) => Err("body is not valid utf-8".to_string()),
    };
    let tables = match parsed {
        Ok(tables) => tables,
        Err(message) => {
            let err = wire::ApiError {
                status: 400,
                message,
            };
            return (Route::TablesBatch, 400, JSON, wire::encode_error(&err));
        }
    };
    let count = tables.len();
    let generation = match shared.service.ingest_tables(tables) {
        Ok(generation) => generation,
        Err(e) => {
            let err = wire::api_error(&e);
            return (
                Route::TablesBatch,
                err.status,
                JSON,
                wire::encode_error(&err),
            );
        }
    };
    maybe_start_auto_compaction(shared);
    (
        Route::TablesBatch,
        202,
        JSON,
        format!("{{\"status\":\"ingested\",\"tables\":{count},\"generation\":{generation}}}"),
    )
}

/// Kicks off a background compaction when the delta has outgrown
/// `max_delta_tables` (0 disables the trigger). Best-effort: a
/// compaction already running just keeps running.
fn maybe_start_auto_compaction(shared: &Arc<Shared>) {
    let threshold = shared.config.max_delta_tables;
    if threshold > 0 && shared.service.delta_len() >= threshold {
        drop(start_compaction(shared, false));
    }
}

/// `DELETE /admin/tables/{id}`: evicts a delta table or tombstones a
/// frozen one; 404 when the id is unknown (or already gone).
fn delete_table(shared: &Arc<Shared>, request: &Request) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    let raw = request.path.trim_start_matches("/admin/tables/");
    let Ok(id) = raw.parse::<u32>() else {
        let err = wire::ApiError {
            status: 400,
            message: format!("table id {raw:?} is not a non-negative integer"),
        };
        return (Route::TableDelete, 400, JSON, wire::encode_error(&err));
    };
    match shared.service.remove_table(wwt_model::TableId(id)) {
        Ok(Some(generation)) => (
            Route::TableDelete,
            202,
            JSON,
            format!("{{\"status\":\"deleted\",\"table_id\":{id},\"generation\":{generation}}}"),
        ),
        Ok(None) => {
            let err = wire::ApiError {
                status: 404,
                message: format!("no live table with id {id}"),
            };
            (Route::TableDelete, 404, JSON, wire::encode_error(&err))
        }
        Err(e) => {
            let err = wire::api_error(&e);
            (
                Route::TableDelete,
                err.status,
                JSON,
                wire::encode_error(&err),
            )
        }
    }
}

/// Kicks off a background delta compaction. `explicit` routes (`POST
/// /admin/compact`) answer 202/409; the auto-trigger after an ingest
/// reuses the same guard but its response is discarded. The compaction
/// thread rebuilds the frozen engine from the live logical corpus —
/// byte-identical to a from-scratch build — and swaps it in; queries
/// keep flowing against the live snapshot meanwhile.
fn start_compaction(shared: &Arc<Shared>, explicit: bool) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    if shared
        .compacting
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        let err = wire::ApiError {
            status: 409,
            message: "a compaction is already in progress".to_string(),
        };
        return (Route::Compact, 409, JSON, wire::encode_error(&err));
    }
    if explicit && !shared.service.engine().is_live() {
        shared.compacting.store(false, Ordering::SeqCst);
        return (
            Route::Compact,
            200,
            JSON,
            format!(
                "{{\"status\":\"clean\",\"generation\":{}}}",
                shared.service.generation()
            ),
        );
    }
    let generation = shared.service.generation();
    let worker = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("wwt-compact".to_string())
        .spawn(move || {
            // A compaction error after the swap means the folded index
            // could not be persisted (or the journal not truncated) —
            // the serving engine is still correct, so log and carry on;
            // the journal keeps its records and replays at next boot.
            match worker.service.compact() {
                Ok(generation) => log!(
                    LogLevel::Info,
                    "wwt-server",
                    "delta compacted: generation {generation}"
                ),
                Err(e) => log!(
                    LogLevel::Error,
                    "wwt-server",
                    "compaction could not persist its result: {e}"
                ),
            }
            worker.compacting.store(false, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shared.compacting.store(false, Ordering::SeqCst);
        let err = wire::ApiError {
            status: 500,
            message: "could not spawn the compaction thread".to_string(),
        };
        return (Route::Compact, 500, JSON, wire::encode_error(&err));
    }
    (
        Route::Compact,
        202,
        JSON,
        format!("{{\"status\":\"compacting\",\"generation\":{generation}}}"),
    )
}

/// Kicks off a background engine rebuild + swap. Answers 202 with the
/// generation being replaced; the caller polls `/healthz` (or
/// `/version`) until the generation bumps. Refused with 409 when no
/// engine source is configured or a rebuild is already running.
fn start_reload(shared: &Arc<Shared>) -> (Route, u16, &'static str, String) {
    const JSON: &str = "application/json";
    let Some(source) = shared.config.engine_source.clone() else {
        let err = wire::ApiError {
            status: 409,
            message: "reload unavailable: no --corpus-dir/--index-path engine source configured"
                .to_string(),
        };
        return (Route::Reload, 409, JSON, wire::encode_error(&err));
    };
    if shared
        .reloading
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        let err = wire::ApiError {
            status: 409,
            message: "a reload is already in progress".to_string(),
        };
        return (Route::Reload, 409, JSON, wire::encode_error(&err));
    }
    let generation = shared.service.generation();
    // Peek, never consume: the pending failure stays readable (here and
    // in `GET /stats`) until a reload succeeds and clears it.
    let last_error = shared
        .last_reload_error
        .lock()
        .unwrap()
        .clone()
        .map(|e| {
            format!(
                ",\"last_error\":{}",
                wwt_json::Json::from(e.as_str()).encode()
            )
        })
        .unwrap_or_default();
    let worker = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("wwt-reload".to_string())
        .spawn(move || {
            // Rebuild with the *current* engine's online config and
            // shard count, so tuned deployments keep their knobs — and
            // their scatter-gather layout — across generations.
            let engine = worker.service.engine();
            let config = engine.config().clone();
            let shards = engine.n_shards();
            drop(engine);
            // The failpoint sits where a real source would touch disk or
            // network, so chaos runs exercise the failure branch below
            // (counter + retained last_error) without a broken corpus.
            let result = wwt_chaos::io_failpoint(wwt_chaos::RELOAD_BUILD)
                .map_err(WwtError::Io)
                .and_then(|()| source.build_sharded(config, Some(shards)));
            let mut last_error = worker.last_reload_error.lock().unwrap();
            match result {
                Ok(engine) => {
                    let generation = worker.service.reload(Arc::new(engine));
                    *last_error = None;
                    log!(
                        LogLevel::Info,
                        "wwt-server",
                        "engine reloaded: generation {generation}"
                    );
                }
                Err(e) => {
                    worker.metrics.note_reload_failure();
                    *last_error = Some(e.to_string());
                    log!(LogLevel::Error, "wwt-server", "engine reload failed: {e}");
                }
            }
            worker.reloading.store(false, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shared.reloading.store(false, Ordering::SeqCst);
        let err = wire::ApiError {
            status: 500,
            message: "could not spawn the reload thread".to_string(),
        };
        return (Route::Reload, 500, JSON, wire::encode_error(&err));
    }
    (
        Route::Reload,
        202,
        JSON,
        format!("{{\"status\":\"reloading\",\"generation\":{generation}{last_error}}}"),
    )
}

/// Whether a request carries the configured admin token, either as
/// `x-admin-token: <token>` or `Authorization: Bearer <token>`.
fn admin_authorized(request: &Request, expected: &str) -> bool {
    let bearer = format!("Bearer {expected}");
    request
        .header("x-admin-token")
        .is_some_and(|t| constant_time_eq(t, expected))
        || request
            .header("authorization")
            .is_some_and(|t| constant_time_eq(t, &bearer))
}

/// Token comparison that does not short-circuit on the first differing
/// byte, so response timing leaks nothing about the prefix matched.
fn constant_time_eq(a: &str, b: &str) -> bool {
    a.len() == b.len()
        && a.bytes()
            .zip(b.bytes())
            .fold(0u8, |acc, (x, y)| acc | (x ^ y))
            == 0
}
