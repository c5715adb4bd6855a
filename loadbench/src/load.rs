//! The load generator: keep-alive connections to the server, a closed
//! loop, an open loop timed from each request's due time, and the ingest
//! schedule. Each function runs on the calling thread; `run` puts two of
//! them side by side.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wwt_server::{HttpClient, HttpResponse};

use crate::plan::{ingest_id, BATCH_TABLES};
use crate::serve::{ADMIN_TOKEN, CLIENT_TIMEOUT};
use crate::trace::Recorder;

/// Every n-th response of a connection is kept for the correctness check.
/// 17 is coprime with both cycle lengths (64 and 4 096), so the kept
/// responses walk through the whole hot set instead of revisiting four
/// of its bodies.
pub const CHECK_EVERY: usize = 17;

/// One keep-alive connection that follows the server's rotation: a
/// response carrying `connection: close` (the server's per-connection
/// request cap) or a transport error drops the socket, and the next
/// request opens a new one — inside that request's timed interval, as a
/// real client would pay it.
pub struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
}

impl Conn {
    /// Connects now, so the first request does not pay for it.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let client = HttpClient::connect_with_timeout(addr, CLIENT_TIMEOUT)
            .map_err(|e| format!("connect to {addr}: {e}"))?;
        Ok(Conn {
            addr,
            client: Some(client),
        })
    }

    /// [`Conn::open`] for the load threads: a failed connect is retried —
    /// and counted as a failure — by the first request.
    fn open_or_lazy(addr: SocketAddr) -> Conn {
        Conn::open(addr).unwrap_or(Conn { addr, client: None })
    }

    fn with_client(
        &mut self,
        f: impl FnOnce(&mut HttpClient) -> std::io::Result<HttpResponse>,
    ) -> std::io::Result<HttpResponse> {
        let mut client = match self.client.take() {
            Some(client) => client,
            None => HttpClient::connect_with_timeout(self.addr, CLIENT_TIMEOUT)?,
        };
        let response = f(&mut client)?;
        if response.header("connection") != Some("close") {
            self.client = Some(client);
        }
        Ok(response)
    }

    pub fn query(&mut self, body: &str) -> std::io::Result<HttpResponse> {
        self.with_client(|c| c.post("/query", body))
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.with_client(|c| c.get(path))
    }

    pub fn admin_post(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.with_client(|c| c.post_with_headers(path, body, &[("x-admin-token", ADMIN_TOKEN)]))
    }

    pub fn admin_delete(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.with_client(|c| c.delete_with_headers(path, &[("x-admin-token", ADMIN_TOKEN)]))
    }
}

/// One `/query` request as the generator saw it. Times are nanoseconds
/// from the window start; a closed loop has `due_ns == sent_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub end_ns: u64,
    /// The connection was idle when the request fell due, so any gap
    /// between `due_ns` and `sent_ns` is the generator's own lateness;
    /// otherwise the gap is time spent waiting for a busy connection.
    pub free_at_due: bool,
    /// HTTP 200. Anything else — another status, a transport error — is a
    /// failure and has no latency.
    pub ok: bool,
}

/// What one query connection did during a window.
pub struct QueryLog {
    pub samples: Vec<Sample>,
    /// Kept responses `(universe index, body)`; identical repeats of an
    /// index are kept once.
    pub kept: Vec<(usize, Vec<u8>)>,
    pub recorder: Recorder,
}

/// Sends, times and samples queries on one connection.
struct QueryDriver<'a> {
    conn: Conn,
    bodies: &'a [String],
    log: QueryLog,
    trace: bool,
    kept_at: HashMap<usize, Vec<usize>>,
}

impl<'a> QueryDriver<'a> {
    fn new(addr: SocketAddr, bodies: &'a [String], start_at: Instant, trace: bool) -> Self {
        QueryDriver {
            conn: Conn::open_or_lazy(addr),
            bodies,
            log: QueryLog {
                samples: Vec::new(),
                kept: Vec::new(),
                recorder: Recorder::new(start_at),
            },
            trace,
            kept_at: HashMap::new(),
        }
    }

    fn request(&mut self, req: usize, due_ns: u64, free_at_due: bool) {
        let sent_ns = self.log.recorder.now_ns();
        let response = self.conn.query(&self.bodies[req]);
        let end_ns = self.log.recorder.now_ns();
        let ok = matches!(&response, Ok(r) if r.status == 200);
        let n = self.log.samples.len();
        self.log.samples.push(Sample {
            due_ns,
            sent_ns,
            end_ns,
            free_at_due,
            ok,
        });
        if let (true, true, Ok(response)) = (ok, n.is_multiple_of(CHECK_EVERY), response) {
            let seen = self.kept_at.entry(req).or_default();
            if !seen.iter().any(|&i| self.log.kept[i].1 == response.body) {
                seen.push(self.log.kept.len());
                self.log.kept.push((req, response.body));
            }
        }
        // A traced run records spans in the odd seconds of the window only,
        // so the same run also measures what recording costs.
        if self.trace && (sent_ns / 1_000_000_000) % 2 == 1 {
            let done_ns = self.log.recorder.now_ns();
            let id = n as u64;
            let rec = &mut self.log.recorder;
            let root = rec.push("client.request", due_ns.min(sent_ns), done_ns, None, id);
            rec.push("client.roundtrip", sent_ns, end_ns, Some(root), id);
            rec.push("client.verify", end_ns, done_ns, Some(root), id);
        }
    }
}

pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Busy-waits until `at`. The open loop's threads wait for a due time
/// this way, not asleep: a sleeping generator lets both cores go idle
/// between arrivals, the scheduler then wakes the server's worker on the
/// idle core, and every request pays the sandbox's idle-exit time twice
/// (server wake-up, client wake-up) — 100 to 250 us that moved the median
/// of a cached answer by 30 % between runs of identical code. Two
/// spinning threads keep both cores awake and send on time; the price is
/// that a waiting generator thread shares its core with the server, the
/// same on every commit. The loop reads the clock and nothing else: with
/// a `spin_loop` (PAUSE) hint in it the same median ranged over 37 % in
/// seven runs against 6 % without, interleaved — a virtual CPU that
/// pauses in a loop can be taken away by its host.
pub fn spin_until(at: Instant) {
    while Instant::now() < at {}
}

/// Closed loop on one of `n_conns` connections: sends `order[conn]`,
/// `order[conn + n_conns]`, … (cycling), each after the previous reply,
/// until `window` has passed since `start_at`.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    (conn, n_conns): (usize, usize),
    (start_at, window): (Instant, Duration),
    trace: bool,
) -> QueryLog {
    let mut driver = QueryDriver::new(addr, bodies, start_at, trace);
    sleep_until(start_at);
    let window_ns = window.as_nanos() as u64;
    let mut pos = conn;
    loop {
        let now_ns = driver.log.recorder.now_ns();
        if now_ns >= window_ns {
            return driver.log;
        }
        driver.request(order[pos % order.len()], now_ns, true);
        pos += n_conns;
    }
}

/// Open loop: takes the next unsent `(due_ns, universe index)` of the
/// shared schedule, spins until its due time and sends. A request whose due
/// time passed while both connections were busy goes out at once; its
/// latency still counts from the due time.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    schedule: &[(u64, usize)],
    next: &AtomicUsize,
    start_at: Instant,
    trace: bool,
) -> QueryLog {
    let mut driver = QueryDriver::new(addr, bodies, start_at, trace);
    loop {
        let Some(&(due_ns, req)) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) else {
            return driver.log;
        };
        let free_at_due = driver.log.recorder.now_ns() <= due_ns;
        spin_until(start_at + Duration::from_nanos(due_ns));
        driver.request(req, due_ns, free_at_due);
    }
}

/// The ingest schedule of one window (or of the epilogue).
pub struct IngestPlan<'a> {
    /// JSONL bodies, one per tick.
    pub batches: &'a [String],
    /// Gap between ticks; zero sends back to back.
    pub period: Duration,
    /// `POST /admin/compact` after every n-th batch (0 = never) …
    pub compact_every: usize,
    /// … until this many were requested.
    pub max_compactions: u64,
}

/// What the ingest connection did.
#[derive(Default)]
pub struct IngestLog {
    /// Due → 202 of each acknowledged batch, nanoseconds.
    pub ack_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Sequence numbers of acknowledged tables not deleted since.
    pub live: Vec<usize>,
    /// Sequence numbers of tables whose delete was acknowledged.
    pub deleted: Vec<usize>,
    pub compactions_requested: u64,
}

/// Posts one batch per tick, timed from the tick's due time. Every 4th
/// tick also deletes the first table of the batch three ticks back, and
/// every `compact_every`-th batch is followed by `POST /admin/compact` —
/// a count-based schedule, so every run does the same background work.
pub fn ingest_loop(addr: SocketAddr, plan: &IngestPlan<'_>, start_at: Instant) -> IngestLog {
    let mut log = IngestLog::default();
    let mut conn = Conn::open_or_lazy(addr);
    let mut acked = vec![false; plan.batches.len()];
    sleep_until(start_at);
    for (k, body) in plan.batches.iter().enumerate() {
        let due = if plan.period.is_zero() {
            Instant::now()
        } else {
            let due = start_at + plan.period * k as u32;
            sleep_until(due);
            due
        };
        log.attempted += 1;
        match conn.admin_post("/admin/tables/batch", body) {
            Ok(r) if r.status == 202 => {
                log.ack_ns.push(due.elapsed().as_nanos() as u64);
                acked[k] = true;
                log.live.extend(k * BATCH_TABLES..(k + 1) * BATCH_TABLES);
            }
            _ => log.failed += 1,
        }
        if k % 4 == 3 && acked[k - 3] {
            let seq = (k - 3) * BATCH_TABLES;
            log.attempted += 1;
            match conn.admin_delete(&format!("/admin/tables/{}", ingest_id(seq).0)) {
                Ok(r) if r.status == 202 => {
                    log.live.retain(|&s| s != seq);
                    log.deleted.push(seq);
                }
                _ => log.failed += 1,
            }
        }
        if plan.compact_every > 0
            && (k + 1) % plan.compact_every == 0
            && log.compactions_requested < plan.max_compactions
        {
            log.attempted += 1;
            log.compactions_requested += 1;
            match conn.admin_post("/admin/compact", "") {
                Ok(r) if r.status == 202 => {}
                _ => log.failed += 1,
            }
        }
    }
    log
}
