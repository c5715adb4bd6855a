//! One benchmark run: build the corpus, boot the server, drive one
//! workload over loopback, check the outputs, and (traced) replay the
//! layers in-process.

use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use wwt_engine::QueryRequest;
use wwt_json::Json;
use wwt_server::wire;

use crate::layers::{self, ReplaySize};
use crate::load::{self, Conn, IngestLog, IngestPlan, QueryLog, Sample};
use crate::plan::{self, Plan, SHARDS, ZIPF_WARM_RANKS};
use crate::serve::{Paths, Server};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{self_times, write_jsonl, Recorder};
use crate::Metric;

/// The traffic mixes. Names are part of the benchmark's contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdUnique,
    HotRepeat,
    ZipfOpen,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdUnique,
        Workload::HotRepeat,
        Workload::ZipfOpen,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdUnique => "cold_unique",
            Workload::HotRepeat => "hot_repeat",
            Workload::ZipfOpen => "zipf_open",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Offered rate of `zipf_open`, requests per second: a constant of the
/// benchmark, identical on every commit it compares. Half the highest
/// rate at which `--ladder` still meets its latency limit, so waiting
/// shows in the p95 without deciding the p50.
pub const ZIPF_RATE: f64 = 150.0;
/// `hot_repeat` is measured in slices of this length and reports the
/// median over them; every other workload is one slice, its whole window.
/// Two clients and two server workers ping-pong on two cores, and the
/// sandbox's scheduler flips between two placements of those four
/// threads, in episodes of 0.1 to 5 s: one answers 25 000 req/s with a
/// p95 of 100 us, the other 14 000 req/s with a p95 of 250 us, on
/// identical work. The slow one holds 10 to 35 % of a window, so over 19
/// runs of identical code the whole-window p95 spread 22 % and the
/// whole-window throughput 6 %, the medians over 250 ms slices 4 % and
/// 2 %. A change in the code moves both placements.
pub const HOT_SLICE: Duration = Duration::from_millis(250);
/// Gap between ingest ticks of `ingest_mixed`.
pub const INGEST_PERIOD: Duration = Duration::from_millis(250);
/// Full compaction cycles `ingest_mixed` completes per window. With two,
/// a third of the acks wait behind a compaction and the median ack sits
/// where a slightly longer compaction moves it by 10 %.
pub const COMPACTIONS: u64 = 1;
/// Batches of the read-only workloads' ingest epilogue.
pub const EPILOGUE_BATCHES: usize = 32;
/// Boot cycles behind `setup_s`.
pub const BOOTS: usize = 3;
/// Generator lateness above this counts toward `loadgen.late_pct`.
const LATE_NS: u64 = 1_000_000;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub scale: f64,
    pub replay: ReplaySize,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable remarks (what was checked, flush policy, …).
    pub notes: Vec<String>,
}

/// Counters read from the server's own `/stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    hits: f64,
    misses: f64,
    coalesced: f64,
    compactions: f64,
    rejected: f64,
    shed: f64,
    /// Sum of every `wwt_stage_duration_us` stage, microseconds.
    stage_us: f64,
    /// Sum of the engine stages alone (probe, read, column map,
    /// consolidate), microseconds.
    engine_us: f64,
}

fn prometheus_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or(0.0)
}

fn read_counters(conn: &mut Conn) -> Result<ServerCounters, String> {
    let stats = conn
        .get("/stats")
        .map_err(|e| format!("GET /stats: {e}"))?
        .text();
    let stats = Json::parse(&stats).map_err(|e| format!("/stats body: {e}"))?;
    let field = |name: &str| stats.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let metrics = conn
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?
        .text();
    let stage = |label: &str| {
        prometheus_value(
            &metrics,
            &format!("wwt_stage_duration_us_sum{{stage=\"{label}\"}}"),
        )
    };
    let engine_us: f64 = [
        "probe1",
        "read1",
        "probe2",
        "read2",
        "column_map",
        "consolidate",
    ]
    .into_iter()
    .map(stage)
    .sum();
    Ok(ServerCounters {
        hits: field("hits"),
        misses: field("misses"),
        coalesced: field("coalesced"),
        compactions: field("compactions"),
        rejected: prometheus_value(&metrics, "wwt_http_concurrency_rejected_total"),
        shed: prometheus_value(&metrics, "wwt_queries_shed_total"),
        stage_us: engine_us + stage("cache_lookup") + stage("serialize"),
        engine_us,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Runs `work` over the two halves of `items` on two threads, one per
/// core, and returns what each made of its half.
fn on_two_threads<T: Sync, R: Send>(items: &[T], work: impl Fn(&[T]) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let halves: Vec<_> = items
            .chunks(items.len().div_ceil(SHARDS).max(1))
            .map(|half| scope.spawn(|| work(half)))
            .collect();
        halves
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// A response body with its wall-clock `timing_us` removed: what must be
/// byte-identical between the server and the in-harness engine.
fn without_timing(body: &str) -> Result<Json, String> {
    let mut value = Json::parse(body).map_err(|e| format!("response body: {e}"))?;
    if let Json::Obj(fields) = &mut value {
        for (key, field) in fields.iter_mut() {
            if let (true, Json::Obj(diagnostics)) = (key == "diagnostics", field) {
                diagnostics.retain(|(k, _)| k != "timing_us");
            }
        }
    }
    Ok(value)
}

/// Compares every kept response with what the in-harness engine answers
/// for the same body over the same tables. Returns mismatch descriptions.
fn verify_kept(plan: &Plan, kept: &[(usize, Vec<u8>)]) -> Vec<String> {
    let check = |(req, body): &(usize, Vec<u8>)| -> Result<(), String> {
        let request: QueryRequest =
            wire::parse_query_request(plan.universe[*req].as_bytes()).map_err(|e| e.message)?;
        let expected = plan
            .bound
            .engine
            .answer(&request)
            .map_err(|e| e.to_string())?;
        let expected = without_timing(&wire::encode_response(&request, &expected))?;
        let got = without_timing(&String::from_utf8_lossy(body))?;
        if got == expected {
            Ok(())
        } else {
            Err("response differs from Engine::answer".to_string())
        }
    };
    on_two_threads(kept, |half| -> Vec<String> {
        half.iter()
            .filter_map(|k| {
                check(k)
                    .err()
                    .map(|e| format!("{}: {e}", plan.universe[k.0]))
            })
            .collect()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// After a `SIGKILL` and a reboot on the same index directory and
/// journal: every acknowledged, not deleted table must come back as a
/// candidate for a query on its marker token, and every deleted one must
/// not. Returns the misses.
fn durability_misses(conn: &mut Conn, ingest: &IngestLog) -> Vec<String> {
    let mut misses = Vec::new();
    let mut check = |seq: usize, want: bool| {
        let body = Json::obj([("query", Json::from(plan::marker(seq)))]).encode();
        let found = conn
            .query(&body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| Json::parse(&r.text()).ok())
            .map(|json| {
                let id = f64::from(plan::ingest_id(seq).0);
                json.get("candidates")
                    .and_then(Json::as_arr)
                    .is_some_and(|c| c.iter().any(|v| v.as_f64() == Some(id)))
            });
        if found != Some(want) {
            misses.push(format!(
                "table {seq} ({}) after reboot: candidate = {found:?}, expected {want}",
                if want { "acked" } else { "deleted" }
            ));
        }
    };
    ingest.live.iter().for_each(|&seq| check(seq, true));
    ingest.deleted.iter().for_each(|&seq| check(seq, false));
    misses
}

/// Latencies of the successful requests, due time to last byte,
/// ascending.
pub fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.end_ns - s.due_ns) as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The window's slices reduced to one figure per metric.
struct SliceStats {
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    cpu_us_per_req: f64,
}

/// Cuts the window into `cpu_at.len() - 1` slices of `slice` each, files
/// every successful request under the slice it completed in, and takes
/// the median over slices of completions per second, of the slice's p50
/// and p95 latency and of server CPU per completion. With one slice, the
/// whole window, these are the window's own figures. A request that
/// completes after the last slice boundary (the closed loop's final one)
/// is in no slice.
fn slice_stats(samples: &[Sample], slice: Duration, cpu_at: &[f64]) -> SliceStats {
    let n = cpu_at.len().saturating_sub(1).max(1);
    let slice_ns = slice.as_nanos() as u64;
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    for s in samples.iter().filter(|s| s.ok) {
        if let Some(bucket) = lat.get_mut((s.end_ns / slice_ns) as usize) {
            bucket.push((s.end_ns - s.due_ns) as f64 / 1e3);
        }
    }
    let (mut rps, mut p50, mut p95, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, bucket) in lat.iter_mut().enumerate() {
        bucket.sort_by(f64::total_cmp);
        rps.push(bucket.len() as f64 / slice.as_secs_f64());
        if bucket.is_empty() {
            continue;
        }
        p50.push(percentile(bucket, 50.0));
        p95.push(percentile(bucket, 95.0));
        if let (Some(from), Some(to)) = (cpu_at.get(i), cpu_at.get(i + 1)) {
            cpu.push((to - from) * 1e6 / bucket.len() as f64);
        }
    }
    SliceStats {
        throughput_rps: median(&mut rps),
        p50_us: median(&mut p50),
        p95_us: median(&mut p95),
        cpu_us_per_req: median(&mut cpu),
    }
}

/// Share of the second `[0, window)` covered by odd (traced) seconds.
fn traced_seconds(window: Duration) -> (f64, f64) {
    let w = window.as_secs_f64();
    let full = w.floor();
    let odd = (full / 2.0).floor() + if full as u64 % 2 == 1 { w - full } else { 0.0 };
    (w - odd, odd)
}

/// Throughput (closed loop) or median latency (open loop) lost in the
/// traced seconds of the window relative to the untraced ones, percent.
fn trace_overhead_pct(samples: &[Sample], window: Duration, open: bool) -> f64 {
    let odd = |s: &Sample| (s.sent_ns / 1_000_000_000) % 2 == 1;
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    if open {
        let p50 = |traced: bool| {
            let mut v: Vec<f64> = ok
                .iter()
                .filter(|s| odd(s) == traced)
                .map(|s| (s.end_ns - s.due_ns) as f64)
                .collect();
            median(&mut v)
        };
        100.0 * (p50(true) - p50(false)) / p50(false).max(1.0)
    } else {
        let (even_s, odd_s) = traced_seconds(window);
        let count = |traced: bool| ok.iter().filter(|s| odd(s) == traced).count() as f64;
        let (plain, traced) = (
            count(false) / even_s.max(1e-9),
            count(true) / odd_s.max(1e-9),
        );
        100.0 * (plain - traced) / plain.max(1e-9)
    }
}

/// The workload's own 59 queries at a `max_rows` outside the universe.
pub fn base_queries(plan: &Plan) -> Vec<String> {
    plan.specs
        .iter()
        .map(|spec| plan::query_body(&spec.query.to_string(), 1000))
        .collect()
}

/// Sends `bodies` once, untimed, over two connections (one per server
/// worker); every one must answer 200.
pub fn warm_up(addr: std::net::SocketAddr, bodies: &[String]) -> Result<(), String> {
    on_two_threads(bodies, |half| -> Result<(), String> {
        let mut conn = Conn::open(addr)?;
        for body in half {
            match conn.query(body).map(|r| r.status) {
                Ok(200) => {}
                other => return Err(format!("warm-up {body} answered {other:?}")),
            }
        }
        Ok(())
    })
    .into_iter()
    .collect()
}

/// What the load threads did during one window.
pub struct Window {
    start_at: Instant,
    slice: Duration,
    /// Server CPU seconds at every slice boundary.
    cpu_at: Vec<f64>,
    pub logs: Vec<QueryLog>,
    /// `ingest_mixed` only: the window's own write side.
    ingest: Option<IngestLog>,
}

/// What the window sends: the closed loops' order, the open loop's
/// schedule, and the ingest batches (the window's on `ingest_mixed`, the
/// epilogue's elsewhere).
pub struct Streams {
    pub order: Vec<usize>,
    pub schedule: Vec<(u64, usize)>,
    pub batches: Vec<String>,
}

/// Drives one window: two load threads side by side, while this thread
/// reads the server's CPU clock at every slice boundary.
pub fn drive(cfg: &RunConfig, plan: &Plan, server: &Server, streams: &Streams) -> Window {
    let slice = match cfg.workload {
        Workload::HotRepeat => HOT_SLICE.min(cfg.window),
        _ => cfg.window,
    };
    let n_slices = (cfg.window.as_nanos() / slice.as_nanos()) as usize;
    let addr = server.addr;
    let next = AtomicUsize::new(0);
    let start_at = Instant::now() + Duration::from_millis(20);
    let timing = (start_at, cfg.window);
    let mut cpu_at: Vec<f64> = Vec::with_capacity(n_slices + 1);
    let (logs, ingest) = std::thread::scope(|scope| {
        let bodies = &plan.universe;
        let closed = |conn, n| {
            let order = &streams.order;
            scope
                .spawn(move || load::closed_loop(addr, bodies, order, (conn, n), timing, cfg.trace))
        };
        let open = || {
            let (schedule, next) = (&streams.schedule, &next);
            scope.spawn(move || load::open_loop(addr, bodies, schedule, next, start_at, cfg.trace))
        };
        let writer = || {
            let n_ticks = streams.batches.len();
            let ingest_plan = IngestPlan {
                batches: &streams.batches,
                period: INGEST_PERIOD,
                compact_every: n_ticks / (COMPACTIONS as usize + 1),
                max_compactions: COMPACTIONS,
            };
            scope.spawn(move || load::ingest_loop(addr, &ingest_plan, start_at))
        };
        let (readers, writer) = match cfg.workload {
            Workload::ColdUnique | Workload::HotRepeat => (vec![closed(0, 2), closed(1, 2)], None),
            Workload::ZipfOpen => (vec![open(), open()], None),
            Workload::IngestMixed => (vec![closed(0, 1)], Some(writer())),
        };
        for i in 0..=n_slices {
            load::sleep_until(start_at + slice * i as u32);
            cpu_at.push(server.cpu_seconds().unwrap_or(f64::NAN));
        }
        let ingest = writer.map(|h| h.join().expect("ingest thread panicked"));
        let logs = readers
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (logs, ingest)
    });
    Window {
        start_at,
        slice,
        cpu_at,
        logs,
        ingest,
    }
}

/// The end of `ingest_mixed`: waits for the requested compactions,
/// `SIGKILL`s the server, reboots it on the same index directory and
/// journal and runs the durability check. Returns the rebooted server and
/// whether everything held.
fn check_writes(
    paths: &Paths,
    dirs: (&Path, &Path),
    mut server: Server,
    ingest: &IngestLog,
    compactions_before: f64,
    notes: &mut Vec<String>,
) -> Result<(Server, bool), String> {
    let mut correct = true;
    let mut conn = Conn::open(server.addr)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut compactions = read_counters(&mut conn)?.compactions - compactions_before;
    while compactions < ingest.compactions_requested as f64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        compactions = read_counters(&mut conn)?.compactions - compactions_before;
    }
    notes.push(format!(
        "{compactions} of {} requested compaction(s) completed",
        ingest.compactions_requested
    ));
    if compactions != COMPACTIONS as f64 {
        correct = false;
        notes.push(format!("expected exactly {COMPACTIONS} compactions"));
    }
    drop(conn);
    server.kill();
    let (rebooted, _) = Server::boot(paths, dirs.0, dirs.1)?;
    let mut conn = Conn::open(rebooted.addr)?;
    let misses = durability_misses(&mut conn, ingest);
    notes.push(format!(
        "durability (journal fsync policy: always): SIGKILL + reboot, {} live and {} deleted \
         table(s) checked, {} miss(es)",
        ingest.live.len(),
        ingest.deleted.len(),
        misses.len()
    ));
    if !misses.is_empty() {
        correct = false;
        notes.extend(misses.into_iter().take(5));
    }
    Ok((rebooted, correct))
}

/// How well the generator kept its schedule.
pub struct ScheduleKeeping {
    /// Share of requests an idle generator sent more than 1 ms late.
    pub late_pct: f64,
    pub lag_p95_us: f64,
    pub backlog_wait_p95_us: f64,
}

/// A request sent after its due time was held up either by an idle
/// generator that overslept (lag, the generator's fault) or because both
/// connections were still busy (backlog, the server's).
pub fn schedule_keeping(samples: &[Sample]) -> ScheduleKeeping {
    let mut lag: Vec<f64> = Vec::new();
    let mut backlog: Vec<f64> = Vec::new();
    let mut late = 0usize;
    for s in samples {
        let behind_ns = s.sent_ns.saturating_sub(s.due_ns);
        if s.free_at_due {
            lag.push(behind_ns as f64 / 1e3);
            late += usize::from(behind_ns > LATE_NS);
        } else {
            backlog.push(behind_ns as f64 / 1e3);
        }
    }
    lag.sort_by(f64::total_cmp);
    backlog.sort_by(f64::total_cmp);
    ScheduleKeeping {
        late_pct: 100.0 * late as f64 / samples.len().max(1) as f64,
        lag_p95_us: percentile(&lag, 95.0),
        backlog_wait_p95_us: percentile(&backlog, 95.0),
    }
}

/// The per-layer metrics taken over the wire during the window: the
/// server's own counters against what the client saw, and how well the
/// generator kept its schedule.
fn window_layer_metrics(
    cfg: &RunConfig,
    samples: &[Sample],
    (before, after): (ServerCounters, ServerCounters),
    parse_us: f64,
    healthz_us: &mut [f64],
    client_spans: &[crate::trace::Span],
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    let ok = samples.iter().filter(|s| s.ok).count();
    let lat = latencies_us(samples);

    let answered = (after.hits + after.misses + after.coalesced)
        - (before.hits + before.misses + before.coalesced);
    put(
        "service.hit_rate_pct",
        100.0 * (after.hits - before.hits) / answered.max(1.0),
        "%",
    );
    put("server.rejected", after.rejected - before.rejected, "count");
    put("server.shed", after.shed - before.shed, "count");
    put("server.healthz_rt_us", median(healthz_us), "us");

    // Reconcile what the client saw with what the server attributed to
    // its stages over the same window: the rest is HTTP framing, the
    // worker hand-off and syscalls.
    let roundtrip_us: f64 = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.end_ns - s.sent_ns) as f64 / 1e3)
        .sum();
    put(
        "server.engine_share_pct",
        100.0 * (after.engine_us - before.engine_us) / roundtrip_us.max(1.0),
        "%",
    );
    put(
        "server.unattributed_us",
        (roundtrip_us - (after.stage_us - before.stage_us)) / ok.max(1) as f64 - parse_us,
        "us",
    );

    let kept = schedule_keeping(samples);
    put("loadgen.late_pct", kept.late_pct, "%");
    put("loadgen.sched_lag_p95_us", kept.lag_p95_us, "us");
    put(
        "loadgen.backlog_wait_p95_us",
        kept.backlog_wait_p95_us,
        "us",
    );
    let tail = highest_supported_percentile(lat.len()).unwrap_or(50.0);
    put("loadgen.tail_percentile", tail, "%");
    put("loadgen.tail_us", percentile(&lat, tail), "us");
    put("loadgen.p99_us", percentile(&lat, 99.0), "us");
    put("loadgen.samples", lat.len() as f64, "count");
    put(
        "loadgen.trace_overhead_pct",
        trace_overhead_pct(samples, cfg.window, cfg.workload == Workload::ZipfOpen),
        "%",
    );
    let client = self_times(client_spans);
    for (span, metric) in [
        ("client.request", "loadgen.request_self_us"),
        ("client.roundtrip", "loadgen.roundtrip_us"),
        ("client.verify", "loadgen.verify_us"),
    ] {
        put(metric, layers::median_us(&client, span), "us");
    }
    out
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig, paths: &Paths) -> Result<RunOutput, String> {
    let mut notes: Vec<String> = Vec::new();
    // Start from an empty scratch directory: a journal or index left by
    // an earlier run in this process must not leak into this one.
    drop(std::fs::remove_dir_all(&paths.scratch));
    std::fs::create_dir_all(&paths.scratch)
        .map_err(|e| format!("{}: {e}", paths.scratch.display()))?;
    let plan = Plan::build(cfg.scale, &paths.scratch)?;
    // Compaction rewrites the directory the server boots from; the
    // reference engine and the layer replay keep the pristine one.
    let serve_dir = paths.scratch.join("serve-index");
    copy_dir(&plan.index_dir, &serve_dir)?;
    let journal = paths.scratch.join("journal.wal");

    // Set-up: what an operator pays on every restart, several times over.
    let mut boots: Vec<f64> = Vec::with_capacity(BOOTS);
    let mut server = None;
    for _ in 0..BOOTS {
        drop(server.take());
        let (booted, seconds) = Server::boot(paths, &serve_dir, &journal)?;
        boots.push(seconds);
        server = Some(booted);
    }
    let mut server = server.expect("BOOTS is at least 1");
    let setup_s = median(&mut boots);
    let addr = server.addr;

    let window_ns = cfg.window.as_nanos() as u64;
    let ranks = plan::zipf_ranks(plan.universe.len());
    let sources = plan.ingest_sources();
    let n_batches = match cfg.workload {
        Workload::IngestMixed => (cfg.window.as_nanos() / INGEST_PERIOD.as_nanos()) as usize,
        _ => EPILOGUE_BATCHES,
    };
    let streams = Streams {
        order: match cfg.workload {
            Workload::HotRepeat => plan::hot_order(plan.universe.len(), cfg.seed),
            _ => plan::cold_order(plan.universe.len(), cfg.seed),
        },
        schedule: plan::zipf_stream(cfg.seed, &ranks, ZIPF_RATE, window_ns),
        batches: (0..n_batches)
            .map(|k| plan::ingest_batch(&sources, cfg.seed, k))
            .collect(),
    };

    // Before the window; every connection is closed again so both server
    // workers are free for the two load connections.
    //
    // The base workload queries at a `max_rows` outside the universe fill
    // PairMemo and the allocator's pools as any long-running server's
    // are, without touching a response-cache key the window uses. The
    // two cache-dependent workloads then start from the cache a
    // long-running server would hold: the hot set, or the head of the
    // Zipf order.
    let mut warm = base_queries(&plan);
    let cached: &[usize] = match cfg.workload {
        Workload::HotRepeat => &streams.order,
        Workload::ZipfOpen => &ranks[..ZIPF_WARM_RANKS.min(ranks.len())],
        _ => &[],
    };
    warm.extend(cached.iter().map(|&u| plan.universe[u].clone()));
    warm_up(addr, &warm)?;
    let mut healthz_us: Vec<f64> = Vec::new();
    let before = {
        let mut conn = Conn::open(addr)?;
        if cfg.trace {
            for _ in 0..200 {
                let t0 = Instant::now();
                if matches!(conn.get("/healthz"), Ok(r) if r.status == 200) {
                    healthz_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                }
            }
        }
        read_counters(&mut conn)?
    };

    let window = drive(cfg, &plan, &server, &streams);
    let peak_rss_mb = server.peak_rss_mb()?;
    let after = read_counters(&mut Conn::open(addr)?)?;

    // The write side: the window's own on `ingest_mixed`, a fixed
    // epilogue elsewhere (after CPU and RSS were read).
    let mut correct = true;
    let ingest = match window.ingest {
        Some(ingest) => {
            let dirs = (serve_dir.as_path(), journal.as_path());
            let (rebooted, held) =
                check_writes(paths, dirs, server, &ingest, before.compactions, &mut notes)?;
            server = rebooted;
            correct &= held;
            ingest
        }
        None => {
            let epilogue = IngestPlan {
                batches: &streams.batches,
                period: Duration::ZERO,
                compact_every: 0,
                max_compactions: 0,
            };
            load::ingest_loop(addr, &epilogue, Instant::now())
        }
    };
    server.kill();

    // Correctness of the read side.
    let mut samples: Vec<Sample> = Vec::new();
    let mut kept: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut recorder = Recorder::new(window.start_at);
    for log in window.logs {
        samples.extend(log.samples);
        kept.extend(log.kept);
        recorder.absorb(log.recorder.spans);
    }
    if cfg.workload == Workload::IngestMixed {
        notes.push("responses not compared: the index changes under the reads".to_string());
    } else {
        let mismatches = verify_kept(&plan, &kept);
        notes.push(format!(
            "{} distinct kept response(s) compared with Engine::answer, {} mismatch(es)",
            kept.len(),
            mismatches.len()
        ));
        if !mismatches.is_empty() {
            correct = false;
            notes.extend(mismatches.into_iter().take(5));
        }
    }

    let ok = samples.iter().filter(|s| s.ok).count() as u64;
    let attempted = samples.len() as u64 + ingest.attempted;
    let failed = (samples.len() as u64 - ok) + ingest.failed;
    let slices = slice_stats(&samples, window.slice, &window.cpu_at);
    let mut ack_us: Vec<f64> = ingest.ack_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    ack_us.sort_by(f64::total_cmp);
    notes.push(format!(
        "{} ingest ack(s): p50 {:.0} us, p90 {:.0} us, max {:.0} us",
        ack_us.len(),
        percentile(&ack_us, 50.0),
        percentile(&ack_us, 90.0),
        percentile(&ack_us, 100.0)
    ));

    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_rps", slices.throughput_rps, "1/s"),
        Metric::new("query_p50_us", slices.p50_us, "us"),
        Metric::new("query_p95_us", slices.p95_us, "us"),
        Metric::new("cpu_us_per_req", slices.cpu_us_per_req, "us"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new(
            "disk_bytes_per_table",
            plan.disk_bytes as f64 / plan.n_tables as f64,
            "bytes",
        ),
        Metric::new("f1_error_pct", plan.f1_error_pct, "%"),
        Metric::new("ingest_ack_p50_us", percentile(&ack_us, 50.0), "us"),
    ];

    let mut per_layer: Vec<Metric> = Vec::new();
    if cfg.trace {
        // The workload's own stream, as the replay's input.
        let stream: Vec<usize> = match cfg.workload {
            Workload::ZipfOpen => streams.schedule.iter().map(|&(_, u)| u).collect(),
            _ => streams.order,
        };
        let mut rec = Recorder::new(Instant::now());
        per_layer = layers::replay(
            &plan,
            cfg.seed,
            &stream,
            cfg.replay,
            &paths.scratch,
            &mut rec,
        )?;
        let parse_us = per_layer
            .iter()
            .find(|m| m.name == "server.parse_us")
            .map_or(0.0, |m| m.value);
        per_layer.extend(window_layer_metrics(
            cfg,
            &samples,
            (before, after),
            parse_us,
            &mut healthz_us,
            &recorder.spans,
        ));

        recorder.absorb(rec.spans);
        let trace_path = paths
            .scratch
            .parent()
            .unwrap_or(&paths.scratch)
            .join("trace.jsonl");
        write_jsonl(&recorder.spans, &trace_path).map_err(|e| format!("trace.jsonl: {e}"))?;
        notes.push(format!(
            "{} span(s) written to {}",
            recorder.spans.len(),
            trace_path.display()
        ));
    }

    Ok(RunOutput {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    })
}
