//! The in-process half of a traced run: replays the first requests of the
//! workload's own stream through each layer's public functions against
//! the same index directory the server booted from, one span per call,
//! and reduces the spans to the per-layer metrics. Layer = crate name.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wwt_consolidate::{consolidate, RelevantInput};
use wwt_core::{ColumnMapper, InferenceAlgorithm, PairMemo, TableFeatures, TableView};
use wwt_engine::{Engine, QueryRequest, QueryResponse, WwtConfig};
use wwt_index::{
    persist, table_from_json, table_to_json, Field, FsyncPolicy, Journal, JournalRecord, LiveIndex,
    LiveOp, ShardedIndex, ShardedIndexBuilder, TableStore,
};
use wwt_json::Json;
use wwt_model::{TableId, WebTable};
use wwt_server::wire;
use wwt_service::TableSearchService;
use wwt_text::tokenize;

use crate::plan::{ingest_batch, Plan, BATCH_TABLES, SHARDS};
use crate::stats::{median, percentile};
use crate::trace::{self_times, Recorder};
use crate::Metric;

/// How much of each layer the replay exercises.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySize {
    /// Requests replayed from the head of the workload's stream.
    pub requests: usize,
    /// Workload queries each inference algorithm maps.
    pub graph_queries: usize,
    /// Ingest batches pushed through the write-path layers.
    pub batches: usize,
    /// Requests answered against the delta-carrying and compacted engines.
    pub delta_queries: usize,
}

impl ReplaySize {
    /// Sized so that a traced run stays under a minute: the replay costs
    /// about 60 ms per request over all its passes, and belief
    /// propagation about 1 s per query at scale 10.
    pub const FULL: ReplaySize = ReplaySize {
        requests: 256,
        graph_queries: 4,
        batches: 32,
        delta_queries: 32,
    };
    pub const SMOKE: ReplaySize = ReplaySize {
        requests: 48,
        graph_queries: 2,
        batches: 4,
        delta_queries: 8,
    };
}

const ALGORITHMS: [(InferenceAlgorithm, &str); 5] = [
    (InferenceAlgorithm::Independent, "graph.independent_ms"),
    (InferenceAlgorithm::TableCentric, "graph.table_centric_ms"),
    (
        InferenceAlgorithm::AlphaExpansion,
        "graph.alpha_expansion_ms",
    ),
    (InferenceAlgorithm::Trws, "graph.trws_ms"),
    (
        InferenceAlgorithm::BeliefPropagation,
        "graph.belief_propagation_ms",
    ),
];

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median self time of the spans called `name`, in microseconds.
pub fn median_us(times: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    let mut v: Vec<f64> = times
        .get(name)
        .map(|ns| ns.iter().map(|&n| n as f64 / 1e3).collect())
        .unwrap_or_default();
    median(&mut v)
}

/// Views over `tables`, computing each table's features once per replay —
/// the harness-side stand-in for the engine's bind-time feature map.
fn views_for<'t>(
    tables: &[&'t WebTable],
    engine: &Engine,
    features: &mut HashMap<TableId, Arc<TableFeatures>>,
) -> Vec<TableView<'t>> {
    let frac = engine.config().mapper.body_freq_frac;
    tables
        .iter()
        .map(|t| {
            let f = features.entry(t.id).or_insert_with(|| {
                Arc::new(TableFeatures::compute(t, engine.index().stats(), frac))
            });
            TableView::with_features(t, Arc::clone(f))
        })
        .collect()
}

fn candidate_tables<'e>(engine: &'e Engine, response: &QueryResponse) -> Vec<&'e WebTable> {
    response
        .candidates
        .iter()
        .filter_map(|&id| engine.store().get(id))
        .collect()
}

/// Runs the replay. `stream` is the workload's own request order as
/// indices into `plan.universe`; `seed` picks the ingest batches, as it
/// does in the window. Spans land in `rec`; the returned
/// metrics are derived from their self times (and from counts taken at
/// the same boundaries).
pub fn replay(
    plan: &Plan,
    seed: u64,
    stream: &[usize],
    size: ReplaySize,
    scratch: &Path,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let e = |what: &str, err: &dyn std::fmt::Display| format!("layer replay: {what}: {err}");
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    let dir = &plan.index_dir;
    let store_path = dir.join("tables.jsonl");

    // --- index / engine: what a boot pays ---------------------------------
    let t0 = Instant::now();
    let index = persist::load_sharded(dir).map_err(|err| e("load_sharded", &err))?;
    let index_load_s = secs(t0);
    let t0 = Instant::now();
    let store = TableStore::load(&store_path).map_err(|err| e("TableStore::load", &err))?;
    let store_load_s = secs(t0);
    let t0 = Instant::now();
    let engine =
        Engine::load_from_dir(dir, WwtConfig::default()).map_err(|err| e("load_from_dir", &err))?;
    let engine_load_s = secs(t0);
    put("index.load_s", index_load_s, "s");
    put("index.store_load_s", store_load_s, "s");
    put("engine.load_s", engine_load_s, "s");
    put(
        "engine.bind_s",
        (engine_load_s - index_load_s - store_load_s).max(0.0),
        "s",
    );

    // --- json: the codec under both the store and the wire ----------------
    let text = std::fs::read_to_string(&store_path).map_err(|err| e("tables.jsonl", &err))?;
    let lines: Vec<&str> = text.lines().take(4000).collect();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let t0 = Instant::now();
    let parsed: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).map_err(|err| e("Json::parse", &err)))
        .collect::<Result<_, _>>()?;
    put("json.parse_mb_s", bytes as f64 / 1e6 / secs(t0), "MB/s");
    let t0 = Instant::now();
    let encoded: usize = parsed.iter().map(|j| j.encode().len()).sum();
    put("json.encode_mb_s", encoded as f64 / 1e6 / secs(t0), "MB/s");
    drop((parsed, text));

    // --- the read path, request by request --------------------------------
    let stream = &stream[..size.requests.min(stream.len())];
    let mut requests: Vec<QueryRequest> = Vec::with_capacity(stream.len());
    for (i, &u) in stream.iter().enumerate() {
        let body = plan.universe[u].as_bytes();
        let (parsed, _) = rec.time("server.parse", None, i as u64, || {
            wire::parse_query_request(body)
        });
        requests.push(parsed.map_err(|err| e("parse_query_request", &err.message))?);
    }
    let mut seen_columns: HashSet<Vec<String>> = HashSet::new();
    for (i, req) in requests.iter().enumerate() {
        let id = i as u64;
        let (tokens, _) = rec.time("text.tokenize", None, id, || {
            tokenize(&req.query.all_keywords())
        });
        rec.time("index.search", None, id, || {
            index.search(&tokens, engine.config().probe1_k)
        });
        for l in 0..req.query.q() {
            let column = tokenize(req.query.column(l));
            // First touch only: a repeat is served from the doc-set memo.
            if !column.is_empty() && seen_columns.insert(column.clone()) {
                rec.time("index.docset", None, id, || {
                    index.docs_with_all(&column, &[Field::Header, Field::Context])
                });
            }
        }
    }
    put(
        "index.docset_entries",
        index.docset_cache_entries() as f64,
        "count",
    );

    // PairMemo empty on the first pass, filled on the second.
    let mut responses: Vec<QueryResponse> = Vec::with_capacity(requests.len());
    let mut first_ns: Vec<u64> = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let start = rec.now_ns();
        let response = engine
            .answer(req)
            .map_err(|err| e("Engine::answer", &err))?;
        let end = rec.now_ns();
        rec.push("engine.answer_first", start, end, None, i as u64);
        first_ns.push(end - start);
        responses.push(response);
    }
    let mut warm_ns: Vec<u64> = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let start = rec.now_ns();
        engine
            .answer(req)
            .map_err(|err| e("Engine::answer", &err))?;
        let end = rec.now_ns();
        rec.push("engine.answer_warm", start, end, None, i as u64);
        warm_ns.push(end - start);
        rec.time("engine.retrieve", None, i as u64, || {
            engine.retrieve(&req.query)
        });
    }
    let candidates: usize = responses.iter().map(|r| r.diagnostics.n_candidates).sum();
    let relevant: usize = responses.iter().map(|r| r.diagnostics.n_relevant).sum();
    let zero_row_ns: u64 = responses
        .iter()
        .zip(&first_ns)
        .filter(|(r, _)| r.table.is_empty())
        .map(|(_, &ns)| ns)
        .sum();
    put(
        "engine.candidates_per_query",
        candidates as f64 / responses.len().max(1) as f64,
        "count",
    );
    put(
        "engine.relevant_per_candidate_pct",
        100.0 * relevant as f64 / candidates.max(1) as f64,
        "%",
    );
    put(
        "engine.zero_row_time_pct",
        100.0 * zero_row_ns as f64 / first_ns.iter().sum::<u64>().max(1) as f64,
        "%",
    );

    // Column mapping and consolidation on the retrieved candidates.
    let mut features: HashMap<TableId, Arc<TableFeatures>> = HashMap::new();
    let mapper = ColumnMapper {
        config: engine.config().mapper.clone(),
        algorithm: engine.config().algorithm,
        pair_memo: Some(Arc::new(PairMemo::for_config(&engine.config().mapper))),
    };
    let stats = engine.index().stats();
    let docsets = engine.index() as &dyn wwt_index::DocSets;
    let mut rows_out: Vec<f64> = Vec::with_capacity(requests.len());
    let mut encode_bytes: Vec<f64> = Vec::with_capacity(requests.len());
    for (i, (req, response)) in requests.iter().zip(&responses).enumerate() {
        let tables = candidate_tables(&engine, response);
        let views = views_for(&tables, &engine, &mut features);
        let (mapping, _) = rec.time("core.map", None, i as u64, || {
            mapper.map_views(&req.query, &views, stats, Some(docsets))
        });
        let inputs: Vec<RelevantInput<'_>> = (0..tables.len())
            .filter(|&t| mapping.labelings[t].is_relevant())
            .map(|t| RelevantInput {
                table: tables[t],
                labeling: &mapping.labelings[t],
                relevance: mapping.table_relevance[t],
            })
            .collect();
        let (answer, _) = rec.time("consolidate.consolidate", None, i as u64, || {
            consolidate(&req.query, &inputs)
        });
        rows_out.push(answer.len() as f64);
        let (encoded, _) = rec.time("server.encode", None, i as u64, || {
            wire::encode_response(req, response)
        });
        encode_bytes.push(encoded.len() as f64);
    }
    put("consolidate.rows_out", median(&mut rows_out), "count");
    put("server.encode_bytes", median(&mut encode_bytes), "bytes");

    // The five inference algorithms over a fixed subset of the workload
    // (no PairMemo, so every algorithm builds the same edges itself).
    let step = (plan.specs.len() / size.graph_queries.max(1)).max(1);
    let subset: Vec<QueryRequest> = plan
        .specs
        .iter()
        .step_by(step)
        .take(size.graph_queries)
        .map(|s| QueryRequest::new(s.query.clone()))
        .collect();
    let subset_responses: Vec<QueryResponse> = subset
        .iter()
        .map(|req| engine.answer(req).map_err(|err| e("Engine::answer", &err)))
        .collect::<Result<_, _>>()?;
    for (algorithm, name) in ALGORITHMS {
        let mapper = ColumnMapper {
            config: engine.config().mapper.clone(),
            algorithm,
            pair_memo: None,
        };
        let t0 = Instant::now();
        for (req, response) in subset.iter().zip(&subset_responses) {
            let tables = candidate_tables(&engine, response);
            let views = views_for(&tables, &engine, &mut features);
            std::hint::black_box(mapper.map_views(&req.query, &views, stats, Some(docsets)));
        }
        // View construction is memoized after the first algorithm; the
        // first one's figure carries it once, for at most
        // `graph_queries` x 72 tables.
        put(name, secs(t0) * 1e3 / subset.len().max(1) as f64, "ms");
    }
    drop(features);

    // The service in front of the engine: cached and uncached answers of
    // the distinct requests (the hot set repeats itself within the head
    // of its stream).
    let mut distinct: Vec<usize> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for (i, &u) in stream.iter().enumerate() {
        if seen.insert(u) {
            distinct.push(i);
        }
    }
    let service = TableSearchService::new(Arc::new(engine.clone()));
    for pass in ["service.miss", "service.hit"] {
        for &i in &distinct {
            let (answer, _) = rec.time(pass, None, i as u64, || service.answer(&requests[i]));
            answer.map_err(|err| e("TableSearchService::answer", &err))?;
        }
    }
    let service_stats = service.stats();
    if service_stats.hits as usize != distinct.len()
        || service_stats.misses as usize != distinct.len()
    {
        return Err(format!(
            "layer replay: service passes saw {} hits / {} misses over {} distinct requests",
            service_stats.hits,
            service_stats.misses,
            distinct.len()
        ));
    }
    let mut warm_distinct: Vec<f64> = distinct.iter().map(|&i| warm_ns[i] as f64 / 1e3).collect();
    let warm_distinct_us = median(&mut warm_distinct);

    // --- pool: the hand-off a cold query pays three times -----------------
    for i in 0..2000u64 {
        rec.time("pool.fan_out", None, i, || {
            wwt_pool::fan_out(SHARDS, SHARDS, |_| ())
        });
    }

    // --- the write path ----------------------------------------------------
    let tables: Vec<&WebTable> = store.iter().collect();
    let t0 = Instant::now();
    let mut builder = ShardedIndexBuilder::new(SHARDS);
    for t in &tables {
        builder.add_table(t);
    }
    let rebuilt = builder.build_with_threads(SHARDS);
    put("index.build_s", secs(t0), "s");
    let save_dir = scratch.join("layers-index");
    std::fs::create_dir_all(&save_dir).map_err(|err| e("layers-index", &err))?;
    let t0 = Instant::now();
    persist::save_sharded(&rebuilt, &save_dir).map_err(|err| e("save_sharded", &err))?;
    store
        .save(&save_dir.join("tables.jsonl"))
        .map_err(|err| e("TableStore::save", &err))?;
    put("index.save_s", secs(t0), "s");
    drop((rebuilt, tables));

    let sources = plan.ingest_sources();
    let batches: Vec<Vec<WebTable>> = (0..size.batches)
        .map(|k| {
            ingest_batch(&sources, seed, k)
                .lines()
                .map(|line| table_from_json(line).map_err(|err| e("table_from_json", &err)))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let records = |batch: &[WebTable]| -> Vec<JournalRecord> {
        batch
            .iter()
            .map(|t| JournalRecord::AddTable(table_to_json(t)))
            .collect()
    };

    let journal_path = scratch.join("layers.journal");
    let (mut journal, _) = Journal::open(&journal_path, FsyncPolicy::Always)
        .map_err(|err| e("Journal::open", &err))?;
    for (k, batch) in batches.iter().enumerate() {
        let recs = records(batch);
        let (appended, _) = rec.time("index.journal_append", None, k as u64, || {
            journal.append_all(&recs)
        });
        appended.map_err(|err| e("Journal::append_all", &err))?;
    }
    // Policy `always`: one fsync per appended batch.
    put("index.journal_fsyncs", batches.len() as f64, "count");
    put(
        "index.journal_bytes_per_table",
        journal.bytes() as f64 / (batches.len() * BATCH_TABLES).max(1) as f64,
        "bytes",
    );
    drop(journal);

    let frozen: Arc<ShardedIndex> = Arc::new(index);
    let add_ops = |batch: &[WebTable]| -> Vec<LiveOp> {
        batch
            .iter()
            .map(|t| LiveOp::Add {
                table: t.clone(),
                overrides_frozen: false,
            })
            .collect()
    };
    let mut live = LiveIndex::empty(Arc::clone(&frozen));
    for (k, batch) in batches.iter().enumerate() {
        let ops = add_ops(batch);
        let start = rec.now_ns();
        live = live.with_ops_applied(ops);
        let end = rec.now_ns();
        for (at, name) in [
            (0, "index.live_apply_d0"),
            (256, "index.live_apply_d256"),
            (512 - BATCH_TABLES, "index.live_apply_d496"),
        ] {
            if k * BATCH_TABLES == at {
                rec.push(name, start, end, None, k as u64);
            }
        }
    }
    drop((live, frozen));

    let mut delta_engine = engine.clone();
    for (k, batch) in batches.iter().enumerate() {
        let (next, _) = rec.time("engine.ingest_batch", None, k as u64, || {
            delta_engine.with_tables_added(batch.clone())
        });
        delta_engine = next;
    }
    let t0 = Instant::now();
    let compacted = delta_engine.compacted();
    put("engine.compact_s", secs(t0), "s");
    let probe: Vec<&QueryRequest> = requests.iter().take(size.delta_queries).collect();
    let time_over = |engine: &Engine| -> Result<f64, String> {
        let t0 = Instant::now();
        for req in &probe {
            engine
                .answer(req)
                .map_err(|err| e("Engine::answer", &err))?;
        }
        Ok(secs(t0))
    };
    // Warm both engines' memos first so the comparison is delta vs frozen,
    // not first touch vs second.
    time_over(&delta_engine)?;
    time_over(&compacted)?;
    let with_delta = time_over(&delta_engine)?;
    let folded = time_over(&compacted)?;
    put(
        "engine.delta_penalty_pct",
        100.0 * (with_delta - folded) / folded,
        "%",
    );
    drop((delta_engine, compacted));

    let t0 = Instant::now();
    let (_, replayed) = Journal::open(&journal_path, FsyncPolicy::Always)
        .map_err(|err| e("Journal::open", &err))?;
    let recovered = engine
        .with_journal_replayed(&replayed.records)
        .map_err(|err| e("with_journal_replayed", &err))?;
    put("engine.replay_s", secs(t0), "s");
    if recovered.delta_len() != batches.len() * BATCH_TABLES {
        return Err(format!(
            "layer replay: journal replay recovered {} of {} tables",
            recovered.delta_len(),
            batches.len() * BATCH_TABLES
        ));
    }
    drop(recovered);

    let ingest_service = TableSearchService::new(Arc::new(engine.clone()));
    let (svc_journal, _) =
        Journal::open(&scratch.join("layers-service.journal"), FsyncPolicy::Always)
            .map_err(|err| e("Journal::open", &err))?;
    ingest_service.attach_journal(svc_journal, None);
    for (k, batch) in batches.iter().enumerate() {
        let (acked, _) = rec.time("service.ingest", None, k as u64, || {
            ingest_service.ingest_tables(batch.clone())
        });
        acked.map_err(|err| e("ingest_tables", &err))?;
    }

    // --- spans -> metrics ---------------------------------------------------
    let times = self_times(&rec.spans);
    for (span, metric) in [
        ("text.tokenize", "text.tokenize_us"),
        ("index.search", "index.search_us"),
        ("index.docset", "index.docset_us"),
        ("index.journal_append", "index.journal_append_us"),
        ("index.live_apply_d0", "index.live_apply_d0_us"),
        ("index.live_apply_d256", "index.live_apply_d256_us"),
        ("index.live_apply_d496", "index.live_apply_d496_us"),
        ("engine.retrieve", "engine.retrieve_us"),
        ("engine.answer_first", "engine.answer_first_us"),
        ("engine.answer_warm", "engine.answer_warm_us"),
        ("engine.ingest_batch", "engine.ingest_batch_us"),
        ("core.map", "core.map_us"),
        ("consolidate.consolidate", "consolidate.consolidate_us"),
        ("service.hit", "service.hit_us"),
        ("service.ingest", "service.ingest_us"),
        ("server.parse", "server.parse_us"),
        ("server.encode", "server.encode_us"),
        ("pool.fan_out", "pool.fan_out_us"),
    ] {
        put(metric, median_us(&times, span), "us");
    }
    let mut map_us: Vec<f64> = times
        .get("core.map")
        .map(|ns| ns.iter().map(|&n| n as f64 / 1e3).collect())
        .unwrap_or_default();
    map_us.sort_by(f64::total_cmp);
    put("core.map_p95_us", percentile(&map_us, 95.0), "us");
    put(
        "service.miss_overhead_us",
        median_us(&times, "service.miss") - warm_distinct_us,
        "us",
    );
    Ok(out)
}
