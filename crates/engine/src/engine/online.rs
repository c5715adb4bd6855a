//! The online pipeline of paper Figure 2 over one [`Engine`] snapshot:
//! two index probes (§2.2.1), column mapping (§3–4), consolidation.
//! Every stage runs under the request's [`ExecCtx`].

use super::exec::ExecCtx;
use super::Engine;
use crate::request::{QueryDiagnostics, QueryRequest, QueryResponse, WwtConfig};
use crate::retrieval::Retrieval;
use crate::timing::StageTimings;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wwt_consolidate::{consolidate, RelevantInput};
use wwt_core::{ColumnMapper, InferenceAlgorithm, MappingResult, TableView};
use wwt_index::{DocSets, SearchHit, ShardedIndex};
use wwt_model::{Query, TableId, WebTable, WwtError};
use wwt_obs::{SpanRecord, Stage, Trace};
use wwt_text::{tokenize, TermId};

/// Below this corpus size the scatter-gather runs the shards serially on
/// the calling thread: spawning workers costs more than probing a tiny
/// index, and the merged result is identical either way.
pub(super) const PARALLEL_PROBE_MIN_DOCS: usize = 4096;

/// How many merge-loop iterations run between deadline checks. Checking
/// reads the clock, so the loop amortizes it over a batch of cheap
/// iterations while still bounding how far a giant candidate set can
/// blow past the budget *inside* a stage.
const MERGE_DEADLINE_STRIDE: usize = 1024;

/// The name deadline errors and degraded reasons give a probe stage.
fn probe_name(probe: Stage) -> &'static str {
    match probe {
        Stage::Probe1 => "first probe",
        _ => "second probe",
    }
}

impl Engine {
    /// Runs the two-stage candidate retrieval (§2.2.1) with the engine
    /// configuration.
    pub fn retrieve(&self, query: &Query) -> Retrieval {
        self.retrieve_with(query, &self.config, &ExecCtx::default())
            .map(|(retrieval, _)| retrieval)
            .expect("retrieval without a deadline cannot time out")
    }

    /// One ranked index probe, scattered across the shards on the engine
    /// pool and gathered with the equivalence-preserving merge. Query
    /// tokens are resolved against the global term dictionary **once**
    /// (one string hash per token); every shard worker then scores pure
    /// ids. Every worker re-checks the deadline before probing its shard,
    /// so an expired budget abandons the not-yet-probed shards instead of
    /// finishing work nobody will read (a shard search already underway
    /// runs to completion — checks sit on shard boundaries, bounding the
    /// overshoot at one shard's probe).
    ///
    /// Alongside the merged hits, returns each shard's probe wall-clock
    /// (scatter order) — the per-shard view `QueryDiagnostics` surfaces
    /// so scatter-gather stragglers are visible.
    fn probe(
        &self,
        tokens: &[String],
        k: usize,
        probe: Stage,
        ctx: &ExecCtx,
    ) -> Result<(Vec<SearchHit>, Vec<Duration>), WwtError> {
        let Some(overlay) = &self.live else {
            return self.probe_frozen(tokens, k, probe, ctx);
        };
        // Live path: over-fetch the frozen shards by the number of
        // shadowed tables (so filtering tombstoned/overridden hits can
        // never starve the top-k), drop shadowed hits, then fold in the
        // delta's hits under the same global total order the
        // shard merge uses.
        let shadowed = overlay.live.shadowed_len();
        let (mut hits, shard_times) = self.probe_frozen(tokens, k + shadowed, probe, ctx)?;
        hits.retain(|h| !overlay.live.is_shadowed(h.table));
        let delta_hits = overlay.live.delta_search(tokens, k);
        ctx.note(format_args!("{}_delta_hits", probe.label()), || {
            delta_hits.len().to_string()
        });
        hits.extend(delta_hits);
        hits.sort_by(SearchHit::rank_order);
        hits.truncate(k);
        Ok((hits, shard_times))
    }

    /// The frozen-only scatter-gather behind [`Engine::probe`]. Under
    /// fail-soft, a shard whose worker errors (or panics) — or that the
    /// deadline expired before — is dropped from the merge with a
    /// recorded reason instead of failing the whole probe; its slot in
    /// the per-shard timing view reads zero.
    fn probe_frozen(
        &self,
        tokens: &[String],
        k: usize,
        probe: Stage,
        ctx: &ExecCtx,
    ) -> Result<(Vec<SearchHit>, Vec<Duration>), WwtError> {
        let ids: Vec<(TermId, f64)> = self.index.resolve_query(tokens);
        let n = self.index.n_shards();
        let probe_one = |s: usize| -> Result<(Vec<SearchHit>, Duration), WwtError> {
            ctx.check(probe_name(probe))?;
            wwt_chaos::io_failpoint(wwt_chaos::PROBE_SHARD)?;
            let t0 = Instant::now();
            let hits = self.index.shard(s).search_ids(&ids, k);
            Ok((hits, t0.elapsed()))
        };
        if n == 1 {
            let (hits, elapsed) = ctx
                .absorb(
                    probe_one(0),
                    format_args!("{}: shard 0 dropped", probe_name(probe)),
                )?
                .unwrap_or_default();
            ctx.note(format_args!("{}_shard_hits", probe.label()), || {
                hits.len().to_string()
            });
            return Ok((hits, vec![elapsed]));
        }
        // Tiny corpora probe serially (threads = 1): same scatter order,
        // same merged bytes, none of the spawn cost.
        let threads = if self.index.n_docs() >= PARALLEL_PROBE_MIN_DOCS {
            self.probe_threads
        } else {
            1
        };
        let mut lists = Vec::with_capacity(n);
        let mut shard_times = Vec::with_capacity(n);
        for (s, r) in ctx.scatter(n, threads, probe_one).into_iter().enumerate() {
            match ctx.absorb(r, format_args!("{}: shard {s} dropped", probe_name(probe)))? {
                Some((hits, elapsed)) => {
                    lists.push(hits);
                    shard_times.push(elapsed);
                }
                None => shard_times.push(Duration::default()),
            }
        }
        ctx.note(format_args!("{}_shard_hits", probe.label()), || {
            let per_shard_hits: Vec<String> = lists.iter().map(|l| l.len().to_string()).collect();
            per_shard_hits.join(",")
        });
        Ok((merge_shard_hits(lists, k, ctx)?, shard_times))
    }

    /// Retrieval plus the stage-1 pre-mapping it computed along the way
    /// (reusable as the final mapping when the second probe adds
    /// nothing; `None` when fail-soft absorbed its failure). Fails only
    /// when the deadline expires at the boundary between the first and
    /// second probe.
    fn retrieve_with(
        &self,
        query: &Query,
        cfg: &WwtConfig,
        ctx: &ExecCtx,
    ) -> Result<(Retrieval, Option<MappingResult>), WwtError> {
        let mut timing = StageTimings::default();

        // Probe 1: union of query keywords (hits far below the best match
        // are dropped — they are single-keyword noise), scattered across
        // the index shards.
        let t0 = Instant::now();
        let tokens = tokenize(&query.all_keywords());
        let (mut hits1, shard_times1) = self.probe(&tokens, cfg.probe1_k, Stage::Probe1, ctx)?;
        if let Some(best) = hits1.first().map(|h| h.score) {
            hits1.retain(|h| h.score >= best * cfg.score_cutoff_frac);
        }
        timing.index1 = t0.elapsed();
        timing.probe1_shards = shard_times1;
        ctx.span(|| {
            probe_span(
                Stage::Probe1,
                timing.index1,
                &timing.probe1_shards,
                hits1.len(),
                cfg.probe1_k,
            )
        });

        let t0 = Instant::now();
        let stage1: Vec<TableId> = hits1.iter().map(|h| h.table).collect();
        let stage1_set: HashSet<TableId> = stage1.iter().copied().collect();
        let tables1: Vec<&WebTable> = stage1.iter().filter_map(|&id| self.table(id)).collect();
        timing.read1 = t0.elapsed();
        ctx.span(|| {
            SpanRecord::new(Stage::Read1.label(), timing.read1)
                .with_detail("tables", tables1.len().to_string())
        });

        // Pre-map stage-1 candidates to find confident seed tables.
        // Fail-soft: no pre-mapping means no relevance scores — the
        // second probe loses its seeds and the final map has no premap
        // to fall back on, but retrieval itself stands.
        let t0 = Instant::now();
        let mapper = self.mapper(cfg, cfg.algorithm);
        let premapped = self.map_traced(&mapper, query, &tables1, ctx, "column_map:premap");
        let pre = ctx.absorb(premapped, "column mapping (premap)")?;
        timing.column_map += t0.elapsed();

        let mut seeds: Vec<usize> = match &pre {
            Some(pre) => {
                let mut seeds: Vec<usize> = (0..tables1.len())
                    .filter(|&i| {
                        pre.table_relevance[i] >= cfg.high_relevance
                            && pre.labelings[i].is_relevant()
                    })
                    .collect();
                seeds.sort_by(|&a, &b| {
                    pre.table_relevance[b]
                        .partial_cmp(&pre.table_relevance[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                seeds
            }
            // The fail-soft absorbed premap above: nothing to seed from.
            None => Vec::new(),
        };
        seeds.truncate(2);
        ctx.note("probe2_seeds", || seeds.len().to_string());

        // Stage boundary: the second probe (and everything after it) is
        // refused once the budget is spent — or, fail-soft, skipped with
        // the stage-1 candidates standing in for the full retrieval.
        if ctx.boundary(probe_name(Stage::Probe2), "skipped (deadline exceeded)")? {
            seeds.clear();
        }

        let mut stage2: Vec<TableId> = Vec::new();
        let probe2_used = !seeds.is_empty();
        if probe2_used {
            // Sample rows from the confident tables (deterministic spread).
            let mut sample_tokens: Vec<String> = tokens.clone();
            for &s in &seeds {
                let t = tables1[s];
                let n = t.n_rows();
                let step = (n / cfg.sample_rows.max(1)).max(1);
                for r in (0..n).step_by(step).take(cfg.sample_rows) {
                    for c in 0..t.n_cols() {
                        // Purely numeric tokens (years, counts) match
                        // foreign tables everywhere; the discriminative
                        // part of a sampled row is its entity text.
                        sample_tokens.extend(
                            tokenize(t.cell(r, c))
                                .into_iter()
                                .filter(|tok| !tok.chars().all(|c| c.is_ascii_digit())),
                        );
                    }
                }
            }
            let t0 = Instant::now();
            // Stage-1 tables re-match their own sampled rows, so search
            // wide enough that they cannot crowd out new tables, then keep
            // the top `probe2_k` *new* content-overlap matches.
            let k2 = cfg.probe2_k + stage1.len();
            let (mut hits2, shard_times2) = self.probe(&sample_tokens, k2, Stage::Probe2, ctx)?;
            hits2.retain(|h| !stage1_set.contains(&h.table));
            hits2.truncate(cfg.probe2_k);
            timing.index2 = t0.elapsed();
            timing.probe2_shards = shard_times2;
            ctx.span(|| {
                probe_span(
                    Stage::Probe2,
                    timing.index2,
                    &timing.probe2_shards,
                    hits2.len(),
                    cfg.probe2_k,
                )
            });
            let t0 = Instant::now();
            let mut seen2: HashSet<TableId> = HashSet::with_capacity(hits2.len());
            for (i, h) in hits2.into_iter().enumerate() {
                // The in-stage check: a giant second-probe candidate set
                // must not carry the request past its budget between the
                // stage boundaries.
                if i % MERGE_DEADLINE_STRIDE == 0
                    && ctx.boundary(
                        "retrieval merge",
                        "candidate list truncated (deadline exceeded)",
                    )?
                {
                    break;
                }
                if seen2.insert(h.table) {
                    stage2.push(h.table);
                }
            }
            timing.read2 = t0.elapsed();
        }
        Ok((
            Retrieval {
                stage1,
                stage2,
                probe2_used,
                timing,
            },
            pre,
        ))
    }

    /// Full online pipeline for one typed request: validate options →
    /// retrieve → map → consolidate → rank → limit (§2.2). The request's
    /// `deadline_ms` budget (if any) is checked at every stage boundary;
    /// once it passes, the pipeline aborts with
    /// [`WwtError::DeadlineExceeded`] instead of finishing work whose
    /// reader has already given up.
    pub fn answer(&self, request: &QueryRequest) -> Result<QueryResponse, WwtError> {
        self.answer_traced(request, &Trace::disabled())
    }

    /// [`Engine::answer`] recording into a caller-supplied [`Trace`].
    ///
    /// A disabled trace makes this exactly `answer` — no allocations
    /// beyond the untraced path. When the request sets `explain` and the
    /// caller passed a disabled handle, a local trace is enabled so
    /// in-process callers get diagnostics too. The finished report lands
    /// in [`QueryDiagnostics::trace`].
    pub fn answer_traced(
        &self,
        request: &QueryRequest,
        trace: &Trace,
    ) -> Result<QueryResponse, WwtError> {
        let cfg = request.options.resolve(&self.config)?;
        let ctx = ExecCtx::new(&request.options, trace);
        // The admission check stays hard even under fail-soft: a budget
        // spent before any work ran has no partial result to salvage.
        ctx.check("retrieval")?;
        let started = Instant::now();
        if let Some(ms) = request.options.deadline_ms {
            ctx.note("deadline_ms", || ms.to_string());
        }
        let query = &request.query;
        let (retrieval, premap) = self.retrieve_with(query, &cfg, &ctx)?;
        let mut timing = retrieval.timing.clone();
        let mut candidates = retrieval.candidates();

        // Stage boundary: candidate tables are in hand; mapping is the
        // most expensive online stage, so refuse it on a spent budget —
        // or, fail-soft, cut it back to the first-probe candidates the
        // stage-1 pre-mapping already labeled. With no premap to reuse
        // (it was absorbed), a remap could only trip the same deadline:
        // the cut then keeps no candidate and the mapper never runs.
        let (consequence, kept) = match premap {
            Some(_) => (
                "limited to first-probe candidates (deadline exceeded)",
                retrieval.stage1.len(),
            ),
            None => ("skipped, no premap to reuse (deadline exceeded)", 0),
        };
        let mapping_cut = ctx.boundary("column mapping", consequence)?;
        if mapping_cut {
            candidates.truncate(kept);
        }
        let premap = premap.unwrap_or_else(MappingResult::empty);

        let t0 = Instant::now();
        let mut tables: Vec<&WebTable> =
            candidates.iter().filter_map(|&id| self.table(id)).collect();
        timing.read2 += t0.elapsed();

        // The stage-1 pre-map already labeled exactly this candidate set
        // when the second probe contributed nothing (or fail-soft cut
        // the mapping back to stage 1) — reuse it instead of re-running
        // the most expensive online stage (the mapper is deterministic
        // over identical inputs).
        let premap_stats = premap.stats;
        let reused_premap =
            (retrieval.stage2.is_empty() || mapping_cut) && premap.labelings.len() == tables.len();
        let mut fell_back = false;
        let mapping = if reused_premap {
            ctx.note("column_map", || "reused premap".to_string());
            premap
        } else {
            let t0 = Instant::now();
            // Fail-soft deadline pressure (over half the budget already
            // spent): joint inference would likely blow what remains, so
            // downgrade to independent per-table labeling — a cheaper
            // answer beats none.
            let mut algorithm = cfg.algorithm;
            if ctx.pressured() && algorithm != InferenceAlgorithm::Independent {
                ctx.degrade(
                    "column mapping: downgraded to independent inference (deadline pressure)"
                        .to_string(),
                );
                algorithm = InferenceAlgorithm::Independent;
            }
            let mapper = self.mapper(&cfg, algorithm);
            let mapped = self.map_traced(&mapper, query, &tables, &ctx, Stage::ColumnMap.label());
            timing.column_map += t0.elapsed();
            match ctx.absorb(mapped, "column mapping")? {
                Some(mapping) => mapping,
                None => {
                    // Fall back to the stage-1 pre-mapping: candidates
                    // are stage1 ++ stage2 and table reads preserve that
                    // prefix order, so the premap labels exactly the
                    // first `premap.labelings.len()` tables (zero when
                    // the premap itself degraded away).
                    fell_back = true;
                    tables.truncate(premap.labelings.len());
                    candidates.truncate(tables.len());
                    premap
                }
            }
        };
        // Diagnostics counters cover every mapper run this request made:
        // the final map plus the premap when the latter wasn't reused
        // (reuse — including the fail-soft fallback onto the premap —
        // would double-count the same run).
        let mut map_stats = mapping.stats;
        if !reused_premap && !fell_back {
            map_stats.merge(&premap_stats);
        }

        // Stage boundary: mapping is done; consolidation is refused on a
        // spent budget (fail-soft: noted and run anyway — it is cheap
        // relative to what is already in hand, and it is the step that
        // turns the surviving candidates into an answer).
        ctx.boundary("consolidation", "ran past the deadline")?;

        let t0 = Instant::now();
        let inputs: Vec<RelevantInput<'_>> = (0..tables.len())
            .filter(|&i| mapping.labelings[i].is_relevant())
            .map(|i| RelevantInput {
                table: tables[i],
                labeling: &mapping.labelings[i],
                relevance: mapping.table_relevance[i],
            })
            .collect();
        let mut table = consolidate(query, &inputs);
        timing.consolidate = t0.elapsed();
        ctx.span(|| {
            SpanRecord::new(Stage::Consolidate.label(), timing.consolidate)
                .with_detail("relevant_tables", inputs.len().to_string())
        });
        ctx.note("candidates", || candidates.len().to_string());
        ctx.note("docset_cache_entries", || {
            self.docset_cache_entries().to_string()
        });

        let rows_before_limit = table.len();
        if let Some(limit) = request.options.max_rows {
            table.rows.truncate(limit);
        }
        let degraded_reasons = ctx.take_reasons();
        let diagnostics = QueryDiagnostics {
            timing,
            probe2_used: retrieval.probe2_used,
            n_candidates: candidates.len(),
            n_relevant: inputs.len(),
            rows_before_limit,
            trace: ctx.finish(started.elapsed()),
            map_stats,
            degraded: !degraded_reasons.is_empty(),
            degraded_reasons,
        };
        Ok(QueryResponse {
            table,
            mapping,
            candidates,
            retrieval,
            diagnostics,
        })
    }

    /// The column mapper for one request, sharing the engine's pair memo.
    fn mapper(&self, cfg: &WwtConfig, algorithm: InferenceAlgorithm) -> ColumnMapper {
        ColumnMapper {
            config: cfg.mapper.clone(),
            algorithm,
            pair_memo: Some(Arc::clone(&self.pair_memo)),
        }
    }

    /// The column-map batch with optional per-view tracing: untraced
    /// requests take the untimed pooled path unchanged; traced ones run
    /// the timed variant (identical output) and record a span carrying
    /// one child per view — a deterministic prefix in candidate order,
    /// so traces of the same request are structurally stable run to run.
    ///
    /// The batch runs under the deadline with in-stage granularity: the
    /// cancel hook is consulted once per view inside the node-potential
    /// loop and once per table during edge construction, so a giant
    /// candidate set cannot carry the request far past its budget
    /// between stage boundaries (the same contract as
    /// [`MERGE_DEADLINE_STRIDE`] in retrieval merging).
    fn map_traced(
        &self,
        mapper: &ColumnMapper,
        query: &Query,
        tables: &[&WebTable],
        ctx: &ExecCtx,
        span_name: &'static str,
    ) -> Result<MappingResult, WwtError> {
        wwt_chaos::io_failpoint(wwt_chaos::MAP_BATCH)?;
        let views = self.views_for(tables);
        let check = || ctx.check("column mapping");
        let cancel: Option<&(dyn Fn() -> Result<(), WwtError> + Sync)> = Some(&check);
        if !ctx.traced() {
            return mapper.map_views_cancellable(
                query,
                &views,
                self.index.stats(),
                Some(self.docsets()),
                self.map_threads,
                cancel,
            );
        }
        let t0 = Instant::now();
        let (mapping, view_times) = mapper.map_views_cancellable_timed(
            query,
            &views,
            self.index.stats(),
            Some(self.docsets()),
            self.map_threads,
            cancel,
        )?;
        ctx.span(|| {
            let mut span = SpanRecord::new(span_name, t0.elapsed())
                .with_detail("views", tables.len().to_string())
                .with_detail("threads", self.map_threads.to_string());
            const MAX_VIEW_CHILDREN: usize = 8;
            for (i, elapsed) in view_times.iter().take(MAX_VIEW_CHILDREN).enumerate() {
                span = span.with_child(SpanRecord::new(
                    format!("view:{}", tables[i].id.0),
                    *elapsed,
                ));
            }
            span
        });
        Ok(mapping)
    }

    /// Views over `tables`, reusing bind-time precomputed features when
    /// available (the common path) and computing on the spot otherwise
    /// (`precompute_views` off, or a table unknown at bind). Both paths
    /// produce identical answers — with `precompute_views` on, spot
    /// views carry the same interned fast-path layout bind-time views
    /// do; with it off, the engine stays entirely on the string oracle
    /// path (the reference implementation equivalence tests diff
    /// against).
    fn views_for<'t>(&self, tables: &[&'t WebTable]) -> Vec<TableView<'t>> {
        tables
            .iter()
            .map(|t| {
                // Delta tables (and delta overrides of frozen ids) carry
                // their own bind-time features; they are checked first so
                // a re-ingested id never reuses the stale frozen view.
                if let Some(overlay) = &self.live {
                    if let Some(f) = overlay.features.get(&t.id) {
                        return TableView::with_features(t, Arc::clone(f));
                    }
                    if overlay.live.delta_table(t.id).is_some() {
                        return self.spot_view(t);
                    }
                }
                match self.features.get(&t.id) {
                    Some(f) => TableView::with_features(t, Arc::clone(f)),
                    None => self.spot_view(t),
                }
            })
            .collect()
    }

    /// A view computed at query time for a table with no bind-time
    /// features, matching the engine's configured feature flavor.
    fn spot_view<'t>(&self, t: &'t WebTable) -> TableView<'t> {
        if self.config.precompute_views {
            TableView::new(t, self.index.stats(), self.config.mapper.body_freq_frac)
        } else {
            TableView::new_oracle(t, self.index.stats(), self.config.mapper.body_freq_frac)
        }
    }

    /// One table of the live view: the delta's copy wins, tombstoned
    /// frozen tables are gone, everything else reads the frozen store.
    fn table(&self, id: TableId) -> Option<&WebTable> {
        if let Some(overlay) = &self.live {
            if let Some(t) = overlay.live.delta_table(id) {
                return Some(t);
            }
            if overlay.live.is_tombstoned(id) {
                return None;
            }
        }
        self.store.get(id)
    }

    /// The doc-set probe surface the column mapper consumes: the live
    /// overlay when one exists (shadow-filtered + delta-extended ids),
    /// the frozen facade otherwise.
    fn docsets(&self) -> &dyn DocSets {
        match &self.live {
            Some(overlay) => overlay.live.as_ref() as &dyn DocSets,
            None => self.index.as_ref() as &dyn DocSets,
        }
    }

    /// Entries resident in the index's doc-set probe memo (facade +
    /// shards) — the `wwt_docset_cache_entries` gauge.
    pub fn docset_cache_entries(&self) -> usize {
        self.index.docset_cache_entries()
    }
}

/// Builds the trace span for one scatter-gather probe: stage duration,
/// one child span per shard (scatter order, matching the
/// `probe*_shards` diagnostics), and the hit/k accounting.
fn probe_span(
    stage: Stage,
    elapsed: Duration,
    shard_times: &[Duration],
    hits: usize,
    k: usize,
) -> SpanRecord {
    let mut span = SpanRecord::new(stage.label(), elapsed)
        .with_detail("hits", hits.to_string())
        .with_detail("k", k.to_string());
    for (s, t) in shard_times.iter().enumerate() {
        span = span.with_child(SpanRecord::new(format!("shard{s}"), *t));
    }
    span
}

/// Merges per-shard top-k hit lists: the equivalence-preserving
/// total-order merge of [`ShardedIndex::merge_hits`], refused once the
/// deadline has passed so an enormous gathered set cannot stall the
/// request between stage boundaries. Fail-soft merges unbudgeted: the
/// hits are already in hand, and losing them here would throw away the
/// partial result the mode exists to save.
pub(super) fn merge_shard_hits(
    lists: Vec<Vec<SearchHit>>,
    k: usize,
    ctx: &ExecCtx,
) -> Result<Vec<SearchHit>, WwtError> {
    // One check guards the whole merge (the sort is its only expensive
    // block); the merge itself is exactly the facade's, so the ranking
    // can never drift from what `ShardedIndex::search` produces.
    if !ctx.fail_soft() {
        ctx.check("retrieval merge")?;
    }
    Ok(ShardedIndex::merge_hits(lists, k))
}
