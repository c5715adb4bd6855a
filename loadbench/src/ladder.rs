//! The open-loop rate ladder: `zipf_open`'s stream offered at a few fixed
//! rates against one server, to find the highest rate that still meets a
//! fixed latency limit without a growing backlog. Documented in the
//! README; not part of the timed contract.

use std::time::Duration;

use crate::layers::ReplaySize;
use crate::load::Sample;
use crate::plan::{self, Plan};
use crate::run::{self, RunConfig, Streams, Workload};
use crate::serve::{Paths, Server};
use crate::stats::percentile;

const RATES: [f64; 4] = [75.0, 150.0, 300.0, 600.0];
const STEP: Duration = Duration::from_secs(10);
/// The limit a rate has to meet: `query_p95_us`, due time to last byte.
const P95_LIMIT_US: f64 = 50_000.0;
/// A backlog is growing when the last fifth of a step's requests went out
/// this much later, relative to their due times, than the first fifth.
const BACKLOG_GROWTH_US: f64 = 10_000.0;

pub fn climb(paths: &Paths, seed: u64) -> Result<(), String> {
    let plan = Plan::build(crate::SCALE, &paths.scratch)?;
    let (mut server, _) = Server::boot(paths, &plan.index_dir, &paths.scratch.join("journal.wal"))?;
    run::warm_up(server.addr, &run::base_queries(&plan))?;
    println!("| offered req/s | sent | failed | p50 us | p95 us | loadgen.late_pct | backlog growth us | meets limit |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---|");
    let ranks = plan::zipf_ranks(plan.universe.len());
    let cfg = RunConfig {
        workload: Workload::ZipfOpen,
        seed,
        window: STEP,
        trace: false,
        scale: crate::SCALE,
        replay: ReplaySize::FULL,
    };
    let mut max_rate_ok = 0.0;
    for rate in RATES {
        let streams = Streams {
            order: Vec::new(),
            schedule: plan::zipf_stream(
                seed ^ rate.to_bits(),
                &ranks,
                rate,
                STEP.as_nanos() as u64,
            ),
            batches: Vec::new(),
        };
        let window = run::drive(&cfg, &plan, &server, &streams);
        let mut samples: Vec<Sample> = window.logs.into_iter().flat_map(|l| l.samples).collect();
        samples.sort_by_key(|s| s.due_ns);
        let failed = samples.iter().filter(|s| !s.ok).count();
        let lat = run::latencies_us(&samples);
        let behind = |part: &[Sample]| {
            part.iter()
                .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
                .sum::<f64>()
                / part.len().max(1) as f64
        };
        let fifth = (samples.len() / 5).max(1);
        let growth = behind(&samples[samples.len() - fifth..]) - behind(&samples[..fifth]);
        let p95 = percentile(&lat, 95.0);
        let ok = failed == 0 && p95 <= P95_LIMIT_US && growth < BACKLOG_GROWTH_US;
        if ok {
            max_rate_ok = rate;
        }
        println!(
            "| {rate} | {} | {failed} | {:.0} | {p95:.0} | {:.2} | {growth:.0} | {} |",
            samples.len(),
            percentile(&lat, 50.0),
            run::schedule_keeping(&samples).late_pct,
            if ok { "yes" } else { "no" }
        );
    }
    println!("loadgen.max_rate_ok_rps = {max_rate_ok} (limit: query_p95_us <= {P95_LIMIT_US}, no growing backlog)");
    server.kill();
    Ok(())
}
