//! A/A calibration: the same binary measured against itself. Every
//! workload runs `runs` times, alternating, each time on another seed (as
//! the acceptance check does); the runs are split into two interleaved
//! halves, and for each end-to-end metric the table gives the gap between
//! the halves' medians and the inter-quartile spread of all runs — the
//! two numbers a regression bound has to clear.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::layers::ReplaySize;
use crate::run::{self, RunConfig, Workload};
use crate::serve::Paths;
use crate::stats::{iqr_share, median};

pub fn calibrate(paths: &Paths, runs: usize, window: Duration) -> Result<(), String> {
    if runs < 4 {
        return Err("--aa needs --runs of at least 4 (two per half)".to_string());
    }
    // (workload, metric) -> one value per run, in run order.
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for r in 0..runs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let cfg = RunConfig {
                workload,
                seed: r as u64 + 1,
                window,
                trace: false,
                scale: crate::SCALE,
                replay: ReplaySize::FULL,
            };
            let out = run::run(&cfg, paths)?;
            eprintln!(
                "aa: run {}/{runs} {} correct {} failed {}/{}",
                r + 1,
                workload.name(),
                out.correct,
                out.failed,
                out.attempted
            );
            if !out.correct || out.failed > 0 {
                return Err(format!("aa: {} failed its checks", workload.name()));
            }
            for m in out.end_to_end {
                if !order.contains(&m.name) {
                    order.push(m.name.clone());
                }
                values.entry((w, m.name)).or_default().push(m.value);
            }
        }
    }
    println!("| workload | metric | median | A/B median gap % | IQR / median % |");
    println!("|---|---|---:|---:|---:|");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for name in &order {
            let all = &values[&(w, name.clone())];
            let half = |parity: usize| -> f64 {
                let mut v: Vec<f64> = all.iter().skip(parity).step_by(2).copied().collect();
                median(&mut v)
            };
            let (a, b) = (half(0), half(1));
            println!(
                "| {} | {name} | {:.4} | {:.2} | {:.2} |",
                workload.name(),
                median(&mut all.clone()),
                100.0 * (a - b).abs() / a.abs().max(f64::MIN_POSITIVE),
                100.0 * iqr_share(all)
            );
        }
    }
    Ok(())
}
