//! `loadbench`: an over-the-wire load benchmark for `wwt-serve`.
//!
//! ```text
//! loadbench --workload NAME --seed N --seconds S --trace 0|1   one timed run
//! loadbench --aa [--runs N] [--seconds S]                       A/A calibration table
//! loadbench --ladder [--seed N]                                 open-loop rate ladder
//! loadbench --smoke                                             small end-to-end self-check
//! ```
//!
//! A timed run prints every metric by name and unit on stderr and, as the
//! last line of stdout, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See `loadbench/README.md`.

mod aa;
mod ladder;
mod layers;
mod load;
mod plan;
mod run;
mod serve;
mod stats;
mod trace;

use std::time::Duration;

use layers::ReplaySize;
use run::{RunConfig, RunOutput, Workload};
use serve::Paths;

/// Corpus scale of the timed runs (x Table 1's per-query table counts).
pub const SCALE: f64 = 10.0;
/// Window of the timed runs when `--seconds` is not given; BENCHMARK.json
/// passes the same number.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// `--flag value` lookup over the raw arguments.
struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {raw:?}")),
        }
    }
}

/// The result line of the contract.
fn result_json(out: &RunOutput, trace: bool) -> Result<String, String> {
    let metrics = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn print_report(cfg: &RunConfig, out: &RunOutput) {
    eprintln!(
        "workload {} seed {} window {:.1}s scale {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.window.as_secs_f64(),
        cfg.scale,
        u8::from(cfg.trace)
    );
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  attempted {} failed {} correct {}",
        out.attempted, out.failed, out.correct
    );
    for note in &out.notes {
        eprintln!("  note: {note}");
    }
}

/// `--smoke`: every workload, tiny corpus, short window, trace on; every
/// check the timed runs make must pass.
fn smoke(paths: &Paths) -> Result<(), String> {
    for workload in Workload::ALL {
        let cfg = RunConfig {
            workload,
            seed: 1,
            window: Duration::from_secs(2),
            trace: true,
            scale: 0.5,
            replay: ReplaySize::SMOKE,
        };
        let out = run::run(&cfg, paths)?;
        print_report(&cfg, &out);
        if !out.correct || out.failed > 0 {
            return Err(format!(
                "smoke: {} finished with correct = {}, failed = {}",
                workload.name(),
                out.correct,
                out.failed
            ));
        }
        if out.end_to_end.iter().any(|m| m.value <= 0.0) {
            return Err(format!(
                "smoke: {} printed a non-positive end-to-end metric",
                workload.name()
            ));
        }
    }
    println!("smoke ok");
    Ok(())
}

fn real_main() -> Result<(), String> {
    let args = Args(std::env::args().skip(1).collect());
    let paths = Paths::discover()?;
    let outcome = dispatch(&args, &paths);
    // Scratch holds tens of megabytes of index per run; leave only the
    // trace behind.
    drop(std::fs::remove_dir_all(&paths.scratch));
    outcome
}

fn dispatch(args: &Args, paths: &Paths) -> Result<(), String> {
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let window = Duration::from_secs_f64(seconds);
    if args.has("--smoke") {
        return smoke(paths);
    }
    if args.has("--aa") {
        return aa::calibrate(paths, args.parsed("--runs", 6usize)?, window);
    }
    if args.has("--ladder") {
        return ladder::climb(paths, args.parsed("--seed", 1u64)?);
    }
    let name = args
        .value("--workload")
        .ok_or("usage: loadbench --workload NAME --seed N --seconds S --trace 0|1 (or --aa, --ladder, --smoke)")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let cfg = RunConfig {
        workload,
        seed: args.parsed("--seed", 1u64)?,
        window,
        trace,
        scale: SCALE,
        replay: ReplaySize::FULL,
    };
    let out = run::run(&cfg, paths)?;
    print_report(&cfg, &out);
    println!("{}", result_json(&out, trace)?);
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("loadbench: {e}");
        std::process::exit(1);
    }
}
