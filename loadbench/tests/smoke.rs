//! Runs `loadbench --smoke` — every workload at scale 0.5 with 2 s
//! windows, trace on, correctness and durability checks — against a
//! `wwt-serve` built into the same target directory as the binary under
//! test, and holds what it prints against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use wwt_json::Json;

/// The `name`s of the objects in `BENCHMARK.json`'s array `key`.
fn declared(benchmark: &Json, key: &str) -> BTreeSet<String> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key:?}"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            name.expect("entry has a name").to_string()
        })
        .collect()
}

#[test]
fn smoke_run_passes_every_check_and_prints_what_benchmark_json_declares() {
    let loadbench = Path::new(env!("CARGO_BIN_EXE_loadbench"));
    let profile_dir = loadbench.parent().expect("binary has a parent directory");
    if !profile_dir.join("wwt-serve").is_file() {
        // The server is a dependency's binary, which `cargo test` does not
        // build on its own; build it with this test's own profile.
        let mut build = Command::new(env!("CARGO"));
        build
            .args([
                "build",
                "--offline",
                "-p",
                "wwt-server",
                "--bin",
                "wwt-serve",
            ])
            .arg("--manifest-path")
            .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
            .env(
                "CARGO_TARGET_DIR",
                profile_dir.parent().expect("target directory"),
            );
        if profile_dir.ends_with("release") {
            build.arg("--release");
        }
        assert!(
            build.status().expect("cargo runs").success(),
            "building wwt-serve failed"
        );
    }
    let out = Command::new(loadbench)
        .arg("--smoke")
        .output()
        .expect("loadbench runs");
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadbench --smoke failed:\n{report}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("smoke ok"));

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark = std::fs::read_to_string(&manifest).expect("BENCHMARK.json is readable");
    let benchmark = Json::parse(&benchmark).expect("BENCHMARK.json parses");
    let mut metrics = declared(&benchmark, "end_to_end");
    metrics.extend(declared(&benchmark, "per_layer"));

    // The report is one block per workload: a `workload NAME …` line, then
    // `  metric value unit` lines.
    let mut blocks: Vec<(String, BTreeSet<String>)> = Vec::new();
    for line in report.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            ["workload", name, ..] => blocks.push((name.to_string(), BTreeSet::new())),
            [name, value, _unit] if !name.ends_with(':') && value.parse::<f64>().is_ok() => {
                let (_, printed) = blocks.last_mut().expect("a workload line comes first");
                printed.insert(name.to_string());
            }
            _ => {}
        }
    }
    let workloads: BTreeSet<String> = blocks.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(workloads, declared(&benchmark, "workloads"));
    for (workload, printed) in &blocks {
        assert_eq!(
            printed, &metrics,
            "{workload} prints other metrics than BENCHMARK.json declares"
        );
    }
}
