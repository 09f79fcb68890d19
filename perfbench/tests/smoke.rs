//! Runs every workload of `BENCHMARK.json` for one second, untraced and
//! traced, and checks that the result line is correct and names exactly
//! the listed metrics with their units; then runs a second seed.

use cocoon_llm::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").into()
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    cocoon_llm::json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let manifest = manifest();
    let metrics = manifest.get(section).and_then(Json::as_array).expect("metric section");
    metrics
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    cocoon_llm::json::parse(last).expect("the result line is JSON")
}

fn check(workload: &str, seed: u64, trace: bool) {
    let result = run(workload, seed, trace);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
    let metrics = result.get("metrics").and_then(Json::as_object).expect("metrics");
    let expected = listed(if trace { "per_layer" } else { "end_to_end" });
    let names: Vec<&String> = metrics.keys().collect();
    let mut wanted: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    wanted.sort();
    assert_eq!(names, wanted, "{workload} trace={trace}");
    for (name, unit) in &expected {
        let metric = &metrics[name];
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
        let value = metric.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn every_listed_metric_is_emitted_for_every_workload() {
    let manifest = manifest();
    let workloads = manifest.get("workloads").and_then(Json::as_array).expect("workloads");
    assert!(!workloads.is_empty());
    for workload in workloads {
        let name = workload.get("name").and_then(Json::as_str).expect("workload name");
        check(name, 1, false);
        check(name, 1, true);
    }
}

#[test]
fn a_second_seed_runs_clean() {
    check("catalog-warm", 2, false);
    check("catalog-remote", 2, false);
}
