//! The repository's benchmark: one command that runs a named workload
//! against the Cocoon crates, checks every output, and prints each metric
//! by name with its unit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog-warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line holds the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics of a separate traced
//! run, and the span timeline is written under `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and the layer → end-to-end map.

mod catalog;
mod probe;
mod report;
mod served;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; each adds one dataset seed's tables to the measured
/// phase, and `setup_s` reports their median time.
pub const SETUPS: usize = 3;

pub const WORKLOADS: [&str; 3] = ["catalog-warm", "catalog-remote", "served-mix"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// The dataset seed of set-up `round`: every set-up generates its own
/// tables (the generators memoise per seed), and the measured phase uses
/// the last one's.
pub fn dataset_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed.wrapping_add((round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a traced run writes its span timeline.
pub fn timeline_path(args: &Args) -> PathBuf {
    PathBuf::from(format!("perfbench/out/timeline-{}-seed{}.json", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "catalog-warm" => catalog::run(&args, false),
        "catalog-remote" => catalog::run(&args, true),
        _ => served::run(&args),
    };
    // `failed / attempted` is also the result line's own pair of counts;
    // it is 0 in a correct run, so it is printed here rather than as a
    // metric.
    println!(
        "error_rate: {} ratio ({} of {} operations failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", report::result_line(&args.workload, args.trace, &outcome));
    ExitCode::SUCCESS
}
