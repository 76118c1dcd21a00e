//! Benchmark of the ALLARM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig3_grid|scale256_sharded|kv_stream_ckpt|all> \
//!     [--seed 2014] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) repeats the
//! workload for `--seconds` and prints the medians of the end-to-end
//! metrics; a traced run (`--trace 1`) alternates untraced and traced
//! iterations, then times each layer in isolation, and prints the per-layer
//! metrics. Human-readable lines go to stderr; the last line of stdout is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--workload all` each workload runs in a process of its own, and the
//! JSON line combines them.

mod layers;
mod metrics;
mod paper;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::{Ctx, Outcome, NAMES};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2014;
/// Scratch space for trace files and span dumps, relative to the
/// repository root.
const SCRATCH: &str = ".bench_scratch";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_kv: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record_kv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record-kv" => args.record_kv = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() && args.record_kv.is_none() {
        return Err(format!("--workload is required (one of {NAMES:?}, or all)"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some(path) = &args.record_kv {
        println!("{}", workloads::record_kv(path, args.seed)?);
        return Ok(ExitCode::SUCCESS);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch: PathBuf::from(SCRATCH),
    };
    let outcome = workloads::run(&args.workload, &ctx)?;
    eprintln!(
        "== {} ({})",
        args.workload,
        if ctx.trace { "traced" } else { "untraced" }
    );
    for line in human(&args.workload, &outcome) {
        eprintln!("{line}");
    }
    println!("{}", result_json(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// Metric lines, then notes, then the failure share and each failure.
fn human(workload: &str, outcome: &Outcome) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        let m = metrics::END_TO_END
            .iter()
            .chain(&metrics::PER_LAYER)
            .find(|m| m.name == *name)
            .expect("every printed metric is listed");
        let prediction = if m.moves.is_empty() {
            String::new()
        } else {
            format!("; moves {} on {}", m.moves, m.on)
        };
        lines.push(format!(
            "{workload:<17} {name:<32} {value:>16.6} {unit} ({} is better{prediction})",
            m.better
        ));
    }
    lines.extend(outcome.notes.iter().map(|n| format!("{workload:<17} {n}")));
    let c = &outcome.checks;
    lines.push(format!(
        "{workload:<17} {:<32} {:>16.6} ratio  ({} failed of {} rows and checks)",
        "failed_frac",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    ));
    lines.extend(
        c.failures
            .iter()
            .map(|f| format!("{workload:<17} FAILED: {f}")),
    );
    lines
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let c = &outcome.checks;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        metrics.join(", ")
    )
}

/// Runs every workload in a process of its own (so each peak RSS belongs to
/// one workload; each prints its metrics on stderr) and combines their
/// results into one JSON line, metric names prefixed with the workload.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut combined = Vec::new();
    for name in NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{name} failed ({})", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let doc = serde_json::parse_value_str(last).map_err(|e| format!("{name}: {e}"))?;
        correct &= doc.get("correct") == Some(&serde::Value::Bool(true));
        let count = |key: &str| match doc.get(key) {
            Some(serde::Value::U64(n)) => Ok(*n),
            other => Err(format!("{name}: `{key}` is {other:?}")),
        };
        attempted += count("attempted")?;
        failed += count("failed")?;
        let Some(serde::Value::Map(metrics)) = doc.get("metrics") else {
            return Err(format!("{name}: no metrics"));
        };
        for (metric, value) in metrics {
            combined.push(format!(
                "\"{name}.{metric}\": {}",
                serde_json::to_string(value)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        combined.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}
