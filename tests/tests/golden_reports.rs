//! Golden-report gate: the checked-in grids, run at a short trace length,
//! must render JSONL rows byte-identical to the files under `tests/golden/`.
//!
//! The byte-identity gates elsewhere compare runs of the *current* code
//! against each other (across `sim_threads`, checkpoint/restore, trace
//! formats), so a change that alters results identically everywhere slips
//! past them. These files pin the results themselves.
//!
//! Two lengths are committed per grid:
//!
//! * `<grid>.a100.jsonl` — `--accesses 100`, checked here in whatever
//!   profile the tests build in. The 256-core grid is checked on its
//!   raytrace rows only (`scale256_raytrace.a100.jsonl`), whose short
//!   initialisation phase keeps a debug build fast.
//! * `<grid>.a1500.jsonl` — `scenario_run --accesses 1500 --output`,
//!   compared with `cmp` by a release-mode CI step.
//!
//! Regenerate a file only for a change that is meant to move results, with
//! `scenario_run --accesses <n> --output tests/golden/<file> scenarios/<grid>.toml`
//! (for the raytrace file, a copy of `scale256_comparison.toml` with
//! `benchmarks = ["Raytrace"]`), and say so in CHANGES.md.

#![forbid(unsafe_code)]

use allarm_core::{BatchRunner, Benchmark, JsonlSink, Scenario, ScenarioGrid};
use std::path::{Path, PathBuf};

/// Per-thread trace length of the `.a100` files.
const ACCESSES: usize = 100;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

/// Runs the rows of `scenarios/<grid>.toml` that `keep` selects at
/// [`ACCESSES`] and compares the JSONL rows with `tests/golden/<golden>`.
fn check(grid: &str, golden: &str, keep: impl Fn(&Scenario) -> bool) {
    let path = repo_path(&format!("scenarios/{grid}.toml"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let rows: Vec<Scenario> = ScenarioGrid::from_toml(&text)
        .unwrap_or_else(|e| panic!("{grid}: {e}"))
        .expand()
        .into_iter()
        .filter(|s| keep(s))
        .map(|s| s.with_accesses(ACCESSES))
        .collect();
    assert!(!rows.is_empty(), "{grid}: no rows selected");
    let mut sink = JsonlSink::new();
    BatchRunner::with_threads(1)
        .run_with_sink(&rows, &mut sink)
        .unwrap_or_else(|e| panic!("{grid}: {e}"));
    let actual = sink.into_string();

    let golden_path = repo_path(&format!("tests/golden/{golden}"));
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    if actual != expected {
        let (got, want): (Vec<&str>, Vec<&str>) =
            (actual.lines().collect(), expected.lines().collect());
        let first = got
            .iter()
            .zip(&want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        panic!(
            "{grid}: reports differ from {golden} ({} rows vs {} expected); first \
             differing row {first}:\n  got:  {}\n  want: {}",
            got.len(),
            want.len(),
            got.get(first).unwrap_or(&"<none>"),
            want.get(first).unwrap_or(&"<none>"),
        );
    }
}

#[test]
fn fig3_comparison_matches_golden() {
    check("fig3_comparison", "fig3_comparison.a100.jsonl", |_| true);
}

#[test]
fn fig3h_pf_sweep_matches_golden() {
    check("fig3h_pf_sweep", "fig3h_pf_sweep.a100.jsonl", |_| true);
}

#[test]
fn scale256_raytrace_matches_golden() {
    check("scale256_comparison", "scale256_raytrace.a100.jsonl", |s| {
        s.workload.benchmark() == Some(Benchmark::Raytrace)
    });
}

#[test]
fn kv_store_comparison_matches_golden() {
    check(
        "kv_store_comparison",
        "kv_store_comparison.a100.jsonl",
        |_| true,
    );
}

#[test]
fn scale64_pf_sweep_matches_golden() {
    check("scale64_pf_sweep", "scale64_pf_sweep.a100.jsonl", |_| true);
}

#[test]
fn fig4_multiprocess_matches_golden() {
    check("fig4_multiprocess", "fig4_multiprocess.a100.jsonl", |_| {
        true
    });
}
