//! The acceptance criterion of the intra-run parallelism work: for every
//! checked-in scenario grid, sharding a simulation across worker threads
//! (`sim_threads` ∈ {1, 2, 4}) produces reports **byte-identical** to the
//! serial run — the same guarantee the batch runner gives across
//! scenario-level workers, extended down into a single simulation.
//!
//! The grids are scaled down (shorter traces), and the two large sweep
//! grids are subsampled (every 4th point — all benchmarks and both
//! policies still appear), so the sweep stays fast; determinism is a
//! structural property of the kernel, not of the trace length. The CI
//! determinism gate complements this by diffing `scenario_run
//! --sim-threads 4` output on the *full* fig3 grid.

#![forbid(unsafe_code)]

use allarm_bench::{
    fig3_grid, fig3h_grid, fig4_grid, scale256_grid, scale256_pf_sweep_grid, scale64_grid,
    scale64_pf_sweep_grid, streamcluster_grid, tracefile_comparison_grid,
};
use allarm_core::{BatchRunner, ExperimentConfig, JsonlSink, Scenario};
use std::path::Path;

/// The checked-in grids, scaled down to test length (large grids
/// subsampled with stride 4). The scale64 grids put the multi-core-node
/// topology — where a shard owns whole nodes, i.e. blocks of four cores —
/// under the same byte-identity requirement as the paper machines.
fn scaled_grids() -> Vec<(&'static str, Vec<Scenario>)> {
    let cfg = ExperimentConfig::paper().with_accesses_per_thread(700);
    let scale64 = ExperimentConfig::scale64().with_accesses_per_thread(400);
    let stride4 = |v: Vec<Scenario>| -> Vec<Scenario> { v.into_iter().step_by(4).collect() };
    vec![
        ("fig3_comparison", fig3_grid(&cfg).expand()),
        ("fig3h_pf_sweep", stride4(fig3h_grid(&cfg).expand())),
        ("fig4_multiprocess", stride4(fig4_grid(&cfg).expand())),
        (
            "streamcluster_comparison",
            streamcluster_grid(&cfg).expand(),
        ),
        ("scale64_comparison", scale64_grid(&scale64).expand()),
        (
            // Stride 3 keeps both policies represented (policy is the
            // fastest-varying axis, so stride 4 would sample only
            // baselines).
            "scale64_pf_sweep",
            scale64_pf_sweep_grid(&scale64)
                .expand()
                .into_iter()
                .step_by(3)
                .collect(),
        ),
        (
            // The 256-core NUCA machine (torus fabric, LLC slices on):
            // stride 3 over the 3-benchmark × 2-policy grid keeps both
            // policies while the short trace keeps the sweep fast.
            "scale256_comparison",
            {
                let scale256 = ExperimentConfig::scale256().with_accesses_per_thread(150);
                scale256_grid(&scale256)
                    .expand()
                    .into_iter()
                    .step_by(3)
                    .collect()
            },
        ),
        (
            // The concentrated-mesh sweep, subsampled the same way (stride
            // 5 over 4 coverages × 2 policies covers both policies and two
            // coverages).
            "scale256_pf_sweep",
            {
                let scale256 = ExperimentConfig::scale256().with_accesses_per_thread(150);
                scale256_pf_sweep_grid(&scale256)
                    .expand()
                    .into_iter()
                    .step_by(5)
                    .collect()
            },
        ),
        (
            // The trace-replay grid: an externally-sourced reference
            // stream must be just as shard-count-independent as a
            // generated one. The committed sample is already short, so it
            // runs at full length (trace replays ignore access overrides).
            "tracefile_comparison",
            {
                let mut grid = tracefile_comparison_grid();
                grid.base.workload = grid
                    .base
                    .workload
                    .resolved_against(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios"));
                grid.expand()
            },
        ),
    ]
}

#[test]
fn sharded_runs_are_byte_identical_across_every_checked_in_grid() {
    for (name, scenarios) in scaled_grids() {
        let serial: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_sim_threads(1))
            .collect();
        let reference = BatchRunner::with_threads(1)
            .run(&serial)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for sim_threads in [2usize, 4] {
            let sharded: Vec<Scenario> = scenarios
                .iter()
                .map(|s| s.clone().with_sim_threads(sim_threads))
                .collect();
            let result = BatchRunner::with_threads(1)
                .run(&sharded)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for (a, b) in reference.entries.iter().zip(&result.entries) {
                assert_eq!(
                    a.report, b.report,
                    "{name}/{}: sim_threads={sim_threads} diverged from serial",
                    a.scenario.name
                );
            }
        }
    }
}

/// Miss-window batching under stress: a deep window and a wide horizon on
/// the most miss-heavy profile (raytrace on the 64-core machine) must stay
/// byte-identical across shard counts. The grids above already gate the
/// *default* window; this pins the knob at its aggressive end, where
/// per-round windows are deepest and the reply-commit ordering does the
/// most work.
#[test]
fn deep_miss_windows_stay_byte_identical_across_shard_counts() {
    use allarm_core::AllocationPolicy;
    use allarm_types::{MissWindowConfig, Nanos};
    use allarm_workloads::Benchmark;

    let mut base = ExperimentConfig::scale64()
        .with_accesses_per_thread(500)
        .scenario(Benchmark::Raytrace, AllocationPolicy::Baseline);
    base.machine.miss_window = MissWindowConfig {
        depth: 16,
        horizon: Nanos::new(2_000),
    };

    let run = |sim_threads: usize| {
        let scenarios = vec![base.clone().with_sim_threads(sim_threads)];
        BatchRunner::with_threads(1)
            .run(&scenarios)
            .expect("scenario is valid")
    };
    let serial = run(1);
    assert!(
        serial.entries[0].report.max_window_depth > 1,
        "the stress profile must actually batch misses"
    );
    for sim_threads in [2usize, 4] {
        let sharded = run(sim_threads);
        assert_eq!(
            serial.entries[0].report, sharded.entries[0].report,
            "sim_threads={sim_threads} diverged under a deep miss window"
        );
    }
}

/// The JSONL a sweep writes must not depend on the shard count either —
/// this is the exact comparison the CI determinism gate performs with
/// `scenario_run --sim-threads 4`.
#[test]
fn rendered_jsonl_is_identical_across_shard_counts() {
    let cfg = ExperimentConfig::paper().with_accesses_per_thread(500);
    let scenarios = streamcluster_grid(&cfg).expand();

    let mut renderings = Vec::new();
    for sim_threads in [1usize, 4] {
        let set: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_sim_threads(sim_threads))
            .collect();
        let mut sink = JsonlSink::new();
        BatchRunner::with_threads(2)
            .run_with_sink(&set, &mut sink)
            .expect("grid is valid");
        renderings.push(sink.into_string());
    }
    assert_eq!(renderings[0], renderings[1]);
    assert_eq!(renderings[0].lines().count(), scenarios.len());
}
