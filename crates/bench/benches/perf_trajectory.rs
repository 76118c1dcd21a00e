//! The committed performance trajectory: a fixed-workload simulator
//! benchmark whose numbers are written to `BENCH_9.json` at the repo root,
//! so simulator-throughput regressions show up in review as a diff.
//!
//! Four groups:
//!
//! * `simulate_16c` — the labelled matrix (the iai-callgrind style):
//!   three benchmarks with distinct sharing behaviour × both allocation
//!   policies, on the paper's sixteen-core machine at a fixed access
//!   count. Unchanged across trajectory files, so points stay comparable.
//! * `simulate_64c_batched` — the miss-window batching profile: raytrace
//!   (the most miss-heavy generator) on the 64-core machine through the
//!   **sharded** kernel, at the default window and at the serial
//!   (depth-1) ablation. The pair makes the batching win — fewer barrier
//!   crossings per simulated nanosecond — a number the trajectory tracks.
//! * `fork_from_warm` — the checked-in `scale64_fork_sweep.toml` grid
//!   through the `BatchRunner`, once with its `[warmup]` stanza honoured
//!   (the shared prefix is simulated once per policy and every grid point
//!   forks from the warm image) and once fully cold. The reports are
//!   asserted identical outside the timed region; the pair of numbers is
//!   the wall-clock win fork-from-warm buys on a real sweep.
//! * `simulate_256c_llc` — the NUCA profile: raytrace on the 256-core
//!   (64-node torus) machine through the sharded kernel, with the shared
//!   per-node LLC slices on and off. The pair prices the slice lookup on
//!   the miss path against the directory traffic it absorbs, and tracks
//!   how the kernel scales to the largest committed machine.
//!
//! The workloads are materialized **outside** the timed region — the
//! numbers measure the coherence simulator, not the trace generator.
//! The heavyweight groups set an iteration floor (`min_iters`): one run
//! already exceeds the harness's per-sample duration target, and a floor
//! of one leaves every scheduling hiccup in a single sample (BENCH_7
//! recorded `iters: 1` with a ~15% min/max spread).
//! Skipping the file write: pass any filter (`cargo bench -p allarm-bench
//! --bench perf_trajectory -- barnes`), which marks the run partial.

#![forbid(unsafe_code)]

use allarm_bench::load_scenario_doc;
use allarm_core::{AllocationPolicy, BatchRunner, MachineConfig, SimulationBuilder};
use allarm_harness::{benchmark_main, black_box, stats_to_json, Group};
use allarm_types::config::LlcConfig;
use allarm_types::MissWindowConfig;
use allarm_workloads::{Benchmark, TraceGenerator};

/// Accesses per thread: fixed, so trajectory points stay comparable
/// across commits.
const ACCESSES: usize = 2_000;

/// Accesses per thread for the 64-core batching group — 64 threads make
/// each sample ~2× the 16-core points at this length.
const ACCESSES_64C: usize = 1_000;

/// Accesses per thread for the 256-core NUCA group: 256 threads at this
/// length match the 64-core group's total access count per sample.
const ACCESSES_256C: usize = 500;

const MATRIX: [(Benchmark, &str); 3] = [
    (Benchmark::Barnes, "barnes"),
    (Benchmark::OceanContiguous, "ocean_contiguous"),
    (Benchmark::Raytrace, "raytrace"),
];

fn trajectory() {
    let mut stats = Vec::new();
    let mut complete = true;

    let mut group = Group::new("simulate_16c").sample_count(5).min_iters(2);
    for (benchmark, label) in MATRIX {
        let workload = TraceGenerator::new(16, ACCESSES, 2014).generate(benchmark);
        for policy in AllocationPolicy::ALL {
            let simulator = SimulationBuilder::new(MachineConfig::date2014())
                .policy(policy)
                .build()
                .expect("the Table I machine is valid");
            let name = format!("{label}.{}", format!("{policy:?}").to_lowercase());
            match group.bench(&name, || {
                black_box(simulator.run(&workload).runtime);
            }) {
                Some(s) => stats.push(s),
                None => complete = false, // filtered: don't commit a partial file
            }
        }
    }
    group.finish();

    let mut group = Group::new("simulate_64c_batched")
        .sample_count(5)
        .min_iters(3);
    let workload = TraceGenerator::new(64, ACCESSES_64C, 2014).generate(Benchmark::Raytrace);
    for (window, label) in [
        (MissWindowConfig::default_window(), "raytrace.window8"),
        (MissWindowConfig::serial(), "raytrace.serial"),
    ] {
        let mut machine = MachineConfig::scale64();
        machine.miss_window = window;
        let simulator = SimulationBuilder::new(machine)
            .policy(AllocationPolicy::Allarm)
            .sim_threads(4)
            .build()
            .expect("the 64-core machine is valid");
        match group.bench(label, || {
            black_box(simulator.run(&workload).runtime);
        }) {
            Some(s) => stats.push(s),
            None => complete = false,
        }
    }
    group.finish();

    let mut group = Group::new("fork_from_warm").sample_count(5).min_iters(2);
    let doc_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/scale64_fork_sweep.toml"
    );
    let doc = load_scenario_doc(doc_path).expect("the checked-in fork sweep loads");
    let warm = doc.expand();
    let cold: Vec<_> = warm
        .iter()
        .map(|s| s.clone().with_warmup_accesses(0))
        .collect();
    let runner = BatchRunner::with_threads(1);
    // The win is only worth tracking if warm-forked sweeps report the same
    // numbers a cold sweep does — assert that once, outside the timed region.
    let warm_results = runner.run(&warm).expect("the fork sweep runs");
    let cold_results = runner.run(&cold).expect("the cold sweep runs");
    assert!(
        warm_results
            .entries
            .iter()
            .zip(&cold_results.entries)
            .all(|(w, c)| w.report == c.report),
        "fork-from-warm changed a report; the trajectory pair would be meaningless"
    );
    for (scenarios, label) in [(&warm, "sweep6.warm_forked"), (&cold, "sweep6.cold")] {
        match group.bench(label, || {
            black_box(runner.run(scenarios).expect("sweep runs").entries.len());
        }) {
            Some(s) => stats.push(s),
            None => complete = false,
        }
    }
    group.finish();

    let mut group = Group::new("simulate_256c_llc").sample_count(5).min_iters(2);
    let workload = TraceGenerator::new(256, ACCESSES_256C, 2014).generate(Benchmark::Raytrace);
    for (llc, label) in [(true, "raytrace.llc_on"), (false, "raytrace.llc_off")] {
        let mut machine = MachineConfig::scale256();
        machine.noc = allarm_types::config::NocConfig::torus(8, 8);
        if llc {
            machine.llc = LlcConfig::shared_slice(4 * 1024 * 1024, 16);
        }
        let simulator = SimulationBuilder::new(machine)
            .policy(AllocationPolicy::Allarm)
            .sim_threads(4)
            .build()
            .expect("the 256-core machine is valid");
        match group.bench(label, || {
            black_box(simulator.run(&workload).runtime);
        }) {
            Some(s) => stats.push(s),
            None => complete = false,
        }
    }
    group.finish();

    if complete {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
        std::fs::write(path, stats_to_json("perf_trajectory", &stats))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("[perf_trajectory] wrote {path}");
    } else {
        eprintln!("[perf_trajectory] filtered run: BENCH_9.json not rewritten");
    }
}

benchmark_main!(trajectory);
