//! Benchmarks of the figure-regeneration experiments themselves, at a
//! reduced trace length so `cargo bench` finishes quickly. One target per
//! figure family; the full-scale tables are produced by the binaries in
//! `src/bin/`.
//!
//! Uses the workspace's own grouped harness (`allarm-harness`) — criterion
//! is unavailable offline.

#![forbid(unsafe_code)]

use allarm_core::{
    compare_benchmark, multiprocess_sweep, pf_size_sweep, ExperimentConfig, FIG3H_COVERAGES,
    FIG4_COVERAGES,
};
use allarm_harness::{benchmark_main, black_box, Group};
use allarm_workloads::Benchmark;

/// A trimmed-down experiment: the full Table I machine but short traces, so
/// one baseline+ALLARM pair runs in tens of milliseconds.
fn bench_config() -> ExperimentConfig {
    ExperimentConfig::paper().with_accesses_per_thread(4_000)
}

fn fig3_comparison() {
    let cfg = bench_config();
    let mut group = Group::new("fig3_comparison").sample_count(10);
    for bench in [
        Benchmark::OceanContiguous,
        Benchmark::Blackscholes,
        Benchmark::Dedup,
    ] {
        group.bench(bench.name(), || {
            black_box(compare_benchmark(bench, &cfg).speedup());
        });
    }
    group.finish();
}

fn fig3h_sweep() {
    let cfg = bench_config();
    let mut group = Group::new("fig3h_pf_sweep").sample_count(10);
    group.bench("barnes", || {
        black_box(pf_size_sweep(Benchmark::Barnes, &cfg, &FIG3H_COVERAGES).len());
    });
    group.finish();
}

fn fig4_multiprocess() {
    let cfg = bench_config();
    let mut group = Group::new("fig4_multiprocess").sample_count(10);
    group.bench("ocean-cont", || {
        black_box(multiprocess_sweep(Benchmark::OceanContiguous, &cfg, &FIG4_COVERAGES).len());
    });
    group.finish();
}

benchmark_main!(fig3_comparison, fig3h_sweep, fig4_multiprocess);
