//! End-to-end integration tests of the full simulator: the substrates wired
//! together exactly as the figure harness uses them.

#![forbid(unsafe_code)]

use allarm_core::{
    compare_benchmark, multiprocess_sweep, pf_size_sweep, run_benchmark, AllocationPolicy,
    ExperimentConfig, MachineConfig, SimulationBuilder,
};
use allarm_types::Nanos;
use allarm_workloads::{Benchmark, TraceGenerator};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig::quick_test().with_accesses_per_thread(1_200)
}

#[test]
fn every_access_is_accounted_for() {
    for bench in [Benchmark::Barnes, Benchmark::Blackscholes] {
        for policy in AllocationPolicy::ALL {
            let report = run_benchmark(bench, policy, &tiny_cfg());
            assert_eq!(
                report.l1_hits + report.l2_hits + report.l2_misses,
                report.total_accesses,
                "{bench}/{policy}: hierarchy outcomes must partition the accesses"
            );
            assert_eq!(
                report.local_requests + report.remote_requests,
                report.directory_requests
            );
            assert!(report.runtime > Nanos::ZERO);
        }
    }
}

#[test]
fn allarm_never_increases_probe_filter_pressure() {
    for bench in Benchmark::ALL {
        let cmp = compare_benchmark(bench, &tiny_cfg());
        assert!(
            cmp.allarm.pf_allocations <= cmp.baseline.pf_allocations,
            "{bench}: ALLARM allocated more probe-filter entries than the baseline"
        );
        assert!(
            cmp.allarm.pf_evictions <= cmp.baseline.pf_evictions,
            "{bench}: ALLARM evicted more probe-filter entries than the baseline"
        );
        assert!(
            cmp.allarm.allarm_allocation_skips > 0,
            "{bench}: ALLARM never skipped"
        );
        assert_eq!(cmp.baseline.allarm_allocation_skips, 0);
    }
}

#[test]
fn baseline_performs_no_local_probes_and_allarm_hides_most_of_them() {
    let cmp = compare_benchmark(Benchmark::OceanContiguous, &tiny_cfg());
    assert_eq!(cmp.baseline.local_probes, 0);
    assert!(cmp.allarm.local_probes > 0);
    assert!(cmp.hidden_probe_fraction() > 0.5);
    assert!(cmp.allarm.local_probes_hidden <= cmp.allarm.local_probes);
}

#[test]
fn local_fraction_tracks_the_benchmark_mix() {
    // Mostly-shared blackscholes must see a lower local fraction than the
    // NUMA-friendly ocean.
    let cfg = tiny_cfg();
    let blackscholes = compare_benchmark(Benchmark::Blackscholes, &cfg);
    let ocean = compare_benchmark(Benchmark::OceanContiguous, &cfg);
    assert!(blackscholes.local_fraction() < ocean.local_fraction());
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let a = run_benchmark(Benchmark::Dedup, AllocationPolicy::Allarm, &tiny_cfg());
    let b = run_benchmark(Benchmark::Dedup, AllocationPolicy::Allarm, &tiny_cfg());
    assert_eq!(a, b);
}

#[test]
fn shrinking_the_probe_filter_never_helps_the_baseline() {
    let cfg = tiny_cfg();
    let points = pf_size_sweep(Benchmark::Barnes, &cfg, &[512 * 1024, 64 * 1024]);
    assert_eq!(points.len(), 2);
    assert!(
        points[1].baseline.pf_evictions >= points[0].baseline.pf_evictions,
        "a smaller probe filter cannot evict less"
    );
    assert!(points[1].baseline.runtime >= points[0].baseline.runtime);
}

#[test]
fn multiprocess_workload_is_local_and_allarm_keeps_it_out_of_the_directory() {
    let cfg = tiny_cfg().with_accesses_per_thread(4_000);
    let points = multiprocess_sweep(Benchmark::Cholesky, &cfg, &[64 * 1024]);
    let point = &points[0];
    assert!(point.baseline.local_fraction() > 0.95);
    // The baseline allocates for everything; ALLARM allocates (almost)
    // nothing because every request is local.
    assert!(point.allarm.pf_allocations * 10 < point.baseline.pf_allocations);
    assert!(point.allarm.pf_evictions <= point.baseline.pf_evictions);
}

#[test]
fn policies_agree_when_there_is_no_coherence_pressure() {
    // A single-threaded workload that fits in the cache: both policies
    // produce identical runtimes because the directory is barely exercised.
    let machine = MachineConfig::date2014();
    let workload = TraceGenerator::new(1, 2_000, 3).generate(Benchmark::Blackscholes);
    let build = |policy| {
        SimulationBuilder::new(machine)
            .policy(policy)
            .build()
            .expect("the Table I machine is valid")
    };
    let baseline = build(AllocationPolicy::Baseline).run(&workload);
    let allarm = build(AllocationPolicy::Allarm).run(&workload);
    assert_eq!(baseline.l2_misses, allarm.l2_misses);
    assert_eq!(baseline.runtime, allarm.runtime);
}

#[test]
fn energy_tracks_activity() {
    let cmp = compare_benchmark(Benchmark::OceanNonContiguous, &tiny_cfg());
    assert!(cmp.baseline.energy.probe_filter_pj > 0.0);
    assert!(cmp.baseline.energy.noc_pj > 0.0);
    // Fewer evictions and allocations must not cost more probe-filter energy.
    assert!(cmp.allarm.energy.probe_filter_pj <= cmp.baseline.energy.probe_filter_pj);
}
