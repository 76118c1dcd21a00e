//! Benchmarks of the sharded intra-run kernel: one paper-machine
//! simulation at increasing `sim_threads`, plus the heap-backed core
//! scheduler at machine sizes past the paper's sixteen cores.
//!
//! Every `sim_threads` variant replays the identical workload and — by the
//! kernel's determinism guarantee — produces the identical report, so the
//! numbers differ only in wall-clock time. On a multi-core host the shard
//! columns drop below the serial column; on a single-hardware-thread host
//! they rise (pure barrier overhead), which is itself worth measuring.
//!
//! Uses the workspace's own grouped harness (`allarm-harness`) — criterion
//! is unavailable offline.

#![forbid(unsafe_code)]

use allarm_core::{AllocationPolicy, MachineConfig, SimulationBuilder};
use allarm_engine::CoreScheduler;
use allarm_harness::{benchmark_main, black_box, Group};
use allarm_types::Nanos;
use allarm_workloads::{Benchmark, TraceGenerator};

/// Accesses per thread for the kernel benchmarks; override with
/// `ALLARM_BENCH_ACCESSES` to bench at figure scale.
fn accesses() -> usize {
    std::env::var("ALLARM_BENCH_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

fn sharded_kernel() {
    let workload = TraceGenerator::new(16, accesses(), 2014).generate(Benchmark::OceanContiguous);
    let mut group = Group::new("sharded_kernel").sample_count(5);
    for sim_threads in [1usize, 2, 4, 8] {
        let simulator = SimulationBuilder::new(MachineConfig::date2014())
            .policy(AllocationPolicy::Allarm)
            .sim_threads(sim_threads)
            .build()
            .expect("the Table I machine is valid");
        let name = format!("ocean_16c_sim_threads_{sim_threads}");
        group.bench(&name, || {
            black_box(simulator.run(&workload).runtime);
        });
    }
    group.finish();
}

fn scheduler_scaling() {
    let mut group = Group::new("core_scheduler").sample_count(10);
    for cores in [16usize, 64, 256, 1024] {
        let name = format!("laggard_selection_{cores}_cores");
        group.bench(&name, || {
            // A full simulation's worth of pick/advance cycles: the
            // heap-backed scheduler keeps this O(log n) per pick where the
            // former linear scan paid O(n).
            let mut scheduler = CoreScheduler::new(cores);
            let mut state = 0x2014_u64;
            for _ in 0..50_000 {
                let actor = scheduler.next_actor().expect("no actor finished");
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                scheduler.advance(actor, Nanos::new(1 + (state >> 33) % 200));
            }
            black_box(scheduler.makespan());
        });
    }
    group.finish();
}

benchmark_main!(sharded_kernel, scheduler_scaling);
