//! Steady-state heap allocations of the simulation kernel, counted by a
//! counting global allocator.
//!
//! This file is its own test binary with a single `#[test]`, so no other
//! test can allocate concurrently and pollute the counter. Each row is run
//! twice, at `N` and `2N` accesses per thread, through `Simulator::run` on
//! one shard; `allocs(2N) − allocs(N)` over the extra accesses is the
//! per-access allocation rate of the kernel's steady state — machine
//! set-up, report assembly and the workload's initialisation phase are the
//! same in both runs and cancel.
//!
//! Bounds: the 16-core rows must be essentially allocation-free (≤ 0.01
//! per access: a page-table resize here and there). The 256-core row keeps
//! the heap-backed sharer sets of cores numbered 64 and up, so its bound
//! is looser (< 1 per access).
//!
//! Run in release (the CI does) with
//! `cargo test --release -p allarm-tests --test alloc_free_kernel -- --nocapture`
//! to see the measured counts.

use allarm_core::{AllocationPolicy, Benchmark, Scenario, ScenarioGrid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation and
/// reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no bearing on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn row(grid: &str, benchmark: Benchmark, policy: AllocationPolicy) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../scenarios")
        .join(grid);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioGrid::from_toml(&text)
        .unwrap_or_else(|e| panic!("{grid}: {e}"))
        .expand()
        .into_iter()
        .find(|s| s.policy == policy && s.workload.benchmark() == Some(benchmark))
        .unwrap_or_else(|| panic!("{grid}: no {} {policy:?} row", benchmark.name()))
        .with_sim_threads(1)
}

/// Allocations made by `Simulator::run` of `scenario` at `accesses` per
/// thread, and the accesses it simulated. The workload is generated and
/// the simulator built before counting starts.
fn count_run(scenario: &Scenario, accesses: usize) -> (u64, u64) {
    let scenario = scenario.clone().with_accesses(accesses);
    let workload = scenario.workload();
    let sim = scenario.build().expect("checked-in rows build");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run(&workload);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, report.total_accesses)
}

/// Steady-state allocations per simulated access of `scenario`.
fn steady_allocs_per_access(scenario: &Scenario, n: usize) -> f64 {
    let (allocs_n, accesses_n) = count_run(scenario, n);
    let (allocs_2n, accesses_2n) = count_run(scenario, 2 * n);
    assert!(accesses_2n > accesses_n, "{}: longer run", scenario.name);
    let extra_allocs = allocs_2n.saturating_sub(allocs_n);
    let extra_accesses = accesses_2n - accesses_n;
    let rate = extra_allocs as f64 / extra_accesses as f64;
    println!(
        "{:<22} allocs {allocs_n:>8} @ {accesses_n:>8} accesses, {allocs_2n:>8} @ \
         {accesses_2n:>8}: {extra_allocs} allocations over {extra_accesses} extra \
         accesses = {rate:.5}/access",
        scenario.name
    );
    rate
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let sixteen_core = [
        (
            row(
                "fig3_comparison.toml",
                Benchmark::OceanContiguous,
                AllocationPolicy::Baseline,
            ),
            2_000,
        ),
        (
            row(
                "fig3_comparison.toml",
                Benchmark::OceanContiguous,
                AllocationPolicy::Allarm,
            ),
            2_000,
        ),
        (
            row(
                "kv_store_comparison.toml",
                Benchmark::KvStore,
                AllocationPolicy::Allarm,
            ),
            2_000,
        ),
    ];
    let mut failures = Vec::new();
    for (scenario, n) in &sixteen_core {
        let rate = steady_allocs_per_access(scenario, *n);
        if rate > 0.01 {
            failures.push(format!("{}: {rate:.5} > 0.01", scenario.name));
        }
    }
    let scale256 = row(
        "scale256_comparison.toml",
        Benchmark::Raytrace,
        AllocationPolicy::Allarm,
    );
    let rate = steady_allocs_per_access(&scale256, 400);
    if rate >= 1.0 {
        failures.push(format!("{} (256 cores): {rate:.5} >= 1.0", scale256.name));
    }
    assert!(
        failures.is_empty(),
        "allocations per access over the bound: {failures:?}"
    );
}
