//! Quickstart: run one benchmark under the baseline sparse directory and
//! under ALLARM on the paper's 16-core machine, and print the headline
//! numbers — via the declarative Scenario/BatchRunner API.
//!
//! ```text
//! cargo run --release -p allarm-examples --bin quickstart
//! ```

#![forbid(unsafe_code)]

use allarm_core::{AllocationPolicy, BatchRunner, Scenario, ScenarioGrid};
use allarm_workloads::Benchmark;

fn main() {
    let bench = Benchmark::OceanContiguous;
    // A reduced trace keeps the quickstart under a couple of seconds; drop
    // `with_accesses` for the paper's full 250k-access configuration.
    let base = Scenario::paper(bench, AllocationPolicy::Baseline).with_accesses(40_000);
    let grid = ScenarioGrid::new(base).policies(AllocationPolicy::ALL.to_vec());

    println!("running {bench} on the Table I machine (baseline and ALLARM, in parallel)...");
    let results = BatchRunner::new()
        .run(&grid.expand())
        .expect("the paper scenario is valid");
    let cmp = results
        .paired()
        .into_iter()
        .next()
        .expect("one baseline/allarm pair");

    println!();
    println!("baseline runtime      {}", cmp.baseline.runtime);
    println!("ALLARM runtime        {}", cmp.allarm.runtime);
    println!("speedup               {:.3}x", cmp.speedup());
    println!();
    println!(
        "probe-filter evictions: {} -> {} ({:.0}% fewer)",
        cmp.baseline.pf_evictions,
        cmp.allarm.pf_evictions,
        (1.0 - cmp.normalized_evictions()) * 100.0
    );
    println!(
        "network traffic:        {} -> {} bytes ({:.1}% less)",
        cmp.baseline.noc_bytes,
        cmp.allarm.noc_bytes,
        (1.0 - cmp.normalized_traffic()) * 100.0
    );
    println!(
        "L2 misses:              {} -> {} ({:.1}% fewer)",
        cmp.baseline.l2_misses,
        cmp.allarm.l2_misses,
        (1.0 - cmp.normalized_l2_misses()) * 100.0
    );
    println!(
        "local directory requests (Fig. 2 fraction): {:.2}",
        cmp.local_fraction()
    );
    println!(
        "local probes hidden behind DRAM (Fig. 3g):  {:.2}",
        cmp.hidden_probe_fraction()
    );
}
