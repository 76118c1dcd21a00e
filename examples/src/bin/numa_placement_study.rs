//! NUMA placement study: ALLARM's dependence on first-touch allocation.
//!
//! ALLARM's private-data detection is statistical: it assumes first-touch
//! placement homes thread-local pages on the toucher's node. This example
//! runs the same benchmark under first-touch, next-touch and interleaved
//! page placement and shows how the local-request fraction — and with it
//! ALLARM's ability to skip probe-filter allocations — changes. It exercises
//! the `SimulationBuilder` API directly rather than the pre-packaged
//! experiment drivers; see `probe_filter_sizing` for the declarative
//! `Scenario` route.
//!
//! ```text
//! cargo run --release -p allarm-examples --bin numa_placement_study
//! ```

#![forbid(unsafe_code)]

use allarm_core::{AllocationPolicy, MachineConfig, SimulationBuilder};
use allarm_mem::NumaPolicy;
use allarm_types::ids::NodeId;
use allarm_workloads::{Benchmark, TraceGenerator};

fn main() {
    let machine = MachineConfig::date2014();
    let workload = TraceGenerator::new(16, 40_000, 99).generate(Benchmark::Barnes);

    println!(
        "NUMA placement sensitivity for {} (16 threads)",
        workload.name
    );
    println!();
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "placement", "policy", "runtime ns", "local frac", "PF allocations", "PF evictions"
    );

    let placements = [
        ("first-touch", NumaPolicy::FirstTouch),
        ("next-touch", NumaPolicy::NextTouch),
        ("interleaved", NumaPolicy::Interleaved),
        ("all-on-node0", NumaPolicy::Fixed(NodeId::new(0))),
    ];

    for (label, numa) in placements {
        for policy in AllocationPolicy::ALL {
            let report = SimulationBuilder::new(machine)
                .policy(policy)
                .numa_policy(numa)
                .build()
                .expect("the Table I machine is valid")
                .run(&workload);
            println!(
                "{:<14} {:>8} {:>12} {:>12.2} {:>14} {:>12}",
                label,
                report.policy,
                report.runtime.as_u64(),
                report.local_fraction(),
                report.pf_allocations,
                report.pf_evictions,
            );
        }
    }

    println!();
    println!("first-touch keeps thread-local pages on the local node, so ALLARM skips");
    println!("directory entries for them; interleaved placement destroys that locality and");
    println!("ALLARM degenerates to the baseline, exactly as Section II-A of the paper argues.");
}
