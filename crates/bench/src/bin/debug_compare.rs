//! Developer diagnostic: dump the full baseline and ALLARM reports for one
//! benchmark side by side. Not part of the published figures; useful when
//! tuning workload profiles or chasing a latency asymmetry.

#![forbid(unsafe_code)]

use allarm_bench::figure_config;
use allarm_core::compare_benchmark;
use allarm_workloads::Benchmark;

fn main() {
    let bench = std::env::args()
        .nth(1)
        .and_then(|name| Benchmark::from_name(&name))
        .unwrap_or(Benchmark::Dedup);
    let cfg = figure_config();
    let cmp = compare_benchmark(bench, &cfg);

    println!("== {} ==", bench.name());
    for report in [&cmp.baseline, &cmp.allarm] {
        println!("--- {} ---", report.policy);
        println!("runtime            {}", report.runtime);
        println!("total accesses     {}", report.total_accesses);
        println!("l1/l2 hits         {} / {}", report.l1_hits, report.l2_hits);
        println!("l2 misses          {}", report.l2_misses);
        println!("dir requests       {}", report.directory_requests);
        println!(
            "  local/remote     {} / {}",
            report.local_requests, report.remote_requests
        );
        println!(
            "pf alloc/evict     {} / {}",
            report.pf_allocations, report.pf_evictions
        );
        println!(
            "eviction msgs/inv  {} / {}",
            report.eviction_messages, report.eviction_invalidations
        );
        println!("allarm skips       {}", report.allarm_allocation_skips);
        println!(
            "noc bytes/msgs     {} / {}",
            report.noc_bytes, report.noc_messages
        );
        println!(
            "dram reads/writes  {} / {}",
            report.dram_reads, report.dram_writes
        );
        println!(
            "local probes       {} (hits {}, hidden {})",
            report.local_probes, report.local_probe_hits, report.local_probes_hidden
        );
        println!(
            "energy noc/pf (uJ) {:.1} / {:.1}",
            report.energy.noc_pj / 1e6,
            report.energy.probe_filter_pj / 1e6
        );
    }
    println!("speedup            {:.4}", cmp.speedup());
    println!("norm evictions     {:.4}", cmp.normalized_evictions());
    println!("norm traffic       {:.4}", cmp.normalized_traffic());
    println!("norm l2 misses     {:.4}", cmp.normalized_l2_misses());
}
