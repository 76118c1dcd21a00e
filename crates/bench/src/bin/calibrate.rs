//! Calibration dump: every headline metric for every benchmark, side by
//! side with the paper's target values. Used while tuning the workload
//! profiles; kept in the tree because it is the fastest way to see the
//! whole reproduction at a glance.

#![forbid(unsafe_code)]

use allarm_bench::figure_config;
use allarm_core::compare_benchmark;
use allarm_types::stats::geometric_mean;
use allarm_workloads::Benchmark;

fn main() {
    let cfg = figure_config();
    println!(
        "calibration run: {} threads x {} accesses, PF {} kB/node",
        cfg.threads,
        cfg.accesses_per_thread,
        cfg.machine.probe_filter.coverage_bytes / 1024
    );
    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "benchmark",
        "local",
        "speedup",
        "evict",
        "traffic",
        "l2miss",
        "msg/ev",
        "hidden",
        "noc-E",
        "pf-E"
    );

    let mut speedups = Vec::new();
    let mut evictions = Vec::new();
    let mut traffic = Vec::new();
    let mut l2 = Vec::new();
    let mut noc_e = Vec::new();
    let mut pf_e = Vec::new();

    for bench in Benchmark::ALL {
        let cmp = compare_benchmark(bench, &cfg);
        println!(
            "{:<16} {:>6.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.2} {:>8.3} {:>9.3} {:>10.3}",
            bench.name(),
            cmp.local_fraction(),
            cmp.speedup(),
            cmp.normalized_evictions(),
            cmp.normalized_traffic(),
            cmp.normalized_l2_misses(),
            cmp.baseline_messages_per_eviction(),
            cmp.hidden_probe_fraction(),
            cmp.normalized_noc_energy(),
            cmp.normalized_pf_energy(),
        );
        speedups.push(cmp.speedup());
        evictions.push(cmp.normalized_evictions());
        traffic.push(cmp.normalized_traffic());
        l2.push(cmp.normalized_l2_misses());
        noc_e.push(cmp.normalized_noc_energy());
        pf_e.push(cmp.normalized_pf_energy());
        // Raw counts help diagnose degenerate cases (e.g. zero evictions).
        eprintln!(
            "    [{}] baseline evictions={} allarm evictions={} dir requests={} l2 misses={}",
            bench.name(),
            cmp.baseline.pf_evictions,
            cmp.allarm.pf_evictions,
            cmp.baseline.directory_requests,
            cmp.baseline.l2_misses
        );
    }

    let gm = |v: &[f64]| geometric_mean(v).unwrap_or(f64::NAN);
    println!(
        "{:<16} {:>6} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8} {:>8} {:>9.3} {:>10.3}",
        "geomean",
        "-",
        gm(&speedups),
        gm(&evictions),
        gm(&traffic),
        gm(&l2),
        "-",
        "-",
        gm(&noc_e),
        gm(&pf_e),
    );
    println!();
    println!("paper targets: speedup ~1.13 (geomean), evictions ~0.54, traffic ~0.88,");
    println!("l2 misses ~0.91, NoC energy ~0.91, PF energy ~0.85, hidden ~0.81,");
    println!("fluidanimate <= 1.0 speedup, ocean-* largest speedups.");
}
