//! Figure 4: the multi-process experiment. Two single-threaded copies of a
//! SPLASH2 benchmark; speedup, probe-filter evictions and network traffic as
//! the probe filter shrinks from 512 kB to 32 kB, normalised to the baseline
//! at 512 kB.

#![forbid(unsafe_code)]

use allarm_bench::figure_config;
use allarm_core::report::{format_coverage, render_sweep_table, FigureSeries};
use allarm_core::{multiprocess_sweep, SweepPoint, FIG4_COVERAGES};
use allarm_workloads::Benchmark;

fn print_panel(
    title: &str,
    benches: &[(Benchmark, Vec<SweepPoint>)],
    value: impl Fn(&SweepPoint, &SweepPoint) -> f64,
) {
    let labels: Vec<String> = FIG4_COVERAGES.iter().map(|c| format_coverage(*c)).collect();
    let series: Vec<FigureSeries> = benches
        .iter()
        .map(|(bench, points)| {
            let mut s = FigureSeries::without_geomean(bench.name());
            for (label, point) in labels.iter().zip(points) {
                s.push(label.clone(), value(point, &points[0]));
            }
            s
        })
        .collect();
    print!("{}", render_sweep_table(title, &labels, &series));
    println!();
}

fn main() {
    let cfg = figure_config();
    let benches: Vec<(Benchmark, Vec<SweepPoint>)> = Benchmark::MULTIPROCESS
        .iter()
        .map(|&bench| {
            eprintln!("[allarm-bench] multi-process sweep for {bench}...");
            (bench, multiprocess_sweep(bench, &cfg, &FIG4_COVERAGES))
        })
        .collect();

    // Baseline panels (Fig. 4a-4c).
    print_panel(
        "Fig. 4a: baseline speedup vs PF size",
        &benches,
        |p, reference| reference.baseline.runtime.as_f64() / p.baseline.runtime.as_f64(),
    );
    print_panel(
        "Fig. 4b: baseline normalised evictions",
        &benches,
        |p, reference| {
            allarm_types::stats::normalized(
                p.baseline.pf_evictions as f64,
                reference.baseline.pf_evictions as f64,
            )
        },
    );
    print_panel(
        "Fig. 4c: baseline normalised traffic",
        &benches,
        |p, reference| {
            allarm_types::stats::normalized(
                p.baseline.noc_bytes as f64,
                reference.baseline.noc_bytes as f64,
            )
        },
    );
    // ALLARM panels (Fig. 4d-4f), still normalised to the 512 kB baseline.
    print_panel(
        "Fig. 4d: ALLARM speedup vs PF size",
        &benches,
        |p, reference| reference.baseline.runtime.as_f64() / p.allarm.runtime.as_f64(),
    );
    print_panel(
        "Fig. 4e: ALLARM normalised evictions",
        &benches,
        |p, reference| {
            allarm_types::stats::normalized(
                p.allarm.pf_evictions as f64,
                reference.baseline.pf_evictions as f64,
            )
        },
    );
    print_panel(
        "Fig. 4f: ALLARM normalised traffic",
        &benches,
        |p, reference| {
            allarm_types::stats::normalized(
                p.allarm.noc_bytes as f64,
                reference.baseline.noc_bytes as f64,
            )
        },
    );
}
