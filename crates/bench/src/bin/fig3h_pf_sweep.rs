//! Figure 3h: speedup while shrinking the probe filter (512/256/128 kB),
//! every bar normalised to the baseline with a 512 kB probe filter.

#![forbid(unsafe_code)]

use allarm_bench::figure_config;
use allarm_core::report::{format_coverage, render_table, FigureSeries};
use allarm_core::{pf_size_sweep, FIG3H_COVERAGES};
use allarm_workloads::Benchmark;

fn main() {
    let cfg = figure_config();
    let mut series: Vec<FigureSeries> = FIG3H_COVERAGES
        .iter()
        .map(|c| FigureSeries::new(format_coverage(*c)))
        .collect();
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for bench in Benchmark::ALL {
        eprintln!("[allarm-bench] sweeping {bench}...");
        let points = pf_size_sweep(bench, &cfg, &FIG3H_COVERAGES);
        let reference = points[0].baseline.runtime.as_f64();
        let values: Vec<f64> = points
            .iter()
            .map(|p| reference / p.allarm.runtime.as_f64())
            .collect();
        rows.push((bench.name().to_string(), values));
    }
    for (name, values) in &rows {
        for (i, v) in values.iter().enumerate() {
            series[i].push(name.clone(), *v);
        }
    }
    print!(
        "{}",
        render_table(
            "Fig. 3h: ALLARM speedup vs probe-filter size (normalised to 512kB baseline)",
            &series
        )
    );
}
