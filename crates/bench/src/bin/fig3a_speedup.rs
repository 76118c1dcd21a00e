//! Figure 3a: speedup of ALLARM over the baseline (16 threads).

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut series = FigureSeries::new("speedup");
    for (bench, cmp) in all_comparisons(&cfg) {
        series.push(bench.name(), cmp.speedup());
    }
    print!(
        "{}",
        render_table("Fig. 3a: speedup over baseline", &[series])
    );
}
