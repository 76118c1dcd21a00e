//! Figure 3c: network traffic (bytes) under ALLARM, normalised to baseline.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut series = FigureSeries::new("normalised");
    for (bench, cmp) in all_comparisons(&cfg) {
        series.push(bench.name(), cmp.normalized_traffic());
    }
    print!(
        "{}",
        render_table("Fig. 3c: normalised network traffic (bytes)", &[series])
    );
}
