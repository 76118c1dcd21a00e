//! Figure 3e: L2 misses under ALLARM, normalised to baseline.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut series = FigureSeries::without_geomean("normalised");
    for (bench, cmp) in all_comparisons(&cfg) {
        series.push(bench.name(), cmp.normalized_l2_misses());
    }
    print!(
        "{}",
        render_table("Fig. 3e: normalised L2 misses", &[series])
    );
}
