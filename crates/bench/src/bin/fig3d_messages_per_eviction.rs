//! Figure 3d: average coherence messages per probe-filter eviction.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut series = FigureSeries::without_geomean("messages");
    for (bench, cmp) in all_comparisons(&cfg) {
        series.push(bench.name(), cmp.baseline_messages_per_eviction());
    }
    print!(
        "{}",
        render_table(
            "Fig. 3d: average messages per probe-filter eviction",
            &[series]
        )
    );
}
