//! Figure 3g: fraction of remote requests whose ALLARM local probe stayed
//! off the critical path.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut series = FigureSeries::without_geomean("hidden");
    for (bench, cmp) in all_comparisons(&cfg) {
        series.push(bench.name(), cmp.hidden_probe_fraction());
    }
    print!(
        "{}",
        render_table(
            "Fig. 3g: fraction of local probes off the critical path",
            &[series]
        )
    );
}
