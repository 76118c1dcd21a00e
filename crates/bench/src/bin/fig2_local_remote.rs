//! Figure 2: ratio of local to remote directory requests per benchmark.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut local = FigureSeries::without_geomean("local");
    let mut remote = FigureSeries::without_geomean("remote");
    for (bench, cmp) in all_comparisons(&cfg) {
        local.push(bench.name(), cmp.baseline.local_fraction());
        remote.push(bench.name(), cmp.baseline.remote_fraction());
    }
    print!(
        "{}",
        render_table(
            "Fig. 2: fraction of local vs remote directory requests",
            &[local, remote]
        )
    );
}
