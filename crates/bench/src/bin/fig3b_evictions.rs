//! Figure 3b: probe-filter evictions under ALLARM, normalised to baseline.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut norm = FigureSeries::without_geomean("normalised");
    let mut base = FigureSeries::without_geomean("baseline#");
    let mut allarm = FigureSeries::without_geomean("allarm#");
    for (bench, cmp) in all_comparisons(&cfg) {
        norm.push(bench.name(), cmp.normalized_evictions());
        base.push(bench.name(), cmp.baseline.pf_evictions as f64);
        allarm.push(bench.name(), cmp.allarm.pf_evictions as f64);
    }
    print!(
        "{}",
        render_table(
            "Fig. 3b: normalised probe-filter evictions",
            &[norm, base, allarm]
        )
    );
}
