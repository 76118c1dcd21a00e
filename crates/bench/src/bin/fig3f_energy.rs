//! Figure 3f: dynamic energy of the NoC and probe filter, normalised to
//! baseline.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{render_table, FigureSeries};

fn main() {
    let cfg = figure_config();
    let mut noc = FigureSeries::new("NoC");
    let mut pf = FigureSeries::new("PF");
    for (bench, cmp) in all_comparisons(&cfg) {
        noc.push(bench.name(), cmp.normalized_noc_energy());
        pf.push(bench.name(), cmp.normalized_pf_energy());
    }
    print!(
        "{}",
        render_table("Fig. 3f: normalised dynamic energy", &[noc, pf])
    );
}
