//! Regenerates the checked-in scenario grids under `scenarios/` from the
//! constructors in `allarm_bench`. Run after changing a figure's
//! configuration so the declarative documents stay in sync (the
//! `scenario_files` integration test enforces this).
//!
//! ```text
//! cargo run -p allarm-bench --bin export_scenarios
//! ```

#![forbid(unsafe_code)]

use allarm_bench::{
    consolidation_grid, fig3_grid, fig3h_grid, fig4_grid, kv_store_grid, scale256_grid,
    scale256_pf_sweep_grid, scale64_grid, scale64_pf_sweep_grid, streamcluster_grid,
    tracefile_comparison_grid, tracefile_source_grid, tracefile_v2_comparison_grid,
};
use allarm_core::ExperimentConfig;
use std::path::Path;

fn main() {
    let cfg = ExperimentConfig::paper();
    let scale64 = ExperimentConfig::scale64();
    let scale256 = ExperimentConfig::scale256();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    std::fs::create_dir_all(&dir).expect("create scenarios/");
    for (name, grid) in [
        ("fig3_comparison.toml", fig3_grid(&cfg)),
        ("fig3h_pf_sweep.toml", fig3h_grid(&cfg)),
        ("fig4_multiprocess.toml", fig4_grid(&cfg)),
        ("streamcluster_comparison.toml", streamcluster_grid(&cfg)),
        ("scale64_comparison.toml", scale64_grid(&scale64)),
        ("scale64_pf_sweep.toml", scale64_pf_sweep_grid(&scale64)),
        ("scale256_comparison.toml", scale256_grid(&scale256)),
        ("scale256_pf_sweep.toml", scale256_pf_sweep_grid(&scale256)),
        ("tracefile_source.toml", tracefile_source_grid()),
        ("tracefile_comparison.toml", tracefile_comparison_grid()),
        (
            "tracefile_v2_comparison.toml",
            tracefile_v2_comparison_grid(),
        ),
        ("kv_store_comparison.toml", kv_store_grid(&cfg)),
        ("consolidation_comparison.toml", consolidation_grid(&cfg)),
    ] {
        let header = format!(
            "# {name}: generated by `cargo run -p allarm-bench --bin export_scenarios`.\n\
             # Run with: cargo run --release -p allarm-bench --bin scenario_run -- scenarios/{name}\n"
        );
        let body = grid.to_toml().expect("grids serialize");
        let path = dir.join(name);
        std::fs::write(&path, format!("{header}{body}")).expect("write scenario file");
        println!("wrote {}", path.display());
    }
}
