//! Smoke tests of the figure-regeneration pipeline at a tiny scale: every
//! experiment driver must run and produce series with the structural
//! properties the paper's figures rely on.

#![forbid(unsafe_code)]

use allarm_core::report::{format_coverage, render_table, FigureSeries};
use allarm_core::{
    compare_benchmark, multiprocess_sweep, pf_size_sweep, ExperimentConfig, FIG3H_COVERAGES,
    FIG4_COVERAGES,
};
use allarm_energy::probe_filter_area_mm2;
use allarm_workloads::Benchmark;

fn smoke_cfg() -> ExperimentConfig {
    ExperimentConfig::quick_test().with_accesses_per_thread(1_000)
}

#[test]
fn fig2_and_fig3_series_cover_every_benchmark() {
    let cfg = smoke_cfg();
    let mut speedup = FigureSeries::new("speedup");
    let mut local = FigureSeries::without_geomean("local");
    for bench in Benchmark::ALL {
        let cmp = compare_benchmark(bench, &cfg);
        local.push(bench.name(), cmp.local_fraction());
        speedup.push(bench.name(), cmp.speedup());
        // Fractions are probabilities.
        assert!((0.0..=1.0).contains(&cmp.local_fraction()), "{bench}");
        assert!(
            (0.0..=1.0).contains(&cmp.hidden_probe_fraction()),
            "{bench}"
        );
        assert!(cmp.speedup() > 0.0);
    }
    let table = render_table("Fig. 3a smoke", &[speedup]);
    for bench in Benchmark::ALL {
        assert!(table.contains(bench.name()));
    }
    assert!(table.contains("geomean"));
}

#[test]
fn fig3h_sweep_produces_one_point_per_coverage() {
    let points = pf_size_sweep(Benchmark::Blackscholes, &smoke_cfg(), &FIG3H_COVERAGES);
    assert_eq!(points.len(), FIG3H_COVERAGES.len());
    for (point, coverage) in points.iter().zip(FIG3H_COVERAGES) {
        assert_eq!(point.pf_coverage_bytes, coverage);
        assert_eq!(point.baseline.pf_coverage_bytes, coverage);
        assert_eq!(point.allarm.pf_coverage_bytes, coverage);
    }
}

#[test]
fn fig4_sweep_baseline_degrades_monotonically_in_evictions() {
    let points = multiprocess_sweep(
        Benchmark::OceanContiguous,
        &smoke_cfg().with_accesses_per_thread(4_000),
        &FIG4_COVERAGES,
    );
    assert_eq!(points.len(), FIG4_COVERAGES.len());
    for pair in points.windows(2) {
        assert!(
            pair[1].baseline.pf_evictions >= pair[0].baseline.pf_evictions,
            "a smaller probe filter cannot evict fewer entries"
        );
        // ALLARM stays (nearly) flat: it never evicts more than the baseline.
        assert!(pair[1].allarm.pf_evictions <= pair[1].baseline.pf_evictions);
    }
}

#[test]
fn area_table_is_monotonic_and_matches_published_points() {
    let mut previous = 0.0;
    for coverage in [32, 64, 128, 256, 512u64] {
        let area = probe_filter_area_mm2(coverage * 1024);
        assert!(area > previous);
        previous = area;
    }
    assert_eq!(probe_filter_area_mm2(512 * 1024), 70.89);
    assert_eq!(probe_filter_area_mm2(32 * 1024), 5.93);
}

#[test]
fn coverage_labels_match_the_paper() {
    let labels: Vec<String> = FIG4_COVERAGES.iter().map(|c| format_coverage(*c)).collect();
    assert_eq!(labels, vec!["512kB", "256kB", "128kB", "64kB", "32kB"]);
}
