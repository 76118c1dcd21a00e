//! The paper's published geomeans, as data with their provenance.

use allarm_core::Comparison;

/// Where the targets come from: the figure-3 geomeans the paper reports,
/// as printed by `crates/bench/src/bin/calibrate.rs`.
pub const PROVENANCE: &str = "ALLARM (DATE 2014) Fig. 3 geomeans over the 8 SPLASH-2/PARSEC \
     benchmarks, as printed by crates/bench/src/bin/calibrate.rs";

/// Trace length the paper's figures use: 16 threads × 250k accesses.
pub const PAPER_THREADS: usize = 16;
/// Accesses per thread at the paper's length.
pub const PAPER_ACCESSES_PER_THREAD: usize = 250_000;

/// One ALLARM-over-baseline ratio the paper reports as a geomean.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Metric name the benchmark prints (`paper_err_<suffix>`).
    pub metric: &'static str,
    /// The paper's geometric mean of the ratio.
    pub paper: f64,
    /// The per-benchmark ratio of this reproduction.
    pub ratio: fn(&Comparison) -> f64,
}

/// The four targets the benchmark tracks.
pub const TARGETS: [Target; 4] = [
    Target {
        metric: "paper_err_speedup",
        paper: 1.13,
        ratio: Comparison::speedup,
    },
    Target {
        metric: "paper_err_traffic",
        paper: 0.88,
        ratio: Comparison::normalized_traffic,
    },
    Target {
        metric: "paper_err_l2_misses",
        paper: 0.91,
        ratio: Comparison::normalized_l2_misses,
    },
    Target {
        metric: "paper_err_pf_energy",
        paper: 0.85,
        ratio: Comparison::normalized_pf_energy,
    },
];
