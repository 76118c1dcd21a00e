//! The probe-filter area table (Section III-A5): area in mm² as the probe
//! filter shrinks, i.e. the SRAM that ALLARM lets the designer hand back to
//! the last-level cache.

#![forbid(unsafe_code)]

use allarm_energy::{area::PAPER_AREA_POINTS, probe_filter_area_mm2};

fn main() {
    println!("# Probe-filter area vs capacity (McPAT-style model)");
    println!(
        "{:<12} {:>12} {:>16}",
        "PF config", "area (mm2)", "saving vs 512kB"
    );
    let full = probe_filter_area_mm2(512 * 1024);
    for (capacity, _) in PAPER_AREA_POINTS.iter().rev() {
        let area = probe_filter_area_mm2(*capacity);
        println!(
            "{:<12} {:>12.2} {:>16.2}",
            format!("{}kB", capacity / 1024),
            area,
            full - area
        );
    }
}
