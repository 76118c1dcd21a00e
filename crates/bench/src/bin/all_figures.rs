//! Regenerates every table and figure in one run and prints them in paper
//! order. The output of this binary is the basis of EXPERIMENTS.md.

#![forbid(unsafe_code)]

use allarm_bench::{all_comparisons, figure_config};
use allarm_core::report::{format_coverage, render_sweep_table, render_table, FigureSeries};
use allarm_core::{multiprocess_sweep, pf_size_sweep, FIG3H_COVERAGES, FIG4_COVERAGES};
use allarm_energy::probe_filter_area_mm2;
use allarm_workloads::Benchmark;

fn main() {
    let cfg = figure_config();
    println!(
        "experiment scale: {} threads x {} accesses/thread, seed {}\n",
        cfg.threads, cfg.accesses_per_thread, cfg.seed
    );

    let comparisons = all_comparisons(&cfg);

    let mut fig2_local = FigureSeries::without_geomean("local");
    let mut fig2_remote = FigureSeries::without_geomean("remote");
    let mut fig3a = FigureSeries::new("speedup");
    let mut fig3b = FigureSeries::without_geomean("evictions");
    let mut fig3c = FigureSeries::new("traffic");
    let mut fig3d = FigureSeries::without_geomean("messages");
    let mut fig3e = FigureSeries::without_geomean("l2-misses");
    let mut fig3f_noc = FigureSeries::new("NoC");
    let mut fig3f_pf = FigureSeries::new("PF");
    let mut fig3g = FigureSeries::without_geomean("hidden");
    for (bench, cmp) in &comparisons {
        let name = bench.name();
        fig2_local.push(name, cmp.baseline.local_fraction());
        fig2_remote.push(name, cmp.baseline.remote_fraction());
        fig3a.push(name, cmp.speedup());
        fig3b.push(name, cmp.normalized_evictions());
        fig3c.push(name, cmp.normalized_traffic());
        fig3d.push(name, cmp.baseline_messages_per_eviction());
        fig3e.push(name, cmp.normalized_l2_misses());
        fig3f_noc.push(name, cmp.normalized_noc_energy());
        fig3f_pf.push(name, cmp.normalized_pf_energy());
        fig3g.push(name, cmp.hidden_probe_fraction());
    }
    println!(
        "{}",
        render_table(
            "Fig. 2: local vs remote directory requests",
            &[fig2_local, fig2_remote]
        )
    );
    println!(
        "{}",
        render_table("Fig. 3a: speedup over baseline", &[fig3a])
    );
    println!(
        "{}",
        render_table("Fig. 3b: normalised probe-filter evictions", &[fig3b])
    );
    println!(
        "{}",
        render_table("Fig. 3c: normalised network traffic", &[fig3c])
    );
    println!(
        "{}",
        render_table("Fig. 3d: messages per probe-filter eviction", &[fig3d])
    );
    println!(
        "{}",
        render_table("Fig. 3e: normalised L2 misses", &[fig3e])
    );
    println!(
        "{}",
        render_table("Fig. 3f: normalised dynamic energy", &[fig3f_noc, fig3f_pf])
    );
    println!(
        "{}",
        render_table("Fig. 3g: local probes off the critical path", &[fig3g])
    );

    // Fig. 3h.
    let mut fig3h: Vec<FigureSeries> = FIG3H_COVERAGES
        .iter()
        .map(|c| FigureSeries::new(format_coverage(*c)))
        .collect();
    for bench in Benchmark::ALL {
        eprintln!("[allarm-bench] fig 3h sweep for {bench}...");
        let points = pf_size_sweep(bench, &cfg, &FIG3H_COVERAGES);
        let reference = points[0].baseline.runtime.as_f64();
        for (i, p) in points.iter().enumerate() {
            fig3h[i].push(bench.name(), reference / p.allarm.runtime.as_f64());
        }
    }
    println!(
        "{}",
        render_table("Fig. 3h: ALLARM speedup vs probe-filter size", &fig3h)
    );

    // Fig. 4.
    let labels: Vec<String> = FIG4_COVERAGES.iter().map(|c| format_coverage(*c)).collect();
    let mut panels: Vec<(String, Vec<FigureSeries>)> = [
        "Fig. 4a: baseline speedup",
        "Fig. 4b: baseline normalised evictions",
        "Fig. 4c: baseline normalised traffic",
        "Fig. 4d: ALLARM speedup",
        "Fig. 4e: ALLARM normalised evictions",
        "Fig. 4f: ALLARM normalised traffic",
    ]
    .iter()
    .map(|t| (t.to_string(), Vec::new()))
    .collect();
    for bench in Benchmark::MULTIPROCESS {
        eprintln!("[allarm-bench] fig 4 sweep for {bench}...");
        let points = multiprocess_sweep(bench, &cfg, &FIG4_COVERAGES);
        let reference = &points[0];
        let make = |values: Vec<f64>| {
            let mut s = FigureSeries::without_geomean(bench.name());
            for (label, v) in labels.iter().zip(values) {
                s.push(label.clone(), v);
            }
            s
        };
        let ref_runtime = reference.baseline.runtime.as_f64();
        let ref_evictions = reference.baseline.pf_evictions as f64;
        let ref_bytes = reference.baseline.noc_bytes as f64;
        let columns: [Vec<f64>; 6] = [
            points
                .iter()
                .map(|p| ref_runtime / p.baseline.runtime.as_f64())
                .collect(),
            points
                .iter()
                .map(|p| {
                    allarm_types::stats::normalized(p.baseline.pf_evictions as f64, ref_evictions)
                })
                .collect(),
            points
                .iter()
                .map(|p| allarm_types::stats::normalized(p.baseline.noc_bytes as f64, ref_bytes))
                .collect(),
            points
                .iter()
                .map(|p| ref_runtime / p.allarm.runtime.as_f64())
                .collect(),
            points
                .iter()
                .map(|p| {
                    allarm_types::stats::normalized(p.allarm.pf_evictions as f64, ref_evictions)
                })
                .collect(),
            points
                .iter()
                .map(|p| allarm_types::stats::normalized(p.allarm.noc_bytes as f64, ref_bytes))
                .collect(),
        ];
        for (panel, values) in panels.iter_mut().zip(columns) {
            panel.1.push(make(values));
        }
    }
    for (title, series) in &panels {
        println!("{}", render_sweep_table(title, &labels, series));
    }

    // Area table.
    println!("# Probe-filter area (mm2)");
    for capacity in [512, 256, 128, 64, 32u64] {
        println!(
            "{:>6}kB  {:>8.2}",
            capacity,
            probe_filter_area_mm2(capacity * 1024)
        );
    }
}
