//! The checked-in scenario grids under `scenarios/` must stay in sync with
//! the constructors in `allarm_bench` (regenerate with
//! `cargo run -p allarm-bench --bin export_scenarios`).

#![forbid(unsafe_code)]

use allarm_bench::{
    consolidation_grid, fig3_grid, fig3h_grid, fig4_grid, kv_store_grid, scale256_grid,
    scale256_pf_sweep_grid, scale64_grid, scale64_pf_sweep_grid, streamcluster_grid,
    tracefile_comparison_grid, tracefile_source_grid, tracefile_v2_comparison_grid,
    CONSOLIDATION_TENANTS, TRACE_SAMPLE_THREADS,
};
use allarm_core::{ExperimentConfig, ScenarioGrid};
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

fn load(name: &str) -> ScenarioGrid {
    let path = scenarios_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioGrid::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn checked_in_grids_match_the_constructors() {
    let cfg = ExperimentConfig::paper();
    assert_eq!(load("fig3_comparison.toml"), fig3_grid(&cfg));
    assert_eq!(load("fig3h_pf_sweep.toml"), fig3h_grid(&cfg));
    assert_eq!(load("fig4_multiprocess.toml"), fig4_grid(&cfg));
    assert_eq!(
        load("streamcluster_comparison.toml"),
        streamcluster_grid(&cfg)
    );
    let scale64 = ExperimentConfig::scale64();
    assert_eq!(load("scale64_comparison.toml"), scale64_grid(&scale64));
    assert_eq!(
        load("scale64_pf_sweep.toml"),
        scale64_pf_sweep_grid(&scale64)
    );
    let scale256 = ExperimentConfig::scale256();
    assert_eq!(load("scale256_comparison.toml"), scale256_grid(&scale256));
    assert_eq!(
        load("scale256_pf_sweep.toml"),
        scale256_pf_sweep_grid(&scale256)
    );
    assert_eq!(load("tracefile_source.toml"), tracefile_source_grid());
    assert_eq!(
        load("tracefile_comparison.toml"),
        tracefile_comparison_grid()
    );
    assert_eq!(
        load("tracefile_v2_comparison.toml"),
        tracefile_v2_comparison_grid()
    );
    assert_eq!(load("kv_store_comparison.toml"), kv_store_grid(&cfg));
    assert_eq!(
        load("consolidation_comparison.toml"),
        consolidation_grid(&cfg)
    );
}

/// Scenario documents from before the multi-core-node refactor carry no
/// `cores_per_node` field; they must keep parsing as one-core-per-node
/// machines so every historical grid is still byte-compatible.
#[test]
fn pre_topology_documents_default_to_one_core_per_node() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios/fig3_comparison.toml"),
    )
    .unwrap();
    let stripped: String = text
        .lines()
        .filter(|l| !l.starts_with("cores_per_node"))
        .map(|l| format!("{l}\n"))
        .collect();
    let grid = ScenarioGrid::from_toml(&stripped).unwrap();
    assert_eq!(grid.base.machine.cores_per_node.get(), 1);
    assert_eq!(grid, fig3_grid(&ExperimentConfig::paper()));
}

/// Scenario documents from before the NUCA/fabric work carry neither an
/// `llc` stanza nor `fabric`/`concentration` fields; they must keep
/// parsing as LLC-less meshes — absent is the same machine as an explicit
/// `enabled = false` stanza, so every historical grid still runs
/// byte-identically.
#[test]
fn pre_nuca_documents_default_to_no_llc_and_a_mesh_fabric() {
    let text = std::fs::read_to_string(scenarios_dir().join("fig3_comparison.toml")).unwrap();
    let mut stripped = String::new();
    let mut in_llc = false;
    for line in text.lines() {
        if line.trim() == "[base.machine.llc]" {
            in_llc = true;
            continue;
        }
        if in_llc {
            // Swallow the stanza body until the next table header.
            if line.trim_start().starts_with('[') {
                in_llc = false;
            } else {
                continue;
            }
        }
        if line.starts_with("fabric") || line.starts_with("concentration") {
            continue;
        }
        stripped.push_str(line);
        stripped.push('\n');
    }
    assert!(!stripped.contains("llc") && !stripped.contains("fabric"));
    let grid = ScenarioGrid::from_toml(&stripped).unwrap();
    assert!(!grid.base.machine.llc.enabled);
    assert_eq!(
        grid.base.machine.noc.fabric,
        allarm_types::config::FabricKind::Mesh
    );
    assert_eq!(grid.base.machine.noc.concentration.get(), 1);
    assert_eq!(grid, fig3_grid(&ExperimentConfig::paper()));
}

#[test]
fn checked_in_grids_are_valid_and_sized_as_documented() {
    let fig3 = load("fig3_comparison.toml");
    assert_eq!(fig3.len(), 16); // 8 benchmarks x 2 policies
    fig3.validate().unwrap();

    let fig3h = load("fig3h_pf_sweep.toml");
    assert_eq!(fig3h.len(), 48); // x 3 coverages
    assert_eq!(fig3h.pf_coverages, vec![512 * 1024, 256 * 1024, 128 * 1024]);
    fig3h.validate().unwrap();

    let fig4 = load("fig4_multiprocess.toml");
    assert_eq!(fig4.len(), 40); // 4 benchmarks x 5 coverages x 2 policies
    assert_eq!(fig4.base.workload.cores_required().unwrap(), 9);
    fig4.validate().unwrap();

    let streamcluster = load("streamcluster_comparison.toml");
    assert_eq!(streamcluster.len(), 2); // 1 benchmark x 2 policies
    assert_eq!(streamcluster.base.workload.label(), "streamcluster");
    streamcluster.validate().unwrap();

    let scale64 = load("scale64_comparison.toml");
    assert_eq!(scale64.len(), 6); // 3 benchmarks x 2 policies
    assert_eq!(scale64.base.machine.num_cores, 64);
    assert_eq!(scale64.base.machine.cores_per_node.get(), 4);
    assert_eq!(scale64.base.machine.num_nodes(), 16);
    scale64.validate().unwrap();

    let sweep = load("scale64_pf_sweep.toml");
    assert_eq!(sweep.len(), 8); // 4 coverages x 2 policies
    assert_eq!(sweep.pf_coverages, allarm_core::SCALE64_COVERAGES.to_vec());
    sweep.validate().unwrap();

    let scale256 = load("scale256_comparison.toml");
    assert_eq!(scale256.len(), 6); // 3 benchmarks x 2 policies
    assert_eq!(scale256.base.machine.num_cores, 256);
    assert_eq!(scale256.base.machine.num_nodes(), 64);
    assert_eq!(
        scale256.base.machine.noc.fabric,
        allarm_types::config::FabricKind::Torus
    );
    assert!(scale256.base.machine.llc.enabled);
    scale256.validate().unwrap();

    let sweep256 = load("scale256_pf_sweep.toml");
    assert_eq!(sweep256.len(), 8); // 4 coverages x 2 policies
    assert_eq!(
        sweep256.base.machine.noc.fabric,
        allarm_types::config::FabricKind::CMesh
    );
    assert_eq!(sweep256.base.machine.noc.concentration.get(), 4);
    assert_eq!(
        sweep256.pf_coverages,
        allarm_core::SCALE256_COVERAGES.to_vec()
    );
    sweep256.validate().unwrap();

    let source = load("tracefile_source.toml");
    assert_eq!(source.len(), 2); // 1 workload x 2 policies
    source.validate().unwrap();

    // The replay grid names its trace relative to the document, so resolve
    // against scenarios/ (what scenario_run does) before validating — this
    // also proves the committed sample trace exists and its header is
    // well-formed and machine-compatible.
    let mut replay = load("tracefile_comparison.toml");
    replay.base.workload = replay.base.workload.resolved_against(&scenarios_dir());
    assert_eq!(replay.len(), 2);
    replay.validate().unwrap();
    assert_eq!(replay.base.workload.label(), "blackscholes");
    assert_eq!(
        replay.base.workload.cores_required().unwrap(),
        TRACE_SAMPLE_THREADS
    );

    // The v2 replay resolves the same way; unlike the v1 grid it opens as
    // a true streaming source, and its frame directory supports prefix
    // truncation (so an `accesses` axis over it is legal).
    let mut replay_v2 = load("tracefile_v2_comparison.toml");
    replay_v2.base.workload = replay_v2.base.workload.resolved_against(&scenarios_dir());
    assert_eq!(replay_v2.len(), 2);
    replay_v2.validate().unwrap();
    assert!(replay_v2.base.workload.supports_length_override());
    assert!(replay_v2
        .base
        .workload
        .streaming_source()
        .unwrap()
        .is_some());
    assert_eq!(
        replay_v2.base.workload.cores_required().unwrap(),
        TRACE_SAMPLE_THREADS
    );

    let kv = load("kv_store_comparison.toml");
    assert_eq!(kv.len(), 2); // 1 benchmark x 2 policies
    assert_eq!(kv.base.workload.label(), "kv-store");
    kv.validate().unwrap();

    let consolidation = load("consolidation_comparison.toml");
    assert_eq!(consolidation.len(), 2); // 1 workload x 2 policies
    assert_eq!(
        consolidation.base.workload.cores_required().unwrap(),
        CONSOLIDATION_TENANTS
    );
    consolidation.validate().unwrap();
}

/// The committed sample trace must be exactly what `trace_tool record`
/// produces from the committed source grid — the round trip CI enforces
/// with a byte diff, checked here at the workload level so `cargo test`
/// catches drift too.
#[test]
fn committed_sample_trace_matches_the_source_grid() {
    let source = load("tracefile_source.toml");
    let recorded = source.base.workload.materialize(source.base.seed);

    let mut replay = load("tracefile_comparison.toml");
    replay.base.workload = replay.base.workload.resolved_against(&scenarios_dir());
    let replayed = replay.base.workload.materialize(replay.base.seed);
    assert_eq!(
        replayed, recorded,
        "scenarios/tracefile_sample.trace drifted from the generator — regenerate with \
         `trace_tool record --format binary --out scenarios/tracefile_sample.trace \
         scenarios/tracefile_source.toml`"
    );
    assert_eq!(replayed.checksum(), recorded.checksum());

    // The frame-chunked v2 sample carries the same reference stream — both
    // via full materialization and via the header-level stream checksum.
    let mut v2 = load("tracefile_v2_comparison.toml");
    v2.base.workload = v2.base.workload.resolved_against(&scenarios_dir());
    let streamed = v2.base.workload.streaming_source().unwrap().unwrap();
    assert_eq!(
        streamed.checksum(),
        recorded.checksum(),
        "scenarios/tracefile_sample_v2.btrace drifted from the generator — regenerate \
         with `trace_tool record --format binary-v2 --out \
         scenarios/tracefile_sample_v2.btrace scenarios/tracefile_source.toml`"
    );
    assert_eq!(v2.base.workload.materialize(v2.base.seed), recorded);
}
