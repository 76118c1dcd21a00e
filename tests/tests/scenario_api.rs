//! Integration tests of the Scenario/Builder surface: serde round-trips
//! through TOML and JSON, builder validation, and the batch runner's
//! parallel-equals-serial determinism guarantee.

#![forbid(unsafe_code)]

use allarm_core::{
    AllocationPolicy, BatchRunner, JsonlSink, NumaPolicy, Scenario, ScenarioGrid, SimulationBuilder,
};
use allarm_types::ids::{CoreId, NodeId};
use allarm_workloads::{Benchmark, WorkloadSpec};

/// A scenario exercising the non-default corners of the document format:
/// multi-process workload, a newtype enum variant (`Fixed` NUMA policy),
/// and a non-default machine.
fn exotic_scenario() -> Scenario {
    let mut s = Scenario::quick_test(Benchmark::OceanNonContiguous, AllocationPolicy::Allarm);
    s.workload = WorkloadSpec::multiprocess(
        Benchmark::OceanNonContiguous,
        vec![CoreId::new(0), CoreId::new(8)],
        700,
    );
    s.numa_policy = NumaPolicy::Fixed(NodeId::new(3));
    s.machine = s.machine.with_probe_filter_coverage(128 * 1024);
    s.with_seed(99).named("exotic")
}

#[test]
fn scenario_roundtrips_through_toml() {
    for scenario in [
        Scenario::paper(Benchmark::Barnes, AllocationPolicy::Baseline),
        Scenario::quick_test(Benchmark::Blackscholes, AllocationPolicy::Allarm),
        exotic_scenario(),
    ] {
        let text = scenario.to_toml().expect("scenarios serialize to TOML");
        let parsed = Scenario::from_toml(&text)
            .unwrap_or_else(|e| panic!("reparse failed for {}: {e}\n{text}", scenario.name));
        assert_eq!(parsed, scenario, "TOML round-trip must be lossless");
    }
}

#[test]
fn scenario_roundtrips_through_json() {
    for scenario in [
        Scenario::paper(Benchmark::X264, AllocationPolicy::Allarm),
        exotic_scenario(),
    ] {
        let text = scenario.to_json();
        let parsed = Scenario::from_json(&text)
            .unwrap_or_else(|e| panic!("reparse failed for {}: {e}\n{text}", scenario.name));
        assert_eq!(parsed, scenario, "JSON round-trip must be lossless");
    }
}

#[test]
fn grid_roundtrips_through_toml() {
    let grid = ScenarioGrid::new(Scenario::quick_test(
        Benchmark::Barnes,
        AllocationPolicy::Baseline,
    ))
    .benchmarks(vec![Benchmark::Barnes, Benchmark::Dedup])
    .pf_coverages(vec![512 * 1024, 128 * 1024])
    .numa_policies(vec![NumaPolicy::FirstTouch, NumaPolicy::Interleaved])
    .policies(AllocationPolicy::ALL.to_vec());
    let text = grid.to_toml().unwrap();
    let parsed = ScenarioGrid::from_toml(&text).unwrap();
    assert_eq!(parsed, grid);
    assert_eq!(parsed.expand(), grid.expand());
}

#[test]
fn hand_written_toml_parses() {
    // A document a user would write by hand: sections in arbitrary order,
    // comments, multi-line arrays.
    let text = r#"
        # Probe-filter sizing experiment.
        name = "hand-written"
        seed = 7
        policy = "Allarm"
        numa_policy = "FirstTouch"

        [workload]
        [workload.Threads]
        benchmark = "Cholesky"
        threads = 4
        accesses_per_thread = 500

        [machine]
        num_cores = 4
        frequency_ghz = 2
        [machine.l1i]
        size_bytes = 4096
        ways = 2
        line_bytes = 64
        access_latency = 1
        [machine.l1d]
        size_bytes = 4096
        ways = 2
        line_bytes = 64
        access_latency = 1
        [machine.l2]
        size_bytes = 16384
        ways = 4
        line_bytes = 64
        access_latency = 1
        [machine.probe_filter]
        coverage_bytes = 32768
        ways = 4
        access_latency = 1
        sharer_tracking = "SharerVector"
        replacement = "Random"
        [machine.dram]
        node_capacity_bytes = 4194304
        access_latency = 60
        [machine.noc]
        mesh_x = 2
        mesh_y = 2
        flit_bytes = 4
        control_msg_bytes = 8
        data_msg_bytes = 72
        link_bandwidth_bytes_per_ns = 8
        link_latency = 10
    "#;
    let scenario = Scenario::from_toml(text).expect("hand-written scenario parses");
    assert_eq!(scenario.name, "hand-written");
    assert_eq!(scenario.policy, AllocationPolicy::Allarm);
    assert_eq!(scenario.workload.benchmark(), Some(Benchmark::Cholesky));
    scenario.validate().unwrap();
    let report = scenario.run().unwrap();
    assert!(report.total_accesses > 0);
}

#[test]
fn builder_reports_validation_errors() {
    // Machine-level: zero-set cache geometry (the divide-by-zero guard).
    let mut s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
    s.machine.l2.size_bytes = 128; // 2 lines with 4 ways
    let err = SimulationBuilder::from_scenario(&s).unwrap_err();
    assert_eq!(err.field(), "l2.ways");

    // Workload-level: more threads than cores.
    let mut s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
    s.workload = WorkloadSpec::threads(Benchmark::Barnes, 17, 100);
    let err = SimulationBuilder::from_scenario(&s).unwrap_err();
    assert_eq!(err.field(), "workload");

    // Workload-level: duplicate process cores.
    let mut s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
    s.workload =
        WorkloadSpec::multiprocess(Benchmark::Barnes, vec![CoreId::new(1), CoreId::new(1)], 100);
    let err = SimulationBuilder::from_scenario(&s).unwrap_err();
    assert!(err.reason().contains("distinct"));

    // Scenario::run surfaces the same errors instead of panicking.
    assert!(s.run().is_err());
}

#[test]
fn malformed_documents_fail_with_context() {
    let err = Scenario::from_toml("name = \"x\"\n").unwrap_err();
    assert!(err.to_string().contains("missing field"), "{err}");

    let mut s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
    s.name = "bad-policy".into();
    let text = s.to_toml().unwrap().replace("\"Baseline\"", "\"Bogus\"");
    let err = Scenario::from_toml(&text).unwrap_err();
    assert!(err.to_string().contains("Bogus"), "{err}");
}

/// The acceptance-criterion test: a grid of ≥ 8 scenarios runs in parallel
/// and produces byte-identical reports to serial execution.
#[test]
fn batch_runner_parallel_is_byte_identical_to_serial() {
    let scenarios = ScenarioGrid::new(
        Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(600),
    )
    .benchmarks(vec![
        Benchmark::Barnes,
        Benchmark::Blackscholes,
        Benchmark::OceanContiguous,
        Benchmark::X264,
    ])
    .pf_coverages(vec![512 * 1024, 128 * 1024])
    .policies(AllocationPolicy::ALL.to_vec())
    .expand();
    assert_eq!(
        scenarios.len(),
        16,
        "4 benchmarks x 2 coverages x 2 policies"
    );

    let serial = BatchRunner::with_threads(1).run(&scenarios).unwrap();
    let parallel = BatchRunner::with_threads(8).run(&scenarios).unwrap();
    assert_eq!(
        serial, parallel,
        "parallel execution must not change results"
    );

    // Byte-identical in the strictest sense: the serialized reports match.
    let mut serial_sink = JsonlSink::new();
    BatchRunner::with_threads(1)
        .run_with_sink(&scenarios, &mut serial_sink)
        .unwrap();
    let mut parallel_sink = JsonlSink::new();
    BatchRunner::with_threads(8)
        .run_with_sink(&scenarios, &mut parallel_sink)
        .unwrap();
    assert_eq!(serial_sink.into_string(), parallel_sink.into_string());
}

#[test]
fn identical_scenarios_produce_identical_reports_across_runs() {
    let scenario =
        Scenario::quick_test(Benchmark::Dedup, AllocationPolicy::Allarm).with_accesses(800);
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(a, b);
    // And through the batch runner too.
    let batch = BatchRunner::new()
        .run(std::slice::from_ref(&scenario))
        .unwrap();
    assert_eq!(batch.entries[0].report, a);
}

#[test]
fn paired_comparisons_feed_the_report_layer() {
    let grid = ScenarioGrid::new(
        Scenario::quick_test(Benchmark::OceanContiguous, AllocationPolicy::Baseline)
            .with_accesses(800),
    )
    .policies(AllocationPolicy::ALL.to_vec());
    let results = BatchRunner::new().run(&grid.expand()).unwrap();
    let pairs = results.paired();
    assert_eq!(pairs.len(), 1);
    let cmp = &pairs[0];
    assert!(cmp.speedup() > 0.0);
    assert!(cmp.normalized_evictions() <= 1.0);
    assert_eq!(results.reports().count(), 2);
}
