//! Every metric the benchmark prints: name, unit, direction and, for a
//! per-layer metric, the end-to-end metric it should move and on which
//! workload (on the other workloads the prediction is no change).
//! `BENCHMARK.json` lists the same names and units; a test keeps them equal.

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed. `s` and `ms` are host time unless the name says
    /// otherwise; the benchmark prints no simulated time.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metric a change in this layer metric should move.
    pub moves: &'static str,
    /// Workload(s) on which it should move it.
    pub on: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves: "",
        on: "",
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// End-to-end metrics, printed by an untraced run (host time throughout).
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_maccess_per_s", "Maccess/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

const ALL: &str = "all";
const FIG3: &str = "fig3_grid";
const SCALE: &str = "scale256_sharded";
const KV: &str = "kv_stream_ckpt";
const SIM: &str = "sim_maccess_per_s";
/// Layers that work only with several host threads: the timed iterations
/// run on one, so these move no end-to-end metric of this benchmark.
const MULTI: &str = "none (timed on one host thread)";

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: [Metric; 42] = [
    l("scenario.parse_ms", "ms", "lower", "setup_s", FIG3),
    l("builder.build_ms", "ms", "lower", "setup_s", ALL),
    l(
        "workloads.generate_s",
        "s",
        "lower",
        "setup_s (wall_s on fig3_grid)",
        "scale256_sharded, kv_stream_ckpt, fig3_grid",
    ),
    l("workloads.record_s", "s", "lower", "setup_s", KV),
    l("workloads.decode_ns_per_access", "ns", "lower", SIM, KV),
    l("workloads.frames", "count", "lower", SIM, KV),
    l(
        "workloads.materialized_mib",
        "MiB",
        "lower",
        "peak_rss_mib",
        "fig3_grid, scale256_sharded",
    ),
    l("cache.l1_hit_ratio", "ratio", "higher", SIM, FIG3),
    l("cache.l2_miss_ratio", "ratio", "lower", SIM, SCALE),
    l("cache.access_ns", "ns", "lower", SIM, FIG3),
    l("cache.replay_l1_hit_ratio", "ratio", "higher", SIM, FIG3),
    l("cache.replay_l2_miss_ratio", "ratio", "lower", SIM, FIG3),
    l("cache.llc_hits", "count", "higher", SIM, SCALE),
    l("cache.llc_misses", "count", "lower", SIM, SCALE),
    l("coherence.dir_requests", "count", "lower", SIM, ALL),
    l("coherence.remote_frac", "ratio", "lower", SIM, KV),
    l("coherence.pf_evictions", "count", "lower", SIM, FIG3),
    l("coherence.eviction_messages", "count", "lower", SIM, FIG3),
    l("coherence.allarm_skips", "count", "higher", SIM, FIG3),
    l("coherence.local_probes", "count", "lower", SIM, FIG3),
    l(
        "coherence.pf_op_ns",
        "ns",
        "lower",
        SIM,
        "scale256_sharded, fig3_grid Baseline rows",
    ),
    l("noc.messages", "count", "lower", SIM, SCALE),
    l("noc.bytes", "bytes", "lower", SIM, SCALE),
    l("noc.send_ns", "ns", "lower", SIM, SCALE),
    l("mem.dram_reads", "count", "lower", SIM, ALL),
    l("mem.dram_writes", "count", "lower", SIM, ALL),
    l("engine.rounds", "count", "lower", SIM, SCALE),
    l("engine.events_per_round", "count", "higher", SIM, SCALE),
    l("engine.barrier_ns", "ns", "lower", MULTI, SCALE),
    l("engine.merge_ns_per_event", "ns", "lower", SIM, SCALE),
    l("kernel.run_s", "s", "lower", "wall_s", ALL),
    l("kernel.ns_per_dir_request", "ns", "lower", SIM, ALL),
    l("kernel.unattributed_s", "s", "lower", SIM, ALL),
    l("kernel.shard_speedup", "ratio", "higher", MULTI, SCALE),
    l("batch.efficiency", "ratio", "higher", MULTI, FIG3),
    l("batch.rows_failed", "count", "lower", "wall_s", FIG3),
    l("snapshot.count", "count", "lower", "wall_s", KV),
    l("snapshot.bytes", "bytes", "lower", "wall_s", KV),
    l("snapshot.encode_ms", "ms", "lower", "wall_s", KV),
    l("snapshot.decode_ms", "ms", "lower", "wall_s", KV),
    l("snapshot.resume_s", "s", "lower", "wall_s", KV),
    l("trace.overhead_s", "s", "lower", "none", ALL),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Seq(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| match item.get(f) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("`{key}` entry field `{f}` is {other:?}"),
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
