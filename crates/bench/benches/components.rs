//! Micro-benchmarks of the simulator's building blocks: the probe-filter
//! array, a core's cache hierarchy, the mesh network and trace generation.
//! These quantify the cost of the harness itself, independent of any paper
//! figure.
//!
//! Uses the workspace's own grouped harness (`allarm-harness`) — criterion
//! is unavailable offline.

#![forbid(unsafe_code)]

use allarm_cache::{CoherenceState, CoreCaches};
use allarm_coherence::ProbeFilter;
use allarm_harness::{benchmark_main, black_box, Group};
use allarm_noc::{MessageClass, Network};
use allarm_types::addr::LineAddr;
use allarm_types::config::{MachineConfig, NocConfig, ProbeFilterConfig};
use allarm_types::ids::{CoreId, NodeId};
use allarm_workloads::{Benchmark, TraceGenerator};

fn probe_filter() {
    let mut group = Group::new("probe_filter").sample_count(10);
    group.bench("allocate_lookup_8k_entries", || {
        let mut pf = ProbeFilter::new(&ProbeFilterConfig::new(512 * 1024, 8));
        for i in 0..16_384u64 {
            pf.allocate(LineAddr::new(i), CoreId::new((i % 16) as u16));
        }
        for i in 0..16_384u64 {
            black_box(pf.lookup(LineAddr::new(i)));
        }
        black_box(pf.stats().evictions.get());
    });
    group.finish();
}

fn cache_hierarchy() {
    let cfg = MachineConfig::date2014();
    let mut group = Group::new("cache").sample_count(10);
    group.bench("fill_and_access_l2_working_set", || {
        let mut caches = CoreCaches::new(&cfg.l1d, &cfg.l2);
        for i in 0..8_192u64 {
            caches.access(LineAddr::new(i), i % 4 == 0);
            caches.fill(LineAddr::new(i), CoherenceState::Exclusive);
        }
        black_box(caches.l2_stats().misses.get());
    });
    group.finish();
}

fn network() {
    let mut group = Group::new("noc").sample_count(10);
    group.bench("send_10k_messages_4x4_mesh", || {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        for i in 0..10_000u16 {
            let src = NodeId::new(black_box(i % 16));
            let dst = NodeId::new(black_box((i * 7 + 3) % 16));
            net.send(src, dst, MessageClass::Data);
        }
        black_box(net.stats().total_bytes());
    });
    group.finish();
}

fn trace_generation() {
    let mut group = Group::new("workloads").sample_count(10);
    group.bench("generate_16x10k_ocean", || {
        let workload = TraceGenerator::new(16, 10_000, 7).generate(Benchmark::OceanContiguous);
        black_box(workload.total_accesses());
    });
    group.finish();
}

benchmark_main!(probe_filter, cache_hierarchy, network, trace_generation);
