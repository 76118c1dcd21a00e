//! Isolated per-layer costs, measured from outside by timing calls into each
//! layer's public functions on a workload's own inputs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use allarm_cache::{AccessOutcome, CoherenceState, CoreCaches};
use allarm_coherence::ProbeFilter;
use allarm_core::MachineConfig;
use allarm_engine::{merge_events, Keyed, MergeKey, PhaseBarrier, StreamRng};
use allarm_noc::{MessageClass, Network};
use allarm_types::addr::{LineAddr, LINES_PER_PAGE, LINE_BYTES};
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::Nanos;
use allarm_workloads::{TraceSource, Workload};

/// L2 misses kept per workload for the probe-filter and NoC timings; enough
/// for a steady per-operation cost without holding a whole miss stream.
const MISS_SAMPLE: usize = 200_000;

/// One L2 miss of the cache replay: the requesting core and the line.
#[derive(Debug, Clone, Copy)]
pub struct Miss {
    core: u16,
    line: LineAddr,
}

/// Outcome of replaying a workload through private cache hierarchies.
#[derive(Debug, Default)]
pub struct CacheReplay {
    /// Accesses replayed.
    pub accesses: u64,
    /// L1 hits the replay saw.
    pub l1_hits: u64,
    /// L2 misses the replay saw.
    pub l2_misses: u64,
    /// Host seconds spent inside `CoreCaches::access` and `fill`.
    pub secs: f64,
    /// The first [`MISS_SAMPLE`] misses.
    pub misses: Vec<Miss>,
}

impl CacheReplay {
    /// Adds another replay's counts and time.
    pub fn absorb(&mut self, other: CacheReplay) {
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.l2_misses += other.l2_misses;
        self.secs += other.secs;
        let room = MISS_SAMPLE.saturating_sub(self.misses.len());
        self.misses.extend(other.misses.into_iter().take(room));
    }
}

/// Replays each thread's stream through its own `CoreCaches`, filling on a
/// miss (Modified for a store, Exclusive for a load). Lines are virtual,
/// and nothing invalidates, so the counts approximate the kernel's; they
/// are reported beside the kernel's so the fit shows.
pub fn cache_replay(machine: &MachineConfig, workload: &Workload) -> CacheReplay {
    let mut replay = CacheReplay::default();
    for thread in &workload.threads {
        let mut caches = CoreCaches::new(&machine.l1d, &machine.l2);
        let core = thread.core.raw();
        let start = Instant::now();
        for access in &thread.accesses {
            let line = LineAddr::new(access.vaddr.raw() / LINE_BYTES);
            match caches.access(line, access.write) {
                AccessOutcome::L1Hit => replay.l1_hits += 1,
                AccessOutcome::L2Hit => {}
                AccessOutcome::Miss => {
                    replay.l2_misses += 1;
                    let state = if access.write {
                        CoherenceState::Modified
                    } else {
                        CoherenceState::Exclusive
                    };
                    caches.fill(line, state);
                    black_box(caches.take_capacity_victims());
                    if replay.misses.len() < MISS_SAMPLE {
                        replay.misses.push(Miss { core, line });
                    }
                }
            }
        }
        replay.secs += start.elapsed().as_secs_f64();
        replay.accesses += thread.accesses.len() as u64;
    }
    replay
}

/// Host ns per probe-filter operation: every sampled miss line is looked up
/// and, when absent, allocated, in one filter of the machine's geometry.
pub fn pf_op_ns(machine: &MachineConfig, misses: &[Miss]) -> f64 {
    let mut pf = ProbeFilter::hierarchical(&machine.probe_filter, machine.cores_per_node.get());
    let mut ops = 0u64;
    let start = Instant::now();
    for miss in misses {
        ops += 1;
        if pf.lookup(miss.line).is_none() {
            ops += 1;
            black_box(pf.allocate(miss.line, CoreId::new(miss.core)));
        }
    }
    per_op_ns(start, ops)
}

/// Host ns per `Network::send` on the machine's fabric: a request from the
/// missing core's node to the line's page-interleaved home and the data
/// reply back, for every sampled miss.
pub fn noc_send_ns(machine: &MachineConfig, misses: &[Miss]) -> f64 {
    let mut net = Network::new(machine.noc);
    let nodes = machine.num_nodes() as u64;
    let cores_per_node = machine.cores_per_node.get() as u16;
    let mut total = Nanos::ZERO;
    let start = Instant::now();
    for miss in misses {
        let src = NodeId::new(miss.core / cores_per_node);
        let home = NodeId::new((miss.line.raw() / LINES_PER_PAGE % nodes) as u16);
        total += net.send(src, home, MessageClass::Request);
        total += net.send(home, src, MessageClass::Data);
    }
    black_box(total);
    per_op_ns(start, 2 * misses.len() as u64)
}

/// Drains every thread of a v2 trace through `open_thread` + `get`.
/// Returns `(ns per access, accesses)`.
///
/// # Errors
///
/// Returns the trace error of opening the file or a thread.
pub fn decode_drain(path: &Path) -> Result<(f64, u64), String> {
    let source = TraceSource::open(path).map_err(|e| e.to_string())?;
    let mut accesses = 0u64;
    let start = Instant::now();
    for (index, thread) in source.threads().iter().enumerate() {
        let mut feed = source.open_thread(index, 0).map_err(|e| e.to_string())?;
        for record in 0..thread.accesses as usize {
            black_box(feed.get(record));
        }
        accesses += thread.accesses;
    }
    Ok((per_op_ns(start, accesses), accesses))
}

/// Host ns per `PhaseBarrier::wait` crossing with `threads` participants.
pub fn barrier_ns(threads: usize, crossings: u64) -> f64 {
    let barrier = PhaseBarrier::new(threads);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..crossings {
                    barrier.wait();
                }
            });
        }
    });
    per_op_ns(start, crossings)
}

/// Host ns per event of `merge_events` over `shards` batches holding
/// `events_per_round` events in total, repeated until about `events`
/// events were merged. Keys are drawn from `seed`.
pub fn merge_ns_per_event(events_per_round: usize, shards: usize, events: usize, seed: u64) -> f64 {
    let per_round = events_per_round.max(1);
    let rounds = (events / per_round).max(1);
    let mut rng = StreamRng::from_seed(seed);
    let mut secs = 0.0;
    for _ in 0..rounds {
        let batches: Vec<Vec<Keyed<u64>>> = (0..shards)
            .map(|shard| {
                (shard..per_round)
                    .step_by(shards)
                    .map(|i| {
                        let key = MergeKey::new(Nanos::new(rng.below(4096)), i as u32, 0);
                        Keyed::new(key, i as u64)
                    })
                    .collect()
            })
            .collect();
        let start = Instant::now();
        black_box(merge_events(batches));
        secs += start.elapsed().as_secs_f64();
    }
    secs * 1e9 / (rounds * per_round) as f64
}

fn per_op_ns(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}
