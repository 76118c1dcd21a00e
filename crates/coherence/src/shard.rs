//! Per-shard directory slices and the cross-shard coherence message
//! boundary.
//!
//! The parallel simulation kernel partitions the machine by home node. A
//! [`DirectoryShard`] owns the directory controllers (and their probe
//! filters and occupancy clocks) of one contiguous block of home nodes;
//! everything a core wants from a directory crosses the shard boundary as
//! an explicit, timestamped [`CoherenceEvent`]. Each shard drains its
//! event queue in the deterministic `(timestamp, source core, sequence)`
//! order defined by [`allarm_engine::MergeKey`], so the protocol-visible
//! order of transactions at every directory — and therefore every counter
//! and latency in the final report — is independent of how many shards
//! (OS threads) the simulation runs on.
//!
//! Determinism across shard *counts* additionally relies on a structural
//! property of the protocol: every cache line has exactly one home node, and
//! a directory only ever touches cache state for lines it homes. Two shards
//! working concurrently therefore never operate on the same line, and their
//! per-cache side effects (line-local probe state changes plus monotonic
//! counters) commute.

use crate::controller::{DirectoryController, SystemAccess};
use crate::policy::AllocationPolicy;
use crate::request::CoherenceRequest;
use allarm_cache::CoherenceState;
use allarm_engine::MergeKey;
use allarm_types::addr::LineAddr;
use allarm_types::config::ProbeFilterConfig;
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::Nanos;
use std::ops::Range;

/// Time a directory controller is occupied by one coherence transaction
/// (tag pipeline, protocol state machine and response scheduling), excluding
/// the per-message work of probe-filter eviction processing which is charged
/// separately.
pub const DIRECTORY_SERVICE_TIME: Nanos = Nanos(12);

/// Controller time charged per coherence message sent while processing a
/// probe-filter eviction (back-invalidations, acks, writebacks).
pub const EVICTION_MESSAGE_TIME: Nanos = Nanos(4);

/// Controller time charged per probe-filter eviction on top of its
/// messages (victim selection and entry teardown).
pub const EVICTION_BASE_TIME: Nanos = Nanos(8);

/// How many events ahead of the one being processed the directory phase
/// prefetches a probe-filter set. On large machines the filters are far
/// bigger than the host's caches, so nearly every set scan stalls on host
/// memory; hinting the set of event *i + 4* while event *i* runs overlaps
/// those stalls. Four is the distance measured on the 256-core machine
/// (README, Performance). It changes host speed only, never a result.
const PF_PREFETCH_DISTANCE: usize = 4;

/// One unit of work crossing the shard boundary toward a home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceOp {
    /// A core's coherence request (miss or upgrade) for a line homed on the
    /// destination shard.
    Request {
        /// The request itself (line, kind, requester).
        request: CoherenceRequest,
        /// When the request reaches the home directory: the issuing core's
        /// clock plus its private-hierarchy latency.
        arrival: Nanos,
    },
    /// Notification that a core dropped its copy of a line (an L2 capacity
    /// victim): a dirty writeback or a clean eviction notice.
    EvictNotice {
        /// The line displaced out of the core's private hierarchy.
        line: LineAddr,
        /// The core that lost the line.
        core: CoreId,
        /// True if the victim held dirty data that must be written back.
        dirty: bool,
    },
}

impl CoherenceOp {
    /// The cache line the operation is about.
    pub(crate) fn line(&self) -> LineAddr {
        match *self {
            CoherenceOp::Request { request, .. } => request.line,
            CoherenceOp::EvictNotice { line, .. } => line,
        }
    }
}

/// A timestamped coherence message bound for a home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceEvent {
    /// The home node whose directory must process this event.
    pub home: NodeId,
    /// Deterministic processing order: `(timestamp, source core, seq)`.
    pub key: MergeKey,
    /// The work to perform.
    pub op: CoherenceOp,
}

/// What the home directory sends back to a requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceReply {
    /// The core the reply is for.
    pub core: CoreId,
    /// The [`MergeKey`] of the request this reply answers. A core holding
    /// several outstanding misses commits its replies in this (total,
    /// thread-count-independent) order.
    pub key: MergeKey,
    /// Latency added on top of the core's private-hierarchy walk: the time
    /// spent queued behind earlier transactions at the controller plus the
    /// transaction's own critical path.
    pub latency: Nanos,
    /// The MOESI state the requester installs the line in.
    pub fill_state: CoherenceState,
    /// True if the reply carries data (fill); false for an upgrade grant.
    pub carries_data: bool,
}

/// The checkpointed state of one home node's directory: its controller
/// (probe filter + counters) and its occupancy clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryNodeState {
    /// The controller's dynamic state.
    pub controller: crate::controller::DirectoryControllerState,
    /// The controller occupancy clock (queueing model).
    pub busy_until: Nanos,
}

/// The directory slice of one shard: the controllers, probe filters and
/// occupancy clocks of a contiguous block of home nodes.
///
/// # Examples
///
/// ```
/// use allarm_coherence::{AllocationPolicy, DirectoryShard};
/// use allarm_types::config::ProbeFilterConfig;
/// use allarm_types::ids::NodeId;
///
/// let shard = DirectoryShard::new(
///     4..8,
///     &ProbeFilterConfig::new(4096, 4),
///     AllocationPolicy::Allarm,
/// );
/// assert!(shard.owns(NodeId::new(5)));
/// assert!(!shard.owns(NodeId::new(3)));
/// assert_eq!(shard.controllers().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DirectoryShard {
    first_node: usize,
    controllers: Vec<DirectoryController>,
    /// Per-home-node controller occupancy: a request arriving while the
    /// controller is still working on earlier transactions (including
    /// probe-filter eviction back-invalidations) queues behind them.
    busy_until: Vec<Nanos>,
}

impl DirectoryShard {
    /// Creates the directory slice for home nodes `nodes`, all using the
    /// same probe-filter configuration and allocation policy, on a
    /// one-core-per-node machine.
    pub fn new(nodes: Range<usize>, config: &ProbeFilterConfig, policy: AllocationPolicy) -> Self {
        DirectoryShard::hierarchical(nodes, config, policy, 1)
    }

    /// Creates the directory slice for a machine hosting `cores_per_node`
    /// cores on each NUMA node (two-level probe filters; see
    /// [`DirectoryController::hierarchical`]).
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_node` is zero.
    pub fn hierarchical(
        nodes: Range<usize>,
        config: &ProbeFilterConfig,
        policy: AllocationPolicy,
        cores_per_node: u32,
    ) -> Self {
        DirectoryShard {
            first_node: nodes.start,
            controllers: nodes
                .clone()
                .map(|n| {
                    DirectoryController::hierarchical(
                        NodeId::new(n as u16),
                        config,
                        policy,
                        cores_per_node,
                    )
                })
                .collect(),
            busy_until: vec![Nanos::ZERO; nodes.len()],
        }
    }

    /// True if this shard's slice contains `node`'s directory.
    pub fn owns(&self, node: NodeId) -> bool {
        let n = node.index();
        n >= self.first_node && n < self.first_node + self.controllers.len()
    }

    /// The controllers of this slice, in home-node order.
    pub fn controllers(&self) -> &[DirectoryController] {
        &self.controllers
    }

    /// Consumes the shard, returning its controllers in home-node order
    /// (for end-of-run statistics merging).
    pub fn into_controllers(self) -> Vec<DirectoryController> {
        self.controllers
    }

    /// Exports the complete dynamic state of this slice: each controller
    /// (probe filter + counters) and its occupancy clock, in home-node
    /// order starting at the slice's first node.
    pub fn export_state(&self) -> Vec<DirectoryNodeState> {
        self.controllers
            .iter()
            .zip(&self.busy_until)
            .map(|(c, &busy)| DirectoryNodeState {
                controller: c.export_state(),
                busy_until: busy,
            })
            .collect()
    }

    /// Restores the state of the directory homed on `node`, which must be
    /// owned by this slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside this slice or the probe-filter geometry
    /// does not match.
    pub fn restore_node_state(&mut self, node: NodeId, state: &DirectoryNodeState) {
        assert!(
            self.owns(node),
            "restore for node {} routed to shard {}..{}",
            node.index(),
            self.first_node,
            self.first_node + self.controllers.len(),
        );
        let idx = node.index() - self.first_node;
        self.controllers[idx].restore_state(&state.controller);
        self.busy_until[idx] = state.busy_until;
    }

    /// Drains a batch of events through this shard's directories, in
    /// deterministic [`MergeKey`] order, and appends the replies owed to
    /// requesting cores (in the same order) to `replies` — a buffer the
    /// caller keeps across rounds, so a round allocates nothing.
    ///
    /// The batch may arrive unsorted (it is typically concatenated from
    /// several source shards); sorting happens here so no caller can
    /// accidentally feed a nondeterministic order. The sort is unstable,
    /// which cannot change the order: every event carries a distinct key
    /// (the key names its issuing core and that core's own sequence
    /// number), so the keys alone fix the order.
    ///
    /// # Panics
    ///
    /// Panics if an event's home node is outside this shard's slice.
    pub fn process(
        &mut self,
        events: &mut [CoherenceEvent],
        sys: &mut dyn SystemAccess,
        replies: &mut Vec<CoherenceReply>,
    ) {
        events.sort_unstable_by_key(|e| e.key);
        for event in events.iter().take(PF_PREFETCH_DISTANCE) {
            self.prefetch(event);
        }
        for (i, &event) in events.iter().enumerate() {
            if let Some(ahead) = events.get(i + PF_PREFETCH_DISTANCE) {
                self.prefetch(ahead);
            }
            assert!(
                self.owns(event.home),
                "event for node {} routed to shard {}..{}",
                event.home.index(),
                self.first_node,
                self.first_node + self.controllers.len(),
            );
            let idx = event.home.index() - self.first_node;
            match event.op {
                CoherenceOp::Request { request, arrival } => {
                    replies.push(self.handle_request(idx, request, arrival, event.key, sys));
                }
                CoherenceOp::EvictNotice { line, core, dirty } => {
                    // Writebacks retire in the background; their latency is
                    // not on any core's critical path.
                    self.controllers[idx].note_cache_eviction(line, core, dirty, sys);
                }
            }
        }
    }

    /// Hints the host CPU to load the probe-filter set `event` will scan.
    /// An event for a node outside this slice is skipped here; `process`
    /// rejects it when its turn comes.
    fn prefetch(&self, event: &CoherenceEvent) {
        if self.owns(event.home) {
            self.controllers[event.home.index() - self.first_node]
                .probe_filter()
                .prefetch(event.op.line());
        }
    }

    /// One request transaction: the protocol flow plus the controller-
    /// occupancy model. The back-invalidation work of probe-filter
    /// evictions keeps the controller busy for every message it has to send
    /// and collect, which is how eviction pressure degrades every later
    /// request to the same directory.
    fn handle_request(
        &mut self,
        idx: usize,
        request: CoherenceRequest,
        arrival: Nanos,
        key: MergeKey,
        sys: &mut dyn SystemAccess,
    ) -> CoherenceReply {
        let dir = &mut self.controllers[idx];
        let evictions_before = dir.stats().pf_evictions.get();
        let messages_before = dir.stats().eviction_messages.get();
        let response = dir.handle_request(request, sys);

        let queue_delay = self.busy_until[idx].saturating_sub(arrival);
        let eviction_work = EVICTION_MESSAGE_TIME
            * (dir.stats().eviction_messages.get() - messages_before)
            + EVICTION_BASE_TIME * (dir.stats().pf_evictions.get() - evictions_before);
        let service = DIRECTORY_SERVICE_TIME + eviction_work;
        self.busy_until[idx] = arrival + queue_delay + service;

        CoherenceReply {
            core: request.requester,
            key,
            latency: queue_delay + response.latency,
            fill_state: response.fill_state,
            carries_data: request.kind.needs_data(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use allarm_cache::{CoreCaches, ProbeOutcome};
    use allarm_noc::{MessageClass, Network};
    use allarm_types::config::{MachineConfig, NocConfig};

    /// A miniature 4-core machine backing the shard under test.
    struct MiniSystem {
        caches: Vec<CoreCaches>,
        network: Network,
        dram_accesses: u64,
    }

    impl MiniSystem {
        fn new() -> Self {
            let cfg = MachineConfig::small_test();
            MiniSystem {
                caches: (0..4).map(|_| CoreCaches::new(&cfg.l1d, &cfg.l2)).collect(),
                network: Network::new(NocConfig::mesh(2, 2)),
                dram_accesses: 0,
            }
        }
    }

    impl SystemAccess for MiniSystem {
        fn probe_cache(
            &mut self,
            core: CoreId,
            line: LineAddr,
            downgrade: bool,
            invalidate: bool,
        ) -> ProbeOutcome {
            self.caches[core.index()].probe(line, downgrade, invalidate)
        }
        fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
            self.network.send(src, dst, class)
        }
        fn message_latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
            self.network.latency(src, dst, class)
        }
        fn dram_read(&mut self, _node: NodeId) -> Nanos {
            self.dram_accesses += 1;
            Nanos::new(60)
        }
        fn dram_write(&mut self, _node: NodeId) -> Nanos {
            self.dram_accesses += 1;
            Nanos::new(60)
        }
        fn node_of_core(&self, core: CoreId) -> NodeId {
            NodeId::new(core.raw())
        }
        fn local_core_of(&self, node: NodeId) -> CoreId {
            CoreId::new(node.raw())
        }
        fn num_cores(&self) -> usize {
            self.caches.len()
        }
        fn cache_access_latency(&self) -> Nanos {
            Nanos::new(1)
        }
    }

    fn request_event(home: u16, line: u64, core: u16, time: u64, seq: u32) -> CoherenceEvent {
        CoherenceEvent {
            home: NodeId::new(home),
            key: MergeKey::new(Nanos::new(time), u32::from(core), seq),
            op: CoherenceOp::Request {
                request: CoherenceRequest::new(
                    LineAddr::new(line),
                    RequestKind::GetS,
                    CoreId::new(core),
                    NodeId::new(core),
                ),
                arrival: Nanos::new(time),
            },
        }
    }

    /// Runs `events` through `shard`, returning the replies.
    fn process(
        shard: &mut DirectoryShard,
        events: &mut [CoherenceEvent],
        sys: &mut MiniSystem,
    ) -> Vec<CoherenceReply> {
        let mut replies = Vec::new();
        shard.process(events, sys, &mut replies);
        replies
    }

    fn shard(nodes: Range<usize>) -> DirectoryShard {
        DirectoryShard::new(
            nodes,
            &ProbeFilterConfig::new(4096, 4),
            AllocationPolicy::Baseline,
        )
    }

    #[test]
    fn events_are_processed_in_merge_key_order_regardless_of_arrival() {
        // Two orderings of the same batch must leave identical state.
        let mut batch = vec![
            request_event(0, 100, 2, 50, 0),
            request_event(1, 201, 3, 10, 0),
            request_event(0, 100, 1, 10, 1),
            request_event(1, 201, 1, 10, 0),
        ];
        let mut reversed = batch.clone();
        reversed.reverse();

        let mut sys_a = MiniSystem::new();
        let mut shard_a = shard(0..2);
        let replies_a = process(&mut shard_a, &mut batch, &mut sys_a);

        let mut sys_b = MiniSystem::new();
        let mut shard_b = shard(0..2);
        let replies_b = process(&mut shard_b, &mut reversed, &mut sys_b);

        assert_eq!(replies_a, replies_b);
        assert_eq!(sys_a.dram_accesses, sys_b.dram_accesses);
        for (a, b) in shard_a.controllers().iter().zip(shard_b.controllers()) {
            assert_eq!(a.stats(), b.stats());
        }
        // (time, core, seq) orders core 1's time-10 events first, so core
        // 2's identical-line request at time 50 sees the allocated entry.
        assert_eq!(replies_a[0].core, CoreId::new(1));
        assert_eq!(replies_a.len(), 4);
    }

    #[test]
    fn queueing_charges_requests_behind_controller_occupancy() {
        // Two requests to the same controller at the same arrival time: the
        // second queues behind the first's service time. The control run
        // spaces the arrivals far apart, so the latency difference between
        // the two runs is exactly the queueing delay.
        let mut sys = MiniSystem::new();
        let mut s = shard(0..1);
        let queued = process(
            &mut s,
            &mut [
                request_event(0, 100, 1, 10, 0),
                request_event(0, 164, 2, 10, 0),
            ],
            &mut sys,
        );

        let mut sys = MiniSystem::new();
        let mut s = shard(0..1);
        let spaced = process(
            &mut s,
            &mut [
                request_event(0, 100, 1, 10, 0),
                request_event(0, 164, 2, 10_000, 0),
            ],
            &mut sys,
        );

        assert_eq!(queued.len(), 2);
        assert_eq!(queued[0], spaced[0]);
        assert_eq!(
            queued[1].latency,
            spaced[1].latency + DIRECTORY_SERVICE_TIME,
            "the back-to-back request must absorb the first's service time"
        );
    }

    #[test]
    fn evict_notices_free_directory_entries_without_replies() {
        let mut sys = MiniSystem::new();
        let mut s = shard(0..1);
        let replies = process(&mut s, &mut [request_event(0, 100, 1, 10, 0)], &mut sys);
        assert_eq!(replies.len(), 1);
        assert!(s.controllers()[0]
            .probe_filter()
            .peek(LineAddr::new(100))
            .is_some());

        let notice = CoherenceEvent {
            home: NodeId::new(0),
            key: MergeKey::new(Nanos::new(20), 1, 1),
            op: CoherenceOp::EvictNotice {
                line: LineAddr::new(100),
                core: CoreId::new(1),
                dirty: false,
            },
        };
        let replies = process(&mut s, &mut [notice], &mut sys);
        assert!(replies.is_empty());
        assert!(s.controllers()[0]
            .probe_filter()
            .peek(LineAddr::new(100))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "routed to shard")]
    fn misrouted_events_are_rejected() {
        let mut sys = MiniSystem::new();
        process(
            &mut shard(0..2),
            &mut [request_event(3, 1, 1, 0, 0)],
            &mut sys,
        );
    }
}
