//! The network façade used by the directory controller and simulator.

use crate::message::MessageClass;
use crate::stats::NocStats;
use crate::topology::{Coord, Fabric};
use allarm_types::config::NocConfig;
use allarm_types::error::ConfigError;
use allarm_types::ids::NodeId;
use allarm_types::Nanos;

/// A point-to-point on-chip network with latency and traffic accounting.
///
/// Messages between a node and itself (a core talking to its own directory
/// or memory controller) traverse zero links: they cost nothing on the
/// network and add no bytes of inter-node traffic, which is exactly the
/// property ALLARM exploits for thread-local data.
///
/// # Examples
///
/// ```
/// use allarm_noc::{Network, MessageClass};
/// use allarm_types::{config::NocConfig, ids::NodeId};
///
/// let mut net = Network::new(NocConfig::mesh(2, 2));
/// let remote = net.send(NodeId::new(0), NodeId::new(3), MessageClass::Data);
/// let local = net.send(NodeId::new(1), NodeId::new(1), MessageClass::Data);
/// assert!(remote > local);
/// assert_eq!(local.as_u64(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    fabric: Fabric,
    /// Router-grid coordinates of every node, indexed by node (a CMesh
    /// node takes its router's), so a message's hop count is a coordinate
    /// difference instead of the fabric's divisions.
    routers: Vec<Coord>,
    /// The grid dimensions when both axes wrap (torus); `None` otherwise.
    wrap: Option<Coord>,
    /// Size, flits and serialisation delay of each class, by
    /// [`MessageClass::index`].
    costs: [ClassCost; MessageClass::ALL.len()],
    stats: NocStats,
}

/// What one message of a class costs, fixed by the configuration.
#[derive(Debug, Clone, Copy)]
struct ClassCost {
    bytes: u64,
    flits: u64,
    /// The message body streaming over the final link at link bandwidth.
    serialisation: Nanos,
}

impl Network {
    /// Creates a network from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero dimensions or concentration) or
    /// a zero flit size or link bandwidth; [`Network::try_new`] returns the
    /// typed error instead.
    pub fn new(config: NocConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a network from its configuration, rejecting degenerate
    /// geometry with a typed error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the fabric geometry is degenerate, or
    /// if the flit size or link bandwidth is zero.
    pub fn try_new(config: NocConfig) -> Result<Self, ConfigError> {
        let fabric = Fabric::from_config(&config)?;
        if config.flit_bytes == 0 {
            return Err(ConfigError::new("noc.flit_bytes", "must be non-zero"));
        }
        if config.link_bandwidth_bytes_per_ns == 0 {
            return Err(ConfigError::new("noc.link_bandwidth", "must be non-zero"));
        }
        // A `NodeId` is 16 bits: nodes past `u16::MAX` are unaddressable.
        let routers = (0..fabric.num_nodes())
            .map_while(|n| u16::try_from(n).ok())
            .map(|n| fabric.router_coord(NodeId::new(n)))
            .collect();
        let wrap = match fabric {
            Fabric::Torus(t) => Some(Coord {
                x: t.width(),
                y: t.height(),
            }),
            Fabric::Mesh(_) | Fabric::CMesh(_) => None,
        };
        let costs = MessageClass::ALL.map(|class| {
            let bytes = if class.carries_data() {
                config.data_msg_bytes
            } else {
                config.control_msg_bytes
            };
            ClassCost {
                bytes,
                flits: bytes.div_ceil(config.flit_bytes),
                serialisation: Nanos::new(bytes.div_ceil(config.link_bandwidth_bytes_per_ns)),
            }
        });
        Ok(Network {
            fabric,
            routers,
            wrap,
            costs,
            config,
            stats: NocStats::new(),
        })
    }

    /// The fabric the network routes over.
    pub fn topology(&self) -> &Fabric {
        &self.fabric
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Size in bytes of a message of the given class.
    pub fn message_bytes(&self, class: MessageClass) -> u64 {
        self.costs[class.index()].bytes
    }

    /// Number of flits a message of the given class occupies.
    pub fn message_flits(&self, class: MessageClass) -> u64 {
        self.costs[class.index()].flits
    }

    /// Links a message from `src` to `dst` traverses — the fabric's
    /// [`Fabric::hops`], from the precomputed router coordinates.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the fabric.
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let a = self.routers[src.index()];
        let b = self.routers[dst.index()];
        let dx = a.x.abs_diff(b.x);
        let dy = a.y.abs_diff(b.y);
        match self.wrap {
            Some(dims) => dx.min(dims.x - dx) + dy.min(dims.y - dy),
            None => dx + dy,
        }
    }

    /// Latency of a `hops`-link message of `class`: one link traversal per
    /// hop for the head, then the body's serialisation over the final
    /// link. Zero for a node-local message.
    fn latency_of(&self, hops: u32, class: MessageClass) -> Nanos {
        if hops == 0 {
            return Nanos::ZERO;
        }
        self.config.link_latency * u64::from(hops) + self.costs[class.index()].serialisation
    }

    /// Latency of a message from `src` to `dst` without recording it
    /// (useful for "what-if" critical-path calculations).
    pub fn latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        self.latency_of(self.hops(src, dst), class)
    }

    /// Sends a message, recording its traffic, and returns its latency.
    ///
    /// Node-local messages (src == dst) cross only the local network
    /// interface: they still count toward byte traffic but traverse zero
    /// links, so they add no latency and no flit-hop (link) energy.
    pub fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        let hops = self.hops(src, dst);
        let cost = self.costs[class.index()];
        self.stats.record(class, cost.bytes, hops, cost.flits);
        self.latency_of(hops, class)
    }

    /// Sends a request/response round trip (`src -> dst -> src`), recording
    /// both messages, and returns the combined latency.
    pub fn round_trip(
        &mut self,
        src: NodeId,
        dst: NodeId,
        out_class: MessageClass,
        back_class: MessageClass,
    ) -> Nanos {
        self.send(src, dst, out_class) + self.send(dst, src, back_class)
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Resets the traffic statistics (used between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::new();
    }

    /// Replaces the traffic statistics with checkpointed values (the fabric
    /// and configuration are pure functions of the machine config, so the
    /// statistics are the network's only dynamic state).
    pub fn restore_stats(&mut self, stats: NocStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NocConfig::mesh(4, 4))
    }

    #[test]
    fn control_and_data_sizes_follow_table1() {
        let n = net();
        assert_eq!(n.message_bytes(MessageClass::Request), 8);
        assert_eq!(n.message_bytes(MessageClass::Data), 72);
        assert_eq!(n.message_flits(MessageClass::Request), 2);
        assert_eq!(n.message_flits(MessageClass::Data), 18);
    }

    #[test]
    fn latency_scales_with_hops() {
        let n = net();
        let one_hop = n.latency(NodeId::new(0), NodeId::new(1), MessageClass::Request);
        let six_hops = n.latency(NodeId::new(0), NodeId::new(15), MessageClass::Request);
        // 10 ns per hop plus 1 ns serialisation of 8 bytes at 8 B/ns.
        assert_eq!(one_hop, Nanos::new(11));
        assert_eq!(six_hops, Nanos::new(61));
    }

    #[test]
    fn data_messages_take_longer_to_serialise() {
        let n = net();
        let ctrl = n.latency(NodeId::new(0), NodeId::new(1), MessageClass::Request);
        let data = n.latency(NodeId::new(0), NodeId::new(1), MessageClass::Data);
        assert_eq!(data - ctrl, Nanos::new(8)); // 72 B vs 8 B at 8 B/ns.
    }

    #[test]
    fn local_messages_are_latency_free_but_count_bytes() {
        let mut n = net();
        let lat = n.send(NodeId::new(5), NodeId::new(5), MessageClass::Data);
        assert_eq!(lat, Nanos::ZERO);
        assert_eq!(n.stats().total_bytes(), 72);
        assert_eq!(n.stats().total_hops(), 0);
        assert_eq!(n.stats().total_flit_hops(), 0);
        assert_eq!(n.stats().total_messages(), 1);
        assert_eq!(n.stats().local_deliveries(), 1);
    }

    #[test]
    fn send_records_traffic() {
        let mut n = net();
        n.send(NodeId::new(0), NodeId::new(3), MessageClass::Request);
        n.send(NodeId::new(3), NodeId::new(0), MessageClass::Data);
        assert_eq!(n.stats().total_messages(), 2);
        assert_eq!(n.stats().total_bytes(), 8 + 72);
        assert_eq!(n.stats().bytes_of(MessageClass::Data), 72);
        assert_eq!(n.stats().hops_of(MessageClass::Request), 3);
    }

    #[test]
    fn round_trip_is_sum_of_both_directions() {
        let mut n = net();
        let rt = n.round_trip(
            NodeId::new(0),
            NodeId::new(2),
            MessageClass::Request,
            MessageClass::Data,
        );
        let expected = n.latency(NodeId::new(0), NodeId::new(2), MessageClass::Request)
            + n.latency(NodeId::new(2), NodeId::new(0), MessageClass::Data);
        assert_eq!(rt, expected);
        assert_eq!(n.stats().total_messages(), 2);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut n = net();
        n.send(NodeId::new(0), NodeId::new(1), MessageClass::Request);
        n.reset_stats();
        assert_eq!(n.stats().total_messages(), 0);
    }

    #[test]
    fn config_and_topology_accessors() {
        let n = net();
        assert_eq!(n.config().mesh_x, 4);
        assert_eq!(n.topology().num_nodes(), 16);
        assert_eq!(n.topology().name(), "mesh");
    }

    #[test]
    fn degenerate_geometry_is_a_typed_error() {
        let err = Network::try_new(NocConfig::mesh(0, 4)).unwrap_err();
        assert_eq!(err.field(), "noc.mesh");
        let err = Network::try_new(NocConfig::cmesh(4, 4, 0)).unwrap_err();
        assert_eq!(err.field(), "noc.concentration");
    }

    #[test]
    fn torus_network_shortens_edge_to_edge_latency() {
        let mesh = Network::new(NocConfig::mesh(4, 4));
        let torus = Network::new(NocConfig::torus(4, 4));
        assert_eq!(torus.topology().name(), "torus");
        // Node 0 to node 3: 3 mesh hops, 1 torus hop.
        let m = mesh.latency(NodeId::new(0), NodeId::new(3), MessageClass::Request);
        let t = torus.latency(NodeId::new(0), NodeId::new(3), MessageClass::Request);
        assert_eq!(m, Nanos::new(31));
        assert_eq!(t, Nanos::new(11));
    }

    #[test]
    fn cmesh_network_makes_same_router_traffic_free() {
        let mut n = Network::new(NocConfig::cmesh(2, 2, 4));
        assert_eq!(n.topology().num_nodes(), 16);
        // Nodes 0 and 3 share router 0: zero hops, but bytes still count.
        let lat = n.send(NodeId::new(0), NodeId::new(3), MessageClass::Data);
        assert_eq!(lat, Nanos::ZERO);
        assert_eq!(n.stats().total_bytes(), 72);
        assert_eq!(n.stats().total_hops(), 0);
    }
    /// The latency formula [`Network::send`] has always implemented,
    /// spelled out from the fabric's closed-form hop count: one link
    /// latency per hop plus the body's serialisation at link bandwidth,
    /// zero for a node-local message.
    fn reference_latency(config: &NocConfig, hops: u32, bytes: u64) -> Nanos {
        if hops == 0 {
            return Nanos::ZERO;
        }
        config.link_latency * u64::from(hops)
            + Nanos::new(bytes.div_ceil(config.link_bandwidth_bytes_per_ns))
    }

    /// Every `(src, dst, class)` of a fabric: `send`'s latency, `latency`,
    /// and the traffic `send` records all match the closed form.
    fn assert_matches_closed_form(config: NocConfig) {
        let fabric = Fabric::from_config(&config).unwrap();
        let mut net = Network::new(config);
        let n = fabric.num_nodes() as u16;
        for src in (0..n).map(NodeId::new) {
            for dst in (0..n).map(NodeId::new) {
                for class in MessageClass::ALL {
                    let hops = fabric.hops(src, dst);
                    let bytes = if class.carries_data() {
                        config.data_msg_bytes
                    } else {
                        config.control_msg_bytes
                    };
                    let flits = bytes.div_ceil(config.flit_bytes);
                    let expected = reference_latency(&config, hops, bytes);
                    let what = format!("{} {src}->{dst} {class}", fabric.name());
                    assert_eq!(net.latency(src, dst, class), expected, "{what}");
                    let before = net.stats().clone();
                    assert_eq!(net.send(src, dst, class), expected, "{what}");
                    let after = net.stats();
                    assert_eq!(after.total_messages(), before.total_messages() + 1);
                    assert_eq!(after.messages_of(class), before.messages_of(class) + 1);
                    assert_eq!(
                        after.bytes_of(class),
                        before.bytes_of(class) + bytes,
                        "{what}"
                    );
                    assert_eq!(
                        after.hops_of(class),
                        before.hops_of(class) + u64::from(hops),
                        "{what}"
                    );
                    assert_eq!(
                        after.total_flit_hops(),
                        before.total_flit_hops() + flits * u64::from(hops),
                        "{what}"
                    );
                    assert_eq!(
                        after.local_deliveries(),
                        before.local_deliveries() + u64::from(hops == 0),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn send_and_latency_match_the_closed_form_on_every_fabric() {
        assert_matches_closed_form(NocConfig::mesh(4, 4));
        assert_matches_closed_form(NocConfig::torus(8, 8));
        assert_matches_closed_form(NocConfig::mesh(5, 3));
        assert_matches_closed_form(NocConfig::torus(5, 3));
        assert_matches_closed_form(NocConfig::cmesh(4, 2, 4));
        // Sizes that do not divide evenly into flits or bandwidth, so
        // every rounding in the formula is exercised.
        let odd = NocConfig {
            flit_bytes: 5,
            control_msg_bytes: 11,
            data_msg_bytes: 67,
            link_bandwidth_bytes_per_ns: 3,
            link_latency: Nanos::new(7),
            ..NocConfig::cmesh(3, 2, 3)
        };
        assert_matches_closed_form(odd);
    }
}
