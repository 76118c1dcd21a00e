//! On-chip network model: pluggable fabrics (mesh, torus, concentrated
//! mesh), XY routing, message accounting.
//!
//! The paper's machine connects sixteen nodes in a 4x4 mesh with 10 ns,
//! 8 GB/s links, 8-byte control messages and 72-byte data messages
//! (Table I). The network model here answers two questions for the rest of
//! the simulator:
//!
//! * **How long does a message take?** — hop count from XY routing times the
//!   link latency, plus serialisation of the message's flits over the link
//!   bandwidth ([`Network::send`] returns the latency).
//! * **How much traffic was generated?** — total and per-[`MessageClass`]
//!   byte/message/hop counters ([`NocStats`]), which feed the normalised
//!   traffic figures (Fig. 3c, Fig. 4c/4f) and the NoC dynamic-energy model.
//!
//! # Examples
//!
//! ```
//! use allarm_noc::{Network, MessageClass};
//! use allarm_types::{config::NocConfig, ids::NodeId};
//!
//! let mut net = Network::new(NocConfig::mesh(4, 4));
//! // A request from node 0 (corner) to node 15 (opposite corner): 6 hops.
//! let lat = net.send(NodeId::new(0), NodeId::new(15), MessageClass::Request);
//! assert_eq!(net.topology().hops(NodeId::new(0), NodeId::new(15)), 6);
//! assert!(lat.as_u64() >= 60);
//! assert_eq!(net.stats().total_messages(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod message;
pub mod network;
pub mod stats;
pub mod topology;

pub use message::MessageClass;
pub use network::Network;
pub use stats::{NocStats, NocStatsExport};
pub use topology::{CMesh, Coord, Fabric, Mesh, Torus};
