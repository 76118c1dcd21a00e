//! NUMA memory subsystem: page allocation policies, DRAM and memory
//! controllers.
//!
//! This crate is the stand-in for the Linux NUMA memory allocator and the
//! per-node memory controllers of the paper's simulated machine. It answers
//! two questions for the simulator:
//!
//! 1. *Where does a virtual page live?* — [`NumaAllocator`] implements
//!    first-touch (the Linux default the paper relies on), next-touch,
//!    interleaved and fixed-node policies at 4 KiB page granularity,
//!    including the fall-back to a remote node when the preferred node's
//!    DRAM slice is full.
//! 2. *What does it cost to fetch a line from memory?* — [`DramModel`]
//!    charges the configured access latency and counts reads/writes per
//!    node.
//!
//! # Examples
//!
//! ```
//! use allarm_mem::{NumaAllocator, NumaPolicy};
//! use allarm_types::{config::DramConfig, ids::NodeId, addr::VirtAddr};
//!
//! // 4 nodes, first-touch allocation.
//! let mut numa = NumaAllocator::new(4, DramConfig::new(1 << 20, 60), NumaPolicy::FirstTouch);
//! // Thread on node 2 touches a page first: the page is homed on node 2.
//! let frame = numa.translate(VirtAddr::new(0x1000), NodeId::new(2));
//! assert_eq!(frame.home, NodeId::new(2));
//! // Later touches from other nodes keep the existing mapping.
//! let again = numa.translate(VirtAddr::new(0x1010), NodeId::new(0));
//! assert_eq!(again.home, NodeId::new(2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod allocator;
pub mod dram;
pub mod policy;

pub use allocator::{Frame, NumaAllocator, NumaAllocatorState, NumaStats, PageEntryState};
pub use dram::{DramModel, DramStats};
pub use policy::NumaPolicy;
