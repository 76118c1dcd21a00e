//! Common vocabulary types for the ALLARM coherence-simulator workspace.
//!
//! This crate defines the identifiers, physical/virtual address newtypes,
//! simulated-time arithmetic, machine configuration and error types shared by
//! every other crate in the workspace. It contains no simulation logic of its
//! own.
//!
//! # Examples
//!
//! ```
//! use allarm_types::config::MachineConfig;
//!
//! // The configuration from Table I of the DATE 2014 paper.
//! let machine = MachineConfig::date2014();
//! assert_eq!(machine.num_cores, 16);
//! assert_eq!(machine.noc.mesh_x * machine.noc.mesh_y, 16);
//! machine.validate().expect("the paper configuration is valid");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod config;
pub mod error;
pub mod ids;
pub mod stats;
pub mod time;
pub mod topology;

pub use addr::{LineAddr, PageAddr, PhysAddr, VirtAddr};
pub use config::{
    CacheConfig, CoresPerNode, DramConfig, MachineConfig, MissWindowConfig, NocConfig,
    PfReplacement, ProbeFilterConfig, SharerTracking,
};
pub use error::ConfigError;
pub use ids::{CoreId, NodeId, ThreadId};
pub use time::Nanos;
pub use topology::Topology;
