//! Dynamic-energy and area models for the probe filter and on-chip network.
//!
//! The paper evaluates energy with McPAT at 32 nm (Section III-A3) and
//! reports *normalised* dynamic energy, plus an absolute area table for the
//! probe filter. McPAT itself is a large C++ framework; what the evaluation
//! actually needs from it is much smaller:
//!
//! * dynamic energy = activity counts x per-event energy, for two
//!   components: the probe-filter array (reads/writes/evictions) and the
//!   NoC (router traversals and link traversals per flit-hop);
//! * an area estimate for a probe filter of a given capacity.
//!
//! [`EnergyModel`] provides the per-event costs (defaults are representative
//! 32 nm values; since every figure is normalised against the baseline, only
//! the *relative* activity matters). [`area::probe_filter_area_mm2`]
//! reproduces the paper's area table.
//!
//! # Examples
//!
//! ```
//! use allarm_energy::EnergyModel;
//! use allarm_noc::NocStats;
//! use allarm_coherence::PfStats;
//!
//! let model = EnergyModel::mcpat_32nm();
//! let energy = model.dynamic_energy(&NocStats::new(), &PfStats::default());
//! assert_eq!(energy.noc_pj, 0.0);
//! assert_eq!(energy.probe_filter_pj, 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod area;
pub mod model;

pub use area::probe_filter_area_mm2;
pub use model::{DynamicEnergy, EnergyModel};
