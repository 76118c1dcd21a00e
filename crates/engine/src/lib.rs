//! Deterministic discrete-event simulation kernel.
//!
//! The ALLARM evaluation does not need a full parallel-discrete-event engine,
//! but it does need two things the standard library does not provide
//! directly:
//!
//! * a **deterministic event queue** ([`EventQueue`]) whose pop order is a
//!   total order even when events carry equal timestamps (ties are broken by
//!   insertion sequence, so two runs with the same seed replay identically);
//! * a **multi-actor clock** ([`CoreScheduler`]) that repeatedly selects the
//!   actor (core) with the smallest local time — backed by a lazy min-heap,
//!   so selection is `O(log n)` on large machines — which is how the
//!   trace-driven simulator in `allarm-core` interleaves cores;
//! * a **sharding layer** ([`ShardPlan`], [`MergeKey`], [`merge_events`])
//!   that partitions the machine by home node and defines the deterministic
//!   `(time, actor, seq)` order in which cross-shard events are merged at
//!   epoch barriers, making an N-shard run byte-identical to a serial one;
//!   and
//! * a **seeded random-number layer** ([`rng::StreamRng`]) that hands
//!   independent, reproducible streams to each component.
//!
//! # Examples
//!
//! ```
//! use allarm_engine::{EventQueue, ScheduledEvent};
//! use allarm_types::Nanos;
//!
//! let mut q = EventQueue::new();
//! q.push(Nanos::new(5), "b");
//! q.push(Nanos::new(5), "c");
//! q.push(Nanos::new(1), "a");
//! let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
//! assert_eq!(order, ["a", "b", "c"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod queue;
pub mod rng;
pub mod scheduler;
pub mod shard;

pub use queue::{EventQueue, ScheduledEvent};
pub use rng::StreamRng;
pub use scheduler::CoreScheduler;
pub use shard::{merge_events, Keyed, MergeKey, PhaseBarrier, ShardPlan};
