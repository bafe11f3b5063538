//! Seeded, deterministic fault injection for the mini-CFS testbed.
//!
//! The paper's availability argument (a transition from replication to
//! erasure coding must not lose data while failures stay within the code's
//! tolerance) is only testable if the testbed can *fail on demand*. This
//! crate provides that: a [`FaultPlan`] expands a single `u64` seed into a
//! replayable schedule of node crashes, rack outages, transient I/O errors,
//! silent block corruption, and straggler slowdowns; a [`FaultInjector`]
//! answers, at every emulated I/O boundary, "does this attempt fail, and
//! how?".
//!
//! Everything is deterministic in the seed (see [`plan`] and [`injector`]
//! for the precise guarantees), so a failing chaos soak prints one number
//! that reproduces it.
//!
//! # Example
//!
//! ```
//! use ear_faults::{FaultConfig, FaultInjector, FaultPlan};
//! use ear_types::{BlockId, ClusterTopology, NodeId};
//!
//! let topo = ClusterTopology::uniform(6, 4);
//! let plan = FaultPlan::generate(0xC0FFEE, &topo, &FaultConfig::heavy());
//! assert_eq!(plan, FaultPlan::generate(0xC0FFEE, &topo, &FaultConfig::heavy()));
//!
//! let injector = FaultInjector::new(plan, topo);
//! // Same attempt, same answer — retries use a fresh attempt number.
//! assert_eq!(
//!     injector.on_read(NodeId(0), BlockId(1), 0),
//!     injector.on_read(NodeId(0), BlockId(1), 0),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::iter_over_hash_type)]

mod injector;
mod plan;

pub use ear_types::crc::crc32c;
pub use ear_types::rng::{mix64, ChaCha8};
pub use injector::{FaultInjector, IoFault};
pub use plan::{DelayModel, FaultConfig, FaultPlan, NodeCrash, RackOutage};
