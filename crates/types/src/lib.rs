//! Core identifiers, topology, and configuration types shared by every crate
//! in the EAR (encoding-aware replication) reproduction.
//!
//! This crate is intentionally dependency-free: it defines the vocabulary of
//! the system — [`NodeId`], [`RackId`], [`BlockId`], [`StripeId`], the
//! [`ClusterTopology`], the erasure-coding parameters [`ErasureParams`], the
//! replication policy knobs [`ReplicationConfig`], and the EAR-specific
//! configuration [`EarConfig`] — so that the placement algorithms, the
//! discrete-event simulator, and the testbed emulator all speak the same
//! language. It also owns the one seeded generator they all draw from,
//! [`rng::ChaCha8`], the property-test runner built on it, [`prop`], and the
//! CRC32C every store and log checks its bytes with, [`crc`] — which a
//! [`Block`] can carry alongside its bytes — [`Padded`], which keeps the
//! elements of a concurrently written array on separate cache lines, and
//! [`Striped`], which gives each thread its own padded copy of a value.
//!
//! # Example
//!
//! ```
//! use ear_types::{ClusterTopology, ErasureParams, RackId};
//!
//! // A cluster of 5 racks with 6 nodes each, as in the paper's motivating
//! // example (Section II-B).
//! let topo = ClusterTopology::uniform(5, 6);
//! assert_eq!(topo.num_nodes(), 30);
//! assert_eq!(topo.nodes_in_rack(RackId(2)).len(), 6);
//!
//! // (5,4) erasure coding: 4 data blocks + 1 parity block per stripe.
//! let params = ErasureParams::new(5, 4).unwrap();
//! assert_eq!(params.parity(), 1);
//! ```

// `deny` (not `forbid`) so that the CRC32C tiers in [`crc`], and only they,
// can carry scoped `#[allow(unsafe_code)]`s; everything else in the crate
// remains unsafe-free (scripts/check.sh holds the file list).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod crc;
mod error;
mod health;
mod ids;
mod padded;
mod params;
pub mod prop;
pub mod rng;
mod striped;
mod topology;
mod units;

pub use block::Block;
pub use error::{Error, Result};
pub use health::{HealStats, NodeHealth};
pub use ids::{BlockId, NodeId, RackId, StripeId};
pub use padded::Padded;
pub use params::{
    CacheConfig, DurabilityConfig, EarConfig, ErasureParams, RackSpread, ReplicationConfig,
    StoreBackend,
};
pub use striped::{Striped, STRIPES};
pub use topology::ClusterTopology;
pub use units::{Bandwidth, ByteSize};
