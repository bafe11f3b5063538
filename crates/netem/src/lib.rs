//! Real-time token-bucket network emulation for the mini-CFS testbed.
//!
//! The paper's testbed experiments (Section V-A) run on 13 machines behind a
//! 1 Gb/s switch where "network transfer is the bottleneck". This crate
//! emulates that environment in-process: every node has an uplink and a
//! downlink, every rack an uplink and a downlink to the core, and each link
//! is a token bucket that real threads draw from as they move real bytes.
//! Bandwidths are typically scaled down (and block sizes with them) so
//! experiments complete in seconds while preserving contention behaviour.
//!
//! # Example
//!
//! ```
//! use ear_netem::EmulatedNetwork;
//! use ear_types::{Bandwidth, ByteSize, ClusterTopology, NodeId};
//!
//! let topo = ClusterTopology::uniform(2, 1);
//! let net = EmulatedNetwork::new(
//!     &topo,
//!     Bandwidth::bytes_per_sec(50e6),
//!     Bandwidth::bytes_per_sec(50e6),
//! );
//! // Moves 1 MiB from node 0 to node 1, paced at 50 MB/s.
//! net.transfer(NodeId(0), NodeId(1), ByteSize::mib(1).as_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "token buckets refill from, and sleep on, the wall clock: pacing real bytes is this \
              crate's job, and its tests race scoped senders over shared links"
)]

mod bucket;
mod network;

pub use network::{EmulatedNetwork, TrafficSnapshot, CHUNK};
