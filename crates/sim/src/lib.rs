//! Discrete-event CFS simulator reproducing the paper's CSIM experiments
//! (Section V-B): a PlacementManager (RR or EAR from `ear-core`), a Topology
//! (the FIFO link model of `ear-des`), and a TrafficManager
//! feeding simultaneous write, encoding, and background traffic streams.
//!
//! The simulator measures everything the paper's Figures 12–13 and Table I
//! report: encoding throughput, write throughput during encoding, write
//! response times, cumulative encoded stripes, cross-rack downloads, and
//! relocation counts.
//!
//! # Example: a small EAR vs RR comparison
//!
//! ```
//! use ear_core::ClusterPolicy;
//! use ear_sim::{run, SimConfig};
//! use ear_types::ErasureParams;
//!
//! let base = SimConfig {
//!     racks: 8,
//!     nodes_per_rack: 2,
//!     erasure: ErasureParams::new(6, 4).unwrap(),
//!     encode_processes: 4,
//!     stripes_per_process: 2,
//!     write_rate: 0.0,
//!     background_rate: 0.0,
//!     ..SimConfig::default()
//! };
//! let ear = run(&base.clone().with_policy(ClusterPolicy::Ear))?;
//! let rr = run(&base.with_policy(ClusterPolicy::Rr))?;
//! assert!(ear.encoding_throughput() >= rr.encoding_throughput());
//! # Ok::<(), ear_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::iter_over_hash_type)]

mod config;
mod net;
mod report;
mod simulator;

pub use config::SimConfig;
pub use net::NetTopology;
pub use report::SimReport;
pub use simulator::run;
