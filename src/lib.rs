//! # EAR — Encoding-Aware Replication for Clustered File Systems
//!
//! A from-scratch Rust reproduction of *"Enabling Efficient and Reliable
//! Transition from Replication to Erasure Coding for Clustered File Systems"*
//! (Li, Hu & Lee, DSN 2015).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`types`] — identifiers, topology, configuration, the shared
//!   [`types::Block`] buffer and the CRC32C ([`types::crc`]) it can carry.
//! * [`erasure`] — GF(2⁸) Reed–Solomon coding.
//! * [`core`] — the placement policies: random replication (RR) and
//!   encoding-aware replication (EAR).
//! * [`des`] — the discrete-event simulation core.
//! * [`sim`] — the CFS discrete-event simulator (paper Fig. 11).
//! * [`netem`] — the token-bucket network emulator.
//! * [`cluster`] — the in-process mini-CFS testbed (HDFS stand-in): a
//!   sharded NameNode, DataNodes over pluggable [`cluster::BlockStore`]
//!   backends (in-memory or the durable extent engine, selected by
//!   `EAR_STORE=memory|extent` via [`types::StoreBackend`]), and the unified
//!   [`cluster::ClusterIo`] data plane that owns fault injection, pacing,
//!   and CRC32C verification, plus the synthetic MapReduce workloads
//!   ([`cluster::workloads`]).
//! * [`analysis`] — Eq. (1), Theorem 1, and load-balancing analysis.
//!
//! # Quickstart
//!
//! ```
//! use ear::core::{EncodingAwareReplication, PlacementPolicy};
//! use ear::types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};
//!
//! let topo = ClusterTopology::uniform(8, 4);
//! let cfg = EarConfig::new(
//!     ErasureParams::new(6, 4).unwrap(),
//!     ReplicationConfig::hdfs_default(),
//!     1,
//! ).unwrap();
//! let mut rng = ear::types::rng::ChaCha8::from_seed(42);
//! let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
//! // Write blocks until the pre-encoding store seals a stripe.
//! let stripe = loop {
//!     if let Some(s) = ear.place_block(&mut rng).unwrap().sealed_stripe {
//!         break s;
//!     }
//! };
//! assert_eq!(stripe.data_layouts().len(), 4);
//! ```

pub use ear_analysis as analysis;
pub use ear_cluster as cluster;
pub use ear_core as core;
pub use ear_des as des;
pub use ear_erasure as erasure;
pub use ear_netem as netem;
pub use ear_sim as sim;
pub use ear_types as types;
