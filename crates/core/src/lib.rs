//! Replica placement policies for clustered file systems: **random
//! replication (RR)** and **encoding-aware replication (EAR)** — the core
//! contribution of Li, Hu & Lee (DSN 2015).
//!
//! A CFS first writes each block with replication and later encodes groups
//! of `k` blocks into `(n, k)` erasure-coded stripes. RR places each block's
//! replicas independently, which makes the later encoding slow (the encoding
//! node must download almost all `k` blocks across racks) and unsafe
//! (replica deletion can violate rack-level fault tolerance, forcing block
//! relocation). EAR fixes both by placing the `k` blocks of a future stripe
//! jointly: one replica of each block in a common *core rack*, and the rest
//! at random subject to a max-flow feasibility check, answered by one
//! augmenting-path search per layout drawn.
//!
//! # Quickstart
//!
//! ```
//! use ear_core::{EncodingAwareReplication, PlacementPolicy};
//! use ear_types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};
//!
//! let topo = ClusterTopology::uniform(8, 4);
//! let cfg = EarConfig::new(
//!     ErasureParams::new(6, 4).unwrap(),
//!     ReplicationConfig::hdfs_default(),
//!     1,
//! ).unwrap();
//! let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
//! let mut rng = ear_types::rng::ChaCha8::from_seed(7);
//!
//! // Write blocks until a stripe seals, then plan its encoding.
//! let stripe = loop {
//!     if let Some(s) = ear.place_block(&mut rng)?.sealed_stripe {
//!         break s;
//!     }
//! };
//! let plan = ear.plan_encoding(&stripe, &mut rng)?;
//! assert_eq!(plan.cross_rack_downloads(), 0);  // the EAR guarantee
//! assert!(plan.relocations.is_empty());        // and no relocation
//! # Ok::<(), ear_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ear;
mod encode;
mod layout;
mod matching;
mod policy;
mod repair;
mod rr;
pub mod sample;

pub use ear::{EarStripeBuilder, EncodingAwareReplication};
pub use encode::{plan_encoding_ear, plan_encoding_rr};
pub use layout::{
    BlockLayout, ChainHop, ChainPlan, EncodePlan, SpreadViolations, StripePlan, StripeSpread,
};
pub use policy::{ClusterPolicy, PlacedBlock, PlacementPolicy, RandomReplicationPolicy};
pub use repair::{LinkBalance, Rebuild, RepairPlanner, RepairSite, Survivor};
pub use rr::RandomReplication;
