//! An in-process mini clustered file system: the HDFS stand-in for the
//! paper's testbed experiments (Section IV–V.A).
//!
//! The crate emulates the 13-machine testbed in one process:
//!
//! * [`NameNode`] — metadata (lock-striped block→location shards plus the
//!   stripe tables), the placement policy, and the *pre-encoding store* that
//!   groups blocks into stripes (Section IV-B). Its state changes in one
//!   place: every mutation is a [`MetaRecord`] that is logged, then put
//!   through the same `apply` that replay runs over a [`MetaSnapshot`];
//! * [`DataNode`] — a block store per emulated machine over a pluggable
//!   [`BlockStore`] backend: lock-striped memory or the durable extent
//!   engine (`EAR_STORE=memory|extent`), fronted by an optional
//!   [`BlockCache`] (`EAR_CACHE=off|<a>,<b>`, sized `a + b`);
//! * [`cache`] — the deterministic block cache (SIEVE: one queue and one
//!   hand, hits under a read lock) behind every DataNode's read path;
//! * [`ClusterIo`] — the unified data-plane I/O service: every block fetch
//!   and store goes through its fault-injection + netem + checksum seam,
//!   with replica fallback, retry/backoff, verified-once CRC over cache
//!   hits, and per-op byte and latency accounting ([`IoStats`]);
//! * [`MiniCfs`] — the client API: replication-pipeline writes and
//!   nearest-replica reads, with every byte paced through the token-bucket
//!   network of `ear-netem`;
//! * [`RaidNode`] — encoding jobs ("map tasks") that download a stripe's
//!   blocks, Reed–Solomon-encode them for real, upload parity under ids
//!   reserved in stripe order, and delete redundant replicas — plus the
//!   BlockMover that repairs RR's fault-tolerance violations;
//! * [`mapreduce`] / [`workloads`] — a miniature MapReduce engine and the
//!   SWIM-like job generator it replays for Experiment A.3;
//! * `exec` — the crate's one worker set: encode jobs, repair passes and
//!   the MapReduce phases each drain an ordered task list on it and get
//!   their results back in task order (DESIGN.md §8);
//! * [`health`] / [`healer`] — the self-healing control plane: seeded-clock
//!   heartbeats into a phi-style failure detector, degraded-state priority
//!   queues, and the budgeted background repair scheduler (DESIGN.md §8);
//! * [`reliability`] — the deterministic reliability substrate under every
//!   `ClusterIo` consumer (DESIGN.md §14): virtual-clock deadlines, phi-fed
//!   per-node circuit breakers, seeded retry backoff, and seeded hedged
//!   reads; a client read ends in its block's stripe leg (a degraded read);
//! * [`wal`] / [`ExtentStore`] / [`crashsim`] — the durability layer
//!   (DESIGN.md §13): a CRC-framed metadata write-ahead log with periodic
//!   checkpoint compaction, the extent/allocator block engine with
//!   header-last commits and explicit fsync barriers, and the
//!   deterministic crash/power-loss simulator that kill-point-tests both.
//!   Both stores write through [`durable`], whose types hold the order.
//!   A cluster given `DurabilityConfig::at(dir)` survives
//!   [`MiniCfs::reopen`] with a bit-identical metadata snapshot.
//!
//! # Example
//!
//! ```no_run
//! use ear_cluster::{ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
//! use ear_types::{EarConfig, ErasureParams, NodeId, ReplicationConfig};
//!
//! let ear = EarConfig::new(
//!     ErasureParams::new(10, 8).unwrap(),
//!     ReplicationConfig::two_way(),
//!     1,
//! ).unwrap();
//! let cfs = MiniCfs::new(ClusterConfig::testbed(ClusterPolicy::Ear, ear))?;
//! for i in 0..96u64 {
//!     let data = cfs.make_block(i);
//!     cfs.write_block(NodeId((i % 12) as u32), data)?;
//! }
//! let (stats, _relocations) = RaidNode::encode_all(&cfs, 12)?;
//! println!("encoding throughput: {:.1} MiB/s", stats.throughput_mibps());
//! # Ok::<(), ear_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unused_must_use)]
#![warn(clippy::iter_over_hash_type)]

/// Declares the data-plane modules (DESIGN.md §11): every failure there is
/// a typed error, never a panic, and no `Result` is silently dropped. Test
/// modules are excused by clippy.toml's `allow-*-in-tests`.
macro_rules! data_plane {
    ($($vis:vis mod $name:ident;)*) => {$(
        #[warn(
            clippy::panic,
            clippy::unreachable,
            clippy::todo,
            clippy::unimplemented,
            clippy::indexing_slicing,
            clippy::let_underscore_must_use,
            clippy::unused_result_ok
        )]
        $vis mod $name;
    )*};
}

data_plane! {
    pub mod blockstore;
    pub mod cache;
    pub mod crashsim;
    mod datanode;
    pub mod durable;
    mod exec;
    mod extent;
    mod fold;
    pub mod healer;
    mod io;
    mod raidnode;
    mod recovery;
    pub mod reliability;
    pub mod wal;
}
pub mod chaos;
mod cluster;
pub mod health;
pub mod mapreduce;
mod monitor;
mod namenode;
pub mod sync;
pub mod workloads;

pub use blockstore::{BlockStore, ShardedMemStore};
pub use extent::{ExtentStore, WriteEvent};
pub use cache::{BlockCache, CacheStats};
pub use chaos::{
    run_heal_plan, run_plan, ChaosConfig, ChaosReport, HealSoakConfig, HealSoakReport,
};
pub use cluster::{ClusterConfig, ClusterPolicy, MiniCfs};
pub use datanode::{CachedRead, DataNode};
pub use io::{ClusterIo, DeadNodeSet, IoStats};
pub use healer::{Healer, HealerConfig, RoundReport};
pub use health::{
    DegradedTracker, FailureDetector, HealthTransition, RepairKind, RepairTask,
};
pub use monitor::{plan_repairs, scan, Violation};
pub use namenode::{EncodedStripe, NameNode, PendingStripe};
pub use wal::{MetaRecord, MetaSnapshot, MetaWal};
pub use raidnode::{EncodeStats, RaidNode, Relocation};
pub use recovery::{recover_node, RecoveryStats};
pub use reliability::{OpClass, OpContext, Reliability, ReliabilityStats};
pub use sync::locked;
