//! The four workloads. Names are fixed: later issues cite them.

use ear_cluster::{ClusterConfig, ClusterPolicy};
use ear_types::{
    Bandwidth, ByteSize, CacheConfig, DurabilityConfig, EarConfig, ErasureParams,
    ReplicationConfig, Result, StoreBackend,
};
use std::path::Path;

/// How the read phase picks the block of each read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// Every block equally likely: the working set is the whole data set.
    Uniform,
    /// `stats::skewed_index`: a few blocks take most reads, so they stay
    /// cached.
    Skewed,
}

/// One workload: a cluster shape plus the fixed work of one round.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into BENCHMARK.json.
    pub why: &'static str,
    pub policy: ClusterPolicy,
    pub n: usize,
    pub k: usize,
    pub racks: usize,
    pub nodes_per_rack: usize,
    pub replicas: usize,
    pub block_kib: u64,
    /// Node and rack link rate, bytes per second.
    pub link_rate: f64,
    /// Extent store + WAL under `benchmark/out/`; else the memory store
    /// and no WAL.
    pub durable: bool,
    /// `EAR_CACHE` syntax, per node.
    pub cache: &'static str,
    /// Blocks written per round (B).
    pub blocks: usize,
    /// Whole-block reads per round (R).
    pub reads: usize,
    pub read_mix: ReadMix,
    /// Nodes killed and repaired per round, one after another (K).
    pub kills: usize,
}

/// Closed-loop client threads in the write and read phases, and map tasks
/// of the encode job: the container has two vCPUs.
pub const CLIENTS: usize = 2;

/// Stripe blocks allowed per rack after encoding, on every workload.
pub const C: usize = 1;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "compute_mem",
        why: "EAR (14,10), 512 KiB blocks, memory store, unpaced links, working set 5-10x the 4 MiB cache: GF kernel, RS fold, CRC32C and copies own the time",
        policy: ClusterPolicy::Ear,
        n: 14,
        k: 10,
        racks: 16,
        nodes_per_rack: 2,
        replicas: 3,
        block_kib: 512,
        link_rate: 1e12,
        durable: false,
        cache: "1m,3m",
        blocks: 1000,
        reads: 6000,
        read_mix: ReadMix::Uniform,
        kills: 8,
    },
    Workload {
        name: "durable_extent",
        why: "EAR (9,6), 64 KiB blocks, extent store and WAL on disk, no fsync (fsynced rounds in the traced run only), skewed reads that fit the cache: store and metadata own writes, the cache hit path owns reads",
        policy: ClusterPolicy::Ear,
        n: 9,
        k: 6,
        racks: 10,
        nodes_per_rack: 2,
        replicas: 3,
        block_kib: 64,
        link_rate: 1e12,
        durable: true,
        cache: "8m,32m",
        blocks: 1000,
        reads: 400_000,
        read_mix: ReadMix::Skewed,
        kills: 6,
    },
    Workload {
        name: "testbed_ear",
        why: "EAR (10,8) on the paper's 12-rack 2-way testbed with 32 MB/s links: every byte is paced, so time follows cross-rack bytes; a faster kernel or store must show no change",
        policy: ClusterPolicy::Ear,
        n: 10,
        k: 8,
        racks: 12,
        nodes_per_rack: 1,
        replicas: 2,
        block_kib: 256,
        link_rate: 32e6,
        durable: false,
        cache: "8m,32m",
        blocks: 1000,
        reads: 1000,
        read_mix: ReadMix::Uniform,
        kills: 1,
    },
    Workload {
        name: "testbed_rr",
        why: "testbed_ear under random replication: cross-rack downloads and BlockMover relocations that EAR never takes, so a gain for EAR that costs the baseline shows",
        policy: ClusterPolicy::Rr,
        n: 10,
        k: 8,
        racks: 12,
        nodes_per_rack: 1,
        replicas: 2,
        block_kib: 256,
        link_rate: 32e6,
        durable: false,
        cache: "8m,32m",
        blocks: 1000,
        reads: 1000,
        read_mix: ReadMix::Uniform,
        kills: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn block_bytes(&self) -> usize {
        (self.block_kib * 1024) as usize
    }

    pub fn nodes(&self) -> usize {
        self.racks * self.nodes_per_rack
    }

    pub fn erasure(&self) -> Result<ErasureParams> {
        ErasureParams::new(self.n, self.k)
    }

    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::parse(self.cache).unwrap_or_default()
    }

    pub fn store(&self) -> StoreBackend {
        if self.durable {
            StoreBackend::Extent
        } else {
            StoreBackend::Memory
        }
    }

    /// `--quick`: a fifth of the work per round, for smoke use only.
    pub fn quick(mut self) -> Self {
        self.blocks /= 5;
        self.reads /= 5;
        self.kills = self.kills.min(2);
        self
    }

    /// The same shape with `blocks` blocks, reads scaled to match.
    pub fn scaled_to(mut self, blocks: usize) -> Self {
        self.reads = (self.reads * blocks / self.blocks).max(1);
        self.blocks = blocks;
        self
    }

    /// The cluster configuration of one round. Starts from the paper's
    /// testbed shape and assigns fields, so a field added to
    /// `ClusterConfig` later does not break the harness. `dir` is the
    /// round's data directory and `sync` is `sync_writes`, fsync before
    /// every ack; only durable workloads use either.
    pub fn config(&self, seed: u64, dir: &Path, sync: bool) -> Result<ClusterConfig> {
        let replication = if self.replicas == 2 {
            ReplicationConfig::two_way()
        } else {
            ReplicationConfig::hdfs_default()
        };
        let ear = EarConfig::new(self.erasure()?, replication, C)?;
        let mut cfg = ClusterConfig::testbed(self.policy, ear);
        cfg.racks = self.racks;
        cfg.nodes_per_rack = self.nodes_per_rack;
        cfg.block_size = ByteSize::kib(self.block_kib);
        cfg.node_bandwidth = Bandwidth::bytes_per_sec(self.link_rate);
        cfg.rack_bandwidth = Bandwidth::bytes_per_sec(self.link_rate);
        cfg.seed = seed;
        cfg.store = self.store();
        cfg.cache = self.cache_config();
        cfg.durability = if self.durable {
            // Checkpoint every 256 WAL records, the default.
            DurabilityConfig::at(dir)
        } else {
            DurabilityConfig::default()
        };
        cfg.durability.sync_writes = sync;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_has_a_thousand_writes_and_reads() {
        for w in &WORKLOADS {
            assert!(w.blocks >= 1000 && w.reads >= 1000, "{}", w.name);
            assert!(w.kills >= 1 && w.kills < w.nodes(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(CacheConfig::parse(w.cache).is_some(), "{}", w.name);
            // c = 1 needs a rack per stripe block.
            assert!(w.racks >= w.n, "{}", w.name);
        }
    }

    #[test]
    fn configs_build_and_carry_the_workload_shape() {
        for w in &WORKLOADS {
            let cfg = w.config(5, Path::new("unused"), false).unwrap();
            assert_eq!(cfg.racks * cfg.nodes_per_rack, w.nodes());
            assert_eq!(cfg.block_size.as_u64() as usize, w.block_bytes());
            assert_eq!(cfg.durability.is_durable(), w.durable);
            assert!(!cfg.durability.sync_writes);
            let synced = w.config(5, Path::new("unused"), true).unwrap();
            assert!(synced.durability.sync_writes);
            assert_eq!(cfg.seed, 5);
        }
    }

    #[test]
    fn quick_and_scaled_keep_reads_per_block() {
        let w = WORKLOADS[0].quick();
        assert_eq!((w.blocks, w.reads), (200, 1200));
        let s = WORKLOADS[1].scaled_to(250);
        assert_eq!((s.blocks, s.reads), (250, 100_000));
    }
}
