//! The mini-CFS facade: DataNodes + NameNode + emulated network.

use crate::datanode::DataNode;
use crate::durable::Dir;
use crate::health::{FailureDetector, HealthTransition};
use crate::io::{ClusterIo, IoStats};
use crate::namenode::NameNode;
use crate::reliability::{OpClass, OpContext, Reliability};
use crate::wal::MetaWal;
pub use ear_core::ClusterPolicy;
use ear_core::StripeSpread;
use ear_erasure::ReedSolomon;
use ear_faults::{FaultInjector, FaultPlan};
use ear_netem::EmulatedNetwork;
use ear_types::{
    Bandwidth, Block, BlockId, ByteSize, CacheConfig, ClusterTopology, DurabilityConfig,
    EarConfig, Error, NodeHealth, NodeId, Result, StoreBackend,
};
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::sync::locked;

/// Configuration of a [`MiniCfs`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of racks.
    pub racks: usize,
    /// Nodes per rack (the paper's testbed: 1).
    pub nodes_per_rack: usize,
    /// Block size. Scaled down from HDFS's 64 MiB so experiments run in
    /// seconds (the bandwidth scales with it).
    pub block_size: ByteSize,
    /// Node link bandwidth.
    pub node_bandwidth: Bandwidth,
    /// Rack (top-of-rack uplink) bandwidth.
    pub rack_bandwidth: Bandwidth,
    /// Shared placement/encoding parameters.
    pub ear: EarConfig,
    /// Placement policy.
    pub policy: ClusterPolicy,
    /// RNG seed for the NameNode's policy.
    pub seed: u64,
    /// Which block-storage backend the DataNodes run on.
    pub store: StoreBackend,
    /// The DataNodes' block-cache configuration (DESIGN.md §12).
    pub cache: CacheConfig,
    /// The durability layer (DESIGN.md §13). Default: volatile — no data
    /// directory, no WAL, state dies with the process, exactly the
    /// pre-durability testbed.
    pub durability: DurabilityConfig,
    /// Whether reads hedge against stragglers (DESIGN.md §14): the one
    /// switch of the reliability substrate, whose deadlines, breakers and
    /// backoff are constants.
    pub hedge_reads: bool,
}

impl ClusterConfig {
    /// A scaled-down version of the paper's 13-machine testbed: 12
    /// single-node racks, 4 MiB blocks, 2-way replication, links scaled so a
    /// block transfer takes a few tens of milliseconds.
    pub fn testbed(policy: ClusterPolicy, ear: EarConfig) -> Self {
        ClusterConfig {
            racks: 12,
            nodes_per_rack: 1,
            block_size: ByteSize::mib(4),
            node_bandwidth: Bandwidth::bytes_per_sec(128e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(128e6),
            ear,
            policy,
            seed: 1,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: DurabilityConfig::default(),
            hedge_reads: true,
        }
    }
}

/// Validates (or, on first boot, writes) the data directory's MANIFEST:
/// the shape parameters a durable cluster must be reopened with. A reopen
/// under a different shape would silently mis-route every block, so a
/// mismatch is a hard [`Error::Invariant`].
fn check_manifest(dir: &Path, config: &ClusterConfig) -> Result<()> {
    let expected = format!(
        "store={}\nracks={}\nnodes_per_rack={}\nblock_size={}\npolicy={}\nseed={}\n",
        config.store.name(),
        config.racks,
        config.nodes_per_rack,
        config.block_size.as_u64(),
        config.policy.name(),
        config.seed,
    );
    let path = dir.join("MANIFEST");
    match fs::read_to_string(&path) {
        Ok(found) => {
            if found != expected {
                return Err(Error::Invariant(format!(
                    "manifest mismatch at {}: directory was written as\n{found}but is being \
                     reopened as\n{expected}",
                    path.display()
                )));
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // Always synced: a half-written MANIFEST would brick every
            // future reopen with a spurious mismatch.
            let dir = Dir::create_all(dir, true)?;
            dir.replace_atomically("MANIFEST", expected.as_bytes())?;
            Ok(())
        }
        Err(e) => Err(Error::Io {
            context: format!("read {}: {e}", path.display()),
        }),
    }
}

/// An in-process clustered file system: the HDFS stand-in for the paper's
/// testbed experiments. Real bytes move through an emulated network and are
/// really Reed–Solomon encoded.
pub struct MiniCfs {
    config: ClusterConfig,
    topo: ClusterTopology,
    namenode: NameNode,
    io: ClusterIo,
    codec: ReedSolomon,
    health: Mutex<FailureDetector>,
    reliability: Arc<Reliability>,
}

impl MiniCfs {
    /// Boots a cluster with no fault injection.
    ///
    /// # Errors
    ///
    /// [`Error::TopologyTooSmall`] for a zero rack or node count, or when
    /// the topology cannot host the configured policy.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Self::boot(config, None)
    }

    /// Boots a cluster that executes `plan`: its stragglers are throttled
    /// immediately, and every subsequent block read/write consults the
    /// plan's injector.
    ///
    /// # Errors
    ///
    /// [`Error::TopologyTooSmall`] for a zero rack or node count, or when
    /// the topology cannot host the configured policy.
    pub fn with_faults(config: ClusterConfig, plan: FaultPlan) -> Result<Self> {
        Self::boot(config, Some(plan))
    }

    /// Reopens a durable cluster from its data directory: validates the
    /// manifest, replays the NameNode's checkpoint + WAL suffix, and
    /// recovers every DataNode's on-disk store. Equivalent to [`MiniCfs::new`]
    /// with the same durable config — this alias exists so restart tests
    /// and the `recover` CLI read as what they are.
    ///
    /// # Errors
    ///
    /// * [`Error::NotDurable`] if the config carries no data directory (or
    ///   the memory backend, which cannot persist).
    /// * [`Error::TopologyTooSmall`] for a zero rack or node count.
    /// * [`Error::Invariant`] if the manifest on disk disagrees with the
    ///   config.
    /// * [`Error::WalCorrupt`] if recovery finds corrupt committed state.
    pub fn reopen(config: ClusterConfig) -> Result<Self> {
        if !config.durability.is_durable() {
            return Err(Error::NotDurable {
                backend: config.store.name(),
            });
        }
        Self::boot(config, None)
    }

    /// Forces a NameNode checkpoint now (no-op on a volatile cluster):
    /// snapshot the metadata, persist it, compact the WAL.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the checkpoint cannot be persisted.
    pub fn checkpoint(&self) -> Result<()> {
        self.namenode.checkpoint_now()
    }

    fn boot(config: ClusterConfig, plan: Option<FaultPlan>) -> Result<Self> {
        let topo = ClusterTopology::try_uniform(config.racks, config.nodes_per_rack)?;
        let policy = config.policy.build(config.ear, topo.clone())?;
        let (namenode, datanodes) = match config.durability.data_dir.clone() {
            Some(dir) => {
                check_manifest(&dir, &config)?;
                let (wal, recovered) = MetaWal::open(
                    &dir.join("meta"),
                    config.durability.sync_writes,
                    crate::wal::CHECKPOINT_EVERY,
                )?;
                let namenode =
                    NameNode::new(topo.clone(), policy, config.seed, Some(wal), recovered);
                let datanodes: Vec<DataNode> = topo
                    .nodes()
                    .map(|n| {
                        DataNode::with_backend_at(
                            n,
                            config.store,
                            &dir.join("nodes").join(format!("n{}", n.0)),
                            config.durability.sync_writes,
                            config.cache,
                            config.seed,
                        )
                    })
                    .collect::<Result<_>>()?;
                (namenode, datanodes)
            }
            None => {
                let namenode =
                    NameNode::new(topo.clone(), policy, config.seed, None, Default::default());
                let datanodes: Vec<DataNode> = topo
                    .nodes()
                    .map(|n| DataNode::with_backend(n, config.store, config.cache, config.seed))
                    .collect::<Result<_>>()?;
                (namenode, datanodes)
            }
        };
        let net = EmulatedNetwork::new(&topo, config.node_bandwidth, config.rack_bandwidth);
        let codec = ReedSolomon::new(config.ear.erasure());
        let injector = match plan {
            Some(p) => FaultInjector::new(p, topo.clone()),
            None => FaultInjector::disabled(),
        };
        for &(node, factor) in injector.stragglers() {
            net.throttle_node(node, factor);
        }
        let health = Mutex::new(FailureDetector::new(topo.num_nodes()));
        let reliability =
            Arc::new(Reliability::new(config.hedge_reads, config.seed, topo.num_nodes()));
        let io = ClusterIo::new(topo.clone(), datanodes, net, injector, reliability.clone());
        Ok(MiniCfs {
            config,
            topo,
            namenode,
            io,
            codec,
            health,
            reliability,
        })
    }

    /// Advances the heartbeat clock one tick: every DataNode that is up
    /// emits a beat (a beat may still be lost in transit per the fault
    /// plan's heartbeat-loss rate), and the NameNode-side failure detector
    /// observes the arrivals. Returns the health transitions the tick
    /// caused. Deterministic: which beats arrive is a pure function of the
    /// fault seed, the tick number, and the injector's crash activations.
    ///
    /// # Errors
    ///
    /// [`Error::LockPoisoned`] if a thread panicked mid-update in the
    /// failure detector.
    pub fn heartbeat_tick(&self) -> Result<Vec<HealthTransition>> {
        let mut det = locked(&self.health, "failure detector")?;
        let tick = det.next_tick();
        let injector = self.io.injector();
        let beats: Vec<bool> = self
            .topo
            .nodes()
            .map(|n| !injector.node_down(n) && !injector.drops_heartbeat(n, tick))
            .collect();
        let transitions = det.observe(&beats);
        // The breakers' only input: detector verdicts, never data-plane
        // failures — breaker state stays a pure function of the heartbeat
        // schedule.
        self.reliability.on_transitions(&transitions);
        Ok(transitions)
    }

    /// The failure detector's current view of one node.
    ///
    /// # Errors
    ///
    /// [`Error::LockPoisoned`] if the detector's lock is poisoned.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn node_health(&self, node: NodeId) -> Result<NodeHealth> {
        Ok(locked(&self.health, "failure detector")?.health(node))
    }

    /// The failure detector's view of every node, indexed by node id.
    ///
    /// # Errors
    ///
    /// [`Error::LockPoisoned`] if the detector's lock is poisoned.
    pub fn health_snapshot(&self) -> Result<Vec<NodeHealth>> {
        Ok(locked(&self.health, "failure detector")?.snapshot())
    }

    /// The fault injector in force (a no-op one unless the cluster was
    /// booted with [`MiniCfs::with_faults`]).
    pub fn injector(&self) -> &FaultInjector {
        self.io.injector()
    }

    /// The active fault-plan seed, or `None` when no faults are injected —
    /// recorded into experiment statistics so every printed result names
    /// the chaos it survived.
    pub fn fault_seed(&self) -> Option<u64> {
        self.io.injector().seed()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// The rack spread of a stripe with one block on each of `holders`,
    /// under this cluster's `c` (DESIGN.md §8): what every placement after
    /// the write asks before it takes a node.
    pub(crate) fn spread_of(&self, holders: impl IntoIterator<Item = NodeId>) -> StripeSpread<'_> {
        StripeSpread::of(&self.topo, self.config.ear.c(), holders)
    }

    /// The NameNode.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// The emulated network (for traffic statistics and injection).
    pub fn network(&self) -> &EmulatedNetwork {
        self.io.network()
    }

    /// The unified I/O service every data-plane operation goes through
    /// (DESIGN.md §9).
    pub fn io(&self) -> &ClusterIo {
        &self.io
    }

    /// The reliability substrate (DESIGN.md §14): makes op contexts, owns
    /// the circuit breakers, and sets hedging policy.
    pub fn reliability(&self) -> &Arc<Reliability> {
        &self.reliability
    }

    /// Snapshot of the cluster's per-op I/O accounting.
    pub fn io_stats(&self) -> IoStats {
        self.io.stats()
    }

    /// The Reed–Solomon codec in force.
    pub fn codec(&self) -> &ReedSolomon {
        &self.codec
    }

    /// Access to a DataNode.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn datanode(&self, node: NodeId) -> &DataNode {
        self.io.datanode(node)
    }

    /// Writes one block from `client` through the replication pipeline:
    /// client → replica 1 → replica 2 → …, streamed as one chain
    /// ([`ClusterIo::write_replicated`]), so every hop's link carries the
    /// block once and the write holds them for about one block time.
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if `data` does not match the block size.
    /// * Placement errors from the NameNode.
    pub fn write_block(&self, client: NodeId, data: Vec<u8>) -> Result<BlockId> {
        if data.len() as u64 != self.config.block_size.as_u64() {
            return Err(Error::Invariant(format!(
                "block must be exactly {} bytes, got {}",
                self.config.block_size.as_u64(),
                data.len()
            )));
        }
        let ctx = self.reliability.ctx(OpClass::ClientWrite)?;
        let (id, layout) = self.namenode.allocate_block()?;
        // Hashed once here; every replica's `DataNode::put` trusts the stamp.
        let data = Block::from(data).stamped();
        let (stored, err) = self.io.write_replicated(&ctx, client, id, &data, &layout);
        if let Some(e) = err {
            // The write is not acknowledged; record honestly which replicas
            // actually landed so later repair can see them.
            self.namenode.set_locations(id, stored)?;
            return Err(e);
        }
        Ok(id)
    }

    /// Reads a block to `reader`: its replicas nearest-first (local, then
    /// intra-rack, then remote) as HDFS does, then its stripe. A replica
    /// that is down, slow to answer, or fails checksum verification is
    /// skipped in favour of the next; transient failures are retried with
    /// backoff. Once every replica has failed, a block of an encoded stripe
    /// is decoded at `reader` from `k` surviving members (a degraded read,
    /// DESIGN.md §14).
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if the block id was never allocated.
    /// * [`Error::DeadlineExceeded`] as soon as the op's deadline passes.
    /// * For a block of an encoded stripe, the stripe leg's error
    ///   ([`Error::NotEnoughShards`], …) if the replicas and the stripe
    ///   both failed.
    /// * For any other block, [`Error::BlockUnavailable`] if it has no
    ///   replica at all, else the last replica's error ([`Error::NodeDown`],
    ///   [`Error::CorruptBlock`], …) once every replica failed every attempt.
    pub fn read_block(&self, reader: NodeId, id: BlockId) -> Result<Block> {
        let ctx = self.reliability.ctx(OpClass::ClientRead)?;
        self.read_block_in(&ctx, reader, id)
    }

    /// [`read_block`](Self::read_block) under a caller-supplied op context
    /// — the entry point for consumers that measure or bound the read on
    /// the virtual clock (chaos latency probes, MapReduce map tasks). The
    /// replicas and the stripe leg charge `ctx` alike, so its deadline
    /// bounds the whole read. When the last viable replica straggles past
    /// the hedging threshold, the stripe leg launches early as the hedge
    /// and the read completes at the virtual-clock winner.
    ///
    /// # Errors
    ///
    /// As [`read_block`](Self::read_block).
    pub fn read_block_in(&self, ctx: &OpContext<'_>, reader: NodeId, id: BlockId) -> Result<Block> {
        let locations = self
            .namenode
            .locations(id)
            .ok_or_else(|| Error::Invariant(format!("unknown {id}")))?;
        let ordered = self.by_proximity(reader, locations);
        let stripe = |leg: &OpContext<'_>| {
            let es = self.namenode.stripe_of(id)?;
            Some(crate::recovery::degraded_read(self, leg, reader, &es, id))
        };
        self.io
            .read_fallback(ctx, reader, id, &ordered, None, Some(&stripe))
            .map(|(data, _)| data)
    }

    /// Orders `locations` by proximity to `reader`, in place: the reader
    /// itself, then same-rack nodes, then the rest (stable within each
    /// class).
    fn by_proximity(&self, reader: NodeId, mut ordered: Vec<NodeId>) -> Vec<NodeId> {
        let reader_rack = self.topo.rack_of(reader);
        ordered.sort_by_key(|&n| {
            if n == reader {
                0u8
            } else if self.topo.rack_of(n) == reader_rack {
                1
            } else {
                2
            }
        });
        ordered
    }

    /// A block of deterministic pseudo-random content, sized to the
    /// configured block size (test/benchmark payloads).
    pub fn make_block(&self, tag: u64) -> Vec<u8> {
        let len = self.config.block_size.as_u64() as usize;
        let mut v = Vec::with_capacity(len);
        let mut state = tag.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        while v.len() < len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.extend_from_slice(&state.to_le_bytes());
        }
        v.truncate(len);
        v
    }

    /// Per-rack stored byte counts (storage balance of Experiment C.1).
    pub fn rack_storage(&self) -> Vec<u64> {
        let mut per_rack = vec![0u64; self.topo.num_racks()];
        for n in self.topo.nodes() {
            let dn = self.io.datanode(n);
            per_rack[self.topo.rack_of(dn.id()).index()] += dn.bytes_stored();
        }
        per_rack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::{ErasureParams, ReplicationConfig};

    fn small_cfg(policy: ClusterPolicy) -> ClusterConfig {
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        ClusterConfig {
            racks: 8,
            nodes_per_rack: 1,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(64e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(64e6),
            ear,
            policy,
            seed: 3,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: DurabilityConfig::default(),
            hedge_reads: true,
        }
    }

    #[test]
    fn write_stores_all_replicas() {
        let cfs = MiniCfs::new(small_cfg(ClusterPolicy::Rr)).unwrap();
        let data = cfs.make_block(42);
        let id = cfs.write_block(NodeId(0), data.clone()).unwrap();
        let locs = cfs.namenode().locations(id).unwrap();
        assert_eq!(locs.len(), 2);
        for n in locs {
            assert_eq!(cfs.datanode(n).get(id).unwrap().as_slice(), data.as_slice());
        }
    }

    #[test]
    fn a_client_write_is_hashed_once_for_all_its_replicas() {
        // `Block::stamped` hashes once (ear-types pins that); here, every
        // one of the r = 3 replicas was stored from the producer's stamped
        // handle, so `DataNode::put` took the stamp and hashed nothing, and
        // that handle adopted the caller's own buffer (`Block::from`).
        let mut cfg = small_cfg(ClusterPolicy::Ear);
        cfg.ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap();
        cfg.nodes_per_rack = 2;
        cfg.store = StoreBackend::Memory;
        let cfs = MiniCfs::new(cfg).unwrap();
        let data = cfs.make_block(42);
        let crc = ear_types::crc::crc32c(&data);
        let at = data.as_ptr();
        let id = cfs.write_block(NodeId(0), data).unwrap();
        let locs = cfs.namenode().locations(id).unwrap();
        assert_eq!(locs.len(), 3);
        for n in locs {
            let held = cfs.datanode(n).get(id).unwrap();
            assert_eq!(held.stamp(), Some(crc), "{n} stored the producer's handle");
            assert_eq!(held.as_ptr(), at, "{n} holds the caller's allocation, not a copy");
            assert_eq!(cfs.datanode(n).stored_crc(id), Some(crc));
        }
    }

    /// The paper's testbed as the benchmark runs it: 12 racks × 1 node, EAR
    /// (10,8), 2-way replication, 32 MB/s links.
    fn testbed_shape(block_size: ByteSize, seed: u64) -> MiniCfs {
        let params = ErasureParams::new(10, 8).unwrap();
        let ear = EarConfig::new(params, ReplicationConfig::two_way(), 1).unwrap();
        let mut cfg = ClusterConfig::testbed(ClusterPolicy::Ear, ear);
        cfg.block_size = block_size;
        cfg.node_bandwidth = Bandwidth::bytes_per_sec(32e6);
        cfg.rack_bandwidth = Bandwidth::bytes_per_sec(32e6);
        cfg.seed = seed;
        MiniCfs::new(cfg).unwrap()
    }

    #[test]
    fn testbed_writes_move_a_block_per_pipeline_leg_as_hop_by_hop_transfers_would() {
        // Streaming changes when the bytes move, not which links carry them:
        // single-threaded writes move B per leg of [client, r₁, r₂], exactly
        // what one transfer per hop moves (replayed on an unpaced twin). A
        // client holding r₁ pays no first leg; a client equal to r₂ still pays
        // two (client → r₁ → client) — the pipeline is not reordered.
        let cfs = testbed_shape(ByteSize::kib(256), 7);
        let b = cfs.config().block_size.as_u64();
        let unpaced = Bandwidth::bytes_per_sec(1e12);
        let hop_by_hop = EmulatedNetwork::new(cfs.topology(), unpaced, unpaced);
        let (mut legs, mut client_is_r1, mut client_is_r2) = (0, 0, 0);
        for i in 0..48u64 {
            let client = NodeId((i % 12) as u32);
            let id = cfs.write_block(client, cfs.make_block(i)).unwrap();
            let layout = cfs.namenode().locations(id).unwrap();
            let path: Vec<NodeId> = std::iter::once(client).chain(layout.clone()).collect();
            for hop in path.windows(2) {
                hop_by_hop.transfer(hop[0], hop[1], b);
                legs += u64::from(hop[0] != hop[1]);
            }
            client_is_r1 += usize::from(layout[0] == client);
            client_is_r2 += usize::from(layout[1] == client);
        }
        let moved = cfs.network().snapshot();
        assert_eq!(moved, hop_by_hop.snapshot());
        assert_eq!((moved.cross_rack_bytes, moved.intra_rack_bytes), (legs * b, 0));
        assert!(client_is_r1 > 0 && client_is_r2 > 0, "{client_is_r1} free legs, {client_is_r2}");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "times a paced write against real links")]
    fn a_two_way_testbed_write_on_idle_links_takes_one_block_time_not_two() {
        // A twin from the same seed shows where block 0 goes; the timed
        // cluster writes it from a node that holds no replica, so both legs
        // cross racks. Streamed, the write takes about one transfer time
        // (B / 32 MB/s ≈ 66 ms); hop by hop it took two.
        let block_size = ByteSize::mib(2);
        let twin = testbed_shape(block_size, 3);
        let id = twin.write_block(NodeId(0), twin.make_block(0)).unwrap();
        let layout = twin.namenode().locations(id).unwrap();
        let client = twin.topology().nodes().find(|n| !layout.contains(n)).unwrap();
        let cfs = testbed_shape(block_size, 3);
        let data = cfs.make_block(0);
        let start = std::time::Instant::now();
        let id = cfs.write_block(client, data).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(cfs.namenode().locations(id).unwrap(), layout);
        let one_transfer = block_size.as_u64() as f64 / 32e6;
        assert!(
            (0.5 * one_transfer..1.5 * one_transfer).contains(&elapsed),
            "expected ~{one_transfer:.3} s, got {elapsed:.3} s"
        );
    }

    #[test]
    fn read_returns_written_bytes() {
        let cfs = MiniCfs::new(small_cfg(ClusterPolicy::Ear)).unwrap();
        let data = cfs.make_block(7);
        let id = cfs.write_block(NodeId(2), data.clone()).unwrap();
        let back = cfs.read_block(NodeId(5), id).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
    }

    #[test]
    fn wrong_block_size_rejected() {
        let cfs = MiniCfs::new(small_cfg(ClusterPolicy::Rr)).unwrap();
        assert!(cfs.write_block(NodeId(0), vec![0u8; 100]).is_err());
    }

    #[test]
    fn unknown_block_read_fails() {
        let cfs = MiniCfs::new(small_cfg(ClusterPolicy::Rr)).unwrap();
        assert!(cfs.read_block(NodeId(0), BlockId(99)).is_err());
    }

    #[test]
    fn make_block_is_deterministic_and_sized() {
        let cfs = MiniCfs::new(small_cfg(ClusterPolicy::Rr)).unwrap();
        let a = cfs.make_block(1);
        let b = cfs.make_block(1);
        let c = cfs.make_block(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len() as u64, ByteSize::kib(64).as_u64());
    }

    #[test]
    fn rack_storage_accounts_replicas() {
        let cfs = MiniCfs::new(small_cfg(ClusterPolicy::Ear)).unwrap();
        for i in 0..4 {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % 8) as u32), data).unwrap();
        }
        let total: u64 = cfs.rack_storage().iter().sum();
        assert_eq!(total, 4 * 2 * ByteSize::kib(64).as_u64());
    }

    #[test]
    fn a_zero_rack_or_node_count_is_a_typed_error_at_every_boot() {
        let dir = std::env::temp_dir().join(format!("ear-zero-topo-{}", std::process::id()));
        let too_small = |r: Result<MiniCfs>| matches!(r, Err(Error::TopologyTooSmall { .. }));
        for (racks, nodes) in [(0, 1), (8, 0)] {
            let mut cfg = small_cfg(ClusterPolicy::Ear);
            (cfg.racks, cfg.nodes_per_rack) = (racks, nodes);
            assert!(too_small(MiniCfs::new(cfg.clone())));
            assert!(too_small(MiniCfs::with_faults(cfg.clone(), FaultPlan::none())));
            (cfg.store, cfg.durability) = (StoreBackend::Extent, DurabilityConfig::at(&dir));
            assert!(too_small(MiniCfs::reopen(cfg)));
        }
        assert!(!dir.exists(), "nothing is written before the shape is checked");
    }

    #[test]
    fn manifest_first_boot_publishes_durably_and_reopens() {
        // The first-boot MANIFEST goes through write-tmp → fsync → rename
        // → fsync-dir (`Dir::replace_atomically`), so no `.tmp` lingers,
        // the published file validates on reopen, and a shape change is
        // still a hard mismatch.
        let dir = std::env::temp_dir().join(format!(
            "ear-manifest-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_cfg(ClusterPolicy::Ear);
        check_manifest(&dir, &cfg).unwrap();
        assert!(dir.join("MANIFEST").exists());
        assert!(
            !dir.join("MANIFEST.tmp").exists(),
            "publish must leave no temp file behind"
        );
        check_manifest(&dir, &cfg).unwrap();
        let mut other = small_cfg(ClusterPolicy::Rr);
        other.seed = cfg.seed;
        assert!(
            check_manifest(&dir, &other).is_err(),
            "a different shape must be rejected"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
