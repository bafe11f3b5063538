//! The background healer: the acting half of the self-healing control plane
//! (DESIGN.md §8).
//!
//! Each round the [`Healer`] advances the heartbeat clock, scrubs a window
//! of replicas against their write-time CRC32C, rebuilds the
//! [`DegradedTracker`]'s priority queues from cluster metadata, and drains
//! the most urgent repairs under two budgets: a bounded number of in-flight
//! repairs and a per-round repair-traffic byte budget. The repairs themselves
//! run on the cluster's one repair executor,
//! [`recovery::run_repairs`](crate::recovery), all at once under the round
//! deadline: re-replication keeps EAR's invariants (a pending stripe keeps a
//! copy in its core rack; a new copy prefers a rack without one), shard
//! reconstruction respects the ≤ `c` blocks-per-rack and distinct-node
//! constraints.
//!
//! Everything control-plane is driven by the failure detector's view, not
//! the injector's omniscient one: a crashed node is repaired around only
//! once heartbeats have actually declared it dead, so MTTR measured here
//! includes detection latency, as it does in a real cluster.

use crate::cluster::MiniCfs;
use crate::health::{DegradedTracker, HealthTransition, RepairKind, RepairTask};
use crate::recovery::{health_of, run_repairs, RepairView, REPAIR_WIDTH};
use ear_types::crc::crc32c;
use ear_types::{BlockId, Error, HealStats, NodeHealth, NodeId, Result};
use std::collections::HashSet;

/// Heartbeat clock ticks per healer round (heartbeats are much more
/// frequent than repair sweeps, as in HDFS).
const HEARTBEATS_PER_ROUND: usize = 4;
/// Replicas CRC-scrubbed per round (the cursor sweeps all blocks
/// round-robin).
const SCRUB_PER_ROUND: usize = 64;
/// Virtual-clock deadline (ticks) for each repair admitted in a round. A
/// repair that blows it fails typed ([`Error::DeadlineExceeded`]) and is
/// re-queued by the next round's scan; a cluster that can never make the
/// deadline surfaces as [`Error::HealerStalled`] once the round budget runs
/// out, instead of one repair hanging a round forever.
const ROUND_DEADLINE_TICKS: u64 = 5_000_000;

/// Budgets of the background healer.
#[derive(Debug, Clone)]
pub struct HealerConfig {
    /// Per-round repair-traffic budget in bytes. At least one repair is
    /// always admitted so the healer keeps making progress.
    pub round_byte_budget: u64,
    /// Rounds after which [`Healer::run_to_convergence`] gives up with
    /// [`Error::HealerStalled`].
    pub max_rounds: usize,
}

impl Default for HealerConfig {
    fn default() -> Self {
        HealerConfig {
            round_byte_budget: 16 << 20,
            max_rounds: 64,
        }
    }
}

/// What one healer round observed and did.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// 1-based round index.
    pub round: usize,
    /// Health transitions caused by this round's heartbeat ticks.
    pub transitions: Vec<HealthTransition>,
    /// Degraded tasks found by this round's metadata scan.
    pub queued: usize,
    /// Repairs completed this round.
    pub repaired: usize,
    /// Repairs attempted and failed this round (they are re-queued by the
    /// next round's scan).
    pub failed: usize,
    /// Corrupt (or missing) replicas the scrubber dropped this round.
    pub scrub_hits: usize,
    /// Tasks left for later rounds (budget exhaustion or failures).
    pub outstanding: usize,
    /// Blocks with no live source at all — beyond the redundancy scheme's
    /// tolerance; the healer cannot repair them.
    pub beyond_tolerance: usize,
}

/// The background repair scheduler. Create one per healing run; it keeps
/// cross-round state (scrub cursor, scrub-discovered bad copies, MTTR
/// episodes) and accumulates a [`HealStats`].
pub struct Healer<'a> {
    cfs: &'a MiniCfs,
    cfg: HealerConfig,
    scrub_cursor: u64,
    known_bad: HashSet<(NodeId, BlockId)>,
    stats: HealStats,
    rounds: usize,
    clean_rounds: usize,
    /// Round in which the current degraded episode was first observed.
    episode: Option<usize>,
    beyond_tolerance: Vec<BlockId>,
}

impl<'a> Healer<'a> {
    /// A healer over `cfs` with default budgets.
    pub fn new(cfs: &'a MiniCfs) -> Self {
        Self::with_config(cfs, HealerConfig::default())
    }

    /// A healer over `cfs` with explicit budgets.
    pub fn with_config(cfs: &'a MiniCfs, cfg: HealerConfig) -> Self {
        Healer {
            cfs,
            cfg,
            scrub_cursor: 0,
            known_bad: HashSet::new(),
            stats: HealStats {
                fault_seed: cfs.fault_seed(),
                ..HealStats::default()
            },
            rounds: 0,
            clean_rounds: 0,
            episode: None,
            beyond_tolerance: Vec::new(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &HealStats {
        &self.stats
    }

    /// Blocks the latest scan found unrepairable (no live, uncorrupted
    /// source anywhere) — typically unacknowledged writes whose only
    /// landed replica died.
    pub fn beyond_tolerance(&self) -> &[BlockId] {
        &self.beyond_tolerance
    }

    /// Runs one healer round: heartbeats, scrub window, metadata scan,
    /// budgeted repair drain.
    ///
    /// # Errors
    ///
    /// [`Error::LockPoisoned`] if the failure detector's lock was poisoned
    /// by a panicked thread.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        self.rounds += 1;
        let mut report = RoundReport {
            round: self.rounds,
            ..RoundReport::default()
        };

        // 1. Heartbeats: the detector's clock runs several times faster
        // than the repair sweep.
        for _ in 0..HEARTBEATS_PER_ROUND {
            report.transitions.extend(self.cfs.heartbeat_tick()?);
        }
        self.stats.nodes_declared_dead += report
            .transitions
            .iter()
            .filter(|t| t.to == NodeHealth::Dead)
            .count();
        let snapshot = self.cfs.health_snapshot()?;

        // 2. Scrub a window of replicas. A corrupt (or silently missing)
        // copy is dropped from the location map so the scan below queues
        // its repair; the (node, block) pair is remembered so repair never
        // places a copy back onto storage known to corrupt it.
        report.scrub_hits = self.scrub_window(&snapshot)?;

        // 3. Rebuild the degraded-state queues from metadata.
        let mut tracker = DegradedTracker::scan(self.cfs, &snapshot, &self.known_bad);
        report.queued = tracker.len();
        report.beyond_tolerance = tracker.beyond_tolerance.len();
        self.beyond_tolerance = std::mem::take(&mut tracker.beyond_tolerance);
        if report.queued > 0 {
            self.episode.get_or_insert(self.rounds);
        } else if let Some(round0) = self.episode.take() {
            let rounds = self.rounds - round0;
            self.stats.mttr_rounds = Some(self.stats.mttr_rounds.map_or(rounds, |m| m.max(rounds)));
        }

        // 4. Admit the most urgent tasks under both budgets, then run them
        // side by side on the repair executor. A task popped past the byte
        // budget is simply dropped: the next round's scan re-finds it.
        let bs = self.cfs.config().block_size.as_u64();
        let k = self.cfs.codec().params().k() as u64;
        let mut planned: Vec<RepairTask> = Vec::new();
        let mut est = 0u64;
        while planned.len() < REPAIR_WIDTH {
            let Some(task) = tracker.pop() else { break };
            let cost = match task.kind {
                RepairKind::ReReplicate { have, want } => {
                    want.saturating_sub(have) as u64 * bs
                }
                RepairKind::Reconstruct { .. } => (k + 1) * bs,
            };
            if !planned.is_empty() && est + cost > self.cfg.round_byte_budget {
                report.outstanding += 1;
                break;
            }
            est += cost;
            planned.push(task);
        }
        report.outstanding += tracker.len();

        // Sources may include Suspect nodes (the data path can still reach
        // them); destinations and recovery nodes must be trusted and not
        // known to corrupt the block.
        let view = RepairView {
            health: &snapshot,
            known_bad: &self.known_bad,
        };
        let (outcomes, _) = run_repairs(self.cfs, &planned, &view, Some(ROUND_DEADLINE_TICKS));
        for outcome in outcomes {
            match outcome {
                Ok(repair) => {
                    if repair.reconstructed {
                        self.stats.shards_reconstructed += 1;
                    } else {
                        self.stats.blocks_re_replicated += 1;
                    }
                    let moved = repair.downloads + repair.uploads;
                    let crossed = repair.cross_rack_downloads + repair.cross_rack_uploads;
                    self.stats.repair_bytes += moved as u64 * bs;
                    self.stats.cross_rack_repair_bytes += crossed as u64 * bs;
                    report.repaired += 1;
                }
                Err(_) => {
                    report.failed += 1;
                    report.outstanding += 1;
                }
            }
        }
        if report.queued > 0 || report.scrub_hits > 0 {
            self.clean_rounds = 0;
        }
        Ok(report)
    }

    /// Runs rounds until the cluster is verifiably back at full redundancy:
    /// no degraded tasks, no new scrub hits for a full scrub sweep, and no
    /// node in a transient (`Suspect`/`Rejoined`) state. Returns the
    /// accumulated statistics, MTTR included.
    ///
    /// # Errors
    ///
    /// [`Error::HealerStalled`] if the round budget runs out with repairs
    /// still outstanding (the partial [`HealStats`] stay readable through
    /// [`Healer::stats`]).
    pub fn run_to_convergence(&mut self) -> Result<HealStats> {
        loop {
            if self.rounds >= self.cfg.max_rounds {
                self.finalize(false);
                let outstanding =
                    DegradedTracker::scan(self.cfs, &self.cfs.health_snapshot()?, &self.known_bad)
                        .len();
                return Err(Error::HealerStalled {
                    rounds: self.rounds,
                    outstanding,
                });
            }
            let report = self.run_round()?;
            if report.queued == 0 && report.scrub_hits == 0 {
                self.clean_rounds += 1;
            }
            let blocks = self.cfs.namenode().block_count().max(1);
            let sweep = blocks.div_ceil(SCRUB_PER_ROUND as u64) as usize;
            let settled = self
                .cfs
                .health_snapshot()?
                .iter()
                .all(|&h| matches!(h, NodeHealth::Live | NodeHealth::Dead));
            if self.clean_rounds >= sweep && settled {
                self.finalize(true);
                return Ok(self.stats.clone());
            }
        }
    }

    fn finalize(&mut self, converged: bool) {
        self.stats.rounds = self.rounds;
        self.stats.converged = converged;
        self.stats.breaker_trips = self.cfs.reliability().stats().breaker_trips;
    }

    /// CRC32C-scrubs the next window of blocks. Scrubbing is local disk
    /// I/O on each DataNode (no network), so it is not charged against the
    /// repair byte budget. Returns the number of replicas dropped.
    fn scrub_window(&mut self, snapshot: &[NodeHealth]) -> Result<usize> {
        let total = self.cfs.namenode().block_count();
        if total == 0 {
            return Ok(0);
        }
        let window = (SCRUB_PER_ROUND as u64).min(total);
        let mut hits = 0usize;
        for i in 0..window {
            let b = BlockId((self.scrub_cursor + i) % total);
            let Some(locs) = self.cfs.namenode().locations(b) else {
                continue;
            };
            for h in locs {
                if health_of(snapshot, h) == NodeHealth::Dead {
                    continue;
                }
                self.stats.blocks_scrubbed += 1;
                let bad = match self.cfs.datanode(h).get_with_crc(b) {
                    // A local read of a sticky-corrupt copy returns flipped
                    // bits; its checksum file no longer matches.
                    Some((data, crc)) => {
                        self.cfs.injector().corrupts(h, b) || crc32c(&data) != crc
                    }
                    // Metadata points at a copy the node no longer has.
                    None => true,
                };
                if bad {
                    self.known_bad.insert((h, b));
                    self.cfs.namenode().drop_location(b, h)?;
                    self.cfs.datanode(h).delete(b);
                    self.stats.scrub_hits += 1;
                    hits += 1;
                }
            }
        }
        self.scrub_cursor = (self.scrub_cursor + window) % total;
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterPolicy};
    use crate::monitor;
    use crate::raidnode::RaidNode;
    use crate::recovery::recover_node;
    use crate::reliability::OpClass;
    use ear_faults::{FaultConfig, FaultPlan};
    use ear_types::{
        Bandwidth, ByteSize, CacheConfig, EarConfig, ErasureParams, ReplicationConfig,
        StoreBackend,
    };

    fn config(seed: u64) -> ClusterConfig {
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        ClusterConfig {
            racks: 8,
            nodes_per_rack: 2,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(512e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
            ear,
            policy: ClusterPolicy::Ear,
            seed,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        }
    }

    /// Writes blocks from live clients; returns the acknowledged
    /// `(block, payload tag)` pairs (a write may fail when its pipeline
    /// crosses a crashed node).
    fn write_blocks(cfs: &MiniCfs, count: usize) -> Vec<(BlockId, u64)> {
        let clients: Vec<NodeId> = cfs
            .topology()
            .nodes()
            .filter(|&n| !cfs.injector().node_down(n))
            .collect();
        let mut acked = Vec::new();
        for i in 0..count {
            let tag = i as u64;
            let data = cfs.make_block(tag);
            if let Ok(id) = cfs.write_block(clients[i % clients.len()], data) {
                acked.push((id, tag));
            }
        }
        acked
    }

    #[test]
    fn healer_converges_on_a_healthy_cluster() {
        let cfs = MiniCfs::new(config(21)).unwrap();
        write_blocks(&cfs, 8);
        let stats = Healer::new(&cfs).run_to_convergence().unwrap();
        assert!(stats.converged);
        assert_eq!(stats.blocks_re_replicated, 0);
        assert_eq!(stats.shards_reconstructed, 0);
        assert_eq!(stats.scrub_hits, 0);
        assert!(stats.mttr_rounds.is_none(), "nothing ever degraded");
        assert!(stats.blocks_scrubbed > 0, "scrubber must have run");
    }

    #[test]
    fn healer_restores_redundancy_after_a_crash() {
        // One node is down from the very first operation; writes that lose
        // the race are unacknowledged, and encode keeps stripes within the
        // n - k budget. The healer must detect the dead node via missed
        // heartbeats and bring every acknowledged block back to full
        // redundancy.
        let cfg = config(22);
        let plan = FaultPlan::generate(
            9,
            &ear_types::ClusterTopology::uniform(cfg.racks, cfg.nodes_per_rack),
            &FaultConfig {
                straggler_delay: ear_faults::DelayModel::Throttle,
                node_crashes: 1,
                rack_outages: 0,
                stragglers: 0,
                straggler_factor: 1.0,
                transient_error_rate: 0.0,
                corruption_rate: 0.0,
                heartbeat_loss_rate: 0.0,
                crash_window: 1,
            },
        );
        let crashed = plan.crashes()[0].node;
        let cfs = MiniCfs::with_faults(cfg, plan).unwrap();
        let acked = write_blocks(&cfs, 24);
        assert!(!acked.is_empty());
        RaidNode::encode_all(&cfs, 4).unwrap();

        let mut healer = Healer::new(&cfs);
        let stats = healer.run_to_convergence().unwrap();
        assert!(stats.converged);
        assert_eq!(cfs.node_health(crashed).unwrap(), NodeHealth::Dead);
        assert!(stats.nodes_declared_dead >= 1);
        assert!(stats.mttr_rounds.is_some(), "a degraded episode happened");
        assert!(stats.rounds <= HealerConfig::default().max_rounds);

        // Every acknowledged block reads back byte-for-byte, from a live
        // node, without touching the dead one.
        let reader = cfs
            .topology()
            .nodes()
            .find(|&n| !cfs.injector().node_down(n))
            .unwrap();
        for &(b, tag) in &acked {
            let locs = cfs.namenode().locations(b).unwrap();
            assert!(!locs.contains(&crashed), "{b} still mapped to dead node");
            let data = cfs.read_block(reader, b).unwrap();
            assert_eq!(
                data.as_slice(),
                cfs.make_block(tag).as_slice(),
                "{b} corrupted"
            );
        }
        // Healed placements keep the monitor happy.
        assert!(monitor::scan(&cfs).is_empty());
    }

    #[test]
    fn a_stamp_never_hides_rot_from_the_scrubber_or_an_uncached_read() {
        // Producers trust the stamp, verifiers hash: every replica below
        // was stored from a stamped handle, and two of them then rot under
        // their unchanged stored CRC.
        let mut cfg = config(29);
        cfg.ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap();
        cfg.store = StoreBackend::Memory;
        cfg.cache = CacheConfig::Sized {
            hot_bytes: 1 << 20,
            cold_bytes: 1 << 20,
        };
        let cfs = MiniCfs::new(cfg).unwrap();
        let good = cfs.make_block(5);
        let id = cfs.write_block(NodeId(0), good.clone()).unwrap();
        let locs = cfs.namenode().locations(id).unwrap();
        let (cached, uncached) = (locs[0], locs[1]);
        assert!(cfs.datanode(uncached).get(id).unwrap().stamp().is_some());

        // A verified read admits `cached`'s copy into its block cache.
        let reader = locs[2];
        let ctx = cfs.reliability().ctx(OpClass::ClientRead).unwrap();
        let fetch = |src| cfs.io().fetch_from(&ctx, src, reader, id, 0);
        assert_eq!(fetch(cached).unwrap().as_slice(), &good[..]);
        let mut rotten = good.clone();
        rotten[33] ^= 0xFF;
        cfs.datanode(cached).rot(id, rotten.clone());
        cfs.datanode(uncached).rot(id, rotten);

        // An uncached read hashes what the store returned and rejects it.
        let err = fetch(uncached).unwrap_err();
        assert!(matches!(err, Error::CorruptBlock { block, node }
            if block == id && node == uncached));
        // The cache keeps serving the bytes it verified before the rot...
        assert_eq!(fetch(cached).unwrap().as_slice(), &good[..]);
        // ...and the scrubber, which reads the store, drops both rotten
        // replicas; the healer re-replicates from the one good copy.
        let stats = Healer::new(&cfs).run_to_convergence().unwrap();
        assert!(stats.converged);
        assert_eq!(stats.scrub_hits, 2);
        let healed = cfs.namenode().locations(id).unwrap();
        assert_eq!(healed.len(), 3);
        for n in healed {
            let (data, crc) = cfs.datanode(n).get_with_crc(id).unwrap();
            assert_eq!(data.as_slice(), &good[..], "{n}");
            assert_eq!(crc32c(&data), crc);
        }
    }

    #[test]
    fn scrubber_finds_and_heals_silent_corruption() {
        let cfg = config(23);
        let plan = FaultPlan::generate(
            41,
            &ear_types::ClusterTopology::uniform(cfg.racks, cfg.nodes_per_rack),
            &FaultConfig {
                straggler_delay: ear_faults::DelayModel::Throttle,
                node_crashes: 0,
                rack_outages: 0,
                stragglers: 0,
                straggler_factor: 1.0,
                transient_error_rate: 0.0,
                corruption_rate: 0.12,
                heartbeat_loss_rate: 0.0,
                crash_window: 1,
            },
        );
        let cfs = MiniCfs::with_faults(cfg, plan).unwrap();
        let acked = write_blocks(&cfs, 16);
        assert_eq!(acked.len(), 16, "no crashes: every write acknowledged");

        let mut healer = Healer::new(&cfs);
        let stats = healer.run_to_convergence().unwrap();
        assert!(stats.converged);
        assert!(stats.scrub_hits > 0, "12% corruption must hit something");
        assert_eq!(stats.scrub_hits, healer.known_bad.len());
        // After healing, every remaining location serves clean bytes.
        for &(b, tag) in &acked {
            let reader = NodeId((tag % cfs.topology().num_nodes() as u64) as u32);
            let data = cfs.read_block(reader, b).unwrap();
            assert_eq!(data.as_slice(), cfs.make_block(tag).as_slice());
        }
    }

    #[test]
    fn byte_budget_spreads_repairs_over_rounds() {
        // Budget of one block per round: repairs trickle, but everything
        // still converges; outstanding work is reported along the way.
        let cfg = config(24);
        let plan = FaultPlan::generate(
            9,
            &ear_types::ClusterTopology::uniform(cfg.racks, cfg.nodes_per_rack),
            &FaultConfig {
                straggler_delay: ear_faults::DelayModel::Throttle,
                node_crashes: 1,
                rack_outages: 0,
                stragglers: 0,
                straggler_factor: 1.0,
                transient_error_rate: 0.0,
                corruption_rate: 0.0,
                heartbeat_loss_rate: 0.0,
                crash_window: 1,
            },
        );
        let cfs = MiniCfs::with_faults(cfg, plan).unwrap();
        write_blocks(&cfs, 16);
        let tight = HealerConfig {
            round_byte_budget: ByteSize::kib(64).as_u64(),
            max_rounds: 128,
        };
        let mut healer = Healer::with_config(&cfs, tight);
        let stats = healer.run_to_convergence().unwrap();
        assert!(stats.converged);
        let wide = stats.blocks_re_replicated;
        // The same cluster healed with a wide budget repairs the same set.
        let cfs2 = {
            let cfg = config(24);
            let plan = FaultPlan::generate(
                9,
                &ear_types::ClusterTopology::uniform(cfg.racks, cfg.nodes_per_rack),
                &FaultConfig {
                    straggler_delay: ear_faults::DelayModel::Throttle,
                    node_crashes: 1,
                    rack_outages: 0,
                    stragglers: 0,
                    straggler_factor: 1.0,
                    transient_error_rate: 0.0,
                    corruption_rate: 0.0,
                    heartbeat_loss_rate: 0.0,
                    crash_window: 1,
                },
            );
            MiniCfs::with_faults(cfg, plan).unwrap()
        };
        write_blocks(&cfs2, 16);
        let stats2 = Healer::new(&cfs2).run_to_convergence().unwrap();
        assert!(stats2.converged);
        assert_eq!(wide, stats2.blocks_re_replicated);
    }

    #[test]
    fn healer_preserves_core_rack_copy_for_pending_stripes() {
        // A node holding core-rack copies of pending stripes loses them,
        // and the loss is repaired through each entry point of the repair
        // scheduler. Either way EAR's pre-encoding invariant must survive:
        // every block of every pending stripe keeps a copy in its stripe's
        // core rack, so encoding still moves nothing across racks.
        for seed in 25..33 {
            for through_healer in [true, false] {
                let cfs = MiniCfs::new(config(seed)).unwrap();
                let topo = cfs.topology();
                let nodes = topo.num_nodes() as u64;
                let mut i = 0u64;
                while cfs.namenode().pending_stripe_count() < 2 {
                    let data = cfs.make_block(i);
                    cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
                    i += 1;
                }
                let pending = cfs.namenode().pending_stripes();
                let core = pending[0]
                    .plan
                    .core_rack()
                    .expect("EAR stripes have a core");
                let victim = cfs
                    .namenode()
                    .locations(pending[0].blocks[0])
                    .unwrap()
                    .into_iter()
                    .find(|&n| topo.rack_of(n) == core)
                    .expect("EAR keeps a core-rack copy");

                if through_healer {
                    // The copies vanish silently; the scan finds the blocks
                    // one replica short.
                    for b in (0..cfs.namenode().block_count()).map(BlockId) {
                        if cfs.namenode().drop_location(b, victim).unwrap() {
                            cfs.datanode(victim).delete(b);
                        }
                    }
                    let stats = Healer::new(&cfs).run_to_convergence().unwrap();
                    assert!(stats.converged);
                    assert!(stats.blocks_re_replicated >= 1);
                } else {
                    let stats = recover_node(&cfs, victim).unwrap();
                    assert!(stats.blocks_recovered >= 1);
                }

                let entry = if through_healer {
                    "healer"
                } else {
                    "recover_node"
                };
                for stripe in &pending {
                    let core = stripe.plan.core_rack().expect("EAR stripes have a core");
                    for &b in &stripe.blocks {
                        let healed = cfs.namenode().locations(b).unwrap();
                        assert_eq!(healed.len(), 2, "seed {seed} {entry}: {b}");
                        assert!(
                            healed.iter().any(|&n| topo.rack_of(n) == core),
                            "seed {seed} {entry}: {b} lost its copy in core rack {core}"
                        );
                    }
                }
                let (stats, relocations) = RaidNode::encode_all(&cfs, 4).unwrap();
                assert_eq!(stats.stripes, pending.len());
                assert_eq!(stats.cross_rack_downloads, 0, "seed {seed} {entry}");
                assert!(relocations.is_empty(), "seed {seed} {entry}");
            }
        }
    }
}
