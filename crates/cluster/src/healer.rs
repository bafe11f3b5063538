//! The background healer: the acting half of the self-healing control plane
//! (DESIGN.md §8).
//!
//! Each round the [`Healer`] advances the heartbeat clock, scrubs a window
//! of replicas against their write-time CRC32C, rebuilds the
//! [`DegradedTracker`]'s priority queues from cluster metadata, and drains
//! the most urgent repairs under two budgets: a bounded number of in-flight
//! repairs and a per-round repair-traffic byte budget. Re-replication keeps
//! EAR's invariants (a pending stripe keeps a copy in its core rack; a new
//! copy prefers a rack without one); shard reconstruction reuses the
//! degraded-read path of [`recovery`](crate::recovery), which respects the
//! ≤ `c` blocks-per-rack and distinct-node constraints.
//!
//! Everything control-plane is driven by the failure detector's view, not
//! the injector's omniscient one: a crashed node is repaired around only
//! once heartbeats have actually declared it dead, so MTTR measured here
//! includes detection latency, as it does in a real cluster.

use crate::cluster::MiniCfs;
use crate::health::{DegradedTracker, HealthTransition, RepairKind, RepairTask};
use crate::recovery::reconstruct_stripe_block;
use crate::reliability::{OpClass, OpContext};
use ear_faults::crc32c;
use ear_types::rng::ChaCha8;
use ear_types::{BlockId, Error, HealStats, NodeHealth, NodeId, RackId, Result, StripeId};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Budgets and pacing of the background healer.
#[derive(Debug, Clone)]
pub struct HealerConfig {
    /// Heartbeat clock ticks per healer round (heartbeats are much more
    /// frequent than repair sweeps, as in HDFS).
    pub heartbeats_per_round: usize,
    /// Maximum repairs in flight at once (bounded concurrency).
    pub max_repairs_per_round: usize,
    /// Per-round repair-traffic budget in bytes. At least one repair is
    /// always admitted so the healer keeps making progress.
    pub round_byte_budget: u64,
    /// Replicas CRC-scrubbed per round (cursor sweeps all blocks
    /// round-robin).
    pub scrub_per_round: usize,
    /// Rounds after which [`Healer::run_to_convergence`] gives up with
    /// [`Error::HealerStalled`].
    pub max_rounds: usize,
    /// Virtual-clock deadline (ticks) for each repair admitted in a round.
    /// A repair that blows it fails typed ([`Error::DeadlineExceeded`]) and
    /// is re-queued by the next round's scan; a cluster that can never make
    /// the deadline surfaces as [`Error::HealerStalled`] once `max_rounds`
    /// runs out, instead of one repair hanging a round forever.
    pub round_deadline_ticks: u64,
}

impl Default for HealerConfig {
    fn default() -> Self {
        HealerConfig {
            heartbeats_per_round: 4,
            max_repairs_per_round: 8,
            round_byte_budget: 16 << 20,
            scrub_per_round: 64,
            max_rounds: 64,
            round_deadline_ticks: 5_000_000,
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
    episode: Option<(usize, Instant)>,
    beyond_tolerance: Vec<BlockId>,
    started: Instant,
}

struct RoundCtx<'a> {
    snapshot: &'a [NodeHealth],
    known_bad: &'a HashSet<(NodeId, BlockId)>,
    core_racks: &'a HashMap<BlockId, RackId>,
    members_of: &'a HashMap<StripeId, Vec<BlockId>>,
    round_deadline_ticks: u64,
}

struct RepairOutcome {
    re_replicated: bool,
    bytes: u64,
    cross_rack_bytes: u64,
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
            started: Instant::now(),
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
        for _ in 0..self.cfg.heartbeats_per_round.max(1) {
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
        if report.queued > 0 && self.episode.is_none() {
            self.episode = Some((self.rounds, Instant::now()));
        }
        if report.queued == 0 {
            if let Some((round0, t0)) = self.episode.take() {
                let rounds = self.rounds - round0;
                self.stats.mttr_rounds =
                    Some(self.stats.mttr_rounds.map_or(rounds, |m| m.max(rounds)));
                let secs = t0.elapsed().as_secs_f64();
                self.stats.mttr_seconds =
                    Some(self.stats.mttr_seconds.map_or(secs, |m| m.max(secs)));
            }
        }

        // 4. Admit the most urgent tasks under both budgets, then execute
        // them with bounded concurrency. A task popped past the byte budget
        // is simply dropped: the next round's scan re-finds it.
        let bs = self.cfs.config().block_size.as_u64();
        let k = self.cfs.codec().params().k() as u64;
        let mut planned: Vec<RepairTask> = Vec::new();
        let mut est = 0u64;
        while planned.len() < self.cfg.max_repairs_per_round.max(1) {
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

        let core_racks = pending_core_racks(self.cfs);
        let members_of: HashMap<StripeId, Vec<BlockId>> = self
            .cfs
            .namenode()
            .encoded_stripes()
            .into_iter()
            .map(|es| {
                let members = es.data.iter().chain(es.parity.iter()).copied().collect();
                (es.id, members)
            })
            .collect();
        let ctx = RoundCtx {
            snapshot: &snapshot,
            known_bad: &self.known_bad,
            core_racks: &core_racks,
            members_of: &members_of,
            round_deadline_ticks: self.cfg.round_deadline_ticks,
        };
        let cfs = self.cfs;
        let seed = cfs.config().seed;
        // Reconstructions of the same stripe must not race: each reads the
        // stripe's current rack spread before placing, so two concurrent
        // repairs could both land in a rack with one slot left. Group
        // same-stripe tasks onto one worker (in queue order); everything
        // else still runs concurrently.
        let mut groups: Vec<Vec<RepairTask>> = Vec::new();
        let mut stripe_group: HashMap<StripeId, usize> = HashMap::new();
        for task in planned {
            match task.kind {
                RepairKind::Reconstruct { stripe } => match stripe_group.get(&stripe) {
                    Some(&g) => match groups.get_mut(g) {
                        Some(group) => group.push(task),
                        // Defensive: a corrupt group index must not panic the
                        // healer — run the task on its own worker instead.
                        None => groups.push(vec![task]),
                    },
                    None => {
                        stripe_group.insert(stripe, groups.len());
                        groups.push(vec![task]);
                    }
                },
                RepairKind::ReReplicate { .. } => groups.push(vec![task]),
            }
        }
        let outcomes: Vec<Result<RepairOutcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .iter()
                .map(|group| {
                    let ctx = &ctx;
                    s.spawn(move || {
                        group
                            .iter()
                            .map(|&task| execute_repair(cfs, task, ctx, seed))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&groups)
                .flat_map(|(h, group)| {
                    h.join().unwrap_or_else(|_| {
                        group
                            .iter()
                            .map(|_| Err(Error::Invariant("repair worker panicked".into())))
                            .collect()
                    })
                })
                .collect()
        });
        for outcome in outcomes {
            match outcome {
                Ok(o) => {
                    if o.re_replicated {
                        self.stats.blocks_re_replicated += 1;
                    } else {
                        self.stats.shards_reconstructed += 1;
                    }
                    self.stats.repair_bytes += o.bytes;
                    self.stats.cross_rack_repair_bytes += o.cross_rack_bytes;
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
            let sweep = blocks.div_ceil(self.cfg.scrub_per_round.max(1) as u64) as usize;
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
        self.stats.wall_seconds = self.started.elapsed().as_secs_f64();
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
        let window = self.cfg.scrub_per_round.min(total as usize) as u64;
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

/// Health of `nd` in a round snapshot. Nodes outside the snapshot cannot
/// occur for ids minted by the topology, but a data-plane lookup must not
/// panic on one — an unknown node reads as `Dead` (unusable as source or
/// destination), which is also what fallback does with it.
fn health_of(snapshot: &[NodeHealth], nd: NodeId) -> NodeHealth {
    snapshot.get(nd.index()).copied().unwrap_or(NodeHealth::Dead)
}

/// Core racks of every block still in a pending (pre-encoding) stripe:
/// re-replication must keep one copy there or the stripe's encoding plan
/// loses its rack-local sources.
fn pending_core_racks(cfs: &MiniCfs) -> HashMap<BlockId, RackId> {
    let mut map = HashMap::new();
    for stripe in cfs.namenode().pending_stripes() {
        if let Some(core) = stripe.plan.core_rack() {
            for &b in &stripe.blocks {
                map.insert(b, core);
            }
        }
    }
    map
}

/// Executes one repair task. Runs on a worker thread; all shared state is
/// behind the NameNode/DataNode locks, and the RNG is seeded per block so
/// outcomes do not depend on worker interleaving.
fn execute_repair(
    cfs: &MiniCfs,
    task: RepairTask,
    ctx: &RoundCtx<'_>,
    seed: u64,
) -> Result<RepairOutcome> {
    let mut rng = ChaCha8::from_seed(seed ^ task.block.0.wrapping_mul(0x9E37) ^ 0x4EA1);
    // Every repair runs as a Heal-class op under the round deadline: the
    // admission gate may shed it under load, and a straggling repair fails
    // typed instead of hanging the round.
    let op = cfs
        .reliability()
        .ctx_with_deadline(OpClass::Heal, ctx.round_deadline_ticks)?;
    match task.kind {
        RepairKind::ReReplicate { want, .. } => {
            re_replicate(cfs, &op, task.block, want, ctx, &mut rng)
        }
        RepairKind::Reconstruct { stripe } => {
            let members = ctx
                .members_of
                .get(&stripe)
                .ok_or_else(|| Error::Invariant(format!("{stripe} not in encoded map")))?;
            let bs = cfs.config().block_size.as_u64();
            let block = task.block;
            // Sources may include Suspect nodes (the data path can still
            // reach them); destinations must be trusted and not known to
            // corrupt this block.
            let live = |nd: NodeId| health_of(ctx.snapshot, nd) != NodeHealth::Dead;
            let bad_dst = |nd: NodeId| {
                ctx.known_bad.contains(&(nd, block))
                    || health_of(ctx.snapshot, nd) == NodeHealth::Suspect
            };
            let repair =
                reconstruct_stripe_block(cfs, &op, members, block, &live, &bad_dst, &mut rng)?;
            let uploads = usize::from(repair.uploaded);
            Ok(RepairOutcome {
                re_replicated: false,
                bytes: (repair.downloads + uploads) as u64 * bs,
                cross_rack_bytes: (repair.cross_rack_downloads
                    + usize::from(repair.upload_cross_rack)) as u64
                    * bs,
            })
        }
    }
}

/// Brings a replicated block back to `want` live copies, copying from the
/// healthiest available source and placing onto nodes that preserve the
/// block's rack spread (and its pending stripe's core-rack copy).
fn re_replicate(
    cfs: &MiniCfs,
    op: &OpContext<'_>,
    block: BlockId,
    want: usize,
    ctx: &RoundCtx<'_>,
    rng: &mut ChaCha8,
) -> Result<RepairOutcome> {
    let nn = cfs.namenode();
    let topo = cfs.topology();
    let bs = cfs.config().block_size.as_u64();
    let locs = nn
        .locations(block)
        .ok_or(Error::BlockUnavailable { block })?;
    let mut holders: Vec<NodeId> = Vec::new();
    for h in locs {
        if health_of(ctx.snapshot, h) == NodeHealth::Dead {
            // The detector declared the holder lost; retire the location
            // (its bytes, if any, are unreachable).
            nn.drop_location(block, h)?;
        } else if !ctx.known_bad.contains(&(h, block)) {
            holders.push(h);
        }
    }
    if holders.is_empty() {
        return Err(Error::BlockUnavailable { block });
    }
    // Prefer fully-trusted sources; Suspect holders are last resort.
    holders.sort_by_key(|h| (health_of(ctx.snapshot, *h) == NodeHealth::Suspect, h.0));
    let core = ctx.core_racks.get(&block).copied();
    let mut outcome = RepairOutcome {
        re_replicated: true,
        bytes: 0,
        cross_rack_bytes: 0,
    };
    while holders.len() < want {
        let have_racks: HashSet<RackId> = holders.iter().map(|&h| topo.rack_of(h)).collect();
        let trusted = |nd: NodeId| {
            matches!(
                health_of(ctx.snapshot, nd),
                NodeHealth::Live | NodeHealth::Rejoined
            )
        };
        let candidates: Vec<NodeId> = topo
            .nodes()
            .filter(|&nd| {
                trusted(nd) && !holders.contains(&nd) && !ctx.known_bad.contains(&(nd, block))
            })
            .collect();
        if candidates.is_empty() {
            return Err(Error::NoRepairDestination { block });
        }
        let preferred: Vec<NodeId> = match core {
            // EAR invariant first: a block of a pending stripe must keep a
            // copy in its core rack.
            Some(core_rack) if !have_racks.contains(&core_rack) => candidates
                .iter()
                .copied()
                .filter(|&nd| topo.rack_of(nd) == core_rack)
                .collect(),
            // Otherwise spread across racks without a copy.
            _ => candidates
                .iter()
                .copied()
                .filter(|&nd| !have_racks.contains(&topo.rack_of(nd)))
                .collect(),
        };
        let pool = if preferred.is_empty() {
            &candidates
        } else {
            &preferred
        };
        let dst = rng
            .choose(pool)
            .copied()
            .ok_or(Error::NoRepairDestination { block })?;
        let (data, src) = cfs
            .io()
            .read_with_fallback(op, dst, block, &holders, None, None)?;
        cfs.datanode(dst).put(block, data)?;
        nn.add_location(block, dst)?;
        outcome.bytes += bs;
        if topo.rack_of(src) != topo.rack_of(dst) {
            outcome.cross_rack_bytes += bs;
        }
        holders.push(dst);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterPolicy};
    use crate::monitor;
    use crate::raidnode::RaidNode;
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
            reliability: Default::default(),
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
            ..HealerConfig::default()
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
        // Write fewer blocks than a stripe so they stay pending, then
        // knock out the core-rack copy of one block and heal. The healed
        // placement must restore a copy in the stripe's core rack.
        let cfs = MiniCfs::new(config(25)).unwrap();
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < 1 {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
            i += 1;
        }
        let stripe = &cfs.namenode().pending_stripes()[0];
        let core = stripe.plan.core_rack().expect("EAR stripes have a core");
        let block = stripe.blocks[0];
        let core_copy = cfs
            .namenode()
            .locations(block)
            .unwrap()
            .into_iter()
            .find(|&n| cfs.topology().rack_of(n) == core)
            .expect("EAR keeps a core-rack copy");
        cfs.datanode(core_copy).delete(block);
        cfs.namenode().drop_location(block, core_copy).unwrap();

        let stats = Healer::new(&cfs).run_to_convergence().unwrap();
        assert!(stats.converged);
        assert!(stats.blocks_re_replicated >= 1);
        let healed = cfs.namenode().locations(block).unwrap();
        assert_eq!(healed.len(), 2);
        assert!(
            healed.iter().any(|&n| cfs.topology().rack_of(n) == core),
            "healed layout must keep a copy in core rack {core}"
        );
    }
}
