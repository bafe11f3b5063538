//! Failure recovery: the one repair scheduler (DESIGN.md §8, §15).
//!
//! After encoding, each block of a stripe has exactly one copy. When a node
//! fails, every block it held must be rebuilt by downloading `k` surviving
//! blocks of its stripe and decoding (Section III-D of the paper). The
//! cross-rack cost of that download is what EAR's `c > 1` / target-racks
//! variant trades fault tolerance against: with `c` blocks of a stripe per
//! rack, a recovery node co-located with surviving stripe blocks can fetch
//! `c - 1` of its `k` inputs intra-rack.
//!
//! Every repair in the cluster is a [`RepairTask`] drained by
//! [`run_repairs`] under a [`RepairView`]: [`recover_node`] lists the blocks
//! of one failed node and runs them to completion, the background
//! [`Healer`](crate::healer::Healer) lists what the failure detector reports
//! and runs what each round admits under the round deadline. Where each
//! rebuild runs is an [`ear_core::RepairPlanner`] decision made for the whole
//! list before the drain starts.

use crate::cluster::MiniCfs;
use crate::exec;
use crate::fold::{self, Received, Source};
use crate::health::{RepairKind, RepairTask};
use crate::io::DeadNodeSet;
use crate::reliability::{self, OpClass, OpContext};
use ear_core::{ChainPlan, LinkBalance, Rebuild, RepairPlanner, RepairSite, Survivor};
use ear_erasure::{Matrix, StripeEncoder};
use ear_types::rng::ChaCha8;
use ear_types::{Block, BlockId, Error, NodeHealth, NodeId, RackId, Result};
use std::collections::{HashMap, HashSet};

/// Repairs in flight at once: the workers [`run_repairs`] drains its list
/// with, and therefore the most a healer round admits.
pub(crate) const REPAIR_WIDTH: usize = 8;

/// What a repair pass believes about the cluster: the failure detector's
/// snapshot and the scrubber's findings for the healer, *the failed node and
/// everything the injector has taken down are dead* for [`recover_node`].
pub(crate) struct RepairView<'a> {
    /// Health per node id.
    pub health: &'a [NodeHealth],
    /// `(node, block)` copies known to be corrupt: never a source, never a
    /// destination for that block again.
    pub known_bad: &'a HashSet<(NodeId, BlockId)>,
}

/// Health of `nd` in a snapshot indexed by node id. Nodes outside the
/// snapshot cannot occur for ids minted by the topology, but a data-plane
/// lookup must not panic on one — an unknown node reads as `Dead` (unusable
/// as source or destination), which is also what fallback does with it.
pub(crate) fn health_of(snapshot: &[NodeHealth], nd: NodeId) -> NodeHealth {
    snapshot
        .get(nd.index())
        .copied()
        .unwrap_or(NodeHealth::Dead)
}

impl RepairView<'_> {
    /// Whether `nd` may serve reads: anything not `Dead` (the data path can
    /// still reach a `Suspect` node).
    fn reachable(&self, nd: NodeId) -> bool {
        health_of(self.health, nd) != NodeHealth::Dead
    }

    /// Whether `nd` may receive a copy of `block` or rebuild it: trusted by
    /// the detector and not known to corrupt this block.
    fn accepts(&self, nd: NodeId, block: BlockId) -> bool {
        matches!(
            health_of(self.health, nd),
            NodeHealth::Live | NodeHealth::Rejoined
        ) && !self.known_bad.contains(&(nd, block))
    }
}

/// Outcome of one repair task — enough for the caller to account traffic
/// (every count is in whole blocks; multiply by the block size for bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RepairOutcome {
    /// A stripe shard was rebuilt by degraded read (`false`: replicas were
    /// copied).
    pub reconstructed: bool,
    /// Block-sized transfers the repair paid on a wire: copies made, or
    /// shards read from another node plus the partials the chain carried
    /// between folding nodes.
    pub downloads: usize,
    /// Transfers that crossed racks (copies, shards or folded partials).
    pub cross_rack_downloads: usize,
    /// Shipments of the rebuilt block from the recovery node to a different
    /// node (0 when it stayed where it was decoded).
    pub uploads: usize,
    /// Shipments that crossed racks.
    pub cross_rack_uploads: usize,
}

/// One drained repair task, as [`run_repairs`] planned it.
enum Job {
    /// Copy a replicated block back to `want` copies, keeping one in `core`.
    Copy {
        block: BlockId,
        want: usize,
        core: Option<RackId>,
    },
    /// Rebuild `block`, its stripe's member `lost`, at the planned site.
    Rebuild {
        block: BlockId,
        lost: usize,
        site: RepairSite,
    },
    /// A rebuild with no site: the error it fails with.
    Unplanned(Error),
}

/// Plans `tasks`, drains them through [`exec::drain`] at [`REPAIR_WIDTH`]
/// and returns their outcomes in task order, with the legs the plan put on
/// the node links. Each task is a Heal-class op under `deadline_ticks` (the
/// substrate's default when `None`), so a straggling repair fails typed
/// instead of hanging the drain.
/// A failed task does not stop the rest.
///
/// Every rebuild's site comes from one [`RepairPlanner`] fed the rebuilds in
/// task order before the drain starts (DESIGN.md §8): the rack spread each
/// keeps counts the sites planned for the same stripe, and no site depends
/// on which worker runs what or when. A copy draws its destinations from its
/// own block-seeded RNG.
pub(crate) fn run_repairs(
    cfs: &MiniCfs,
    tasks: &[RepairTask],
    view: &RepairView<'_>,
    deadline_ticks: Option<u64>,
) -> (Vec<Result<RepairOutcome>>, (LinkBalance, LinkBalance)) {
    let k = cfs.codec().params().k();
    let mut planner = RepairPlanner::new(cfs.topology(), cfs.config().ear.c(), k);
    let core_racks = pending_core_racks(cfs);
    let jobs: Vec<Job> = tasks
        .iter()
        .map(|task| match task.kind {
            RepairKind::ReReplicate { want, .. } => Job::Copy {
                block: task.block,
                want,
                core: core_racks.get(&task.block).copied(),
            },
            RepairKind::Reconstruct { .. } => {
                plan_rebuild(cfs, &mut planner, task.block, view).unwrap_or_else(Job::Unplanned)
            }
        })
        .collect();
    let run = |job: &Job| execute_repair(cfs, job, view, deadline_ticks);
    let outcomes = exec::drain(cfs.injector(), &jobs, REPAIR_WIDTH, run)
        .into_iter()
        .map(|done| done.unwrap_or_else(|| Err(Error::Invariant("repair worker panicked".into()))))
        .collect();
    (outcomes, planner.balance())
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

/// Lists what survives of `block`'s stripe and asks `planner` where to
/// rebuild it. A survivor is read at its first holder `view` can reach, the
/// spread counts every member's first location, and the recovery node must
/// be one `view` accepts: with none, the rebuild fails `NoRepairDestination`.
fn plan_rebuild(
    cfs: &MiniCfs,
    planner: &mut RepairPlanner<'_>,
    block: BlockId,
    view: &RepairView<'_>,
) -> Result<Job> {
    let nn = cfs.namenode();
    let es = nn
        .stripe_of(block)
        .ok_or_else(|| Error::Invariant(format!("{block} has no replicas and no stripe")))?;
    let (mut lost, mut survivors, mut placed) = (None, Vec::new(), Vec::new());
    for (index, member) in es.members().enumerate() {
        let locations = nn.locations(member).unwrap_or_default();
        placed.extend(locations.first().copied());
        if member == block {
            lost = Some(index);
        } else if let Some(&holder) = locations.iter().find(|&&h| view.reachable(h)) {
            survivors.push(Survivor { index, block: member, holder });
        }
    }
    let lost = lost.ok_or_else(|| Error::Invariant(format!("{block} not a member of its stripe")))?;
    let rebuild = Rebuild { stripe: es.id, survivors, placed };
    let suspect = |nd| health_of(view.health, nd) == NodeHealth::Suspect;
    let site = planner
        .site(&rebuild, |nd| view.accepts(nd, block), suspect)
        .ok_or(Error::NoRepairDestination { block })?;
    Ok(Job::Rebuild { block, lost, site })
}

/// Executes one planned repair on a worker thread.
fn execute_repair(
    cfs: &MiniCfs,
    job: &Job,
    view: &RepairView<'_>,
    deadline_ticks: Option<u64>,
) -> Result<RepairOutcome> {
    let ticks = deadline_ticks.unwrap_or(reliability::DEFAULT_DEADLINE_TICKS);
    let op = cfs.reliability().ctx_with_deadline(OpClass::Heal, ticks);
    match job {
        &Job::Copy { block, want, core } => re_replicate(cfs, &op, block, want, core, view),
        Job::Rebuild { block, lost, site } => {
            reconstruct_stripe_block(cfs, &op, *block, *lost, site)
        }
        Job::Unplanned(e) => Err(e.clone()),
    }
}

/// Brings a replicated block back to `want` live copies, copying from the
/// healthiest available source and placing onto nodes that preserve the
/// block's rack spread — and, first of all, the copy in `core`, the core
/// rack of the block's pending stripe: EAR's pre-encoding invariant. The
/// destinations are drawn from an RNG seeded per (cluster seed, block), so
/// two clusters differing only in seed pick different (but individually
/// reproducible) ones.
fn re_replicate(
    cfs: &MiniCfs,
    op: &OpContext<'_>,
    block: BlockId,
    want: usize,
    core: Option<RackId>,
    view: &RepairView<'_>,
) -> Result<RepairOutcome> {
    let mut rng = ChaCha8::from_seed(cfs.config().seed ^ block.0.wrapping_mul(0x9E37) ^ 0x4EA1);
    let nn = cfs.namenode();
    let topo = cfs.topology();
    let locs = nn
        .locations(block)
        .ok_or(Error::BlockUnavailable { block })?;
    let mut holders: Vec<NodeId> = Vec::new();
    for h in locs {
        if !view.reachable(h) {
            // The view declares the holder lost; retire the location (its
            // bytes, if any, are unreachable).
            nn.drop_location(block, h)?;
        } else if !view.known_bad.contains(&(h, block)) {
            holders.push(h);
        }
    }
    if holders.is_empty() {
        return Err(Error::BlockUnavailable { block });
    }
    // Prefer fully-trusted sources; Suspect holders are last resort.
    holders.sort_by_key(|&h| (health_of(view.health, h) == NodeHealth::Suspect, h.0));
    let mut outcome = RepairOutcome::default();
    while holders.len() < want {
        let have_racks: HashSet<RackId> = holders.iter().map(|&h| topo.rack_of(h)).collect();
        let candidates: Vec<NodeId> = topo
            .nodes()
            .filter(|&nd| view.accepts(nd, block) && !holders.contains(&nd))
            .collect();
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
        outcome.downloads += 1;
        outcome.cross_rack_downloads += usize::from(topo.rack_of(src) != topo.rack_of(dst));
        holders.push(dst);
    }
    Ok(outcome)
}

/// Rebuilds `block`, member `lost` of its stripe, at its planned site: the
/// site's sources fold down one chain, headed as planned, into the recovery
/// node ([`rebuild_shard`]), whose last leg delivers the block to the sink
/// unless the recovery node keeps it. Updates the NameNode's location map
/// and the sink's store. The caller's `ctx` bounds the whole
/// reconstruction on the virtual clock: every transfer charges it, and a
/// blown deadline stops the repair typed instead of letting it stall the
/// drain.
fn reconstruct_stripe_block(
    cfs: &MiniCfs,
    ctx: &OpContext<'_>,
    block: BlockId,
    lost: usize,
    site: &RepairSite,
) -> Result<RepairOutcome> {
    let sources: Vec<ShardSource> = site
        .sources
        .iter()
        .map(|s| ShardSource { index: s.index, block: s.block, holders: vec![s.holder] })
        .collect();
    let (at, sink) = (site.at, site.sink);
    let (rebuilt, paid) = rebuild_shard(cfs, ctx, (at, sink), lost, &sources, 1, site.head)?;
    cfs.datanode(sink).put(block, rebuilt.stamped())?;
    cfs.namenode().set_locations(block, vec![sink])?;
    let topo = cfs.topology();
    Ok(RepairOutcome {
        reconstructed: true,
        downloads: paid.downloads,
        cross_rack_downloads: paid.cross_rack_downloads,
        uploads: usize::from(sink != at),
        cross_rack_uploads: usize::from(!topo.same_rack(sink, at)),
    })
}

/// One surviving stripe member a rebuild may read.
#[derive(Debug, Clone)]
struct ShardSource {
    /// The member's row in the stripe's generator order.
    index: usize,
    block: BlockId,
    /// Nodes to read it from, in preference order.
    holders: Vec<NodeId>,
}

/// Rebuilds stripe member `lost_idx` at node `at` for node `sink` — the one
/// way a lost shard is recomputed, shared by repair and degraded reads
/// (DESIGN.md §15). Returns its bytes and what the fold paid on the way to
/// `at` (block-sized transfers, abandoned passes included).
///
/// The first `k` of `sources` are chosen, the lost shard is expressed as
/// their GF(2⁸) linear combination
/// ([`recovery_coefficients`](ear_erasure::ReedSolomon::recovery_coefficients))
/// and [`fold::fold`] sums the weighted shards as a one-row fold, planned by
/// [`ChainPlan::of`] with racks home to at least `fold_from` of them folding
/// (1 for a repair, [`GATHER`] for a degraded read) and the hop at `head`
/// moved to the front of the chain. A source that cannot be read is
/// dropped, `k` are re-chosen from the rest, the coefficients recomputed and
/// the fold planned again; shards already at `at` are kept, so a source read
/// whole is read at most once. Any `k` shards decode to the same bytes under
/// an MDS code, so the result does not depend on which sources survive.
///
/// # Errors
///
/// * [`Error::NotEnoughShards`] once fewer than `k` sources remain.
/// * The substrate's stops ([`Error::stops_the_op`]) at once — these never
///   fall through to another source.
/// * [`Error::NodeDown`] if `at` or `sink` is the node that cannot be
///   reached — no other choice of sources would get further.
fn rebuild_shard(
    cfs: &MiniCfs,
    ctx: &OpContext<'_>,
    (at, sink): (NodeId, NodeId),
    lost_idx: usize,
    sources: &[ShardSource],
    fold_from: usize,
    head: Option<NodeId>,
) -> Result<(Block, Received)> {
    let k = cfs.codec().params().k();
    let shard_len = cfs.config().block_size.as_u64() as usize;
    let mut candidates: Vec<&ShardSource> = sources.iter().collect();
    let dead = DeadNodeSet::new();
    let mut received = Received::default();
    loop {
        let chosen = candidates.get(..k).ok_or(Error::NotEnoughShards {
            available: candidates.len(),
            required: k,
        })?;
        let rows: Vec<usize> = chosen.iter().map(|s| s.index).collect();
        let coeffs = cfs.codec().recovery_coefficients(&rows, lost_idx)?;
        let row = Matrix::from_rows(1, k, coeffs);
        let acc = StripeEncoder::with_rows(cfs.codec().kernel(), row, shard_len);
        let columns: Vec<Source<'_>> = chosen
            .iter()
            .enumerate()
            .map(|(index, s)| Source { index, block: s.block, holders: &s.holders })
            .collect();
        let (topo, listed) = (cfs.topology(), columns.iter().map(|s| (s.block, s.holders)));
        let held = |b: BlockId| received.held.contains_key(&b);
        let plan = ChainPlan::of(topo, at, sink, fold_from, listed, |n| dead.contains(n), held);
        let folded = plan.and_then(|mut plan| {
            let first = plan.hops.iter().position(|hop| Some(hop.aggregator) == head);
            if let Some(hops) = first.and_then(|i| plan.hops.get_mut(..=i)) {
                hops.rotate_right(1);
            }
            fold::fold(cfs.io(), ctx, &plan, acc, &columns, &dead, &mut received)
        });
        match folded {
            Ok(rows) => {
                let rebuilt = rows.into_iter().next();
                let rebuilt = rebuilt.ok_or_else(|| Error::Invariant("a fold of no rows".into()))?;
                return Ok((rebuilt, received));
            }
            Err((_, e)) if e.stops_the_op() => return Err(e),
            Err((_, e @ Error::NodeDown { node })) if node == at || node == sink => return Err(e),
            Err((failed, _)) => {
                candidates.remove(failed);
            }
        }
    }
}

/// The fold threshold of a degraded read: no rack is home to this many
/// sources, so all are read whole at the reader. Folding would cost more
/// ticks: `ClusterIo::fetch_costed` prices a holder reading its own block as
/// a transfer, so a `k`-hop chain pays `k` reads plus the chain where the
/// gather pays `k` reads — until a local read is priced as a disk read,
/// which would move every soak's ticks.
const GATHER: usize = usize::MAX;

/// Reconstructs `block`'s bytes at `reader` from any `k` surviving members
/// of its stripe *without* re-placing the block or touching metadata — the
/// proactive leg of a hedged read whose last replica is straggling. Sources
/// are read whole at `reader` in member order ([`GATHER`]), each download
/// charging `ctx`; the caller adds the fixed decode cost when it scores the
/// race.
///
/// # Errors
///
/// * [`Error::BlockUnavailable`] if the block belongs to no encoded stripe.
/// * [`Error::NotEnoughShards`] if fewer than `k` members are readable.
/// * The substrate's stops ([`Error::stops_the_op`]).
pub(crate) fn degraded_read(
    cfs: &MiniCfs,
    ctx: &OpContext<'_>,
    reader: NodeId,
    block: BlockId,
) -> Result<Block> {
    let es = cfs
        .namenode()
        .stripe_of(block)
        .ok_or(Error::BlockUnavailable { block })?;
    let mut lost_idx = None;
    let mut sources: Vec<ShardSource> = Vec::new();
    for (index, m) in es.members().enumerate() {
        if m == block {
            lost_idx = Some(index);
            continue;
        }
        let holders: Vec<NodeId> = cfs
            .namenode()
            .locations(m)
            .unwrap_or_default()
            .into_iter()
            .filter(|&h| !cfs.injector().node_down(h))
            .collect();
        if !holders.is_empty() {
            sources.push(ShardSource {
                index,
                block: m,
                holders,
            });
        }
    }
    let lost_idx =
        lost_idx.ok_or_else(|| Error::Invariant(format!("{block} not a member of its stripe")))?;
    let (rebuilt, _) = rebuild_shard(cfs, ctx, (reader, reader), lost_idx, &sources, GATHER, None)?;
    Ok(rebuilt)
}

/// Statistics of one node-recovery operation.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Blocks rebuilt.
    pub blocks_recovered: usize,
    /// Surviving blocks downloaded in total.
    pub blocks_downloaded: usize,
    /// Downloads that crossed racks.
    pub cross_rack_downloads: usize,
    /// Rebuilt blocks that had to be uploaded across racks to a rack with
    /// spare stripe capacity.
    pub cross_rack_uploads: usize,
    /// Block-sized legs the plan put on the node up-links: the busiest
    /// one's and the mean (DESIGN.md §8).
    pub up_links: LinkBalance,
    /// Block-sized legs the plan put on the node down-links.
    pub down_links: LinkBalance,
    /// Name of the GF(2⁸) kernel tier the codec dispatched to for degraded
    /// reads (`scalar`, `ssse3`, `avx2`, `gfni`).
    pub gf_kernel: &'static str,
    /// The fault-plan seed active during recovery, `None` when the cluster
    /// runs fault-free.
    pub fault_seed: Option<u64>,
}

/// Repairs every block `failed` was listed as holding: its locations and
/// copies are retired, each block becomes a [`RepairTask`] — a stripe member
/// left without a copy is rebuilt by degraded read, a replicated block gets
/// its lost copy back from a survivor — and the tasks drain through
/// [`run_repairs`] with `failed` and every node the injector has taken down
/// treated as dead.
///
/// Every task is attempted; the error returned is the first in block order.
///
/// # Errors
///
/// Returns [`Error::NotEnoughShards`] (via the codec) if a stripe lost more
/// than `n - k` blocks, [`Error::BlockUnavailable`] if a replicated block
/// has no reachable copy left, [`Error::NoRepairDestination`] if no live
/// node may take a copy or decode a rebuild (a rebuilt block the stripe's
/// spread admits nowhere stays on the node that decoded it), or
/// [`Error::Invariant`] on metadata inconsistencies.
pub fn recover_node(cfs: &MiniCfs, failed: NodeId) -> Result<RecoveryStats> {
    let nn = cfs.namenode();
    let mut tasks: Vec<RepairTask> = Vec::new();
    for block in (0..nn.block_count()).map(BlockId) {
        if !nn.drop_location(block, failed)? {
            continue;
        }
        cfs.datanode(failed).delete(block);
        let have = nn.locations(block).map_or(0, |locs| locs.len());
        let kind = match nn.stripe_of(block) {
            Some(es) if have == 0 => RepairKind::Reconstruct { stripe: es.id },
            _ => RepairKind::ReReplicate {
                have,
                want: have + 1,
            },
        };
        tasks.push(RepairTask {
            block,
            kind,
            remaining_redundancy: have.saturating_sub(1),
        });
    }

    let health: Vec<NodeHealth> = cfs
        .topology()
        .nodes()
        .map(|nd| {
            if nd == failed || cfs.injector().node_down(nd) {
                NodeHealth::Dead
            } else {
                NodeHealth::Live
            }
        })
        .collect();
    let view = RepairView {
        health: &health,
        known_bad: &HashSet::new(),
    };
    let mut stats = RecoveryStats {
        gf_kernel: cfs.codec().kernel().name(),
        fault_seed: cfs.fault_seed(),
        ..RecoveryStats::default()
    };
    let (outcomes, (up_links, down_links)) = run_repairs(cfs, &tasks, &view, None);
    (stats.up_links, stats.down_links) = (up_links, down_links);
    let mut first_error = None;
    for outcome in outcomes {
        match outcome {
            Ok(repair) => {
                stats.blocks_recovered += 1;
                stats.blocks_downloaded += repair.downloads;
                stats.cross_rack_downloads += repair.cross_rack_downloads;
                stats.cross_rack_uploads += repair.cross_rack_uploads;
            }
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    first_error.map_or(Ok(stats), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterPolicy};
    use crate::health::HealthTransition;
    use crate::raidnode::RaidNode;
    use ear_types::{
        Bandwidth, ByteSize, CacheConfig, EarConfig, ErasureParams, ReplicationConfig,
        StoreBackend,
    };

    fn boot_with(
        policy: ClusterPolicy,
        ear: EarConfig,
        racks: usize,
        nodes_per_rack: usize,
    ) -> MiniCfs {
        boot_seeded(policy, ear, racks, nodes_per_rack, 11)
    }

    fn boot_seeded(
        policy: ClusterPolicy,
        ear: EarConfig,
        racks: usize,
        nodes_per_rack: usize,
        seed: u64,
    ) -> MiniCfs {
        let cfg = ClusterConfig {
            racks,
            nodes_per_rack,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(512e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
            ear,
            policy,
            seed,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        };
        MiniCfs::new(cfg).unwrap()
    }

    fn ear_6_4(c: usize) -> EarConfig {
        EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            c,
        )
        .unwrap()
    }

    fn boot(policy: ClusterPolicy, c: usize, racks: usize, nodes_per_rack: usize) -> MiniCfs {
        boot_with(policy, ear_6_4(c), racks, nodes_per_rack)
    }

    fn write_and_encode(cfs: &MiniCfs, stripes: usize) {
        write_and_encode_with(cfs, stripes, 4);
    }

    fn write_and_encode_with(cfs: &MiniCfs, stripes: usize, map_tasks: usize) {
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < stripes {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
            i += 1;
        }
        RaidNode::encode_all(cfs, map_tasks).unwrap();
    }

    /// Moves `block`'s replicas onto exactly `nodes`.
    fn pin(cfs: &MiniCfs, block: BlockId, nodes: &[NodeId]) {
        let old = cfs.namenode().locations(block).unwrap();
        let data = cfs.datanode(old[0]).get(block).unwrap();
        for &nd in &old {
            cfs.datanode(nd).delete(block);
        }
        for &nd in nodes {
            cfs.datanode(nd).put(block, data.clone()).unwrap();
        }
        cfs.namenode().set_locations(block, nodes.to_vec()).unwrap();
    }

    /// Every block's locations, in block-id order.
    fn all_locations(cfs: &MiniCfs) -> Vec<Vec<NodeId>> {
        (0..cfs.namenode().block_count())
            .map(|b| cfs.namenode().locations(BlockId(b)).unwrap())
            .collect()
    }

    fn counters(stats: &RecoveryStats) -> [usize; 4] {
        [
            stats.blocks_recovered,
            stats.blocks_downloaded,
            stats.cross_rack_downloads,
            stats.cross_rack_uploads,
        ]
    }

    #[test]
    fn recovers_encoded_blocks_byte_for_byte() {
        let cfs = boot(ClusterPolicy::Ear, 1, 8, 2);
        write_and_encode(&cfs, 2);
        // Fail a node that holds at least one encoded block.
        let victim = cfs
            .namenode()
            .encoded_stripes()
            .iter()
            .flat_map(|es| es.data.clone())
            .find_map(|b| cfs.namenode().locations(b).unwrap().first().copied())
            .expect("some encoded block exists");
        let lost: Vec<BlockId> = cfs
            .namenode()
            .encoded_stripes()
            .iter()
            .flat_map(|es| es.data.clone())
            .filter(|&b| cfs.namenode().locations(b).unwrap().contains(&victim))
            .collect();
        assert!(!lost.is_empty());
        let stats = recover_node(&cfs, victim).unwrap();
        assert!(stats.blocks_recovered >= lost.len());
        assert!(
            !stats.gf_kernel.is_empty(),
            "recovery stats must report the GF kernel tier"
        );
        for b in lost {
            let loc = cfs.namenode().locations(b).unwrap()[0];
            assert_ne!(loc, victim);
            let got = cfs.datanode(loc).get(b).unwrap();
            assert_eq!(
                got.as_slice(),
                cfs.make_block(b.0).as_slice(),
                "block {b} corrupted"
            );
        }
    }

    #[test]
    fn recovery_destinations_follow_the_cluster_seed() {
        // Regression: recover_node once seeded its draws from the failed
        // node's id alone, so clusters differing only in seed re-replicated
        // onto the same nodes. Placement itself follows the seed, so the
        // layout is pinned by hand — every block on the victim plus one fixed
        // partner — leaving the recovery draw as the only thing a seed moves.
        let recover = |seed: u64| {
            let cfs = boot_seeded(ClusterPolicy::Rr, ear_6_4(1), 8, 2, seed);
            let nodes = cfs.topology().num_nodes() as u64;
            let victim = NodeId(0);
            let blocks: Vec<BlockId> = (0..12u64)
                .map(|i| {
                    let b = cfs
                        .write_block(NodeId((i % nodes) as u32), cfs.make_block(i))
                        .unwrap();
                    pin(&cfs, b, &[victim, NodeId(1 + (i % (nodes - 1)) as u32)]);
                    b
                })
                .collect();
            let stats = recover_node(&cfs, victim).unwrap();
            let placed: Vec<Vec<NodeId>> = blocks
                .iter()
                .map(|&b| cfs.namenode().locations(b).unwrap())
                .collect();
            (counters(&stats), placed)
        };
        let (counts, placed) = recover(5);
        assert_eq!(counts[0], 12);
        assert!(placed.iter().all(|locs| !locs.contains(&NodeId(0))));
        assert_eq!(
            recover(5),
            (counts, placed.clone()),
            "same seed, same recovery"
        );
        assert_ne!(
            recover(6).1,
            placed,
            "another seed must move at least one destination"
        );
    }

    #[test]
    fn recovery_is_reproducible_from_the_cluster_seed() {
        // Stripe rebuilds and re-replications of one victim drain through
        // concurrent workers; two clusters built from one seed must still
        // end with the same counters and the same location of every block.
        // (One map task: parallel encode allocates parity ids in completion
        // order.)
        let recover = || {
            let cfs = boot_seeded(ClusterPolicy::Ear, ear_6_4(1), 8, 2, 17);
            write_and_encode_with(&cfs, 3, 1);
            let held = all_locations(&cfs);
            let victim = cfs
                .topology()
                .nodes()
                .max_by_key(|nd| held.iter().filter(|locs| locs.contains(nd)).count())
                .unwrap();
            let stats = recover_node(&cfs, victim).unwrap();
            (counters(&stats), all_locations(&cfs))
        };
        let (counts, placed) = recover();
        assert!(counts[0] >= 3, "the busiest node holds several blocks");
        assert_eq!(recover(), (counts, placed));
    }

    #[test]
    fn a_failed_repair_does_not_stop_the_rest_and_the_first_error_wins() {
        let cfs = boot(ClusterPolicy::Ear, 1, 8, 2);
        write_and_encode(&cfs, 2);
        let doomed = cfs.namenode().encoded_stripes().remove(0);
        let victim = cfs.namenode().locations(doomed.data[0]).unwrap()[0];
        // Three replicated blocks allocated after every stripe block, so
        // they follow the victim's stripe blocks in task order: two with a
        // surviving copy around one whose only copy is the victim's.
        let nodes = cfs.topology().num_nodes() as u32;
        let partner = NodeId((victim.0 + 1) % nodes);
        let extra: Vec<BlockId> = (100..103u64)
            .map(|tag| cfs.write_block(partner, cfs.make_block(tag)).unwrap())
            .collect();
        pin(&cfs, extra[0], &[victim, partner]);
        pin(&cfs, extra[1], &[victim]);
        pin(&cfs, extra[2], &[victim, partner]);
        // Two more members of the first stripe destroyed outright: with the
        // victim's that is three lost of a (6,4) stripe.
        for &b in &doomed.data[1..3] {
            let loc = cfs.namenode().locations(b).unwrap()[0];
            cfs.datanode(loc).delete(b);
            cfs.namenode().set_locations(b, vec![]).unwrap();
        }

        match recover_node(&cfs, victim) {
            Err(Error::NotEnoughShards { .. }) => {}
            other => panic!("expected the stripe's NotEnoughShards first, got {other:?}"),
        }
        for (&b, tag) in [extra[0], extra[2]].iter().zip([100u64, 102]) {
            let locs = cfs.namenode().locations(b).unwrap();
            assert_eq!(
                locs.len(),
                2,
                "{b} was behind a failed task and still repaired"
            );
            assert!(!locs.contains(&victim));
            for nd in locs {
                let got = cfs.datanode(nd).get(b).unwrap();
                assert_eq!(got.as_slice(), cfs.make_block(tag).as_slice());
            }
        }
        assert!(cfs.namenode().locations(extra[1]).unwrap().is_empty());
    }

    #[test]
    fn recovery_downloads_k_blocks_per_lost_block() {
        let cfs = boot(ClusterPolicy::Ear, 1, 8, 2);
        write_and_encode(&cfs, 1);
        let es = &cfs.namenode().encoded_stripes()[0];
        let victim = cfs.namenode().locations(es.data[0]).unwrap()[0];
        // Count how many stripe blocks the victim held (it can hold at most
        // one per stripe by the EAR invariant).
        let held: usize = es
            .data
            .iter()
            .chain(es.parity.iter())
            .filter(|&&b| cfs.namenode().locations(b).unwrap().contains(&victim))
            .count();
        assert_eq!(held, 1, "EAR places at most one stripe block per node");
        let stats = recover_node(&cfs, victim).unwrap();
        // Every encoded block lost needs k downloads; replicated (unsealed)
        // blocks need one.
        assert!(stats.blocks_downloaded >= 4);
        assert!(stats.cross_rack_downloads <= stats.blocks_downloaded);
    }

    #[test]
    fn larger_c_reduces_cross_rack_recovery_traffic() {
        // Section III-D: with c = 3 and R' = 2 target racks, most recovery
        // sources are intra-rack; with c = 1 almost all are cross-rack.
        let mut cross_c1 = 0usize;
        let mut cross_c3 = 0usize;
        let mut down_c1 = 0usize;
        let mut down_c3 = 0usize;
        {
            let cfs = boot(ClusterPolicy::Ear, 1, 8, 4);
            write_and_encode(&cfs, 3);
            for es in cfs.namenode().encoded_stripes() {
                let victim = cfs.namenode().locations(es.data[0]).unwrap()[0];
                let stats = recover_node(&cfs, victim).unwrap();
                cross_c1 += stats.cross_rack_downloads;
                down_c1 += stats.blocks_downloaded;
            }
        }
        {
            let ear = ear_6_4(3).with_target_racks(2).unwrap();
            let cfs = boot_with(ClusterPolicy::Ear, ear, 8, 4);
            write_and_encode(&cfs, 3);
            for es in cfs.namenode().encoded_stripes() {
                let victim = cfs.namenode().locations(es.data[0]).unwrap()[0];
                let stats = recover_node(&cfs, victim).unwrap();
                cross_c3 += stats.cross_rack_downloads;
                down_c3 += stats.blocks_downloaded;
            }
        }
        let frac_c1 = cross_c1 as f64 / down_c1 as f64;
        let frac_c3 = cross_c3 as f64 / down_c3 as f64;
        assert!(
            frac_c3 < frac_c1,
            "c=3 cross-rack fraction {frac_c3} should beat c=1's {frac_c1}"
        );
    }

    /// An EAR cluster with `c = 2` over 3 target racks: each stripe spans 3
    /// racks, 2 blocks per rack — the shape where a repair has a remote
    /// rack worth folding. Returns it with 3 stripes encoded.
    fn boot_foldable() -> MiniCfs {
        let cfs = boot_with(
            ClusterPolicy::Ear,
            ear_6_4(2).with_target_racks(3).unwrap(),
            8,
            4,
        );
        write_and_encode(&cfs, 3);
        cfs
    }

    /// Repairs the first data block of the first stripe as if its holder
    /// had died: one task through the executor.
    fn repair_first_block(cfs: &MiniCfs) -> Result<(BlockId, RepairOutcome)> {
        let es = cfs.namenode().encoded_stripes().remove(0);
        let block = es.data[0];
        let victim = cfs.namenode().locations(block).unwrap()[0];
        let mut health = vec![NodeHealth::Live; cfs.topology().num_nodes()];
        health[victim.index()] = NodeHealth::Dead;
        let view = RepairView {
            health: &health,
            known_bad: &HashSet::new(),
        };
        let task = RepairTask {
            block,
            kind: RepairKind::Reconstruct { stripe: es.id },
            remaining_redundancy: 0,
        };
        let repair = run_repairs(cfs, &[task], &view, None).0.remove(0)?;
        let placement = cfs.namenode().locations(block).unwrap()[0];
        assert_ne!(placement, victim);
        let got = cfs.datanode(placement).get(block).unwrap();
        assert_eq!(got.as_slice(), cfs.make_block(block.0).as_slice());
        Ok((block, repair))
    }

    /// The surviving members of `block`'s stripe that share a rack with
    /// another survivor, remote dense rack (higher rack id) first.
    fn dense_rack_survivors(cfs: &MiniCfs, block: BlockId) -> Vec<(BlockId, NodeId)> {
        let topo = cfs.topology();
        let es = cfs.namenode().encoded_stripes().remove(0);
        let holders: Vec<(BlockId, NodeId)> = es
            .data
            .iter()
            .chain(es.parity.iter())
            .filter(|&&m| m != block)
            .map(|&m| (m, cfs.namenode().locations(m).unwrap()[0]))
            .collect();
        let mut dense: Vec<(BlockId, NodeId)> = holders
            .iter()
            .copied()
            .filter(|&(m, h)| {
                holders
                    .iter()
                    .any(|&(o, oh)| o != m && topo.rack_of(oh) == topo.rack_of(h))
            })
            .collect();
        dense.sort_by_key(|&(_, h)| std::cmp::Reverse(topo.rack_of(h)));
        dense
    }

    #[test]
    fn repair_folds_a_dense_remote_rack_into_one_partial() {
        // One block lost from a 3-rack × 2-block stripe: the recovery node
        // sits with two survivors, the other dense rack folds its two
        // shards at an aggregator and ships one partial. Reading them whole
        // (no fold) would cost 4 downloads, 2 of them cross-rack.
        let cfs = boot_foldable();
        let (_, repair) = repair_first_block(&cfs).unwrap();
        // (5 while the aggregator's read of its own shard counted as one.)
        assert_eq!(repair.downloads, 4, "2 local + 1 to the aggregator + 1 partial");
        assert_eq!(repair.cross_rack_downloads, 1, "one partial per remote rack");
    }

    /// The paper's testbed shape — (10,8) at c = 1 over 12 racks of one node
    /// — with one stripe encoded.
    fn boot_testbed_shape(seed: u64) -> MiniCfs {
        let params = ErasureParams::new(10, 8).unwrap();
        let ear = EarConfig::new(params, ReplicationConfig::two_way(), 1).unwrap();
        let cfs = boot_seeded(ClusterPolicy::Ear, ear, 12, 1, seed);
        write_and_encode_with(&cfs, 1, 1);
        cfs
    }

    #[test]
    fn a_testbed_rebuild_is_one_chain_of_k_block_transfers() {
        // Every source is alone in its rack, so every remote one is a hop
        // that reads its shard off its own disk, and the row crosses racks
        // once per leg. Decoding where a survivor lies reads that shard for
        // free, so the plan always does: the node cannot keep the block, and
        // the chain's last leg delivers it to one of the two nodes holding no
        // member. k transfers, all cross-rack, and the links carried exactly
        // what is reported.
        for seed in 1..=6 {
            let cfs = boot_testbed_shape(seed);
            let before = cfs.network().snapshot();
            let (block, repair) = repair_first_block(&cfs).unwrap();
            let moved = cfs.network().snapshot().delta(&before);
            assert_eq!((repair.downloads, repair.uploads), (7, 1), "seed {seed}: {repair:?}");
            assert_eq!(repair.cross_rack_downloads, repair.downloads);
            assert_eq!(repair.cross_rack_uploads, repair.uploads);
            let block_size = cfs.config().block_size.as_u64();
            assert_eq!((moved.cross_rack_bytes, moved.intra_rack_bytes), (8 * block_size, 0));
            let home = cfs.namenode().locations(block).unwrap()[0];
            let es = cfs.namenode().stripe_of(block).unwrap();
            let mut others = es.members().filter(|&m| m != block);
            assert!(others.all(|m| !cfs.namenode().locations(m).unwrap().contains(&home)));
        }
    }

    #[test]
    fn a_sink_the_chain_cannot_reach_fails_the_repair_typed_after_one_pass() {
        // Two clusters from one seed plan the same repair. The first shows
        // where the block goes — on this shape the recovery node holds a
        // survivor, so the home is another node. In the second that node's
        // breaker is open while the repair's view still trusts it: the chain
        // stops at its last leg, no other choice of sources would get
        // further, and the repair reports the node instead of dropping
        // sources one by one until too few remain.
        let planned = boot_testbed_shape(1);
        let (block, repair) = repair_first_block(&planned).unwrap();
        assert_eq!(repair.uploads, 1);
        let home = planned.namenode().locations(block).unwrap()[0];

        let cfs = boot_testbed_shape(1);
        let tripped = HealthTransition {
            tick: 0,
            node: home,
            from: NodeHealth::Live,
            to: NodeHealth::Suspect,
        };
        cfs.reliability().on_transitions(&[tripped]);
        let before = cfs.network().snapshot();
        match repair_first_block(&cfs) {
            Err(Error::NodeDown { node }) if node == home => {}
            other => panic!("expected NodeDown for {home}, got {other:?}"),
        }
        let moved = cfs.network().snapshot().delta(&before);
        let block_size = cfs.config().block_size.as_u64();
        assert_eq!(moved.cross_rack_bytes, 7 * block_size, "one pass, less its last leg");
    }

    #[test]
    fn a_suspect_node_never_decodes_a_rebuild() {
        // Regression: the recovery node was drawn from every node the view
        // could reach, Suspect ones included. A Suspect node's breaker is
        // open, so the chain stopped there and the rebuild failed NodeDown —
        // and the draw, seeded by (cluster seed, block), fell on the same
        // node every healer round. Whichever single node other than the
        // victim is Suspect now, with its breaker open, the rebuild succeeds
        // on its first pass: a Suspect holder is a spare, and neither the
        // recovery node nor the sink is Suspect.
        for seed in 1..=4 {
            let nodes = boot_testbed_shape(seed).topology().num_nodes() as u32;
            for suspect in (0..nodes).map(NodeId) {
                let cfs = boot_testbed_shape(seed);
                let es = cfs.namenode().encoded_stripes().remove(0);
                let block = es.data[0];
                let victim = cfs.namenode().locations(block).unwrap()[0];
                if suspect == victim {
                    continue;
                }
                let mut health = vec![NodeHealth::Live; nodes as usize];
                health[victim.index()] = NodeHealth::Dead;
                health[suspect.index()] = NodeHealth::Suspect;
                let tripped = HealthTransition {
                    tick: 0,
                    node: suspect,
                    from: NodeHealth::Live,
                    to: NodeHealth::Suspect,
                };
                cfs.reliability().on_transitions(&[tripped]);
                let view = RepairView { health: &health, known_bad: &HashSet::new() };
                let task = RepairTask {
                    block,
                    kind: RepairKind::Reconstruct { stripe: es.id },
                    remaining_redundancy: 0,
                };
                let before = cfs.network().snapshot();
                let repair = run_repairs(&cfs, &[task], &view, None).0.remove(0);
                let repair = repair.unwrap_or_else(|e| panic!("seed {seed}, {suspect}: {e}"));
                let paid = repair.downloads + repair.uploads;
                assert_eq!(paid, 8, "seed {seed}, {suspect}: one pass");
                let moved = cfs.network().snapshot().delta(&before);
                assert_eq!(moved.cross_rack_bytes, 8 * cfs.config().block_size.as_u64());
                let home = cfs.namenode().locations(block).unwrap()[0];
                assert_ne!(home, suspect);
                let got = cfs.datanode(home).get(block).unwrap();
                assert_eq!(got.as_slice(), cfs.make_block(block.0).as_slice());
            }
        }
    }

    #[test]
    fn a_rebuild_no_node_may_keep_stays_where_it_was_decoded() {
        // The testbed shape leaves two nodes free of a stripe. Two members'
        // nodes and one free node die, and the view still lists the lost
        // copies where they were, as the healer's does. The first rebuild
        // takes the one free node left; the spread then admits no node for
        // the second, so its recovery node keeps it rather than the stripe
        // staying a member short.
        for seed in 1..=4 {
            let cfs = boot_testbed_shape(seed);
            let es = cfs.namenode().encoded_stripes().remove(0);
            let holder = |b: BlockId| cfs.namenode().locations(b).unwrap()[0];
            let held: Vec<NodeId> = es.members().map(holder).collect();
            let free: Vec<NodeId> =
                cfs.topology().nodes().filter(|nd| !held.contains(nd)).collect();
            assert_eq!(free.len(), 2);
            let mut health = vec![NodeHealth::Live; cfs.topology().num_nodes()];
            for nd in [held[0], held[1], free[1]] {
                health[nd.index()] = NodeHealth::Dead;
            }
            let view = RepairView { health: &health, known_bad: &HashSet::new() };
            let tasks: Vec<RepairTask> = es.data[..2]
                .iter()
                .map(|&block| RepairTask {
                    block,
                    kind: RepairKind::Reconstruct { stripe: es.id },
                    remaining_redundancy: 0,
                })
                .collect();
            let outcomes = run_repairs(&cfs, &tasks, &view, None).0;
            let mut uploads = Vec::new();
            for (&block, outcome) in es.data[..2].iter().zip(outcomes) {
                let repair = outcome.unwrap_or_else(|e| panic!("seed {seed}, {block}: {e}"));
                uploads.push(repair.uploads);
                let got = cfs.datanode(holder(block)).get(block).unwrap();
                assert_eq!(got.as_slice(), cfs.make_block(block.0).as_slice());
            }
            assert_eq!(holder(es.data[0]), free[0], "seed {seed}");
            assert!(held[2..].contains(&holder(es.data[1])), "seed {seed}: kept where decoded");
            assert_eq!(uploads, [1, 0], "seed {seed}");
        }
    }

    #[test]
    fn repair_drops_an_unreadable_source_and_reselects() {
        let cfs = boot_foldable();
        let block = cfs.namenode().encoded_stripes()[0].data[0];
        // A first-choice source (dense racks are always chosen) whose bytes
        // are gone: the fold drops it, re-chooses k of the remaining five
        // and still rebuilds — now from two lone remote shards.
        let dense = dense_rack_survivors(&cfs, block);
        let (gone, holder) = dense[0];
        cfs.datanode(holder).delete(gone);
        let (_, repair) = repair_first_block(&cfs).unwrap();
        assert_eq!(repair.cross_rack_downloads, 2, "nothing left to fold");
        // A second unreadable source leaves 3 < k survivors: typed, final.
        let (gone, holder) = *dense.last().unwrap();
        cfs.datanode(holder).delete(gone);
        match repair_first_block(&cfs) {
            Err(Error::NotEnoughShards {
                available: 3,
                required: 4,
            }) => {}
            other => panic!("expected NotEnoughShards, got {other:?}"),
        }
    }

    #[test]
    fn losing_too_many_blocks_fails_cleanly() {
        let cfs = boot(ClusterPolicy::Ear, 1, 8, 2);
        write_and_encode(&cfs, 1);
        let es = &cfs.namenode().encoded_stripes()[0];
        // Destroy 3 blocks of a (6,4) stripe outright (only n-k=2
        // tolerable), then try to recover a fourth loss.
        let all: Vec<BlockId> = es.data.iter().chain(es.parity.iter()).copied().collect();
        for &b in all.iter().take(3) {
            let loc = cfs.namenode().locations(b).unwrap()[0];
            cfs.datanode(loc).delete(b);
            cfs.namenode().set_locations(b, vec![]).unwrap();
        }
        // Recovering any node holding a surviving stripe block must fail for
        // that block.
        let victim = cfs.namenode().locations(all[3]).unwrap()[0];
        let err = recover_node(&cfs, victim);
        assert!(err.is_err());
    }
}
