//! The RaidNode: coordinates asynchronous encoding jobs (Section IV of the
//! paper) and the BlockMover that repairs fault-tolerance violations.

use crate::cluster::MiniCfs;
use crate::exec;
use crate::fold::{self, Received, Source};
use crate::io::DeadNodeSet;
use crate::namenode::PendingStripe;
use crate::reliability::{self, OpClass};
use ear_core::{ChainPlan, EncodePlan, StripeSpread};
use ear_erasure::StripeEncoder;
use ear_types::{Block, BlockId, Error, NodeId, Result, StripeId};
use std::time::Instant;

/// Encode attempts per stripe before it is handed back to the NameNode's
/// pending queue (its replicas stay intact, so nothing is lost).
const STRIPE_ATTEMPTS: u32 = 3;

/// Statistics of one encoding job (a batch of stripes).
#[derive(Debug, Clone, Default)]
pub struct EncodeStats {
    /// Stripes encoded.
    pub stripes: usize,
    /// Wall-clock duration of the whole job, seconds.
    pub wall_seconds: f64,
    /// Bytes of data blocks encoded (`stripes × k × block_size`).
    pub encoded_bytes: u64,
    /// Block-sized transfers that crossed racks on their way to the
    /// encoding node: source blocks read from a remote rack plus the
    /// partial parity rows a folding rack ships (DESIGN.md §15), abandoned
    /// passes included.
    pub cross_rack_downloads: usize,
    /// Stripes left violating rack-level fault tolerance (they need the
    /// BlockMover; always 0 under EAR).
    pub stripes_with_relocation: usize,
    /// Per-stripe completion offsets from job start, seconds (Fig. 12).
    pub completion_times: Vec<f64>,
    /// Name of the GF(2⁸) kernel tier the codec dispatched to (`scalar`,
    /// `ssse3`, `avx2`, `gfni`); empty until a job has run.
    pub gf_kernel: &'static str,
    /// The fault-plan seed active during the job, `None` when the cluster
    /// runs fault-free — recorded so every report names the chaos it
    /// survived.
    pub fault_seed: Option<u64>,
    /// Stripes that exhausted their encode attempts, with the error that
    /// stopped the last attempt. Each was returned to the NameNode's
    /// pending queue with all replicas intact.
    pub failed_stripes: Vec<(StripeId, Error)>,
}

impl EncodeStats {
    /// Encoding throughput in MiB/s (the paper's Experiment A.1 metric).
    pub fn throughput_mibps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.encoded_bytes as f64 / (1024.0 * 1024.0) / self.wall_seconds
    }
}

/// A relocation the BlockMover must perform: `(block, from, to)`.
pub type Relocation = (BlockId, NodeId, NodeId);

/// The RaidNode: runs encoding jobs over the NameNode's pending stripes.
pub struct RaidNode;

impl RaidNode {
    /// Encodes every pending stripe, one task each, on at most `map_tasks`
    /// workers ("map tasks") of [`exec::drain`], in [`schedule`] order: each
    /// rack's stripes run in turn while concurrent map tasks encode in
    /// different racks (Section IV-B). Parity ids are reserved up front in
    /// stripe-id order, so ids — and every fault decision hashed on one — are
    /// the same at every `map_tasks` and on every run.
    ///
    /// Relocations (RR stripes that violate rack-level fault tolerance
    /// after replica deletion) are *not* performed here — as in Facebook's
    /// HDFS they are left to the periodic PlacementMonitor/BlockMover; call
    /// [`RaidNode::relocate`] with the returned list (in stripe-id order).
    ///
    /// # Errors
    ///
    /// Only a refused log append during the reservation errors the job, and
    /// every stripe it took is pending again by then. A stripe that fails
    /// on a worker — injected fault or broken metadata alike — is retried up
    /// to [`STRIPE_ATTEMPTS`] times, then returned to the pending queue with
    /// its replicas intact and listed in [`EncodeStats::failed_stripes`]
    /// (as [`Error::Invariant`] if its task panicked); one with no plan gets no try.
    pub fn encode_all(cfs: &MiniCfs, map_tasks: usize) -> Result<(EncodeStats, Vec<Relocation>)> {
        let taken = cfs.namenode().take_pending_stripes();
        let m = cfs.codec().params().parity();
        // No locations yet: a stripe that fails leaves only unreferenced
        // ids behind, never a registered block without bytes.
        let reserve = |_| (0..m).map(|_| cfs.namenode().register_block(Vec::new())).collect();
        let reserved: Vec<Vec<BlockId>> = match taken.iter().map(reserve).collect() {
            Ok(ids) => ids,
            Err(e) => {
                taken.into_iter().for_each(|s| cfs.namenode().requeue_stripe(s));
                return Err(e);
            }
        };
        let tasks = schedule(cfs, taken.into_iter().zip(reserved).collect());
        #[expect(
            clippy::disallowed_methods,
            reason = "stamps EncodeStats::{wall_seconds, completion_times} for throughput and \
                      Fig. 12; ids, placement and parity are fixed before the timer is read"
        )]
        let start = Instant::now();
        let width = map_tasks.max(1);
        let results = exec::drain(cfs.injector(), &tasks, width, |task| {
            Ok((encode_with_retries(cfs, task)?, start.elapsed().as_secs_f64()))
        });

        let mut stats = EncodeStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            gf_kernel: cfs.codec().kernel().name(),
            fault_seed: cfs.fault_seed(),
            ..EncodeStats::default()
        };
        let mut relocations = Vec::new();
        // Folded in stripe-id order: the report never follows scheduling.
        let mut done: Vec<_> = tasks.into_iter().zip(results).collect();
        done.sort_by_key(|((stripe, ..), _)| stripe.id);
        for ((stripe, ..), result) in done {
            let died = || Err(Error::Invariant(format!("encode task for {} panicked", stripe.id)));
            match result.unwrap_or_else(died) {
                Ok((outcome, completed_at)) => {
                    stats.stripes += 1;
                    stats.cross_rack_downloads += outcome.cross_rack_downloads;
                    stats.stripes_with_relocation += usize::from(!outcome.relocations.is_empty());
                    stats.encoded_bytes +=
                        stripe.blocks.len() as u64 * cfs.config().block_size.as_u64();
                    stats.completion_times.push(completed_at);
                    relocations.extend(outcome.relocations);
                }
                Err(e) => {
                    stats.failed_stripes.push((stripe.id, e));
                    cfs.namenode().requeue_stripe(stripe);
                }
            }
        }
        // total_cmp: a NaN duration (however unlikely) must never panic an
        // encode job; it sorts deterministically instead.
        stats.completion_times.sort_by(f64::total_cmp);
        Ok((stats, relocations))
    }

    /// The BlockMover: performs the queued relocations, moving each block's
    /// bytes to its target node. Returns the number of blocks moved.
    ///
    /// The relocations are independent: one that fails leaves its block
    /// where it was and every other one is still attempted.
    ///
    /// # Errors
    ///
    /// Returns the first failure once every relocation has been attempted:
    /// [`Error::Invariant`] if a block's bytes vanished, and
    /// [`Error::CorruptBlock`] — before that block moved — if they no longer
    /// match their stored checksum.
    pub fn relocate(cfs: &MiniCfs, relocations: &[Relocation]) -> Result<usize> {
        let mut first_err = None;
        for &(block, from, to) in relocations {
            if let Err(e) = move_block(cfs, block, from, to) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(relocations.len()), Err)
    }
}

/// Moves one block's single copy from `from` to `to`.
fn move_block(cfs: &MiniCfs, block: BlockId, from: NodeId, to: NodeId) -> Result<()> {
    let (data, crc) = cfs
        .datanode(from)
        .get_with_crc(block)
        .ok_or_else(|| Error::Invariant(format!("{from} lost {block} before relocation")))?;
    // The single copy is verified before it moves: `put` would hash
    // rotten bytes into a fresh, valid CRC at the new home, where
    // no scrub could ever see the rot again.
    let data = data
        .verified(crc)
        .ok_or(Error::CorruptBlock { block, node: from })?;
    cfs.io().transfer(from, to, data.len() as u64);
    // Publish before retire: the old copy goes only once durable
    // metadata points at the new one, so a failed (or interrupted)
    // location update leaves `from` listed and still holding bytes.
    cfs.datanode(to).put(block, data)?;
    cfs.namenode().set_locations(block, vec![to])?;
    cfs.datanode(from).delete(block);
    Ok(())
}

/// One map task: a taken stripe, its reserved parity ids and its encode plan.
type EncodeTask = (PendingStripe, Vec<BlockId>, Result<EncodePlan>);

/// Plans each taken stripe once and deals the tasks round-robin over their
/// planned encoding racks — the core rack under EAR, a seeded one under RR;
/// a stripe that cannot be planned is dealt as a rack of its own.
fn schedule(cfs: &MiniCfs, taken: Vec<(PendingStripe, Vec<BlockId>)>) -> Vec<EncodeTask> {
    spread_over_racks(taken.into_iter().map(|(stripe, parity_ids)| {
        let plan = cfs.namenode().plan_encoding(&stripe);
        let rack = plan.as_ref().ok().map(|p| cfs.topology().rack_of(p.encoding_node));
        (rack, (stripe, parity_ids, plan))
    }))
}

/// Orders `tasks` (in stripe-id order, each with its rack) by (rank within
/// its rack, rack), so neighbours share a rack only once one rack is left.
fn spread_over_racks<R: Ord + Copy, T>(tasks: impl IntoIterator<Item = (R, T)>) -> Vec<T> {
    let mut ranks = std::collections::BTreeMap::new();
    let mut rank = |rack| *ranks.entry(rack).and_modify(|r| *r += 1).or_insert(0usize);
    let mut keyed: Vec<_> = tasks.into_iter().map(|(r, t)| ((rank(r), r), t)).collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, task)| task).collect()
}

/// What one stripe's encode reports back to the job's statistics.
struct StripeOutcome {
    /// Block-sized transfers that crossed racks towards the encoding node.
    cross_rack_downloads: usize,
    /// What the BlockMover must move; non-empty iff the stripe still
    /// violates rack-level fault tolerance.
    relocations: Vec<Relocation>,
}

/// Runs one task to its end on the worker that holds it: up to
/// [`STRIPE_ATTEMPTS`] tries of its plan under its reserved parity ids. A
/// failed try left the stripe fully replicated ([`encode_stripe`] mutates no
/// metadata until parity is durable), so restarting it is always safe.
fn encode_with_retries(cfs: &MiniCfs, task: &EncodeTask) -> Result<StripeOutcome> {
    let (stripe, parity_ids, plan) = task;
    let plan = plan.as_ref().map_err(Error::clone)?;
    let mut last = encode_stripe(cfs, stripe, plan, parity_ids);
    for tries in 0..STRIPE_ATTEMPTS - 1 {
        if last.is_ok() {
            break;
        }
        // Seeded jittered backoff keyed by stripe, so concurrent retries of
        // different stripes desynchronise deterministically.
        reliability::pace(cfs.reliability().backoff_ticks(stripe.id.index() as u64, tries));
        last = encode_stripe(cfs, stripe, plan, parity_ids);
    }
    last
}

/// Encodes one stripe by its `plan`: fold its `m` parity rows at the
/// encoding node ([`fold::fold`]), upload them under `parity_ids`, and
/// delete redundant replicas.
///
/// # Transactionality
///
/// Under fault injection any download, fold hop, or upload can fail. This
/// function mutates no cluster metadata and deletes no replica until
/// *every* parity block is durably stored: an error return (at any point)
/// leaves the stripe exactly as replicated as it was, so the caller can
/// retry or requeue it with no risk of a half-encoded stripe. The fold is
/// read-only, which is also what makes re-running it mid-stripe safe.
fn encode_stripe(
    cfs: &MiniCfs,
    stripe: &PendingStripe,
    plan: &EncodePlan,
    parity_ids: &[BlockId],
) -> Result<StripeOutcome> {
    let enc = plan.encoding_node;
    // A dead encoding node can serve no map task; fail fast and leave the
    // stripe to the retry or a later job.
    if cfs.injector().node_down(enc) {
        return Err(Error::NodeDown { node: enc });
    }

    let unknown = |b| Error::Invariant(format!("unknown {b}"));
    let locate = |&b| cfs.namenode().locations(b).ok_or_else(|| unknown(b));
    let locations: Vec<Vec<NodeId>> = stripe.blocks.iter().map(locate).collect::<Result<_>>()?;
    let sources: Vec<Source<'_>> = stripe
        .blocks
        .iter()
        .zip(&locations)
        .enumerate()
        .map(|(index, (&block, holders))| Source { index, block, holders })
        .collect();
    // One Encode-class op folds the parity rows (released before the parity
    // stores admit theirs) under the rebuild's re-plan rule: a failed pass's
    // blamed node — a dead holder `read_nearest` met, the node a chain
    // stopped at — joins the dead set, and the fold is planned again while
    // that set grows. `received` keeps what `enc` read whole and what
    // abandoned passes paid. A stop at `enc` or by the substrate is final.
    let dead = DeadNodeSet::new();
    let (parity, cross_rack_downloads) = {
        let ctx = cfs.reliability().ctx(OpClass::Encode)?;
        let (topo, rows) = (cfs.topology(), cfs.codec().params().parity());
        let mut received = Received::default();
        loop {
            let known = dead.len();
            let listed = sources.iter().map(|src| (src.block, src.holders));
            let held = |b: BlockId| received.held.contains_key(&b);
            let plan = ChainPlan::of(topo, enc, enc, rows, listed, |n| dead.contains(n), held);
            let acc = StripeEncoder::new(cfs.codec(), cfs.config().block_size.as_u64() as usize);
            let folded = plan.and_then(|plan| {
                fold::fold(cfs.io(), &ctx, &plan, acc, &sources, &dead, &mut received)
            });
            let e = match folded {
                Ok(parity) => break (parity, received.cross_rack_downloads),
                Err((_, e)) => e,
            };
            match e {
                Error::NodeDown { node } if node == enc => return Err(e),
                Error::NodeDown { node } => dead.insert(node),
                _ if e.stops_the_op() => return Err(e),
                _ => {}
            }
            if dead.len() == known {
                return Err(e);
            }
        }
    };

    // Store every parity block before touching any metadata. Each store
    // pays its own transfer through the fault boundary. The spread holds
    // every seat the plan hands out — the data nodes once the BlockMover has
    // run, and all `m` parity nodes — so a fallback never takes the seat of
    // a parity block still to come or of a block about to be relocated.
    let planned_seats = plan.final_data_nodes().into_iter().chain(plan.parity_nodes.iter().copied());
    let mut spread = cfs.spread_of(planned_seats);
    let mut stored: Vec<(BlockId, NodeId)> = Vec::with_capacity(parity_ids.len());
    for ((p, &id), &planned) in parity.into_iter().zip(parity_ids).zip(&plan.parity_nodes) {
        let p = p.stamped();
        match store_parity(cfs, id, p, enc, planned, &mut spread) {
            Ok(dst) => stored.push((id, dst)),
            Err(e) => {
                // Roll back: drop the parity bytes already stored. The data
                // blocks still have every replica, so the stripe is simply
                // "not encoded".
                for &(id, dst) in &stored {
                    cfs.datanode(dst).delete(id);
                }
                return Err(e);
            }
        }
    }

    // Parity is durable — only now does the stripe transition to "encoded":
    // publish parity locations, record the stripe, delete extra replicas.
    for &(id, dst) in &stored {
        cfs.namenode().set_locations(id, vec![dst])?;
    }
    cfs.namenode()
        .record_encoded(crate::namenode::EncodedStripe {
            id: stripe.id,
            data: stripe.blocks.clone(),
            parity: stored.iter().map(|&(id, _)| id).collect(),
        })?;

    // Delete redundant replicas, keeping the matching's choice. The kept
    // node may be one the fault plan has crashed — that is fine: the shard
    // stays within the stripe's `n - k` rebuild budget (a down node holds
    // at most `c` blocks of any stripe), and keeping the planned placement
    // preserves EAR's zero-violation property under faults.
    for (block, &kept) in stripe.blocks.iter().zip(&plan.kept_data) {
        let locs = locate(block)?;
        // Publish before retire, as in `relocate`.
        cfs.namenode().set_locations(*block, vec![kept])?;
        for n in locs {
            if n != kept {
                cfs.datanode(n).delete(*block);
            }
        }
    }
    // Queue relocations for the BlockMover. Indices come from the matching
    // over this same stripe; a bad one is dropped rather than panicking the
    // encode worker.
    let relocations = plan
        .relocations
        .iter()
        .filter_map(|&(idx, _, to)| Some((*stripe.blocks.get(idx)?, *plan.kept_data.get(idx)?, to)))
        .collect();
    Ok(StripeOutcome {
        cross_rack_downloads,
        relocations,
    })
}

/// Stores one parity block, preferring the planned node and falling back to
/// any node `spread` admits once the planned seat is given up (same rack
/// first, then by index). Returns the node that accepted the bytes, recorded
/// in `spread` in place of `planned`.
fn store_parity(
    cfs: &MiniCfs,
    id: BlockId,
    data: Block,
    enc: NodeId,
    planned: NodeId,
    spread: &mut StripeSpread<'_>,
) -> Result<NodeId> {
    let topo = cfs.topology();
    spread.vacate(planned);
    let mut candidates: Vec<NodeId> = topo
        .nodes()
        .filter(|&n| n != planned && spread.admits(n))
        .collect();
    // Prefer fallbacks in the planned node's rack (same placement intent).
    candidates.sort_by_key(|&n| (topo.rack_of(n) != topo.rack_of(planned), n.index()));
    candidates.insert(0, planned);

    let ctx = cfs.reliability().ctx(OpClass::Encode)?;
    let dst = cfs.io().write_with_fallback(&ctx, enc, id, &data, &candidates)?;
    spread.place(dst);
    Ok(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterPolicy};
    use ear_faults::{FaultConfig, FaultPlan};
    use ear_types::{
        Bandwidth, ByteSize, CacheConfig, EarConfig, ErasureParams, ReplicationConfig,
        StoreBackend,
    };

    fn cfg(policy: ClusterPolicy, racks: usize, nodes_per_rack: usize) -> ClusterConfig {
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        ClusterConfig {
            racks,
            nodes_per_rack,
            block_size: ByteSize::kib(256),
            node_bandwidth: Bandwidth::bytes_per_sec(256e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(256e6),
            ear,
            policy,
            seed: 5,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        }
    }

    fn boot(policy: ClusterPolicy, racks: usize) -> MiniCfs {
        MiniCfs::new(cfg(policy, racks, 1)).unwrap()
    }

    /// Asserts every encoded stripe's stored parity is exactly what the
    /// one-shot codec computes from the written data blocks.
    fn assert_parity_matches_codec(cfs: &MiniCfs) {
        for es in cfs.namenode().encoded_stripes() {
            let data: Vec<Vec<u8>> = es.data.iter().map(|b| cfs.make_block(b.0)).collect();
            let expected = cfs.codec().encode(&data).unwrap();
            for (&p, want) in es.parity.iter().zip(&expected) {
                let loc = cfs.namenode().locations(p).unwrap()[0];
                let got = cfs.datanode(loc).get(p).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "parity {p} of {}", es.id);
            }
        }
    }

    fn write_stripes(cfs: &MiniCfs, blocks: usize) {
        write_stripes_from(cfs, 0, blocks);
    }

    /// Writes `make_block(i)` for `i` in `first..first + blocks`, each from
    /// node `i mod nodes`.
    fn write_stripes_from(cfs: &MiniCfs, first: usize, blocks: usize) {
        for i in first..first + blocks {
            let data = cfs.make_block(i as u64);
            cfs.write_block(NodeId((i % cfs.topology().num_nodes()) as u32), data)
                .unwrap();
        }
    }

    #[test]
    fn encoding_deletes_redundant_replicas_and_stores_parity() {
        let cfs = boot(ClusterPolicy::Rr, 8);
        write_stripes(&cfs, 8); // RR seals every k = 4 writes: 2 stripes
        let (stats, _) = RaidNode::encode_all(&cfs, 2).unwrap();
        assert_eq!(stats.stripes, 2);
        assert!(
            !stats.gf_kernel.is_empty(),
            "encode stats must report the GF kernel tier"
        );
        // Each data block now has exactly one replica.
        for b in 0..8u64 {
            assert_eq!(cfs.namenode().locations(BlockId(b)).unwrap().len(), 1);
        }
        // 2 stripes x 2 parity blocks were registered.
        assert_eq!(cfs.namenode().block_count(), 8 + 4);
        // Total stored bytes = (8 data + 4 parity) blocks.
        let total: u64 = cfs.rack_storage().iter().sum();
        assert_eq!(total, 12 * ByteSize::kib(256).as_u64());
    }

    #[test]
    fn ear_encoding_has_zero_cross_rack_downloads() {
        let cfs = boot(ClusterPolicy::Ear, 8);
        // EAR seals a stripe once a core rack accumulates k = 4 blocks, so
        // write enough for several seals.
        write_stripes(&cfs, 64);
        assert!(cfs.namenode().pending_stripe_count() >= 2);
        let (stats, relocations) = RaidNode::encode_all(&cfs, 4).unwrap();
        assert!(stats.stripes >= 2);
        assert_eq!(stats.cross_rack_downloads, 0, "EAR downloads intra-rack");
        assert!(relocations.is_empty(), "EAR never relocates");
        for es in cfs.namenode().encoded_stripes() {
            for b in es.data {
                assert_eq!(cfs.namenode().locations(b).unwrap().len(), 1);
            }
        }
    }

    #[test]
    fn encoded_stripe_is_decodable_from_any_k_blocks() {
        let cfs = boot(ClusterPolicy::Rr, 8);
        write_stripes(&cfs, 4);
        let (stats, _) = RaidNode::encode_all(&cfs, 1).unwrap();
        assert_eq!(stats.stripes, 1);
        let es = &cfs.namenode().encoded_stripes()[0];
        // Original contents: write_stripes stores make_block(i) as BlockId(i).
        let originals: Vec<Vec<u8>> = es.data.iter().map(|b| cfs.make_block(b.0)).collect();
        let fetch = |b: BlockId| -> Option<Vec<u8>> {
            let loc = cfs.namenode().locations(b).unwrap()[0];
            cfs.datanode(loc).get(b).map(|d| d.to_vec())
        };
        let mut shards: Vec<Option<Vec<u8>>> = es
            .data
            .iter()
            .chain(es.parity.iter())
            .map(|&b| fetch(b))
            .collect();
        // Erase one data and one parity block, then reconstruct.
        shards[1] = None;
        shards[4] = None;
        cfs.codec().reconstruct(&mut shards).unwrap();
        for i in 0..4 {
            assert_eq!(shards[i].as_ref().unwrap(), &originals[i]);
        }
    }

    #[test]
    fn rr_violations_are_repaired_by_block_mover() {
        // 6 racks, (6,4), c=1: stripes must span all racks; RR violates
        // often.
        let cfs = boot(ClusterPolicy::Rr, 6);
        write_stripes(&cfs, 40); // 10 stripes
        let (stats, relocations) = RaidNode::encode_all(&cfs, 4).unwrap();
        assert_eq!(stats.stripes, 10);
        if !relocations.is_empty() {
            assert!(stats.stripes_with_relocation > 0);
            let moved = RaidNode::relocate(&cfs, &relocations).unwrap();
            assert_eq!(moved, relocations.len());
            for &(block, _, to) in &relocations {
                assert_eq!(cfs.namenode().locations(block).unwrap(), vec![to]);
                assert!(cfs.datanode(to).contains(block));
            }
        }
    }

    #[test]
    fn encode_all_with_nothing_pending_is_empty() {
        let cfs = boot(ClusterPolicy::Ear, 8);
        let (stats, relocations) = RaidNode::encode_all(&cfs, 4).unwrap();
        assert_eq!(stats.stripes, 0);
        assert!(relocations.is_empty());
        assert_eq!(stats.throughput_mibps(), 0.0);
    }

    #[test]
    fn parity_ids_follow_stripe_order() {
        // 6 racks, c = 1: RR violates often, so the relocation list is
        // part of what must not move with the worker count.
        let runs: Vec<_> = [1, 4, 8]
            .into_iter()
            .map(|map_tasks| {
                let cfs = boot(ClusterPolicy::Rr, 6);
                write_stripes(&cfs, 40); // data ids 0..40, 10 stripes
                let (stats, relocations) = RaidNode::encode_all(&cfs, map_tasks).unwrap();
                assert_eq!(stats.stripes, 10);
                assert!(!relocations.is_empty());
                (cfs.namenode().encoded_stripes(), relocations)
            })
            .collect();
        for (i, es) in runs[0].0.iter().enumerate() {
            let first = 40 + 2 * i as u64;
            assert_eq!(es.parity, [BlockId(first), BlockId(first + 1)], "{}", es.id);
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn tasks_are_dealt_round_robin_over_their_racks() {
        ear_types::prop::check("tasks_are_dealt_round_robin_over_their_racks", 256, |rng| {
            // A `None` rack stands for a stripe that could not be planned.
            let racks = ear_types::prop::range(rng, 1..=6);
            let stripes = ear_types::prop::range(rng, 0..=48) as usize;
            let rack_of: Vec<Option<u64>> = (0..stripes)
                .map(|_| Some(rng.below(racks)).filter(|_| rng.below(8) != 0))
                .collect();
            let deal = || spread_over_racks(rack_of.iter().copied().zip(0..stripes));
            let order = deal();
            assert_eq!(order, deal(), "same racks, same order");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..stripes).collect::<Vec<_>>(), "a permutation");
            for rack in rack_of.iter().collect::<std::collections::BTreeSet<_>>() {
                let own: Vec<_> = order.iter().filter(|&&s| rack_of[s] == *rack).collect();
                assert!(own.windows(2).all(|w| w[0] < w[1]), "{rack:?} out of stripe order");
            }
            for (i, pair) in order.windows(2).enumerate() {
                let rack = rack_of[pair[0]];
                if rack == rack_of[pair[1]] {
                    let tail = &order[i..];
                    assert!(tail.iter().all(|&s| rack_of[s] == rack), "{rack:?} twice at {i}");
                }
            }
        });
    }

    #[test]
    fn rr_tasks_follow_their_planned_racks() {
        // RR stripes have no core rack, so a core-rack key would leave them
        // in stripe-id order; keyed on the planned encoding rack they are
        // dealt over racks like EAR's, each with the plan it will run.
        let cfs = boot(ClusterPolicy::Rr, 8);
        write_stripes(&cfs, 40); // 10 stripes
        let pending = cfs.namenode().pending_stripes();
        assert!(pending.iter().all(|s| s.plan.core_rack().is_none()));
        let plan = |s: &PendingStripe| cfs.namenode().plan_encoding(s).unwrap();
        let rack = |s: &PendingStripe| cfs.topology().rack_of(plan(s).encoding_node);
        let want = spread_over_racks(pending.iter().map(|s| (rack(s), s.id)));
        let tasks = schedule(&cfs, pending.iter().map(|s| (s.clone(), Vec::new())).collect());
        let got: Vec<StripeId> = tasks.iter().map(|(s, ..)| s.id).collect();
        assert_eq!(got, want);
        assert_ne!(got, pending.iter().map(|s| s.id).collect::<Vec<_>>(), "still in id order");
        for (stripe, _, planned) in &tasks {
            assert_eq!(planned.as_ref().unwrap(), &plan(stripe), "{}", stripe.id);
        }
        let racks: Vec<_> = tasks.iter().map(|(s, ..)| rack(s)).collect();
        assert_ne!(racks[0], racks[1], "{racks:?}");
    }

    #[test]
    fn a_testbed_encode_job_ships_parity_through_two_uplinks_at_once() {
        // The paper's testbed shape: 12 single-node racks, EAR (10,8), 2-way,
        // 32 MB/s links. Every stripe ships its m = 2 parity blocks out of
        // its core node and nothing else crosses a rack. With about four
        // stripes per core rack, two map tasks kept in one rack queue on one
        // uplink and take close to `stripes · m · B / bw` (0.85 of it);
        // dealt over racks they use two uplinks at once (about 0.5 of it).
        let (block, rate) = (ByteSize::kib(256).as_u64(), 32e6);
        let ear = EarConfig::new(
            ErasureParams::new(10, 8).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        let cfs = MiniCfs::new(ClusterConfig {
            block_size: ByteSize::kib(256),
            node_bandwidth: Bandwidth::bytes_per_sec(rate),
            rack_bandwidth: Bandwidth::bytes_per_sec(rate),
            ..ClusterConfig::testbed(ClusterPolicy::Ear, ear)
        })
        .unwrap();
        let mut written = 0;
        while cfs.namenode().pending_stripe_count() < 48 {
            write_stripes_from(&cfs, written, 12);
            written += 12;
        }
        let before = cfs.network().cross_rack_bytes();
        let (stats, _) = RaidNode::encode_all(&cfs, 2).unwrap();
        assert!(stats.stripes >= 48 && stats.failed_stripes.is_empty(), "{stats:?}");
        let parity_bytes = stats.stripes as u64 * 2 * block;
        assert_eq!(cfs.network().cross_rack_bytes() - before, parity_bytes);
        let one_uplink = parity_bytes as f64 / rate;
        assert!(
            stats.wall_seconds < 0.7 * one_uplink,
            "{} stripes took {:.3} s, one uplink's worth is {one_uplink:.3} s",
            stats.stripes,
            stats.wall_seconds
        );
        assert_parity_matches_codec(&cfs);
    }

    #[test]
    fn a_refused_reservation_requeues_every_taken_stripe() {
        let dir = std::env::temp_dir().join(format!("ear-reserve-{}", std::process::id()));
        let cfs = MiniCfs::new(ClusterConfig {
            store: StoreBackend::Extent,
            durability: ear_types::DurabilityConfig::at(&dir),
            ..cfg(ClusterPolicy::Rr, 8, 1)
        })
        .unwrap();
        write_stripes(&cfs, 12);
        let before = cfs.namenode().pending_stripe_count();
        assert_eq!(before, 3);
        cfs.namenode().fail_wal_appends();
        assert!(RaidNode::encode_all(&cfs, 2).is_err());
        assert_eq!(cfs.namenode().pending_stripe_count(), before);
        assert!(cfs.namenode().encoded_stripes().is_empty());
        drop(cfs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicked_encode_task_strands_no_stripe() {
        // A location naming a node the topology never minted panics the
        // chain that looks up its rack. The job must still finish, encode
        // the other stripes and hand the third back.
        let cfs = boot(ClusterPolicy::Rr, 8);
        write_stripes(&cfs, 12);
        let victim = cfs.namenode().pending_stripes().remove(1);
        let mut locations = cfs.namenode().locations(victim.blocks[0]).unwrap();
        locations.push(NodeId(999));
        cfs.namenode().set_locations(victim.blocks[0], locations).unwrap();

        let (stats, _) = RaidNode::encode_all(&cfs, 1).unwrap();
        assert_eq!(stats.stripes, 2);
        match stats.failed_stripes.as_slice() {
            [(id, Error::Invariant(_))] => assert_eq!(*id, victim.id),
            other => panic!("expected one invariant failure, got {other:?}"),
        }
        assert_eq!(cfs.namenode().pending_stripe_count(), 1);
        assert_eq!(cfs.namenode().encoded_stripes().len(), 2);
    }

    #[test]
    fn chain_parity_matches_the_codec_reference() {
        // The fold chain changes how bytes travel, never what lands: the
        // sealed parity is what `ReedSolomon::encode` computes from the
        // written blocks.
        for policy in [ClusterPolicy::Rr, ClusterPolicy::Ear] {
            let cfs = MiniCfs::new(cfg(policy, 6, 2)).unwrap();
            write_stripes(&cfs, 40);
            let (stats, _) = RaidNode::encode_all(&cfs, 1).unwrap();
            assert!(stats.stripes > 0, "{policy:?}");
            assert_parity_matches_codec(&cfs);
        }
    }

    /// The first seeded crash-only plan that kills exactly `node`, no
    /// earlier than operation `after_ops`.
    fn crash_plan(topo: &ear_types::ClusterTopology, node: NodeId, after_ops: u64) -> FaultPlan {
        let faults = FaultConfig {
            straggler_delay: ear_faults::DelayModel::Throttle,
            node_crashes: 1,
            rack_outages: 0,
            stragglers: 0,
            straggler_factor: 1.0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 4 * after_ops,
        };
        (0u64..)
            .map(|seed| FaultPlan::generate(seed, topo, &faults))
            .find(|p| {
                p.crashes()
                    .first()
                    .is_some_and(|c| c.node == node && c.at_op >= after_ops)
            })
            .unwrap()
    }

    #[test]
    fn dead_aggregator_mid_chain_replans_to_identical_parity() {
        // Three of a stripe's four sources have copies on the victim and on
        // `far`, the victim being the lower-rack holder, so the first plan
        // folds them at the victim; the fourth sits on the encoding node.
        // The victim dies after the writes. Pass 1's hop reads the three
        // from `far` across racks (the victim's copies died with it), and
        // the chain stops at the victim. The victim joins the dead set and
        // the re-plan still folds: the three re-home to `far`, which reads
        // them off its own disk and ships m = 2 rows — where a gather pass
        // would have moved all three whole a second time.
        let victim = NodeId(2);
        let base = cfg(ClusterPolicy::Rr, 6, 2);
        let topo = ear_types::ClusterTopology::uniform(base.racks, base.nodes_per_rack);
        let plan = crash_plan(&topo, victim, 64);
        let cfs = (0u64..)
            .map(|seed| MiniCfs::with_faults(ClusterConfig { seed, ..base.clone() }, plan.clone()))
            .map(Result::unwrap)
            .find(|cfs| {
                write_stripes(cfs, 4);
                let stripe = &cfs.namenode().pending_stripes()[0];
                let enc = cfs.namenode().plan_encoding(stripe).unwrap().encoding_node;
                topo.rack_of(enc) != topo.rack_of(victim)
            })
            .unwrap();
        let stripe = cfs.namenode().pending_stripes().remove(0);
        let enc = cfs.namenode().plan_encoding(&stripe).unwrap().encoding_node;
        // The far replicas live in the highest rack that is neither the
        // victim's nor the encoding node's, so the victim's rack (lower id)
        // is every source's preferred home while the victim is not known
        // dead.
        let far = topo
            .nodes()
            .filter(|&n| topo.rack_of(n) != topo.rack_of(enc) && topo.rack_of(n) != topo.rack_of(victim))
            .last()
            .unwrap();
        let pin = |b: BlockId, nodes: Vec<NodeId>| {
            for &n in &nodes {
                cfs.datanode(n).put(b, Block::from(cfs.make_block(b.0))).unwrap();
            }
            cfs.namenode().set_locations(b, nodes).unwrap();
        };
        for &b in &stripe.blocks[..3] {
            pin(b, vec![victim, far]);
        }
        pin(stripe.blocks[3], vec![enc]);
        // Reads advance the plan's operation clock until the crash lands.
        while !cfs.injector().node_down(victim) {
            cfs.read_block(enc, stripe.blocks[3]).unwrap();
        }
        let before = cfs.network().snapshot();
        let (stats, _) = RaidNode::encode_all(&cfs, 1).unwrap();
        let moved = cfs.network().snapshot().delta(&before);
        assert_eq!(stats.stripes, 1, "{:?}", stats.failed_stripes);
        // 3 shards into the abandoned hop, then 2 rows from `far`: the
        // abandoned pass stays counted.
        assert_eq!(stats.cross_rack_downloads, 3 + 2);
        let es = &cfs.namenode().encoded_stripes()[0];
        let stored_at = |p: BlockId| cfs.namenode().locations(p).unwrap()[0];
        let parity_out =
            es.parity.iter().filter(|&&p| !topo.same_rack(stored_at(p), enc)).count() as u64;
        let block = cfs.config().block_size.as_u64();
        assert_eq!(moved.cross_rack_bytes, (3 + 2 + parity_out) * block);
        assert_parity_matches_codec(&cfs);
    }

    #[test]
    fn a_dead_planned_parity_node_costs_no_other_block_its_seat() {
        // The node planned for a stripe's first parity block dies between
        // the writes and the encode job. The block falls back, and must not
        // land on the node planned for the second: with one node per rack
        // and c = 1 that node is among the few the fallback may take.
        for (policy, blocks) in [(ClusterPolicy::Rr, 4), (ClusterPolicy::Ear, 64)] {
            let mut exercised = 0;
            for seed in 0..12 {
                let base = ClusterConfig {
                    seed,
                    block_size: ByteSize::kib(64),
                    ..cfg(policy, 8, 1)
                };
                // Plans follow (cluster seed, stripe id): a fault-free twin
                // names the victim before the faulty cluster boots.
                let twin = MiniCfs::new(base.clone()).unwrap();
                write_stripes(&twin, blocks);
                let Some(stripe) = twin.namenode().pending_stripes().into_iter().next() else {
                    continue;
                };
                let plan = twin.namenode().plan_encoding(&stripe).unwrap();
                let victim = plan.parity_nodes[0];
                if plan.encoding_node == victim {
                    continue; // nobody left to run the stripe's map task
                }
                let crash = crash_plan(twin.topology(), victim, 16 * blocks as u64);
                let cfs = MiniCfs::with_faults(base, crash).unwrap();
                write_stripes(&cfs, blocks);
                assert!(!cfs.injector().node_down(victim), "{policy:?} seed {seed}: died early");
                while !cfs.injector().node_down(victim) {
                    cfs.read_block(plan.encoding_node, stripe.blocks[0]).unwrap();
                }

                let (_, relocations) = RaidNode::encode_all(&cfs, 1).unwrap();
                RaidNode::relocate(&cfs, &relocations).unwrap();
                let encoded = cfs.namenode().encoded_stripes();
                assert!(encoded.iter().any(|es| es.id == stripe.id), "{policy:?} seed {seed}");
                for es in &encoded {
                    let holders: std::collections::BTreeSet<NodeId> = es
                        .members()
                        .flat_map(|b| cfs.namenode().locations(b).unwrap())
                        .collect();
                    assert_eq!(holders.len(), 6, "{policy:?} seed {seed}: {} on {holders:?}", es.id);
                }
                assert_eq!(crate::monitor::scan(&cfs), [], "{policy:?} seed {seed}");
                exercised += 1;
            }
            assert!(exercised >= 6, "{policy:?}: only {exercised} seeds had a stripe to kill under");
        }
    }

    #[test]
    fn relocate_publishes_the_new_location_before_retiring_the_old_copy() {
        // A location update that fails (here: the WAL refuses the append)
        // must leave the block readable where durable metadata says it is.
        let dir = std::env::temp_dir().join(format!("ear-relocate-{}", std::process::id()));
        let durable = ClusterConfig {
            store: StoreBackend::Extent,
            durability: ear_types::DurabilityConfig::at(&dir),
            ..cfg(ClusterPolicy::Rr, 8, 1)
        };
        let block = {
            let cfs = MiniCfs::new(durable.clone()).unwrap();
            let block = cfs.write_block(NodeId(0), cfs.make_block(7)).unwrap();
            let from = cfs.namenode().locations(block).unwrap()[0];
            let to = cfs
                .topology()
                .nodes()
                .find(|n| !cfs.namenode().locations(block).unwrap().contains(n))
                .unwrap();
            cfs.namenode().fail_wal_appends();
            assert!(RaidNode::relocate(&cfs, &[(block, from, to)]).is_err());
            assert!(cfs.datanode(from).contains(block), "old copy retired too early");
            block
        };
        // What a restart recovers is the pre-relocation location set, and
        // every listed replica still serves the written bytes.
        let cfs = MiniCfs::reopen(durable).unwrap();
        for holder in cfs.namenode().locations(block).unwrap() {
            let got = cfs.datanode(holder).get(block).unwrap();
            assert_eq!(got.as_slice(), cfs.make_block(7).as_slice());
        }
        drop(cfs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn relocate_refuses_to_launder_a_rotten_copy() {
        // Post-encoding there is one copy; if it rotted, moving it through
        // `put` would re-hash the bad bytes into a valid CRC for good.
        for store in [StoreBackend::Memory, StoreBackend::Extent] {
            let cfs = MiniCfs::new(ClusterConfig {
                store,
                ..cfg(ClusterPolicy::Rr, 8, 1)
            })
            .unwrap();
            let block = cfs.write_block(NodeId(0), cfs.make_block(7)).unwrap();
            let from = cfs.namenode().locations(block).unwrap()[0];
            cfs.namenode().set_locations(block, vec![from]).unwrap();
            let mut nodes = cfs.topology().nodes();
            let to = nodes.find(|&n| !cfs.datanode(n).contains(block)).unwrap();
            let rotten = vec![0xA5; cfs.make_block(7).len()];
            cfs.datanode(from).rot(block, rotten.clone());

            match RaidNode::relocate(&cfs, &[(block, from, to)]) {
                Err(Error::CorruptBlock { block: b, node }) => assert_eq!((b, node), (block, from)),
                other => panic!("{store:?}: expected CorruptBlock, got {other:?}"),
            }
            assert_eq!(cfs.namenode().locations(block), Some(vec![from]));
            let kept = cfs.datanode(from).get(block).unwrap();
            assert_eq!(kept.as_slice(), &rotten[..], "{store:?}: old copy touched");
            let reached = cfs.datanode(to).contains(block);
            assert!(!reached, "{store:?}: rot reached {to}");
        }
    }

    #[test]
    fn one_rotten_copy_does_not_stop_the_rest_of_the_batch() {
        let cfs = MiniCfs::new(cfg(ClusterPolicy::Rr, 8, 1)).unwrap();
        let batch: Vec<Relocation> = (7..9)
            .map(|tag| {
                let block = cfs.write_block(NodeId(0), cfs.make_block(tag)).unwrap();
                let from = cfs.namenode().locations(block).unwrap()[0];
                cfs.namenode().set_locations(block, vec![from]).unwrap();
                let mut nodes = cfs.topology().nodes();
                let to = nodes.find(|&n| !cfs.datanode(n).contains(block)).unwrap();
                (block, from, to)
            })
            .collect();
        let (rotten, from, _) = batch[0];
        cfs.datanode(from).rot(rotten, vec![0xA5; cfs.make_block(7).len()]);

        match RaidNode::relocate(&cfs, &batch) {
            Err(Error::CorruptBlock { block, node }) => assert_eq!((block, node), (rotten, from)),
            other => panic!("expected CorruptBlock, got {other:?}"),
        }
        assert_eq!(cfs.namenode().locations(rotten), Some(vec![from]));
        let (moved, from, to) = batch[1];
        assert_eq!(cfs.namenode().locations(moved), Some(vec![to]), "second block left behind");
        assert_eq!(cfs.datanode(to).get(moved).unwrap().as_slice(), cfs.make_block(8).as_slice());
        assert!(!cfs.datanode(from).contains(moved));
    }

    /// A cluster with one pending RR stripe of 4 blocks and a cache on
    /// every node, the stripe, its encoding node and a member that node
    /// holds: the fold reads that member from its own disk first.
    fn one_stripe_with_a_local_member() -> (MiniCfs, PendingStripe, NodeId, BlockId) {
        let cache = CacheConfig::Sized { hot_bytes: 4 << 20, cold_bytes: 4 << 20 };
        (0..)
            .find_map(|seed| {
                let cfs = MiniCfs::new(ClusterConfig { seed, cache, ..cfg(ClusterPolicy::Rr, 8, 1) });
                let cfs = cfs.unwrap();
                write_stripes(&cfs, 4);
                let stripe = cfs.namenode().pending_stripes().remove(0);
                let enc = cfs.namenode().plan_encoding(&stripe).unwrap().encoding_node;
                let held = |b: &&BlockId| cfs.namenode().locations(**b).unwrap().contains(&enc);
                let local = *stripe.blocks.iter().find(held)?;
                Some((cfs, stripe, enc, local))
            })
            .unwrap()
    }

    #[test]
    fn a_rotten_source_copy_encodes_from_the_next_holder() {
        let (cfs, _, enc, rotten) = one_stripe_with_a_local_member();
        let len = cfs.make_block(rotten.0).len();
        cfs.datanode(enc).rot(rotten, vec![0xA5; len]);
        let failed = cfs.io().stats().failed_reads;
        let (stats, _) = RaidNode::encode_all(&cfs, 1).unwrap();
        assert_eq!(stats.stripes, 1, "{:?}", stats.failed_stripes);
        assert_eq!(cfs.io().stats().failed_reads - failed, 1, "the rot was read and caught");
        assert_parity_matches_codec(&cfs);
        for es in cfs.namenode().encoded_stripes() {
            for p in es.parity {
                let dn = cfs.datanode(cfs.namenode().locations(p).unwrap()[0]);
                let stamp = dn.stored_crc(p).unwrap();
                assert_eq!(stamp, ear_types::crc::crc32c(&dn.get(p).unwrap()), "parity {p}");
            }
        }
        let cached = cfs.datanode(enc).cached_read(rotten);
        assert!(cached.is_none_or(|read| !read.verified), "the rotten copy was cached");
    }

    #[test]
    fn a_stripe_with_no_clean_copy_of_a_source_is_requeued_whole() {
        let (cfs, stripe, _, rotten) = one_stripe_with_a_local_member();
        let holders = cfs.namenode().locations(rotten).unwrap();
        let len = cfs.make_block(rotten.0).len();
        for &n in &holders {
            cfs.datanode(n).rot(rotten, vec![0x5A; len]);
        }
        let replicas = |b: BlockId| cfs.namenode().locations(b).unwrap();
        let before: Vec<Vec<NodeId>> = stripe.blocks.iter().map(|&b| replicas(b)).collect();
        let (stats, _) = RaidNode::encode_all(&cfs, 1).unwrap();
        assert_eq!(stats.stripes, 0);
        match stats.failed_stripes.as_slice() {
            [(id, Error::CorruptBlock { block, .. })] => assert_eq!((*id, *block), (stripe.id, rotten)),
            other => panic!("expected one CorruptBlock failure, got {other:?}"),
        }
        assert_eq!(cfs.namenode().pending_stripe_count(), 1, "requeued");
        assert!(cfs.namenode().encoded_stripes().is_empty());
        for (&b, was) in stripe.blocks.iter().zip(&before) {
            assert_eq!(&replicas(b), was, "{b} lost a location");
            assert!(was.iter().all(|&n| cfs.datanode(n).contains(b)), "{b} lost a replica");
        }
    }

    #[test]
    fn ear_moves_far_less_cross_rack_data_than_rr() {
        // At this tiny scale wall-clock throughput is scheduling noise, so
        // compare the deterministic cross-rack byte counters instead; the
        // timing comparison lives in the Fig. 8 harness at realistic scale.
        let ear_cfs = boot(ClusterPolicy::Ear, 8);
        let rr_cfs = boot(ClusterPolicy::Rr, 8);
        write_stripes(&ear_cfs, 64);
        write_stripes(&rr_cfs, 64);
        let ear_before = ear_cfs.network().cross_rack_bytes();
        let rr_before = rr_cfs.network().cross_rack_bytes();
        let (ear_stats, _) = RaidNode::encode_all(&ear_cfs, 4).unwrap();
        let (rr_stats, _) = RaidNode::encode_all(&rr_cfs, 4).unwrap();
        let ear_cross = ear_cfs.network().cross_rack_bytes() - ear_before;
        let rr_cross = rr_cfs.network().cross_rack_bytes() - rr_before;
        // Normalize per stripe: the policies may have sealed different
        // stripe counts.
        let ear_per = ear_cross as f64 / ear_stats.stripes as f64;
        let rr_per = rr_cross as f64 / rr_stats.stripes as f64;
        assert!(
            ear_per * 1.5 < rr_per,
            "EAR {ear_per} cross-rack bytes/stripe should be well below RR's {rr_per}"
        );
        // EAR's cross-rack traffic is only its parity uploads: at most 2 per
        // stripe, and at least 1 (with c = 1, at most one parity block can
        // land in the core rack).
        let block = ByteSize::kib(256).as_u64();
        assert!(ear_cross <= ear_stats.stripes as u64 * 2 * block);
        assert!(ear_cross >= ear_stats.stripes as u64 * block);
    }
}
