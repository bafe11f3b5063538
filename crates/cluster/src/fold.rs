//! The rack fold (DESIGN.md §15): `r` GF(2⁸) linear combinations of stored
//! blocks computed at one node.
//!
//! Encoding a stripe is the fold of its `k` data blocks under the
//! generator's `m` parity rows; rebuilding a lost shard is the fold of `k`
//! survivors under one row of recovery coefficients. Both are running
//! partial sums ([`StripeEncoder`]), so the sources never need to be
//! resident at one node: a remote rack holding more than `r` of them folds
//! its blocks locally and ships the `r` running rows once, where reading
//! them whole would ship one block each. A rack with `s ≤ r` sources is
//! read whole (`s · B ≤ r · B` bytes), so cross-rack traffic is
//! `Σ min(sᵣ, r)` blocks over remote racks — and with no rack folding the
//! walk is the classical gather.
//!
//! The walker decides nothing beyond that rule. What to do when a source
//! fails is its two callers' business: the RaidNode re-runs a stripe once
//! with no folding rack, a rebuild drops the blamed source and re-chooses.

use crate::io::{ClusterIo, DeadNodeSet};
use crate::reliability::OpContext;
use ear_erasure::StripeEncoder;
use ear_types::{Block, BlockId, Error, NodeId, RackId};
use std::collections::{BTreeMap, BTreeSet};

/// One input of a fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source<'a> {
    /// The source's column in the accumulator's coefficient rows.
    pub index: usize,
    pub block: BlockId,
    /// Nodes to read it from, in preference order.
    pub holders: &'a [NodeId],
}

/// What the destination has received, kept by the caller across passes: the
/// shards read whole (never read twice) and the block-sized transfers paid
/// so far, abandoned passes included.
#[derive(Debug, Default)]
pub(crate) struct Received {
    pub held: BTreeMap<BlockId, Block>,
    /// Source reads, plus `r` per folding hop.
    pub downloads: usize,
    /// Reads served from outside the reading node's rack, plus `r` per
    /// folding hop.
    pub cross_rack_downloads: usize,
}

/// A remote rack that folds its sources at `aggregator`, its lowest-indexed
/// home holder, before anything crosses the rack boundary.
struct Hop<'a> {
    aggregator: NodeId,
    /// Position in `sources` of the aggregator's own source: the one to
    /// blame when the aggregator cannot be reached.
    own: usize,
    /// The rack's sources: position in `sources`, source, home holder.
    members: Vec<(usize, Source<'a>, NodeId)>,
}

/// Folds `sources` into `acc` at node `at` and returns the finished rows.
///
/// A source `received` already holds is at `at`. Every other source's home
/// is its best holder not known `dead`: `at`'s rack first, then the lowest
/// rack, then the lowest node (a source with no holder fails the fold
/// before anything is read). With `fold_racks`, every remote rack that is
/// home to more sources than `acc` has rows becomes a hop at its
/// lowest-indexed home holder. Hops are walked in ascending rack id with
/// `acc` as the travelling state — absorb the rack's sources,
/// [`stream_partial`](ClusterIo::stream_partial) the rows once to the next
/// hop or to `at` — and every other source is then read whole at `at`, in
/// list order. Every read goes through [`ClusterIo::read_nearest`] and
/// charges `ctx`.
///
/// Nothing here mutates cluster metadata or stores any block, so a failed
/// fold leaves the cluster as it was.
///
/// # Errors
///
/// The position in `sources` of the source to blame (a hop that cannot be
/// reached is charged to its aggregator's own source) with the error that
/// stopped the walk — the substrate's [`Error::DeadlineExceeded`] /
/// [`Error::RetryBudgetExhausted`] / [`Error::Overloaded`] included, which
/// callers propagate instead of re-planning. A source listed twice, or a
/// column of `acc` left without one, is [`Error::Invariant`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold(
    io: &ClusterIo,
    ctx: &OpContext<'_>,
    at: NodeId,
    mut acc: StripeEncoder,
    sources: &[Source<'_>],
    dead: &DeadNodeSet,
    fold_racks: bool,
    received: &mut Received,
) -> Result<Vec<Vec<u8>>, (usize, Error)> {
    let topo = io.topology();
    let at_rack = topo.rack_of(at);
    let (rows, partial_bytes) = acc
        .partial_rows()
        .fold((0usize, 0u64), |(rows, bytes), row| (rows + 1, bytes + row.len() as u64));

    let mut remote: BTreeMap<RackId, Vec<(usize, Source<'_>, NodeId)>> = BTreeMap::new();
    for (pos, src) in sources.iter().enumerate() {
        if received.held.contains_key(&src.block) {
            continue;
        }
        let home = src
            .holders
            .iter()
            .copied()
            .filter(|&h| !dead.contains(h))
            .min_by_key(|&h| (topo.rack_of(h) != at_rack, topo.rack_of(h), h))
            .or(src.holders.first().copied())
            .ok_or((pos, Error::BlockUnavailable { block: src.block }))?;
        if topo.rack_of(home) != at_rack {
            remote.entry(topo.rack_of(home)).or_default().push((pos, *src, home));
        }
    }
    let hops: Vec<Hop<'_>> = remote
        .into_values()
        .filter(|members| fold_racks && members.len() > rows)
        .filter_map(|members| {
            let &(own, _, aggregator) = members.iter().min_by_key(|&&(_, _, home)| home)?;
            Some(Hop { aggregator, own, members })
        })
        .collect();
    let folded: BTreeSet<usize> =
        hops.iter().flat_map(|hop| hop.members.iter().map(|&(pos, _, _)| pos)).collect();

    let read = |reader: NodeId, src: &Source<'_>, received: &mut Received| {
        let (data, served_by) = io.read_nearest(ctx, reader, src.block, src.holders, dead)?;
        received.downloads += 1;
        received.cross_rack_downloads +=
            usize::from(topo.rack_of(served_by) != topo.rack_of(reader));
        Ok::<Block, Error>(data)
    };
    // Hops sit in distinct racks, none of them `at`'s: every shipped row is
    // one block-sized cross-rack transfer.
    let ship = |from: NodeId, to: NodeId, received: &mut Received| {
        io.stream_partial(ctx, from, to, partial_bytes)?;
        received.downloads += rows;
        received.cross_rack_downloads += rows;
        Ok::<(), Error>(())
    };

    let mut prev: Option<&Hop<'_>> = None;
    for hop in &hops {
        if let Some(prev) = prev {
            ship(prev.aggregator, hop.aggregator, received).map_err(|e| {
                let next_down = matches!(e, Error::NodeDown { node } if node == hop.aggregator);
                (if next_down { hop.own } else { prev.own }, e)
            })?;
        }
        for (pos, src, _) in &hop.members {
            let data = read(hop.aggregator, src, received).map_err(|e| (*pos, e))?;
            acc.absorb_source(src.index, &data).map_err(|e| (*pos, e))?;
        }
        prev = Some(hop);
    }
    if let Some(last) = prev {
        ship(last.aggregator, at, received).map_err(|e| (last.own, e))?;
    }
    for (pos, src) in sources.iter().enumerate().filter(|(pos, _)| !folded.contains(pos)) {
        let data = match received.held.get(&src.block) {
            Some(data) => data.clone(),
            None => {
                let data = read(at, src, received).map_err(|e| (pos, e))?;
                received.held.insert(src.block, data.clone());
                data
            }
        };
        acc.absorb_source(src.index, &data).map_err(|e| (pos, e))?;
    }
    acc.finish().map_err(|e| (0, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datanode::DataNode;
    use crate::reliability::{self, OpClass, Reliability};
    use ear_erasure::{Matrix, ReedSolomon};
    use ear_faults::{FaultConfig, FaultInjector, FaultPlan};
    use ear_netem::EmulatedNetwork;
    use ear_types::{Bandwidth, ClusterTopology, ErasureParams};
    use std::sync::Arc;

    const LEN: usize = 64;

    /// Four racks of two nodes and one (6,4) stripe: member `j` is
    /// `BlockId(j)`, stored wherever a test [`place`](Bed::place)s it.
    struct Bed {
        io: ClusterIo,
        rs: ReedSolomon,
        shards: Vec<Vec<u8>>,
    }

    fn bed(injector: impl FnOnce(&ClusterTopology) -> FaultInjector) -> Bed {
        let topo = ClusterTopology::uniform(4, 2);
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let shard = |j: u8| (0..LEN).map(|i| (i as u8).wrapping_mul(7) ^ (j + 1)).collect();
        let data: Vec<Vec<u8>> = (0..4).map(shard).collect();
        let parity = rs.encode(&data).unwrap();
        let bw = Bandwidth::bytes_per_sec(1e9);
        let io = ClusterIo::new(
            topo.clone(),
            topo.nodes().map(DataNode::new).collect(),
            EmulatedNetwork::new(&topo, bw, bw),
            injector(&topo),
            Arc::new(Reliability::unlimited(topo.num_nodes())),
        );
        Bed { io, rs, shards: data.into_iter().chain(parity).collect() }
    }

    fn fault_free() -> Bed {
        bed(|_| FaultInjector::disabled())
    }

    /// A bed whose fault plan has crashed exactly `node` before any read.
    fn with_dead(node: NodeId) -> Bed {
        let faults = FaultConfig {
            straggler_delay: ear_faults::DelayModel::Throttle,
            node_crashes: 1,
            rack_outages: 0,
            stragglers: 0,
            straggler_factor: 1.0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 1,
        };
        bed(|topo| {
            let plan = (0u64..)
                .map(|seed| FaultPlan::generate(seed, topo, &faults))
                .find(|p| p.crashes().first().is_some_and(|c| c.node == node))
                .unwrap();
            FaultInjector::new(plan, topo.clone())
        })
    }

    impl Bed {
        fn place(&self, member: usize, node: u32) {
            let data = Block::from(self.shards[member].clone());
            self.io.datanode(NodeId(node)).put(BlockId(member as u64), data).unwrap();
        }

        /// The one-row fold that rebuilds member `lost` from `members`.
        fn rebuild_of(&self, lost: usize, members: &[usize]) -> StripeEncoder {
            let w = self.rs.recovery_coefficients(members, lost).unwrap();
            StripeEncoder::with_rows(self.rs.kernel(), Matrix::from_rows(1, w.len(), w), LEN)
        }

        /// Folds at node 0 under a Heal-class context with `deadline_ticks`.
        fn fold_at_0(
            &self,
            acc: StripeEncoder,
            sources: &[Source<'_>],
            deadline_ticks: u64,
            received: &mut Received,
        ) -> Result<Vec<Vec<u8>>, (usize, Error)> {
            let rel = self.io.reliability().clone();
            let ctx = rel.ctx_with_deadline(OpClass::Heal, deadline_ticks).unwrap();
            fold(&self.io, &ctx, NodeId(0), acc, sources, &DeadNodeSet::new(), true, received)
        }
    }

    fn source(index: usize, member: usize, holders: &[NodeId]) -> Source<'_> {
        Source { index, block: BlockId(member as u64), holders }
    }

    #[test]
    fn hops_are_visited_in_ascending_rack_id_whatever_the_list_order() {
        // Members 1, 2 in rack 3 are listed before members 3, 4 in rack 1;
        // both racks fold a one-row rebuild of member 0 at node 0.
        let bed = fault_free();
        for (member, node) in [(1, 6), (2, 7), (3, 3), (4, 2)] {
            bed.place(member, node);
        }
        let sources = [
            source(0, 1, &[NodeId(6)]),
            source(1, 2, &[NodeId(7)]),
            source(2, 3, &[NodeId(3)]),
            source(3, 4, &[NodeId(2)]),
        ];
        let rebuild = || bed.rebuild_of(0, &[1, 2, 3, 4]);
        let mut received = Received::default();
        let rows = bed.fold_at_0(rebuild(), &sources, u64::MAX, &mut received);
        assert_eq!(rows.unwrap(), [bed.shards[0].clone()]);
        assert_eq!((received.downloads, received.cross_rack_downloads), (6, 2));
        assert!(received.held.is_empty(), "nothing was read whole at node 0");

        // A deadline that covers two reads runs out on the first partial:
        // the walk is then leaving rack 1 (aggregator node 2, listed last),
        // not rack 3.
        let two_reads = 2 * reliability::xfer_cost_ticks(LEN);
        let stopped = bed.fold_at_0(rebuild(), &sources, two_reads, &mut Received::default());
        assert!(matches!(stopped, Err((3, Error::DeadlineExceeded { .. }))), "{stopped:?}");
    }

    #[test]
    fn a_dead_aggregator_blames_its_own_source() {
        // Rack 1 folds at node 2, whose own source (listed second) has a
        // spare copy in rack 2: both reads at node 2 succeed, the partial
        // cannot leave it.
        let bed = with_dead(NodeId(2));
        for (member, node) in [(1, 3), (2, 2), (2, 4), (3, 1), (4, 1)] {
            bed.place(member, node);
        }
        let spare = [NodeId(2), NodeId(4)];
        let sources = [
            source(0, 1, &[NodeId(3)]),
            source(1, 2, &spare),
            source(2, 3, &[NodeId(1)]),
            source(3, 4, &[NodeId(1)]),
        ];
        let mut received = Received::default();
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let stopped = bed.fold_at_0(acc, &sources, u64::MAX, &mut received);
        assert!(
            matches!(stopped, Err((1, Error::NodeDown { node })) if node == NodeId(2)),
            "{stopped:?}"
        );
        assert_eq!(received.downloads, 2, "the abandoned pass's reads stay counted");

        // Mid-chain: rack 1 folds at node 3, then the partial cannot reach
        // rack 3's aggregator — that hop's own source (listed first) is the
        // one to drop, not the sender's.
        let bed = with_dead(NodeId(6));
        for (member, node) in [(1, 6), (2, 7), (3, 3), (4, 3)] {
            bed.place(member, node);
        }
        let sources = [
            source(0, 1, &[NodeId(6)]),
            source(1, 2, &[NodeId(7)]),
            source(2, 3, &[NodeId(3)]),
            source(3, 4, &[NodeId(3)]),
        ];
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let stopped = bed.fold_at_0(acc, &sources, u64::MAX, &mut Received::default());
        assert!(
            matches!(stopped, Err((0, Error::NodeDown { node })) if node == NodeId(6)),
            "{stopped:?}"
        );
    }

    #[test]
    fn a_source_listed_twice_or_missing_is_an_invariant_at_any_row_count() {
        let bed = fault_free();
        for member in 0..4 {
            bed.place(member, 1);
        }
        let at_1 = [NodeId(1)];
        let twice = [0, 1, 1, 3].map(|member| source(member, member, &at_1));
        let short = [0, 1, 3].map(|member| source(member, member, &at_1));
        let accs = || [StripeEncoder::new(&bed.rs, LEN), bed.rebuild_of(4, &[0, 1, 2, 3])];
        for acc in accs() {
            let stopped = bed.fold_at_0(acc, &twice, u64::MAX, &mut Received::default());
            assert!(matches!(stopped, Err((2, Error::Invariant(_)))), "{stopped:?}");
        }
        for acc in accs() {
            let stopped = bed.fold_at_0(acc, &short, u64::MAX, &mut Received::default());
            assert!(matches!(stopped, Err((_, Error::Invariant(_)))), "{stopped:?}");
        }
    }

    #[test]
    fn a_held_shard_is_not_read_again() {
        // Member 2 is held at node 0 and stored nowhere: the m-row fold
        // reads the other three, and rack 3 — home to two unheld sources,
        // not three — is read whole rather than folded.
        let bed = fault_free();
        for (member, node) in [(0, 1), (1, 6), (3, 7)] {
            bed.place(member, node);
        }
        let sources = [
            source(0, 0, &[NodeId(1)]),
            source(1, 1, &[NodeId(6)]),
            source(2, 2, &[NodeId(6)]),
            source(3, 3, &[NodeId(7)]),
        ];
        let mut received = Received::default();
        received.held.insert(BlockId(2), Block::from(bed.shards[2].clone()));
        let acc = StripeEncoder::new(&bed.rs, LEN);
        let parity = bed.fold_at_0(acc, &sources, u64::MAX, &mut received);
        assert_eq!(parity.unwrap(), bed.shards[4..]);
        assert_eq!((received.downloads, received.cross_rack_downloads), (3, 2));
        assert_eq!(received.held.len(), 4);
    }
}
