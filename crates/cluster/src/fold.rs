//! The rack fold (DESIGN.md §15): `r` GF(2⁸) linear combinations of stored
//! blocks computed at one node and delivered to another.
//!
//! Encoding a stripe is the fold of its `k` data blocks under the
//! generator's `m` parity rows; rebuilding a lost shard is the fold of `k`
//! survivors under one row of recovery coefficients. Both are running
//! partial sums ([`StripeEncoder`]), so the sources never need to be
//! resident at one node: a remote rack holding at least `r` of them folds
//! its blocks locally and forwards the `r` running rows, and the folding
//! racks form one chain that streams the rows chunk by chunk.
//!
//! Where each source is read, which racks fold and the chain's path are an
//! [`ear_core::ChainPlan`], decided before any byte moves; this walker
//! executes one. A failed pass names what to blame, and both callers answer
//! it with one rule: note the blamed node or source and plan again.

use crate::io::{ClusterIo, DeadNodeSet};
use crate::reliability::OpContext;
use ear_core::ChainPlan;
use ear_erasure::StripeEncoder;
use ear_types::{Block, BlockId, Error, NodeId};
use std::collections::BTreeMap;

/// One input of a fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source<'a> {
    /// The source's column in the accumulator's coefficient rows.
    pub index: usize,
    pub block: BlockId,
    /// Nodes to read it from, in preference order.
    pub holders: &'a [NodeId],
}

/// What the fold has paid for, kept by the caller across passes: the shards
/// read whole at the folding node (never read twice) and the block-sized
/// transfers that crossed a wire so far, abandoned passes included. The
/// delivery leg to the sink is the caller's to count.
#[derive(Debug, Default)]
pub(crate) struct Received {
    pub held: BTreeMap<BlockId, Block>,
    /// Source reads served by another node than the reader, plus `r` per
    /// chain leg between folding nodes.
    pub downloads: usize,
    /// Those that crossed racks.
    pub cross_rack_downloads: usize,
}

/// Folds `sources` into `acc` as `plan` (made from the same list) says,
/// delivers the finished rows to the end of its path and returns them.
///
/// Hops absorb their members with `acc` as the travelling state, the
/// plan's whole sources are then read at `plan.at` (a shard `received`
/// holds is not read again), and the rows are
/// [streamed](ClusterIo::stream_chain) once down its path. Every read
/// goes through [`ClusterIo::read_nearest`] and charges `ctx`. Nothing here
/// mutates cluster metadata or stores any block, so a failed fold leaves
/// the cluster as it was.
///
/// # Errors
///
/// The position in `sources` of the source to blame with the error that
/// stopped the walk: the source that could not be read, or — when the chain
/// stopped — the own source of the hop it stopped at (for `at` and `sink`,
/// which no choice of sources avoids, the error names the node). The
/// substrate's stops ([`Error::stops_the_op`]) are among those errors. A
/// source listed twice, or a column of `acc` left without one, is
/// [`Error::Invariant`].
pub(crate) fn fold(
    io: &ClusterIo,
    ctx: &OpContext<'_>,
    plan: &ChainPlan,
    mut acc: StripeEncoder,
    sources: &[Source<'_>],
    dead: &DeadNodeSet,
    received: &mut Received,
) -> Result<Vec<Vec<u8>>, (usize, Error)> {
    let topo = io.topology();
    let (rows, partial_bytes) = acc
        .partial_rows()
        .fold((0usize, 0u64), |(rows, bytes), row| (rows + 1, bytes + row.len() as u64));
    let source = |pos: usize| {
        let unplanned = || (pos, Error::Invariant(format!("the plan names no source {pos}")));
        sources.get(pos).ok_or_else(unplanned)
    };
    // A holder reading its own block pays no wire: only a read served by
    // another node is a transfer.
    let read = |reader: NodeId, src: &Source<'_>, received: &mut Received| {
        let (data, served_by) = io.read_nearest(ctx, reader, src.block, src.holders, dead)?;
        received.downloads += usize::from(served_by != reader);
        received.cross_rack_downloads +=
            usize::from(topo.rack_of(served_by) != topo.rack_of(reader));
        Ok::<Block, Error>(data)
    };

    for hop in &plan.hops {
        for &pos in &hop.members {
            let src = source(pos)?;
            let data = read(hop.aggregator, src, received).map_err(|e| (pos, e))?;
            acc.absorb_source(src.index, &data).map_err(|e| (pos, e))?;
        }
    }
    for &pos in &plan.whole {
        let src = source(pos)?;
        let data = match received.held.get(&src.block) {
            Some(data) => data.clone(),
            None => {
                let data = read(plan.at, src, received).map_err(|e| (pos, e))?;
                received.held.insert(src.block, data.clone());
                data
            }
        };
        acc.absorb_source(src.index, &data).map_err(|e| (pos, e))?;
    }

    let path = plan.path();
    let streamed = io.stream_chain(ctx, &path, partial_bytes);
    // Hops sit in distinct racks, none of them `at`'s: each leg the chain
    // paid up to `at` is `rows` block-sized cross-rack transfers.
    let paid = streamed.as_ref().map_or_else(|&(pos, _)| pos, |()| path.len());
    let shipped = rows * paid.saturating_sub(1).min(plan.hops.len());
    received.downloads += shipped;
    received.cross_rack_downloads += shipped;
    let blame = |pos: usize| plan.hops.get(pos).or(plan.hops.last()).map_or(0, |hop| hop.own);
    streamed.map_err(|(pos, e)| (blame(pos), e))?;
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

        /// Plans and folds at node 0 for `sink` under a Heal-class context
        /// with `deadline_ticks`.
        fn fold_at_0(
            &self,
            sink: u32,
            acc: StripeEncoder,
            sources: &[Source<'_>],
            deadline_ticks: u64,
            received: &mut Received,
        ) -> Result<Vec<Vec<u8>>, (usize, Error)> {
            let rel = self.io.reliability().clone();
            let ctx = rel.ctx_with_deadline(OpClass::Heal, deadline_ticks).unwrap();
            let (at, sink, dead) = (NodeId(0), NodeId(sink), DeadNodeSet::new());
            let rows = acc.partial_rows().count();
            let listed = sources.iter().map(|src| (src.block, src.holders));
            let held = |b: BlockId| received.held.contains_key(&b);
            let is_dead = |n| dead.contains(n);
            let plan = ChainPlan::of(self.io.topology(), at, sink, rows, listed, is_dead, held)?;
            fold(&self.io, &ctx, &plan, acc, sources, &dead, received)
        }

        /// Block-sized transfers the emulated network has carried so far:
        /// (all, cross-rack).
        fn wire_blocks(&self) -> (usize, usize) {
            let moved = self.io.network().snapshot();
            let cross = moved.cross_rack_bytes as usize / LEN;
            (cross + moved.intra_rack_bytes as usize / LEN, cross)
        }
    }

    fn source(index: usize, member: usize, holders: &[NodeId]) -> Source<'_> {
        Source { index, block: BlockId(member as u64), holders }
    }

    #[test]
    fn hops_are_visited_in_ascending_rack_id_whatever_the_list_order() {
        // Members 1, 2 in rack 3 are listed before members 3, 4 in rack 1;
        // both racks fold a one-row rebuild of member 0 for node 0. Each
        // aggregator reads its own shard off its disk and its rack-mate's
        // off the wire, and the chain 2 → 6 → 0 carries the row twice.
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
        let rows = bed.fold_at_0(0, rebuild(), &sources, u64::MAX, &mut received);
        assert_eq!(rows.unwrap(), [bed.shards[0].clone()]);
        assert_eq!((received.downloads, received.cross_rack_downloads), (4, 2));
        assert_eq!(bed.wire_blocks(), (4, 2), "what is counted is what the links carried");
        assert!(received.held.is_empty(), "nothing was read whole at node 0");

        // A deadline that covers two reads runs out on the third: the walk
        // has then left rack 1 (listed last) for rack 3's first source.
        let two_reads = 2 * reliability::xfer_cost_ticks(LEN);
        let stopped = bed.fold_at_0(0, rebuild(), &sources, two_reads, &mut Received::default());
        assert!(matches!(stopped, Err((0, Error::DeadlineExceeded { .. }))), "{stopped:?}");
    }

    #[test]
    fn a_dead_aggregator_blames_its_own_source() {
        // Rack 1 folds at node 2, whose own source (listed second) has a
        // spare copy in rack 2: every read succeeds — that one from the
        // spare — and the chain cannot leave node 2.
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
        let stopped = bed.fold_at_0(0, acc, &sources, u64::MAX, &mut received);
        assert!(
            matches!(stopped, Err((1, Error::NodeDown { node })) if node == NodeId(2)),
            "{stopped:?}"
        );
        assert_eq!(
            (received.downloads, received.cross_rack_downloads),
            (4, 1),
            "the abandoned pass's reads stay counted"
        );
        assert_eq!(received.held.len(), 2, "and what node 0 read whole stays held");

        // A dead aggregator with no spare fails its own read: the same
        // blame, before anything is streamed.
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
        let stopped = bed.fold_at_0(0, acc, &sources, u64::MAX, &mut Received::default());
        assert!(
            matches!(stopped, Err((0, Error::NodeDown { node })) if node == NodeId(6)),
            "{stopped:?}"
        );
        assert_eq!(bed.wire_blocks(), (0, 0));
    }

    #[test]
    fn a_dead_hop_mid_chain_blames_its_own_source_and_pays_only_the_prefix() {
        // One source per remote rack, so the chain is 2 → 4 → 6 → 0 → 1.
        // Node 6 is dead but its shard has a copy at its rack-mate: every
        // read succeeds, and the stream stops at node 6 having crossed
        // 2 → 4 only.
        let bed = with_dead(NodeId(6));
        for (member, node) in [(1, 2), (2, 4), (3, 6), (3, 7), (4, 1)] {
            bed.place(member, node);
        }
        let spare = [NodeId(6), NodeId(7)];
        let sources = [
            source(0, 1, &[NodeId(2)]),
            source(1, 2, &[NodeId(4)]),
            source(2, 3, &spare),
            source(3, 4, &[NodeId(1)]),
        ];
        let mut received = Received::default();
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let stopped = bed.fold_at_0(1, acc, &sources, u64::MAX, &mut received);
        assert!(
            matches!(stopped, Err((2, Error::NodeDown { node })) if node == NodeId(6)),
            "{stopped:?}"
        );
        // Two reads off the wire (7 → 6, 1 → 0) and one chain leg.
        assert_eq!((received.downloads, received.cross_rack_downloads), (3, 1));
        assert_eq!(bed.wire_blocks(), (3, 1));
    }

    #[test]
    fn a_rack_with_exactly_r_sources_is_a_hop_at_equal_bytes() {
        // r = 1: rack 1's lone shard is folded where it lies and the row
        // crosses once — the bytes a whole read would ship, from a chain.
        let bed = fault_free();
        for (member, node) in [(1, 2), (2, 1), (3, 1), (4, 1)] {
            bed.place(member, node);
        }
        let (remote, local) = ([NodeId(2)], [NodeId(1)]);
        let sources = [
            source(0, 1, &remote),
            source(1, 2, &local),
            source(2, 3, &local),
            source(3, 4, &local),
        ];
        let mut received = Received::default();
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let rows = bed.fold_at_0(0, acc, &sources, u64::MAX, &mut received);
        assert_eq!(rows.unwrap(), [bed.shards[0].clone()]);
        assert_eq!((received.downloads, received.cross_rack_downloads), (4, 1));
        assert_eq!(bed.wire_blocks(), (4, 1));
        assert!(!received.held.contains_key(&BlockId(1)), "node 0 never saw the shard itself");

        // r = m = 2: rack 1's two data blocks leave as two parity rows.
        let bed = fault_free();
        for (member, node) in [(0, 2), (1, 3), (2, 1), (3, 1)] {
            bed.place(member, node);
        }
        let (first, second) = ([NodeId(2)], [NodeId(3)]);
        let sources = [
            source(0, 0, &first),
            source(1, 1, &second),
            source(2, 2, &local),
            source(3, 3, &local),
        ];
        let mut received = Received::default();
        let acc = StripeEncoder::new(&bed.rs, LEN);
        let parity = bed.fold_at_0(0, acc, &sources, u64::MAX, &mut received);
        assert_eq!(parity.unwrap(), bed.shards[4..]);
        assert_eq!((received.downloads, received.cross_rack_downloads), (5, 2));
        assert_eq!(bed.wire_blocks(), (5, 2));
        assert_eq!(received.held.len(), 2, "only node 1's blocks were read whole");
    }

    #[test]
    fn the_sink_leg_is_part_of_the_chain_and_free_when_sink_is_at() {
        let placed = |bed: Bed| {
            for (member, node) in [(1, 2), (2, 1), (3, 1), (4, 1)] {
                bed.place(member, node);
            }
            bed
        };
        let (remote, local) = ([NodeId(2)], [NodeId(1)]);
        let sources = [
            source(0, 1, &remote),
            source(1, 2, &local),
            source(2, 3, &local),
            source(3, 4, &local),
        ];
        // What the fold reports never includes the delivery leg; the wire
        // carries it exactly when the sink is another node.
        for (sink, wire) in [(0, (4, 1)), (1, (5, 1)), (5, (5, 2))] {
            let bed = placed(fault_free());
            let mut received = Received::default();
            let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
            let rows = bed.fold_at_0(sink, acc, &sources, u64::MAX, &mut received);
            assert_eq!(rows.unwrap(), [bed.shards[0].clone()]);
            assert_eq!((received.downloads, received.cross_rack_downloads), (4, 1));
            assert_eq!(bed.wire_blocks(), wire, "sink {sink}");
        }
        // A sink that is down stops the chain at its last leg, typed.
        let bed = placed(with_dead(NodeId(5)));
        let mut received = Received::default();
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let stopped = bed.fold_at_0(5, acc, &sources, u64::MAX, &mut received);
        assert!(matches!(stopped, Err((_, Error::NodeDown { node })) if node == NodeId(5)));
        assert_eq!((received.downloads, bed.wire_blocks()), (4, (4, 1)));
        // So does a folding node that is down, a leg earlier: the error
        // names the node, whichever source it comes pinned on.
        let bed = placed(with_dead(NodeId(0)));
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let stopped = bed.fold_at_0(5, acc, &sources, u64::MAX, &mut Received::default());
        assert!(matches!(stopped, Err((_, Error::NodeDown { node })) if node == NodeId(0)));
        assert_eq!(bed.wire_blocks(), (3, 0));
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
            let stopped = bed.fold_at_0(0, acc, &twice, u64::MAX, &mut Received::default());
            assert!(matches!(stopped, Err((2, Error::Invariant(_)))), "{stopped:?}");
        }
        for acc in accs() {
            let stopped = bed.fold_at_0(0, acc, &short, u64::MAX, &mut Received::default());
            assert!(matches!(stopped, Err((_, Error::Invariant(_)))), "{stopped:?}");
        }
    }

    #[test]
    fn a_held_shard_is_not_read_again() {
        // Member 2 is held at node 0 and stored nowhere. Its listed holder
        // shares rack 3 with member 1's, but a held shard has no home: the
        // rack is home to one source, fewer than the m = 2 rows, and is
        // read whole rather than folded — a hop would look for member 2.
        let bed = fault_free();
        for (member, node) in [(0, 1), (1, 6), (3, 1)] {
            bed.place(member, node);
        }
        let sources = [
            source(0, 0, &[NodeId(1)]),
            source(1, 1, &[NodeId(6)]),
            source(2, 2, &[NodeId(7)]),
            source(3, 3, &[NodeId(1)]),
        ];
        let mut received = Received::default();
        received.held.insert(BlockId(2), Block::from(bed.shards[2].clone()));
        let acc = StripeEncoder::new(&bed.rs, LEN);
        let parity = bed.fold_at_0(0, acc, &sources, u64::MAX, &mut received);
        assert_eq!(parity.unwrap(), bed.shards[4..]);
        assert_eq!((received.downloads, received.cross_rack_downloads), (3, 1));
        assert_eq!(received.held.len(), 4);
    }
}
