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
//!
//! The walk reads every source first and does the arithmetic after, in one
//! tiled pass that hashes each source while it absorbs it: each byte of a
//! source or a row is fetched from memory once.

use crate::io::{ClusterIo, DeadNodeSet, Unverified};
use crate::reliability::{self, OpContext};
use ear_core::ChainPlan;
use ear_erasure::StripeEncoder;
use ear_types::{crc, Block, BlockId, Error, NodeId};
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
    /// Shards read whole at the folding node. Only bytes that passed their
    /// CRC32C check get here.
    pub held: BTreeMap<BlockId, Block>,
    /// Source reads served by another node than the reader, plus `r` per
    /// chain leg between folding nodes.
    pub downloads: usize,
    /// Those that crossed racks.
    pub cross_rack_downloads: usize,
}

/// One source as the walk has it: where it was read, and its bytes.
struct Input<'a> {
    pos: usize,
    src: Source<'a>,
    reader: NodeId,
    /// Read whole at `plan.at`, so kept in [`Received::held`] once checked.
    whole: bool,
    bytes: Bytes,
}

enum Bytes {
    /// Checked already: held from an earlier pass.
    Held(Block),
    /// Read by this pass, checked by it.
    Read(Unverified),
}

impl Bytes {
    fn unchecked(&self) -> &[u8] {
        match self {
            Bytes::Held(data) => data,
            Bytes::Read(read) => read.unchecked(),
        }
    }
}

/// Folds `sources` into `acc` as `plan` (made from the same list) says,
/// delivers the finished rows to the end of its path and returns them.
///
/// Every source is read first, in plan order: each hop's members at its
/// aggregator, then the plan's whole sources at `plan.at` (a shard
/// `received` holds is not read again). Every read goes through
/// [`ClusterIo::read_nearest_unverified`] and charges `ctx`. Then one tiled
/// pass absorbs them all, hashing each source's bytes as it goes; a source
/// whose hash misses its write-time CRC32C (rot in the store: a corruption
/// the fault plan injects fails its read at once) is taken back out and
/// read again, verified, from another holder. The rows are then
/// [streamed](stream_chain) once down the plan's path. Nothing
/// here mutates cluster metadata or stores any block, so a failed fold
/// leaves the cluster as it was.
///
/// The rows come back as [`Block`]s over the buffers they were accumulated
/// in, unstamped.
///
/// # Errors
///
/// The position in `sources` of the source to blame with the error that
/// stopped the walk: the source that could not be read, or — when the chain
/// stopped — the own source of the hop it stopped at (for `at` and `sink`,
/// which no choice of sources avoids, the error names the node). The
/// substrate's stops ([`Error::stops_the_op`]) are among those errors. A
/// source listed twice, or a column of `acc` left without one, is
/// [`Error::Invariant`] before any byte moves.
pub(crate) fn fold(
    io: &ClusterIo,
    ctx: &OpContext<'_>,
    plan: &ChainPlan,
    mut acc: StripeEncoder,
    sources: &[Source<'_>],
    dead: &DeadNodeSet,
    received: &mut Received,
) -> Result<Vec<Block>, (usize, Error)> {
    let topo = io.topology();
    let (rows, partial_bytes) = acc
        .partial_rows()
        .fold((0usize, 0u64), |(rows, bytes), row| (rows + 1, bytes + row.len() as u64));
    let shard_len = partial_bytes.checked_div(rows as u64).unwrap_or(0) as usize;
    check_columns(&acc, sources)?;
    // Each source with its reader: hop members at their aggregator, then
    // the whole sources at `at`.
    let listed = |pos: usize| {
        let unplanned = || (pos, Error::Invariant(format!("the plan names no source {pos}")));
        sources.get(pos).copied().ok_or_else(unplanned)
    };
    let order: Vec<(usize, Source<'_>, NodeId, bool)> = plan
        .hops
        .iter()
        .flat_map(|hop| hop.members.iter().map(|&pos| (pos, hop.aggregator, false)))
        .chain(plan.whole.iter().map(|&pos| (pos, plan.at, true)))
        .map(|(pos, reader, whole)| Ok((pos, listed(pos)?, reader, whole)))
        .collect::<Result<_, _>>()?;

    // A holder reading its own block pays no wire: only a read served by
    // another node is a transfer.
    let count = |reader: NodeId, served_by: NodeId, received: &mut Received| {
        received.downloads += usize::from(served_by != reader);
        received.cross_rack_downloads +=
            usize::from(topo.rack_of(served_by) != topo.rack_of(reader));
    };
    let mut inputs: Vec<Input<'_>> = Vec::with_capacity(sources.len());
    for (pos, src, reader, whole) in order {
        let held = received.held.get(&src.block).filter(|_| whole);
        let bytes = match held {
            Some(data) => Bytes::Held(data.clone()),
            None => match io.read_nearest_unverified(ctx, reader, src.block, src.holders, dead) {
                Ok(read) => {
                    count(reader, read.served_by(), received);
                    Bytes::Read(read)
                }
                Err(e) => {
                    keep_checked(io, inputs, received);
                    return Err((pos, e));
                }
            },
        };
        if bytes.unchecked().len() != shard_len {
            keep_checked(io, inputs, received);
            return Err((pos, Error::ShardLengthMismatch));
        }
        inputs.push(Input { pos, src, reader, whole, bytes });
    }

    // The pass: every source absorbed into every row, tile by tile, each
    // read hashed on the way.
    let owed = |i: &Input<'_>| matches!(&i.bytes, Bytes::Read(read) if read.owes_hash());
    let mut hashes: Vec<Option<u32>> = inputs.iter().map(|i| owed(i).then_some(0)).collect();
    let columns: Vec<(usize, &[u8])> =
        inputs.iter().map(|i| (i.src.index, i.bytes.unchecked())).collect();
    let absorbed = acc.absorb_all(&columns, |j, piece| {
        if let Some(Some(crc)) = hashes.get_mut(j) {
            *crc = crc::extend(*crc, piece);
        }
    });
    absorbed.map_err(|e| (0, e))?;

    // Settle every read, keeping what passed, before re-reading what
    // failed: a re-read that fails leaves the rest held.
    let mut rotten = Vec::new();
    for (input, hash) in inputs.into_iter().zip(hashes) {
        let Input { pos, src, reader, whole, bytes } = input;
        let checked = match bytes {
            Bytes::Held(data) => Ok(data),
            Bytes::Read(read) => io.settle(read, hash.unwrap_or_default()),
        };
        match checked {
            Ok(data) if whole => _ = received.held.insert(src.block, data),
            Ok(_) => {}
            Err((read, e)) => rotten.push((pos, src, reader, whole, read, e)),
        }
    }
    for (pos, src, reader, whole, read, e) in rotten {
        acc.retract_source(src.index, read.unchecked()).map_err(|e| (pos, e))?;
        let rest: Vec<NodeId> =
            src.holders.iter().copied().filter(|&n| n != read.served_by()).collect();
        if rest.is_empty() {
            return Err((pos, e));
        }
        let (data, served_by) =
            io.read_nearest(ctx, reader, src.block, &rest, dead).map_err(|e| (pos, e))?;
        count(reader, served_by, received);
        acc.absorb_source(src.index, &data).map_err(|e| (pos, e))?;
        if whole {
            received.held.insert(src.block, data);
        }
    }

    let path = plan.path();
    let streamed = stream_chain(io, ctx, &path, partial_bytes);
    // Hops sit in distinct racks, none of them `at`'s: each leg the chain
    // paid up to `at` is `rows` block-sized cross-rack transfers.
    let paid = streamed.as_ref().map_or_else(|&(pos, _)| pos, |()| path.len());
    let shipped = rows * paid.saturating_sub(1).min(plan.hops.len());
    received.downloads += shipped;
    received.cross_rack_downloads += shipped;
    let blame = |pos: usize| plan.hops.get(pos).or(plan.hops.last()).map_or(0, |hop| hop.own);
    streamed.map_err(|(pos, e)| (blame(pos), e))?;
    acc.finish_blocks().map_err(|e| (0, e))
}

/// Streams `bytes` of in-flight partial-row state down `path`, every node
/// forwarding each chunk as it arrives — the fold's chain, and the only
/// one: private here, so no other walk can stream rows. The bytes are not a
/// stored block (no DataNode, no checksum boundary: the state lives in the
/// sending task), but the wire cost is real and the chain is bounded by the
/// substrate: a dead node, or a receiver whose breaker is open, stops it
/// there — a typed error the caller answers by re-planning — with the legs
/// before that node carried and charged at
/// [`chain_ticks`](reliability::chain_ticks) of the paid path; a path of
/// fewer than two nodes has no leg and checks nothing.
///
/// # Errors
///
/// The position in `path` where the chain stopped (`path[..pos]` was
/// paid), with
///
/// * [`Error::NodeDown`] for a node that is down per the fault plan, or
///   a receiver whose circuit breaker is open;
/// * [`Error::DeadlineExceeded`] if charging the chain blows the deadline.
fn stream_chain(
    io: &ClusterIo,
    ctx: &OpContext<'_>,
    path: &[NodeId],
    bytes: u64,
) -> Result<(), (usize, Error)> {
    let (rel, faults) = (ctx.reliability(), io.injector());
    let stopped = path.iter().copied().enumerate().find(|&(pos, node)| {
        path.len() > 1 && (faults.node_down(node) || (pos > 0 && rel.breaker_open(node)))
    });
    let paid = stopped.and_then(|(pos, _)| path.get(..pos)).unwrap_or(path);
    let legs = paid.len().saturating_sub(1) as u64;
    io.count_chain(legs * bytes, stopped.is_some_and(|(_, node)| !faults.node_down(node)));
    io.network().transfer_chain(paid, bytes);
    ctx.charge(reliability::chain_ticks(paid, bytes)).map_err(|e| (paid.len(), e))?;
    stopped.map_or(Ok(()), |(pos, node)| Err((pos, Error::NodeDown { node })))
}

/// Checks, before any byte moves, that `sources` fill each column of `acc`
/// once.
///
/// # Errors
///
/// [`Error::Invariant`] at the first position that repeats a column or
/// names none of `acc`'s; at position 0 for a column no source fills.
fn check_columns(acc: &StripeEncoder, sources: &[Source<'_>]) -> Result<(), (usize, Error)> {
    let invariant = |pos: usize, what: String| Err((pos, Error::Invariant(what)));
    let mut filled = vec![false; acc.sources()];
    for (pos, src) in sources.iter().enumerate() {
        match filled.get_mut(src.index) {
            Some(true) => return invariant(pos, format!("source {pos} repeats column {}", src.index)),
            Some(slot) => *slot = true,
            None => return invariant(pos, format!("source {pos} names no column {}", src.index)),
        }
    }
    match filled.iter().position(|&f| !f) {
        Some(column) => invariant(0, format!("column {column} has no source")),
        None => Ok(()),
    }
}

/// Hashes what a failed pass read but did not get to absorb, and keeps it
/// as the pass would have: each read that passes its check is admitted to
/// its source's cache, and a whole one joins [`Received::held`].
fn keep_checked(io: &ClusterIo, inputs: Vec<Input<'_>>, received: &mut Received) {
    for Input { src, whole, bytes, .. } in inputs {
        if let Bytes::Read(read) = bytes {
            let hash = crc::crc32c(read.unchecked());
            if let (Ok(data), true) = (io.settle(read, hash), whole) {
                received.held.insert(src.block, data);
            }
        }
    }
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
        bed_with(injector, |topo| topo.nodes().map(DataNode::new).collect())
    }

    fn bed_with(
        injector: impl FnOnce(&ClusterTopology) -> FaultInjector,
        nodes: impl FnOnce(&ClusterTopology) -> Vec<DataNode>,
    ) -> Bed {
        let topo = ClusterTopology::uniform(4, 2);
        let rs = ReedSolomon::new(ErasureParams::new(6, 4).unwrap());
        let shard = |j: u8| (0..LEN).map(|i| (i as u8).wrapping_mul(7) ^ (j + 1)).collect();
        let data: Vec<Vec<u8>> = (0..4).map(shard).collect();
        let parity = rs.encode(&data).unwrap();
        let bw = Bandwidth::bytes_per_sec(1e9);
        let io = ClusterIo::new(
            topo.clone(),
            nodes(&topo),
            EmulatedNetwork::new(&topo, bw, bw),
            injector(&topo),
            Arc::new(Reliability::new(false, 0, topo.num_nodes())),
        );
        Bed { io, rs, shards: data.into_iter().chain(parity).collect() }
    }

    fn fault_free() -> Bed {
        bed(|_| FaultInjector::disabled())
    }

    /// A fault-free bed whose nodes cache every block they verify, whatever
    /// the environment asks for.
    fn cached() -> Bed {
        let cache = ear_types::CacheConfig::Sized { bytes: 2 << 20 };
        let node = |n| DataNode::with_backend(n, ear_types::StoreBackend::Memory, cache, 5).unwrap();
        bed_with(|_| FaultInjector::disabled(), |topo| topo.nodes().map(node).collect())
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
            let ctx = rel.ctx_with_deadline(OpClass::Heal, deadline_ticks);
            let (at, sink, dead) = (NodeId(0), NodeId(sink), DeadNodeSet::new());
            let rows = acc.partial_rows().count();
            let listed = sources.iter().map(|src| (src.block, src.holders));
            let held = |b: BlockId| received.held.contains_key(&b);
            let is_dead = |n| dead.contains(n);
            let plan = ChainPlan::of(self.io.topology(), at, sink, rows, listed, is_dead, held)?;
            let rows = fold(&self.io, &ctx, &plan, acc, sources, &dead, received)?;
            Ok(rows.iter().map(Block::to_vec).collect())
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
    fn a_chain_is_charged_its_slowest_leg_plus_a_chunk_per_further_leg() {
        let Bed { io, .. } = fault_free();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::Heal).unwrap();
        let path = [NodeId(0), NodeId(2), NodeId(1), NodeId(3)];
        stream_chain(&io, &ctx, &path, 256 << 10).unwrap();
        let one_leg = |bytes| reliability::chain_ticks(&path[..2], bytes);
        let (leg, chunk) = (one_leg(256 << 10), one_leg(64 << 10));
        assert_eq!(ctx.elapsed_ticks(), leg + 2 * chunk, "not the 3 legs a relay would cost");
        assert_eq!(io.network().cross_rack_bytes(), 3 * (256 << 10));
        assert_eq!(io.stats().transfer_bytes, 3 * (256 << 10));
        // One node is no chain: nothing moves, nothing is charged.
        stream_chain(&io, &ctx, &path[..1], 256 << 10).unwrap();
        assert_eq!(ctx.elapsed_ticks(), leg + 2 * chunk);
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

        // An aggregator's read of its own shard is free, so a deadline that
        // covers one wire read runs out on the second: rack 1 (listed last)
        // was walked first, and the walk stops at rack 3's wire read.
        let one_read = reliability::chain_ticks(&[NodeId(3), NodeId(2)], LEN as u64);
        let stopped = bed.fold_at_0(0, rebuild(), &sources, one_read, &mut Received::default());
        assert!(matches!(stopped, Err((1, Error::DeadlineExceeded { .. }))), "{stopped:?}");
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
    fn a_bad_source_list_is_refused_before_any_byte_moves() {
        let bed = fault_free();
        for member in 0..4 {
            bed.place(member, 1);
        }
        let at_1 = [NodeId(1)];
        let twice = [0, 1, 1, 3].map(|member| source(member, member, &at_1));
        let short = [0, 1, 3].map(|member| source(member, member, &at_1));
        for sources in [&twice[..], &short[..]] {
            let acc = StripeEncoder::new(&bed.rs, LEN);
            let stopped = bed.fold_at_0(0, acc, sources, u64::MAX, &mut Received::default());
            assert!(matches!(stopped, Err((_, Error::Invariant(_)))), "{stopped:?}");
        }
        assert_eq!(bed.wire_blocks(), (0, 0), "the wire carried nothing");
        assert_eq!(bed.io.stats().reads, 0, "and nothing was read");
    }

    #[test]
    fn a_rotten_copy_is_taken_back_out_and_read_again_from_the_next_holder() {
        // Member 2 has copies at nodes 1 and 3; node 1's has rotted under
        // its write-time CRC. Every source is read whole at node 0, node 1's
        // copy first (same rack): the pass finds the rot, takes those bytes
        // back out of both rows and reads member 2 again from node 3.
        let bed = cached();
        for (member, node) in [(0, 1), (1, 1), (2, 1), (2, 3), (3, 1)] {
            bed.place(member, node);
        }
        bed.io.datanode(NodeId(1)).rot(BlockId(2), vec![0xA5; LEN]);
        let both = [NodeId(1), NodeId(3)];
        let at_1 = [NodeId(1)];
        let sources =
            [source(0, 0, &at_1), source(1, 1, &at_1), source(2, 2, &both), source(3, 3, &at_1)];
        let mut received = Received::default();
        let acc = StripeEncoder::new(&bed.rs, LEN);
        let parity = bed.fold_at_0(0, acc, &sources, u64::MAX, &mut received);
        assert_eq!(parity.unwrap(), bed.shards[4..]);
        assert_eq!(bed.io.stats().failed_reads, 1, "the rotten read counts as failed");
        // Five reads off the wire: four from node 1, then node 3's copy.
        assert_eq!((received.downloads, received.cross_rack_downloads), (5, 1));
        assert_eq!(received.held.get(&BlockId(2)).map(Block::to_vec), Some(bed.shards[2].clone()));
        let cached = |node, member| bed.io.datanode(NodeId(node)).cached_read(BlockId(member));
        assert!(cached(1, 2).is_some_and(|read| !read.verified), "rot is not cached");
        assert!(cached(3, 2).is_some_and(|read| read.verified), "the clean copy is");
        assert!(cached(1, 0).is_some_and(|read| read.verified), "as is every passing read");
    }

    #[test]
    fn a_replanned_rebuild_never_reuses_a_rotten_shard() {
        // Rebuild member 0 from members 1..=4, all read whole at node 0.
        // Member 2's only copy has rotted: the pass fails on it, keeping
        // the three shards that passed. The re-plan swaps member 5 in for
        // member 2, as `rebuild_shard` does, and reads only member 5.
        let bed = cached();
        for (member, node) in [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)] {
            bed.place(member, node);
        }
        bed.io.datanode(NodeId(1)).rot(BlockId(2), vec![0x5A; LEN]);
        let at_1 = [NodeId(1)];
        let first = [1, 2, 3, 4].map(|member| source(member - 1, member, &at_1));
        let mut received = Received::default();
        let acc = bed.rebuild_of(0, &[1, 2, 3, 4]);
        let stopped = bed.fold_at_0(0, acc, &first, u64::MAX, &mut received);
        assert!(
            matches!(stopped, Err((1, Error::CorruptBlock { block, node }))
                if block == BlockId(2) && node == NodeId(1)),
            "{stopped:?}"
        );
        let held: Vec<BlockId> = received.held.keys().copied().collect();
        assert_eq!(held, [1, 3, 4].map(BlockId), "only checked shards are held");

        let second = [1, 3, 4, 5].map(|member| source([0, 0, 1, 1, 2, 3][member], member, &at_1));
        let reads = bed.io.stats().reads;
        let acc = bed.rebuild_of(0, &[1, 3, 4, 5]);
        let rebuilt = bed.fold_at_0(0, acc, &second, u64::MAX, &mut received);
        assert_eq!(rebuilt.unwrap(), [bed.shards[0].clone()]);
        assert_eq!(bed.io.stats().reads - reads, 1, "the held shards are not read again");
        assert!(!received.held.contains_key(&BlockId(2)));
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
