//! The encode data path: a rack-major fold chain (DESIGN.md §15).
//!
//! Parity rows are running GF(2⁸) partial sums ([`StripeEncoder`]), so a
//! stripe never needs its `k` sources resident at one node. The chain
//! visits source racks in ascending rack id and ends at the encoding node.
//! A rack joins as a folding hop only when it holds *more* sources than
//! there are parity rows (`s > m`): its lowest-indexed holder folds the
//! rack's blocks locally and ships the `m` running rows once. Sparser racks
//! (and the encoding node's own) have their blocks read straight to the
//! encoding node — folding them would ship `m · B` bytes where the raw
//! blocks cost `s · B ≤ m · B`. Cross-rack traffic is therefore
//! `Σ min(sᵣ, m) · B` over remote source racks.
//!
//! Classical gather-then-encode is the chain in which no rack folds. That
//! is what EAR stripes always are (every source has a core-rack replica),
//! and it is the plan the RaidNode re-runs a stripe with after a mid-chain
//! failure.
//!
//! Every read goes through [`ClusterIo::read_nearest`] and every partial
//! hop through [`ClusterIo::stream_partial`], each under an encode-class
//! [`OpContext`]. The fold is the same generator arithmetic as
//! [`ReedSolomon::encode`](ear_erasure::ReedSolomon::encode), so the parity
//! bytes are bit-identical to the one-shot codec's.

use crate::cluster::MiniCfs;
use crate::io::DeadNodeSet;
use crate::namenode::PendingStripe;
use crate::reliability::OpClass;
use ear_erasure::StripeEncoder;
use ear_types::{BlockId, Error, NodeId, RackId, Result};
use std::collections::BTreeMap;

/// What the chain hands back to the RaidNode: the parity bytes plus the
/// traffic accounting the stripe's [`EncodeStats`](crate::EncodeStats)
/// entry needs.
pub(crate) struct ChainOutcome {
    /// The `n − k` parity shards, in generator row order.
    pub parity: Vec<Vec<u8>>,
    /// Block-sized transfers that crossed racks: source reads served from
    /// outside the reading node's rack, plus `m` per folding hop.
    pub cross_rack_downloads: usize,
}

/// One planned hop of the encode chain: the rack's aggregator node and the
/// `(source index, block)` pairs it folds locally.
struct ChainHop {
    aggregator: NodeId,
    sources: Vec<(usize, BlockId)>,
}

/// Computes one stripe's parity at `enc` by folding its sources along the
/// rack-major chain. With `fold_racks` off no rack folds: every source is
/// read at `enc` through the nearest-replica fallback — the degenerate plan
/// the RaidNode re-runs a stripe with once the full chain has failed.
///
/// Nothing here mutates cluster metadata or stores any block, so the
/// RaidNode's transactionality argument (no metadata change until parity
/// is durable) is untouched and any error return leaves the stripe intact.
///
/// # Errors
///
/// * [`Error::NodeDown`] when a chain hop or read finds a dead or
///   breaker-open node.
/// * [`Error::BlockUnavailable`] / [`Error::Invariant`] on missing
///   replicas or metadata inconsistencies.
/// * [`Error::DeadlineExceeded`] / [`Error::RetryBudgetExhausted`] /
///   [`Error::Overloaded`] from the reliability substrate — the caller
///   propagates these instead of re-planning.
pub(crate) fn encode_chain(
    cfs: &MiniCfs,
    stripe: &PendingStripe,
    enc: NodeId,
    dead: &DeadNodeSet,
    fold_racks: bool,
) -> Result<ChainOutcome> {
    let topo = cfs.topology();
    let enc_rack = topo.rack_of(enc);
    let m = cfs.codec().params().parity();

    // Plan: pick each source's preferred holder (encoding rack first, then
    // lowest rack, ties by node index) and group sources by that holder's
    // rack.
    let mut locations: Vec<Vec<NodeId>> = Vec::with_capacity(stripe.blocks.len());
    let mut by_rack: BTreeMap<RackId, Vec<(usize, BlockId, NodeId)>> = BTreeMap::new();
    for (idx, &block) in stripe.blocks.iter().enumerate() {
        let locs = cfs
            .namenode()
            .locations(block)
            .ok_or_else(|| Error::Invariant(format!("unknown {block}")))?;
        let holder = locs
            .iter()
            .copied()
            .filter(|&h| !dead.contains(h))
            .min_by_key(|&h| (topo.rack_of(h) != enc_rack, topo.rack_of(h).index(), h.index()))
            .or_else(|| locs.first().copied())
            .ok_or(Error::BlockUnavailable { block })?;
        by_rack
            .entry(topo.rack_of(holder))
            .or_default()
            .push((idx, block, holder));
        locations.push(locs);
    }

    // Racks worth folding locally (`s > m`, outside the encoding rack)
    // become chain hops at their lowest-indexed holder; everything else —
    // the encoding rack's sources and sparse racks' — is read straight to
    // `enc`.
    let mut chain: Vec<ChainHop> = Vec::new();
    let mut at_enc: Vec<(usize, BlockId)> = Vec::new();
    for (rack, group) in &by_rack {
        let fold_here = fold_racks && *rack != enc_rack && group.len() > m;
        if fold_here {
            let aggregator = group
                .iter()
                .map(|&(_, _, h)| h)
                .min_by_key(|h: &NodeId| h.index())
                .ok_or_else(|| Error::Invariant("empty pipeline rack group".into()))?;
            chain.push(ChainHop {
                aggregator,
                sources: group.iter().map(|&(idx, b, _)| (idx, b)).collect(),
            });
        } else {
            at_enc.extend(group.iter().map(|&(idx, b, _)| (idx, b)));
        }
    }

    // Walk the chain. The encoder *is* the travelling state: each hop folds
    // its rack's sources in, then the `m` partial rows ship once to the
    // next hop (the next aggregator, or finally `enc`).
    let mut encoder: Option<StripeEncoder> = None;
    let mut cross_rack_downloads = 0usize;
    let mut prev_hop: Option<NodeId> = None;
    for hop in &chain {
        if let Some(prev) = prev_hop {
            cross_rack_downloads += ship_partials(cfs, prev, hop.aggregator, &encoder)?;
        }
        for &(idx, block) in &hop.sources {
            cross_rack_downloads +=
                absorb_at(cfs, &mut encoder, hop.aggregator, idx, block, &locations, dead)?;
        }
        prev_hop = Some(hop.aggregator);
    }
    if let Some(prev) = prev_hop {
        cross_rack_downloads += ship_partials(cfs, prev, enc, &encoder)?;
    }
    for &(idx, block) in &at_enc {
        cross_rack_downloads += absorb_at(cfs, &mut encoder, enc, idx, block, &locations, dead)?;
    }

    let parity = encoder
        .ok_or_else(|| Error::Invariant("encode of an empty stripe".into()))?
        .finish()?;
    Ok(ChainOutcome {
        parity,
        cross_rack_downloads,
    })
}

/// Reads source `block` to `node` through the shared nearest-replica policy
/// and folds it into the running encoder (created lazily at the first read,
/// sized to the observed shard length). Returns 1 if the serving replica
/// was outside `node`'s rack, 0 otherwise.
fn absorb_at(
    cfs: &MiniCfs,
    encoder: &mut Option<StripeEncoder>,
    node: NodeId,
    idx: usize,
    block: BlockId,
    locations: &[Vec<NodeId>],
    dead: &DeadNodeSet,
) -> Result<usize> {
    let replicas = locations
        .get(idx)
        .ok_or_else(|| Error::Invariant(format!("no planned replicas for source {idx}")))?;
    let ctx = cfs.reliability().ctx(OpClass::Encode)?;
    let (data, served_by) = cfs.io().read_nearest(&ctx, node, block, replicas, dead)?;
    let enc = encoder.get_or_insert_with(|| StripeEncoder::new(cfs.codec(), data.len()));
    enc.absorb_source(idx, &data)?;
    let topo = cfs.topology();
    Ok(usize::from(topo.rack_of(served_by) != topo.rack_of(node)))
}

/// Ships the encoder's `m` running partial rows from `src` to `dst` — one
/// chain hop, paying `m · shard_len` wire bytes under an encode-class
/// context. Returns the number of rows shipped (each one block-sized
/// cross-rack transfer: hops always sit in distinct racks).
fn ship_partials(
    cfs: &MiniCfs,
    src: NodeId,
    dst: NodeId,
    encoder: &Option<StripeEncoder>,
) -> Result<usize> {
    let Some(encoder) = encoder else {
        return Ok(0);
    };
    let (rows, bytes) = encoder
        .partial_rows()
        .fold((0usize, 0u64), |(rows, bytes), r| (rows + 1, bytes + r.len() as u64));
    let ctx = cfs.reliability().ctx(OpClass::Encode)?;
    cfs.io().stream_partial(&ctx, src, dst, bytes)?;
    Ok(rows)
}
