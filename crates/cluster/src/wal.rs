//! NameNode metadata as a state machine, and its write-ahead log and
//! checkpoint (DESIGN.md §9, §13).
//!
//! The image ([`MetaSnapshot`]) changes only in `apply`, one
//! [`MetaRecord`] at a time. The live NameNode appends a CRC32C-framed
//! record here and then applies it, *before* the mutation is acknowledged
//! to the caller; on open, the log is replayed — the same `apply` — over
//! the most recent checkpoint to rebuild the image. A torn tail (the crash
//! window of an in-flight append) is detected by the framing and truncated,
//! never surfaced.
//!
//! Layout under the meta directory:
//!
//! ```text
//! meta/
//! ├── CHECKPOINT        committed snapshot (tmp+rename, never in-place)
//! └── wal               framed record suffix: [len][crc32c][lsn|payload]*
//! ```
//!
//! Consistency protocol:
//!
//! - **Framing.** A frame is `len: u32 LE | crc: u32 LE | body`, where
//!   `body = lsn: u64 LE | record bytes` and `crc = crc32c(body)`. Replay
//!   stops at the first frame that is short, oversized, CRC-mismatched, or
//!   non-monotonic in LSN — that prefix property is what makes a torn last
//!   record indistinguishable from a clean end of log. A frame whose CRC
//!   verifies but whose body does not decode is *corruption*, not a torn
//!   tail, and surfaces as a typed [`Error::WalCorrupt`].
//! - **LSNs** increase by exactly 1 per append. The checkpoint stores the
//!   `last_lsn` observed *before* its snapshot was gathered; replay skips
//!   records at or below it. Records are deliberately re-apply-safe
//!   (absolute sets, add-if-absent, id-keyed allocations, seals and
//!   commits), so a record that raced into both the snapshot and the
//!   replayed suffix converges.
//! - **Checkpoints** are written to `CHECKPOINT.tmp`, fsynced, renamed over
//!   `CHECKPOINT`, and the directory fsynced — a crash leaves either the
//!   old or the new checkpoint, never a blend. Only after the rename does
//!   compaction cut the log to the frames past it (same tmp+rename dance),
//!   so every state on disk replays to the same image.
//! - **Cadence.** One is due once the log holds `checkpoint_every` records
//!   *and* has grown to the last checkpoint's size: checkpoint bytes
//!   written never exceed log bytes written (plus the first), and reopen
//!   replays at most about one image's worth of log.

use crate::durable::{self, Dir, Synced, Unsynced};
use crate::namenode::{EncodedStripe, PendingStripe};
use crate::sync::{level, Held, Mutex, Precedes};
use ear_core::{BlockLayout, StripePlan};
use ear_types::crc::crc32c;
use ear_types::{BlockId, Error, NodeId, RackId, Result, StripeId};
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// File name of the framed record log inside the meta directory.
pub const WAL_FILE: &str = "wal";
/// File name of the committed checkpoint inside the meta directory.
pub const CHECKPOINT_FILE: &str = "CHECKPOINT";

/// Upper bound on one frame's body. A record holds at most a stripe's
/// worth of ids; a megabyte is orders of magnitude above that, so any
/// larger length field is treated as a torn header.
pub const MAX_RECORD: u32 = 1 << 20;

const CHECKPOINT_MAGIC: u32 = 0x4541_52C5; // "EAR" + checkpoint marker
const CHECKPOINT_VERSION: u32 = 1;

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Error {
    let context = context.into();
    move |e| Error::Io {
        context: format!("{context}: {e}"),
    }
}

fn corrupt(context: impl Into<String>) -> Error {
    Error::WalCorrupt {
        context: context.into(),
    }
}

// ---------------------------------------------------------------------------
// Record vocabulary
// ---------------------------------------------------------------------------

/// One durable metadata mutation. Every variant is re-apply-safe: applying
/// a record twice (or over a snapshot that already contains its effect)
/// yields the same image as applying it once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRecord {
    /// A block came into existence at `locations`. `assigned` is true for
    /// policy-placed data blocks (which enter the unsealed list) and false
    /// for registered parity blocks.
    Allocate {
        /// The new block's id.
        block: BlockId,
        /// Its initial replica locations.
        locations: Vec<NodeId>,
        /// Whether the layout was policy-assigned (data) or fixed (parity).
        assigned: bool,
    },
    /// A block's location list was replaced wholesale: every location
    /// change logs the whole list that results, so a replay over an image
    /// that already absorbed it leaves the list in the same order.
    SetLocations {
        /// The block.
        block: BlockId,
        /// The new complete location list.
        nodes: Vec<NodeId>,
    },
    /// The policy sealed a stripe: its blocks leave the unsealed list and
    /// it enters the pre-encoding store, carrying the plan encoding follows.
    SealStripe(PendingStripe),
    /// A stripe finished encoding: it leaves the pre-encoding store and its
    /// data + parity ids are recorded.
    EncodeCommit(EncodedStripe),
}

// ---------------------------------------------------------------------------
// Binary encoding (little-endian, length-prefixed, panic-free decode)
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_nodes(out: &mut Vec<u8>, nodes: &[NodeId]) {
    put_u32(out, nodes.len() as u32);
    for n in nodes {
        put_u32(out, n.0);
    }
}

fn put_blocks(out: &mut Vec<u8>, blocks: &[BlockId]) {
    put_u32(out, blocks.len() as u32);
    for b in blocks {
        put_u64(out, b.0);
    }
}

/// Takes the next `n` bytes of `buf` at `*pos`, advancing the cursor.
/// Returns `None` on underrun — the decoder's only failure mode, mapped to
/// [`Error::WalCorrupt`] at the call boundary.
fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(n)?;
    let slice = buf.get(*pos..end)?;
    *pos = end;
    Some(slice)
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Option<u8> {
    take(buf, pos, 1).map(|s| s.iter().copied().next().unwrap_or(0))
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let s = take(buf, pos, 4)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(s);
    Some(u32::from_le_bytes(b))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let s = take(buf, pos, 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(u64::from_le_bytes(b))
}

/// Reads a `u32` count, then that many elements through `get`. A count the
/// remaining bytes cannot hold (`elem` = least bytes per element) is
/// rejected first — a cheap guard against huge allocations from corrupt
/// length fields.
fn get_vec<T>(
    buf: &[u8],
    pos: &mut usize,
    elem: usize,
    get: impl Fn(&[u8], &mut usize) -> Option<T>,
) -> Option<Vec<T>> {
    let n = get_u32(buf, pos)? as usize;
    if buf.len().saturating_sub(*pos) < n.checked_mul(elem)? {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get(buf, pos)?);
    }
    Some(out)
}

fn get_nodes(buf: &[u8], pos: &mut usize) -> Option<Vec<NodeId>> {
    get_vec(buf, pos, 4, |buf, pos| get_u32(buf, pos).map(NodeId))
}

fn get_blocks(buf: &[u8], pos: &mut usize) -> Option<Vec<BlockId>> {
    get_vec(buf, pos, 8, |buf, pos| get_u64(buf, pos).map(BlockId))
}

fn put_plan(out: &mut Vec<u8>, plan: &StripePlan) {
    put_u32(out, plan.num_blocks() as u32);
    for layout in plan.data_layouts() {
        put_nodes(out, &layout.replicas);
    }
    match plan.core_rack() {
        Some(r) => {
            out.push(1);
            put_u32(out, r.0);
        }
        None => out.push(0),
    }
    match plan.target_racks() {
        Some(racks) => {
            out.push(1);
            put_u32(out, racks.len() as u32);
            for r in racks {
                put_u32(out, r.0);
            }
        }
        None => out.push(0),
    }
    put_u32(out, plan.retries().len() as u32);
    for &r in plan.retries() {
        put_u64(out, r as u64);
    }
}

/// Decodes a stripe plan. `StripePlan::new` and `BlockLayout::new` assert
/// their invariants; the decoder checks them first — one retry count per
/// layout, no empty layout, no node twice in a layout — so bytes that break
/// one are undecodable ([`Error::WalCorrupt`] at the call boundary), never
/// a panic.
fn get_plan(buf: &[u8], pos: &mut usize) -> Option<StripePlan> {
    let layouts = get_vec(buf, pos, 4, |buf, pos| {
        let replicas = get_nodes(buf, pos)?;
        let twice = |(i, node)| replicas.get(..i).is_some_and(|seen| seen.contains(node));
        let valid = !replicas.is_empty() && !replicas.iter().enumerate().any(twice);
        valid.then(|| BlockLayout::new(replicas))
    })?;
    let get_rack = |buf: &[u8], pos: &mut usize| get_u32(buf, pos).map(RackId);
    let core_rack = match get_u8(buf, pos)? {
        0 => None,
        1 => Some(get_rack(buf, pos)?),
        _ => return None,
    };
    let target_racks = match get_u8(buf, pos)? {
        0 => None,
        1 => Some(get_vec(buf, pos, 4, get_rack)?),
        _ => return None,
    };
    let get_retries = |buf: &[u8], pos: &mut usize| get_u64(buf, pos).map(|r| r as usize);
    let retries = get_vec(buf, pos, 8, get_retries)?;
    (retries.len() == layouts.len())
        .then(|| StripePlan::new(layouts, core_rack, target_racks, retries))
}

fn put_pending(out: &mut Vec<u8>, s: &PendingStripe) {
    put_u64(out, s.id.0);
    put_blocks(out, &s.blocks);
    put_plan(out, &s.plan);
}

fn get_pending(buf: &[u8], pos: &mut usize) -> Option<PendingStripe> {
    Some(PendingStripe {
        id: StripeId(get_u64(buf, pos)?),
        blocks: get_blocks(buf, pos)?,
        plan: get_plan(buf, pos)?,
    })
}

fn put_encoded(out: &mut Vec<u8>, s: &EncodedStripe) {
    put_u64(out, s.id.0);
    put_blocks(out, &s.data);
    put_blocks(out, &s.parity);
}

fn get_encoded(buf: &[u8], pos: &mut usize) -> Option<EncodedStripe> {
    Some(EncodedStripe {
        id: StripeId(get_u64(buf, pos)?),
        data: get_blocks(buf, pos)?,
        parity: get_blocks(buf, pos)?,
    })
}

const TAG_ALLOCATE: u8 = 1;
const TAG_SET_LOCATIONS: u8 = 2;
// Tags 3 and 4 were one-node location changes; a frame carrying one fails
// to decode, and neither tag is reused.
const TAG_SEAL_STRIPE: u8 = 5;
const TAG_ENCODE_COMMIT: u8 = 6;

impl MetaRecord {
    /// Appends this record's byte form to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MetaRecord::Allocate {
                block,
                locations,
                assigned,
            } => {
                out.push(TAG_ALLOCATE);
                put_u64(out, block.0);
                out.push(u8::from(*assigned));
                put_nodes(out, locations);
            }
            MetaRecord::SetLocations { block, nodes } => {
                out.push(TAG_SET_LOCATIONS);
                put_u64(out, block.0);
                put_nodes(out, nodes);
            }
            MetaRecord::SealStripe(stripe) => {
                out.push(TAG_SEAL_STRIPE);
                put_pending(out, stripe);
            }
            MetaRecord::EncodeCommit(stripe) => {
                out.push(TAG_ENCODE_COMMIT);
                put_encoded(out, stripe);
            }
        }
    }

    /// Decodes one record from `buf`, requiring full consumption.
    pub fn decode(buf: &[u8]) -> Option<MetaRecord> {
        let mut pos = 0usize;
        let rec = match get_u8(buf, &mut pos)? {
            TAG_ALLOCATE => {
                let block = BlockId(get_u64(buf, &mut pos)?);
                let assigned = match get_u8(buf, &mut pos)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let locations = get_nodes(buf, &mut pos)?;
                MetaRecord::Allocate {
                    block,
                    locations,
                    assigned,
                }
            }
            TAG_SET_LOCATIONS => MetaRecord::SetLocations {
                block: BlockId(get_u64(buf, &mut pos)?),
                nodes: get_nodes(buf, &mut pos)?,
            },
            TAG_SEAL_STRIPE => MetaRecord::SealStripe(get_pending(buf, &mut pos)?),
            TAG_ENCODE_COMMIT => MetaRecord::EncodeCommit(get_encoded(buf, &mut pos)?),
            _ => return None,
        };
        (pos == buf.len()).then_some(rec)
    }
}

// ---------------------------------------------------------------------------
// The image and its transition
// ---------------------------------------------------------------------------

/// One block's slot in the metadata image, live and durable alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockRec {
    /// Current replica locations.
    pub locations: Vec<NodeId>,
    /// The layout the block was *assigned* at allocation time (data blocks
    /// only; `None` for parity). Stripe sealing matches against this, never
    /// against `locations`: repair moves replicas without breaking the
    /// policy's layout-identity bookkeeping.
    pub assigned: Option<Vec<NodeId>>,
}

impl BlockRec {
    /// The per-block transition: what `rec` does to the slot of the block
    /// it names, in whichever table holds it. `slot(block)` finds that
    /// slot, first inserting an empty one. The two stripe records name no
    /// block.
    pub(crate) fn apply<'a>(rec: &MetaRecord, slot: impl FnOnce(BlockId) -> &'a mut BlockRec) {
        match rec {
            MetaRecord::Allocate {
                block,
                locations,
                assigned,
            } => {
                let slot = slot(*block);
                slot.locations = locations.clone();
                slot.assigned = assigned.then(|| locations.clone());
            }
            MetaRecord::SetLocations { block, nodes } => slot(*block).locations = nodes.clone(),
            MetaRecord::SealStripe(_) | MetaRecord::EncodeCommit(_) => {}
        }
    }
}

/// The complete metadata image: what a checkpoint stores, what replay
/// rebuilds, and what the live NameNode holds (its block slots spread over
/// lock shards). Ordered containers only (DESIGN.md §11): two snapshots of
/// equal state compare and encode bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaSnapshot {
    /// Every known block, keyed (and therefore iterated) by id.
    pub blocks: BTreeMap<BlockId, BlockRec>,
    /// Blocks allocated but not yet sealed into a stripe, in seal order.
    pub unsealed: Vec<BlockId>,
    /// Stripes awaiting encoding, in stripe-id order.
    pub pending: Vec<PendingStripe>,
    /// Encoded stripes, in stripe-id order.
    pub encoded: Vec<EncodedStripe>,
    /// Next block id to allocate.
    pub next_block: u64,
    /// Next stripe id to seal.
    pub next_stripe: u64,
}

impl MetaSnapshot {
    /// Applies one record: the only way an image changes, at replay and in
    /// the live NameNode alike. Re-apply-safe: `apply(r); apply(r)` equals
    /// `apply(r)` for every record, which is what lets replay run over a
    /// checkpoint whose snapshot already absorbed a suffix of the log.
    pub fn apply(&mut self, rec: &MetaRecord) {
        self.apply_stripes(rec);
        BlockRec::apply(rec, |block| self.blocks.entry(block).or_default());
    }

    /// The per-stripe transition: what a record does to everything but the
    /// block slots. The re-apply guards are id-keyed. Block and stripe ids
    /// are issued in log order, so a record is new exactly when its id is
    /// not below the image's counter; commits land in any order, so
    /// `encoded` is kept sorted and searched by id.
    pub(crate) fn apply_stripes(&mut self, rec: &MetaRecord) {
        match rec {
            MetaRecord::Allocate {
                block, assigned, ..
            } => {
                if *assigned && block.0 >= self.next_block {
                    self.unsealed.push(*block);
                }
                self.next_block = self.next_block.max(block.0.saturating_add(1));
            }
            MetaRecord::SealStripe(stripe) => {
                if stripe.id.0 >= self.next_stripe {
                    self.unsealed.retain(|b| !stripe.blocks.contains(b));
                    self.pending.push(stripe.clone());
                    self.next_stripe = stripe.id.0.saturating_add(1);
                }
            }
            MetaRecord::EncodeCommit(stripe) => {
                self.pending.retain(|s| s.id != stripe.id);
                if let Err(at) = self.encoded.binary_search_by_key(&stripe.id, |s| s.id) {
                    self.encoded.insert(at, stripe.clone());
                }
                self.next_stripe = self.next_stripe.max(stripe.id.0.saturating_add(1));
            }
            MetaRecord::SetLocations { .. } => {}
        }
    }

    /// Byte form of the snapshot (the checkpoint payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.blocks.len() as u64);
        for (id, meta) in &self.blocks {
            put_u64(&mut out, id.0);
            put_nodes(&mut out, &meta.locations);
            match &meta.assigned {
                Some(nodes) => {
                    out.push(1);
                    put_nodes(&mut out, nodes);
                }
                None => out.push(0),
            }
        }
        put_blocks(&mut out, &self.unsealed);
        put_u32(&mut out, self.pending.len() as u32);
        for s in &self.pending {
            put_pending(&mut out, s);
        }
        put_u32(&mut out, self.encoded.len() as u32);
        for s in &self.encoded {
            put_encoded(&mut out, s);
        }
        put_u64(&mut out, self.next_block);
        put_u64(&mut out, self.next_stripe);
        out
    }

    /// Decodes a snapshot, requiring full consumption.
    pub fn decode(buf: &[u8]) -> Option<MetaSnapshot> {
        let mut pos = 0usize;
        let n_blocks = get_u64(buf, &mut pos)? as usize;
        // Each block entry is ≥ 17 bytes; reject counts the buffer can't hold.
        if buf.len().saturating_sub(pos) < n_blocks.checked_mul(17)? {
            return None;
        }
        let mut blocks = BTreeMap::new();
        for _ in 0..n_blocks {
            let id = BlockId(get_u64(buf, &mut pos)?);
            let locations = get_nodes(buf, &mut pos)?;
            let assigned = match get_u8(buf, &mut pos)? {
                0 => None,
                1 => Some(get_nodes(buf, &mut pos)?),
                _ => return None,
            };
            blocks.insert(
                id,
                BlockRec {
                    locations,
                    assigned,
                },
            );
        }
        let unsealed = get_blocks(buf, &mut pos)?;
        let pending = get_vec(buf, &mut pos, 8, get_pending)?;
        let encoded = get_vec(buf, &mut pos, 8, get_encoded)?;
        let next_block = get_u64(buf, &mut pos)?;
        let next_stripe = get_u64(buf, &mut pos)?;
        (pos == buf.len()).then_some(MetaSnapshot {
            blocks,
            unsealed,
            pending,
            encoded,
            next_block,
            next_stripe,
        })
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Frames one record at `lsn`: `len | crc32c(body) | body` with
/// `body = lsn | record`.
pub fn encode_frame(lsn: u64, rec: &MetaRecord) -> Vec<u8> {
    // Header placeholders first, the body encoded in place behind them,
    // then the two header words patched as one little-endian u64 (`len`
    // low, `crc` high): one buffer (a typical frame is ~50 bytes), no copy.
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0u8; 8]);
    put_u64(&mut out, lsn);
    rec.encode(&mut out);
    let (header, body) = out.split_at_mut(8);
    let len_crc = u64::from(body.len() as u32) | (u64::from(crc32c(body)) << 32);
    header.copy_from_slice(&len_crc.to_le_bytes());
    out
}

/// Byte form of a committed checkpoint at `last_lsn`.
pub fn encode_checkpoint(snap: &MetaSnapshot, last_lsn: u64) -> Vec<u8> {
    let payload = snap.encode();
    let mut out = Vec::with_capacity(payload.len() + 24);
    put_u32(&mut out, CHECKPOINT_MAGIC);
    put_u32(&mut out, CHECKPOINT_VERSION);
    put_u64(&mut out, last_lsn);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32c(&payload));
    out.extend_from_slice(&payload);
    out
}

fn decode_checkpoint(buf: &[u8]) -> Result<(MetaSnapshot, u64)> {
    let mut pos = 0usize;
    let magic = get_u32(buf, &mut pos).ok_or_else(|| corrupt("checkpoint header truncated"))?;
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt("checkpoint magic mismatch"));
    }
    let version = get_u32(buf, &mut pos).ok_or_else(|| corrupt("checkpoint header truncated"))?;
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(format!("unknown checkpoint version {version}")));
    }
    let last_lsn = get_u64(buf, &mut pos).ok_or_else(|| corrupt("checkpoint header truncated"))?;
    let len = get_u32(buf, &mut pos).ok_or_else(|| corrupt("checkpoint header truncated"))?;
    let crc = get_u32(buf, &mut pos).ok_or_else(|| corrupt("checkpoint header truncated"))?;
    let payload = take(buf, &mut pos, len as usize)
        .ok_or_else(|| corrupt("checkpoint payload truncated"))?;
    if pos != buf.len() {
        return Err(corrupt("checkpoint has trailing bytes"));
    }
    if crc32c(payload) != crc {
        return Err(corrupt("checkpoint payload crc mismatch"));
    }
    let snap =
        MetaSnapshot::decode(payload).ok_or_else(|| corrupt("checkpoint payload undecodable"))?;
    Ok((snap, last_lsn))
}

/// One scanned frame: its lsn, its record, and the byte offset it ends at.
pub type Frame = (u64, MetaRecord, u64);

/// Outcome of scanning a log image: the decoded frames of its valid prefix
/// and that prefix's byte length (everything past it is a torn tail).
///
/// # Errors
///
/// [`Error::WalCorrupt`] for a frame whose CRC verifies but whose body does
/// not decode — real corruption, distinct from a torn append.
pub fn scan_log(buf: &[u8]) -> Result<(Vec<Frame>, usize)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected_lsn: Option<u64> = None;
    loop {
        let frame_start = pos;
        let mut cursor = pos;
        let Some(len) = get_u32(buf, &mut cursor) else {
            return Ok((records, frame_start));
        };
        let Some(crc) = get_u32(buf, &mut cursor) else {
            return Ok((records, frame_start));
        };
        if !(8..=MAX_RECORD).contains(&len) {
            return Ok((records, frame_start));
        }
        let Some(body) = take(buf, &mut cursor, len as usize) else {
            return Ok((records, frame_start));
        };
        if crc32c(body) != crc {
            return Ok((records, frame_start));
        }
        let mut bpos = 0usize;
        // The u64 take cannot fail: len >= 8 was checked above.
        let Some(lsn) = get_u64(body, &mut bpos) else {
            return Ok((records, frame_start));
        };
        if let Some(expected) = expected_lsn {
            if lsn != expected {
                return Ok((records, frame_start));
            }
        }
        let rec = body
            .get(8..)
            .and_then(MetaRecord::decode)
            .ok_or_else(|| corrupt(format!("record at lsn {lsn} has valid crc but no decoding")))?;
        records.push((lsn, rec, cursor as u64));
        expected_lsn = Some(lsn + 1);
        pos = cursor;
    }
}

// ---------------------------------------------------------------------------
// MetaWal
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct WalInner {
    file: durable::File,
    last_lsn: u64,
    /// `(lsn, byte end)` of each frame in the log file, in log order.
    frames: Vec<(u64, u64)>,
    /// Byte size of the last committed checkpoint (0 before the first).
    checkpoint_bytes: u64,
    /// Low-water mark of the last committed checkpoint (0 before the first).
    checkpoint_lsn: u64,
    /// A failed append left bytes past the last frame that could not be
    /// cut: every append is refused until a checkpoint rewrites the log.
    torn_tail: bool,
    /// Makes the next append write this many bytes of its frame and fail.
    #[cfg(test)]
    tear_next: Option<usize>,
}

impl WalInner {
    fn log_bytes(&self) -> u64 {
        self.frames.last().map_or(0, |&(_, end)| end)
    }

    /// Appends `frame` and syncs it. On any failure, cuts the log back to
    /// its last frame end, so a torn frame never sits between two records
    /// (replay would stop at it and drop every record after); if that cut
    /// fails too, refuses every later append instead.
    fn write(&mut self, frame: &[u8]) -> Result<Synced> {
        #[cfg(test)]
        let tear = self.tear_next.take();
        #[cfg(not(test))]
        let tear = None;
        let bytes = tear.and_then(|n| frame.get(..n)).unwrap_or(frame);
        let written = self.file.append(bytes).and_then(Unsynced::sync).and_then(|synced| {
            tear.map_or(Ok(synced), |n| {
                Err(Error::Io { context: format!("torn append after {n} bytes") })
            })
        });
        if written.is_err() {
            self.torn_tail = self.file.resize(self.log_bytes()).and_then(Unsynced::sync).is_err();
        }
        written
    }
}

/// The fewest WAL records between a cluster's automatic checkpoints.
pub(crate) const CHECKPOINT_EVERY: u64 = 256;

/// The open write-ahead log of one NameNode. Its lock is the finest level:
/// the NameNode appends under the table locks, so log order equals apply
/// order. Checkpoints fly one at a time, under the coarsest lock after
/// none ([`level::Checkpoint`]).
#[derive(Debug)]
pub struct MetaWal {
    dir: Dir,
    checkpoint_every: u64,
    /// Held by the one checkpoint in flight.
    pub(crate) flight: Mutex<(), level::Checkpoint>,
    wal: Mutex<WalInner, level::Wal>,
}

impl MetaWal {
    /// Opens (or creates) the log under `dir`, recovering the metadata
    /// image: checkpoint (if any) plus the valid log suffix. A torn tail
    /// is truncated in place; stale `.tmp` files from an interrupted
    /// checkpoint are removed.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] for host failures, [`Error::WalCorrupt`] for a
    /// corrupt committed checkpoint or a CRC-valid-but-undecodable record.
    pub fn open(dir: &Path, sync: bool, checkpoint_every: u64) -> Result<(MetaWal, MetaSnapshot)> {
        Self::open_on(Dir::create_all(dir, sync)?, checkpoint_every)
    }

    /// [`MetaWal::open`] on `dir`, which may be a recording one.
    pub(crate) fn open_on(dir: Dir, checkpoint_every: u64) -> Result<(MetaWal, MetaSnapshot)> {
        fn remove_stale(stale: &Path) -> Result<()> {
            match fs::remove_file(stale) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(io_err(format!("remove {}", stale.display()))(e)),
            }
        }
        remove_stale(&dir.path().join(format!("{CHECKPOINT_FILE}.tmp")))?;
        remove_stale(&dir.path().join(format!("{WAL_FILE}.tmp")))?;

        let ckpt_path = dir.path().join(CHECKPOINT_FILE);
        let (mut snap, ckpt_lsn, checkpoint_bytes) = match fs::read(&ckpt_path) {
            Ok(bytes) => decode_checkpoint(&bytes).map(|(s, lsn)| (s, lsn, bytes.len() as u64))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (MetaSnapshot::default(), 0, 0),
            Err(e) => return Err(io_err(format!("read {}", ckpt_path.display()))(e)),
        };

        let wal_path = dir.path().join(WAL_FILE);
        let image = match fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(format!("read {}", wal_path.display()))(e)),
        };
        let (records, valid_len) = scan_log(&image)?;
        let mut last_lsn = ckpt_lsn;
        for (lsn, rec, _) in &records {
            if *lsn > ckpt_lsn {
                snap.apply(rec);
            }
            last_lsn = last_lsn.max(*lsn);
        }

        let file = dir.create(WAL_FILE, OpenOptions::new().read(true).append(true))?;
        if valid_len < image.len() {
            // Torn tail from an interrupted append: cut it so the next
            // append starts at a frame boundary.
            file.resize(valid_len as u64)?.sync()?;
        }

        let wal = MetaWal {
            dir,
            checkpoint_every: checkpoint_every.max(1),
            flight: Mutex::new(()),
            wal: Mutex::new(WalInner {
                file,
                last_lsn,
                frames: records.iter().map(|&(lsn, _, end)| (lsn, end)).collect(),
                checkpoint_bytes,
                checkpoint_lsn: ckpt_lsn,
                torn_tail: false,
                #[cfg(test)]
                tear_next: None,
            }),
        };
        Ok((wal, snap))
    }

    /// Appends one record, fsyncing before return when the log is in
    /// synchronous mode, and returns its LSN. Once this returns, the
    /// mutation is durable — callers acknowledge only after. A failed
    /// append is cut back out of the log, so the next one lands on a frame
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the write or fsync fails, or if an earlier failed
    /// append could not be cut back (every append is refused until a
    /// checkpoint rewrites the log, or the log is reopened).
    pub fn append(&self, rec: &MetaRecord) -> Result<u64> {
        self.append_holding(Held::entry(), rec).map(|(lsn, _)| lsn)
    }

    /// [`MetaWal::append`] for a caller holding locks up to level `H`.
    pub(crate) fn append_holding<H: Precedes<level::Wal>>(
        &self,
        held: &mut Held<'_, H>,
        rec: &MetaRecord,
    ) -> Result<(u64, Synced)> {
        let (mut wal, _) = self.wal.lock(held);
        if wal.torn_tail {
            let context = "wal append refused: a torn append stays uncut".into();
            return Err(Error::Io { context });
        }
        let lsn = wal.last_lsn + 1;
        let frame = encode_frame(lsn, rec);
        let synced = wal.write(&frame)?;
        let end = wal.log_bytes() + frame.len() as u64;
        wal.frames.push((lsn, end));
        wal.last_lsn = lsn;
        Ok((lsn, synced))
    }

    /// LSN of the most recent append (0 if none ever happened).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn_holding(Held::entry())
    }

    /// [`MetaWal::last_lsn`] for a caller holding locks up to level `H`.
    pub(crate) fn last_lsn_holding<H: Precedes<level::Wal>>(&self, held: &mut Held<'_, H>) -> u64 {
        self.wal.lock(held).0.last_lsn
    }

    /// Whether a checkpoint is due, for a caller holding locks up to level
    /// `H`: the log holds `checkpoint_every` records and has grown to at
    /// least the last checkpoint's size.
    pub(crate) fn should_checkpoint<H: Precedes<level::Wal>>(&self, held: &mut Held<'_, H>) -> bool {
        let (wal, _) = self.wal.lock(held);
        wal.frames.len() as u64 >= self.checkpoint_every && wal.log_bytes() >= wal.checkpoint_bytes
    }

    /// Commits `snap` as the new checkpoint and compacts the log, once any
    /// checkpoint in flight has finished.
    ///
    /// `last_lsn` must be the log position read *before* `snap` was
    /// gathered: any record that raced in between is in the snapshot
    /// already *and* stays in the compacted log, which is safe because
    /// records are re-apply-safe.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if any write, fsync, or rename fails;
    /// [`Error::Invariant`] if `last_lsn` lies below the committed
    /// checkpoint's, whose compaction may already have cut the records in
    /// between.
    pub fn checkpoint(&self, snap: &MetaSnapshot, last_lsn: u64) -> Result<()> {
        let (_flight, mut flying) = self.flight.lock(Held::entry());
        self.checkpoint_holding(&mut flying, snap, last_lsn)
    }

    /// [`MetaWal::checkpoint`] from inside the checkpoint flight.
    pub(crate) fn checkpoint_holding(
        &self,
        flying: &mut Held<'_, level::Checkpoint>,
        snap: &MetaSnapshot,
        last_lsn: u64,
    ) -> Result<()> {
        // Checkpoints commit one at a time, so nothing installs a later one
        // between this check and the rename below.
        let installed = self.wal.lock(flying).0.checkpoint_lsn;
        if last_lsn < installed {
            return Err(Error::Invariant(format!(
                "checkpoint at lsn {last_lsn} is below the committed one at lsn {installed}"
            )));
        }
        let checkpoint = encode_checkpoint(snap, last_lsn);
        self.dir.replace_atomically(CHECKPOINT_FILE, &checkpoint)?;

        // The checkpoint is committed; now cut the log prefix it covers (its
        // frames come first). A crash in here leaves either the old log —
        // replay just skips lsn ≤ last_lsn — or the new one.
        let (mut wal, _) = self.wal.lock(flying);
        (wal.checkpoint_bytes, wal.checkpoint_lsn) = (checkpoint.len() as u64, last_lsn);
        let covered = wal.frames.partition_point(|&(lsn, _)| lsn <= last_lsn);
        let cut = covered.checked_sub(1).and_then(|i| wal.frames.get(i)).map_or(0, |f| f.1);
        let mut tail = vec![0; (wal.log_bytes() - cut) as usize];
        wal.file.read_exact_at(&mut tail, cut).map_err(io_err("read wal tail"))?;
        self.dir.replace_atomically(WAL_FILE, &tail)?;
        wal.file = self.dir.open(WAL_FILE, OpenOptions::new().read(true).append(true))?;
        // The new log holds the uncovered frames and nothing after them.
        wal.torn_tail = false;
        wal.frames.drain(..covered);
        wal.frames.iter_mut().for_each(|f| f.1 -= cut);
        Ok(())
    }

    /// Swaps the log handle for a read-only one so every later append
    /// fails with [`Error::Io`] — how tests provoke a WAL-append failure.
    #[cfg(test)]
    pub(crate) fn fail_appends(&self) {
        let read_only = self.dir.open(WAL_FILE, OpenOptions::new().read(true));
        self.wal.lock(Held::entry()).0.file = read_only.expect("reopen wal read-only");
    }

    /// Makes the next append write its first `bytes` bytes and then fail,
    /// as a short write does (e.g. on a full disk).
    #[cfg(test)]
    pub(crate) fn tear_next_append(&self, bytes: usize) {
        self.wal.lock(Held::entry()).0.tear_next = Some(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::prop;
    use ear_types::rng::ChaCha8;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ear-wal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        #[expect(clippy::let_underscore_must_use, reason = "clears a stale run's dir, if any")]
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_records() -> Vec<MetaRecord> {
        vec![
            MetaRecord::Allocate {
                block: BlockId(0),
                locations: vec![NodeId(1), NodeId(2), NodeId(3)],
                assigned: true,
            },
            MetaRecord::Allocate {
                block: BlockId(1),
                locations: vec![NodeId(4)],
                assigned: false,
            },
            MetaRecord::SetLocations {
                block: BlockId(0),
                nodes: vec![NodeId(1), NodeId(2), NodeId(3), NodeId(9)],
            },
            MetaRecord::SetLocations {
                block: BlockId(0),
                nodes: vec![NodeId(2), NodeId(3), NodeId(9)],
            },
            MetaRecord::SealStripe(PendingStripe {
                id: StripeId(0),
                blocks: vec![BlockId(0)],
                plan: StripePlan::new(
                    vec![BlockLayout::new(vec![NodeId(1), NodeId(2), NodeId(3)])],
                    Some(RackId(1)),
                    Some(vec![RackId(0), RackId(2)]),
                    vec![2],
                ),
            }),
            MetaRecord::SetLocations {
                block: BlockId(0),
                nodes: vec![NodeId(2)],
            },
            MetaRecord::EncodeCommit(EncodedStripe {
                id: StripeId(0),
                data: vec![BlockId(0)],
                parity: vec![BlockId(1)],
            }),
        ]
    }

    #[test]
    fn records_round_trip_through_bytes() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(MetaRecord::decode(&buf), Some(rec.clone()), "{rec:?}");
            // Truncations never decode.
            for cut in 0..buf.len() {
                assert_eq!(MetaRecord::decode(&buf[..cut]), None, "cut={cut} {rec:?}");
            }
        }
    }

    #[test]
    fn snapshot_round_trips_and_apply_is_idempotent() {
        let mut snap = MetaSnapshot::default();
        for rec in sample_records() {
            snap.apply(&rec);
        }
        let bytes = snap.encode();
        assert_eq!(MetaSnapshot::decode(&bytes), Some(snap.clone()));

        let mut twice = MetaSnapshot::default();
        for rec in sample_records() {
            twice.apply(&rec);
            twice.apply(&rec);
        }
        assert_eq!(twice, snap, "double-apply must converge");
    }

    #[test]
    fn append_and_reopen_recovers_everything() {
        let dir = tmp_dir();
        let (wal, snap) = MetaWal::open(&dir, true, 1000).unwrap();
        assert_eq!(snap, MetaSnapshot::default());
        let mut expected = MetaSnapshot::default();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            expected.apply(&rec);
        }
        assert_eq!(wal.last_lsn(), sample_records().len() as u64);
        drop(wal);

        let (wal, recovered) = MetaWal::open(&dir, true, 1000).unwrap();
        assert_eq!(recovered, expected);
        assert_eq!(wal.last_lsn(), sample_records().len() as u64);
        drop(wal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_surfaced() {
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, true, 1000).unwrap();
        let recs = sample_records();
        for rec in &recs {
            wal.append(rec).unwrap();
        }
        drop(wal);
        let wal_path = dir.join(WAL_FILE);
        let image = fs::read(&wal_path).unwrap();
        // Cut mid-way through the last frame.
        #[expect(clippy::disallowed_methods, reason = "forges a torn tail")]
        fs::write(&wal_path, &image[..image.len() - 3]).unwrap();

        let (wal, recovered) = MetaWal::open(&dir, true, 1000).unwrap();
        let mut expected = MetaSnapshot::default();
        for rec in &recs[..recs.len() - 1] {
            expected.apply(rec);
        }
        assert_eq!(recovered, expected);
        // The torn bytes were physically removed; a fresh append lands at
        // a clean frame boundary and the log replays in full.
        wal.append(recs.last().unwrap()).unwrap();
        drop(wal);
        let (_, again) = MetaWal::open(&dir, true, 1000).unwrap();
        let mut full = MetaSnapshot::default();
        for rec in &recs {
            full.apply(rec);
        }
        assert_eq!(again, full);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_recovers() {
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, true, 4).unwrap();
        let recs = sample_records();
        let mut snap = MetaSnapshot::default();
        for rec in &recs[..4] {
            wal.append(rec).unwrap();
            snap.apply(rec);
        }
        assert!(wal.should_checkpoint(Held::entry()));
        let l0 = wal.last_lsn();
        wal.checkpoint(&snap, l0).unwrap();
        assert!(!wal.should_checkpoint(Held::entry()));
        for rec in &recs[4..] {
            wal.append(rec).unwrap();
        }
        drop(wal);

        // The compacted log holds only the suffix.
        let image = fs::read(dir.join(WAL_FILE)).unwrap();
        let (records, valid) = scan_log(&image).unwrap();
        assert_eq!(valid, image.len());
        assert_eq!(records.len(), recs.len() - 4);
        assert_eq!(records.first().unwrap().0, l0 + 1);

        let (_, recovered) = MetaWal::open(&dir, true, 4).unwrap();
        let mut expected = MetaSnapshot::default();
        for rec in &recs {
            expected.apply(rec);
        }
        assert_eq!(recovered, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_append_is_cut_back_and_later_records_survive() {
        // An append that writes 5 bytes of its frame and fails (a short
        // write), between two that succeed: the torn bytes must not sit
        // between the two acknowledged records, or replay stops at them.
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, true, 1000).unwrap();
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        let end = file_len(&dir, WAL_FILE);
        wal.tear_next_append(5);
        assert!(matches!(wal.append(&recs[1]), Err(Error::Io { .. })));
        assert_eq!(file_len(&dir, WAL_FILE), end, "the torn frame is cut");
        assert_eq!(wal.append(&recs[2]).unwrap(), 2, "the refused record took no lsn");
        drop(wal);
        let (_, recovered) = MetaWal::open(&dir, true, 1000).unwrap();
        let mut acked = MetaSnapshot::default();
        for rec in [&recs[0], &recs[2]] {
            acked.apply(rec);
        }
        assert_eq!(recovered, acked);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_are_refused_while_a_torn_tail_stays_uncut() {
        // A read-only handle fails the append and the cut alike: every
        // later append is refused, typed, until a checkpoint rewrites the
        // log from its known frames.
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, false, 1000).unwrap();
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        wal.fail_appends();
        assert!(wal.append(&recs[1]).is_err());
        match wal.append(&recs[1]) {
            Err(Error::Io { context }) => assert!(context.contains("refused"), "{context}"),
            other => panic!("expected a refused append, got {other:?}"),
        }
        let mut snap = MetaSnapshot::default();
        snap.apply(&recs[0]);
        wal.checkpoint(&snap, wal.last_lsn()).unwrap();
        wal.append(&recs[1]).unwrap();
        drop(wal);
        let (_, recovered) = MetaWal::open(&dir, false, 1000).unwrap();
        snap.apply(&recs[1]);
        assert_eq!(recovered, snap);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_below_the_committed_one_is_refused() {
        // Two checkpoints raced: B (low-water 4) committed and compacted
        // the log past lsn 2, then A (low-water 2, gathered earlier) came
        // to rename its snapshot over B's. Installed, A would leave lsns 3
        // and 4 in neither the checkpoint nor the log.
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, true, 1000).unwrap();
        let recs = sample_records();
        let (mut early, mut live) = (MetaSnapshot::default(), MetaSnapshot::default());
        for (i, rec) in recs[..4].iter().enumerate() {
            wal.append(rec).unwrap();
            live.apply(rec);
            if i < 2 {
                early.apply(rec);
            }
        }
        wal.checkpoint(&live, 4).unwrap();
        assert!(matches!(wal.checkpoint(&early, 2), Err(Error::Invariant(_))));
        wal.checkpoint(&live, 4).unwrap();
        drop(wal);
        let (_, recovered) = MetaWal::open(&dir, true, 1000).unwrap();
        assert_eq!(recovered, live);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn file_len(dir: &Path, name: &str) -> u64 {
        fs::metadata(dir.join(name)).unwrap().len()
    }

    #[test]
    fn a_checkpoint_waits_for_the_log_to_reach_the_last_ones_size() {
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, false, 4).unwrap();
        let mut snap = MetaSnapshot::default();
        for i in 0..64 {
            let locations = vec![NodeId(1), NodeId(2), NodeId(3)];
            let rec = MetaRecord::Allocate {
                block: BlockId(i),
                locations,
                assigned: true,
            };
            wal.append(&rec).unwrap();
            snap.apply(&rec);
        }
        assert!(wal.should_checkpoint(Held::entry()));
        wal.checkpoint(&snap, wal.last_lsn()).unwrap();
        let size = file_len(&dir, CHECKPOINT_FILE);
        let mut wal = Some(wal);
        let mut appended = 0;
        while file_len(&dir, WAL_FILE) < size {
            let open = wal.as_ref().unwrap();
            assert!(!open.should_checkpoint(Held::entry()), "after {appended} records");
            let node = NodeId(9 + appended as u32 % 2);
            let nodes = vec![node];
            open.append(&MetaRecord::SetLocations { block: BlockId(appended % 64), nodes })
                .unwrap();
            appended += 1;
            if appended == 8 {
                // Past the floor: reopen reads the checkpoint's size back.
                drop(wal.take());
                wal = Some(MetaWal::open(&dir, false, 4).unwrap().0);
            }
        }
        assert!(appended > 8, "{appended} records reached {size} bytes");
        assert!(wal.unwrap().should_checkpoint(Held::entry()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frames_that_race_a_checkpoint_are_carried_over_bit_identically() {
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, true, 1000).unwrap();
        let recs = sample_records();
        let mut live = MetaSnapshot::default();
        for rec in &recs[..3] {
            wal.append(rec).unwrap();
            live.apply(rec);
        }
        // The low-water mark is read, then records race the gather: the
        // first lands in the snapshot too, the rest only in the log.
        let low_water = wal.last_lsn();
        let at_low_water = file_len(&dir, WAL_FILE) as usize;
        let mut snap = live.clone();
        for (i, rec) in recs[3..].iter().enumerate() {
            wal.append(rec).unwrap();
            live.apply(rec);
            if i == 0 {
                snap.apply(rec);
            }
        }
        let raced = fs::read(dir.join(WAL_FILE)).unwrap().split_off(at_low_water);
        wal.checkpoint(&snap, low_water).unwrap();
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), raced);

        // A second checkpoint cuts inside the carried-over frames.
        let first = encode_frame(low_water + 1, &recs[3]).len();
        wal.checkpoint(&live, low_water + 1).unwrap();
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), raced[first..]);
        // Appends go on at a frame boundary.
        wal.append(&recs[0]).unwrap();
        live.apply(&recs[0]);
        drop(wal);
        let (wal, recovered) = MetaWal::open(&dir, true, 1000).unwrap();
        assert_eq!(recovered, live);
        assert_eq!(wal.last_lsn(), recs.len() as u64 + 1);
        drop(wal);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A record a NameNode could log next: an allocation of the next id,
    /// or a location change of a block allocated so far.
    fn next_record(rng: &mut ChaCha8, next_block: u64) -> MetaRecord {
        let block = BlockId(rng.below(next_block.max(1)));
        let node = NodeId(rng.below(16) as u32);
        match rng.below(4) {
            0 => MetaRecord::Allocate {
                block: BlockId(next_block),
                locations: vec![node],
                assigned: rng.below(2) == 0,
            },
            _ => MetaRecord::SetLocations {
                block,
                nodes: vec![node, NodeId(16)],
            },
        }
    }

    #[test]
    fn reopen_after_any_appends_checkpoints_and_reopens_is_the_live_image() {
        prop::check("wal_reopen_is_the_live_image", 64, |rng| {
            let dir = tmp_dir();
            let every = prop::range(rng, 1..=8);
            let (mut wal, _) = MetaWal::open(&dir, false, every).unwrap();
            // The image after each lsn, the empty one at lsn 0.
            let mut images = vec![MetaSnapshot::default()];
            let mut covered = 0;
            for _ in 0..prop::range(rng, 10..=150) {
                match rng.below(10) {
                    0 => {
                        // The low-water mark may lag: frames past it race
                        // the checkpoint and stay in the log.
                        let last = wal.last_lsn();
                        let low_water = last - rng.below(last - covered + 1);
                        wal.checkpoint(&images[low_water as usize], low_water).unwrap();
                        covered = low_water;
                        let image = fs::read(dir.join(WAL_FILE)).unwrap();
                        let (frames, valid) = scan_log(&image).unwrap();
                        assert_eq!(valid, image.len());
                        let lsns: Vec<u64> = frames.iter().map(|f| f.0).collect();
                        assert_eq!(lsns, (low_water + 1..=last).collect::<Vec<_>>());
                    }
                    1 => {
                        drop(wal);
                        let (reopened, image) = MetaWal::open(&dir, false, every).unwrap();
                        assert_eq!(Some(&image), images.last());
                        wal = reopened;
                    }
                    _ => {
                        let mut live = images.last().unwrap().clone();
                        let rec = next_record(rng, live.next_block);
                        wal.append(&rec).unwrap();
                        live.apply(&rec);
                        images.push(live);
                    }
                }
            }
            drop(wal);
            let (_, image) = MetaWal::open(&dir, false, every).unwrap();
            assert_eq!(Some(&image), images.last());
            fs::remove_dir_all(&dir).unwrap();
        });
    }

    /// A committed checkpoint with a flipped byte, or cut short at any
    /// length: corruption, since a crash never leaves either (the rename
    /// publishes only a synced file), so `open` must say so.
    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let dir = tmp_dir();
        let (wal, _) = MetaWal::open(&dir, true, 1000).unwrap();
        let mut snap = MetaSnapshot::default();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            snap.apply(&rec);
        }
        wal.checkpoint(&snap, wal.last_lsn()).unwrap();
        drop(wal);
        let ckpt = dir.join(CHECKPOINT_FILE);
        let good = fs::read(&ckpt).unwrap();
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0xFF;
        let cuts = [0, 1, 8, 23, 24, good.len() / 2, good.len() - 1];
        for bad in std::iter::once(&flipped[..]).chain(cuts.map(|n| &good[..n])) {
            #[expect(clippy::disallowed_methods, reason = "forges a corrupt checkpoint")]
            fs::write(&ckpt, bad).unwrap();
            match MetaWal::open(&dir, true, 1000) {
                Err(Error::WalCorrupt { .. }) => {}
                other => panic!("a {}-byte checkpoint: expected WalCorrupt, got {other:?}", bad.len()),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_but_undecodable_record_is_corruption() {
        // A frame with a bogus tag but a correct CRC.
        assert_open_finds_corruption(&[0xEE]);
    }

    /// Writes a log of one frame at lsn 1 whose CRC is valid over `record`
    /// — bytes no decoder accepts — and expects `open` to call it corrupt.
    fn assert_open_finds_corruption(record: &[u8]) {
        let dir = tmp_dir();
        fs::create_dir_all(&dir).unwrap();
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.extend_from_slice(record);
        let mut frame = Vec::new();
        put_u32(&mut frame, body.len() as u32);
        put_u32(&mut frame, crc32c(&body));
        frame.extend_from_slice(&body);
        #[expect(clippy::disallowed_methods, reason = "forges an undecodable frame")]
        fs::write(dir.join(WAL_FILE), &frame).unwrap();
        match MetaWal::open(&dir, true, 1000) {
            Err(Error::WalCorrupt { .. }) => {}
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A `SealStripe` record spelled byte by byte — the only way to write
    /// a plan that `StripePlan::new` would refuse.
    fn seal_bytes(layouts: &[&[u32]], retries: &[u64]) -> Vec<u8> {
        let mut out = vec![TAG_SEAL_STRIPE];
        put_u64(&mut out, 3);
        put_blocks(&mut out, &[BlockId(7)]);
        put_u32(&mut out, layouts.len() as u32);
        for layout in layouts {
            let nodes: Vec<NodeId> = layout.iter().map(|&n| NodeId(n)).collect();
            put_nodes(&mut out, &nodes);
        }
        out.extend_from_slice(&[0, 0]); // no core rack, no target racks
        put_u32(&mut out, retries.len() as u32);
        for &r in retries {
            put_u64(&mut out, r);
        }
        out
    }

    /// Plans that break one of the invariants the live type asserts: a
    /// node twice in a layout, an empty layout, retries ≠ layouts.
    fn invalid_plans() -> [Vec<u8>; 3] {
        [
            seal_bytes(&[&[0, 0]], &[0]),
            seal_bytes(&[&[]], &[0]),
            seal_bytes(&[&[0, 1]], &[0, 1]),
        ]
    }

    #[test]
    fn stripe_plan_validates_on_decode() {
        let good = seal_bytes(&[&[0, 1]], &[0]);
        let rec = MetaRecord::SealStripe(PendingStripe {
            id: StripeId(3),
            blocks: vec![BlockId(7)],
            plan: StripePlan::new(
                vec![BlockLayout::new(vec![NodeId(0), NodeId(1)])],
                None,
                None,
                vec![0],
            ),
        });
        assert_eq!(MetaRecord::decode(&good), Some(rec.clone()));
        let mut again = Vec::new();
        rec.encode(&mut again);
        assert_eq!(again, good);
        for bad in invalid_plans() {
            assert_eq!(MetaRecord::decode(&bad), None);
        }
    }

    #[test]
    fn invalid_plan_behind_a_valid_crc_is_corruption_not_a_panic() {
        for bad in invalid_plans() {
            assert_open_finds_corruption(&bad);
        }
    }

    #[test]
    fn on_disk_format_is_pinned() {
        // CRC32Cs of the bytes the tree writes: no frame and no checkpoint
        // byte may move.
        let mut frames = Vec::new();
        let mut snap = MetaSnapshot::default();
        for (i, rec) in sample_records().iter().enumerate() {
            frames.extend_from_slice(&encode_frame(i as u64 + 1, rec));
            snap.apply(rec);
        }
        assert_eq!((frames.len(), crc32c(&frames)), (331, 0xc376_b271));
        let ckpt = encode_checkpoint(&snap, sample_records().len() as u64);
        assert_eq!((ckpt.len(), crc32c(&ckpt)), (142, 0x9706_fd6e));
        assert_eq!(CHECKPOINT_VERSION, 1);
    }
}
