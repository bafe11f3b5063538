//! [`ExtentStore`] — the durable block engine (DESIGN.md §9, §13).
//!
//! Instead of one file per block (what HDFS does), blocks are packed
//! into a handful of large segment files through a free-list allocator of
//! 4 KiB pages — the layout real SSD-era stores use, and the layout whose
//! crash behaviour the kill-point simulator exercises.
//!
//! On-disk format. A segment is `ext-<i>.seg`: a header table, one 64-byte
//! slot per 4 KiB page of the data area behind it, padded to a whole page.
//! An extent is payload only, padded to whole pages (at least one), and its
//! header sits in the slot of its first page, so a 64 KiB block is 16 pages
//! written by one payload write:
//!
//! ```text
//! | slot 0 | slot 1 | … | pad to 4 KiB | page 0 | page 1 | … |
//!
//! slot:
//! off  size  field
//!   0     4  magic
//!   4     1  kind (1 = put, 2 = tombstone)
//!   5     3  pad (zero)
//!   8     8  block id
//!  16     8  sequence number (store-wide, monotonic)
//!  24     4  payload length
//!  28     4  payload crc32c
//!  32     4  header crc32c (over bytes 0..32)
//!  36    28  pad (zero)
//! ```
//!
//! The data size of a segment is [`SEG_SIZE`], or a record's own size
//! rounded up to whole pages when it is larger; reopen derives it from the
//! file length, and a length no such layout has is [`Error::WalCorrupt`].
//!
//! Commit protocol (**header-last**): payload bytes are written first, the
//! slot after, then one fsync — and only then is the write acknowledged.
//! A crash mid-write leaves either no valid header (invisible) or a valid
//! header over a payload that fails its CRC (discarded on recovery): a torn
//! write can never surface as data. Overwrites allocate a fresh extent and
//! win by sequence number; deletes commit a durable tombstone (a slot and
//! its page, no data written) before any slot is zeroed, so a crash can
//! lose the *operation* but never resurrect deleted data once acknowledged.
//! Retiring an extent zeroes its slot and syncs before its pages are
//! reused. Recovery reads each table in one `pread` and examines every
//! slot: newest first, a record whose payload passes its CRC keeps its
//! pages unless a newer record holds one of them, the highest-sequence
//! keeper per block wins, every other slot is re-zeroed, and the free list
//! is rebuilt as the complement of the winners.
//!
//! (The CRC is 32 bits: a torn header that accidentally verifies has
//! probability 2⁻³², which the crash-matrix in EXPERIMENTS.md accepts.)

use crate::blockstore::BlockStore;
use crate::durable::{Dir, File, Synced};
use crate::sync::{Mutex, RwLock};
use ear_types::crc::crc32c;
use ear_types::{Block, BlockId, Error, Result, StoreBackend};
use std::collections::{HashMap, HashSet};
use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The page: every extent starts on a page of a segment's data area and
/// spans whole pages.
pub const ALIGN: u64 = 4096;
/// Data bytes of a default segment; records too large for one get a
/// dedicated segment of their own (rounded up to [`ALIGN`]).
pub const SEG_SIZE: u64 = 8 << 20;
/// Bytes of one header slot; a segment's table holds one per data page.
pub const HEADER_LEN: u64 = 64;

const MAGIC: u32 = 0x4558_5445; // "EXTE"
const KIND_PUT: u8 = 1;
const KIND_TOMB: u8 = 2;
const SHARDS: usize = 16;

fn shard_of(block: BlockId) -> usize {
    (block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
}

fn align_up(v: u64) -> u64 {
    v.div_ceil(ALIGN) * ALIGN
}

/// Pages a record occupies: its payload's, and one for a tombstone.
fn extent_len(payload_len: u32) -> u64 {
    align_up(payload_len as u64).max(ALIGN)
}

/// Bytes of the header table in front of a data area of `data` bytes.
fn table_len(data: u64) -> u64 {
    align_up(data / ALIGN * HEADER_LEN)
}

/// The data size of a segment file `file_len` bytes long, if the store
/// makes files of that length: empty (created, never sized) or a data area
/// of at least [`SEG_SIZE`]. A file of `p` data pages is `p + ⌈p / 64⌉`
/// pages long, so its data pages are the file's pages less one in every
/// 65, rounded up. A segment written with each header inside its extent
/// is a bare 8 MiB, which would read as 2 016 data pages: too few.
fn data_len(file_len: u64) -> Option<u64> {
    let pages = file_len / ALIGN;
    let data = (pages - pages.div_ceil(ALIGN / HEADER_LEN + 1)) * ALIGN;
    let made = data == 0 || data >= SEG_SIZE;
    (made && table_len(data) + data == file_len).then_some(data)
}

/// File offset of the slot of the extent starting at data offset `off`.
fn slot_of(off: u64) -> u64 {
    off / ALIGN * HEADER_LEN
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Error {
    let context = context.into();
    move |e| Error::Io {
        context: format!("{context}: {e}"),
    }
}

/// Reads `len` bytes at file offset `at` of segment `s` (index `seg`).
fn read_at(s: &Segment, seg: usize, at: u64, len: usize) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    s.file
        .read_exact_at(&mut buf, at)
        .map_err(io_err(format!("read segment {seg} at {at}")))?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Header codec
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    kind: u8,
    block: BlockId,
    seq: u64,
    payload_len: u32,
    payload_crc: u32,
}

fn encode_header(h: &Header) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    out[4] = h.kind;
    out[8..16].copy_from_slice(&h.block.0.to_le_bytes());
    out[16..24].copy_from_slice(&h.seq.to_le_bytes());
    out[24..28].copy_from_slice(&h.payload_len.to_le_bytes());
    out[28..32].copy_from_slice(&h.payload_crc.to_le_bytes());
    let crc = crc32c(&out[0..32]);
    out[32..36].copy_from_slice(&crc.to_le_bytes());
    out
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    let s = buf.get(at..at.checked_add(4)?)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(s);
    Some(u32::from_le_bytes(b))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    let s = buf.get(at..at.checked_add(8)?)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(u64::from_le_bytes(b))
}

fn decode_header(buf: &[u8]) -> Option<Header> {
    let magic = read_u32(buf, 0)?;
    if magic != MAGIC {
        return None;
    }
    let stored = read_u32(buf, 32)?;
    if crc32c(buf.get(0..32)?) != stored {
        return None;
    }
    let kind = *buf.get(4)?;
    if kind != KIND_PUT && kind != KIND_TOMB {
        return None;
    }
    Some(Header {
        kind,
        block: BlockId(read_u64(buf, 8)?),
        seq: read_u64(buf, 16)?,
        payload_len: read_u32(buf, 24)?,
        payload_crc: read_u32(buf, 28)?,
    })
}

// ---------------------------------------------------------------------------
// Allocator
// ---------------------------------------------------------------------------

/// A run of pages: `off` and `len` count bytes of segment `seg`'s data
/// area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExtentRef {
    seg: usize,
    off: u64,
    len: u64,
}

/// First-fit free-list allocator over the segment space. Kept sorted by
/// (segment, offset); adjacent frees coalesce.
#[derive(Debug, Default)]
struct Allocator {
    free: Vec<ExtentRef>,
}

impl Allocator {
    fn alloc(&mut self, need: u64) -> Option<ExtentRef> {
        let pos = self.free.iter().position(|e| e.len >= need)?;
        let mut found = self.free.remove(pos);
        if found.len > need {
            self.free.insert(
                pos,
                ExtentRef {
                    seg: found.seg,
                    off: found.off + need,
                    len: found.len - need,
                },
            );
            found.len = need;
        }
        Some(found)
    }

    fn release(&mut self, ext: ExtentRef) {
        let pos = self
            .free
            .partition_point(|e| (e.seg, e.off) < (ext.seg, ext.off));
        self.free.insert(pos, ext);
        // Coalesce with the successor, then the predecessor.
        if let (Some(cur), Some(next)) = (self.free.get(pos).copied(), self.free.get(pos + 1)) {
            if cur.seg == next.seg && cur.off + cur.len == next.off {
                let add = next.len;
                self.free.remove(pos + 1);
                if let Some(c) = self.free.get_mut(pos) {
                    c.len += add;
                }
            }
        }
        if pos > 0 {
            if let (Some(prev), Some(cur)) =
                (self.free.get(pos - 1).copied(), self.free.get(pos).copied())
            {
                if prev.seg == cur.seg && prev.off + prev.len == cur.off {
                    self.free.remove(pos);
                    if let Some(p) = self.free.get_mut(pos - 1) {
                        p.len += cur.len;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Segment {
    /// Shared so a commit writes and syncs without holding `segments`.
    file: Arc<File>,
    /// File offset of the data area: the header table's length.
    base: u64,
    /// Bytes of data area.
    size: u64,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    ext: ExtentRef,
    payload_len: u32,
    crc: u32,
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The extent-based block engine. See the module docs for the on-disk
/// format and the crash-consistency argument. Its locks are leaves: none is
/// held while another is taken.
#[derive(Debug)]
pub struct ExtentStore {
    dir: Dir,
    persistent: bool,
    segments: RwLock<Vec<Segment>>,
    alloc: Mutex<Allocator>,
    index: Vec<Mutex<HashMap<BlockId, IndexEntry>>>,
    seq: AtomicU64,
}

impl ExtentStore {
    /// An empty throwaway store under a unique temp root (removed on drop),
    /// with fsync off — the configuration the test matrix runs.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the root cannot be created.
    pub fn new(label: &str) -> Result<Self> {
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "ear-extent-{}-{}-{}",
            std::process::id(),
            seq,
            label
        ));
        Ok(Self::build(Dir::create_all(&root, false)?, false))
    }

    /// Opens (or creates) a persistent store rooted at `root`, running
    /// torn-write recovery over whatever the directory holds. The root is
    /// kept on drop.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] for host failures; [`Error::WalCorrupt`] if the
    /// segment files on disk are not a recognizable store (e.g. a gap in
    /// the segment numbering).
    pub fn open_at(root: &Path, sync: bool) -> Result<Self> {
        Self::open_on(Dir::create_all(root, sync)?)
    }

    /// [`ExtentStore::open_at`] on `dir`, which may be a recording one.
    pub(crate) fn open_on(dir: Dir) -> Result<Self> {
        let store = Self::build(dir, true);
        store.recover()?;
        Ok(store)
    }

    fn build(dir: Dir, persistent: bool) -> Self {
        ExtentStore {
            dir,
            persistent,
            segments: RwLock::new(Vec::new()),
            alloc: Mutex::new(Allocator::default()),
            index: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            seq: AtomicU64::new(1),
        }
    }

    /// The directory this store writes under.
    pub fn root(&self) -> &Path {
        self.dir.path()
    }

    fn seg_name(seg: usize) -> String {
        format!("ext-{seg}.seg")
    }

    /// Appends a fresh segment of `size` data bytes behind its header
    /// table and returns its index.
    fn create_segment(&self, size: u64) -> Result<usize> {
        let mut segments = self.segments.write();
        let seg = segments.len();
        let options = &mut OpenOptions::new();
        let file = Arc::new(self.dir.create(&Self::seg_name(seg), options.read(true).write(true))?);
        let base = table_len(size);
        file.resize(base + size)?.sync()?;
        segments.push(Segment { file, base, size });
        Ok(seg)
    }

    /// Segment `seg`.
    fn segment(&self, seg: usize) -> Result<Segment> {
        let segments = self.segments.read();
        segments
            .get(seg)
            .cloned()
            .ok_or_else(|| Error::Invariant(format!("extent segment {seg} out of range")))
    }

    /// Reads the first `len` bytes of extent `ext` into an exactly sized
    /// buffer, without holding `segments` across the `pread`.
    fn read_payload(&self, ext: ExtentRef, len: usize) -> Result<Vec<u8>> {
        let s = self.segment(ext.seg)?;
        read_at(&s, ext.seg, s.base + ext.off, len)
    }

    /// Carves an extent of at least `need` bytes, growing the segment space
    /// when the free list is dry.
    fn allocate(&self, need: u64) -> Result<ExtentRef> {
        if let Some(ext) = self.alloc.lock().alloc(need) {
            return Ok(ext);
        }
        let size = if need <= SEG_SIZE { SEG_SIZE } else { align_up(need) };
        let seg = self.create_segment(size)?;
        let mut alloc = self.alloc.lock();
        alloc.release(ExtentRef { seg, off: 0, len: size });
        alloc
            .alloc(need)
            .ok_or_else(|| Error::Invariant("fresh extent segment cannot satisfy alloc".into()))
    }

    /// Writes and commits one record (payload first, slot last, fsync),
    /// returning its extent. This is the durability point of every
    /// mutation.
    fn commit_record(&self, header: &Header, payload: &[u8]) -> Result<(ExtentRef, Synced)> {
        let ext = self.allocate(extent_len(header.payload_len))?;
        let s = self.segment(ext.seg)?;
        let written = s.file.write_payload(s.base + ext.off, payload)?;
        let committed = s.file.write_header(slot_of(ext.off), &encode_header(header), written)?;
        Ok((ext, committed.sync()?))
    }

    /// Zeroes a record's slot so recovery no longer sees it, syncs, then
    /// returns the extent to the allocator: no page is reused while a
    /// header on disk still claims it. Post-acknowledgment maintenance: a
    /// crash before the zero reaches disk just leaves a stale record that
    /// loses by sequence number.
    fn retire(&self, ext: ExtentRef) -> Result<Synced> {
        let s = self.segment(ext.seg)?;
        let synced = s.file.write_at(slot_of(ext.off), &[0u8; 64])?.sync()?;
        self.alloc.lock().release(ext);
        Ok(synced)
    }

    /// The index stripe owning `block`.
    #[expect(
        clippy::indexing_slicing,
        reason = "shard_of() is a % SHARDS reduction and the index holds exactly SHARDS stripes"
    )]
    fn stripe_for(&self, block: BlockId) -> &Mutex<HashMap<BlockId, IndexEntry>> {
        &self.index[shard_of(block)]
    }

    // -- recovery ----------------------------------------------------------

    /// Reads every segment's header table, keeps the newest valid record
    /// per block that no newer record overlaps, zeroes every other slot,
    /// and rebuilds allocator + index.
    fn recover(&self) -> Result<()> {
        let mut names = Vec::new();
        for entry in
            fs::read_dir(self.root()).map_err(io_err(format!("scan {}", self.root().display())))?
        {
            let entry = entry.map_err(io_err("scan extent dir"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(i) = name
                .strip_prefix("ext-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<usize>().ok())
            {
                names.push(i);
            }
        }
        names.sort_unstable();
        for (pos, &i) in names.iter().enumerate() {
            if pos != i {
                return Err(Error::WalCorrupt {
                    context: format!("extent segment numbering has a gap before ext-{i}.seg"),
                });
            }
        }

        let mut segments = Vec::new();
        for &seg in &names {
            let name = Self::seg_name(seg);
            let file = self.dir.open(&name, OpenOptions::new().read(true).write(true))?;
            let len = file.metadata().map_err(io_err(format!("stat {name}")))?.len();
            let size = data_len(len).ok_or_else(|| Error::WalCorrupt {
                context: format!("{name} is {len} bytes, a length the store does not make"),
            })?;
            segments.push(Segment { file: Arc::new(file), base: len - size, size });
        }
        self.segments.write().clone_from(&segments);

        // Every header in a table, each put's payload checked against its
        // CRC: a record that fails, or runs past its data area, claims no
        // pages.
        let mut found: Vec<(Header, ExtentRef)> = Vec::new();
        let mut discard: Vec<ExtentRef> = Vec::new();
        let mut max_seq = 0u64;
        for (seg, s) in segments.iter().enumerate() {
            let table = read_at(s, seg, 0, s.base as usize)?;
            for (page, slot) in table.chunks_exact(HEADER_LEN as usize).enumerate() {
                let Some(header) = decode_header(slot) else {
                    continue;
                };
                let off = page as u64 * ALIGN;
                let ext = ExtentRef { seg, off, len: extent_len(header.payload_len) };
                max_seq = max_seq.max(header.seq);
                let valid = off + ext.len <= s.size
                    && (header.kind == KIND_TOMB
                        || header.payload_len == 0
                        || crc32c(&read_at(s, seg, s.base + off, header.payload_len as usize)?)
                            == header.payload_crc);
                if valid {
                    found.push((header, ext));
                } else {
                    // A torn payload (its write was never acknowledged) or
                    // pages a data area does not have: discard it.
                    discard.push(ext);
                }
            }
        }

        // Newest first, a record wins its block unless a newer version won
        // it already, or a newer record holds one of its pages: pages are
        // reused only after their old slot is zeroed and synced, so such a
        // header is stale, and its bytes are the newer record's. Tombstone
        // winners delete their block; they are retired like the losers,
        // after them.
        found.sort_unstable_by_key(|(h, _)| std::cmp::Reverse(h.seq));
        let mut claimed: Vec<Vec<bool>> =
            segments.iter().map(|s| vec![false; (s.size / ALIGN) as usize]).collect();
        let mut decided: HashSet<BlockId> = HashSet::new();
        let mut live: Vec<(BlockId, IndexEntry)> = Vec::new();
        let mut tombs: Vec<ExtentRef> = Vec::new();
        for (header, ext) in found {
            let (first, end) = ((ext.off / ALIGN) as usize, ((ext.off + ext.len) / ALIGN) as usize);
            let pages = claimed
                .get_mut(ext.seg)
                .and_then(|c| c.get_mut(first..end))
                .ok_or_else(|| Error::Invariant("extent pages outside their segment".into()))?;
            if decided.contains(&header.block) || pages.contains(&true) {
                discard.push(ext);
                continue;
            }
            pages.fill(true);
            decided.insert(header.block);
            if header.kind == KIND_TOMB {
                tombs.push(ext);
            } else {
                let (payload_len, crc) = (header.payload_len, header.payload_crc);
                live.push((header.block, IndexEntry { ext, payload_len, crc }));
            }
        }

        // Losers first: a tombstone's slot is zeroed only once every put it
        // shadows is.
        for ext in discard.iter().chain(&tombs) {
            self.segment(ext.seg)?.file.write_at(slot_of(ext.off), &[0u8; 64])?.sync()?;
        }

        // Free list = complement of the live extents, per segment.
        let mut used: Vec<ExtentRef> = live.iter().map(|(_, e)| e.ext).collect();
        used.sort_unstable_by_key(|e| (e.seg, e.off));
        let mut alloc = self.alloc.lock();
        let mut it = used.iter().peekable();
        for (seg, s) in segments.iter().enumerate() {
            let mut off = 0u64;
            while let Some(e) = it.peek() {
                if e.seg != seg {
                    break;
                }
                if e.off > off {
                    alloc.release(ExtentRef {
                        seg,
                        off,
                        len: e.off - off,
                    });
                }
                off = e.off + e.len;
                it.next();
            }
            if off < s.size {
                alloc.release(ExtentRef {
                    seg,
                    off,
                    len: s.size - off,
                });
            }
        }
        drop(alloc);

        for (block, entry) in live {
            self.stripe_for(block).lock().insert(block, entry);
        }
        self.seq.store(max_seq + 1, Ordering::SeqCst);
        Ok(())
    }
}

impl Drop for ExtentStore {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "drop cannot report an error; a scratch directory left behind loses nothing"
    )]
    fn drop(&mut self) {
        if !self.persistent {
            let _ = fs::remove_dir_all(self.dir.path());
        }
    }
}

impl BlockStore for ExtentStore {
    fn put(&self, block: BlockId, data: Block, crc: u32) -> Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let header = Header {
            kind: KIND_PUT,
            block,
            seq,
            payload_len: data.len() as u32,
            payload_crc: crc,
        };
        let (ext, _acked) = self.commit_record(&header, &data)?;
        let prev = self.stripe_for(block).lock().insert(
            block,
            IndexEntry {
                ext,
                payload_len: header.payload_len,
                crc,
            },
        );
        if let Some(old) = prev {
            self.retire(old.ext)?;
        }
        Ok(())
    }

    fn get_with_crc(&self, block: BlockId) -> Option<(Block, u32)> {
        let entry = *self.stripe_for(block).lock().get(&block)?;
        let payload = self.read_payload(entry.ext, entry.payload_len as usize).ok()?;
        Some((Block::from(payload), entry.crc))
    }

    fn stored_crc(&self, block: BlockId) -> Option<u32> {
        self.stripe_for(block).lock().get(&block).map(|e| e.crc)
    }

    #[expect(
        clippy::let_underscore_must_use,
        reason = "the durable tombstone is the acknowledgment; retire() only reclaims space, \
                  and a lost zeroing is re-resolved by seq-order recovery on reopen"
    )]
    fn delete(&self, block: BlockId) -> bool {
        let Some(entry) = self.stripe_for(block).lock().remove(&block) else {
            return false;
        };
        // Durable tombstone first (the acknowledgment), then retire the put
        // record, then the tombstone itself. Recovery handles every crash
        // window in between by sequence order.
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let header = Header {
            kind: KIND_TOMB,
            block,
            seq,
            payload_len: 0,
            payload_crc: 0,
        };
        let committed = self.commit_record(&header, &[]);
        match committed {
            Ok((tomb, _acked)) => {
                let _ = self.retire(entry.ext);
                let _ = self.retire(tomb);
                true
            }
            // The tombstone never committed: put the index entry back so
            // the caller sees a failed (not half-applied) delete.
            Err(_) => {
                self.stripe_for(block).lock().insert(block, entry);
                false
            }
        }
    }

    fn contains(&self, block: BlockId) -> bool {
        self.stripe_for(block).lock().contains_key(&block)
    }

    fn block_count(&self) -> usize {
        self.index.iter().map(|s| s.lock().len()).sum()
    }

    fn bytes_stored(&self) -> u64 {
        self.index
            .iter()
            .map(|s| s.lock().values().map(|e| e.payload_len as u64).sum::<u64>())
            .sum()
    }

    fn backend(&self) -> StoreBackend {
        StoreBackend::Extent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{Event, Recorder};
    use std::path::PathBuf;

    fn blk(n: usize, fill: u8) -> (Block, u32) {
        let data = Block::from(vec![fill; n]);
        let crc = crc32c(&data);
        (data, crc)
    }

    #[test]
    fn align_and_extent_len() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), ALIGN);
        assert_eq!(align_up(ALIGN), ALIGN);
        assert_eq!(extent_len(0), ALIGN, "a tombstone owns one page");
        assert_eq!(extent_len(1), ALIGN);
        assert_eq!(extent_len(ALIGN as u32), ALIGN);
        assert_eq!(extent_len(ALIGN as u32 + 1), 2 * ALIGN);
        assert_eq!(extent_len(64 << 10), 16 * ALIGN, "a 64 KiB block is 16 pages");
        // The table: one slot per data page, padded to a page.
        assert_eq!(table_len(SEG_SIZE), 32 * ALIGN);
        assert_eq!(table_len(ALIGN), ALIGN);
        assert_eq!(table_len(64 * ALIGN), ALIGN);
        assert_eq!(table_len(65 * ALIGN), 2 * ALIGN);
        assert_eq!(slot_of(0), 0);
        assert_eq!(slot_of(3 * ALIGN), 3 * HEADER_LEN);
        // Reopen inverts the file length of every segment the store makes;
        // other lengths are refused, a bare 8 MiB segment among them.
        for pages in [0, 2048, 2049, 2112, 2113, 4096] {
            let data = pages * ALIGN;
            assert_eq!(data_len(table_len(data) + data), Some(data), "{pages} data pages");
        }
        for len in [1, ALIGN, 2 * ALIGN, 66 * ALIGN, SEG_SIZE, table_len(SEG_SIZE) + SEG_SIZE - 1] {
            assert_eq!(data_len(len), None, "a {len}-byte file");
        }
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let h = Header {
            kind: KIND_PUT,
            block: BlockId(77),
            seq: 12345,
            payload_len: 999,
            payload_crc: 0xDEAD_BEEF,
        };
        let bytes = encode_header(&h);
        assert_eq!(decode_header(&bytes), Some(h));
        assert_eq!(decode_header(&[0u8; 64]), None, "zeroed header is free");
        let mut torn = bytes;
        torn[20] ^= 1;
        assert_eq!(decode_header(&torn), None, "bit flip breaks the crc");
    }

    #[test]
    fn allocator_splits_and_coalesces() {
        let mut a = Allocator::default();
        a.release(ExtentRef { seg: 0, off: 0, len: 4 * ALIGN });
        let x = a.alloc(ALIGN).unwrap();
        assert_eq!((x.off, x.len), (0, ALIGN));
        let y = a.alloc(2 * ALIGN).unwrap();
        assert_eq!((y.off, y.len), (ALIGN, 2 * ALIGN));
        a.release(x);
        a.release(y);
        // Everything coalesced back into one run.
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.free[0], ExtentRef { seg: 0, off: 0, len: 4 * ALIGN });
        assert!(a.alloc(5 * ALIGN).is_none());
    }

    #[test]
    fn basic_roundtrip_matches_trait_contract() {
        let s = ExtentStore::new("rt").unwrap();
        let (data, crc) = blk(500, 7);
        s.put(BlockId(42), data.clone(), crc).unwrap();
        assert!(s.contains(BlockId(42)));
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.bytes_stored(), 500);
        assert_eq!(s.stored_crc(BlockId(42)), Some(crc));
        let (bytes, got) = s.get_with_crc(BlockId(42)).unwrap();
        assert_eq!(bytes.as_slice(), data.as_slice());
        assert_eq!(got, crc);
        assert!(s.delete(BlockId(42)));
        assert!(!s.delete(BlockId(42)));
        assert!(s.get_with_crc(BlockId(42)).is_none());
        assert_eq!(s.block_count(), 0);
        assert_eq!(s.backend(), StoreBackend::Extent);
    }

    #[test]
    fn overwrite_returns_latest_and_reuses_space() {
        let s = ExtentStore::new("ow").unwrap();
        let (a, ca) = blk(1000, 1);
        let (b, cb) = blk(2000, 2);
        s.put(BlockId(5), a, ca).unwrap();
        s.put(BlockId(5), b.clone(), cb).unwrap();
        let (bytes, crc) = s.get_with_crc(BlockId(5)).unwrap();
        assert_eq!(bytes.as_slice(), b.as_slice());
        assert_eq!(crc, cb);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.bytes_stored(), 2000);
    }

    #[test]
    fn oversized_record_gets_a_dedicated_segment() {
        let s = ExtentStore::new("big").unwrap();
        let n = (SEG_SIZE + ALIGN) as usize;
        let (data, crc) = blk(n, 9);
        s.put(BlockId(1), data.clone(), crc).unwrap();
        let (bytes, _) = s.get_with_crc(BlockId(1)).unwrap();
        assert_eq!(bytes.len(), n);
        assert_eq!(bytes.as_slice(), data.as_slice());
    }

    #[test]
    fn persistent_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "ear-extent-persist-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        #[expect(clippy::let_underscore_must_use, reason = "clears a stale run's dir, if any")]
        let _ = fs::remove_dir_all(&dir);
        {
            let s = ExtentStore::open_at(&dir, true).unwrap();
            for i in 0..20u64 {
                let (data, crc) = blk(100 + i as usize * 37, i as u8);
                s.put(BlockId(i), data, crc).unwrap();
            }
            // Overwrite some, delete some.
            for i in 0..5u64 {
                let (data, crc) = blk(64, 0xAA);
                s.put(BlockId(i), data, crc).unwrap();
            }
            for i in 15..20u64 {
                assert!(s.delete(BlockId(i)));
            }
        }
        let s = ExtentStore::open_at(&dir, true).unwrap();
        assert_eq!(s.block_count(), 15);
        for i in 0..5u64 {
            let (bytes, _) = s.get_with_crc(BlockId(i)).unwrap();
            assert_eq!(bytes.as_slice(), &vec![0xAAu8; 64][..]);
        }
        for i in 5..15u64 {
            let (bytes, _) = s.get_with_crc(BlockId(i)).unwrap();
            assert_eq!(bytes.as_slice(), &vec![i as u8; 100 + i as usize * 37][..]);
        }
        for i in 15..20u64 {
            assert!(!s.contains(BlockId(i)), "deleted block resurrected");
        }
        // New writes after recovery land in reclaimed space and read back.
        let (data, crc) = blk(512, 0x5C);
        s.put(BlockId(99), data.clone(), crc).unwrap();
        let (bytes, _) = s.get_with_crc(BlockId(99)).unwrap();
        assert_eq!(bytes.as_slice(), data.as_slice());
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_captures_commit_order() {
        let dir = scratch_dir("rec");
        let recorder = Recorder::default();
        let s = ExtentStore::open_on(Dir::recording(&dir, &recorder).unwrap()).unwrap();
        let (data, crc) = blk(100, 3);
        s.put(BlockId(0), data, crc).unwrap();
        let ev = recorder.take();
        // The segment's creation and its size (table and data area), each
        // fsynced; then the payload at the first data page, its slot, and
        // the one fsync that acknowledges the put.
        let base = table_len(SEG_SIZE);
        let name = ExtentStore::seg_name(0);
        assert_eq!(ev[..4], [
            Event::Create { file: 0, name },
            Event::SyncDir,
            Event::Resize { file: 0, len: base + SEG_SIZE },
            Event::Sync { file: 0 },
        ]);
        assert_eq!(ev[4], Event::Write { file: 0, off: base, bytes: vec![3; 100] });
        assert!(matches!(&ev[5], Event::Write { file: 0, off: 0, bytes } if bytes.len() == 64));
        assert_eq!(ev[6..], [Event::Sync { file: 0 }]);
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh directory for a persistent store, named after `label`.
    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ear-extent-{label}-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        #[expect(clippy::let_underscore_must_use, reason = "clears a stale run's dir, if any")]
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_seg(dir: &Path, seg: usize) -> fs::File {
        fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(ExtentStore::seg_name(seg)))
            .unwrap()
    }

    #[test]
    fn stale_header_over_live_pages_neither_resurrects_nor_hides_them() {
        let dir = scratch_dir("stale");
        let (a, ca) = blk(3 * ALIGN as usize, 0xA1);
        {
            let s = ExtentStore::open_at(&dir, false).unwrap();
            let (d, cd) = blk(100, 0xD0);
            s.put(BlockId(1), d, cd).unwrap();
            s.put(BlockId(2), a.clone(), ca).unwrap();
            assert!(s.delete(BlockId(1)));
            let live = *s.stripe_for(BlockId(2)).lock().get(&BlockId(2)).unwrap();
            assert_eq!(live.ext, ExtentRef { seg: 0, off: ALIGN, len: 3 * ALIGN });
        }
        // Forge two stale headers, older than block 2's record and each
        // with a CRC that holds over the pages it claims: one in the free
        // slot before block 2 claiming two pages (a walk that skips a
        // record's pages would then never see block 2's slot), one in a
        // slot inside block 2's pages.
        let base = table_len(SEG_SIZE);
        let f = open_seg(&dir, 0);
        let mut slot = [0u8; 64];
        f.read_exact_at(&mut slot, slot_of(ALIGN)).unwrap();
        let live = decode_header(&slot).unwrap();
        for (page, block, pages) in [(0u64, BlockId(1), 2u64), (2, BlockId(7), 1)] {
            let mut bytes = vec![0u8; (pages * ALIGN) as usize];
            f.read_exact_at(&mut bytes, base + page * ALIGN).unwrap();
            let forged = encode_header(&Header {
                kind: KIND_PUT,
                block,
                seq: live.seq - 1,
                payload_len: bytes.len() as u32,
                payload_crc: crc32c(&bytes),
            });
            #[expect(clippy::disallowed_methods, reason = "forges a stale header")]
            f.write_all_at(&forged, slot_of(page * ALIGN)).unwrap();
        }
        for _ in 0..2 {
            let s = ExtentStore::open_at(&dir, false).unwrap();
            assert!(!s.contains(BlockId(1)), "a deleted block resurrected");
            assert!(!s.contains(BlockId(7)), "a stale header became a block");
            let (bytes, crc) = s.get_with_crc(BlockId(2)).expect("the live record is hidden");
            assert_eq!((bytes.as_slice(), crc), (a.as_slice(), ca));
            assert_eq!(s.block_count(), 1);
        }
        for page in [0, 2] {
            f.read_exact_at(&mut slot, slot_of(page * ALIGN)).unwrap();
            assert_eq!(slot, [0u8; 64], "recovery zeroes the stale slot of page {page}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_length_no_layout_has_is_corrupt() {
        for len in [1, ALIGN, 66 * ALIGN, SEG_SIZE, table_len(SEG_SIZE) + SEG_SIZE - 1] {
            let dir = scratch_dir("cut");
            {
                let s = ExtentStore::open_at(&dir, false).unwrap();
                let (d, c) = blk(5000, 3);
                s.put(BlockId(3), d, c).unwrap();
            }
            #[expect(clippy::disallowed_methods, reason = "truncates a segment")]
            open_seg(&dir, 0).set_len(len).unwrap();
            let reopened = ExtentStore::open_at(&dir, false);
            assert!(
                matches!(reopened, Err(Error::WalCorrupt { .. })),
                "a {len}-byte segment: {reopened:?}"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn oversized_record_survives_reopen() {
        let dir = scratch_dir("big");
        let (big, cb) = blk((SEG_SIZE + ALIGN) as usize + 1, 0xB1);
        let (small, cs) = blk(10, 0x51);
        {
            let s = ExtentStore::open_at(&dir, false).unwrap();
            s.put(BlockId(1), big.clone(), cb).unwrap();
            s.put(BlockId(2), small.clone(), cs).unwrap();
        }
        let s = ExtentStore::open_at(&dir, false).unwrap();
        assert_eq!(s.block_count(), 2);
        let (bytes, crc) = s.get_with_crc(BlockId(1)).unwrap();
        assert_eq!((bytes.as_slice(), crc), (big.as_slice(), cb));
        let (bytes, crc) = s.get_with_crc(BlockId(2)).unwrap();
        assert_eq!((bytes.as_slice(), crc), (small.as_slice(), cs));
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn on_disk_format_is_pinned() {
        // Length and CRC32C of each segment file after a fixed script: no
        // slot and no payload byte may move.
        let s = ExtentStore::new("pin").unwrap();
        for i in 0..6u64 {
            let (data, crc) = blk(1 + 3000 * i as usize, 1 + i as u8);
            s.put(BlockId(i), data, crc).unwrap();
        }
        let (data, crc) = blk(64 << 10, 0x77);
        s.put(BlockId(2), data, crc).unwrap();
        assert!(s.delete(BlockId(4)));
        let (data, crc) = blk(SEG_SIZE as usize + 1, 0x99);
        s.put(BlockId(9), data, crc).unwrap();
        let files: Vec<(usize, u32)> = (0..)
            .map_while(|seg| fs::read(s.root().join(ExtentStore::seg_name(seg))).ok())
            .map(|bytes| (bytes.len(), crc32c(&bytes)))
            .collect();
        // The default segment (2 080 pages: 32 of table, 2 048 of data) and
        // the oversized record's own (2 082 pages: 33 and 2 049).
        assert_eq!(files, vec![(8_519_680, 0x3126_25f5), (8_527_872, 0x6f2b_4967)]);
    }

    #[test]
    fn temp_root_is_removed_on_drop() {
        let s = ExtentStore::new("drop").unwrap();
        let root = s.root().to_path_buf();
        let (data, crc) = blk(10, 1);
        s.put(BlockId(0), data, crc).unwrap();
        assert!(root.exists());
        drop(s);
        assert!(!root.exists());
    }
}
