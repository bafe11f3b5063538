//! [`ExtentStore`] — the durable block engine (DESIGN.md §9, §13).
//!
//! Instead of one file per block (what HDFS does), blocks are packed
//! into a handful of large, 4 KiB-aligned segment files through a free-list
//! allocator — the layout real SSD-era stores use, and the layout whose
//! crash behaviour the kill-point simulator exercises.
//!
//! On-disk format. A segment is `ext-<i>.seg`, a fixed-size file carved
//! into extents. An extent starts with a 64-byte header:
//!
//! ```text
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
//!  64     …  payload
//! ```
//!
//! Commit protocol (**header-last**): payload bytes are written first, the
//! header after, then one fsync — and only then is the write acknowledged.
//! A crash mid-write leaves either no valid header (invisible) or a valid
//! header over a payload that fails its CRC (discarded on recovery): a torn
//! write can never surface as data. Overwrites allocate a fresh extent and
//! win by sequence number; deletes commit a durable tombstone before any
//! header is zeroed, so a crash can lose the *operation* but never
//! resurrect deleted data once acknowledged. Recovery walks every segment,
//! keeps the highest-sequence valid record per block, re-zeroes losers, and
//! rebuilds the free list as the complement of the winners.
//!
//! (The CRC is 32 bits: a torn header that accidentally verifies has
//! probability 2⁻³², which the crash-matrix in EXPERIMENTS.md accepts.)

use crate::blockstore::BlockStore;
use crate::durable::{Dir, File, Synced, Unsynced};
use crate::sync::{Mutex, RwLock};
use ear_types::crc::crc32c;
use ear_types::{Block, BlockId, Error, Result, StoreBackend};
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Extent alignment: every extent starts and ends on a 4 KiB boundary.
pub const ALIGN: u64 = 4096;
/// Default segment size; records too large for one segment get a dedicated
/// segment of their own (rounded up to [`ALIGN`]).
pub const SEG_SIZE: u64 = 8 << 20;
/// Bytes of header at the start of every extent.
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

fn extent_len(payload_len: u32) -> u64 {
    align_up(HEADER_LEN + payload_len as u64)
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Error {
    let context = context.into();
    move |e| Error::Io {
        context: format!("{context}: {e}"),
    }
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
// Journal (crash-simulator hook)
// ---------------------------------------------------------------------------

/// One logical event of the store's write stream, captured when the store
/// is journaled ([`ExtentStore::journaled`]). The crash simulator
/// materializes a prefix of these events into a fresh directory — cutting
/// and tearing past the last `Barrier` — and reopens the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteEvent {
    /// A segment file came into existence at `size` bytes.
    Create {
        /// Segment index (file `ext-<seg>.seg`).
        seg: usize,
        /// File size in bytes.
        size: u64,
    },
    /// Bytes were written at an offset of a segment.
    Write {
        /// Segment index.
        seg: usize,
        /// Byte offset within the segment.
        off: u64,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// An fsync point. The first barrier of an operation's event span is
    /// its acknowledgment: everything written before a barrier is durable.
    Barrier,
}

// ---------------------------------------------------------------------------
// Allocator
// ---------------------------------------------------------------------------

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

#[derive(Debug)]
struct Segment {
    /// Shared so a commit writes and syncs without holding `segments`.
    file: Arc<File>,
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
    journal: Option<Mutex<Vec<WriteEvent>>>,
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
        Self::build(root, false, false, false)
    }

    /// Like [`ExtentStore::new`], but recording every write to the journal
    /// for the crash simulator ([`WriteEvent`]).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the root cannot be created.
    pub fn journaled(label: &str) -> Result<Self> {
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "ear-extent-j-{}-{}-{}",
            std::process::id(),
            seq,
            label
        ));
        Self::build(root, false, false, true)
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
        let store = Self::build(root.to_path_buf(), sync, true, false)?;
        store.recover()?;
        Ok(store)
    }

    fn build(root: PathBuf, sync: bool, persistent: bool, journaled: bool) -> Result<Self> {
        Ok(ExtentStore {
            dir: Dir::create_all(&root, sync)?,
            persistent,
            segments: RwLock::new(Vec::new()),
            alloc: Mutex::new(Allocator::default()),
            index: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            seq: AtomicU64::new(1),
            journal: journaled.then(|| Mutex::new(Vec::new())),
        })
    }

    /// The directory this store writes under.
    pub fn root(&self) -> &Path {
        self.dir.path()
    }

    /// Drains the captured write stream (journaled stores only).
    pub fn take_journal(&self) -> Vec<WriteEvent> {
        match &self.journal {
            Some(j) => std::mem::take(&mut *j.lock()),
            None => Vec::new(),
        }
    }

    fn seg_name(seg: usize) -> String {
        format!("ext-{seg}.seg")
    }

    fn record(&self, ev: WriteEvent) {
        if let Some(j) = &self.journal {
            j.lock().push(ev);
        }
    }

    /// Journals a write of `data` at `off` of segment `seg`. Only a
    /// journaled store copies the bytes.
    fn record_write(&self, seg: usize, off: u64, data: &[u8]) {
        if self.journal.is_some() {
            let data = data.to_vec();
            self.record(WriteEvent::Write { seg, off, data });
        }
    }

    /// Appends a fresh segment of `size` bytes and returns its index.
    fn create_segment(&self, size: u64) -> Result<usize> {
        let mut segments = self.segments.write();
        let seg = segments.len();
        let options = &mut OpenOptions::new();
        let file = Arc::new(self.dir.create(&Self::seg_name(seg), options.read(true).write(true))?);
        file.resize(size)?.sync()?;
        segments.push(Segment { file, size });
        drop(segments);
        self.record(WriteEvent::Create { seg, size });
        Ok(seg)
    }

    /// The file of segment `seg`.
    fn segment(&self, seg: usize) -> Result<Arc<File>> {
        let segments = self.segments.read();
        let s = segments
            .get(seg)
            .ok_or_else(|| Error::Invariant(format!("extent segment {seg} out of range")))?;
        Ok(Arc::clone(&s.file))
    }

    /// Reads `len` bytes at `off` of segment `seg` into an exactly sized
    /// buffer, without holding `segments` across the `pread`.
    fn read_seg(&self, seg: usize, off: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.segment(seg)?
            .read_exact_at(&mut buf, off)
            .map_err(io_err(format!("read segment {seg} at {off}")))?;
        Ok(buf)
    }

    /// An fsync point: flushes the segment (when the store is synchronous)
    /// and marks the barrier in the journal. The first barrier of an
    /// operation is its acknowledgment.
    fn barrier(&self, written: Unsynced<'_>) -> Result<Synced> {
        let synced = written.sync()?;
        self.record(WriteEvent::Barrier);
        Ok(synced)
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

    /// Writes and commits one record (payload first, header last, fsync),
    /// returning its extent. This is the durability point of every
    /// mutation.
    fn commit_record(&self, header: &Header, payload: &[u8]) -> Result<(ExtentRef, Synced)> {
        let ext = self.allocate(extent_len(header.payload_len))?;
        let file = self.segment(ext.seg)?;
        let written = file.write_payload(ext.off + HEADER_LEN, payload)?;
        if !payload.is_empty() {
            self.record_write(ext.seg, ext.off + HEADER_LEN, payload);
        }
        let header = encode_header(header);
        let committed = file.write_header(ext.off, &header, written)?;
        self.record_write(ext.seg, ext.off, &header);
        Ok((ext, self.barrier(committed)?))
    }

    /// Zeroes a record's header so recovery no longer sees it, then returns
    /// the extent to the allocator. Post-acknowledgment maintenance: a
    /// crash before the zero reaches disk just leaves a stale record that
    /// loses by sequence number.
    fn retire(&self, ext: ExtentRef) -> Result<Synced> {
        let file = self.segment(ext.seg)?;
        let zeroed = file.write_at(ext.off, &[0u8; 64])?;
        self.record_write(ext.seg, ext.off, &[0u8; 64]);
        let synced = self.barrier(zeroed)?;
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

    /// Walks every segment, keeps the highest-sequence valid record per
    /// block, zeroes everything else, and rebuilds allocator + index.
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

        struct Candidate {
            header: Header,
            ext: ExtentRef,
        }
        let mut winners: BTreeMap<BlockId, Candidate> = BTreeMap::new();
        let mut discard: Vec<ExtentRef> = Vec::new();
        let mut max_seq = 0u64;

        {
            let mut segments = self.segments.write();
            for &seg in &names {
                let name = Self::seg_name(seg);
                let file = self.dir.open(&name, OpenOptions::new().read(true).write(true))?;
                let size = file.metadata().map_err(io_err(format!("stat {name}")))?.len();
                segments.push(Segment { file: Arc::new(file), size });
            }
        }

        let segments = self.segments.read();
        for (seg, s) in segments.iter().enumerate() {
            let mut off = 0u64;
            while off + HEADER_LEN <= s.size {
                let mut hdr = [0u8; 64];
                s.file
                    .read_exact_at(&mut hdr, off)
                    .map_err(io_err(format!("read header in segment {seg}")))?;
                let Some(header) = decode_header(&hdr) else {
                    off += ALIGN;
                    continue;
                };
                let len = extent_len(header.payload_len);
                if off + len > s.size {
                    // Length runs past the segment: torn header that
                    // happened to verify is astronomically unlikely, but a
                    // record from a mis-sized segment is not — skip it.
                    off += ALIGN;
                    continue;
                }
                let ext = ExtentRef { seg, off, len };
                max_seq = max_seq.max(header.seq);
                let mut valid = true;
                if header.kind == KIND_PUT && header.payload_len > 0 {
                    let mut payload = vec![0u8; header.payload_len as usize];
                    s.file
                        .read_exact_at(&mut payload, off + HEADER_LEN)
                        .map_err(io_err(format!("read payload in segment {seg}")))?;
                    valid = crc32c(&payload) == header.payload_crc;
                }
                if !valid {
                    // Header committed but payload torn: the write was
                    // never acknowledged — discard it.
                    discard.push(ext);
                } else {
                    match winners.get(&header.block) {
                        Some(cur) if cur.header.seq >= header.seq => discard.push(ext),
                        _ => {
                            if let Some(prev) = winners.insert(header.block, Candidate { header, ext })
                            {
                                discard.push(prev.ext);
                            }
                        }
                    }
                }
                off += len;
            }
        }
        drop(segments);

        // Tombstone winners delete their block; they are retired like the
        // losers.
        let mut live: Vec<(BlockId, Candidate)> = Vec::new();
        for (block, cand) in winners {
            if cand.header.kind == KIND_TOMB {
                discard.push(cand.ext);
            } else {
                live.push((block, cand));
            }
        }

        for ext in &discard {
            self.segment(ext.seg)?.write_at(ext.off, &[0u8; 64])?.sync()?;
        }

        // Free list = complement of the live extents, per segment. The
        // segment sizes are read first: the store's locks are leaves.
        let mut used: Vec<ExtentRef> = live.iter().map(|(_, c)| c.ext).collect();
        used.sort_unstable_by_key(|e| (e.seg, e.off));
        let sizes: Vec<u64> = self.segments.read().iter().map(|s| s.size).collect();
        let mut alloc = self.alloc.lock();
        let mut it = used.iter().peekable();
        for (seg, &size) in sizes.iter().enumerate() {
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
            if off < size {
                alloc.release(ExtentRef {
                    seg,
                    off,
                    len: size - off,
                });
            }
        }
        drop(alloc);

        for (block, cand) in live {
            self.stripe_for(block).lock().insert(
                block,
                IndexEntry {
                    ext: cand.ext,
                    payload_len: cand.header.payload_len,
                    crc: cand.header.payload_crc,
                },
            );
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
        let payload = self
            .read_seg(entry.ext.seg, entry.ext.off + HEADER_LEN, entry.payload_len as usize)
            .ok()?;
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
        assert_eq!(extent_len(0), ALIGN);
        assert_eq!(extent_len((ALIGN - HEADER_LEN) as u32), ALIGN);
        assert_eq!(extent_len((ALIGN - HEADER_LEN) as u32 + 1), 2 * ALIGN);
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
        let s = ExtentStore::journaled("j").unwrap();
        let (data, crc) = blk(100, 3);
        s.put(BlockId(0), data, crc).unwrap();
        let ev = s.take_journal();
        // Create, payload write, header write, barrier.
        assert!(matches!(ev[0], WriteEvent::Create { seg: 0, .. }));
        assert!(
            matches!(&ev[1], WriteEvent::Write { off, data, .. } if *off == HEADER_LEN && data.len() == 100)
        );
        assert!(matches!(&ev[2], WriteEvent::Write { off: 0, data, .. } if data.len() == 64));
        assert!(matches!(ev[3], WriteEvent::Barrier));
        assert_eq!(ev.len(), 4);
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
