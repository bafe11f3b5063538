//! The DataNode-side multi-level block cache (DESIGN.md §12).
//!
//! Sits in front of a node's [`crate::blockstore::BlockStore`] and keeps
//! recently stored and served replicas in memory as shared [`Block`]s, so
//! a cache-hot read skips the backend entirely (for the extent backend: the
//! `pread` syscall and the copy out of the segment). Together with the
//! verified-once CRC seam in [`crate::ClusterIo`], a hit also skips
//! re-running CRC32C over the payload — the dominant cost of the read path
//! at testbed block sizes.
//!
//! # Admission
//!
//! Two paths fill the cache, both under its write lock and both only while
//! the store still records the block under the CRC they carry. A read that
//! passed its checksum admits through [`BlockCache::admit_if_stored`], and
//! may evict. A write stores through [`BlockCache::store_through`]: it
//! refreshes a resident copy in place or fills free cold room, and never
//! evicts or draws from the damping stream, so which blocks stay cached
//! under pressure is still decided by reads. A block stored and then read
//! back (an encode's sources, a repair's survivors) is a hit.
//!
//! # Levels
//!
//! * **Hot** — blocks that have proven reuse (hit in cold at least twice),
//!   bounded in bytes. A hit only sets the entry's reference bit, under the
//!   read lock; overflow runs second chance from the tail of the slot list:
//!   a referenced tail moves to the head with its bit cleared, an
//!   unreferenced one is demoted to the cold level.
//! * **Cold** — a clock (second-chance) ring holding first-time admissions,
//!   so a one-pass scan cannot flush the hot set. The first cold hit sets
//!   the entry's reference bit; the second promotes it to hot. Bounded in
//!   bytes; the clock hand clears reference bits and evicts unreferenced
//!   entries in ring order.
//!
//! # Locking
//!
//! One reader-writer lock per cache. A hot hit and a miss take it shared
//! and write nothing the other readers read: the reference bit is stored
//! only when clear, and the counters are per-thread stripes ([`Striped`]).
//! Cold hits, promotions, admissions, store-throughs, invalidations and
//! evictions take it exclusive. A store-through and an invalidation are
//! exclusive, so once one returns no hit on any thread can serve the
//! replaced or dropped bytes.
//!
//! # Determinism
//!
//! All replacement state advances only on cache operations — no wall
//! clock, no thread-local RNG. The only randomized decision (admission
//! damping under eviction pressure) draws from a per-cache xorshift stream
//! seeded at construction, so a fixed single-threaded access sequence
//! always produces the same cache contents, hits, and evictions. Under
//! concurrency the *contents* depend on thread interleaving, but coherence
//! (write-update in [`crate::DataNode`]) guarantees a hit serves
//! exactly the bytes the store holds — which is why chaos/heal soak
//! reports are bit-identical with the cache off or on.

use crate::sync::RwLock;
use ear_types::{Block, BlockId, CacheConfig, Striped};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// On admission that would force evictions, one in `ADMIT_DAMPING` new
/// blocks is bypassed instead of admitted — cheap scan resistance on top
/// of the clock ring, drawn from the seeded stream.
const ADMIT_DAMPING: u64 = 8;

/// Monotonic counters of one cache (or, summed, of a whole cluster's
/// caches). Deterministic for a fixed single-threaded access sequence;
/// under concurrency the totals depend on interleaving and are excluded
/// from determinism fingerprints, like the rest of
/// [`crate::IoStats`]'s wall-clock-adjacent fields.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits served from the hot level.
    pub hot_hits: u64,
    /// Hits served from the cold (clock) level (the block is promoted).
    pub cold_hits: u64,
    /// Lookups that found no cached data.
    pub misses: u64,
    /// Admissions refused (block larger than the cold level, or damped
    /// under eviction pressure).
    pub bypasses: u64,
    /// Data entries evicted from the cold level by the clock hand.
    pub evictions: u64,
    /// Entries dropped because the block was overwritten or deleted.
    pub invalidations: u64,
    /// Payload bytes served from cache instead of the store backend.
    pub bytes_saved: u64,
}

impl CacheStats {
    /// Total data hits across both levels.
    pub fn hits(&self) -> u64 {
        self.hot_hits + self.cold_hits
    }

    /// Hits over lookups, in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits() + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Accumulates another cache's counters into this one (cluster-wide
    /// aggregation).
    pub fn add(&mut self, o: &CacheStats) {
        self.hot_hits += o.hot_hits;
        self.cold_hits += o.cold_hits;
        self.misses += o.misses;
        self.bypasses += o.bypasses;
        self.evictions += o.evictions;
        self.invalidations += o.invalidations;
        self.bytes_saved += o.bytes_saved;
    }
}

/// One thread's stripe of a cache's [`CacheStats`].
#[derive(Debug, Default)]
struct Counters {
    hot_hits: AtomicU64,
    cold_hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    bytes_saved: AtomicU64,
}

/// Adds `n` to `counter`, relaxed.
fn count(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// No slot: the end of the hot level's slot list.
const NIL: usize = usize::MAX;

/// A hot-level entry: the payload, its write-time CRC32C, its reference
/// bit (set by a hit under the read lock), and its links in the slot list
/// (slot numbers; `prev` is the neighbour nearer the head).
#[derive(Debug)]
struct HotEntry {
    id: BlockId,
    data: Block,
    crc: u32,
    referenced: AtomicBool,
    prev: usize,
    next: usize,
}

impl HotEntry {
    /// Serves a hit, counted on the caller's stripe `c`. The reference bit
    /// is stored only when clear, so a hit on a referenced entry writes no
    /// line the other readers read (but the payload's reference count).
    /// Relaxed is enough: the bit publishes no data, and the victim search
    /// that reads it runs under the write lock, whose acquire follows the
    /// release of every read guard a hit ran under.
    fn hit(&self, c: &Counters) -> (Block, u32) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
        count(&c.hot_hits, 1);
        count(&c.bytes_saved, self.data.len() as u64);
        (self.data.clone(), self.crc)
    }
}

/// The hot level. Entries sit densely in `slots`; `index` maps an id to
/// its slot, and a doubly linked list threaded through the slots runs from
/// `head` (newest) to `tail`, where overflow looks for its victim.
#[derive(Debug)]
struct HotList {
    index: BTreeMap<BlockId, usize>,
    slots: Vec<HotEntry>,
    head: usize,
    tail: usize,
    bytes: u64,
}

impl Default for HotList {
    fn default() -> Self {
        HotList { index: BTreeMap::new(), slots: Vec::new(), head: NIL, tail: NIL, bytes: 0 }
    }
}

impl HotList {
    /// `id`'s entry, if it is here.
    fn get(&self, id: BlockId) -> Option<&HotEntry> {
        self.index.get(&id).and_then(|&slot| self.slots.get(slot))
    }

    /// Takes `slot` out of the list.
    fn unlink(&mut self, slot: usize) {
        let Some(&HotEntry { prev, next, .. }) = self.slots.get(slot) else {
            return;
        };
        match self.slots.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Puts `slot`, not in the list, at its head.
    fn link_front(&mut self, slot: usize) {
        let old = self.head;
        if let Some(e) = self.slots.get_mut(slot) {
            e.prev = NIL;
            e.next = old;
        }
        match self.slots.get_mut(old) {
            Some(h) => h.prev = slot,
            None => self.tail = slot,
        }
        self.head = slot;
    }

    /// Swaps `id`'s payload in place, its place in the list unchanged and
    /// the byte count moved by the change in length; false when `id` is not
    /// here.
    fn refresh(&mut self, id: BlockId, data: &Block, crc: u32) -> bool {
        let Some(e) = self.index.get(&id).and_then(|&slot| self.slots.get_mut(slot)) else {
            return false;
        };
        self.bytes = (self.bytes + data.len() as u64).saturating_sub(e.data.len() as u64);
        e.data = data.clone();
        e.crc = crc;
        true
    }

    /// Adds `id` (not already here) at the head, unreferenced.
    fn insert(&mut self, id: BlockId, data: Block, crc: u32) {
        let slot = self.slots.len();
        self.bytes += data.len() as u64;
        let referenced = AtomicBool::new(false);
        self.slots.push(HotEntry { id, data, crc, referenced, prev: NIL, next: NIL });
        self.index.insert(id, slot);
        self.link_front(slot);
    }

    /// Removes `id`, returning its payload and CRC.
    fn remove(&mut self, id: BlockId) -> Option<(Block, u32)> {
        let slot = self.index.remove(&id)?;
        self.unlink(slot);
        // The last slot moves into the hole: its neighbours and its index
        // entry follow it.
        let last = self.slots.len().checked_sub(1)?;
        if slot != last {
            let &HotEntry { id: moved, prev, next, .. } = self.slots.get(last)?;
            match self.slots.get_mut(prev) {
                Some(p) => p.next = slot,
                None => self.head = slot,
            }
            match self.slots.get_mut(next) {
                Some(n) => n.prev = slot,
                None => self.tail = slot,
            }
            self.index.insert(moved, slot);
        }
        let e = self.slots.swap_remove(slot);
        self.bytes = self.bytes.saturating_sub(e.data.len() as u64);
        Some((e.data, e.crc))
    }

    /// Second chance from the tail: each referenced tail moves to the head
    /// with its bit cleared, and the first unreferenced one is removed.
    fn pop_victim(&mut self) -> Option<(BlockId, Block, u32)> {
        loop {
            let tail = self.tail;
            let e = self.slots.get_mut(tail)?;
            if !std::mem::take(e.referenced.get_mut()) {
                let id = e.id;
                return self.remove(id).map(|(data, crc)| (id, data, crc));
            }
            self.unlink(tail);
            self.link_front(tail);
        }
    }
}

/// A cold-level entry: the payload, its CRC32C, and the clock reference
/// bit (set on hit, cleared by a passing hand).
#[derive(Debug)]
struct ColdEntry {
    data: Block,
    crc: u32,
    referenced: bool,
}

/// Everything behind the cache's lock: the hold times are map operations
/// on in-memory state, and the cache is per-DataNode so cluster-level
/// concurrency already shards across nodes.
#[derive(Debug)]
struct CacheState {
    hot_cap: u64,
    cold_cap: u64,
    hot: HotList,
    cold: BTreeMap<BlockId, ColdEntry>,
    /// Clock ring over cold ids. Entries removed from `cold` out of band
    /// (promotion, invalidation) leave stale ids here; the hand skips them.
    ring: VecDeque<BlockId>,
    cold_bytes: u64,
    /// Seeded xorshift state for admission damping.
    rng: u64,
}

/// A deterministic two-level (hot second chance + cold clock) block cache.
/// See the module docs for the design.
#[derive(Debug)]
pub struct BlockCache {
    state: RwLock<CacheState>,
    counters: Striped<Counters>,
}

impl BlockCache {
    /// Builds a cache per `cfg`; `None` when the configuration is
    /// [`CacheConfig::Off`]. `seed` fixes the admission-damping stream
    /// (per node: the cluster seed mixed with the node id).
    pub fn new(cfg: CacheConfig, seed: u64) -> Option<Self> {
        if cfg.is_off() {
            return None;
        }
        Some(BlockCache {
            state: RwLock::new(CacheState::new(cfg, seed)),
            counters: Striped::default(),
        })
    }

    /// Looks up a block's cached payload and write-time CRC32C. A hot hit
    /// sets the block's reference bit under the read lock; a cold hit takes
    /// the write lock, and the second one promotes the block to hot.
    pub fn get(&self, block: BlockId) -> Option<(Block, u32)> {
        let c = self.counters.mine();
        {
            let s = self.state.read();
            if let Some(e) = s.hot.get(block) {
                return Some(e.hit(c));
            }
            if !s.cold.contains_key(&block) {
                count(&c.misses, 1);
                return None;
            }
        }
        // Another thread may promote, demote or drop the block between the
        // two locks: the write-locked lookup starts over.
        self.state.write().get(block, c)
    }

    /// Admits a verified block read from the store. First-time admissions
    /// enter the cold level (clock); blocks larger than the cold capacity
    /// are bypassed, and under eviction pressure one in
    /// [`ADMIT_DAMPING`] admissions is bypassed from the seeded stream. A
    /// resident block's payload is swapped in place, and a longer one
    /// demotes and evicts as an insert would.
    pub fn admit(&self, block: BlockId, data: &Block, crc: u32) {
        self.state.write().admit(block, data, crc, self.counters.mine());
    }

    /// [`admit`](Self::admit) for a cache in front of a store: admits only
    /// if `stored()` — the store's CRC for the block, read under this
    /// cache's write lock — still equals `crc`. A writer changes the store
    /// before it [`store_through`](Self::store_through)s or
    /// [`invalidate`](Self::invalidate)s, so a reader's bytes fetched
    /// before a `put` or `delete` are either refused here or replaced or
    /// dropped by that writer, never left to serve.
    pub fn admit_if_stored(
        &self,
        block: BlockId,
        data: &Block,
        crc: u32,
        stored: impl FnOnce() -> Option<u32>,
    ) {
        let mut state = self.state.write();
        if stored() == Some(crc) {
            state.admit(block, data, crc, self.counters.mine());
        }
    }

    /// The write path's entry, called after the store recorded `data` under
    /// `crc`: if `stored()` — read under this cache's write lock — still
    /// equals `crc`, a resident copy is refreshed in place, or the block is
    /// admitted into the cold level's free room; otherwise (a racing
    /// overwrite or delete) any copy is dropped. A write never evicts and
    /// never draws from the damping stream: a block that does not fit is
    /// left out, and a resident copy that would outgrow its level is
    /// dropped. The bytes need no checksum pass: they are the immutable
    /// bytes whose CRC the store just recorded.
    pub fn store_through(
        &self,
        block: BlockId,
        data: &Block,
        crc: u32,
        stored: impl FnOnce() -> Option<u32>,
    ) {
        let mut state = self.state.write();
        let c = self.counters.mine();
        if stored() == Some(crc) {
            state.store_through(block, data, crc, c);
        } else {
            state.invalidate(block, c);
        }
    }

    /// Drops any cached copy of `block` — called on a failed overwrite
    /// and on delete so the cache can never serve bytes the store no longer
    /// holds.
    pub fn invalidate(&self, block: BlockId) {
        self.state.write().invalidate(block, self.counters.mine());
    }

    /// Snapshot of this cache's counters, summed over the stripes.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            hot_hits: c.total(|s| &s.hot_hits),
            cold_hits: c.total(|s| &s.cold_hits),
            misses: c.total(|s| &s.misses),
            bypasses: c.total(|s| &s.bypasses),
            evictions: c.total(|s| &s.evictions),
            invalidations: c.total(|s| &s.invalidations),
            bytes_saved: c.total(|s| &s.bytes_saved),
        }
    }

    /// Data bytes currently held across both levels (test/diagnostic hook).
    pub fn data_bytes(&self) -> u64 {
        let s = self.state.read();
        s.hot.bytes + s.cold_bytes
    }

    /// Block ids currently holding cached *data*, hot level first, each
    /// level in id order — a deterministic snapshot for eviction tests.
    pub fn resident_blocks(&self) -> Vec<BlockId> {
        let s = self.state.read();
        s.hot.index.keys().chain(s.cold.keys()).copied().collect()
    }
}

impl CacheState {
    fn new(cfg: CacheConfig, seed: u64) -> Self {
        CacheState {
            hot_cap: cfg.hot_bytes(),
            cold_cap: cfg.cold_bytes(),
            hot: HotList::default(),
            cold: BTreeMap::new(),
            ring: VecDeque::new(),
            cold_bytes: 0,
            // Mix the seed so per-node streams differ even for dense
            // node ids; force non-zero (xorshift's absorbing state).
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// [`BlockCache::get`] under the write lock.
    fn get(&mut self, block: BlockId, c: &Counters) -> Option<(Block, u32)> {
        if let Some(e) = self.hot.get(block) {
            return Some(e.hit(c));
        }
        let promote = match self.cold.get_mut(&block) {
            // First cold hit: set the clock reference bit, stay cold.
            Some(e) if !e.referenced => {
                e.referenced = true;
                count(&c.cold_hits, 1);
                count(&c.bytes_saved, e.data.len() as u64);
                return Some((e.data.clone(), e.crc));
            }
            // Second cold hit: proven reuse, promote to the hot level.
            Some(_) => true,
            None => false,
        };
        if promote {
            if let Some(e) = self.cold.remove(&block) {
                // The ring keeps a stale id the hand will skip.
                self.cold_bytes = self.cold_bytes.saturating_sub(e.data.len() as u64);
                let out = (e.data.clone(), e.crc);
                count(&c.cold_hits, 1);
                count(&c.bytes_saved, out.0.len() as u64);
                self.insert_hot(block, e.data, e.crc, c);
                return Some(out);
            }
        }
        count(&c.misses, 1);
        None
    }

    /// [`BlockCache::admit`].
    fn admit(&mut self, block: BlockId, data: &Block, crc: u32, c: &Counters) {
        let len = data.len() as u64;
        // Already cached (a concurrent reader admitted first, or a hot
        // entry exists): refresh the payload in place, no level change,
        // then fit both levels as an insert does, for a longer payload.
        if self.hot.refresh(block, data, crc) || self.refresh_cold(block, data, crc) {
            self.fit(c);
            return;
        }
        if len > self.cold_cap {
            count(&c.bypasses, 1);
            return;
        }
        if self.cold_bytes + len > self.cold_cap && self.next_rand().is_multiple_of(ADMIT_DAMPING)
        {
            count(&c.bypasses, 1);
            return;
        }
        self.insert_cold(block, data.clone(), crc);
        self.evict_cold(c);
    }

    /// [`BlockCache::store_through`], the store's CRC confirmed.
    fn store_through(&mut self, block: BlockId, data: &Block, crc: u32, c: &Counters) {
        let len = data.len() as u64;
        let (bytes, cap, old) = match (self.hot.get(block), self.cold.get(&block)) {
            (Some(e), _) => (self.hot.bytes, self.hot_cap, e.data.len() as u64),
            (None, Some(e)) => (self.cold_bytes, self.cold_cap, e.data.len() as u64),
            (None, None) => (self.cold_bytes, self.cold_cap, 0),
        };
        if bytes.saturating_sub(old) + len > cap {
            self.invalidate(block, c);
            return;
        }
        if !self.hot.refresh(block, data, crc) && !self.refresh_cold(block, data, crc) {
            self.insert_cold(block, data.clone(), crc);
        }
    }

    /// Swaps a cold `block`'s payload in place, the byte count moved by the
    /// change in length; false when `block` is not cold.
    fn refresh_cold(&mut self, block: BlockId, data: &Block, crc: u32) -> bool {
        let Some(e) = self.cold.get_mut(&block) else {
            return false;
        };
        self.cold_bytes = (self.cold_bytes + data.len() as u64).saturating_sub(e.data.len() as u64);
        e.data = data.clone();
        e.crc = crc;
        true
    }

    /// Adds `block` (not already cached) to the cold level, unreferenced,
    /// at the back of the clock ring.
    fn insert_cold(&mut self, block: BlockId, data: Block, crc: u32) {
        self.cold_bytes += data.len() as u64;
        self.cold.insert(block, ColdEntry { data, crc, referenced: false });
        self.ring.push_back(block);
    }

    /// [`BlockCache::invalidate`].
    fn invalidate(&mut self, block: BlockId, c: &Counters) {
        let mut hit = self.hot.remove(block).is_some();
        if let Some(e) = self.cold.remove(&block) {
            // The ring id goes stale; the hand skips it.
            self.cold_bytes = self.cold_bytes.saturating_sub(e.data.len() as u64);
            hit = true;
        }
        if hit {
            count(&c.invalidations, 1);
        }
    }

    /// Advances the seeded xorshift stream.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Inserts into the hot level, then fits both levels.
    fn insert_hot(&mut self, block: BlockId, data: Block, crc: u32, c: &Counters) {
        self.hot.insert(block, data, crc);
        self.fit(c);
    }

    /// Demotes second-chance victims to cold while the hot level is over
    /// capacity, then lets the clock evict until the cold level fits.
    fn fit(&mut self, c: &Counters) {
        while self.hot.bytes > self.hot_cap {
            let Some((victim, data, crc)) = self.hot.pop_victim() else {
                break;
            };
            // Demote to cold rather than dropping: recently-hot blocks get
            // one clock revolution of grace.
            self.insert_cold(victim, data, crc);
        }
        self.evict_cold(c);
    }

    /// Clock sweep: evicts unreferenced cold entries in ring order until
    /// the level fits, giving referenced entries a second chance.
    fn evict_cold(&mut self, c: &Counters) {
        while self.cold_bytes > self.cold_cap {
            let Some(candidate) = self.ring.pop_front() else {
                break;
            };
            match self.cold.get_mut(&candidate) {
                // Stale ring id (promoted or invalidated since): skip.
                None => continue,
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.ring.push_back(candidate);
                }
                Some(_) => {
                    if let Some(e) = self.cold.remove(&candidate) {
                        self.cold_bytes = self.cold_bytes.saturating_sub(e.data.len() as u64);
                        count(&c.evictions, 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(hot: u64, cold: u64) -> BlockCache {
        BlockCache::new(
            CacheConfig::Sized {
                hot_bytes: hot,
                cold_bytes: cold,
            },
            7,
        )
        .unwrap()
    }

    fn blk(n: u8, len: usize) -> Block {
        Block::from(vec![n; len])
    }

    /// The cache's policy written naively, as the reference the real cache
    /// must match step for step: each level is a vector searched linearly,
    /// the hot one in list order (head first), and its byte count is the
    /// sum of the lengths it holds.
    struct Model {
        hot_cap: u64,
        cold_cap: u64,
        /// `(id, data, crc, referenced)`, head first.
        hot: Vec<(BlockId, Block, u32, bool)>,
        /// `(id, data, crc, referenced)`, in no order.
        cold: Vec<(BlockId, Block, u32, bool)>,
        /// The clock ring, stale ids included.
        ring: VecDeque<BlockId>,
        rng: u64,
        stats: CacheStats,
        demotions: u64,
        damped: u64,
        /// Re-admissions that changed a resident block's length.
        resized: u64,
    }

    impl Model {
        fn new(cfg: CacheConfig, seed: u64) -> Self {
            Model {
                hot_cap: cfg.hot_bytes(),
                cold_cap: cfg.cold_bytes(),
                hot: Vec::new(),
                cold: Vec::new(),
                ring: VecDeque::new(),
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                stats: CacheStats::default(),
                demotions: 0,
                damped: 0,
                resized: 0,
            }
        }

        fn bytes(level: &[(BlockId, Block, u32, bool)]) -> u64 {
            level.iter().map(|e| e.1.len() as u64).sum()
        }

        fn get(&mut self, id: BlockId) -> Option<(Block, u32)> {
            if let Some(e) = self.hot.iter_mut().find(|e| e.0 == id) {
                e.3 = true;
                self.stats.hot_hits += 1;
                self.stats.bytes_saved += e.1.len() as u64;
                return Some((e.1.clone(), e.2));
            }
            let at = self.cold.iter().position(|e| e.0 == id);
            let Some(at) = at else {
                self.stats.misses += 1;
                return None;
            };
            self.stats.cold_hits += 1;
            self.stats.bytes_saved += self.cold[at].1.len() as u64;
            if !self.cold[at].3 {
                self.cold[at].3 = true;
                return Some((self.cold[at].1.clone(), self.cold[at].2));
            }
            let (_, data, crc, _) = self.cold.remove(at);
            self.hot.insert(0, (id, data.clone(), crc, false));
            self.fit();
            Some((data, crc))
        }

        fn fit(&mut self) {
            while Self::bytes(&self.hot) > self.hot_cap {
                let Some(tail) = self.hot.pop() else { break };
                if tail.3 {
                    self.hot.insert(0, (tail.0, tail.1, tail.2, false));
                    continue;
                }
                self.ring.push_back(tail.0);
                self.cold.push((tail.0, tail.1, tail.2, false));
                self.demotions += 1;
            }
            self.evict();
        }

        fn admit(&mut self, id: BlockId, data: &Block, crc: u32) {
            let hot = self.hot.iter_mut();
            if let Some(e) = hot.chain(self.cold.iter_mut()).find(|e| e.0 == id) {
                self.resized += u64::from(e.1.len() != data.len());
                (e.1, e.2) = (data.clone(), crc);
                self.fit();
                return;
            }
            let len = data.len() as u64;
            if len > self.cold_cap {
                self.stats.bypasses += 1;
                return;
            }
            let pressed = Self::bytes(&self.cold) + len > self.cold_cap;
            if pressed && self.next_rand().is_multiple_of(ADMIT_DAMPING) {
                self.stats.bypasses += 1;
                self.damped += 1;
                return;
            }
            self.cold.push((id, data.clone(), crc, false));
            self.ring.push_back(id);
            self.evict();
        }

        /// `confirmed`: the store still records `crc` for `id`.
        fn store_through(&mut self, id: BlockId, data: &Block, crc: u32, confirmed: bool) {
            let len = data.len() as u64;
            let hot = self.hot.iter().find(|e| e.0 == id);
            let (level, cap) = match hot {
                Some(_) => (&self.hot, self.hot_cap),
                None => (&self.cold, self.cold_cap),
            };
            let old = level.iter().find(|e| e.0 == id).map_or(0, |e| e.1.len() as u64);
            if !confirmed || Self::bytes(level) - old + len > cap {
                self.invalidate(id);
                return;
            }
            let hot = self.hot.iter_mut();
            if let Some(e) = hot.chain(self.cold.iter_mut()).find(|e| e.0 == id) {
                (e.1, e.2) = (data.clone(), crc);
                return;
            }
            self.cold.push((id, data.clone(), crc, false));
            self.ring.push_back(id);
        }

        fn invalidate(&mut self, id: BlockId) {
            let hot = self.hot.iter().position(|e| e.0 == id).map(|at| self.hot.remove(at));
            let cold = self.cold.iter().position(|e| e.0 == id).map(|at| self.cold.remove(at));
            if hot.is_some() || cold.is_some() {
                self.stats.invalidations += 1;
            }
        }

        fn evict(&mut self) {
            while Self::bytes(&self.cold) > self.cold_cap {
                let Some(id) = self.ring.pop_front() else { break };
                let Some(at) = self.cold.iter().position(|e| e.0 == id) else { continue };
                if std::mem::take(&mut self.cold[at].3) {
                    self.ring.push_back(id);
                } else {
                    self.cold.remove(at);
                    self.stats.evictions += 1;
                }
            }
        }

        fn next_rand(&mut self) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }

        fn resident_blocks(&self) -> Vec<BlockId> {
            let ids = |level: &[(BlockId, Block, u32, bool)]| {
                let mut ids: Vec<BlockId> = level.iter().map(|e| e.0).collect();
                ids.sort();
                ids
            };
            [ids(&self.hot), ids(&self.cold)].concat()
        }
    }

    #[test]
    fn second_chance_decides_as_the_reference_model_does() {
        // Random get/admit/store-through/invalidate sequences over a dozen
        // ids, blocks of 16-64 bytes and caps of a few blocks. After every
        // step the cache and the model have returned the same thing and
        // hold the same state, bytes included, within both caps, and a
        // store-through has evicted and bypassed nothing; over the cases,
        // hot overflow with demotion, clock eviction, damping, re-admissions
        // at a new length and store-throughs both admitted and left out all
        // occur.
        let mut seen = CacheStats::default();
        let (mut demotions, mut damped, mut resized) = (0, 0, 0);
        let (mut stored, mut left_out) = (0, 0);
        ear_types::prop::check("second_chance_decides_as_the_reference_model_does", 256, |rng| {
            let cfg = CacheConfig::Sized {
                hot_bytes: ear_types::prop::range(rng, 16..=256),
                cold_bytes: ear_types::prop::range(rng, 16..=256),
            };
            let seed = rng.next_u64();
            let cache = BlockCache::new(cfg, seed).unwrap();
            let mut model = Model::new(cfg, seed);
            for step in 0..200 {
                let id = BlockId(rng.below(12));
                match rng.below(24) {
                    0..=9 => {
                        let got = |c: Option<(Block, u32)>| c.map(|(b, crc)| (b.to_vec(), crc));
                        let (a, b) = (got(cache.get(id)), got(model.get(id)));
                        assert_eq!(a, b, "get {id:?}, step {step}");
                    }
                    10..=16 => {
                        let len = 16 * (1 + rng.below(4) as usize);
                        let data = blk(id.0 as u8, len);
                        let crc = rng.next_u32();
                        cache.admit(id, &data, crc);
                        model.admit(id, &data, crc);
                    }
                    17..=20 => {
                        let len = 16 * (1 + rng.below(4) as usize);
                        let data = blk(id.0 as u8, len);
                        let crc = rng.next_u32();
                        let confirmed = rng.below(4) != 0;
                        let before = cache.stats();
                        let stored_crc = if confirmed { crc } else { !crc };
                        cache.store_through(id, &data, crc, || Some(stored_crc));
                        model.store_through(id, &data, crc, confirmed);
                        let after = cache.stats();
                        assert_eq!(after.evictions, before.evictions, "step {step}");
                        assert_eq!(after.bypasses, before.bypasses, "step {step}");
                        let (a, b) = (cache.get(id), model.get(id));
                        assert_eq!(a.as_ref().map(|e| e.1), b.map(|e| e.1), "step {step}");
                        match a {
                            Some((_, c)) if c == crc => stored += 1,
                            _ => left_out += 1,
                        }
                    }
                    _ => {
                        cache.invalidate(id);
                        model.invalidate(id);
                    }
                }
                assert_eq!(cache.stats(), model.stats, "step {step}");
                assert_eq!(cache.resident_blocks(), model.resident_blocks(), "step {step}");
                let (hot, cold) = (Model::bytes(&model.hot), Model::bytes(&model.cold));
                assert_eq!(cache.data_bytes(), hot + cold, "step {step}");
                let caps = (cfg.hot_bytes(), cfg.cold_bytes());
                assert!(hot <= caps.0 && cold <= caps.1, "step {step}: over capacity");
            }
            seen.add(&model.stats);
            demotions += model.demotions;
            damped += model.damped;
            resized += model.resized;
        });
        assert!(demotions > 0, "hot overflow demotes");
        assert!(resized > 0, "a re-admission changes a length");
        assert!(seen.evictions > 0, "the clock evicts");
        assert!(damped > 0, "admission is damped");
        assert!(stored > 0 && left_out > 0, "store-throughs are admitted and left out");
        assert!(seen.hot_hits > 0 && seen.invalidations > 0);
    }

    #[test]
    fn off_builds_no_cache() {
        assert!(BlockCache::new(CacheConfig::Off, 1).is_none());
    }

    #[test]
    fn miss_admit_hit_roundtrip() {
        let c = cache(1024, 1024);
        assert!(c.get(BlockId(1)).is_none());
        c.admit(BlockId(1), &blk(9, 100), 0xABCD);
        let (data, crc) = c.get(BlockId(1)).unwrap();
        assert_eq!(data.as_slice(), &[9u8; 100]);
        assert_eq!(crc, 0xABCD);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.cold_hits, 1, "first admission lands in cold");
        assert_eq!(s.bytes_saved, 100);
        // Second cold hit promotes; the third hit is served from hot.
        assert!(c.get(BlockId(1)).is_some());
        assert_eq!(c.stats().cold_hits, 2);
        assert!(c.get(BlockId(1)).is_some());
        assert_eq!(c.stats().hot_hits, 1);
    }

    #[test]
    fn cached_blocks_share_the_admitted_allocation() {
        let c = cache(4096, 4096);
        let data = blk(3, 256);
        c.admit(BlockId(5), &data, 1);
        let (back, _) = c.get(BlockId(5)).unwrap();
        assert!(back.shares_buffer(&data), "hits are zero-copy");
    }

    #[test]
    fn invalidate_drops_data_and_meta() {
        let c = cache(1024, 1024);
        c.admit(BlockId(2), &blk(1, 64), 7);
        c.invalidate(BlockId(2));
        assert!(c.get(BlockId(2)).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.data_bytes(), 0);
    }

    #[test]
    fn a_write_into_a_full_cache_evicts_nothing() {
        // Cold fits two 64-byte entries, both stored through. A third write
        // finds no free room: nothing is evicted, bypassed or drawn, and
        // the counters do not move.
        let c = cache(1024, 128);
        let stored = || Some(0);
        c.store_through(BlockId(1), &blk(1, 64), 0, stored);
        c.store_through(BlockId(2), &blk(2, 64), 0, stored);
        let before = c.stats();
        assert_eq!(before, CacheStats::default());
        c.store_through(BlockId(3), &blk(3, 64), 0, stored);
        assert_eq!(c.stats(), before);
        assert_eq!(c.resident_blocks(), vec![BlockId(1), BlockId(2)]);
        // A refresh in place fits; a resident copy that would outgrow its
        // level is dropped rather than evicting its neighbour.
        let v2 = blk(7, 64);
        c.store_through(BlockId(2), &v2, 0, stored);
        assert!(c.get(BlockId(2)).unwrap().0.shares_buffer(&v2));
        c.store_through(BlockId(1), &blk(1, 96), 0, stored);
        assert_eq!(c.resident_blocks(), vec![BlockId(2)]);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn a_store_through_the_store_no_longer_records_drops_the_copy() {
        // A racing overwrite recorded another CRC after this write: its
        // bytes must not be cached, nor the copy it would have replaced.
        let c = cache(1024, 1024);
        c.admit(BlockId(1), &blk(1, 64), 11);
        c.store_through(BlockId(1), &blk(2, 64), 22, || Some(33));
        assert!(c.get(BlockId(1)).is_none());
        c.store_through(BlockId(2), &blk(2, 64), 22, || None);
        assert!(c.get(BlockId(2)).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.data_bytes(), 0);
    }

    #[test]
    fn oversized_blocks_bypass() {
        let c = cache(64, 128);
        c.admit(BlockId(1), &blk(0, 256), 0);
        assert!(c.get(BlockId(1)).is_none());
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn cold_clock_evicts_in_ring_order_and_retains_meta() {
        // Cold fits exactly two 64-byte entries; admitting a third evicts
        // the oldest unreferenced one (pure FIFO when nothing is
        // re-referenced).
        let c = cache(1024, 128);
        c.admit(BlockId(1), &blk(1, 64), 11);
        c.admit(BlockId(2), &blk(2, 64), 22);
        c.admit(BlockId(3), &blk(3, 64), 33);
        assert_eq!(c.resident_blocks(), vec![BlockId(2), BlockId(3)]);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(BlockId(1)).is_none());
    }

    #[test]
    fn second_chance_spares_referenced_entries() {
        // Cold fits two 64-byte entries. Touch 1 once (sets its reference
        // bit, stays cold); admitting 3 then needs an eviction: the hand
        // reaches 1 first, clears its bit and spares it, and evicts the
        // untouched 2 instead.
        let c = cache(1024, 128);
        c.admit(BlockId(1), &blk(1, 64), 0);
        c.admit(BlockId(2), &blk(2, 64), 0);
        assert!(c.get(BlockId(1)).is_some());
        c.admit(BlockId(3), &blk(3, 64), 0);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.resident_blocks(), vec![BlockId(1), BlockId(3)]);
    }

    #[test]
    fn hot_overflow_demotes_lru_first() {
        // Hot fits two 64-byte entries. Promote three blocks; the least
        // recently used one is demoted back to cold.
        let c = cache(128, 1024);
        for id in 1..=3u64 {
            c.admit(BlockId(id), &blk(id as u8, 64), 0);
            assert!(c.get(BlockId(id)).is_some()); // sets the reference bit
            assert!(c.get(BlockId(id)).is_some()); // second hit promotes
        }
        // 1 was promoted first and never touched again → demoted.
        let resident = c.resident_blocks();
        assert_eq!(resident, vec![BlockId(2), BlockId(3), BlockId(1)]);
        // Touch 2 (hot hit), then promote a fourth: 3 is now the LRU.
        assert!(c.get(BlockId(2)).is_some());
        c.admit(BlockId(4), &blk(4, 64), 0);
        assert!(c.get(BlockId(4)).is_some());
        assert!(c.get(BlockId(4)).is_some());
        assert_eq!(
            c.resident_blocks(),
            vec![BlockId(2), BlockId(4), BlockId(1), BlockId(3)]
        );
    }

    #[test]
    fn eviction_order_is_deterministic_across_runs() {
        // The determinism contract: two caches with the same seed replaying
        // the same access sequence end in identical states — same resident
        // set, same counters — even under admission pressure where the
        // seeded damping stream participates.
        let run = || {
            let c = cache(256, 256);
            for round in 0..50u64 {
                for id in 0..12u64 {
                    let block = BlockId((round * 7 + id * 3) % 20);
                    if c.get(block).is_none() {
                        c.admit(block, &blk(block.0 as u8, 48), block.0 as u32);
                    }
                }
            }
            (c.resident_blocks(), c.stats())
        };
        let (blocks_a, stats_a) = run();
        let (blocks_b, stats_b) = run();
        assert_eq!(blocks_a, blocks_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.evictions > 0, "the workload must exercise eviction");
        assert!(stats_a.hits() > 0);
    }

    #[test]
    fn different_seeds_may_diverge_only_in_damping() {
        // Seeds change only the damping stream; with no pressure the
        // behavior is seed-independent.
        let mk = |seed| {
            BlockCache::new(
                CacheConfig::Sized {
                    hot_bytes: 4096,
                    cold_bytes: 4096,
                },
                seed,
            )
            .unwrap()
        };
        let a = mk(1);
        let b = mk(999);
        for id in 0..8u64 {
            a.admit(BlockId(id), &blk(id as u8, 64), 0);
            b.admit(BlockId(id), &blk(id as u8, 64), 0);
        }
        assert_eq!(a.resident_blocks(), b.resident_blocks());
        assert_eq!(a.stats(), b.stats());
    }
}
