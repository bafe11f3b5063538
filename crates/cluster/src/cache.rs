//! The DataNode-side multi-level block cache (DESIGN.md §12).
//!
//! Sits in front of a node's [`crate::blockstore::BlockStore`] and keeps
//! recently served replicas in memory as shared [`Block`]s, so a cache-hot
//! read skips the backend entirely (for the extent backend: the `pread`
//! syscall and the copy out of the segment). Together with the verified-once CRC
//! seam in [`crate::ClusterIo`], a hit also skips re-running CRC32C over
//! the payload — the dominant cost of the read path at testbed block sizes.
//!
//! # Levels
//!
//! * **Hot** — an exact LRU over blocks that have proven reuse (hit in
//!   cold at least twice). Bounded in bytes; overflow demotes the
//!   least-recently-used entry to the cold level.
//! * **Cold** — a clock (second-chance) ring holding first-time admissions,
//!   so a one-pass scan cannot flush the hot set. The first cold hit sets
//!   the entry's reference bit; the second promotes it to hot. Bounded in
//!   bytes; the clock hand clears reference bits and evicts unreferenced
//!   entries in ring order.
//!
//! # Determinism
//!
//! All replacement state advances only on cache operations — no wall
//! clock, no thread-local RNG. The only randomized decision (admission
//! damping under eviction pressure) draws from a per-cache xorshift stream
//! seeded at construction, so a fixed single-threaded access sequence
//! always produces the same cache contents, hits, and evictions. Under
//! concurrency the *contents* depend on thread interleaving, but coherence
//! (write-invalidate in [`crate::DataNode`]) guarantees a hit serves
//! exactly the bytes the store holds — which is why chaos/heal soak
//! reports are bit-identical with the cache off or on.

use crate::sync::Mutex;
use ear_types::{Block, BlockId, CacheConfig};
use std::collections::{BTreeMap, VecDeque};

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
    /// Hits served from the hot (LRU) level.
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

/// No slot: the end of the hot level's recency list.
const NIL: usize = usize::MAX;

/// A hot-level entry: the payload, its write-time CRC32C, and its links in
/// the recency list (slot numbers; `prev` is the more recent neighbour).
#[derive(Debug)]
struct HotEntry {
    id: BlockId,
    data: Block,
    crc: u32,
    prev: usize,
    next: usize,
}

/// The hot level, an exact LRU. Entries sit densely in `slots`; `index`
/// maps an id to its slot, and a doubly linked recency list threaded
/// through the slots runs from `head` (most recent) to `tail` (least). A
/// hit relinks its slot at the head, O(1) past the index lookup; overflow
/// demotes the tail.
#[derive(Debug)]
struct HotLru {
    index: BTreeMap<BlockId, usize>,
    slots: Vec<HotEntry>,
    head: usize,
    tail: usize,
    bytes: u64,
}

/// The hot level as the rest of the cache uses it. One implementation
/// serves; the tests keep the stamp-ordered level it replaced and check
/// the two against each other.
trait HotLevel: Default {
    /// The payload and CRC of `id`, made most recent.
    fn touch(&mut self, id: BlockId) -> Option<(Block, u32)>;
    /// Swaps `id`'s payload in place, recency and byte count unchanged;
    /// false when `id` is not here.
    fn refresh(&mut self, id: BlockId, data: &Block, crc: u32) -> bool;
    /// Adds `id` (not already here) as most recent.
    fn insert(&mut self, id: BlockId, data: Block, crc: u32);
    /// Removes `id`, returning its payload and CRC.
    fn remove(&mut self, id: BlockId) -> Option<(Block, u32)>;
    /// Removes the least recent entry.
    fn pop_lru(&mut self) -> Option<(BlockId, Block, u32)>;
    /// Data bytes held.
    fn bytes(&self) -> u64;
    /// Resident ids in id order.
    fn ids(&self) -> Vec<BlockId>;
}

impl Default for HotLru {
    fn default() -> Self {
        HotLru { index: BTreeMap::new(), slots: Vec::new(), head: NIL, tail: NIL, bytes: 0 }
    }
}

impl HotLru {
    /// Takes `slot` out of the recency list.
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
}

impl HotLevel for HotLru {
    fn touch(&mut self, id: BlockId) -> Option<(Block, u32)> {
        let slot = *self.index.get(&id)?;
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
        self.slots.get(slot).map(|e| (e.data.clone(), e.crc))
    }

    fn refresh(&mut self, id: BlockId, data: &Block, crc: u32) -> bool {
        let Some(e) = self.index.get(&id).and_then(|&slot| self.slots.get_mut(slot)) else {
            return false;
        };
        e.data = data.clone();
        e.crc = crc;
        true
    }

    fn insert(&mut self, id: BlockId, data: Block, crc: u32) {
        let slot = self.slots.len();
        self.bytes += data.len() as u64;
        self.slots.push(HotEntry { id, data, crc, prev: NIL, next: NIL });
        self.index.insert(id, slot);
        self.link_front(slot);
    }

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

    fn pop_lru(&mut self) -> Option<(BlockId, Block, u32)> {
        let id = self.slots.get(self.tail)?.id;
        self.remove(id).map(|(data, crc)| (id, data, crc))
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn ids(&self) -> Vec<BlockId> {
        self.index.keys().copied().collect()
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

/// Everything behind the cache's single mutex. One lock per node-cache:
/// the hold times are map operations on in-memory state, and the cache is
/// per-DataNode so cluster-level concurrency already shards across nodes.
#[derive(Debug)]
struct CacheState<H = HotLru> {
    hot_cap: u64,
    cold_cap: u64,
    hot: H,
    cold: BTreeMap<BlockId, ColdEntry>,
    /// Clock ring over cold ids. Entries removed from `cold` out of band
    /// (promotion, invalidation) leave stale ids here; the hand skips them.
    ring: VecDeque<BlockId>,
    cold_bytes: u64,
    /// Seeded xorshift state for admission damping.
    rng: u64,
    stats: CacheStats,
}

/// A deterministic two-level (hot LRU + cold clock) block cache. See the
/// module docs for the design.
#[derive(Debug)]
pub struct BlockCache {
    state: Mutex<CacheState>,
}

impl BlockCache {
    /// Builds a cache per `cfg`; `None` when the configuration is
    /// [`CacheConfig::Off`]. `seed` fixes the admission-damping stream
    /// (per node: the cluster seed mixed with the node id).
    pub fn new(cfg: CacheConfig, seed: u64) -> Option<Self> {
        if cfg.is_off() {
            return None;
        }
        Some(BlockCache { state: Mutex::new(CacheState::new(cfg, seed)) })
    }

    /// Looks up a block's cached payload and write-time CRC32C. A hot hit
    /// refreshes recency; a cold hit promotes the block to the hot level.
    pub fn get(&self, block: BlockId) -> Option<(Block, u32)> {
        self.state.lock().get(block)
    }

    /// Admits a verified block read from the store. First-time admissions
    /// enter the cold level (clock); blocks larger than the cold capacity
    /// are bypassed, and under eviction pressure one in
    /// [`ADMIT_DAMPING`] admissions is bypassed from the seeded stream.
    pub fn admit(&self, block: BlockId, data: &Block, crc: u32) {
        self.state.lock().admit(block, data, crc);
    }

    /// Drops any cached copy of `block` — called on overwrite
    /// and delete so the cache can never serve bytes the store no longer
    /// holds.
    pub fn invalidate(&self, block: BlockId) {
        self.state.lock().invalidate(block);
    }

    /// Snapshot of this cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Data bytes currently held across both levels (test/diagnostic hook).
    pub fn data_bytes(&self) -> u64 {
        let s = self.state.lock();
        s.hot.bytes() + s.cold_bytes
    }

    /// Block ids currently holding cached *data*, hot level first, each
    /// level in id order — a deterministic snapshot for eviction tests.
    pub fn resident_blocks(&self) -> Vec<BlockId> {
        self.state.lock().resident_blocks()
    }
}

impl<H: HotLevel> CacheState<H> {
    fn new(cfg: CacheConfig, seed: u64) -> Self {
        CacheState {
            hot_cap: cfg.hot_bytes(),
            cold_cap: cfg.cold_bytes(),
            hot: H::default(),
            cold: BTreeMap::new(),
            ring: VecDeque::new(),
            cold_bytes: 0,
            // Mix the seed so per-node streams differ even for dense
            // node ids; force non-zero (xorshift's absorbing state).
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            stats: CacheStats::default(),
        }
    }

    /// [`BlockCache::get`].
    fn get(&mut self, block: BlockId) -> Option<(Block, u32)> {
        if let Some(out) = self.hot.touch(block) {
            self.stats.hot_hits += 1;
            self.stats.bytes_saved += out.0.len() as u64;
            return Some(out);
        }
        let promote = match self.cold.get_mut(&block) {
            // First cold hit: set the clock reference bit, stay cold.
            Some(e) if !e.referenced => {
                e.referenced = true;
                let out = (e.data.clone(), e.crc);
                self.stats.cold_hits += 1;
                self.stats.bytes_saved += out.0.len() as u64;
                return Some(out);
            }
            // Second cold hit: proven reuse, promote to the hot LRU.
            Some(_) => true,
            None => false,
        };
        if promote {
            if let Some(e) = self.cold.remove(&block) {
                // The ring keeps a stale id the hand will skip.
                self.cold_bytes = self.cold_bytes.saturating_sub(e.data.len() as u64);
                let out = (e.data.clone(), e.crc);
                self.stats.cold_hits += 1;
                self.stats.bytes_saved += out.0.len() as u64;
                self.insert_hot(block, e.data, e.crc);
                return Some(out);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// [`BlockCache::admit`].
    fn admit(&mut self, block: BlockId, data: &Block, crc: u32) {
        let len = data.len() as u64;
        // Already cached (a concurrent reader admitted first, or a hot
        // entry exists): refresh the payload in place, no level change.
        if self.hot.refresh(block, data, crc) {
            return;
        }
        if let Some(e) = self.cold.get_mut(&block) {
            e.data = data.clone();
            e.crc = crc;
            return;
        }
        if len > self.cold_cap {
            self.stats.bypasses += 1;
            return;
        }
        if self.cold_bytes + len > self.cold_cap && self.next_rand().is_multiple_of(ADMIT_DAMPING)
        {
            self.stats.bypasses += 1;
            return;
        }
        self.cold.insert(
            block,
            ColdEntry {
                data: data.clone(),
                crc,
                referenced: false,
            },
        );
        self.ring.push_back(block);
        self.cold_bytes += len;
        self.evict_cold();
    }

    /// [`BlockCache::invalidate`].
    fn invalidate(&mut self, block: BlockId) {
        let mut hit = self.hot.remove(block).is_some();
        if let Some(e) = self.cold.remove(&block) {
            // The ring id goes stale; the hand skips it.
            self.cold_bytes = self.cold_bytes.saturating_sub(e.data.len() as u64);
            hit = true;
        }
        if hit {
            self.stats.invalidations += 1;
        }
    }

    /// [`BlockCache::resident_blocks`].
    fn resident_blocks(&self) -> Vec<BlockId> {
        let mut out = self.hot.ids();
        out.extend(self.cold.keys().copied());
        out
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

    /// Inserts into the hot level, demoting LRU entries to cold while over
    /// capacity.
    fn insert_hot(&mut self, block: BlockId, data: Block, crc: u32) {
        self.hot.insert(block, data, crc);
        while self.hot.bytes() > self.hot_cap {
            let Some((victim, data, crc)) = self.hot.pop_lru() else {
                break;
            };
            // Demote to cold rather than dropping: recently-hot blocks get
            // one clock revolution of grace.
            self.cold_bytes += data.len() as u64;
            self.cold.insert(victim, ColdEntry { data, crc, referenced: false });
            self.ring.push_back(victim);
        }
        self.evict_cold();
    }

    /// Clock sweep: evicts unreferenced cold entries in ring order until
    /// the level fits, giving referenced entries a second chance.
    fn evict_cold(&mut self) {
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
                        self.stats.evictions += 1;
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

    /// The hot level before its recency list: entries by id plus a
    /// stamp-ordered index (smallest stamp least recent), both updated on
    /// every hit. Kept as the reference the recency list must match.
    #[derive(Debug, Default)]
    struct StampLru {
        hot: BTreeMap<BlockId, (Block, u32, u64)>,
        order: BTreeMap<u64, BlockId>,
        bytes: u64,
        stamp: u64,
    }

    impl HotLevel for StampLru {
        fn touch(&mut self, id: BlockId) -> Option<(Block, u32)> {
            self.stamp += 1;
            let e = self.hot.get_mut(&id)?;
            self.order.remove(&e.2);
            e.2 = self.stamp;
            self.order.insert(self.stamp, id);
            Some((e.0.clone(), e.1))
        }

        fn refresh(&mut self, id: BlockId, data: &Block, crc: u32) -> bool {
            let Some(e) = self.hot.get_mut(&id) else {
                return false;
            };
            (e.0, e.1) = (data.clone(), crc);
            true
        }

        fn insert(&mut self, id: BlockId, data: Block, crc: u32) {
            self.stamp += 1;
            self.bytes += data.len() as u64;
            self.hot.insert(id, (data, crc, self.stamp));
            self.order.insert(self.stamp, id);
        }

        fn remove(&mut self, id: BlockId) -> Option<(Block, u32)> {
            let (data, crc, stamp) = self.hot.remove(&id)?;
            self.order.remove(&stamp);
            self.bytes = self.bytes.saturating_sub(data.len() as u64);
            Some((data, crc))
        }

        fn pop_lru(&mut self) -> Option<(BlockId, Block, u32)> {
            let (_, id) = self.order.pop_first()?;
            self.remove(id).map(|(data, crc)| (id, data, crc))
        }

        fn bytes(&self) -> u64 {
            self.bytes
        }

        fn ids(&self) -> Vec<BlockId> {
            self.hot.keys().copied().collect()
        }
    }

    #[test]
    fn the_recency_list_decides_as_the_stamp_index_did() {
        // Random get/admit/invalidate sequences over a dozen ids, blocks of
        // 16-64 bytes and caps of a few blocks, so hot overflow, demotion,
        // clock eviction and damping all occur. After every step both
        // caches have returned the same thing and hold the same state.
        ear_types::prop::check("the_recency_list_decides_as_the_stamp_index_did", 256, |rng| {
            let cfg = CacheConfig::Sized {
                hot_bytes: ear_types::prop::range(rng, 16..=256),
                cold_bytes: ear_types::prop::range(rng, 16..=256),
            };
            let seed = rng.next_u64();
            let mut list = CacheState::<HotLru>::new(cfg, seed);
            let mut stamps = CacheState::<StampLru>::new(cfg, seed);
            for step in 0..200 {
                let id = BlockId(rng.below(12));
                match rng.below(20) {
                    0..=9 => {
                        let got = |c: Option<(Block, u32)>| c.map(|(b, crc)| (b.to_vec(), crc));
                        let (a, b) = (got(list.get(id)), got(stamps.get(id)));
                        assert_eq!(a, b, "get {id:?}, step {step}");
                    }
                    10..=16 => {
                        let len = 16 * (1 + rng.below(4) as usize);
                        let data = blk(id.0 as u8, len);
                        let crc = rng.next_u32();
                        list.admit(id, &data, crc);
                        stamps.admit(id, &data, crc);
                    }
                    _ => {
                        list.invalidate(id);
                        stamps.invalidate(id);
                    }
                }
                assert_eq!(list.stats, stamps.stats, "step {step}");
                assert_eq!(list.resident_blocks(), stamps.resident_blocks(), "step {step}");
                assert_eq!(list.hot.bytes(), stamps.hot.bytes(), "step {step}");
            }
        });
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
