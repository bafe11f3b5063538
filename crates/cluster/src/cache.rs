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

/// A hot-level entry: the payload, its write-time CRC32C, and the LRU
/// stamp keying `hot_order`.
#[derive(Debug)]
struct HotEntry {
    data: Block,
    crc: u32,
    stamp: u64,
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
struct CacheState {
    hot_cap: u64,
    cold_cap: u64,
    hot: BTreeMap<BlockId, HotEntry>,
    /// LRU recency index: stamp → id, smallest stamp = least recent.
    hot_order: BTreeMap<u64, BlockId>,
    hot_bytes: u64,
    cold: BTreeMap<BlockId, ColdEntry>,
    /// Clock ring over cold ids. Entries removed from `cold` out of band
    /// (promotion, invalidation) leave stale ids here; the hand skips them.
    ring: VecDeque<BlockId>,
    cold_bytes: u64,
    /// Monotonic operation stamp driving LRU order.
    stamp: u64,
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
        Some(BlockCache {
            state: Mutex::new(CacheState {
                hot_cap: cfg.hot_bytes(),
                cold_cap: cfg.cold_bytes(),
                hot: BTreeMap::new(),
                hot_order: BTreeMap::new(),
                hot_bytes: 0,
                cold: BTreeMap::new(),
                ring: VecDeque::new(),
                cold_bytes: 0,
                stamp: 0,
                // Mix the seed so per-node streams differ even for dense
                // node ids; force non-zero (xorshift's absorbing state).
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                stats: CacheStats::default(),
            }),
        })
    }

    /// Looks up a block's cached payload and write-time CRC32C. A hot hit
    /// refreshes recency; a cold hit promotes the block to the hot level.
    pub fn get(&self, block: BlockId) -> Option<(Block, u32)> {
        let mut s = self.state.lock();
        s.stamp += 1;
        let stamp = s.stamp;
        if let Some(e) = s.hot.get_mut(&block) {
            let old = e.stamp;
            e.stamp = stamp;
            let out = (e.data.clone(), e.crc);
            s.hot_order.remove(&old);
            s.hot_order.insert(stamp, block);
            s.stats.hot_hits += 1;
            s.stats.bytes_saved += out.0.len() as u64;
            return Some(out);
        }
        let promote = match s.cold.get_mut(&block) {
            // First cold hit: set the clock reference bit, stay cold.
            Some(e) if !e.referenced => {
                e.referenced = true;
                let out = (e.data.clone(), e.crc);
                s.stats.cold_hits += 1;
                s.stats.bytes_saved += out.0.len() as u64;
                return Some(out);
            }
            // Second cold hit: proven reuse, promote to the hot LRU.
            Some(_) => true,
            None => false,
        };
        if promote {
            if let Some(e) = s.cold.remove(&block) {
                // The ring keeps a stale id the hand will skip.
                s.cold_bytes = s.cold_bytes.saturating_sub(e.data.len() as u64);
                let out = (e.data.clone(), e.crc);
                s.stats.cold_hits += 1;
                s.stats.bytes_saved += out.0.len() as u64;
                s.insert_hot(block, e.data, e.crc, stamp);
                return Some(out);
            }
        }
        s.stats.misses += 1;
        None
    }

    /// Admits a verified block read from the store. First-time admissions
    /// enter the cold level (clock); blocks larger than the cold capacity
    /// are bypassed, and under eviction pressure one in
    /// [`ADMIT_DAMPING`] admissions is bypassed from the seeded stream.
    pub fn admit(&self, block: BlockId, data: &Block, crc: u32) {
        let len = data.len() as u64;
        let mut s = self.state.lock();
        // Already cached (a concurrent reader admitted first, or a hot
        // entry exists): refresh the payload in place, no level change.
        if let Some(e) = s.hot.get_mut(&block) {
            e.data = data.clone();
            e.crc = crc;
            return;
        }
        if let Some(e) = s.cold.get_mut(&block) {
            e.data = data.clone();
            e.crc = crc;
            return;
        }
        if len > s.cold_cap {
            s.stats.bypasses += 1;
            return;
        }
        if s.cold_bytes + len > s.cold_cap && s.next_rand().is_multiple_of(ADMIT_DAMPING) {
            s.stats.bypasses += 1;
            return;
        }
        s.cold.insert(
            block,
            ColdEntry {
                data: data.clone(),
                crc,
                referenced: false,
            },
        );
        s.ring.push_back(block);
        s.cold_bytes += len;
        s.evict_cold();
    }

    /// Drops any cached copy of `block` — called on overwrite
    /// and delete so the cache can never serve bytes the store no longer
    /// holds.
    pub fn invalidate(&self, block: BlockId) {
        let mut s = self.state.lock();
        let mut hit = false;
        if let Some(e) = s.hot.remove(&block) {
            s.hot_bytes = s.hot_bytes.saturating_sub(e.data.len() as u64);
            s.hot_order.remove(&e.stamp);
            hit = true;
        }
        if let Some(e) = s.cold.remove(&block) {
            // The ring id goes stale; the hand skips it.
            s.cold_bytes = s.cold_bytes.saturating_sub(e.data.len() as u64);
            hit = true;
        }
        if hit {
            s.stats.invalidations += 1;
        }
    }

    /// Snapshot of this cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Data bytes currently held across both levels (test/diagnostic hook).
    pub fn data_bytes(&self) -> u64 {
        let s = self.state.lock();
        s.hot_bytes + s.cold_bytes
    }

    /// Block ids currently holding cached *data*, hot level first, each
    /// level in id order — a deterministic snapshot for eviction tests.
    pub fn resident_blocks(&self) -> Vec<BlockId> {
        let s = self.state.lock();
        let mut out: Vec<BlockId> = s.hot.keys().copied().collect();
        out.extend(s.cold.keys().copied());
        out
    }
}

impl CacheState {
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
    fn insert_hot(&mut self, block: BlockId, data: Block, crc: u32, stamp: u64) {
        self.hot_bytes += data.len() as u64;
        self.hot.insert(block, HotEntry { data, crc, stamp });
        self.hot_order.insert(stamp, block);
        while self.hot_bytes > self.hot_cap {
            let Some((_, victim)) = self.hot_order.pop_first() else {
                break;
            };
            let Some(e) = self.hot.remove(&victim) else {
                continue;
            };
            let len = e.data.len() as u64;
            self.hot_bytes = self.hot_bytes.saturating_sub(len);
            // Demote to cold rather than dropping: recently-hot blocks get
            // one clock revolution of grace.
            self.cold.insert(
                victim,
                ColdEntry {
                    data: e.data,
                    crc: e.crc,
                    referenced: false,
                },
            );
            self.ring.push_back(victim);
            self.cold_bytes += len;
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
