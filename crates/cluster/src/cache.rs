//! The DataNode-side block cache (DESIGN.md §12).
//!
//! Sits in front of a node's [`crate::blockstore::BlockStore`] and keeps
//! recently stored and served replicas in memory as shared [`Block`]s: a
//! hit skips the backend (for the extent backend, a `pread` and a copy)
//! and, through the verified-once CRC seam in [`crate::ClusterIo`], the
//! CRC32C pass over the payload.
//!
//! # Admission
//!
//! Two paths fill the cache, both under its write lock and both only while
//! the store still records the block under the CRC they carry. A read that
//! passed its checksum admits through [`BlockCache::admit_if_stored`], and
//! may evict. A write stores through [`BlockCache::store_through`]: it
//! refreshes a resident copy in place or fills free room, and never evicts
//! or draws from the damping stream, so which blocks stay cached under
//! pressure is still decided by reads. A block stored and then read back
//! (an encode's sources, a repair's survivors) is a hit.
//!
//! # Replacement
//!
//! One queue and one hand: SIEVE (Zhang et al., NSDI '24). Blocks queue in
//! admission order, and every hit sets its block's reference bit. A read
//! admission that needs room sweeps from the hand toward the newest block,
//! wrapping to the oldest: a referenced block has its bit cleared and the
//! hand moves on, an unreferenced one is evicted and the hand stays there.
//! Nothing moves in the queue, and the new block joins at the newest end.
//! A one-pass scan therefore evicts its own blocks, oldest first: each one
//! it admits lies ahead of the hand, so the hand never runs out of scan
//! blocks and never wraps round to the blocks that were hit before it.
//!
//! # Locking
//!
//! One reader-writer lock per cache. A hit and a miss take it shared and
//! write nothing the other readers read: the reference bit is stored only
//! when clear, and the counters are per-thread stripes ([`Striped`]).
//! Everything else takes it exclusive, so once a store-through or an
//! invalidation returns, no hit can serve the replaced or dropped bytes.
//!
//! # Determinism
//!
//! Replacement state advances only on cache operations, and the one random
//! decision (admission damping) draws from a per-cache xorshift stream
//! seeded at construction, so a fixed single-threaded access sequence
//! always produces the same contents, hits and evictions. Under concurrency
//! the contents depend on interleaving, but coherence (write-update in
//! [`crate::DataNode`]) makes a hit serve exactly the bytes the store
//! holds, so chaos and heal soaks are bit-identical with the cache off.

use crate::sync::RwLock;
use ear_types::{Block, BlockId, CacheConfig, Striped};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// On admission that would force evictions, one in `ADMIT_DAMPING` new
/// blocks is bypassed instead of admitted — cheap scan resistance on top
/// of the ring, drawn from the seeded stream.
const ADMIT_DAMPING: u64 = 8;

/// Monotonic counters of one cache (or, summed, of a whole cluster's
/// caches). Under concurrency the totals depend on interleaving, so, like
/// [`crate::IoStats`]'s timings, they are kept out of fingerprints.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no cached data.
    pub misses: u64,
    /// Admissions refused: larger than the cache, or damped.
    pub bypasses: u64,
    /// Entries evicted by the hand.
    pub evictions: u64,
    /// Entries dropped because the block was overwritten or deleted.
    pub invalidations: u64,
    /// Payload bytes served from cache instead of the store backend.
    pub bytes_saved: u64,
}

impl CacheStats {
    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hits over lookups, in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// Accumulates another cache's counters into this one (cluster-wide
    /// aggregation).
    pub fn add(&mut self, o: &CacheStats) {
        self.hits += o.hits;
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
    hits: AtomicU64,
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

/// One cached block: the payload, its write-time CRC32C, its place in the
/// queue, and its reference bit (set by a hit under the read lock, cleared
/// by a passing hand).
#[derive(Debug)]
struct Slot {
    data: Block,
    crc: u32,
    stamp: u64,
    referenced: AtomicBool,
}

impl Slot {
    /// Serves a hit, counted on the caller's stripe `c`, storing the bit
    /// only when clear. Relaxed is enough: the bit publishes no data, and
    /// the sweep that reads it runs under the write lock, whose acquire
    /// follows the release of every read guard a hit ran under.
    fn hit(&self, c: &Counters) -> (Block, u32) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
        count(&c.hits, 1);
        count(&c.bytes_saved, self.data.len() as u64);
        (self.data.clone(), self.crc)
    }
}

/// Everything behind the cache's lock (one cache per DataNode, so the
/// cluster's concurrency already shards across nodes).
#[derive(Debug)]
struct CacheState {
    cap: u64,
    /// Block id → its slot: the one map a hit reads.
    slots: BTreeMap<BlockId, Slot>,
    /// The queue: admission stamp → block, oldest first.
    queue: BTreeMap<u64, BlockId>,
    bytes: u64,
    /// The hand: the oldest stamp the next sweep may look at.
    hand: u64,
    /// The next admission's stamp.
    stamp: u64,
    /// Seeded xorshift state for admission damping.
    rng: u64,
}

/// A deterministic SIEVE block cache (module docs).
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

    /// Looks up a block's cached payload and write-time CRC32C, under the
    /// read lock on every path; a hit sets the block's reference bit.
    pub fn get(&self, block: BlockId) -> Option<(Block, u32)> {
        let c = self.counters.mine();
        let s = self.state.read();
        match s.slots.get(&block) {
            Some(slot) => Some(slot.hit(c)),
            None => {
                count(&c.misses, 1);
                None
            }
        }
    }

    /// Admits a verified block read from the store. A block larger than
    /// the cache is bypassed, and under pressure one in [`ADMIT_DAMPING`]
    /// is, from the seeded stream; otherwise the hand sweeps room for it
    /// and it joins the queue at the newest end.
    /// A resident block is refreshed as by [`store_through`](Self::store_through).
    pub fn admit(&self, block: BlockId, data: &Block, crc: u32) {
        self.state.write().admit(block, data, crc, self.counters.mine());
    }

    /// [`admit`](Self::admit) for a cache in front of a store: admits only
    /// if `stored()` — the store's CRC for the block, read under this
    /// cache's write lock — still equals `crc`. A writer changes the store
    /// before it stores through or invalidates, so a reader's bytes fetched
    /// before a `put` or `delete` are refused here or replaced or dropped by
    /// that writer, never left to serve.
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
    /// equals `crc`, a resident copy is refreshed in place or the block
    /// fills free room, else (a racing overwrite or delete) any copy is
    /// dropped. It never evicts or draws from the damping stream: a block
    /// that does not fit is left out, a resident one dropped. The bytes are
    /// those whose CRC the store just recorded, so nothing re-hashes them.
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
            hits: c.total(|s| &s.hits),
            misses: c.total(|s| &s.misses),
            bypasses: c.total(|s| &s.bypasses),
            evictions: c.total(|s| &s.evictions),
            invalidations: c.total(|s| &s.invalidations),
            bytes_saved: c.total(|s| &s.bytes_saved),
        }
    }

    /// Payload bytes currently held (test/diagnostic hook).
    pub fn data_bytes(&self) -> u64 {
        self.state.read().bytes
    }

    /// Block ids currently cached, in id order (test/diagnostic hook).
    pub fn resident_blocks(&self) -> Vec<BlockId> {
        self.state.read().slots.keys().copied().collect()
    }
}

impl CacheState {
    fn new(cfg: CacheConfig, seed: u64) -> Self {
        CacheState {
            cap: cfg.bytes(),
            slots: BTreeMap::new(),
            queue: BTreeMap::new(),
            bytes: 0,
            hand: 0,
            stamp: 0,
            // Mix the seed so per-node streams differ even for dense
            // node ids; force non-zero (xorshift's absorbing state).
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// [`BlockCache::admit`].
    fn admit(&mut self, block: BlockId, data: &Block, crc: u32, c: &Counters) {
        if self.slots.contains_key(&block) {
            return self.store_through(block, data, crc, c);
        }
        let len = data.len() as u64;
        let pressed = self.bytes + len > self.cap;
        if len > self.cap || (pressed && self.next_rand().is_multiple_of(ADMIT_DAMPING)) {
            count(&c.bypasses, 1);
            return;
        }
        // The sweep: from the hand toward the newest, wrapping to the oldest.
        while self.bytes + len > self.cap {
            let next = self.queue.range(self.hand..).next().or_else(|| self.queue.iter().next());
            let Some((&stamp, &id)) = next else {
                break;
            };
            self.hand = stamp + 1;
            let slot = self.slots.get_mut(&id);
            if !slot.is_some_and(|s| std::mem::take(s.referenced.get_mut())) {
                count(&c.evictions, 1);
                self.queue.remove(&stamp);
                self.remove(id);
            }
        }
        self.push(block, data, crc);
    }

    /// [`BlockCache::store_through`], the store's CRC confirmed.
    fn store_through(&mut self, block: BlockId, data: &Block, crc: u32, c: &Counters) {
        let old = self.slots.get(&block).map_or(0, |s| s.data.len() as u64);
        let bytes = self.bytes.saturating_sub(old) + data.len() as u64;
        if bytes > self.cap {
            return self.invalidate(block, c);
        }
        match self.slots.get_mut(&block) {
            // In place: the block keeps its place in the queue and its bit.
            Some(slot) => (slot.data, slot.crc) = (data.clone(), crc),
            None => return self.push(block, data, crc),
        }
        self.bytes = bytes;
    }

    /// [`BlockCache::invalidate`].
    fn invalidate(&mut self, block: BlockId, c: &Counters) {
        if self.remove(block) {
            count(&c.invalidations, 1);
        }
    }

    /// Queues `block` (not cached) at the newest end, unreferenced. A hand
    /// past the newest block wraps to the oldest first, so the newcomer is
    /// not the next to be looked at.
    fn push(&mut self, block: BlockId, data: &Block, crc: u32) {
        if self.queue.range(self.hand..).next().is_none() {
            self.hand = 0;
        }
        let (stamp, referenced) = (self.stamp, AtomicBool::new(false));
        self.stamp += 1;
        self.bytes += data.len() as u64;
        self.queue.insert(stamp, block);
        self.slots.insert(block, Slot { data: data.clone(), crc, stamp, referenced });
    }

    /// Drops `block`'s slot; false when it was not cached.
    fn remove(&mut self, block: BlockId) -> bool {
        let Some(gone) = self.slots.remove(&block) else {
            return false;
        };
        self.queue.remove(&gone.stamp);
        self.bytes = self.bytes.saturating_sub(gone.data.len() as u64);
        true
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bytes: u64) -> BlockCache {
        BlockCache::new(CacheConfig::Sized { bytes }, 7).unwrap()
    }

    fn blk(n: u8, len: usize) -> Block {
        Block::from(vec![n; len])
    }

    /// The cache's policy written naively, as the reference the real cache
    /// must match step for step: one vector in admission order, searched
    /// linearly, a hand that is an index into it, and a byte count that is
    /// the sum of the lengths it holds.
    struct Model {
        cap: u64,
        /// `(id, data, crc, referenced)`, oldest first.
        queue: Vec<(BlockId, Block, u32, bool)>,
        hand: usize,
        rng: u64,
        stats: CacheStats,
        damped: u64,
        /// Re-admissions that changed a resident block's length.
        resized: u64,
        /// The block the last read admission queued.
        fresh: Option<BlockId>,
        /// Blocks evicted by the next sweep after their own admission.
        quick: u64,
    }

    impl Model {
        fn new(cfg: CacheConfig, seed: u64) -> Self {
            Model {
                cap: cfg.bytes(),
                queue: Vec::new(),
                hand: 0,
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                stats: CacheStats::default(),
                damped: 0,
                resized: 0,
                fresh: None,
                quick: 0,
            }
        }

        fn bytes(&self) -> u64 {
            self.queue.iter().map(|e| e.1.len() as u64).sum()
        }

        fn find(&self, id: BlockId) -> Option<usize> {
            self.queue.iter().position(|e| e.0 == id)
        }

        fn get(&mut self, id: BlockId) -> Option<(Block, u32)> {
            let Some(at) = self.find(id) else {
                self.stats.misses += 1;
                return None;
            };
            let e = &mut self.queue[at];
            e.3 = true;
            self.stats.hits += 1;
            self.stats.bytes_saved += e.1.len() as u64;
            Some((e.1.clone(), e.2))
        }

        fn admit(&mut self, id: BlockId, data: &Block, crc: u32) {
            if let Some(at) = self.find(id) {
                self.resized += u64::from(self.queue[at].1.len() != data.len());
                return self.store_through(id, data, crc, true);
            }
            let len = data.len() as u64;
            let pressed = self.bytes() + len > self.cap;
            if len > self.cap || (pressed && self.next_rand().is_multiple_of(ADMIT_DAMPING)) {
                self.stats.bypasses += 1;
                self.damped += u64::from(len <= self.cap);
                return;
            }
            let fresh = self.fresh.replace(id);
            while self.bytes() + len > self.cap {
                if self.hand >= self.queue.len() {
                    self.hand = 0;
                }
                if std::mem::take(&mut self.queue[self.hand].3) {
                    self.hand += 1;
                    continue;
                }
                self.stats.evictions += 1;
                self.quick += u64::from(fresh == Some(self.queue[self.hand].0));
                self.queue.remove(self.hand);
            }
            self.push(id, data, crc);
        }

        /// `confirmed`: the store still records `crc` for `id`.
        fn store_through(&mut self, id: BlockId, data: &Block, crc: u32, confirmed: bool) {
            let at = self.find(id);
            let old = at.map_or(0, |at| self.queue[at].1.len() as u64);
            if !confirmed || self.bytes() - old + data.len() as u64 > self.cap {
                self.invalidate(id);
                return;
            }
            match at {
                Some(at) => (self.queue[at].1, self.queue[at].2) = (data.clone(), crc),
                None => self.push(id, data, crc),
            }
        }

        fn push(&mut self, id: BlockId, data: &Block, crc: u32) {
            if self.hand >= self.queue.len() {
                self.hand = 0;
            }
            self.queue.push((id, data.clone(), crc, false));
        }

        fn invalidate(&mut self, id: BlockId) {
            if let Some(at) = self.find(id) {
                self.queue.remove(at);
                self.hand -= usize::from(at < self.hand);
                self.stats.invalidations += 1;
            }
        }

        fn next_rand(&mut self) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }

        fn resident_blocks(&self) -> Vec<BlockId> {
            let mut ids: Vec<BlockId> = self.queue.iter().map(|e| e.0).collect();
            ids.sort();
            ids
        }
    }

    #[test]
    fn second_chance_decides_as_the_reference_model_does() {
        // Random get/admit/store-through/invalidate sequences over a dozen
        // ids, blocks of 16-64 bytes and a cap of a few blocks. After every
        // step the cache and the model have returned the same thing and
        // hold the same state, bytes included, within the cap, and a
        // store-through has evicted and bypassed nothing; over the cases,
        // eviction, an admitted block evicted at the next pressure without
        // a hit, damping, re-admissions at a new length and store-throughs
        // both admitted and left out all occur.
        let mut seen = CacheStats::default();
        let (mut quick, mut damped, mut resized) = (0, 0, 0);
        let (mut stored, mut left_out) = (0, 0);
        ear_types::prop::check("second_chance_decides_as_the_reference_model_does", 256, |rng| {
            let cfg = CacheConfig::Sized {
                bytes: ear_types::prop::range(rng, 32..=512),
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
                assert_eq!(cache.data_bytes(), model.bytes(), "step {step}");
                assert!(model.bytes() <= cfg.bytes(), "step {step}: over capacity");
            }
            seen.add(&model.stats);
            quick += model.quick;
            damped += model.damped;
            resized += model.resized;
        });
        assert!(quick > 0, "an admitted block is evicted at the next pressure without a hit");
        assert!(resized > 0, "a re-admission changes a length");
        assert!(seen.evictions > 0, "the hand evicts");
        assert!(damped > 0, "admission is damped");
        assert!(stored > 0 && left_out > 0, "store-throughs are admitted and left out");
        assert!(seen.hits > 0 && seen.invalidations > 0);
    }

    #[test]
    fn off_builds_no_cache() {
        assert!(BlockCache::new(CacheConfig::Off, 1).is_none());
    }

    #[test]
    fn miss_admit_hit_roundtrip() {
        let c = cache(2048);
        assert!(c.get(BlockId(1)).is_none());
        c.admit(BlockId(1), &blk(9, 100), 0xABCD);
        let (data, crc) = c.get(BlockId(1)).unwrap();
        assert_eq!(data.as_slice(), &[9u8; 100]);
        assert_eq!(crc, 0xABCD);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1, "the first read after an admission hits");
        assert_eq!(s.bytes_saved, 100);
        // Every later read hits the same way: no level to move to.
        assert!(c.get(BlockId(1)).is_some());
        assert!(c.get(BlockId(1)).is_some());
        assert_eq!((c.stats().hits, c.stats().bytes_saved), (3, 300));
    }

    #[test]
    fn cached_blocks_share_the_admitted_allocation() {
        let c = cache(8192);
        let data = blk(3, 256);
        c.admit(BlockId(5), &data, 1);
        let (back, _) = c.get(BlockId(5)).unwrap();
        assert!(back.shares_buffer(&data), "hits are zero-copy");
    }

    #[test]
    fn invalidate_drops_data_and_meta() {
        let c = cache(2048);
        c.admit(BlockId(2), &blk(1, 64), 7);
        c.invalidate(BlockId(2));
        assert!(c.get(BlockId(2)).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.data_bytes(), 0);
    }

    #[test]
    fn a_write_into_a_full_cache_evicts_nothing() {
        // The cache fits two 64-byte entries, both stored through. A third
        // write finds no free room: nothing is evicted, bypassed or drawn,
        // and the counters do not move.
        let c = cache(128);
        let stored = || Some(0);
        c.store_through(BlockId(1), &blk(1, 64), 0, stored);
        c.store_through(BlockId(2), &blk(2, 64), 0, stored);
        let before = c.stats();
        assert_eq!(before, CacheStats::default());
        c.store_through(BlockId(3), &blk(3, 64), 0, stored);
        assert_eq!(c.stats(), before);
        assert_eq!(c.resident_blocks(), vec![BlockId(1), BlockId(2)]);
        // A refresh in place fits; a resident copy that would outgrow the
        // cache is dropped rather than evicting its neighbour.
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
        let c = cache(2048);
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
        let c = cache(192);
        c.admit(BlockId(1), &blk(0, 256), 0);
        assert!(c.get(BlockId(1)).is_none());
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn the_hand_evicts_in_queue_order() {
        // The cache fits exactly two 64-byte entries; admitting a third
        // evicts the oldest unreferenced one (pure FIFO when nothing is
        // re-referenced).
        let c = cache(128);
        c.admit(BlockId(1), &blk(1, 64), 11);
        c.admit(BlockId(2), &blk(2, 64), 22);
        c.admit(BlockId(3), &blk(3, 64), 33);
        assert_eq!(c.resident_blocks(), vec![BlockId(2), BlockId(3)]);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(BlockId(1)).is_none());
        assert_eq!(c.get(BlockId(3)).map(|(_, crc)| crc), Some(33));
    }

    #[test]
    fn second_chance_spares_referenced_entries() {
        // The cache fits three 64-byte entries. Touch 1 (sets its reference
        // bit); admitting 4 then needs an eviction: the hand reaches 1
        // first, clears its bit and spares it, and evicts the untouched 2.
        let c = cache(192);
        for id in 1..=3 {
            c.admit(BlockId(id), &blk(id as u8, 64), 0);
        }
        assert!(c.get(BlockId(1)).is_some());
        c.admit(BlockId(4), &blk(4, 64), 0);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.resident_blocks(), vec![BlockId(1), BlockId(3), BlockId(4)]);
        // The hand stayed where it evicted and nothing moved, so 3 is next.
        assert!(c.get(BlockId(4)).is_some());
        c.admit(BlockId(5), &blk(5, 64), 0);
        assert_eq!(c.resident_blocks(), vec![BlockId(1), BlockId(4), BlockId(5)]);
        // Then 4, spared by its hit, and 5, the newest and never hit; the
        // hand wraps, and 1, its bit cleared a pass ago, goes next.
        c.admit(BlockId(6), &blk(6, 64), 0);
        assert_eq!(c.resident_blocks(), vec![BlockId(1), BlockId(4), BlockId(6)]);
        c.admit(BlockId(7), &blk(7, 64), 0);
        assert_eq!(c.resident_blocks(), vec![BlockId(4), BlockId(6), BlockId(7)]);
    }

    #[test]
    fn a_one_pass_scan_leaves_a_reread_hot_set_cached() {
        // Four 64-byte blocks are read three times each, then a scan reads
        // four times the cache's capacity of never-seen blocks once each
        // (a miss, then an admission, as a read does). Every hot block is
        // still a hit afterwards.
        let cfg = CacheConfig::Sized { bytes: 1024 };
        let c = BlockCache::new(cfg, 7).unwrap();
        let hot: Vec<BlockId> = (0..4).map(BlockId).collect();
        for &id in &hot {
            c.admit(id, &blk(id.0 as u8, 64), 0);
        }
        for _ in 0..3 {
            for &id in &hot {
                assert!(c.get(id).is_some());
            }
        }
        let capacity = 1024 / 64;
        for id in 100..100 + 4 * capacity {
            assert!(c.get(BlockId(id)).is_none());
            c.admit(BlockId(id), &blk(id as u8, 64), 0);
        }
        assert!(c.stats().evictions > 0, "the scan runs under pressure");
        for &id in &hot {
            assert!(c.get(id).is_some(), "{id:?} survives the scan");
        }
    }

    #[test]
    fn eviction_order_is_deterministic_across_runs() {
        // The determinism contract: two caches with the same seed replaying
        // the same access sequence end in identical states — same resident
        // set, same counters — even under admission pressure where the
        // seeded damping stream participates.
        let run = || {
            let c = cache(512);
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
        let mk = |seed| BlockCache::new(CacheConfig::Sized { bytes: 8192 }, seed).unwrap();
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
