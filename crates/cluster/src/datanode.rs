//! The DataNode: one emulated machine's block service over a pluggable
//! [`BlockStore`] backend (memory or extent; DESIGN.md §9), fronted
//! by an optional [`BlockCache`] (DESIGN.md §12). The cache is
//! write-update: a block this node stores is cached as it is written, room
//! permitting, so reading it back (an encode's source, a repair's
//! survivor, a first client read) is a verified hit while it stays cached,
//! with no `pread`, copy or CRC pass.

use crate::blockstore::{open_store, open_store_at, BlockStore, ShardedMemStore};
use crate::cache::{BlockCache, CacheStats};
use ear_types::crc::crc32c;
use ear_types::{Block, BlockId, CacheConfig, NodeId, Result, StoreBackend};

/// A block served through the cached read path: the payload, its
/// write-time CRC32C, and whether the bytes were already verified against
/// that CRC when they entered the cache (the verified-once seam —
/// [`crate::ClusterIo`] skips re-hashing verified bytes unless the fault
/// plan injects corruption on the attempt).
#[derive(Debug, Clone)]
pub struct CachedRead {
    /// The payload.
    pub data: Block,
    /// Its write-time CRC32C.
    pub crc: u32,
    /// `true` iff the bytes come from the cache, which holds only bytes
    /// checked against the write-time CRC, or stored under the CRC of
    /// these bytes.
    pub verified: bool,
}

/// One DataNode's block storage. The protocol surface (put/get/delete plus
/// write-time CRC32C bookkeeping) is fixed; where the bytes live is the
/// backend's business — reference-counted buffers for
/// [`StoreBackend::Memory`], segment files for [`StoreBackend::Extent`].
/// Every replica carries the CRC32C of its bytes at `put` time; readers
/// compare it against what they actually received to catch silent
/// corruption.
///
/// # Cache coherence
///
/// The cache is write-update: [`DataNode::put`] changes the store and then
/// stores the same bytes through to the cache (refreshing a resident copy,
/// or filling free room without evicting), a failed `put` and
/// [`DataNode::delete`] drop any cached copy, and [`DataNode::admit`]
/// (called by the I/O service after a checksum pass) admits reads. Both
/// fill the cache only while the store still records the block under the
/// CRC they carry: a reader that fetched before a `put` or `delete` cannot
/// re-admit the old bytes after it, and a `put` overtaken by another
/// leaves no copy of its bytes behind. [`DataNode::get`] /
/// [`DataNode::get_with_crc`] bypass the
/// cache entirely and read the authoritative store — they are the seam the
/// scrubber uses to force re-verification, so corruption written *under* a
/// cached block is still caught by the next scrub even while cached reads
/// keep serving the good admitted bytes.
#[derive(Debug)]
pub struct DataNode {
    id: NodeId,
    store: Box<dyn BlockStore>,
    cache: Option<BlockCache>,
}

impl DataNode {
    /// Creates an empty DataNode on the in-memory backend, with the
    /// environment-selected cache configuration (`EAR_CACHE`).
    pub fn new(id: NodeId) -> Self {
        let cache = BlockCache::new(CacheConfig::from_env(), cache_seed(0, id));
        DataNode {
            id,
            store: Box::new(ShardedMemStore::new()),
            cache,
        }
    }

    /// Creates an empty DataNode on the requested backend and cache
    /// configuration. The cache's admission stream is seeded from
    /// `seed` (the cluster seed) mixed with the node id.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::Io`] if the extent backend cannot create its
    /// temp root.
    pub fn with_backend(
        id: NodeId,
        backend: StoreBackend,
        cache: CacheConfig,
        seed: u64,
    ) -> Result<Self> {
        Ok(DataNode {
            id,
            store: open_store(backend, &format!("n{}", id.0))?,
            cache: BlockCache::new(cache, cache_seed(seed, id)),
        })
    }

    /// Creates (or reopens) a DataNode whose store persists under `root`,
    /// for the durable-cluster path: the backend recovers whatever blocks
    /// survive there and keeps the directory on drop. `sync` selects
    /// fsync-before-ack writes.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::NotDurable`] for the memory backend;
    /// [`ear_types::Error::Io`] / [`ear_types::Error::WalCorrupt`] if the
    /// on-disk state cannot be opened or fails recovery.
    pub fn with_backend_at(
        id: NodeId,
        backend: StoreBackend,
        root: &std::path::Path,
        sync: bool,
        cache: CacheConfig,
        seed: u64,
    ) -> Result<Self> {
        Ok(DataNode {
            id,
            store: open_store_at(backend, root, sync)?,
            cache: BlockCache::new(cache, cache_seed(seed, id)),
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Which storage backend this node runs on.
    pub fn backend(&self) -> StoreBackend {
        self.store.backend()
    }

    /// Stores (or overwrites) a block replica under its CRC32C — the stamp
    /// the handle carries ([`Block::stamp`]), else hashed here — then
    /// stores it through to the cache (see the coherence notes on
    /// [`DataNode`]); a failed write drops any cached copy instead.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::Io`] if the backend cannot persist the bytes
    /// (extent backend only).
    pub fn put(&self, block: BlockId, data: Block) -> Result<()> {
        let crc = data.stamp().unwrap_or_else(|| crc32c(&data));
        let stored = self.store.put(block, data.clone(), crc);
        if let Some(c) = &self.cache {
            match stored {
                Ok(()) => c.store_through(block, &data, crc, || self.store.stored_crc(block)),
                Err(_) => c.invalidate(block),
            }
        }
        stored
    }

    /// Fetches a block replica, if present — always from the authoritative
    /// store, never the cache (see the coherence notes on [`DataNode`]).
    pub fn get(&self, block: BlockId) -> Option<Block> {
        self.store.get_with_crc(block).map(|(data, _)| data)
    }

    /// Fetches a block replica together with its write-time CRC32C —
    /// always from the authoritative store, never the cache. This is the
    /// scrubber's forced re-verification path.
    pub fn get_with_crc(&self, block: BlockId) -> Option<(Block, u32)> {
        self.store.get_with_crc(block)
    }

    /// The cached read path of the I/O service: a cache hit serves
    /// already-verified bytes; a miss falls through to the store and
    /// reports `verified: false` so the caller re-hashes (and, on a pass,
    /// admits).
    pub fn cached_read(&self, block: BlockId) -> Option<CachedRead> {
        if let Some(c) = &self.cache {
            if let Some((data, crc)) = c.get(block) {
                return Some(CachedRead {
                    data,
                    crc,
                    verified: true,
                });
            }
        }
        self.store.get_with_crc(block).map(|(data, crc)| CachedRead {
            data,
            crc,
            verified: false,
        })
    }

    /// Admits a checksum-verified read into the cache (no-op when caching
    /// is off, or when the store no longer holds the block under `crc`).
    /// Only the I/O service's verified reads call this — the cache must
    /// never hold bytes that were not checked against the write-time CRC.
    pub fn admit(&self, block: BlockId, data: &Block, crc: u32) {
        if let Some(c) = &self.cache {
            c.admit_if_stored(block, data, crc, || self.store.stored_crc(block));
        }
    }

    /// The write-time CRC32C of a stored replica, from the store's index
    /// (both engines keep it in memory).
    pub fn stored_crc(&self, block: BlockId) -> Option<u32> {
        self.store.stored_crc(block)
    }

    /// Deletes a block replica (and any cached copy); returns whether it
    /// existed.
    pub fn delete(&self, block: BlockId) -> bool {
        let existed = self.store.delete(block);
        if let Some(c) = &self.cache {
            c.invalidate(block);
        }
        existed
    }

    /// Test hook: swaps a stored replica's bytes under its unchanged CRC,
    /// going around `put` and its store-through — a sector that decayed
    /// under a block the cache no longer holds, so any cached copy goes too.
    #[cfg(test)]
    pub(crate) fn rot(&self, block: BlockId, bytes: Vec<u8>) {
        let crc = self.store.stored_crc(block).unwrap();
        self.store.put(block, Block::from(bytes), crc).unwrap();
        if let Some(c) = &self.cache {
            c.invalidate(block);
        }
    }

    /// Whether this node holds the block.
    pub fn contains(&self, block: BlockId) -> bool {
        self.store.contains(block)
    }

    /// Number of block replicas stored.
    pub fn block_count(&self) -> usize {
        self.store.block_count()
    }

    /// Total bytes stored (each replica counted at full size, as on a real
    /// disk).
    pub fn bytes_stored(&self) -> u64 {
        self.store.bytes_stored()
    }

    /// This node's cache counters (zeros when caching is off).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(BlockCache::stats).unwrap_or_default()
    }

    /// Whether this node runs with a cache.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }
}

/// Mixes the cluster seed with a node id into a per-node cache seed.
fn cache_seed(seed: u64, id: NodeId) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(id.0).wrapping_add(0x6A09_E667))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn nodes(backend: StoreBackend) -> (DataNode, DataNode) {
        (
            DataNode::with_backend(NodeId(3), backend, CacheConfig::default(), 1).unwrap(),
            DataNode::with_backend(NodeId(4), backend, CacheConfig::default(), 1).unwrap(),
        )
    }

    #[test]
    fn put_get_delete_roundtrip_both_backends() {
        for backend in [StoreBackend::Memory, StoreBackend::Extent] {
            let (dn, _) = nodes(backend);
            assert_eq!(dn.id(), NodeId(3));
            assert_eq!(dn.backend(), backend);
            let data = Block::from(vec![1u8, 2, 3]);
            dn.put(BlockId(7), data.clone()).unwrap();
            assert!(dn.contains(BlockId(7)));
            assert_eq!(dn.get(BlockId(7)).unwrap().as_slice(), &[1, 2, 3]);
            assert_eq!(dn.block_count(), 1);
            assert_eq!(dn.bytes_stored(), 3);
            assert!(dn.delete(BlockId(7)));
            assert!(!dn.delete(BlockId(7)));
            assert_eq!(dn.get(BlockId(7)), None);
            assert_eq!(dn.block_count(), 0);
        }
    }

    #[test]
    fn replicas_share_memory() {
        // Memory-backend contract specifically: replicas are shared views
        // of one allocation — storing the same Block on two nodes never
        // copies the payload.
        let a = DataNode::new(NodeId(0));
        let b = DataNode::new(NodeId(1));
        assert_eq!(a.backend(), StoreBackend::Memory);
        let data = Block::from(vec![9u8; 64]);
        a.put(BlockId(1), data.clone()).unwrap();
        b.put(BlockId(1), data.clone()).unwrap();
        // A node with a cache holds a second view: the cached copy.
        let views = if a.cache_enabled() { 4 } else { 2 };
        assert_eq!(data.ref_count(), views + 1, "the stored and cached views plus the original");
        for dn in [&a, &b] {
            assert!(dn.get(BlockId(1)).unwrap().shares_buffer(&data));
            assert!(dn.cached_read(BlockId(1)).unwrap().data.shares_buffer(&data));
        }
    }

    #[test]
    fn stored_crc_matches_bytes_both_backends() {
        for backend in [StoreBackend::Memory, StoreBackend::Extent] {
            let (dn, _) = nodes(backend);
            let data = Block::from(vec![0x42u8; 1024]);
            dn.put(BlockId(5), data.clone()).unwrap();
            let (bytes, crc) = dn.get_with_crc(BlockId(5)).unwrap();
            assert_eq!(crc, crc32c(&bytes));
            assert_eq!(dn.stored_crc(BlockId(5)), Some(crc));
            // A copy with a flipped byte no longer matches the stored crc.
            let mut bad = bytes.to_vec();
            bad[17] ^= 0x80;
            assert_ne!(crc32c(&bad), crc);
            assert_eq!(dn.stored_crc(BlockId(99)), None);
        }
    }

    #[test]
    fn cached_read_misses_then_hits_after_admit() {
        for backend in [StoreBackend::Memory, StoreBackend::Extent] {
            let cache = CacheConfig::Sized { bytes: 1 << 10 };
            let dn = DataNode::with_backend(NodeId(1), backend, cache, 42).unwrap();
            // Block 2 fills most of the 1 KiB cache; block 3 is stored
            // but finds no room, and a write never evicts.
            dn.put(BlockId(2), Block::from(vec![7u8; 768])).unwrap();
            let data = Block::from(vec![8u8; 512]);
            dn.put(BlockId(3), data.clone()).unwrap();
            let miss = dn.cached_read(BlockId(3)).unwrap();
            assert!(!miss.verified, "store reads must be re-verified");
            assert_eq!(miss.data, data);
            assert!(dn.delete(BlockId(2)));
            dn.admit(BlockId(3), &miss.data, miss.crc);
            let hit = dn.cached_read(BlockId(3)).unwrap();
            assert!(hit.verified, "cache hits are verified-once");
            assert_eq!(hit.data, data);
            assert_eq!(dn.cache_stats().hits(), 1);
            assert_eq!(dn.cache_stats().misses, 1);
            // An overwrite stores the new bytes through: the next cached
            // read serves them, verified.
            let v2 = Block::from(vec![9u8; 512]);
            dn.put(BlockId(3), v2.clone()).unwrap();
            let after = dn.cached_read(BlockId(3)).unwrap();
            assert!(after.verified);
            assert!(after.data.shares_buffer(&v2));
            assert_eq!(dn.cache_stats().evictions, 0, "{backend:?}");
        }
    }

    /// A node with a cache, `v1` stored under block 3 but no longer cached
    /// (as after an eviction), and a reader's miss of it: the bytes the
    /// reader will admit after its checksum pass.
    fn node_with_a_read_in_flight(backend: StoreBackend) -> (DataNode, CachedRead) {
        let dn = DataNode::with_backend(NodeId(1), backend, CacheConfig::default(), 42).unwrap();
        dn.put(BlockId(3), Block::from(vec![1u8; 512])).unwrap();
        dn.cache.as_ref().unwrap().invalidate(BlockId(3));
        let miss = dn.cached_read(BlockId(3)).unwrap();
        assert!(!miss.verified);
        (dn, miss)
    }

    #[test]
    fn a_read_fetched_before_a_put_is_not_admitted_after_it() {
        for backend in [StoreBackend::Memory, StoreBackend::Extent] {
            // miss → put(v2) returns → admit(v1): the cache must not serve v1.
            let (dn, v1) = node_with_a_read_in_flight(backend);
            let v2 = Block::from(vec![2u8; 512]);
            dn.put(BlockId(3), v2.clone()).unwrap();
            dn.admit(BlockId(3), &v1.data, v1.crc);
            let after = dn.cached_read(BlockId(3)).unwrap();
            assert!(after.verified, "{backend:?}: the put stored v2 through");
            assert_eq!(after.data, v2, "{backend:?}: the stale read was admitted");
            // A read of what the store holds now is admitted as before.
            dn.cache.as_ref().unwrap().invalidate(BlockId(3));
            let read = dn.cached_read(BlockId(3)).unwrap();
            assert!(!read.verified, "{backend:?}");
            dn.admit(BlockId(3), &read.data, read.crc);
            let hit = dn.cached_read(BlockId(3)).unwrap();
            assert!(hit.verified, "{backend:?}");
            assert_eq!(hit.data, v2, "{backend:?}");
        }
    }

    #[test]
    fn a_read_fetched_before_a_delete_is_not_admitted_after_it() {
        for backend in [StoreBackend::Memory, StoreBackend::Extent] {
            let (dn, v1) = node_with_a_read_in_flight(backend);
            assert!(dn.delete(BlockId(3)));
            dn.admit(BlockId(3), &v1.data, v1.crc);
            assert!(dn.cached_read(BlockId(3)).is_none(), "{backend:?}: served a deleted block");
            assert_eq!(dn.cache_stats().hits(), 0, "{backend:?}");
        }
    }

    /// The memory store, refusing every `put` while `refuse` is set.
    #[derive(Debug, Default)]
    struct Refusing {
        store: ShardedMemStore,
        refuse: Arc<AtomicBool>,
    }

    impl BlockStore for Refusing {
        fn put(&self, block: BlockId, data: Block, crc: u32) -> Result<()> {
            if self.refuse.load(Ordering::Relaxed) {
                return Err(ear_types::Error::Io { context: "refused".into() });
            }
            self.store.put(block, data, crc)
        }
        fn get_with_crc(&self, block: BlockId) -> Option<(Block, u32)> {
            self.store.get_with_crc(block)
        }
        fn stored_crc(&self, block: BlockId) -> Option<u32> {
            self.store.stored_crc(block)
        }
        fn delete(&self, block: BlockId) -> bool {
            self.store.delete(block)
        }
        fn contains(&self, block: BlockId) -> bool {
            self.store.contains(block)
        }
        fn block_count(&self) -> usize {
            self.store.block_count()
        }
        fn bytes_stored(&self) -> u64 {
            self.store.bytes_stored()
        }
        fn backend(&self) -> StoreBackend {
            self.store.backend()
        }
    }

    #[test]
    fn a_put_that_fails_leaves_no_cached_copy() {
        let store = Refusing::default();
        let refuse = Arc::clone(&store.refuse);
        let dn = DataNode {
            id: NodeId(0),
            store: Box::new(store),
            cache: BlockCache::new(CacheConfig::default(), 1),
        };
        let v1 = Block::from(vec![1u8; 256]);
        dn.put(BlockId(4), v1.clone()).unwrap();
        assert!(dn.cached_read(BlockId(4)).unwrap().verified, "a put stores through");
        refuse.store(true, Ordering::Relaxed);
        assert!(dn.put(BlockId(4), Block::from(vec![2u8; 256])).is_err());
        let after = dn.cached_read(BlockId(4)).unwrap();
        assert!(!after.verified, "a failed put drops the cached copy");
        assert_eq!(after.data, v1, "the store keeps what it held");
        assert_eq!(dn.cache_stats().invalidations, 1);
        // A failed first put of a block caches nothing either.
        assert!(dn.put(BlockId(5), Block::from(vec![5u8; 256])).is_err());
        assert!(dn.cached_read(BlockId(5)).is_none());
    }

    #[test]
    fn scrub_catches_corruption_written_under_a_cached_block() {
        // Bit-rot on the stored copy while the cache holds the good bytes:
        // cached reads keep serving what was admitted, but the scrubber's
        // get_with_crc seam reads the authoritative store and must see the
        // mismatch.
        let dn = DataNode::with_backend(
            NodeId(2),
            StoreBackend::Memory,
            CacheConfig::Sized { bytes: 2 << 16 },
            7,
        )
        .unwrap();
        let good = Block::from(vec![0xA5u8; 256]);
        dn.put(BlockId(9), good.clone()).unwrap();
        let read = dn.cached_read(BlockId(9)).unwrap();
        assert!(read.verified, "the put stored the good bytes through");

        // Rot the stored replica: corrupt bytes under the original CRC. The
        // hook drops the cached copy; a reader that verified the good
        // bytes just before the rot re-admits them under the unchanged CRC.
        let mut rotten = good.to_vec();
        rotten[33] ^= 0xFF;
        dn.rot(BlockId(9), rotten);
        assert!(!dn.cached_read(BlockId(9)).unwrap().verified);
        dn.admit(BlockId(9), &read.data, read.crc);

        // The cache serves the admitted (good) bytes...
        let hit = dn.cached_read(BlockId(9)).unwrap();
        assert!(hit.verified);
        assert_eq!(hit.data.as_slice(), good.as_slice());

        // ...but the scrub path reads the store and catches the mismatch.
        let (scrubbed, crc) = dn.get_with_crc(BlockId(9)).unwrap();
        assert_ne!(
            crc32c(&scrubbed),
            crc,
            "scrub must see the rotten bytes, not the cached copy"
        );

        // Repairing through put() restores coherence: the repaired bytes
        // replace the cached copy in place.
        let repaired = Block::from(good.to_vec());
        dn.put(BlockId(9), repaired.clone()).unwrap();
        let after = dn.cached_read(BlockId(9)).unwrap();
        assert!(after.verified);
        assert!(after.data.shares_buffer(&repaired), "repair must refresh the cache");
        let (stored, crc) = dn.get_with_crc(BlockId(9)).unwrap();
        assert_eq!(crc32c(&stored), crc);
    }

    #[test]
    fn cache_off_never_reports_verified() {
        let dn =
            DataNode::with_backend(NodeId(0), StoreBackend::Memory, CacheConfig::Off, 1).unwrap();
        assert!(!dn.cache_enabled());
        let data = Block::from(vec![1u8; 64]);
        dn.put(BlockId(1), data.clone()).unwrap();
        let r = dn.cached_read(BlockId(1)).unwrap();
        assert!(!r.verified);
        dn.admit(BlockId(1), &r.data, r.crc); // no-op
        assert!(!dn.cached_read(BlockId(1)).unwrap().verified);
        assert_eq!(dn.cache_stats(), CacheStats::default());
    }
}
