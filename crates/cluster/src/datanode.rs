//! The DataNode: one emulated machine's block service over a pluggable
//! [`BlockStore`] backend (memory or extent; DESIGN.md §9), fronted
//! by an optional [`BlockCache`] (DESIGN.md §12).

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
    /// `true` iff the bytes come from the cache, which only admits
    /// checksum-verified reads.
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
/// The cache is write-invalidate: [`DataNode::put`] and
/// [`DataNode::delete`] change the store and then drop any cached copy,
/// and only [`DataNode::admit`] (called by the I/O service after a
/// checksum pass) populates it, and only while the store still holds what
/// was read: a reader that fetched before a `put` or `delete` cannot
/// re-admit the old bytes after it. [`DataNode::get`] /
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
    /// invalidates any cached copy.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::Io`] if the backend cannot persist the bytes
    /// (extent backend only).
    pub fn put(&self, block: BlockId, data: Block) -> Result<()> {
        let crc = data.stamp().unwrap_or_else(|| crc32c(&data));
        let stored = self.store.put(block, data, crc);
        if let Some(c) = &self.cache {
            c.invalidate(block);
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
    /// going around `put` and its write-invalidate — a decaying sector.
    #[cfg(test)]
    pub(crate) fn rot(&self, block: BlockId, bytes: Vec<u8>) {
        let crc = self.store.stored_crc(block).unwrap();
        self.store.put(block, Block::from(bytes), crc).unwrap();
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
        assert_eq!(data.ref_count(), 3, "two stored views plus the original");
        assert!(a.get(BlockId(1)).unwrap().shares_buffer(&data));
        assert!(b.get(BlockId(1)).unwrap().shares_buffer(&data));
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
            let dn = DataNode::with_backend(
                NodeId(1),
                backend,
                CacheConfig::Sized {
                    hot_bytes: 1 << 16,
                    cold_bytes: 1 << 16,
                },
                42,
            )
            .unwrap();
            let data = Block::from(vec![8u8; 512]);
            dn.put(BlockId(3), data.clone()).unwrap();
            let miss = dn.cached_read(BlockId(3)).unwrap();
            assert!(!miss.verified, "store reads must be re-verified");
            assert_eq!(miss.data, data);
            dn.admit(BlockId(3), &miss.data, miss.crc);
            let hit = dn.cached_read(BlockId(3)).unwrap();
            assert!(hit.verified, "cache hits are verified-once");
            assert_eq!(hit.data, data);
            assert_eq!(dn.cache_stats().hits(), 1);
            assert_eq!(dn.cache_stats().misses, 1);
            // Overwrite invalidates: the next cached read misses again.
            dn.put(BlockId(3), Block::from(vec![9u8; 512])).unwrap();
            let after = dn.cached_read(BlockId(3)).unwrap();
            assert!(!after.verified);
            assert_eq!(after.data.as_slice(), &[9u8; 512][..]);
        }
    }

    /// A node with a cache, `v1` stored under block 3, and a reader's miss
    /// of it: the bytes the reader will admit after its checksum pass.
    fn node_with_a_read_in_flight(backend: StoreBackend) -> (DataNode, CachedRead) {
        let dn = DataNode::with_backend(NodeId(1), backend, CacheConfig::default(), 42).unwrap();
        dn.put(BlockId(3), Block::from(vec![1u8; 512])).unwrap();
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
            assert!(!after.verified, "{backend:?}: the stale read was admitted");
            assert_eq!(after.data, v2, "{backend:?}");
            // A read of what the store holds now is admitted as before.
            dn.admit(BlockId(3), &after.data, after.crc);
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

    #[test]
    fn scrub_catches_corruption_written_under_a_cached_block() {
        // Bit-rot on the stored copy while the cache holds the good bytes:
        // cached reads keep serving what was admitted, but the scrubber's
        // get_with_crc seam reads the authoritative store and must see the
        // mismatch.
        let dn = DataNode::with_backend(
            NodeId(2),
            StoreBackend::Memory,
            CacheConfig::Sized {
                hot_bytes: 1 << 16,
                cold_bytes: 1 << 16,
            },
            7,
        )
        .unwrap();
        let good = Block::from(vec![0xA5u8; 256]);
        dn.put(BlockId(9), good.clone()).unwrap();
        let read = dn.cached_read(BlockId(9)).unwrap();
        dn.admit(BlockId(9), &read.data, read.crc);
        assert!(dn.cached_read(BlockId(9)).unwrap().verified);

        // Rot the stored replica: corrupt bytes under the original CRC.
        let mut rotten = good.to_vec();
        rotten[33] ^= 0xFF;
        dn.rot(BlockId(9), rotten);

        // The cache still serves the admitted (good) bytes...
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

        // Repairing through put() restores coherence: the stale cached
        // copy is invalidated and the next read re-verifies the new bytes.
        dn.put(BlockId(9), good.clone()).unwrap();
        let repaired = dn.cached_read(BlockId(9)).unwrap();
        assert!(!repaired.verified, "repair must invalidate the cache");
        assert_eq!(repaired.data.as_slice(), good.as_slice());
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
