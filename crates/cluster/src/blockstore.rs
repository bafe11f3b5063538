//! Pluggable block storage backends for the DataNodes (DESIGN.md §9).
//!
//! [`BlockStore`] is the seam between a DataNode's protocol surface and how
//! the replica bytes actually live on the machine. Payloads cross the seam
//! as [`Block`]s — shared immutable buffers — so a read never copies bytes
//! it can reference. Two engines implement it:
//!
//! * [`ShardedMemStore`] (here) — the volatile engine: lock-striped
//!   in-memory `HashMap`s. Reads clone the stored `Block` (three words), so
//!   replicas of the same block share memory across nodes and a reader
//!   never copies payload bytes.
//! * [`ExtentStore`](crate::ExtentStore) ([`crate::extent`]) — the durable
//!   engine: blocks packed into segment files, so the testbed exercises
//!   real I/O syscalls and a cluster survives a restart.
//!
//! Both keep the write-time CRC32C next to the bytes — the cluster's
//! end-to-end corruption check ([`crate::MiniCfs`]'s read path) re-hashes
//! what it received and compares against this stored value.

use crate::sync::Mutex;
use ear_types::{Block, BlockId, Error, Result, StoreBackend};
use std::collections::HashMap;
use std::fmt;

/// Number of lock stripes per store. A power of two so the shard index is a
/// shift of the mixed key; 16 stripes keep contention negligible for the
/// node counts the testbed runs (tens of nodes, a few concurrent services).
const SHARDS: usize = 16;

/// Maps a block id onto a shard index by Fibonacci hashing: sequential ids
/// (the NameNode allocates them densely) land on different stripes.
fn shard_of(block: BlockId) -> usize {
    (block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
}

/// Storage backend of one DataNode: keyed replica bytes plus their
/// write-time CRC32C.
///
/// Implementations must be safe to call from many cluster services at once
/// (client reads, the encoder, recovery, the healer); the provided backends
/// stripe their locks so concurrent operations on different blocks do not
/// serialize.
pub trait BlockStore: Send + Sync + fmt::Debug {
    /// Stores (or overwrites) a block replica with its write-time CRC32C.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the backing medium rejects the write (extent
    /// backend only; the memory backend is infallible).
    fn put(&self, block: BlockId, data: Block, crc: u32) -> Result<()>;

    /// Fetches a block replica together with its write-time CRC32C.
    fn get_with_crc(&self, block: BlockId) -> Option<(Block, u32)>;

    /// The write-time CRC32C of a stored replica, without reading the bytes.
    fn stored_crc(&self, block: BlockId) -> Option<u32>;

    /// Deletes a block replica; returns whether it existed.
    fn delete(&self, block: BlockId) -> bool;

    /// Whether this store holds the block.
    fn contains(&self, block: BlockId) -> bool;

    /// Number of block replicas stored.
    fn block_count(&self) -> usize;

    /// Total payload bytes stored (each replica counted at full size, as on
    /// a real disk).
    fn bytes_stored(&self) -> u64;

    /// Which backend this store is (for stats and bench labels).
    fn backend(&self) -> StoreBackend;
}

/// One stored replica of the memory backend: the bytes plus the CRC32C
/// computed at write time, as HDFS stores a checksum file beside every block
/// file.
#[derive(Debug, Clone)]
struct StoredBlock {
    data: Block,
    crc: u32,
}

/// The in-memory backend: `SHARDS` independently locked `HashMap` stripes.
///
/// The stripe index is a pure function of the block id, so two operations
/// contend only when they touch blocks that hash to the same stripe — the
/// single coarse `Mutex<HashMap>` this replaces serialized every pair.
#[derive(Debug)]
pub struct ShardedMemStore {
    shards: Vec<Mutex<HashMap<BlockId, StoredBlock>>>,
}

impl Default for ShardedMemStore {
    fn default() -> Self {
        ShardedMemStore::new()
    }
}

impl ShardedMemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ShardedMemStore {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The lock stripe owning `block`.
    #[expect(
        clippy::indexing_slicing,
        reason = "shard_of() is a % SHARDS reduction and new() allocates exactly SHARDS stripes"
    )]
    fn stripe_for(&self, block: BlockId) -> &Mutex<HashMap<BlockId, StoredBlock>> {
        &self.shards[shard_of(block)]
    }
}

impl BlockStore for ShardedMemStore {
    fn put(&self, block: BlockId, data: Block, crc: u32) -> Result<()> {
        self.stripe_for(block)
            .lock()
            .insert(block, StoredBlock { data, crc });
        Ok(())
    }

    fn get_with_crc(&self, block: BlockId) -> Option<(Block, u32)> {
        self.stripe_for(block)
            .lock()
            .get(&block)
            .map(|s| (s.data.clone(), s.crc))
    }

    fn stored_crc(&self, block: BlockId) -> Option<u32> {
        self.stripe_for(block).lock().get(&block).map(|s| s.crc)
    }

    fn delete(&self, block: BlockId) -> bool {
        self.stripe_for(block).lock().remove(&block).is_some()
    }

    fn contains(&self, block: BlockId) -> bool {
        self.stripe_for(block).lock().contains_key(&block)
    }

    fn block_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn bytes_stored(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().values().map(|b| b.data.len() as u64).sum::<u64>())
            .sum()
    }

    fn backend(&self) -> StoreBackend {
        StoreBackend::Memory
    }
}

/// Builds a store of the requested backend (`label` names the extent
/// backend's temp root).
///
/// # Errors
///
/// [`Error::Io`] if the extent backend cannot create its root.
pub fn open_store(backend: StoreBackend, label: &str) -> Result<Box<dyn BlockStore>> {
    Ok(match backend {
        StoreBackend::Memory => Box::new(ShardedMemStore::new()),
        StoreBackend::Extent => Box::new(crate::extent::ExtentStore::new(label)?),
    })
}

/// Builds a *persistent* store of the requested backend rooted at `root`:
/// existing state is recovered on open and the root is kept on drop. The
/// memory backend cannot satisfy this and returns a typed error — a typo'd
/// `EAR_STORE` must never silently produce a cluster that forgets on
/// restart (DESIGN.md §13).
///
/// # Errors
///
/// [`Error::NotDurable`] for the memory backend; [`Error::Io`] /
/// [`Error::WalCorrupt`] if the on-disk state cannot be opened or
/// recovered.
pub fn open_store_at(
    backend: StoreBackend,
    root: &std::path::Path,
    sync: bool,
) -> Result<Box<dyn BlockStore>> {
    match backend {
        StoreBackend::Memory => Err(Error::NotDurable { backend: "memory" }),
        StoreBackend::Extent => Ok(Box::new(crate::extent::ExtentStore::open_at(root, sync)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::crc::crc32c;

    #[test]
    fn memory_roundtrip() {
        for store in [ShardedMemStore::new(), ShardedMemStore::default()] {
            assert_eq!(store.backend(), StoreBackend::Memory);
            let data = Block::from(vec![7u8; 500]);
            let crc = crc32c(&data);
            store.put(BlockId(42), data.clone(), crc).unwrap();
            assert!(store.contains(BlockId(42)));
            assert_eq!(store.block_count(), 1);
            assert_eq!(store.bytes_stored(), 500);
            assert_eq!(store.stored_crc(BlockId(42)), Some(crc));
            let (bytes, got) = store.get_with_crc(BlockId(42)).unwrap();
            assert_eq!(bytes.as_slice(), data.as_slice());
            assert_eq!(got, crc);
            assert!(store.delete(BlockId(42)));
            assert!(!store.delete(BlockId(42)));
            assert!(store.get_with_crc(BlockId(42)).is_none());
            assert_eq!(store.block_count(), 0);
            assert_eq!(store.bytes_stored(), 0);
        }
    }

    #[test]
    fn memory_reads_share_the_stored_allocation() {
        // The zero-copy contract of the memory backend: what `get` returns
        // views the very buffer `put` stored.
        let s = ShardedMemStore::new();
        let data = Block::from(vec![3u8; 256]);
        s.put(BlockId(1), data.clone(), crc32c(&data)).unwrap();
        let (back, _) = s.get_with_crc(BlockId(1)).unwrap();
        assert!(back.shares_buffer(&data));
    }

    #[test]
    fn sequential_ids_spread_over_shards() {
        let hit: std::collections::HashSet<usize> =
            (0..64u64).map(|i| shard_of(BlockId(i))).collect();
        assert!(hit.len() > SHARDS / 2, "dense ids must stripe: {hit:?}");
    }
}
