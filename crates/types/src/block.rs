//! [`Block`]: the shared immutable block buffer of the data plane.
//!
//! Every payload that moves through the cluster — client reads, stripe
//! downloads, parity uploads, repair traffic, cached replicas — is a
//! [`Block`]: a view into a reference-counted immutable byte buffer.
//! Cloning a `Block` copies four words, never the payload, and
//! [`Block::slice`] produces a sub-view over the *same* allocation, so a
//! store can hand out the payload portion of an on-disk image (header +
//! payload) without re-copying the bytes.
//!
//! A `Block` adopts the `Vec<u8>` it is built from: [`Block::from`] moves
//! the vector behind an `Arc` without touching its bytes, so a client
//! write's buffer, an extent read's `pread` buffer and a fold's output rows
//! become blocks without a copy. Only `Block::from(&[u8])` copies, because
//! it must. An `Arc` of a bare slice would save the one pointer load per
//! [`Block::as_slice`] that the vector's header costs, but building one
//! from a `Vec` allocates a second buffer and copies the whole payload into
//! it. The vector's spare capacity is released on adoption, so a block pins
//! exactly the bytes it views.
//!
//! Because the bytes cannot change, a handle may also carry their CRC32C —
//! a *stamp*. Only two things set it, and both hash the bytes:
//! [`Block::stamped`] at a producer and [`Block::verified`] after a
//! checksum pass, so a stamp is always the true CRC of its view. Clones
//! keep it, a narrower [`Block::slice`] drops it, and bytes that arrive
//! from anywhere else ([`Block::from`]: a disk image, a corrupted wire
//! copy) have none. A writer may trust a stamp instead of hashing again; a
//! verifier never reads one.

use crate::crc::crc32c;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable view into a shared byte buffer.
///
/// ```
/// use ear_types::Block;
///
/// let b = Block::from(vec![1u8, 2, 3, 4, 5]);
/// let tail = b.slice(2, 3).unwrap();
/// assert_eq!(&tail[..], &[3, 4, 5]);
/// assert!(b.shares_buffer(&tail)); // same allocation, no copy
/// ```
#[derive(Clone)]
pub struct Block {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
    /// CRC32C of exactly `buf[off..off + len]`, when a producer or a
    /// verifier already hashed this view.
    crc: Option<u32>,
}

impl Block {
    /// This handle carrying the CRC32C of its view, hashed here unless it
    /// already carries one. Producers call it once, before a payload fans
    /// out to its replicas.
    ///
    /// ```
    /// use ear_types::{crc::crc32c, Block};
    ///
    /// let b = Block::from(vec![7u8; 64]).stamped();
    /// assert_eq!(b.clone().stamp(), Some(crc32c(&b)));
    /// assert_eq!(b.slice(0, 8).unwrap().stamp(), None); // a narrower view
    /// ```
    pub fn stamped(mut self) -> Block {
        if self.crc.is_none() {
            self.crc = Some(crc32c(self.as_slice()));
        }
        self
    }

    /// Hashes the bytes — whatever stamp the handle carries is ignored —
    /// and returns the handle, stamped, iff they match `expected`.
    pub fn verified(mut self, expected: u32) -> Option<Block> {
        if crc32c(self.as_slice()) != expected {
            return None;
        }
        self.crc = Some(expected);
        Some(self)
    }

    /// The CRC32C this handle carries, if any. For writers only: a check
    /// that must catch corruption hashes the bytes instead.
    #[inline]
    pub fn stamp(&self) -> Option<u32> {
        self.crc
    }

    /// The bytes of this view.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // In range by construction: every constructor and `slice` upholds
        // `off + len <= buf.len()`.
        &self.buf[self.off..self.off + self.len]
    }

    /// Length of this view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `len` bytes starting at `offset`, sharing the same
    /// allocation (no bytes are copied); a stamp survives only if the
    /// sub-view is the whole view. Returns `None` if the requested
    /// range does not fit in this view — callers on the panic-free data
    /// plane propagate that as a typed error instead of slicing blind.
    pub fn slice(&self, offset: usize, len: usize) -> Option<Block> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        Some(Block {
            buf: Arc::clone(&self.buf),
            off: self.off + offset,
            len,
            // The stamp covers the whole view: only a slice of all of it
            // may keep it.
            crc: self.crc.filter(|_| len == self.len),
        })
    }

    /// The sub-view from `offset` to the end (shared allocation).
    pub fn suffix(&self, offset: usize) -> Option<Block> {
        self.slice(offset, self.len.checked_sub(offset)?)
    }

    /// Copies this view out into an owned `Vec` — the boundary into APIs
    /// that genuinely need owned/mutable bytes (e.g. an erasure codec's
    /// shard workspace).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Whether two blocks view the same underlying allocation (they may
    /// still cover different ranges of it).
    pub fn shares_buffer(&self, other: &Block) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Number of strong references to the underlying allocation — test
    /// hook for "replicas share memory" style assertions.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }
}

/// Adopts the vector, viewing all of it. An exactly sized vector is not
/// copied; spare capacity is released first, which may move the bytes.
impl From<Vec<u8>> for Block {
    fn from(mut v: Vec<u8>) -> Self {
        v.shrink_to_fit();
        let len = v.len();
        Block {
            buf: Arc::new(v),
            off: 0,
            len,
            crc: None,
        }
    }
}

impl From<&[u8]> for Block {
    fn from(s: &[u8]) -> Self {
        Block::from(s.to_vec())
    }
}

impl Deref for Block {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Block {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::from(Vec::new())
    }
}

/// Byte-wise equality of the viewed ranges (not allocation identity).
impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Block {}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Payloads are kilobytes to megabytes; print shape, not contents.
        write!(
            f,
            "Block {{ len: {}, off: {}, buf_len: {} }}",
            self.len,
            self.off,
            self.buf.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_deref() {
        let b = Block::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn from_vec_adopts_the_allocation_and_releases_spare_capacity() {
        let v = vec![9u8; 4096];
        let at = v.as_ptr();
        let b = Block::from(v);
        assert_eq!(b.as_ptr(), at, "an exactly sized vector is adopted, not copied");
        assert_eq!(b.buf.capacity(), b.len());

        let mut roomy = Vec::with_capacity(8192);
        roomy.extend_from_slice(&[1u8; 100]);
        let b = Block::from(roomy);
        assert_eq!((b.len(), b.buf.capacity()), (100, 100), "no spare capacity is pinned");
        assert_eq!(&b[..], &[1u8; 100][..]);
    }

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let b = Block::from(vec![0u8; 64]);
        let c = b.clone();
        assert!(b.shares_buffer(&c));
        assert_eq!(b.ref_count(), 2);
        let s = b.slice(8, 16).unwrap();
        assert!(s.shares_buffer(&b));
        assert_eq!(s.len(), 16);
        drop(c);
        assert_eq!(b.ref_count(), 2); // b + s
    }

    #[test]
    fn slice_bounds_are_checked_not_panicking() {
        let b = Block::from(vec![0u8; 8]);
        assert!(b.slice(0, 8).is_some());
        assert!(b.slice(8, 0).is_some());
        assert!(b.slice(4, 5).is_none());
        assert!(b.slice(9, 0).is_none());
        assert!(b.slice(usize::MAX, 2).is_none(), "offset+len must not overflow");
        assert!(b.suffix(3).is_some_and(|s| s.len() == 5));
        assert!(b.suffix(9).is_none());
    }

    #[test]
    fn nested_slices_compose_offsets() {
        let b = Block::from((0u8..32).collect::<Vec<u8>>());
        let s = b.suffix(4).unwrap(); // bytes 4..32
        let t = s.slice(4, 8).unwrap(); // bytes 8..16 of the original
        assert_eq!(&t[..], &(8u8..16).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn equality_is_by_bytes_not_identity() {
        let a = Block::from(vec![5u8, 6, 7]);
        let b = Block::from(vec![5u8, 6, 7]);
        assert_eq!(a, b);
        assert!(!a.shares_buffer(&b));
        assert_ne!(a, Block::from(vec![5u8, 6]));
        assert_eq!(Block::default().len(), 0);
    }

    /// [`crc32c`] calls this thread makes while running `f`.
    fn hashes_in(f: impl FnOnce()) -> usize {
        use crate::crc::tests::HASHES;
        let before = HASHES.with(|n| n.get());
        f();
        HASHES.with(|n| n.get()) - before
    }

    #[test]
    fn stamp_follows_the_view_it_was_computed_for() {
        let bytes: Vec<u8> = (0u8..64).collect();
        let plain = Block::from(bytes.clone());
        assert_eq!(plain.stamp(), None, "Block::from carries no stamp");
        assert_eq!(Block::from(&bytes[..]).stamp(), None);
        assert_eq!(Block::default().stamp(), None);

        let b = plain.stamped();
        let crc = crc32c(&bytes);
        assert_eq!(b.stamp(), Some(crc));
        assert_eq!(b.clone().stamp(), Some(crc), "clone keeps the stamp");
        assert_eq!(b.slice(0, 64).unwrap().stamp(), Some(crc), "whole-view slice keeps it");
        assert_eq!(b.suffix(0).unwrap().stamp(), Some(crc));
        assert_eq!(b.slice(0, 63).unwrap().stamp(), None, "narrower slice drops it");
        assert_eq!(b.slice(1, 63).unwrap().stamp(), None);
        assert_eq!(b.suffix(8).unwrap().stamp(), None, "narrower suffix drops it");

        // A stamp computed on a sub-view is that sub-view's CRC.
        let tail = b.suffix(8).unwrap().stamped();
        assert_eq!(tail.stamp(), Some(crc32c(&bytes[8..])));
        assert_eq!(tail.slice(0, 56).unwrap().stamp(), tail.stamp());
    }

    #[test]
    fn a_stamped_payload_is_hashed_once_however_many_replicas_take_it() {
        let mut stamps = Vec::new();
        let hashes = hashes_in(|| {
            let b = Block::from(vec![0xA5u8; 4096]).stamped();
            for replica in [b.clone(), b.clone(), b] {
                // What `DataNode::put` does with each replica's handle.
                stamps.push(replica.stamp().unwrap_or_else(|| crc32c(&replica)));
            }
        });
        assert_eq!(hashes, 1);
        assert_eq!(stamps, vec![crc32c(&[0xA5u8; 4096]); 3]);
        assert_eq!(hashes_in(|| drop(Block::from(vec![1u8; 8]).stamped().stamped())), 1);
    }

    #[test]
    fn verified_hashes_the_bytes_and_never_trusts_a_stamp() {
        let good = Block::from(vec![3u8; 256]);
        let crc = crc32c(&good);
        assert_eq!(good.clone().verified(crc ^ 1), None);
        let ok = good.clone().verified(crc).unwrap();
        assert_eq!(ok.stamp(), Some(crc), "a pass stamps the handle");
        // An already stamped handle is hashed again, and a stamp that
        // disagrees with `expected` cannot turn a mismatch into a pass.
        assert_eq!(hashes_in(|| assert!(ok.clone().verified(crc).is_some())), 1);
        assert_eq!(hashes_in(|| assert!(ok.clone().verified(crc ^ 1).is_none())), 1);
    }
}
