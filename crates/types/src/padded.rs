//! [`Padded`]: a value alone on its own pair of cache lines.

use std::ops::{Deref, DerefMut};

/// A `T` aligned to 128 bytes (so its size is a multiple of 128), so that
/// neighbouring elements of an array never share a cache line: threads that
/// write different elements (one DataNode each, one link each, one
/// metadata shard each) do not bounce a line between their cores.
///
/// 128 bytes, not 64, because x86 cores prefetch the adjacent 64-byte line
/// in pairs: two values on one 128-byte pair still interfere. All padding
/// goes through this one type.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Padded<T>(pub T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Padded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> From<T> for Padded<T> {
    fn from(value: T) -> Self {
        Padded(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, size_of};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn neighbours_sit_on_separate_line_pairs() {
        assert_eq!(align_of::<Padded<u8>>(), 128);
        assert_eq!(size_of::<Padded<u8>>(), 128);
        assert_eq!(size_of::<Padded<[u64; 17]>>(), 256, "a larger value rounds up");
        let v: Vec<Padded<AtomicU64>> = (0..3).map(|_| Padded::default()).collect();
        let gap = |i: usize| &*v[i + 1] as *const AtomicU64 as usize - &*v[i] as *const _ as usize;
        assert_eq!((gap(0), gap(1)), (128, 128));
        v[1].fetch_add(2, Ordering::Relaxed);
        assert_eq!(v.iter().map(|c| c.load(Ordering::Relaxed)).collect::<Vec<_>>(), [0, 2, 0]);
    }

    #[test]
    fn derefs_to_the_value() {
        let mut p = Padded::from(vec![1, 2]);
        p.push(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.0, [1, 2, 3]);
    }
}
