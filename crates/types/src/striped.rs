//! [`Striped`]: per-thread copies of a value that concurrent threads
//! update without a lock, and the one dealing of threads to stripes.

use crate::Padded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`Striped`]: more than the threads that update one at once
/// (the clients, the encode and repair workers), so consecutive threads
/// never share one.
pub const STRIPES: usize = 16;

/// The stripe the next thread is dealt.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, dealt at its first use.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Per-thread stripes of a `T` whose fields are atomics, updated relaxed
/// (the cluster's I/O and cache counters, netem's traffic counters and
/// token leases). A thread is dealt a stripe at its first use, round robin
/// over [`STRIPES`], and keeps it in every `Striped`, so concurrent threads
/// do not write the same cache lines. Sums over the stripes are exact once
/// the updating threads have joined (or returned), which is how every
/// consumer reads them.
#[derive(Debug, Default)]
pub struct Striped<T>([Padded<T>; STRIPES]);

impl<T> Striped<T> {
    /// The calling thread's stripe.
    #[expect(clippy::indexing_slicing, reason = "STRIPE is taken modulo STRIPES")]
    pub fn mine(&self) -> &T {
        &self.0[STRIPE.with(|&i| i)]
    }

    /// Every stripe, in stripe order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|p| &p.0)
    }

    /// One counter summed over the stripes.
    pub fn total(&self, counter: impl Fn(&T) -> &AtomicU64) -> u64 {
        self.iter().map(|c| counter(c).load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "counts from scoped threads")]
    fn a_thread_keeps_its_stripe_and_totals_sum_every_stripe() {
        let s: Striped<AtomicU64> = Striped::default();
        let mine = |s: &Striped<AtomicU64>| s.iter().position(|c| std::ptr::eq(c, s.mine()));
        let here = mine(&s);
        assert_eq!(here, mine(&Striped::default()), "one dealing for every Striped");
        s.mine().fetch_add(2, Ordering::Relaxed);
        std::thread::scope(|t| {
            for _ in 0..3 {
                t.spawn(|| s.mine().fetch_add(1, Ordering::Relaxed));
            }
        });
        assert_eq!(s.total(|c| c), 5);
        assert_eq!(s.iter().count(), STRIPES);
        assert_eq!(mine(&s), here);
    }
}
