//! A blocking token bucket: the building block of the emulated network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A token bucket refilled continuously at a fixed byte rate.
///
/// Threads call [`acquire`](TokenBucket::acquire) (or
/// [`draw`](TokenBucket::draw), with a clock reading they already hold) to
/// draw tokens before moving bytes; when the bucket is empty the call
/// sleeps just long enough for the deficit to refill, pacing all users of
/// the link to its bandwidth in aggregate.
///
/// The bucket capacity (burst) is 5 ms worth of tokens (at least one
/// 64 KiB chunk), so idle links cannot bank credit that would let later
/// transfers bypass pacing.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    /// Refill rate in bytes/s, stored as `f64` bits so it can be retuned at
    /// runtime (straggler emulation) without taking the state lock on reads.
    rate_bits: AtomicU64,
    burst: f64,
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    available: f64,
    last_refill: Instant,
}

impl State {
    /// Credits the tokens accrued between `last_refill` and `now` at
    /// `rate`, capped at `burst`. An instant older than `last_refill` (read
    /// before another thread refilled) credits nothing and leaves
    /// `last_refill` where it is, so the time it missed is credited by the
    /// next draw instead: a stale instant defers a refill, never grants one.
    fn refill(&mut self, now: Instant, rate: f64, burst: f64) {
        let now = now.max(self.last_refill);
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.available = (self.available + elapsed * rate).min(burst);
        self.last_refill = now;
    }
}

impl TokenBucket {
    /// Creates a bucket refilled at `rate_bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub(crate) fn new(rate_bytes_per_sec: f64) -> Self {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec > 0.0,
            "token bucket rate must be finite and positive"
        );
        TokenBucket {
            rate_bits: AtomicU64::new(rate_bytes_per_sec.to_bits()),
            burst: (rate_bytes_per_sec * 0.005).max(64.0 * 1024.0),
            state: Mutex::new(State {
                available: 0.0,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Locks the refill state. Every update leaves `State` valid, so a lock
    /// poisoned by a panicked holder is entered anyway.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The refill rate in bytes per second.
    pub(crate) fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// Retunes the refill rate (straggler emulation: a slow NIC or an
    /// oversubscribed link). Tokens accrued so far are settled at the old
    /// rate first, so a rate change never retroactively re-prices the past.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub(crate) fn set_rate(&self, rate_bytes_per_sec: f64) {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec > 0.0,
            "token bucket rate must be finite and positive"
        );
        let mut s = self.state();
        s.refill(Instant::now(), self.rate(), self.burst);
        self.rate_bits
            .store(rate_bytes_per_sec.to_bits(), Ordering::Relaxed);
    }

    /// Blocks until `bytes` tokens have been drawn from the bucket.
    pub(crate) fn acquire(&self, bytes: u64) {
        self.draw(bytes, Instant::now());
    }

    /// Blocks until `bytes` tokens have been drawn, given `now`, a clock
    /// reading the caller already holds. That reading serves only a draw
    /// the bucket covers in full as of it; every other round (a short
    /// bucket, a round after a sleep or a partial take) refills as of the
    /// clock read under the lock, so each decision to take part of a draw
    /// or to sleep is made on a fresh reading. Returns the last reading the
    /// draw used, so a caller drawing on several buckets in a row reads the
    /// clock once unless one of them runs short.
    pub(crate) fn draw(&self, bytes: u64, now: Instant) -> Instant {
        let mut remaining = bytes as f64;
        let mut given = Some(now);
        let mut last = now;
        while remaining > 0.0 {
            let rate = self.rate();
            let wait = {
                let mut s = self.state();
                if let Some(t) = given.take() {
                    s.refill(t, rate, self.burst);
                }
                if s.available < remaining {
                    last = Instant::now();
                    s.refill(last, rate, self.burst);
                }
                if s.available > 0.0 {
                    let take = s.available.min(remaining);
                    s.available -= take;
                    remaining -= take;
                    None
                } else {
                    // Sleep for the time one chunk of the deficit needs,
                    // capped to keep wakeups responsive under contention.
                    let deficit = remaining.min(self.burst / 8.0).max(1.0);
                    Some(Duration::from_secs_f64(deficit / rate))
                }
            };
            if let Some(d) = wait {
                std::thread::sleep(d);
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn acquire_paces_to_rate() {
        // 10 MB/s bucket, 2 MB acquisition from an empty bucket should take
        // roughly 0.2 s.
        let b = TokenBucket::new(10e6);
        let start = Instant::now();
        b.acquire(2_000_000);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            (0.12..0.6).contains(&elapsed),
            "expected ~0.2 s, got {elapsed}"
        );
    }

    #[test]
    fn concurrent_users_share_the_rate() {
        // Two threads drawing 1 MB each from a 10 MB/s bucket together take
        // about 0.2 s (not 0.1 s).
        let b = Arc::new(TokenBucket::new(10e6));
        let start = Instant::now();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.acquire(1_000_000))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            (0.12..0.7).contains(&elapsed),
            "expected ~0.2 s aggregate, got {elapsed}"
        );
    }

    #[test]
    fn burst_is_capped() {
        // A 1 MB/s bucket's burst is max(5 ms of tokens, 64 KiB) = 64 KiB.
        // However long the link idles, it banks no more than that, so a
        // 1.2 MB request from idle waits for at least (1.2 MB − 64 KiB) of
        // refill: ~1.13 s.
        let b = TokenBucket::new(1e6);
        assert_eq!(b.burst, 64.0 * 1024.0);
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        b.acquire(1_200_000);
        let floor = (1_200_000.0 - b.burst) / 1e6;
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= floor, "expected at least {floor} s, got {elapsed}");
    }

    /// Draws `bytes` from `b` as of `at`, which must cover them, and
    /// returns the tokens left.
    fn draw_at(b: &TokenBucket, bytes: u64, at: Instant) -> f64 {
        assert_eq!(b.draw(bytes, at), at, "a covered draw reads no clock");
        b.state().available
    }

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn a_stale_instant_never_grants_more_than_a_fresh_one() {
        // 1 MB/s: 1 000 tokens a millisecond, a 64 KiB burst. Instants are
        // injected as offsets from each bucket's construction-time refill.
        // A draw handed an instant older than the bucket's last refill (one
        // read before another thread refilled) credits nothing; the time it
        // missed is credited by the next draw: deferred, never lost.
        let ms = |b: &TokenBucket| {
            let t0 = b.state().last_refill;
            move |n: u64| t0 + Duration::from_millis(n)
        };
        let (fresh, stale) = (TokenBucket::new(1e6), TokenBucket::new(1e6));
        let (f, s) = (ms(&fresh), ms(&stale));
        assert!(near(draw_at(&fresh, 100, f(10)), 9_900.0));
        assert!(near(draw_at(&stale, 100, s(10)), 9_900.0));
        assert!(near(draw_at(&fresh, 100, f(12)), 11_800.0));
        assert!(near(draw_at(&stale, 100, s(4)), 9_800.0), "a stale instant credits nothing");
        assert_eq!(stale.state().last_refill, s(10), "and does not move the refill back");
        let (a, b) = (draw_at(&fresh, 100, f(20)), draw_at(&stale, 100, s(20)));
        assert!(near(a, 19_700.0) && near(b, 19_700.0), "fresh {a}, stale {b}");
        // At every age, a stale instant grants at most what a fresh one
        // does.
        for age in 0..=10 {
            let (fresh, stale) = (TokenBucket::new(1e6), TokenBucket::new(1e6));
            let (f, s) = (ms(&fresh), ms(&stale));
            draw_at(&fresh, 1, f(10));
            draw_at(&stale, 1, s(10));
            let (a, b) = (draw_at(&fresh, 1, f(10)), draw_at(&stale, 1, s(10 - age)));
            assert!(b <= a, "age {age} ms: stale {b} > fresh {a}");
        }
        // A draw its bucket cannot cover as of the given reading refills
        // from fresh readings and hands the last one back.
        let short = TokenBucket::new(1e6);
        let t0 = short.state().last_refill;
        assert!(short.draw(100, t0) > t0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_rate_rejects_nonpositive() {
        TokenBucket::new(1e6).set_rate(-1.0);
    }

    #[test]
    fn set_rate_slows_future_acquires() {
        // Throttle a 50 MB/s bucket to 2 MB/s: a 400 KB acquisition from an
        // empty bucket now takes ~0.2 s instead of ~8 ms.
        let b = TokenBucket::new(50e6);
        b.set_rate(2e6);
        assert_eq!(b.rate(), 2e6);
        let start = Instant::now();
        b.acquire(400_000);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            (0.1..0.8).contains(&elapsed),
            "expected ~0.2 s, got {elapsed}"
        );
    }
}
