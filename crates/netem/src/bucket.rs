//! A blocking token bucket: the building block of the emulated network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A token bucket refilled continuously at a fixed byte rate.
///
/// Threads call [`acquire`](TokenBucket::acquire) to draw tokens before
/// moving bytes; when the bucket is empty the call sleeps just long enough
/// for the deficit to refill, pacing all users of the link to its bandwidth
/// in aggregate.
///
/// The bucket capacity (burst) is 5 ms worth of tokens (at least one
/// 64 KiB chunk), so idle links cannot bank credit that would let later
/// transfers bypass pacing.
#[derive(Debug)]
pub struct TokenBucket {
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

impl TokenBucket {
    /// Creates a bucket refilled at `rate_bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn new(rate_bytes_per_sec: f64) -> Self {
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
    pub fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// Retunes the refill rate (straggler emulation: a slow NIC or an
    /// oversubscribed link). Tokens accrued so far are settled at the old
    /// rate first, so a rate change never retroactively re-prices the past.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn set_rate(&self, rate_bytes_per_sec: f64) {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec > 0.0,
            "token bucket rate must be finite and positive"
        );
        let mut s = self.state();
        let now = Instant::now();
        let elapsed = now.duration_since(s.last_refill).as_secs_f64();
        s.available = (s.available + elapsed * self.rate()).min(self.burst);
        s.last_refill = now;
        self.rate_bits
            .store(rate_bytes_per_sec.to_bits(), Ordering::Relaxed);
    }

    /// Blocks until `bytes` tokens have been drawn from the bucket.
    pub fn acquire(&self, bytes: u64) {
        let mut remaining = bytes as f64;
        while remaining > 0.0 {
            let rate = self.rate();
            let wait = {
                let mut s = self.state();
                let now = Instant::now();
                let elapsed = now.duration_since(s.last_refill).as_secs_f64();
                s.available = (s.available + elapsed * rate).min(self.burst);
                s.last_refill = now;
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
    }

    /// Tries to draw `bytes` without blocking; returns whether it succeeded.
    pub fn try_acquire(&self, bytes: u64) -> bool {
        let mut s = self.state();
        let now = Instant::now();
        let elapsed = now.duration_since(s.last_refill).as_secs_f64();
        s.available = (s.available + elapsed * self.rate()).min(self.burst);
        s.last_refill = now;
        if s.available >= bytes as f64 {
            s.available -= bytes as f64;
            true
        } else {
            false
        }
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
    fn try_acquire_does_not_block() {
        let b = TokenBucket::new(1e6);
        // Empty bucket: immediate failure.
        assert!(!b.try_acquire(500_000));
        std::thread::sleep(Duration::from_millis(120));
        // ~120 KB refilled.
        assert!(b.try_acquire(50_000));
    }

    #[test]
    fn burst_is_capped() {
        let b = TokenBucket::new(1e6);
        std::thread::sleep(Duration::from_millis(50));
        // Even after a long idle period the bucket never exceeds 1 s of
        // tokens; a 3 s request from idle must block for ~2+ s of refill.
        let start = Instant::now();
        b.acquire(1_200_000);
        assert!(start.elapsed().as_secs_f64() > 0.1);
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
