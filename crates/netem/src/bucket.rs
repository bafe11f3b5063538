//! A blocking token bucket with per-thread leases: the building block of
//! the emulated network.

use crate::network::CHUNK;
use ear_types::{Striped, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A token bucket refilled continuously at a fixed byte rate.
///
/// Threads call [`acquire`](TokenBucket::acquire) (or
/// [`draw`](TokenBucket::draw), with a clock reading they may already
/// hold) to draw tokens before moving bytes. A draw the bucket cannot
/// cover takes its tokens anyway, leaving the bucket in debt, and sleeps
/// until the debt has refilled, pacing all users of the link to its
/// bandwidth in aggregate.
///
/// The bucket capacity (burst) is 5 ms worth of tokens at the current rate
/// (at least one 64 KiB chunk), so idle links cannot bank credit that would
/// let later transfers bypass pacing; a retuned link re-derives it.
///
/// A link whose burst is wide enough also deals *leases*: tokens already
/// debited from the bucket, held per thread stripe ([`Striped`]). A draw
/// spends from its stripe's lease first, with one compare-and-swap on that
/// stripe and no lock or clock; only a draw its lease cannot cover takes
/// the locked debit, which then tops the lease up if the bucket holds the
/// tokens. The lease is the largest whole number of [`CHUNK`]s with
/// `STRIPES × lease ≤ burst / 2`, so the testbeds' paced links (32e6 and
/// 128e6 B/s: bursts of 160 kB and 640 kB) never lease. While leasing is
/// on, refills are capped at `burst − STRIPES × lease`: tokens in the
/// bucket and in leases never sum past `burst`, and the bytes a link
/// grants in any window stay within `burst + rate × window`.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    /// Refill rate in bytes/s, stored as `f64` bits so it can be retuned at
    /// runtime (straggler emulation) without taking the state lock on reads.
    rate_bits: AtomicU64,
    /// Bytes a lease is topped up to; 0 on a link too slow to lease.
    /// Stored under the state lock by [`set_rate`](Self::set_rate), which
    /// revokes every lease with it; relaxed, as a draw that reads the old
    /// size finds its lease emptied.
    lease: AtomicU64,
    /// The leased tokens, one stripe per thread stripe. Relaxed: a lease
    /// is a count of tokens and publishes no other data.
    leases: Striped<AtomicU64>,
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    available: f64,
    last_refill: Instant,
    /// What a refill may fill the bucket to: the burst less what the
    /// leases can hold.
    cap: f64,
}

impl State {
    /// Credits the tokens accrued between `last_refill` and `now` at
    /// `rate`, capped at `cap`. An instant older than `last_refill` (read
    /// before another thread refilled) credits nothing and leaves
    /// `last_refill` where it is, so the time it missed is credited by the
    /// next draw instead: a stale instant defers a refill, never grants one.
    fn refill(&mut self, now: Instant, rate: f64) {
        let now = now.max(self.last_refill);
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.available = (self.available + elapsed * rate).min(self.cap);
        self.last_refill = now;
    }
}

/// The lease size and the refill cap of a link at `rate`: the burst is 5 ms
/// of tokens (at least one chunk), a lease the largest whole number of
/// chunks with `STRIPES × lease ≤ burst / 2`, and the cap the burst less
/// what the leases can hold.
fn shape(rate: f64) -> (u64, f64) {
    let burst = (rate * 0.005).max(CHUNK as f64);
    let lease = (burst / 2.0 / STRIPES as f64 / CHUNK as f64).floor() as u64 * CHUNK;
    (lease, burst - (STRIPES as u64 * lease) as f64)
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
        let (lease, cap) = shape(rate_bytes_per_sec);
        TokenBucket {
            rate_bits: AtomicU64::new(rate_bytes_per_sec.to_bits()),
            lease: AtomicU64::new(lease),
            leases: Striped::default(),
            state: Mutex::new(State {
                available: 0.0,
                last_refill: Instant::now(),
                cap,
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
    /// Every lease is revoked (its tokens are dropped, never handed to
    /// another draw), so each draw from here on takes the locked debit at
    /// the new rate until it leases afresh. The burst, the lease size and
    /// the cap are re-derived from the new rate, and the bucket keeps no
    /// more than the new cap: a throttled link banks 5 ms of its new rate.
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
        s.refill(Instant::now(), self.rate());
        self.leases.iter().for_each(|l| l.store(0, Ordering::Relaxed));
        let (lease, cap) = shape(rate_bytes_per_sec);
        self.lease.store(lease, Ordering::Relaxed);
        s.cap = cap;
        s.available = s.available.min(cap);
        self.rate_bits
            .store(rate_bytes_per_sec.to_bits(), Ordering::Relaxed);
    }

    /// Blocks until `bytes` tokens have been drawn from the bucket.
    pub(crate) fn acquire(&self, bytes: u64) {
        self.draw(bytes, &mut None);
    }

    /// [`draw_on`](Self::draw_on) the calling thread's lease.
    pub(crate) fn draw(&self, bytes: u64, now: &mut Option<Instant>) {
        self.draw_on(self.leases.mine(), bytes, now);
    }

    /// Draws `bytes` from `lease` if it covers them; otherwise one
    /// [`debit`](Self::debit), then at most one sleep for the debt it
    /// leaves. `now` is a clock reading the caller may already hold: a
    /// debit reads the clock into it if it is empty and leaves the debit's
    /// reading there, so a caller drawing on several buckets in a row reads
    /// the clock at most once unless one of them runs short, and not at all
    /// while leases serve its draws.
    fn draw_on(&self, lease: &AtomicU64, bytes: u64, now: &mut Option<Instant>) {
        if self.lease.load(Ordering::Relaxed) > 0 && spend(lease, bytes) {
            return;
        }
        let given = *now.get_or_insert_with(Instant::now);
        let (wait, last) = self.debit(lease, bytes, given, Instant::now);
        *now = Some(last);
        if let Some(debt) = wait {
            std::thread::sleep(debt);
        }
    }

    /// Takes all of `bytes` under the lock, refilled as of `now` or, if that
    /// does not cover them, as of one fresh `clock()` reading. The tokens may
    /// go negative: a debt that later debits queue behind, in order. Then,
    /// on a leasing link, tops `lease` up to a full lease if the bucket
    /// still holds the tokens: a lease never puts the bucket in debt.
    /// Returns the sleep that pays the debt off, if any, and the debit's
    /// reading.
    fn debit(
        &self,
        lease: &AtomicU64,
        bytes: u64,
        now: Instant,
        clock: impl FnOnce() -> Instant,
    ) -> (Option<Duration>, Instant) {
        let mut s = self.state();
        let (rate, bytes) = (self.rate(), bytes as f64);
        s.refill(now, rate);
        let mut last = now;
        if s.available < bytes {
            last = clock();
            s.refill(last, rate);
        }
        s.available -= bytes;
        // Top-ups happen only here, under the lock, and spends only lower
        // the stripe, so it never holds more than one lease.
        let full = self.lease.load(Ordering::Relaxed);
        let top_up = full - lease.load(Ordering::Relaxed).min(full);
        if top_up > 0 && s.available >= top_up as f64 {
            s.available -= top_up as f64;
            lease.fetch_add(top_up, Ordering::Relaxed);
        }
        let wait = (s.available < 0.0).then(|| Duration::from_secs_f64(-s.available / rate));
        (wait, last)
    }
}

/// Takes `bytes` from `lease` if it holds them.
fn spend(lease: &AtomicU64, bytes: u64) -> bool {
    lease
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |have| have.checked_sub(bytes))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::prop;
    use std::cell::Cell;
    use std::sync::Arc;
    use std::time::Instant;

    impl TokenBucket {
        /// The bucket's capacity: what a refill may fill it to plus what
        /// the leases can hold.
        fn burst(&self) -> f64 {
            self.state().cap + (STRIPES as u64 * self.lease()) as f64
        }

        /// The lease size.
        fn lease(&self) -> u64 {
            self.lease.load(Ordering::Relaxed)
        }

        /// Tokens in every lease, in stripe order.
        fn leased(&self) -> Vec<u64> {
            self.leases.iter().map(|l| l.load(Ordering::Relaxed)).collect()
        }
    }

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
        assert_eq!(b.burst(), 64.0 * 1024.0);
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        b.acquire(1_200_000);
        let floor = (1_200_000.0 - b.burst()) / 1e6;
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= floor, "expected at least {floor} s, got {elapsed}");
    }

    /// Draws `bytes` from `b` as of `at`, which must cover them, and
    /// returns the tokens left in the bucket.
    fn draw_at(b: &TokenBucket, bytes: u64, at: Instant) -> f64 {
        let mut now = Some(at);
        b.draw(bytes, &mut now);
        assert_eq!(now, Some(at), "a covered draw reads no clock");
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
        let mut now = Some(t0);
        short.draw(100, &mut now);
        assert!(now > Some(t0));
    }

    #[test]
    fn a_short_draw_from_an_empty_bucket_waits_once_for_its_deficit() {
        // 1 MB/s, empty at t0. A 10 000-byte debit as of t0 finds nothing,
        // reads the clock once (2 ms later: 2 000 tokens), takes all 10 000
        // and waits exactly for the 8 000-byte deficit to refill.
        let b = TokenBucket::new(1e6);
        let t0 = b.state().last_refill;
        let fresh = t0 + Duration::from_millis(2);
        let reads = Cell::new(0);
        let clock = || {
            reads.set(reads.get() + 1);
            fresh
        };
        let lease = b.leases.mine();
        assert_eq!(b.debit(lease, 10_000, t0, clock), (Some(Duration::from_millis(8)), fresh));
        assert_eq!(reads.get(), 1);
        assert!(near(b.state().available, -8_000.0));
        // The next debit queues behind that debt: 1 000 more bytes on the
        // same reading wait 1 ms longer than the first.
        let (wait, last) = b.debit(lease, 1_000, fresh, || fresh);
        assert_eq!((wait, last), (Some(Duration::from_millis(9)), fresh));
    }

    #[test]
    fn debits_never_outrun_the_rate_and_wake_in_debit_order() {
        // Random draws on one bucket at 1e5 to 1e12 B/s (so most runs lease),
        // spread over four stripes' leases and interleaved with rate changes.
        // Draws run to 256 KiB or 3 ms of the current rate, so many exceed
        // the burst and leave multi-burst debts. The wall clock is modelled:
        // `wall` only moves forward, a draw's given reading may lag it by up
        // to 1 ms (read before the lock), and a fresh reading is `wall`
        // itself. A draw its stripe's lease covers is granted at `wall`; any
        // other is a debit, granted when its wait ends. Instants lie an hour
        // past the bucket's construction, so the wall-clock settle inside
        // `set_rate` is always stale and credits nothing: a new rate then
        // prices the whole interval since the last debit, and the bound below
        // prices each interval at the highest rate that was in effect across
        // it or that a pending wait was computed at. The bytes granted in
        // every window stay within the burst of the rate in effect at the
        // first debit (which credits the idle hour) plus that priced
        // interval, and a set_rate keeps no more than its new burst. Wake
        // order is checked between debits with no rate rise between them:
        // after a rise, a later debit may wake before an earlier one that
        // priced its wait at the slower rate, which then sleeps longer than
        // it had to.
        prop::check("debits_never_outrun_the_rate_and_wake_in_debit_order", 256, |rng| {
            let pick = |rng: &mut _| 1e5 * 10f64.powf(prop::range(rng, 0..=70) as f64 / 10.0);
            let mut rate = pick(rng);
            let b = TokenBucket::new(rate);
            // 5 ms of a rate: the burst of a link retuned to it.
            let burst_of = |rate: f64| (rate * 0.005).max(CHUNK as f64);
            // The bucket fills to the cap of the rate in effect at the
            // first debit, which credits the hour since construction.
            let mut opening = None;
            let leases: Vec<&AtomicU64> = b.leases.iter().take(4).collect();
            let start = b.state().last_refill + Duration::from_secs(3600);
            let secs = |t: Instant| t.duration_since(start).as_secs_f64();
            let mut wall = start;
            // Per debit: refill instant, highest rate since the previous
            // debit, rate the wait was computed at, wake instant.
            let mut debits: Vec<(f64, f64, f64, f64)> = Vec::new();
            // Per grant, lease spends and debits alike: instant, bytes, the
            // index in `rates` of the rate in effect when it was drawn, and
            // the instant its tokens left the bucket (a spend's own instant,
            // a debit's refill).
            let mut grants: Vec<(f64, f64, usize, f64)> = Vec::new();
            let mut rates = vec![rate];
            let (mut seen, mut top) = (rate, rate);
            let mut rose = false;
            for _ in 0..prop::range(rng, 1..=60) {
                if prop::range(rng, 0..=4) == 0 {
                    let new = pick(rng);
                    rose |= new > rate;
                    (rate, seen, top) = (new, seen.max(new), top.max(new));
                    b.set_rate(rate);
                    rates.push(rate);
                    assert!(b.leased().iter().all(|&l| l == 0), "set_rate revokes every lease");
                    let available = b.state().available;
                    assert!(available <= burst_of(rate) + 1.0, "{available} tokens kept");
                    continue;
                }
                wall += Duration::from_micros(prop::range(rng, 0..=3_000));
                let lag = Duration::from_micros(prop::range(rng, 0..=1_000));
                let given = wall.checked_sub(lag).unwrap_or(start).max(start);
                let most = if prop::range(rng, 0..=1) == 0 { CHUNK } else { (rate * 3e-3) as u64 };
                let bytes = prop::range(rng, 1..=most.max(256 * 1024));
                let lease = leases[prop::range(rng, 0..=3) as usize];
                if b.lease() > 0 && spend(lease, bytes) {
                    grants.push((secs(wall), bytes as f64, rates.len() - 1, secs(wall)));
                    continue;
                }
                let (avail, since, cap) = {
                    let s = b.state();
                    (s.available, s.last_refill, s.cap)
                };
                let credit = given.max(since).duration_since(since).as_secs_f64() * rate;
                let covered = (avail + credit).min(cap) >= bytes as f64;
                let reads = Cell::new(0);
                let (wait, last) = b.debit(lease, bytes, given, || {
                    reads.set(reads.get() + 1);
                    wall
                });
                if covered {
                    assert_eq!((wait, last, reads.get()), (None, given, 0), "a covered draw");
                } else {
                    assert_eq!((last, reads.get()), (wall, 1), "a short draw reads once");
                }
                let (available, refilled) = {
                    let s = b.state();
                    (s.available, s.last_refill)
                };
                let leased = b.leased();
                assert!(leased.iter().all(|&l| l <= b.lease()), "a stripe holds one lease at most");
                let banked = available + leased.iter().sum::<u64>() as f64;
                assert!(banked <= burst_of(rate) + 1.0, "{banked} tokens banked at {rate} B/s");
                let wake = refilled + wait.unwrap_or_default();
                if let Some(&(_, _, _, prev)) = debits.last() {
                    assert!(
                        rose || secs(wake) + 1e-9 >= prev,
                        "woke at {} before the previous debit's {prev}",
                        secs(wake)
                    );
                }
                opening.get_or_insert(burst_of(rate));
                debits.push((secs(refilled), seen, rate, secs(wake)));
                grants.push((secs(wake), bytes as f64, rates.len() - 1, secs(refilled)));
                (seen, rose) = (rate, false);
            }
            // r̂(t): the highest rate credited over the debit interval that
            // holds t, or that a wait pending at t was computed at.
            let rate_at = |t: f64| {
                let mut r: f64 = 0.0;
                for (i, &(at, _, paid, wake)) in debits.iter().enumerate() {
                    let next = debits.get(i + 1).map_or((f64::INFINITY, seen), |d| (d.0, d.1));
                    if at < t && t <= next.0 {
                        r = r.max(paid).max(next.1);
                    }
                    if at < t && t <= wake {
                        r = r.max(paid);
                    }
                }
                r
            };
            let mut cuts: Vec<f64> = debits.iter().flat_map(|d| [d.0, d.3]).collect();
            cuts.push(0.0);
            cuts.sort_by(f64::total_cmp);
            cuts.dedup();
            let allowed = |t: f64| {
                let mut sum = opening.unwrap_or_default();
                for w in cuts.windows(2) {
                    let (lo, hi) = (w[0], w[1].min(t));
                    if hi > lo {
                        sum += rate_at((lo + hi) / 2.0) * (hi - lo);
                    }
                }
                sum
            };
            // Wake instants round to whole nanoseconds.
            let slack = 1.0 + 2e-9 * top;
            for &(t, ..) in &grants {
                let granted: f64 = grants.iter().filter(|g| g.0 <= t).map(|g| g.1).sum();
                assert!(
                    granted <= allowed(t) + slack,
                    "{granted} bytes granted by {t} s, {} allowed",
                    allowed(t)
                );
            }
            // Between two rate changes, the grants that rate priced (lease
            // spends, and debits made there) fit that rate's burst plus the
            // rate over every window: leases bank no more than the burst
            // allows, and a retuned link keeps no more than its new burst.
            // A debit granted in the window is charged from its refill, when
            // its tokens left the bucket: a draw larger than the burst is
            // granted whole at its wake, having paid the excess since.
            for (epoch, &rate) in rates.iter().enumerate() {
                let priced: Vec<(f64, f64, f64)> =
                    grants.iter().filter(|g| g.2 == epoch).map(|g| (g.0, g.1, g.3)).collect();
                for &(from, ..) in &priced {
                    for &(to, ..) in priced.iter().filter(|g| g.0 >= from) {
                        let window = || priced.iter().filter(|g| (from..=to).contains(&g.0));
                        let granted: f64 = window().map(|g| g.1).sum();
                        let since = window().map(|g| g.2).fold(from, f64::min);
                        let allowed = burst_of(rate) + rate * (to - since);
                        assert!(
                            granted <= allowed + slack,
                            "{granted} bytes granted in [{from}, {to}] s (charged from \
                             {since} s) at {rate} B/s, {allowed} allowed"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn paced_links_never_lease() {
        // The testbeds' 32e6 B/s and the default 128e6 B/s links: 5 ms of
        // tokens is 160 kB and 640 kB, too little for a chunk a stripe, so
        // every stripe stays empty and each draw is the locked debit alone,
        // refilled up to the whole burst.
        for rate in [32e6, 128e6] {
            let b = TokenBucket::new(rate);
            assert_eq!((b.lease(), b.state().cap), (0, rate * 0.005));
            let t0 = b.state().last_refill;
            let (mut expected, credit) = (0.0, 3e-3 * rate);
            for k in 1..=50 {
                let at = t0 + Duration::from_millis(3 * k);
                expected = (expected + credit).min(b.burst()) - CHUNK as f64;
                assert!(near(draw_at(&b, CHUNK, at), expected), "draw {k} at {rate} B/s");
                assert!(b.leased().iter().all(|&l| l == 0), "draw {k} at {rate} B/s");
            }
        }
    }

    #[test]
    fn set_rate_revokes_leases() {
        // 1e12 B/s: a 5 GB burst, so a lease is the largest whole number of
        // chunks with 16 leases in half of it (2 384 chunks).
        let b = TokenBucket::new(1e12);
        assert_eq!(b.lease(), 2_384 * CHUNK);
        let t0 = b.state().last_refill;
        let at = t0 + Duration::from_millis(10);
        // The first draw debits, then leases; the next spends the lease
        // alone and leaves the bucket as it was.
        let full = draw_at(&b, CHUNK, at);
        let lease = b.lease();
        assert!(near(full, b.state().cap - (CHUNK + lease) as f64));
        assert!(near(draw_at(&b, CHUNK, at), full));
        assert!(b.leased().contains(&(lease - CHUNK)));
        // Another stripe's first draw leases too.
        let other = b.leases.iter().find(|&l| l.load(Ordering::Relaxed) == 0).unwrap();
        let mut now = Some(at);
        b.draw_on(other, CHUNK, &mut now);
        assert_eq!(other.load(Ordering::Relaxed), lease);
        let before = b.state().available;
        // Throttling drops every lease (the settle inside is stale here and
        // credits nothing) and keeps one burst of the new rate, a lone chunk
        // at 1e6 B/s, too little to lease: the next draw takes the locked
        // debit at the new rate.
        b.set_rate(1e6);
        assert!(b.leased().iter().all(|&l| l == 0));
        assert_eq!((b.lease(), b.burst()), (0, CHUNK as f64));
        let available = b.state().available;
        assert!(before > b.burst() && near(available, b.burst()));
        assert!(near(draw_at(&b, CHUNK, at), 0.0));
    }

    #[test]
    fn a_throttled_link_banks_no_more_than_its_new_burst() {
        // A link throttled to 0.04 of its rate after an idle spell at the
        // old rate, then idle again: every draw it grants without a wait,
        // lease spends and debits alike on all stripes, sums to no more
        // than 5 ms of the new rate. Instants are injected as offsets from
        // the bucket's construction; the settle inside `set_rate` reads the
        // wall clock, which lags them and so credits nothing.
        for rate in [1e9, 1e12] {
            let b = TokenBucket::new(rate);
            let t0 = b.state().last_refill;
            draw_at(&b, CHUNK, t0 + Duration::from_secs(3600));
            b.set_rate(rate * 0.04);
            let burst = rate * 0.04 * 0.005;
            assert!(near(b.burst(), burst), "{rate} B/s");
            let at = t0 + Duration::from_secs(7200);
            let stripes: Vec<&AtomicU64> = b.leases.iter().collect();
            let mut granted = 0;
            for lease in stripes.iter().cycle() {
                if b.lease() > 0 && spend(lease, CHUNK) {
                    granted += CHUNK;
                    continue;
                }
                if b.debit(lease, CHUNK, at, || at).0.is_some() {
                    break;
                }
                granted += CHUNK;
            }
            // What the leases still hold is granted without a wait too.
            let granted = (granted + b.leased().iter().sum::<u64>()) as f64;
            assert!(granted <= burst, "{rate} B/s: {granted} B granted without a wait");
            // The leases were revoked: all of it came out of the bucket.
            let cap = b.state().cap;
            assert!(granted > cap - CHUNK as f64, "{rate} B/s: {granted} B of {cap}");
        }
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
