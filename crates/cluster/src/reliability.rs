//! The deterministic reliability substrate under every [`ClusterIo`]
//! consumer (DESIGN.md §14): virtual-clock deadlines, per-class retry
//! budgets, per-node circuit breakers, hedged-read policy, and the
//! admission/load-shed gate.
//!
//! # The virtual clock
//!
//! No wall clock appears anywhere in this module. Each operation carries an
//! [`OpContext`] whose elapsed time is a sum of *virtual ticks* (1 tick =
//! 1 virtual µs) charged by the data plane: a fixed per-attempt base, a
//! per-KiB transfer cost, seeded straggler delays, seeded backoff, and
//! fixed penalties for failures. Because every charge is a pure function of
//! the operation's identity, an op's virtual latency — and therefore every
//! deadline and hedging decision — replays bit-identically regardless of
//! thread interleaving, storage backend, or cache configuration.
//!
//! # Determinism invariants
//!
//! - Circuit breakers are fed **only** by the failure detector's heartbeat
//!   transitions ([`Reliability::on_transitions`]), never by data-plane
//!   failures: breaker state at any control-plane tick is a pure function
//!   of the heartbeat schedule, which `ear-faults` derives from the seed.
//! - Backoff jitter and hedging delays hash the op identity with the
//!   cluster seed ([`ear_faults::mix64`]); no ambient RNG.
//! - Admission and retry-budget state are shared atomics, but with the
//!   default (unlimited) policy they never reject, so soak fingerprints
//!   are unaffected unless a harness opts into finite limits.
//!
//! [`ClusterIo`]: crate::ClusterIo

use crate::health::HealthTransition;
use ear_faults::mix64;
use ear_types::{Error, NodeHealth, NodeId, Result};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Paces a virtual-tick wait on the wall clock (1 tick = 1 µs). The tick
/// count always comes from the substrate's cost model (backoff, hedging
/// delay) *after* it has been charged to the op's deadline — this is only
/// the physical "don't busy-loop" side of a number the virtual clock has
/// already accounted.
#[expect(clippy::disallowed_methods, reason = "the one sleep of the data plane")]
pub(crate) fn pace(ticks: u64) {
    std::thread::sleep(Duration::from_micros(ticks));
}

/// Applies `f` to an atomic with a CAS loop. `fetch_update` forces the
/// closure to return `Option` and the call to return `Result`; for the
/// total functions used here (saturating bumps), that `Result` is
/// unconditionally `Ok` and discarding it would trip clippy's
/// `let_underscore_must_use` — these helpers keep the infallibility in the
/// types instead of at the call sites.
macro_rules! atomic_apply_impl {
    ($name:ident, $atomic:ty, $int:ty) => {
        fn $name(cell: &$atomic, f: impl Fn($int) -> $int) {
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                match cell.compare_exchange_weak(
                    cur,
                    f(cur),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }
    };
}
atomic_apply_impl!(atomic_apply_u32, AtomicU32, u32);
atomic_apply_impl!(atomic_apply_u64, AtomicU64, u64);

/// Priority classes of data-plane operations, highest first. The admission
/// gate sheds low classes before high ones, and retry budgets are accounted
/// per class (one token bucket each, not per-call loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Foreground client reads — never shed while anything else runs.
    ClientRead,
    /// Foreground client writes.
    ClientWrite,
    /// Background repair traffic (healer, recovery).
    Heal,
    /// Encoding jobs — the first class shed under load.
    Encode,
}

/// Number of op classes (array dimension for per-class state).
pub const OP_CLASSES: usize = 4;

impl OpClass {
    /// Index into per-class arrays, in priority order (0 = highest).
    pub fn index(self) -> usize {
        match self {
            OpClass::ClientRead => 0,
            OpClass::ClientWrite => 1,
            OpClass::Heal => 2,
            OpClass::Encode => 3,
        }
    }

    /// Stable lowercase name for errors and reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::ClientRead => "client-read",
            OpClass::ClientWrite => "client-write",
            OpClass::Heal => "heal",
            OpClass::Encode => "encode",
        }
    }
}

/// Per-class admission and retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPolicy {
    /// Admission limit: a new op of this class is shed when the *total*
    /// in-flight count (all classes) has reached this value. Priority falls
    /// out of the ordering `ClientRead >= ClientWrite >= Heal >= Encode`:
    /// under load, encode hits its (smaller) limit first.
    pub max_in_flight: u32,
    /// Capacity of the class's retry token bucket.
    pub retry_budget: u64,
    /// Tokens refilled into the bucket per admitted op (capped at
    /// `retry_budget`).
    pub retry_refill: u64,
}

impl Default for ClassPolicy {
    fn default() -> Self {
        // Effectively unlimited: the substrate observes but never rejects
        // until a harness opts into finite limits.
        ClassPolicy {
            max_in_flight: u32::MAX,
            retry_budget: 1 << 40,
            retry_refill: 1 << 40,
        }
    }
}

/// Configuration of the reliability substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Whether reads hedge: once an attempt's seeded straggler delay
    /// exceeds [`hedge_threshold_ticks`](Self::hedge_threshold_ticks), a
    /// second replica fetch (or degraded-EC reconstruct) is launched and
    /// the virtual-clock winner is taken.
    pub hedge_reads: bool,
    /// Straggler-percentile delay, in virtual ticks, after which a read
    /// hedges.
    pub hedge_threshold_ticks: u64,
    /// Default [`OpContext`] deadline, in virtual ticks.
    pub default_deadline_ticks: u64,
    /// Per-class admission/retry policy, indexed by [`OpClass::index`].
    pub classes: [ClassPolicy; OP_CLASSES],
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            hedge_reads: true,
            hedge_threshold_ticks: 1_000,
            default_deadline_ticks: 10_000_000,
            classes: [ClassPolicy::default(); OP_CLASSES],
        }
    }
}

/// Circuit-breaker state of one node, driven by detector transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: I/O flows normally.
    Closed,
    /// The detector suspects or has declared the node dead: fallback skips
    /// it instead of paying a timeout (unless it is the only source).
    Open,
    /// The node rejoined; I/O is allowed again as a probe until the
    /// detector either re-trusts it (`Closed`) or re-suspects it (`Open`).
    HalfOpen,
}

const B_CLOSED: u8 = 0;
const B_OPEN: u8 = 1;
const B_HALF_OPEN: u8 = 2;

/// Hash domain separating backoff jitter from the fault-injection streams.
const DOMAIN_BACKOFF: u64 = 0x4241_434b;

/// Virtual-clock cost model (1 tick = 1 virtual µs).
///
/// Fixed per-attempt base of a block transfer.
pub(crate) const XFER_BASE_TICKS: u64 = 64;
/// Nominal service time used for straggler-delay sampling (a 64 KiB block).
pub(crate) const NOMINAL_SERVICE_TICKS: u64 = 128;
/// Penalty for an attempt that fails transiently or corrupt.
pub(crate) const FAULT_PENALTY_TICKS: u64 = 300;
/// Penalty for discovering a dead node the hard way (a timeout).
pub(crate) const TIMEOUT_PENALTY_TICKS: u64 = 2_000;
/// Cost of skipping a breaker-open replica (the point of breakers: this
/// replaces [`TIMEOUT_PENALTY_TICKS`]).
pub(crate) const BREAKER_SKIP_TICKS: u64 = 1;
/// Fixed cost of a degraded-EC decode in a hedged single-source read.
pub(crate) const DECODE_TICKS: u64 = 512;

/// Backoff: seeded jitter over capped exponential growth.
const BACKOFF_BASE_TICKS: u64 = 200;
const BACKOFF_CAP_TICKS: u64 = 3_200;
const BACKOFF_MAX_SHIFT: u32 = 4;

/// Virtual transfer cost of moving `len` payload bytes once.
pub(crate) fn xfer_cost_ticks(len: usize) -> u64 {
    XFER_BASE_TICKS + (len as u64 >> 10)
}

/// Monotonic counters the substrate exports into [`IoStats`] and the
/// chaos/heal reports.
///
/// [`IoStats`]: crate::IoStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Breaker transitions into `Open` (detector trips).
    pub breaker_trips: u64,
    /// Half-open probe slots drained at control-plane ticks.
    pub probes_drained: u64,
    /// Ops rejected by the admission gate.
    pub shed_ops: u64,
    /// Retries denied because a class bucket ran dry.
    pub retry_denials: u64,
    /// Ops that blew their virtual-clock deadline.
    pub deadline_misses: u64,
}

/// The shared reliability substrate of one cluster: breakers, budgets, the
/// admission gate, and the seeded backoff/hedging policy. Lock-free by
/// construction (atomics only), so it takes no lock under any other.
#[derive(Debug)]
pub struct Reliability {
    cfg: ReliabilityConfig,
    seed: u64,
    breakers: Vec<AtomicU8>,
    in_flight: [AtomicU32; OP_CLASSES],
    retry_tokens: [AtomicU64; OP_CLASSES],
    breaker_trips: AtomicU64,
    probes_drained: AtomicU64,
    shed_ops: AtomicU64,
    retry_denials: AtomicU64,
    deadline_misses: AtomicU64,
}

impl Reliability {
    /// A substrate for `num_nodes` DataNodes, all breakers closed and every
    /// retry bucket full.
    pub fn new(cfg: ReliabilityConfig, seed: u64, num_nodes: usize) -> Self {
        let retry_tokens = std::array::from_fn(|i| {
            AtomicU64::new(cfg.classes.get(i).copied().unwrap_or_default().retry_budget)
        });
        Reliability {
            cfg,
            seed,
            breakers: (0..num_nodes).map(|_| AtomicU8::new(B_CLOSED)).collect(),
            in_flight: std::array::from_fn(|_| AtomicU32::new(0)),
            retry_tokens,
            breaker_trips: AtomicU64::new(0),
            probes_drained: AtomicU64::new(0),
            shed_ops: AtomicU64::new(0),
            retry_denials: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
        }
    }

    /// A disabled-policy substrate (unlimited budgets, hedging off) for
    /// components built without cluster config.
    pub fn unlimited(num_nodes: usize) -> Self {
        let cfg = ReliabilityConfig {
            hedge_reads: false,
            ..ReliabilityConfig::default()
        };
        Reliability::new(cfg, 0, num_nodes)
    }

    /// The active configuration.
    pub fn config(&self) -> &ReliabilityConfig {
        &self.cfg
    }

    /// Whether reads hedge.
    pub fn hedging_enabled(&self) -> bool {
        self.cfg.hedge_reads
    }

    /// The hedging delay threshold, in virtual ticks.
    pub fn hedge_threshold_ticks(&self) -> u64 {
        self.cfg.hedge_threshold_ticks
    }

    /// Admits one op of `class` with the default deadline.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the gate sheds the op.
    pub fn ctx(&self, class: OpClass) -> Result<OpContext<'_>> {
        self.ctx_with_deadline(class, self.cfg.default_deadline_ticks)
    }

    /// Admits one op of `class` with an explicit virtual-clock deadline.
    /// Admission *is* context creation: the returned guard holds the op's
    /// in-flight slot until dropped, and refills the class's retry bucket.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the total in-flight count has reached the
    /// class's limit.
    pub fn ctx_with_deadline(&self, class: OpClass, deadline_ticks: u64) -> Result<OpContext<'_>> {
        let i = class.index();
        let policy = self
            .cfg
            .classes
            .get(i)
            .copied()
            .unwrap_or_default();
        let total: u32 = self
            .in_flight
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .fold(0u32, u32::saturating_add);
        if total >= policy.max_in_flight {
            self.shed_ops.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Overloaded {
                class: class.name(),
            });
        }
        if let Some(slot) = self.in_flight.get(i) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(bucket) = self.retry_tokens.get(i) {
            atomic_apply_u64(bucket, |t| {
                t.saturating_add(policy.retry_refill).min(policy.retry_budget)
            });
        }
        Ok(OpContext {
            rel: self,
            class,
            deadline_ticks,
            elapsed: Cell::new(0),
        })
    }

    /// Feeds detector transitions into the breakers: `Suspect`/`Dead` open
    /// (a trip), `Rejoined` half-opens, `Live` closes. This is the **only**
    /// breaker input — data-plane failures never touch breaker state, so
    /// breaker decisions are a pure function of the heartbeat schedule.
    pub fn on_transitions(&self, transitions: &[HealthTransition]) {
        for t in transitions {
            let Some(b) = self.breakers.get(t.node.index()) else {
                continue;
            };
            match t.to {
                NodeHealth::Suspect | NodeHealth::Dead => {
                    if b.swap(B_OPEN, Ordering::Relaxed) != B_OPEN {
                        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                    }
                }
                NodeHealth::Rejoined => b.store(B_HALF_OPEN, Ordering::Relaxed),
                NodeHealth::Live => b.store(B_CLOSED, Ordering::Relaxed),
            }
        }
    }

    /// Drains half-open probe slots at a control-plane tick: every
    /// half-open breaker is granted one probe (its data-plane I/O stays
    /// allowed this tick; the detector's verdict on the next tick closes or
    /// re-opens it). Returns the number of probes granted — deterministic,
    /// because breaker state is.
    pub fn drain_probes(&self) -> usize {
        let n = self
            .breakers
            .iter()
            .filter(|b| b.load(Ordering::Relaxed) == B_HALF_OPEN)
            .count();
        self.probes_drained.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Current breaker state of `node` (out-of-range ids read `Closed`).
    pub fn breaker_state(&self, node: NodeId) -> BreakerState {
        match self
            .breakers
            .get(node.index())
            .map(|b| b.load(Ordering::Relaxed))
        {
            Some(B_OPEN) => BreakerState::Open,
            Some(B_HALF_OPEN) => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether fallback should skip `node` (breaker open).
    pub fn breaker_open(&self, node: NodeId) -> bool {
        self.breaker_state(node) == BreakerState::Open
    }

    /// Seeded-jitter capped exponential backoff, in virtual ticks: grows
    /// `200 << attempt` up to a hard cap of 3 200, jittered into the upper
    /// half of the window by a pure hash of `(seed, key, attempt)` so
    /// colliding retriers decorrelate deterministically.
    pub fn backoff_ticks(&self, key: u64, attempt: u32) -> u64 {
        let grown = BACKOFF_BASE_TICKS << attempt.min(BACKOFF_MAX_SHIFT);
        let capped = grown.min(BACKOFF_CAP_TICKS);
        let h = mix64(mix64(self.seed ^ DOMAIN_BACKOFF ^ key) ^ attempt as u64);
        let half = capped / 2;
        half + h % (half + 1)
    }

    /// Snapshot of the substrate's monotonic counters.
    pub fn stats(&self) -> ReliabilityStats {
        ReliabilityStats {
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            probes_drained: self.probes_drained.load(Ordering::Relaxed),
            shed_ops: self.shed_ops.load(Ordering::Relaxed),
            retry_denials: self.retry_denials.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
        }
    }
}

/// One admitted operation: its class, virtual-clock deadline, and elapsed
/// virtual time. Created by [`Reliability::ctx`]; dropping it releases the
/// op's in-flight admission slot.
///
/// Deliberately `!Sync` (elapsed time is a [`Cell`]): one context belongs
/// to one operation on one thread; parallel sub-work gets child contexts.
#[derive(Debug)]
pub struct OpContext<'a> {
    rel: &'a Reliability,
    class: OpClass,
    deadline_ticks: u64,
    elapsed: Cell<u64>,
}

impl OpContext<'_> {
    /// The op's class.
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// The op's deadline, in virtual ticks.
    pub fn deadline_ticks(&self) -> u64 {
        self.deadline_ticks
    }

    /// Virtual ticks charged so far.
    pub fn elapsed_ticks(&self) -> u64 {
        self.elapsed.get()
    }

    /// Charges `ticks` of virtual time to the op.
    ///
    /// # Errors
    ///
    /// [`Error::DeadlineExceeded`] once the op's elapsed virtual time
    /// passes its deadline; the op must stop, typed, right here.
    pub fn charge(&self, ticks: u64) -> Result<()> {
        let e = self.elapsed.get().saturating_add(ticks);
        self.elapsed.set(e);
        if e > self.deadline_ticks {
            self.rel.deadline_misses.fetch_add(1, Ordering::Relaxed);
            return Err(Error::DeadlineExceeded {
                what: self.class.name(),
                deadline_ticks: self.deadline_ticks,
            });
        }
        Ok(())
    }

    /// Draws one retry token from the op class's shared bucket. Called
    /// before every retry (never the first attempt), making the budget a
    /// per-class property instead of a per-call loop counter.
    ///
    /// # Errors
    ///
    /// [`Error::RetryBudgetExhausted`] when the bucket is dry.
    pub fn try_retry(&self) -> Result<()> {
        let i = self.class.index();
        let Some(bucket) = self.rel.retry_tokens.get(i) else {
            return Ok(());
        };
        let drawn = bucket.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
            t.checked_sub(1)
        });
        if drawn.is_err() {
            self.rel.retry_denials.fetch_add(1, Ordering::Relaxed);
            return Err(Error::RetryBudgetExhausted {
                class: self.class.name(),
            });
        }
        Ok(())
    }

    /// The owning substrate.
    pub(crate) fn reliability(&self) -> &Reliability {
        self.rel
    }
}

impl Drop for OpContext<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.rel.in_flight.get(self.class.index()) {
            // Saturating: an admission slot is released exactly once, but a
            // wrap on a miscounted drop must not panic the data plane.
            atomic_apply_u32(slot, |v| v.saturating_sub(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::NodeHealth;

    fn transition(node: u32, to: NodeHealth) -> HealthTransition {
        HealthTransition {
            tick: 1,
            node: NodeId(node),
            from: NodeHealth::Live,
            to,
        }
    }

    fn substrate(cfg: ReliabilityConfig) -> Reliability {
        Reliability::new(cfg, 42, 8)
    }

    #[test]
    fn breaker_trips_half_opens_probes_and_closes() {
        let rel = substrate(ReliabilityConfig::default());
        let n = NodeId(3);
        assert_eq!(rel.breaker_state(n), BreakerState::Closed);
        assert!(!rel.breaker_open(n));

        // Suspect trips the breaker open.
        rel.on_transitions(&[transition(3, NodeHealth::Suspect)]);
        assert_eq!(rel.breaker_state(n), BreakerState::Open);
        assert!(rel.breaker_open(n));
        assert_eq!(rel.stats().breaker_trips, 1);

        // Dead keeps it open without double-counting the trip.
        rel.on_transitions(&[transition(3, NodeHealth::Dead)]);
        assert_eq!(rel.breaker_state(n), BreakerState::Open);
        assert_eq!(rel.stats().breaker_trips, 1);

        // Rejoined half-opens: I/O allowed again as a probe.
        rel.on_transitions(&[transition(3, NodeHealth::Rejoined)]);
        assert_eq!(rel.breaker_state(n), BreakerState::HalfOpen);
        assert!(!rel.breaker_open(n));
        assert_eq!(rel.drain_probes(), 1);
        assert_eq!(rel.stats().probes_drained, 1);

        // The detector re-trusting the node closes the breaker...
        rel.on_transitions(&[transition(3, NodeHealth::Live)]);
        assert_eq!(rel.breaker_state(n), BreakerState::Closed);
        assert_eq!(rel.drain_probes(), 0);

        // ...and a failed probe (node back to Suspect) re-trips it.
        rel.on_transitions(&[transition(3, NodeHealth::Suspect)]);
        assert_eq!(rel.breaker_state(n), BreakerState::Open);
        assert_eq!(rel.stats().breaker_trips, 2);

        // Other nodes are untouched throughout.
        assert_eq!(rel.breaker_state(NodeId(0)), BreakerState::Closed);
        // Out-of-range transitions are ignored, not panicked on.
        rel.on_transitions(&[transition(99, NodeHealth::Dead)]);
        assert_eq!(rel.breaker_state(NodeId(99)), BreakerState::Closed);
    }

    #[test]
    fn admission_gate_sheds_low_priority_first() {
        let mut cfg = ReliabilityConfig::default();
        // Encode saturates at 2 total in-flight, heal at 3, clients at 4.
        cfg.classes[OpClass::Encode.index()].max_in_flight = 2;
        cfg.classes[OpClass::Heal.index()].max_in_flight = 3;
        cfg.classes[OpClass::ClientWrite.index()].max_in_flight = 4;
        cfg.classes[OpClass::ClientRead.index()].max_in_flight = 4;
        let rel = substrate(cfg);

        let a = rel.ctx(OpClass::Encode).expect("first encode admitted");
        let b = rel.ctx(OpClass::Heal).expect("heal admitted");
        // Total in-flight is 2: encode is now at its limit, heal is not.
        let shed = rel.ctx(OpClass::Encode);
        assert!(matches!(shed, Err(Error::Overloaded { class: "encode" })));
        let c = rel.ctx(OpClass::Heal).expect("heal still admitted");
        // Total 3: heal saturates, client write still admitted.
        assert!(matches!(
            rel.ctx(OpClass::Heal),
            Err(Error::Overloaded { class: "heal" })
        ));
        let d = rel.ctx(OpClass::ClientWrite).expect("client write admitted");
        // Total 4: everyone sheds now.
        assert!(rel.ctx(OpClass::ClientRead).is_err());
        assert_eq!(rel.stats().shed_ops, 3);

        // Dropping contexts releases their slots.
        drop((a, b, c, d));
        assert!(rel.ctx(OpClass::Encode).is_ok());
    }

    #[test]
    fn retry_bucket_dries_up_and_refills_per_admitted_op() {
        let mut cfg = ReliabilityConfig::default();
        cfg.classes[OpClass::Heal.index()].retry_budget = 3;
        cfg.classes[OpClass::Heal.index()].retry_refill = 1;
        let rel = substrate(cfg);

        // The bucket starts full (3 tokens); admission refills 1 (capped).
        let ctx = rel.ctx(OpClass::Heal).unwrap();
        assert!(ctx.try_retry().is_ok());
        assert!(ctx.try_retry().is_ok());
        assert!(ctx.try_retry().is_ok());
        let dry = ctx.try_retry();
        assert!(matches!(
            dry,
            Err(Error::RetryBudgetExhausted { class: "heal" })
        ));
        assert_eq!(rel.stats().retry_denials, 1);
        drop(ctx);

        // Each new admitted op refills one token — the budget is a class
        // property, shared across calls.
        let ctx2 = rel.ctx(OpClass::Heal).unwrap();
        assert!(ctx2.try_retry().is_ok());
        assert!(ctx2.try_retry().is_err());
        // Other classes have their own buckets.
        let enc = rel.ctx(OpClass::Encode).unwrap();
        assert!(enc.try_retry().is_ok());
    }

    #[test]
    fn deadline_fires_typed_and_counts() {
        let rel = substrate(ReliabilityConfig::default());
        let ctx = rel.ctx_with_deadline(OpClass::ClientRead, 1_000).unwrap();
        assert!(ctx.charge(600).is_ok());
        assert!(ctx.charge(400).is_ok(), "exactly at the deadline is fine");
        let blown = ctx.charge(1);
        assert!(matches!(
            blown,
            Err(Error::DeadlineExceeded {
                what: "client-read",
                deadline_ticks: 1_000
            })
        ));
        assert_eq!(ctx.elapsed_ticks(), 1_001);
        assert_eq!(rel.stats().deadline_misses, 1);
    }

    #[test]
    fn backoff_is_seeded_jittered_exponential_and_capped() {
        let a = substrate(ReliabilityConfig::default());
        let b = substrate(ReliabilityConfig::default());
        for attempt in 0..8 {
            for key in [0u64, 7, 1 << 40] {
                let ta = a.backoff_ticks(key, attempt);
                // Deterministic: same seed, key, attempt → same ticks.
                assert_eq!(ta, b.backoff_ticks(key, attempt));
                // Jitter stays within [window/2, window]; window grows
                // 200 << attempt and is hard-capped at 3 200.
                let window = (200u64 << attempt.min(4)).min(3_200);
                assert!(ta >= window / 2, "attempt {attempt}: {ta} < {}", window / 2);
                assert!(ta <= window, "attempt {attempt}: {ta} > {window}");
            }
        }
        // Different keys decorrelate colliding retriers: across a few
        // attempts at least one pair of keys must draw different jitter.
        assert!((0..8).any(|at| a.backoff_ticks(1, at) != a.backoff_ticks(2, at)));
        // The cap holds arbitrarily deep.
        assert!(a.backoff_ticks(9, 30) <= 3_200);
    }

    #[test]
    fn virtual_cost_model_is_monotone_in_size() {
        assert_eq!(xfer_cost_ticks(0), XFER_BASE_TICKS);
        assert_eq!(xfer_cost_ticks(64 * 1024), XFER_BASE_TICKS + 64);
        assert!(xfer_cost_ticks(1 << 20) > xfer_cost_ticks(64 * 1024));
    }

    #[test]
    fn default_policy_never_rejects() {
        let rel = substrate(ReliabilityConfig::default());
        let mut held = Vec::new();
        for i in 0..256 {
            let class = match i % 4 {
                0 => OpClass::ClientRead,
                1 => OpClass::ClientWrite,
                2 => OpClass::Heal,
                _ => OpClass::Encode,
            };
            let ctx = rel.ctx(class).expect("default policy admits everything");
            assert!(ctx.try_retry().is_ok());
            held.push(ctx);
        }
        let s = rel.stats();
        assert_eq!(s.shed_ops, 0);
        assert_eq!(s.retry_denials, 0);
    }
}
