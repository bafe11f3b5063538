//! The deterministic reliability substrate under every [`ClusterIo`]
//! consumer (DESIGN.md §14): virtual-clock deadlines, per-node circuit
//! breakers, and seeded backoff and hedged-read policy. Its tunables are
//! the constants below, not configuration; the one switch is whether reads
//! hedge.
//!
//! # The virtual clock
//!
//! No wall clock appears anywhere in this module. Each operation carries an
//! [`OpContext`] whose elapsed time is a sum of *virtual ticks* (1 tick =
//! 1 virtual µs) charged by the data plane: the [price](chain_ticks) of
//! every path bytes move down, seeded straggler delays, seeded backoff, and
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
//!
//! [`ClusterIo`]: crate::ClusterIo

use crate::health::HealthTransition;
use ear_faults::mix64;
use ear_types::{Error, NodeHealth, NodeId, Result};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Classes of data-plane operations. A class names its op in deadline
/// errors and reports; every class runs under the same policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Foreground client reads.
    ClientRead,
    /// Foreground client writes.
    ClientWrite,
    /// Background repair traffic (healer, recovery).
    Heal,
    /// Encoding jobs.
    Encode,
}

impl OpClass {
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

/// Hash domain separating backoff jitter from the fault-injection streams.
const DOMAIN_BACKOFF: u64 = 0x4241_434b;

/// Virtual-clock cost model (1 tick = 1 virtual µs).
///
/// Fixed base of every leg a transfer pays for.
const XFER_BASE_TICKS: u64 = 64;
/// Nominal service time used for straggler-delay sampling (a 64 KiB block).
pub(crate) const NOMINAL_SERVICE_TICKS: u64 = 128;
/// Penalty for an attempt that fails transiently or corrupt.
pub(crate) const FAULT_PENALTY_TICKS: u64 = 300;
/// Penalty for discovering a dead node the hard way (a timeout).
pub(crate) const TIMEOUT_PENALTY_TICKS: u64 = 2_000;
/// Cost of skipping a breaker-open replica (the point of breakers: this
/// replaces [`TIMEOUT_PENALTY_TICKS`]).
pub(crate) const BREAKER_SKIP_TICKS: u64 = 1;
/// Price of a stripe leg's decode: what a client read served from its
/// block's stripe pays on top of the fold that gathers the sources.
pub(crate) const DECODE_TICKS: u64 = 512;
/// Straggler delay past which a read hedges: once an attempt's seeded
/// delay exceeds it, the next replica's fetch (or, past the last replica,
/// the stripe leg) launches at this point on the virtual clock.
pub(crate) const HEDGE_THRESHOLD_TICKS: u64 = 1_000;
/// Deadline of an [`OpContext`] made by [`Reliability::ctx`].
pub(crate) const DEFAULT_DEADLINE_TICKS: u64 = 10_000_000;

/// Backoff: seeded jitter over capped exponential growth.
const BACKOFF_BASE_TICKS: u64 = 200;
const BACKOFF_CAP_TICKS: u64 = 3_200;
const BACKOFF_MAX_SHIFT: u32 = 4;

/// The ticks of streaming `bytes` down `path` as netem's `transfer_chain`
/// moves them: a leg between equal nodes is free, the first paid leg costs
/// [`XFER_BASE_TICKS`] plus a tick per KiB, each further one the base plus a
/// [chunk](ear_netem::CHUNK)'s KiB (RapidRAID, arXiv:1207.6744). A fetch is
/// the path `[src, dst]`.
pub(crate) fn chain_ticks(path: &[NodeId], bytes: u64) -> u64 {
    let legs = path.windows(2).filter(|leg| leg.first() != leg.last()).count() as u64;
    let further = XFER_BASE_TICKS + (bytes.min(ear_netem::CHUNK) >> 10);
    legs.checked_sub(1).map_or(0, |n| XFER_BASE_TICKS + (bytes >> 10) + n * further)
}

/// Monotonic counters the substrate exports into [`IoStats`] and the
/// chaos/heal reports.
///
/// [`IoStats`]: crate::IoStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Breaker transitions into open (detector trips).
    pub breaker_trips: u64,
    /// Ops that blew their virtual-clock deadline.
    pub deadline_misses: u64,
}

/// The shared reliability substrate of one cluster: the per-node breakers
/// and the seeded backoff/hedging policy. Lock-free by construction
/// (atomics only), so it takes no lock under any other.
#[derive(Debug)]
pub struct Reliability {
    hedge_reads: bool,
    seed: u64,
    /// One breaker per node: `true` is open.
    breakers: Vec<AtomicBool>,
    breaker_trips: AtomicU64,
    deadline_misses: AtomicU64,
}

impl Reliability {
    /// A substrate for `num_nodes` DataNodes, all breakers closed. With
    /// `hedge_reads`, a read whose attempt straggles past
    /// [`HEDGE_THRESHOLD_TICKS`] races the next replica's fetch (or the
    /// block's stripe leg) and takes the virtual-clock winner.
    pub fn new(hedge_reads: bool, seed: u64, num_nodes: usize) -> Self {
        Reliability {
            hedge_reads,
            seed,
            breakers: (0..num_nodes).map(|_| AtomicBool::new(false)).collect(),
            breaker_trips: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
        }
    }

    /// Whether reads hedge.
    pub fn hedging_enabled(&self) -> bool {
        self.hedge_reads
    }

    /// A context for one op of `class` with the default deadline.
    ///
    /// # Errors
    ///
    /// Never fails: no op is refused. The `Result` stays for the callers
    /// that propagate it, the benchmark harness among them, until the next
    /// rebaseline drops it (ROADMAP.md item 11).
    pub fn ctx(&self, class: OpClass) -> Result<OpContext<'_>> {
        Ok(self.ctx_with_deadline(class, DEFAULT_DEADLINE_TICKS))
    }

    /// A context for one op of `class` with an explicit virtual-clock
    /// deadline.
    pub fn ctx_with_deadline(&self, class: OpClass, deadline_ticks: u64) -> OpContext<'_> {
        OpContext {
            rel: self,
            class,
            deadline_ticks,
            elapsed: Cell::new(0),
        }
    }

    /// Feeds detector transitions into the breakers: `Suspect`/`Dead` open
    /// (a trip), `Rejoined`/`Live` close. This is the **only** breaker
    /// input — data-plane failures never touch breaker state, so breaker
    /// decisions are a pure function of the heartbeat schedule.
    pub fn on_transitions(&self, transitions: &[HealthTransition]) {
        for t in transitions {
            let Some(b) = self.breakers.get(t.node.index()) else {
                continue;
            };
            match t.to {
                NodeHealth::Suspect | NodeHealth::Dead => {
                    if !b.swap(true, Ordering::Relaxed) {
                        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                    }
                }
                NodeHealth::Rejoined | NodeHealth::Live => b.store(false, Ordering::Relaxed),
            }
        }
    }

    /// Whether fallback should skip `node` (breaker open). Out-of-range ids
    /// read closed.
    pub fn breaker_open(&self, node: NodeId) -> bool {
        self.breakers
            .get(node.index())
            .is_some_and(|b| b.load(Ordering::Relaxed))
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
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
        }
    }
}

/// One operation: its class, virtual-clock deadline, and elapsed virtual
/// time. Created by [`Reliability::ctx`].
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

    /// A context for a leg this op launches `launch_at` ticks from now
    /// beside its own work (a hedge): the same class, its own clock from
    /// zero, and a deadline of the ticks this op has left at the launch.
    pub(crate) fn child(&self, launch_at: u64) -> OpContext<'_> {
        let left = self.deadline_ticks.saturating_sub(self.elapsed.get());
        self.rel.ctx_with_deadline(self.class, left.saturating_sub(launch_at))
    }

    /// The owning substrate.
    pub(crate) fn reliability(&self) -> &Reliability {
        self.rel
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

    fn substrate() -> Reliability {
        Reliability::new(true, 42, 8)
    }

    #[test]
    fn breaker_trips_on_suspicion_and_closes_on_rejoin() {
        let rel = substrate();
        let n = NodeId(3);
        assert!(!rel.breaker_open(n));

        // Suspect trips the breaker open.
        rel.on_transitions(&[transition(3, NodeHealth::Suspect)]);
        assert!(rel.breaker_open(n));
        assert_eq!(rel.stats().breaker_trips, 1);

        // Dead keeps it open without double-counting the trip.
        rel.on_transitions(&[transition(3, NodeHealth::Dead)]);
        assert!(rel.breaker_open(n));
        assert_eq!(rel.stats().breaker_trips, 1);

        // Rejoined closes it: I/O flows to the node again.
        rel.on_transitions(&[transition(3, NodeHealth::Rejoined)]);
        assert!(!rel.breaker_open(n));

        // Live keeps it closed...
        rel.on_transitions(&[transition(3, NodeHealth::Live)]);
        assert!(!rel.breaker_open(n));

        // ...and the node falling back to Suspect re-trips it.
        rel.on_transitions(&[transition(3, NodeHealth::Suspect)]);
        assert!(rel.breaker_open(n));
        assert_eq!(rel.stats().breaker_trips, 2);

        // Other nodes are untouched throughout.
        assert!(!rel.breaker_open(NodeId(0)));
        // Out-of-range transitions are ignored, not panicked on.
        rel.on_transitions(&[transition(99, NodeHealth::Dead)]);
        assert!(!rel.breaker_open(NodeId(99)));
        assert_eq!(rel.stats().breaker_trips, 2);
    }

    #[test]
    fn deadline_fires_typed_and_counts() {
        let rel = substrate();
        let ctx = rel.ctx_with_deadline(OpClass::ClientRead, 1_000);
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
        let a = substrate();
        let b = substrate();
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
        let leg = |bytes| chain_ticks(&[NodeId(0), NodeId(1)], bytes);
        assert_eq!(leg(0), XFER_BASE_TICKS);
        assert_eq!(leg(64 * 1024), XFER_BASE_TICKS + 64);
        assert!(leg(1 << 20) > leg(64 * 1024));
        // A node reading its own block moves nothing, so it pays nothing.
        assert_eq!(chain_ticks(&[NodeId(0), NodeId(0)], 1 << 20), 0);
        assert_eq!(chain_ticks(&[NodeId(0)], 1 << 20), 0);
    }

    #[test]
    fn chain_ticks_pays_the_legs_netem_moves_bytes_on() {
        // Random paths over a 3 × 2 topology, consecutive repeats included:
        // the legs `chain_ticks` prices are the legs netem counts bytes
        // for, a chain never costs more than its paid legs one at a time,
        // and more bytes never cost less.
        let topo = ear_types::ClusterTopology::uniform(3, 2);
        let fast = ear_types::Bandwidth::bytes_per_sec(1e12);
        let net = ear_netem::EmulatedNetwork::new(&topo, fast, fast);
        ear_types::prop::check("chain_ticks_vs_transfer_chain", 256, |rng| {
            let len = ear_types::prop::range(rng, 0..=6) as usize;
            let mut path: Vec<NodeId> = Vec::with_capacity(len);
            for _ in 0..len {
                let repeat = path.last().copied().filter(|_| rng.below(3) == 0);
                path.push(repeat.unwrap_or(NodeId(rng.below(6) as u32)));
            }
            let bytes = ear_types::prop::range(rng, 1..=(300 << 10));
            let before = net.snapshot();
            net.transfer_chain(&path, bytes);
            let moved = net.snapshot().delta(&before);
            let legs = (moved.cross_rack_bytes + moved.intra_rack_bytes) / bytes;
            let one_leg = |b| chain_ticks(&[NodeId(0), NodeId(1)], b);
            let priced = legs.checked_sub(1).map_or(0, |n| {
                one_leg(bytes) + n * one_leg(bytes.min(ear_netem::CHUNK))
            });
            assert_eq!(chain_ticks(&path, bytes), priced, "{path:?} {bytes} B: {legs} legs");
            let one_at_a_time: u64 = path.windows(2).map(|leg| chain_ticks(leg, bytes)).sum();
            assert!(chain_ticks(&path, bytes) <= one_at_a_time, "{path:?} {bytes} B");
            let more = bytes + ear_types::prop::range(rng, 0..=(300 << 10));
            assert!(chain_ticks(&path, bytes) <= chain_ticks(&path, more), "{path:?}");
        });
    }
}
