//! The fault injector: the runtime half of a [`FaultPlan`], consulted by
//! every emulated I/O boundary (datanode reads/writes, encoder downloads and
//! uploads, recovery reads).
//!
//! Decisions come in two flavours, both deterministic in the plan seed:
//!
//! - **Stateless decisions** (transient errors, corruption) are pure hashes
//!   of `(seed, operation identity)`. The same `(node, block, attempt)`
//!   always gets the same answer, no matter how threads interleave — so a
//!   retry (`attempt + 1`) can deterministically succeed where attempt 0
//!   failed, and a corrupt copy stays corrupt on every read.
//! - **Counter decisions** (crashes, rack outages) activate when the
//!   operation counter passes the plan's activation index, spreading
//!   fail-stop events across a run. Serial code ticks one global counter.
//!   Tasks that run side by side each count on a clock of their own
//!   ([`FaultInjector::on_task_clock`]) from the count their job started
//!   at, so which of a task's I/Os observes a crash first is a property of
//!   the task, not of how the scheduler interleaved it with its neighbours.

use crate::plan::FaultPlan;
use ear_types::rng::mix64;
use ear_types::{BlockId, ClusterTopology, Error, NodeId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// The clock of the task this thread is running, inside
    /// [`FaultInjector::on_task_clock`].
    static TASK_OPS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// What the injector decided to do to one I/O attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The node has fail-stop crashed.
    NodeCrash,
    /// The node's whole rack is dark.
    RackOutage,
    /// This attempt fails; a retry may succeed.
    Transient,
    /// The stored copy reads back with flipped bits (reads only). The
    /// caller must serve a corrupted copy so checksum verification — not
    /// the injector — is what catches it.
    Corrupt,
}

impl IoFault {
    /// The typed error a consumer should surface for this fault.
    pub fn to_error(self, node: NodeId, block: BlockId) -> Error {
        match self {
            IoFault::NodeCrash | IoFault::RackOutage => Error::NodeDown { node },
            IoFault::Transient => Error::TransientIo { node },
            IoFault::Corrupt => Error::CorruptBlock { block, node },
        }
    }
}

/// Hash domains keeping read, write, corruption, and heartbeat streams
/// independent.
const DOMAIN_READ: u64 = 0x5245_4144;
const DOMAIN_WRITE: u64 = 0x5752_4954;
const DOMAIN_CORRUPT: u64 = 0x434f_5252;
const DOMAIN_HEARTBEAT: u64 = 0x4845_4152;
const DOMAIN_STRAGGLER: u64 = 0x5354_5241;

/// The runtime fault oracle for one cluster instance.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    topo: ClusterTopology,
    ops: AtomicU64,
}

impl FaultInjector {
    /// An injector that never injects anything (the default for clusters
    /// built without a fault plan).
    pub fn disabled() -> Self {
        FaultInjector {
            plan: FaultPlan::none(),
            topo: ClusterTopology::uniform(1, 1),
            ops: AtomicU64::new(0),
        }
    }

    /// Builds the injector for `plan` over `topo` (needed to map nodes to
    /// their racks for outage decisions).
    pub fn new(plan: FaultPlan, topo: ClusterTopology) -> Self {
        FaultInjector {
            plan,
            topo,
            ops: AtomicU64::new(0),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The plan seed, or `None` when no faults are injected — the value
    /// experiment reports record.
    pub fn seed(&self) -> Option<u64> {
        if self.plan.is_empty() {
            None
        } else {
            Some(self.plan.seed())
        }
    }

    /// The operation index the calling thread's clock shows: its task's
    /// inside [`on_task_clock`](Self::on_task_clock), the global counter
    /// otherwise.
    pub fn now(&self) -> u64 {
        TASK_OPS.get().unwrap_or_else(|| self.ops.load(Ordering::Relaxed))
    }

    /// Counts `ops` operations on the calling thread's clock and returns
    /// the index of the first.
    pub fn advance(&self, ops: u64) -> u64 {
        match TASK_OPS.get() {
            Some(now) => {
                TASK_OPS.set(Some(now + ops));
                now
            }
            None => self.ops.fetch_add(ops, Ordering::Relaxed),
        }
    }

    /// Runs `task` with the calling thread on a clock of its own that
    /// starts at `start`, and returns what it returned with the operations
    /// it counted. A job that gives every one of its tasks the same `start`
    /// and [`advance`](Self::advance)s its own clock by their sum afterwards
    /// runs side by side in operation time, however many workers really ran
    /// it and in whatever order.
    pub fn on_task_clock<R>(&self, start: u64, task: impl FnOnce() -> R) -> (R, u64) {
        let outer = TASK_OPS.replace(Some(start));
        let result = task();
        let end = TASK_OPS.replace(outer).unwrap_or(start);
        (result, end - start)
    }

    /// Whether `node` is fail-stop-unavailable at the current point of the
    /// run (crashed, or its rack is dark). Does not advance the counter.
    pub fn node_down(&self, node: NodeId) -> bool {
        self.down_fault(node, self.now()).is_some()
    }

    /// Consults the plan for one read attempt of `block` on `node`.
    /// `attempt` numbers retries of the same logical read from 0.
    pub fn on_read(&self, node: NodeId, block: BlockId, attempt: u32) -> Option<IoFault> {
        if self.plan.is_empty() {
            return None;
        }
        let op = self.advance(1);
        if let Some(f) = self.down_fault(node, op) {
            return Some(f);
        }
        if self.decide(
            DOMAIN_READ,
            node,
            block,
            attempt,
            self.plan.transient_error_rate(),
        ) {
            return Some(IoFault::Transient);
        }
        if self.corrupts(node, block) {
            return Some(IoFault::Corrupt);
        }
        None
    }

    /// Consults the plan for one write attempt of `block` to `node`.
    pub fn on_write(&self, node: NodeId, block: BlockId, attempt: u32) -> Option<IoFault> {
        if self.plan.is_empty() {
            return None;
        }
        let op = self.advance(1);
        if let Some(f) = self.down_fault(node, op) {
            return Some(f);
        }
        if self.decide(
            DOMAIN_WRITE,
            node,
            block,
            attempt,
            self.plan.transient_error_rate(),
        ) {
            return Some(IoFault::Transient);
        }
        None
    }

    /// Whether the copy of `block` stored on `node` reads back corrupted.
    /// Deterministic per (node, block): a bad copy stays bad forever.
    pub fn corrupts(&self, node: NodeId, block: BlockId) -> bool {
        self.decide(DOMAIN_CORRUPT, node, block, 0, self.plan.corruption_rate())
    }

    /// Whether the heartbeat `node` emits at clock `tick` is lost in
    /// transit. Pure in `(seed, node, tick)` — the same tick always loses
    /// the same heartbeats, so failure-detector runs replay exactly. Does
    /// not advance the operation counter: heartbeats are control-plane
    /// traffic and must not perturb when data-path crashes activate.
    pub fn drops_heartbeat(&self, node: NodeId, tick: u64) -> bool {
        self.decide(
            DOMAIN_HEARTBEAT,
            node,
            BlockId(tick),
            0,
            self.plan.heartbeat_loss_rate(),
        )
    }

    /// A deterministically corrupted copy of `data` as read from `node`:
    /// one byte, chosen by the plan seed, gets a non-zero XOR mask. The
    /// flip is a function of (seed, node, block) so repeated reads of the
    /// same bad copy return identical bytes.
    pub fn corrupted_copy(&self, node: NodeId, block: BlockId, data: &[u8]) -> Vec<u8> {
        let mut copy = data.to_vec();
        if copy.is_empty() {
            return copy;
        }
        let h = self.hash(DOMAIN_CORRUPT ^ 0xf11b, node, block, 1);
        let idx = (h % copy.len() as u64) as usize;
        let mask = ((h >> 56) as u8) | 1;
        copy[idx] ^= mask;
        copy
    }

    /// Straggler nodes and bandwidth factors, for the network layer.
    pub fn stragglers(&self) -> &[(NodeId, f64)] {
        self.plan.stragglers()
    }

    /// Extra virtual-clock ticks one read/write attempt on `node` pays
    /// because the node straggles. Zero for non-stragglers. Pure in
    /// `(seed, node, block, attempt)`: the same attempt always straggles
    /// by the same amount regardless of interleaving, so hedging decisions
    /// replay exactly. Does not advance the operation counter.
    pub fn straggler_delay_ticks(
        &self,
        node: NodeId,
        block: BlockId,
        attempt: u32,
        service_ticks: u64,
    ) -> u64 {
        let Some(&(_, factor)) = self
            .plan
            .stragglers()
            .iter()
            .find(|&&(s, _)| s == node)
        else {
            return 0;
        };
        let unit = (self.hash(DOMAIN_STRAGGLER, node, block, attempt) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64);
        self.plan
            .straggler_delay()
            .sample(unit, service_ticks, factor)
    }

    fn down_fault(&self, node: NodeId, op: u64) -> Option<IoFault> {
        // Empty plans carry a placeholder topology; skip the rack lookup.
        if self.plan.is_empty() {
            return None;
        }
        if self
            .plan
            .crashes()
            .iter()
            .any(|c| c.node == node && c.at_op <= op)
        {
            return Some(IoFault::NodeCrash);
        }
        let rack = self.topo.rack_of(node);
        if self
            .plan
            .outages()
            .iter()
            .any(|o| o.rack == rack && o.at_op <= op)
        {
            return Some(IoFault::RackOutage);
        }
        None
    }

    fn hash(&self, domain: u64, node: NodeId, block: BlockId, attempt: u32) -> u64 {
        let mut h = mix64(self.plan.seed() ^ domain);
        h = mix64(h ^ node.0 as u64);
        h = mix64(h ^ block.0);
        mix64(h ^ attempt as u64)
    }

    fn decide(&self, domain: u64, node: NodeId, block: BlockId, attempt: u32, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let unit = (self.hash(domain, node, block, attempt) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultConfig;

    fn topo() -> ClusterTopology {
        ClusterTopology::uniform(6, 4)
    }

    fn injector(seed: u64, cfg: &FaultConfig) -> FaultInjector {
        let t = topo();
        FaultInjector::new(FaultPlan::generate(seed, &t, cfg), t)
    }

    #[test]
    fn disabled_injector_never_faults() {
        let inj = FaultInjector::disabled();
        assert_eq!(inj.seed(), None);
        for i in 0..1000u64 {
            let node = NodeId((i % 7) as u32);
            assert_eq!(inj.on_read(node, BlockId(i), 0), None);
            assert_eq!(inj.on_write(node, BlockId(i), 0), None);
            assert!(!inj.node_down(node));
        }
    }

    #[test]
    fn crashes_activate_with_the_op_counter() {
        let cfg = FaultConfig {
            node_crashes: 1,
            stragglers: 0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            crash_window: 100,
            ..FaultConfig::default()
        };
        let inj = injector(5, &cfg);
        let victim = inj.plan().crashes()[0].node;
        // Drive the counter past the window; from then on the victim is
        // down and everyone else is up.
        let mut saw_crash = false;
        for i in 0..300u64 {
            if inj.on_read(victim, BlockId(i), 0) == Some(IoFault::NodeCrash) {
                saw_crash = true;
            }
        }
        assert!(saw_crash);
        assert!(inj.node_down(victim));
        let other = NodeId((victim.0 + 1) % 24);
        assert!(!inj.node_down(other));
        assert_eq!(inj.on_read(other, BlockId(0), 0), None);
    }

    #[test]
    fn a_task_clock_times_a_crash_per_task_and_leaves_the_outer_clock_alone() {
        let cfg = FaultConfig {
            node_crashes: 1,
            stragglers: 0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            crash_window: 100,
            ..FaultConfig::default()
        };
        let inj = injector(5, &cfg);
        let crash = inj.plan().crashes()[0];
        // Two tasks of one job, whatever thread or order they run in, both
        // see the victim die at their own `at_op`-th operation.
        let first_fault = |ops: u64| {
            (0..ops)
                .position(|i| inj.on_read(crash.node, BlockId(i), 0).is_some())
                .map(|p| p as u64)
        };
        // `position` stops at the first fault: at_op + 1 operations.
        let seen = (Some(crash.at_op), crash.at_op + 1);
        assert_eq!(inj.on_task_clock(0, || first_fault(crash.at_op + 5)), seen);
        #[expect(clippy::disallowed_methods, reason = "runs the task on another thread")]
        let elsewhere =
            std::thread::scope(|s| s.spawn(|| inj.on_task_clock(0, || first_fault(150))).join());
        assert_eq!(elsewhere.unwrap(), seen);
        // A task that ends first never sees it, and a job inside a task
        // advances the task's clock, not the global counter.
        let nested = inj.on_task_clock(0, || {
            let (inner, ops) = inj.on_task_clock(inj.now(), || first_fault(crash.at_op));
            inj.advance(ops);
            (inner, inj.now())
        });
        assert_eq!(nested, ((None, crash.at_op), crash.at_op));
        assert_eq!(inj.now(), 0, "what a job's tasks counted is the job's to advance");
        inj.advance(crash.at_op);
        assert!(inj.node_down(crash.node));
    }

    #[test]
    fn rack_outage_downs_every_member() {
        let cfg = FaultConfig {
            node_crashes: 0,
            rack_outages: 1,
            stragglers: 0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            crash_window: 1,
            ..FaultConfig::default()
        };
        let t = topo();
        let inj = FaultInjector::new(FaultPlan::generate(11, &t, &cfg), t.clone());
        let dead = inj.plan().outages()[0].rack;
        // Advance the counter past activation.
        let _ = inj.on_read(NodeId(0), BlockId(0), 0);
        let _ = inj.on_read(NodeId(0), BlockId(0), 1);
        for &node in t.nodes_in_rack(dead) {
            assert!(inj.node_down(node), "{node} should be dark with its rack");
        }
        let alive = (0..t.num_nodes() as u32)
            .map(NodeId)
            .find(|n| t.rack_of(*n) != dead)
            .unwrap();
        assert!(!inj.node_down(alive));
    }

    #[test]
    fn transient_errors_are_per_attempt_deterministic() {
        let cfg = FaultConfig {
            node_crashes: 0,
            stragglers: 0,
            transient_error_rate: 0.5,
            corruption_rate: 0.0,
            ..FaultConfig::default()
        };
        let a = injector(21, &cfg);
        let b = injector(21, &cfg);
        let mut failures = 0;
        for i in 0..1000u64 {
            let node = NodeId((i % 24) as u32);
            let fa = a.on_read(node, BlockId(i), 0);
            let fb = b.on_read(node, BlockId(i), 0);
            assert_eq!(fa, fb, "same identity must decide the same");
            if fa == Some(IoFault::Transient) {
                failures += 1;
            }
        }
        assert!(
            (350..650).contains(&failures),
            "rate 0.5 gave {failures}/1000"
        );
        // A different attempt number is a fresh coin.
        let differs = (0..100u64).any(|i| {
            a.on_read(NodeId(0), BlockId(i), 1) != b.on_read(NodeId(0), BlockId(i), 2)
        });
        assert!(differs);
    }

    #[test]
    fn corruption_is_sticky_and_checksum_visible() {
        let cfg = FaultConfig {
            node_crashes: 0,
            stragglers: 0,
            transient_error_rate: 0.0,
            corruption_rate: 1.0,
            ..FaultConfig::default()
        };
        let inj = injector(31, &cfg);
        let data = vec![0xabu8; 4096];
        assert!(inj.corrupts(NodeId(1), BlockId(9)));
        let bad1 = inj.corrupted_copy(NodeId(1), BlockId(9), &data);
        let bad2 = inj.corrupted_copy(NodeId(1), BlockId(9), &data);
        assert_eq!(bad1, bad2, "same copy must corrupt identically");
        assert_ne!(bad1, data);
        assert_ne!(crate::crc32c(&bad1), crate::crc32c(&data));
        // A different node's copy flips differently (independent hash).
        let other = inj.corrupted_copy(NodeId(2), BlockId(9), &data);
        assert_ne!(bad1, other);
    }

    #[test]
    fn heartbeat_loss_is_deterministic_and_does_not_advance_ops() {
        let cfg = FaultConfig {
            node_crashes: 0,
            stragglers: 0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.3,
            ..FaultConfig::default()
        };
        let a = injector(9, &cfg);
        let b = injector(9, &cfg);
        let mut lost = 0usize;
        for tick in 0..1000u64 {
            let node = NodeId((tick % 24) as u32);
            assert_eq!(
                a.drops_heartbeat(node, tick),
                b.drops_heartbeat(node, tick),
                "same (node, tick) must decide the same"
            );
            if a.drops_heartbeat(node, tick) {
                lost += 1;
            }
        }
        assert!((200..400).contains(&lost), "rate 0.3 lost {lost}/1000");
        // Heartbeats are control-plane traffic: the data-path op counter
        // must not have moved.
        assert_eq!(a.ops.load(std::sync::atomic::Ordering::Relaxed), 0);
        // A zero-rate plan never loses heartbeats.
        let quiet = FaultInjector::disabled();
        assert!((0..100).all(|t| !quiet.drops_heartbeat(NodeId(0), t)));
    }

    #[test]
    fn straggler_delay_is_pure_and_zero_off_the_straggler_set() {
        use crate::plan::DelayModel;
        let cfg = FaultConfig {
            node_crashes: 0,
            stragglers: 2,
            straggler_delay: DelayModel::Pareto {
                scale_ticks: 400,
                shape: 1.2,
                cap_ticks: 200_000,
            },
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            ..FaultConfig::default()
        };
        let a = injector(17, &cfg);
        let b = injector(17, &cfg);
        let straggler = a.plan().stragglers()[0].0;
        for i in 0..200u64 {
            let da = a.straggler_delay_ticks(straggler, BlockId(i), 0, 192);
            let db = b.straggler_delay_ticks(straggler, BlockId(i), 0, 192);
            assert_eq!(da, db, "same attempt must straggle identically");
            assert!((400..=200_000).contains(&da));
        }
        // A fresh attempt number redraws from the distribution.
        assert!((0..100u64).any(|i| {
            a.straggler_delay_ticks(straggler, BlockId(i), 0, 192)
                != a.straggler_delay_ticks(straggler, BlockId(i), 1, 192)
        }));
        // Non-stragglers never pay.
        let clean = (0..24u32)
            .map(NodeId)
            .find(|n| a.plan().stragglers().iter().all(|&(s, _)| s != *n))
            .unwrap();
        assert_eq!(a.straggler_delay_ticks(clean, BlockId(0), 0, 192), 0);
        // The counter-based fault stream is untouched.
        assert_eq!(a.ops.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn fault_to_error_mapping() {
        let node = NodeId(3);
        let block = BlockId(7);
        assert_eq!(
            IoFault::NodeCrash.to_error(node, block),
            Error::NodeDown { node }
        );
        assert_eq!(
            IoFault::RackOutage.to_error(node, block),
            Error::NodeDown { node }
        );
        assert_eq!(
            IoFault::Transient.to_error(node, block),
            Error::TransientIo { node }
        );
        assert_eq!(
            IoFault::Corrupt.to_error(node, block),
            Error::CorruptBlock { block, node }
        );
    }
}
