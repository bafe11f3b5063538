//! Fault plans: a seed expanded into a concrete, replayable schedule of
//! failures for one testbed run.
//!
//! # Determinism
//!
//! A plan is a pure function of `(seed, topology, FaultConfig)`: the same
//! three inputs always produce the same crashed nodes, dead racks,
//! stragglers, and rates, on every build. Per-operation decisions (transient
//! errors, corruption) are likewise pure functions of the operation's
//! identity — see [`FaultInjector`](crate::FaultInjector). Crashes
//! activate once the injector's operation counter passes the plan's
//! activation index; tasks that run side by side count on a clock each
//! ([`FaultInjector::on_task_clock`](crate::FaultInjector::on_task_clock)),
//! so which of a task's I/Os sees the crash first does not depend on thread
//! interleaving either.

use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, NodeId, RackId};
use std::fmt;

/// How much extra virtual-clock delay a straggler adds to one I/O attempt.
///
/// The legacy straggler model was a binary slow flag (a netem bandwidth
/// throttle); hedged reads need a *distribution* with a real tail to beat,
/// so the delay model is explicit and every sample is a pure function of
/// the attempt's identity hash — the same attempt always straggles by the
/// same amount, on every backend and thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Legacy behaviour: no explicit per-attempt delay distribution; the
    /// straggler's slowdown is its bandwidth factor, so the virtual delay
    /// is the extra service time that factor implies.
    Throttle,
    /// Every attempt on a straggler pays a fixed extra delay.
    Fixed {
        /// Extra virtual-clock ticks per attempt.
        ticks: u64,
    },
    /// Heavy-tailed (Pareto) extra delay: most attempts pay around
    /// `scale_ticks`, a small fraction pay orders of magnitude more — the
    /// tail profile real straggler studies observe.
    Pareto {
        /// Minimum (and typical) extra delay, in virtual-clock ticks.
        scale_ticks: u64,
        /// Tail index; smaller = heavier tail. Values `<= 0` clamp to 1.
        shape: f64,
        /// Hard cap on one sample, in virtual-clock ticks.
        cap_ticks: u64,
    },
}

impl DelayModel {
    /// Extra virtual-clock ticks one attempt on a straggler pays.
    ///
    /// Pure: `u` is a uniform sample in `[0, 1)` derived from the attempt's
    /// identity hash, `service_ticks` is the attempt's fault-free virtual
    /// service time, and `factor` is the straggler's bandwidth multiplier
    /// (consulted only by [`DelayModel::Throttle`]).
    pub fn sample(&self, u: f64, service_ticks: u64, factor: f64) -> u64 {
        match *self {
            DelayModel::Throttle => {
                if factor > 0.0 && factor < 1.0 {
                    (service_ticks as f64 * (1.0 / factor - 1.0)) as u64
                } else {
                    0
                }
            }
            DelayModel::Fixed { ticks } => ticks,
            DelayModel::Pareto {
                scale_ticks,
                shape,
                cap_ticks,
            } => {
                let shape = if shape > 0.0 { shape } else { 1.0 };
                let tail = (1.0 - u).max(f64::MIN_POSITIVE);
                let x = scale_ticks as f64 / tail.powf(1.0 / shape);
                if x >= cap_ticks as f64 {
                    cap_ticks
                } else {
                    x as u64
                }
            }
        }
    }
}

/// Knobs controlling how much chaos a generated [`FaultPlan`] contains.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Number of distinct nodes that crash (fail-stop) during the run.
    pub node_crashes: usize,
    /// Number of whole racks that go dark during the run.
    pub rack_outages: usize,
    /// Number of straggler nodes whose links are throttled.
    pub stragglers: usize,
    /// Bandwidth multiplier for stragglers (e.g. `0.1` = 10% of base).
    pub straggler_factor: f64,
    /// Per-attempt extra-delay distribution for stragglers, on the virtual
    /// clock (the tail the hedging policy races against).
    pub straggler_delay: DelayModel,
    /// Probability that any single I/O attempt fails transiently.
    pub transient_error_rate: f64,
    /// Probability that a given (node, block) copy reads back corrupted.
    pub corruption_rate: f64,
    /// Probability that a single heartbeat from a live node is lost on the
    /// way to the NameNode (exercises the failure detector's `Suspect` and
    /// `Rejoined` states without any real crash).
    pub heartbeat_loss_rate: f64,
    /// Crashes and outages activate at an operation index drawn uniformly
    /// from `[0, crash_window)`, spreading them across the run.
    pub crash_window: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            node_crashes: 1,
            rack_outages: 0,
            stragglers: 1,
            straggler_factor: 0.25,
            straggler_delay: DelayModel::Throttle,
            transient_error_rate: 0.02,
            corruption_rate: 0.02,
            heartbeat_loss_rate: 0.0,
            crash_window: 2_000,
        }
    }
}

impl FaultConfig {
    /// A gentle mix: one crash, one straggler, low error rates.
    pub fn light() -> Self {
        FaultConfig::default()
    }

    /// A hostile mix: crashes, a rack outage, stragglers, and noticeably
    /// lossy I/O — still survivable for `n - k >= 2` codes.
    pub fn heavy() -> Self {
        FaultConfig {
            node_crashes: 2,
            rack_outages: 1,
            stragglers: 2,
            straggler_factor: 0.1,
            straggler_delay: DelayModel::Throttle,
            transient_error_rate: 0.05,
            corruption_rate: 0.05,
            heartbeat_loss_rate: 0.05,
            crash_window: 5_000,
        }
    }
}

/// A scheduled fail-stop crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// The node that crashes.
    pub node: NodeId,
    /// Global operation index at which the crash takes effect.
    pub at_op: u64,
}

/// A scheduled whole-rack outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackOutage {
    /// The rack that goes dark.
    pub rack: RackId,
    /// Global operation index at which the outage takes effect.
    pub at_op: u64,
}

/// A concrete, replayable schedule of faults for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<NodeCrash>,
    outages: Vec<RackOutage>,
    stragglers: Vec<(NodeId, f64)>,
    straggler_delay: DelayModel,
    transient_error_rate: f64,
    corruption_rate: f64,
    heartbeat_loss_rate: f64,
}

impl FaultPlan {
    /// The empty plan: injects nothing. Used as the default wherever a
    /// cluster component takes an injector.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            outages: Vec::new(),
            stragglers: Vec::new(),
            straggler_delay: DelayModel::Throttle,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
        }
    }

    /// Expands `seed` into a schedule for `topo` according to `config`.
    ///
    /// Crash nodes, dead racks, and stragglers are sampled without
    /// replacement (stragglers avoid crashed nodes — throttling a dead node
    /// would inject nothing). Counts are clamped to the topology's size.
    pub fn generate(seed: u64, topo: &ClusterTopology, config: &FaultConfig) -> Self {
        let mut rng = ChaCha8::from_seed(seed);
        let n = topo.num_nodes();

        // One shuffled node pool: the first `node_crashes` crash, the next
        // `stragglers` straggle.
        let picks = rng.sample_indices(n, (config.node_crashes + config.stragglers).min(n));
        let crashes: Vec<NodeCrash> = picks
            .iter()
            .take(config.node_crashes)
            .map(|&i| NodeCrash {
                node: NodeId(i as u32),
                at_op: rng.below(config.crash_window.max(1)),
            })
            .collect();
        let stragglers: Vec<(NodeId, f64)> = picks
            .iter()
            .skip(config.node_crashes)
            .map(|&i| (NodeId(i as u32), config.straggler_factor))
            .collect();

        let outages: Vec<RackOutage> = rng
            .sample_indices(topo.num_racks(), config.rack_outages)
            .into_iter()
            .map(|r| RackOutage {
                rack: RackId(r as u32),
                at_op: rng.below(config.crash_window.max(1)),
            })
            .collect();

        FaultPlan {
            seed,
            crashes,
            outages,
            stragglers,
            straggler_delay: config.straggler_delay,
            transient_error_rate: config.transient_error_rate,
            corruption_rate: config.corruption_rate,
            heartbeat_loss_rate: config.heartbeat_loss_rate,
        }
    }

    /// The seed this plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.outages.is_empty()
            && self.stragglers.is_empty()
            && self.transient_error_rate <= 0.0
            && self.corruption_rate <= 0.0
            && self.heartbeat_loss_rate <= 0.0
    }

    /// Scheduled node crashes.
    pub fn crashes(&self) -> &[NodeCrash] {
        &self.crashes
    }

    /// Scheduled rack outages.
    pub fn outages(&self) -> &[RackOutage] {
        &self.outages
    }

    /// Straggler nodes and their bandwidth factors.
    pub fn stragglers(&self) -> &[(NodeId, f64)] {
        &self.stragglers
    }

    /// The per-attempt straggler delay distribution.
    pub fn straggler_delay(&self) -> DelayModel {
        self.straggler_delay
    }

    /// Per-attempt transient I/O error probability.
    pub fn transient_error_rate(&self) -> f64 {
        self.transient_error_rate
    }

    /// Per-(node, block) silent-corruption probability.
    pub fn corruption_rate(&self) -> f64 {
        self.corruption_rate
    }

    /// Per-heartbeat loss probability (the detector's flapping knob).
    pub fn heartbeat_loss_rate(&self) -> f64 {
        self.heartbeat_loss_rate
    }

    /// Upper bound on nodes that can be fail-stop-unavailable at once
    /// (crashed nodes plus every node of every dead rack), used by harnesses
    /// to keep a plan within a code's tolerance.
    pub fn max_down_nodes(&self, topo: &ClusterTopology) -> usize {
        let mut down: Vec<NodeId> = self.crashes.iter().map(|c| c.node).collect();
        for o in &self.outages {
            down.extend(topo.nodes_in_rack(o.rack).iter().copied());
        }
        down.sort_unstable();
        down.dedup();
        down.len()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "fault plan: none");
        }
        write!(
            f,
            "fault plan seed={}: {} crash(es), {} rack outage(s), {} straggler(s), \
             transient={:.1}%, corruption={:.1}%, heartbeat-loss={:.1}%",
            self.seed,
            self.crashes.len(),
            self.outages.len(),
            self.stragglers.len(),
            self.transient_error_rate * 100.0,
            self.corruption_rate * 100.0,
            self.heartbeat_loss_rate * 100.0,
        )?;
        match self.straggler_delay {
            DelayModel::Throttle => Ok(()),
            DelayModel::Fixed { ticks } => write!(f, ", delay=fixed({ticks})"),
            DelayModel::Pareto {
                scale_ticks,
                shape,
                cap_ticks,
            } => write!(f, ", delay=pareto({scale_ticks},{shape},{cap_ticks})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ClusterTopology {
        ClusterTopology::uniform(6, 4)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::heavy();
        let a = FaultPlan::generate(1234, &topo(), &cfg);
        let b = FaultPlan::generate(1234, &topo(), &cfg);
        assert_eq!(a, b);
        let c = FaultPlan::generate(1235, &topo(), &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn counts_respect_config_and_topology() {
        let cfg = FaultConfig {
            node_crashes: 2,
            rack_outages: 1,
            stragglers: 3,
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(7, &topo(), &cfg);
        assert_eq!(p.crashes().len(), 2);
        assert_eq!(p.outages().len(), 1);
        assert_eq!(p.stragglers().len(), 3);
        // Crashed nodes and stragglers are disjoint.
        for (s, _) in p.stragglers() {
            assert!(p.crashes().iter().all(|c| c.node != *s));
        }
        // A tiny topology clamps the counts.
        let tiny = ClusterTopology::uniform(1, 2);
        let p = FaultPlan::generate(7, &tiny, &cfg);
        assert!(p.crashes().len() + p.stragglers().len() <= 2);
        assert!(p.outages().len() <= 1);
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().to_string(), "fault plan: none");
        let p = FaultPlan::generate(1, &topo(), &FaultConfig::default());
        assert!(!p.is_empty());
        assert!(p.to_string().contains("seed=1"));
    }

    #[test]
    fn delay_models_sample_purely_and_respect_caps() {
        // Throttle: the delay is the extra service time the factor implies.
        let t = DelayModel::Throttle;
        assert_eq!(t.sample(0.5, 1000, 0.25), 3000);
        assert_eq!(t.sample(0.9, 1000, 1.0), 0);
        assert_eq!(t.sample(0.9, 1000, 0.0), 0);
        // Fixed ignores both the sample and the service time.
        let fx = DelayModel::Fixed { ticks: 42 };
        assert_eq!(fx.sample(0.0, 1, 0.1), 42);
        assert_eq!(fx.sample(0.999, 1_000_000, 0.1), 42);
        // Pareto: monotone in u, floored at scale, capped hard.
        let p = DelayModel::Pareto {
            scale_ticks: 400,
            shape: 1.2,
            cap_ticks: 200_000,
        };
        let lo = p.sample(0.0, 0, 0.1);
        let mid = p.sample(0.9, 0, 0.1);
        let hi = p.sample(0.999999, 0, 0.1);
        assert_eq!(lo, 400);
        assert!(mid > lo, "p90 {mid} must exceed the scale floor");
        assert!(hi <= 200_000, "samples must respect the cap, got {hi}");
        assert!(mid < hi);
        // Pure: same inputs, same sample.
        assert_eq!(p.sample(0.9, 0, 0.1), mid);
        // A non-positive shape clamps instead of dividing by zero.
        let bad = DelayModel::Pareto {
            scale_ticks: 10,
            shape: 0.0,
            cap_ticks: 100,
        };
        assert!(bad.sample(0.5, 0, 0.1) >= 10);
    }

    #[test]
    fn plan_display_names_non_default_delay_models() {
        let t = topo();
        let cfg = FaultConfig {
            straggler_delay: DelayModel::Pareto {
                scale_ticks: 400,
                shape: 1.2,
                cap_ticks: 200_000,
            },
            ..FaultConfig::default()
        };
        let p = FaultPlan::generate(3, &t, &cfg);
        assert!(p.to_string().contains("delay=pareto(400,1.2,200000)"));
        let legacy = FaultPlan::generate(3, &t, &FaultConfig::default());
        assert!(!legacy.to_string().contains("delay="));
    }

    #[test]
    fn max_down_nodes_counts_rack_members_once() {
        let cfg = FaultConfig {
            node_crashes: 1,
            rack_outages: 1,
            stragglers: 0,
            ..FaultConfig::default()
        };
        let t = topo();
        let p = FaultPlan::generate(99, &t, &cfg);
        let max = p.max_down_nodes(&t);
        // One rack of 4 plus at most one extra node outside it.
        assert!((4..=5).contains(&max), "got {max}");
    }
}
