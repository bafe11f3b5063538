//! Heartbeat failure detection and degraded-state tracking: the sensing
//! half of the self-healing control plane (DESIGN.md §8).
//!
//! DataNodes emit heartbeats on a seeded emulated clock (one tick per
//! [`MiniCfs::heartbeat_tick`](crate::MiniCfs::heartbeat_tick)); the
//! NameNode-side [`FailureDetector`] turns arrival history into a phi-style
//! suspicion level per node and drives the `Live → Suspect → Dead →
//! Rejoined` state machine. Everything is deterministic: which heartbeats
//! are emitted is decided by the `ear-faults` plan (crashed nodes stop,
//! lossy links drop beats by a pure hash of `(seed, node, tick)`), so a
//! detector run replays exactly from a seed.
//!
//! The [`DegradedTracker`] is the bookkeeping between detection and repair:
//! it scans cluster metadata against the detector's view and maintains
//! priority queues of repair work keyed by *remaining redundancy* — a
//! stripe that can lose zero more shards is drained before one that can
//! still lose two, mirroring the priority tiers of HDFS's replication
//! monitor (Section II-B of the paper).

use crate::cluster::MiniCfs;
use ear_types::{BlockId, NodeHealth, NodeId, StripeId};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Suspicion level (missed-interval multiples) at which a `Live` node
/// becomes `Suspect`.
const PHI_SUSPECT: f64 = 3.0;
/// Suspicion level at which a `Suspect` node is declared `Dead`.
const PHI_DEAD: f64 = 8.0;
/// Heartbeat inter-arrival history window used to estimate the mean
/// interval (the adaptive part: lossy links inflate the estimate and
/// thereby the patience).
const WINDOW: usize = 16;
/// Consecutive heartbeats a `Rejoined` node must deliver before it is
/// trusted as `Live` again.
const REJOIN_HEARTBEATS: u32 = 3;

/// One observed state transition, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Clock tick at which the transition happened.
    pub tick: u64,
    /// The node.
    pub node: NodeId,
    /// Previous state.
    pub from: NodeHealth,
    /// New state.
    pub to: NodeHealth,
}

#[derive(Debug, Clone)]
struct NodeTracker {
    state: NodeHealth,
    /// Tick of the most recent heartbeat (boot counts as one).
    last_beat: u64,
    /// Recent inter-arrival intervals, in ticks.
    intervals: VecDeque<u64>,
    /// Consecutive heartbeats since rejoining.
    rejoin_streak: u32,
}

impl NodeTracker {
    fn new() -> Self {
        NodeTracker {
            state: NodeHealth::Live,
            last_beat: 0,
            intervals: VecDeque::new(),
            rejoin_streak: 0,
        }
    }

    /// Mean heartbeat inter-arrival estimate, floored at one tick.
    fn mean_interval(&self) -> f64 {
        if self.intervals.is_empty() {
            return 1.0;
        }
        let sum: u64 = self.intervals.iter().sum();
        (sum as f64 / self.intervals.len() as f64).max(1.0)
    }
}

/// The NameNode's phi-style failure detector over every DataNode.
#[derive(Debug)]
pub struct FailureDetector {
    nodes: Vec<NodeTracker>,
    /// The emulated clock: number of `observe` calls so far.
    now: u64,
}

impl FailureDetector {
    /// A detector for `num_nodes` DataNodes, all initially `Live`.
    pub fn new(num_nodes: usize) -> Self {
        FailureDetector {
            nodes: vec![NodeTracker::new(); num_nodes],
            now: 0,
        }
    }

    /// The current clock tick (number of observations so far).
    pub fn tick(&self) -> u64 {
        self.now
    }

    /// The tick the *next* `observe` call will be stamped with.
    pub fn next_tick(&self) -> u64 {
        self.now + 1
    }

    /// Feeds one clock tick of heartbeat arrivals (`beats[node]` = a beat
    /// from that node arrived this tick) and returns the state transitions
    /// it caused.
    ///
    /// The beat that brings a `Dead` node back starts a fresh interval
    /// history: the outage is not a heartbeat interval, and counting it
    /// would make the rejoined node's next silence look normal for as long
    /// as the outage lasted.
    ///
    /// # Panics
    ///
    /// Panics if `beats.len()` differs from the node count.
    pub fn observe(&mut self, beats: &[bool]) -> Vec<HealthTransition> {
        assert_eq!(beats.len(), self.nodes.len(), "one beat slot per node");
        self.now += 1;
        let now = self.now;
        let mut transitions = Vec::new();
        for (i, tracker) in self.nodes.iter_mut().enumerate() {
            let from = tracker.state;
            if beats[i] {
                if from == NodeHealth::Dead {
                    tracker.intervals.clear();
                } else {
                    tracker.intervals.push_back(now - tracker.last_beat);
                    while tracker.intervals.len() > WINDOW {
                        tracker.intervals.pop_front();
                    }
                }
                tracker.last_beat = now;
                tracker.state = match from {
                    NodeHealth::Live => NodeHealth::Live,
                    NodeHealth::Suspect => NodeHealth::Live,
                    NodeHealth::Dead => {
                        tracker.rejoin_streak = 1;
                        NodeHealth::Rejoined
                    }
                    NodeHealth::Rejoined => {
                        tracker.rejoin_streak += 1;
                        if tracker.rejoin_streak >= REJOIN_HEARTBEATS {
                            NodeHealth::Live
                        } else {
                            NodeHealth::Rejoined
                        }
                    }
                };
            } else {
                let phi = (now - tracker.last_beat) as f64 / tracker.mean_interval();
                tracker.state = match from {
                    NodeHealth::Dead => NodeHealth::Dead,
                    // A missed beat right after rejoining resets trust.
                    NodeHealth::Rejoined => {
                        tracker.rejoin_streak = 0;
                        NodeHealth::Suspect
                    }
                    NodeHealth::Live | NodeHealth::Suspect => {
                        if phi >= PHI_DEAD {
                            NodeHealth::Dead
                        } else if phi >= PHI_SUSPECT {
                            NodeHealth::Suspect
                        } else {
                            from
                        }
                    }
                };
            }
            if tracker.state != from {
                transitions.push(HealthTransition {
                    tick: now,
                    node: NodeId(i as u32),
                    from,
                    to: tracker.state,
                });
            }
        }
        transitions
    }

    /// Current state of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.nodes[node.index()].state
    }

    /// Current suspicion level of one node: elapsed ticks since its last
    /// heartbeat over its mean inter-arrival estimate.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn phi(&self, node: NodeId) -> f64 {
        let t = &self.nodes[node.index()];
        (self.now - t.last_beat) as f64 / t.mean_interval()
    }

    /// Snapshot of every node's state, indexed by node id.
    pub fn snapshot(&self) -> Vec<NodeHealth> {
        self.nodes.iter().map(|t| t.state).collect()
    }

    /// Nodes currently declared `Dead`.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == NodeHealth::Dead)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

/// What kind of repair a degraded block needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// A pre-encoding (replicated) block below its target replica count.
    ReReplicate {
        /// Live replicas remaining.
        have: usize,
        /// Target replica count.
        want: usize,
    },
    /// An encoded-stripe shard with no live copy; rebuild by degraded read.
    Reconstruct {
        /// The stripe the shard belongs to.
        stripe: StripeId,
    },
}

/// One queued repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairTask {
    /// The block to repair.
    pub block: BlockId,
    /// What to do.
    pub kind: RepairKind,
    /// Failures this block (or its stripe) can still absorb — the priority
    /// key; 0 means the next failure loses data (*critical*).
    pub remaining_redundancy: usize,
}

/// Priority queues of degraded state, keyed by remaining redundancy
/// (ascending: critical work first). Built by scanning cluster metadata
/// against the failure detector's view; rebuild each healer round.
#[derive(Debug, Default)]
pub struct DegradedTracker {
    queues: BTreeMap<usize, VecDeque<RepairTask>>,
    len: usize,
    /// Blocks with zero live, uncorrupted sources anywhere — more
    /// simultaneous failures than the redundancy scheme tolerates; the
    /// healer cannot help them.
    pub beyond_tolerance: Vec<BlockId>,
}

impl DegradedTracker {
    /// Scans every block and stripe of `cfs` against the health `snapshot`
    /// (indexed by node id) and queues the repairs. `known_bad` lists
    /// `(node, block)` copies the scrubber has already found corrupt; they
    /// do not count as live sources.
    pub fn scan(
        cfs: &MiniCfs,
        snapshot: &[NodeHealth],
        known_bad: &HashSet<(NodeId, BlockId)>,
    ) -> Self {
        let nn = cfs.namenode();
        let k = cfs.codec().params().k();
        let want = cfs.config().ear.replication().replicas();
        let alive = |n: NodeId, b: BlockId| -> bool {
            snapshot[n.index()] != NodeHealth::Dead && !known_bad.contains(&(n, b))
        };

        let mut tracker = DegradedTracker::default();
        for es in nn.encoded_stripes() {
            let members: Vec<BlockId> = es.members().collect();
            let live_members = members
                .iter()
                .filter(|&&b| {
                    nn.locations(b)
                        .is_some_and(|locs| locs.iter().any(|&h| alive(h, b)))
                })
                .count();
            if live_members == members.len() {
                continue;
            }
            if live_members < k {
                // Unreconstructable: > n - k shards gone at once.
                tracker.beyond_tolerance.extend(
                    members.iter().filter(|&&b| {
                        !nn.locations(b)
                            .is_some_and(|locs| locs.iter().any(|&h| alive(h, b)))
                    }),
                );
                continue;
            }
            let remaining = live_members - k;
            for &b in &members {
                let has_live = nn
                    .locations(b)
                    .is_some_and(|locs| locs.iter().any(|&h| alive(h, b)));
                if !has_live {
                    tracker.push(RepairTask {
                        block: b,
                        kind: RepairKind::Reconstruct { stripe: es.id },
                        remaining_redundancy: remaining,
                    });
                }
            }
        }

        // Pre-encoding blocks: everything allocated that is not a stripe
        // member. Blocks with an empty location set are unreferenced parity
        // ids from rolled-back encodes — nothing to repair.
        for b in (0..nn.block_count()).map(BlockId) {
            let Some(locs) = nn.locations(b) else { continue };
            if locs.is_empty() || nn.stripe_of(b).is_some() {
                continue;
            }
            let have = locs.iter().filter(|&&h| alive(h, b)).count();
            if have == 0 {
                tracker.beyond_tolerance.push(b);
            } else if have < want {
                tracker.push(RepairTask {
                    block: b,
                    kind: RepairKind::ReReplicate { have, want },
                    remaining_redundancy: have - 1,
                });
            }
        }
        tracker.beyond_tolerance.sort_unstable();
        tracker.beyond_tolerance.dedup();
        tracker
    }

    fn push(&mut self, task: RepairTask) {
        self.queues
            .entry(task.remaining_redundancy)
            .or_default()
            .push_back(task);
        self.len += 1;
    }

    /// Pops the most urgent task (lowest remaining redundancy first,
    /// FIFO within a priority).
    pub fn pop(&mut self) -> Option<RepairTask> {
        let (&key, queue) = self.queues.iter_mut().next()?;
        let task = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&key);
        }
        if task.is_some() {
            self.len -= 1;
        }
        task
    }

    /// Queued repairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no repairs are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued repairs at zero remaining redundancy (the critical tier).
    pub fn critical(&self) -> usize {
        self.queues.get(&0).map_or(0, VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> FailureDetector {
        FailureDetector::new(4)
    }

    fn tick_all(det: &mut FailureDetector, up: &[bool], times: usize) -> Vec<HealthTransition> {
        let mut all = Vec::new();
        for _ in 0..times {
            all.extend(det.observe(up));
        }
        all
    }

    #[test]
    fn steady_heartbeats_stay_live() {
        let mut det = detector();
        let t = tick_all(&mut det, &[true; 4], 50);
        assert!(t.is_empty());
        for n in 0..4 {
            assert_eq!(det.health(NodeId(n)), NodeHealth::Live);
            assert!(det.phi(NodeId(n)) <= 1.0);
        }
    }

    #[test]
    fn silent_node_walks_live_suspect_dead() {
        let mut det = detector();
        tick_all(&mut det, &[true; 4], 10);
        let beats = [false, true, true, true];
        // phi_suspect = 3 intervals of ~1 tick.
        tick_all(&mut det, &beats, 3);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Suspect);
        assert_eq!(det.health(NodeId(1)), NodeHealth::Live);
        tick_all(&mut det, &beats, 10);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Dead);
        assert_eq!(det.dead_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn dead_node_rejoins_then_earns_live() {
        let mut det = detector();
        tick_all(&mut det, &[true; 4], 5);
        tick_all(&mut det, &[false, true, true, true], 20);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Dead);
        let t = det.observe(&[true; 4]);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Rejoined);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, NodeHealth::Rejoined);
        // Default rejoin_heartbeats = 3: two more consecutive beats.
        det.observe(&[true; 4]);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Rejoined);
        det.observe(&[true; 4]);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Live);
    }

    #[test]
    fn missed_beat_while_rejoined_resets_trust() {
        let mut det = detector();
        tick_all(&mut det, &[true; 4], 5);
        tick_all(&mut det, &[false, true, true, true], 20);
        det.observe(&[true; 4]);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Rejoined);
        det.observe(&[false, true, true, true]);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Suspect);
    }

    /// Ticks of silence until a node reaches `to`.
    fn silent_ticks_until(det: &mut FailureDetector, to: NodeHealth) -> usize {
        let beats = [false, true, true, true];
        (1..=1_000)
            .find(|_| {
                det.observe(&beats);
                det.health(NodeId(0)) == to
            })
            .unwrap()
    }

    #[test]
    fn a_rejoined_node_is_judged_by_its_beats_not_its_outage() {
        // A fresh node falls silent: Suspect after 3 ticks (phi 3), Dead 5
        // ticks later (phi 8).
        let mut fresh = detector();
        tick_all(&mut fresh, &[true; 4], 10);
        assert_eq!(silent_ticks_until(&mut fresh, NodeHealth::Suspect), 3);
        assert_eq!(silent_ticks_until(&mut fresh, NodeHealth::Dead), 5);

        // A node back from a 200-tick outage and trusted again after three
        // beats falls silent: it is suspected and declared dead as fast, so
        // its breaker opens and the healer sees it.
        let mut det = detector();
        tick_all(&mut det, &[true; 4], 10);
        tick_all(&mut det, &[false, true, true, true], 200);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Dead);
        tick_all(&mut det, &[true; 4], 3);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Live);
        assert_eq!(silent_ticks_until(&mut det, NodeHealth::Suspect), 3);
        assert_eq!(silent_ticks_until(&mut det, NodeHealth::Dead), 5);
    }

    #[test]
    fn lossy_links_inflate_patience() {
        // A node that beats every other tick trains a mean interval of ~2,
        // so three silent ticks (phi 1.5) leave it Live.
        let mut det = detector();
        for i in 0..30 {
            let beat = i % 2 == 0;
            det.observe(&[beat, true, true, true]);
        }
        tick_all(&mut det, &[false, true, true, true], 3);
        assert_eq!(det.health(NodeId(0)), NodeHealth::Live);
    }

    #[test]
    fn observation_is_deterministic() {
        let mut a = detector();
        let mut b = detector();
        for i in 0..100u64 {
            let beats = [i % 3 != 0, true, i % 7 != 0, true];
            assert_eq!(a.observe(&beats), b.observe(&beats));
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn tracker_orders_by_remaining_redundancy() {
        let mut t = DegradedTracker::default();
        t.push(RepairTask {
            block: BlockId(1),
            kind: RepairKind::ReReplicate { have: 2, want: 3 },
            remaining_redundancy: 1,
        });
        t.push(RepairTask {
            block: BlockId(2),
            kind: RepairKind::Reconstruct { stripe: StripeId(0) },
            remaining_redundancy: 0,
        });
        t.push(RepairTask {
            block: BlockId(3),
            kind: RepairKind::Reconstruct { stripe: StripeId(1) },
            remaining_redundancy: 2,
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.critical(), 1);
        assert_eq!(t.pop().unwrap().block, BlockId(2));
        assert_eq!(t.pop().unwrap().block, BlockId(1));
        assert_eq!(t.pop().unwrap().block, BlockId(3));
        assert!(t.pop().is_none());
        assert!(t.is_empty());
    }
}
