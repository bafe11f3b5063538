//! Replica layouts and stripe placement records.

use ear_types::rng::ChaCha8;
use ear_types::{BlockId, ClusterTopology, Error, NodeId, RackId};
use std::collections::{BTreeMap, HashSet};

/// Where the replicas of one data block live, in placement order:
/// `replicas[0]` is the *first* replica (in EAR, the copy in the core rack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLayout {
    /// Nodes holding replicas, in placement order. Nodes are distinct.
    pub replicas: Vec<NodeId>,
}

impl BlockLayout {
    /// Creates a layout, checking that replica nodes are distinct.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or contains duplicates.
    pub fn new(replicas: Vec<NodeId>) -> Self {
        assert!(!replicas.is_empty(), "a block needs at least one replica");
        let unique: HashSet<_> = replicas.iter().collect();
        assert_eq!(
            unique.len(),
            replicas.len(),
            "replicas must be on distinct nodes"
        );
        BlockLayout { replicas }
    }

    /// The first replica's node.
    pub fn primary(&self) -> NodeId {
        self.replicas[0]
    }

    /// The set of racks spanned by the replicas.
    pub fn racks(&self, topo: &ClusterTopology) -> HashSet<RackId> {
        self.replicas.iter().map(|&n| topo.rack_of(n)).collect()
    }

    /// Whether some replica lives in `rack`.
    pub fn has_replica_in_rack(&self, topo: &ClusterTopology, rack: RackId) -> bool {
        self.replicas.iter().any(|&n| topo.rack_of(n) == rack)
    }
}

/// The pre-encoding placement of one stripe's `k` data blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripePlan {
    /// Replica layout of each data block (length `k`).
    layouts: Vec<BlockLayout>,
    /// The stripe's core rack (EAR); `None` under random replication.
    core_rack: Option<RackId>,
    /// Target racks restricting post-encoding placement (EAR, Section
    /// III-D); `None` means all racks are eligible.
    target_racks: Option<Vec<RackId>>,
    /// Layout-regeneration count per block (Theorem 1 telemetry): entry `i`
    /// is how many *extra* layouts were generated for block `i` beyond the
    /// first attempt.
    retries: Vec<usize>,
}

impl StripePlan {
    /// Assembles a stripe plan.
    ///
    /// # Panics
    ///
    /// Panics if `retries.len() != layouts.len()`.
    pub fn new(
        layouts: Vec<BlockLayout>,
        core_rack: Option<RackId>,
        target_racks: Option<Vec<RackId>>,
        retries: Vec<usize>,
    ) -> Self {
        assert_eq!(layouts.len(), retries.len(), "one retry count per block");
        StripePlan {
            layouts,
            core_rack,
            target_racks,
            retries,
        }
    }

    /// Replica layouts of the data blocks.
    pub fn data_layouts(&self) -> &[BlockLayout] {
        &self.layouts
    }

    /// The core rack, if the stripe was placed by EAR.
    pub fn core_rack(&self) -> Option<RackId> {
        self.core_rack
    }

    /// The target racks, if restricted (Section III-D).
    pub fn target_racks(&self) -> Option<&[RackId]> {
        self.target_racks.as_deref()
    }

    /// Per-block layout regeneration counts (Theorem 1 telemetry).
    pub fn retries(&self) -> &[usize] {
        &self.retries
    }

    /// Number of data blocks (`k`).
    pub fn num_blocks(&self) -> usize {
        self.layouts.len()
    }

    /// Total replicas across all blocks (network cost of writing the
    /// stripe's replicated data).
    pub fn total_replicas(&self) -> usize {
        self.layouts.iter().map(|l| l.replicas.len()).sum()
    }
}

/// Where one stripe's blocks sit, judged by the paper's post-encoding rule
/// (Sections II-B and III): no node holds two blocks of the stripe and no
/// rack holds more than `c`. Every placement made after the write — parity,
/// a relocated block, a rebuilt shard — asks this type, and the
/// PlacementMonitor's scan is its [`violations`](StripeSpread::violations).
#[derive(Debug, Clone)]
pub struct StripeSpread<'a> {
    topo: &'a ClusterTopology,
    c: usize,
    /// Blocks of the stripe on each node holding any.
    nodes: BTreeMap<NodeId, usize>,
    /// Blocks of the stripe in each rack holding any.
    racks: BTreeMap<RackId, usize>,
}

/// What a [`StripeSpread`] holds against the rule, in rack and node order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpreadViolations {
    /// Racks holding more than `c` blocks of the stripe, with their counts.
    pub overloaded_racks: Vec<(RackId, usize)>,
    /// Nodes holding more than one block of the stripe.
    pub clashing_nodes: Vec<NodeId>,
}

impl SpreadViolations {
    /// Whether the stripe satisfies the rule.
    pub fn is_empty(&self) -> bool {
        self.overloaded_racks.is_empty() && self.clashing_nodes.is_empty()
    }
}

impl<'a> StripeSpread<'a> {
    /// The spread of a stripe with one block on each of `holders` (a node
    /// listed twice holds two).
    pub fn of(
        topo: &'a ClusterTopology,
        c: usize,
        holders: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut spread = StripeSpread {
            topo,
            c,
            nodes: BTreeMap::new(),
            racks: BTreeMap::new(),
        };
        holders.into_iter().for_each(|node| spread.place(node));
        spread
    }

    /// The most blocks of the stripe one rack may hold.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Whether `node` holds a block of the stripe.
    pub fn holds(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    fn rack_load(&self, rack: RackId) -> usize {
        self.racks.get(&rack).copied().unwrap_or(0)
    }

    /// Whether one more block may go to `node`: it holds none and its rack
    /// holds fewer than `c`.
    pub fn admits(&self, node: NodeId) -> bool {
        !self.holds(node) && self.rack_load(self.topo.rack_of(node)) < self.c
    }

    /// Records one more block of the stripe on `node`.
    pub fn place(&mut self, node: NodeId) {
        *self.nodes.entry(node).or_insert(0) += 1;
        *self.racks.entry(self.topo.rack_of(node)).or_insert(0) += 1;
    }

    /// Records that one block of the stripe left `node` (a node holding
    /// none is left as it is).
    pub fn vacate(&mut self, node: NodeId) {
        let rack = self.topo.rack_of(node);
        let (Some(held), Some(load)) = (self.nodes.get_mut(&node), self.racks.get_mut(&rack))
        else {
            return;
        };
        *held -= 1;
        *load -= 1;
        if *held == 0 {
            self.nodes.remove(&node);
        }
        if *load == 0 {
            self.racks.remove(&rack);
        }
    }

    /// Everything the stripe holds against the rule.
    pub fn violations(&self) -> SpreadViolations {
        SpreadViolations {
            overloaded_racks: self
                .racks
                .iter()
                .filter(|&(_, &held)| held > self.c)
                .map(|(&rack, &held)| (rack, held))
                .collect(),
            clashing_nodes: self
                .nodes
                .iter()
                .filter(|&(_, &held)| held > 1)
                .map(|(&node, _)| node)
                .collect(),
        }
    }

    /// Picks a random node the spread [admits](StripeSpread::admits): the
    /// racks of `eligible` (all racks when `None`) with room are shuffled
    /// and the first with a node holding no block of the stripe yields one
    /// of those nodes at random.
    pub fn pick(&self, eligible: Option<&[RackId]>, rng: &mut ChaCha8) -> Option<NodeId> {
        let mut candidates: Vec<RackId> = match eligible {
            Some(list) => list.to_vec(),
            None => self.topo.racks().collect(),
        };
        candidates.retain(|&r| self.rack_load(r) < self.c);
        rng.shuffle(&mut candidates);
        for rack in candidates {
            let free: Vec<NodeId> = self
                .topo
                .nodes_in_rack(rack)
                .iter()
                .copied()
                .filter(|&n| !self.holds(n))
                .collect();
            if let Some(&node) = rng.choose(&free) {
                return Some(node);
            }
        }
        None
    }
}

/// The shape of one rack fold, decided before any byte moves: `rows`
/// GF(2⁸) linear combinations of listed sources, computed at `at` and
/// delivered to `sink` as one chain (RapidRAID, arXiv:1207.6744).
///
/// A source `at` already holds has no home; any other's home is its best
/// holder not known dead — `at`'s rack first, then the lowest rack, then the
/// lowest node — or its first holder if all are dead. **A remote rack home
/// to `s ≥ rows` sources folds** at its lowest-indexed home; every other
/// source is read whole at `at`. Cross-rack traffic towards `at` is thus
/// `Σ min(sᵣ, rows)` blocks over remote racks, and at a `rows` no rack
/// reaches (`usize::MAX`) the plan is the classical gather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPlan {
    /// The folding node.
    pub at: NodeId,
    /// Where the rows are delivered.
    pub sink: NodeId,
    /// Each source's home, by list position (`None`: held at `at`).
    pub homes: Vec<Option<NodeId>>,
    /// The folding racks, in ascending rack id. The rows are a sum, so a
    /// caller may permute them: that changes the route, not the bytes.
    pub hops: Vec<ChainHop>,
    /// List positions of the sources read whole at `at`, in list order.
    pub whole: Vec<usize>,
}

/// A remote rack that folds its sources at one node before anything
/// crosses its boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// The rack's lowest-indexed home.
    pub aggregator: NodeId,
    /// List position of the first source homed at the aggregator: the one
    /// to blame when the aggregator cannot be reached.
    pub own: usize,
    /// List positions of the rack's sources, in list order.
    pub members: Vec<usize>,
}

impl ChainPlan {
    /// Plans the fold of `sources`, each a block and its holders.
    ///
    /// # Errors
    ///
    /// The position of the first source not held that has no holder, with
    /// [`Error::BlockUnavailable`], before anything is read.
    pub fn of<'h>(
        topo: &ClusterTopology,
        at: NodeId,
        sink: NodeId,
        rows: usize,
        sources: impl IntoIterator<Item = (BlockId, &'h [NodeId])>,
        is_dead: impl Fn(NodeId) -> bool,
        is_held: impl Fn(BlockId) -> bool,
    ) -> Result<ChainPlan, (usize, Error)> {
        let at_rack = topo.rack_of(at);
        let mut homes = Vec::new();
        let mut remote: BTreeMap<RackId, Vec<(usize, NodeId)>> = BTreeMap::new();
        for (pos, (block, holders)) in sources.into_iter().enumerate() {
            if is_held(block) {
                homes.push(None);
                continue;
            }
            let home = holders
                .iter()
                .copied()
                .filter(|&h| !is_dead(h))
                .min_by_key(|&h| (topo.rack_of(h) != at_rack, topo.rack_of(h), h))
                .or(holders.first().copied())
                .ok_or((pos, Error::BlockUnavailable { block }))?;
            if topo.rack_of(home) != at_rack {
                remote.entry(topo.rack_of(home)).or_default().push((pos, home));
            }
            homes.push(Some(home));
        }
        let hops: Vec<ChainHop> = remote
            .into_values()
            .filter(|members| members.len() >= rows)
            .filter_map(|members| {
                let &(own, aggregator) = members.iter().min_by_key(|&&(_, home)| home)?;
                let members = members.into_iter().map(|(pos, _)| pos).collect();
                Some(ChainHop { aggregator, own, members })
            })
            .collect();
        let folded: HashSet<usize> = hops.iter().flat_map(|hop| &hop.members).copied().collect();
        let whole = (0..homes.len()).filter(|pos| !folded.contains(pos)).collect();
        Ok(ChainPlan { at, sink, homes, hops, whole })
    }

    /// The chain the rows travel once: each hop's aggregator in order, `at`,
    /// then `sink` unless it is `at`.
    pub fn path(&self) -> Vec<NodeId> {
        let mut path: Vec<NodeId> = self.hops.iter().map(|h| h.aggregator).collect();
        path.extend([self.at, self.sink]);
        path.dedup();
        path
    }
}

/// The outcome of planning the encoding operation for one stripe: which node
/// encodes, what it must download, which replicas survive, where parity
/// goes, and what (if anything) must be relocated afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodePlan {
    /// The node chosen to run the encoding task.
    pub encoding_node: NodeId,
    /// Indices of data blocks that must be fetched from a *different rack*
    /// than the encoding node's (each one is a cross-rack download).
    pub cross_rack_sources: Vec<usize>,
    /// For each data block, the node whose replica is kept after encoding.
    pub kept_data: Vec<NodeId>,
    /// Nodes receiving the `n - k` parity blocks.
    pub parity_nodes: Vec<NodeId>,
    /// Post-encoding relocations needed to restore rack-level fault
    /// tolerance: `(block_index, from, to)`. Always empty under EAR.
    pub relocations: Vec<(usize, NodeId, NodeId)>,
}

impl EncodePlan {
    /// Number of cross-rack block downloads the encoding node performs.
    pub fn cross_rack_downloads(&self) -> usize {
        self.cross_rack_sources.len()
    }

    /// Whether the stripe needed post-encoding relocation (an availability
    /// violation under the paper's Section II-B analysis).
    pub fn violated_rack_fault_tolerance(&self) -> bool {
        !self.relocations.is_empty()
    }

    /// Final data-block locations after any relocations are applied.
    pub fn final_data_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.kept_data.clone();
        for &(idx, _, to) in &self.relocations {
            nodes[idx] = to;
        }
        nodes
    }

    /// Validates the post-encoding invariants the paper requires:
    /// all `n` blocks on distinct nodes, and no rack holding more than `c`
    /// blocks of the stripe (after relocations).
    ///
    /// Returns a human-readable violation description, or `None` if the
    /// plan is valid.
    pub fn check_fault_tolerance(&self, topo: &ClusterTopology, c: usize) -> Option<String> {
        let holders = self.final_data_nodes().into_iter().chain(self.parity_nodes.iter().copied());
        let found = StripeSpread::of(topo, c, holders).violations();
        if let Some(n) = found.clashing_nodes.first() {
            return Some(format!("{n} holds two blocks of the stripe"));
        }
        let (rack, count) = found.overloaded_racks.first()?;
        Some(format!("{rack} holds {count} blocks (max {c})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_accessors() {
        let topo = ClusterTopology::uniform(3, 2);
        let l = BlockLayout::new(vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(l.primary(), NodeId(0));
        let racks = l.racks(&topo);
        assert_eq!(racks.len(), 2);
        assert!(l.has_replica_in_rack(&topo, RackId(0)));
        assert!(l.has_replica_in_rack(&topo, RackId(1)));
        assert!(!l.has_replica_in_rack(&topo, RackId(2)));
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn duplicate_replicas_panic() {
        let _ = BlockLayout::new(vec![NodeId(0), NodeId(0)]);
    }

    #[test]
    fn stripe_plan_accessors() {
        let layouts = vec![
            BlockLayout::new(vec![NodeId(0), NodeId(2)]),
            BlockLayout::new(vec![NodeId(1), NodeId(4)]),
        ];
        let plan = StripePlan::new(layouts, Some(RackId(0)), None, vec![0, 3]);
        assert_eq!(plan.num_blocks(), 2);
        assert_eq!(plan.total_replicas(), 4);
        assert_eq!(plan.core_rack(), Some(RackId(0)));
        assert_eq!(plan.retries(), &[0, 3]);
    }

    #[test]
    fn chain_plans_follow_the_rack_fold_rule() {
        use ear_types::prop::{check, range};
        check("chain_plans_follow_the_rack_fold_rule", 256, |rng| {
            let sizes: Vec<usize> =
                (0..range(rng, 1..=6)).map(|_| range(rng, 1..=4) as usize).collect();
            let topo = ClusterTopology::with_rack_sizes(&sizes);
            let nodes = topo.num_nodes() as u64;
            let node = |rng: &mut ChaCha8| NodeId(rng.below(nodes) as u32);
            let at = node(rng);
            let sink = if rng.below(2) == 0 { at } else { node(rng) };
            let rows = range(rng, 1..=4) as usize;
            let dead: HashSet<NodeId> = topo.nodes().filter(|_| rng.below(4) == 0).collect();
            let lists: Vec<(BlockId, Vec<NodeId>)> = (0..range(rng, 0..=12))
                .map(|b| {
                    let count = if rng.below(16) == 0 { 0 } else { range(rng, 1..=3) };
                    (BlockId(b), (0..count).map(|_| node(rng)).collect())
                })
                .collect();
            let held: HashSet<BlockId> =
                lists.iter().map(|&(b, _)| b).filter(|_| rng.below(5) == 0).collect();
            let sources = || lists.iter().map(|(b, holders)| (*b, holders.as_slice()));
            let is_dead = |n: NodeId| dead.contains(&n);
            let is_held = |b: BlockId| held.contains(&b);
            let plan_at = |rows| ChainPlan::of(&topo, at, sink, rows, sources(), is_dead, is_held);

            // The reference: a home per source not held, and the sources
            // each remote rack is home to.
            let at_rack = topo.rack_of(at);
            let homes: Vec<Option<NodeId>> = lists
                .iter()
                .map(|(b, holders)| {
                    let live = holders.iter().copied().filter(|h| !dead.contains(h));
                    let rank = |&h: &NodeId| (topo.rack_of(h) != at_rack, topo.rack_of(h), h);
                    let best = live.min_by_key(rank).or(holders.first().copied());
                    best.filter(|_| !held.contains(b))
                })
                .collect();
            let homeless = lists.iter().position(|(b, hs)| hs.is_empty() && !held.contains(b));
            if let Some(pos) = homeless {
                let block = lists[pos].0;
                assert_eq!(plan_at(rows), Err((pos, Error::BlockUnavailable { block })));
                return;
            }
            let mut remote: BTreeMap<RackId, Vec<usize>> = BTreeMap::new();
            for (pos, home) in homes.iter().enumerate() {
                let rack = home.map(|h| topo.rack_of(h)).filter(|&r| r != at_rack);
                if let Some(rack) = rack {
                    remote.entry(rack).or_default().push(pos);
                }
            }
            let plan = plan_at(rows).unwrap();
            assert_eq!(plan.homes, homes);

            // Bytes: a plan ships `rows` per chain leg into `at` and one
            // block per remote source it reads whole — Σ min(sᵣ, rows).
            let crossing = |plan: &ChainPlan, rows: usize| {
                let remote = |&&p: &&usize| homes[p].is_some_and(|h| topo.rack_of(h) != at_rack);
                rows * plan.hops.len() + plan.whole.iter().filter(remote).count()
            };
            let folded: usize = remote.values().map(|s| s.len().min(rows)).sum();
            assert_eq!(crossing(&plan, rows), folded);

            // The hop rule: exactly the racks home to ≥ rows sources, in
            // ascending rack id, each at its lowest home, no held source.
            let hop_racks: Vec<RackId> =
                plan.hops.iter().map(|h| topo.rack_of(h.aggregator)).collect();
            let want: Vec<RackId> =
                remote.iter().filter(|(_, s)| s.len() >= rows).map(|(&r, _)| r).collect();
            assert_eq!(hop_racks, want);
            assert!(hop_racks.windows(2).all(|w| w[0] < w[1]));
            for hop in &plan.hops {
                assert_eq!(hop.members, remote[&topo.rack_of(hop.aggregator)]);
                let lowest = hop.members.iter().filter_map(|&pos| homes[pos]).min();
                assert_eq!(lowest, Some(hop.aggregator));
                let own = hop.members.iter().find(|&&pos| homes[pos] == lowest);
                assert_eq!(own, Some(&hop.own));
                assert!(hop.members.iter().all(|&pos| !held.contains(&lists[pos].0)));
            }
            let in_hops: HashSet<&usize> = plan.hops.iter().flat_map(|h| &h.members).collect();
            let whole: Vec<usize> = (0..lists.len()).filter(|p| !in_hops.contains(p)).collect();
            assert_eq!(plan.whole, whole);

            // The path: the aggregators, `at`, then `sink` once. The folding
            // nodes sit in distinct racks; the sink, placed by its caller,
            // may share one with a hop.
            let path = plan.path();
            let (folding, delivery) = path.split_at(plan.hops.len() + 1);
            assert_eq!(folding.last(), Some(&at));
            assert_eq!(delivery, &[sink][..usize::from(sink != at)]);
            let racks: HashSet<RackId> = folding.iter().map(|&n| topo.rack_of(n)).collect();
            assert_eq!(racks.len(), folding.len(), "{path:?}");

            // The gather, at a row count no rack reaches: nothing folds and
            // every remote source crosses whole.
            let gather = plan_at(usize::MAX).unwrap();
            assert!(gather.hops.is_empty());
            assert_eq!(gather.whole, (0..lists.len()).collect::<Vec<_>>());
            assert_eq!(gather.path(), [&[at][..], delivery].concat());
            let whole_bytes: usize = remote.values().map(Vec::len).sum();
            assert_eq!(crossing(&gather, rows), whole_bytes);
        });
    }

    #[test]
    fn encode_plan_fault_tolerance_check() {
        let topo = ClusterTopology::uniform(4, 2);
        let ok = EncodePlan {
            encoding_node: NodeId(0),
            cross_rack_sources: vec![],
            kept_data: vec![NodeId(0), NodeId(2), NodeId(4)],
            parity_nodes: vec![NodeId(6)],
            relocations: vec![],
        };
        assert_eq!(ok.check_fault_tolerance(&topo, 1), None);

        let dup_node = EncodePlan {
            kept_data: vec![NodeId(0), NodeId(0), NodeId(4)],
            ..ok.clone()
        };
        assert!(dup_node.check_fault_tolerance(&topo, 1).is_some());

        let rack_overflow = EncodePlan {
            kept_data: vec![NodeId(0), NodeId(1), NodeId(4)],
            ..ok.clone()
        };
        assert!(rack_overflow.check_fault_tolerance(&topo, 1).is_some());
        // The same layout is fine if c = 2.
        assert_eq!(rack_overflow.check_fault_tolerance(&topo, 2), None);
    }

    #[test]
    fn relocations_apply_to_final_nodes() {
        let topo = ClusterTopology::uniform(4, 2);
        let plan = EncodePlan {
            encoding_node: NodeId(0),
            cross_rack_sources: vec![1],
            kept_data: vec![NodeId(0), NodeId(1)],
            parity_nodes: vec![NodeId(4)],
            relocations: vec![(1, NodeId(1), NodeId(6))],
        };
        assert!(plan.violated_rack_fault_tolerance());
        assert_eq!(plan.final_data_nodes(), vec![NodeId(0), NodeId(6)]);
        // After relocation the plan satisfies c = 1.
        assert_eq!(plan.check_fault_tolerance(&topo, 1), None);
    }
}
