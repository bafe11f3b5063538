//! The kept-replica matching of one stripe, grown one block at a time
//! (Section III-B, Fig. 5 of the paper).
//!
//! The paper's flow graph `S → blocks → nodes → racks → T` (unit edges up to
//! the racks, capacity `c` from each rack to `T`) saturates exactly when
//! every block of the stripe can keep one of its replicas with no node
//! keeping two blocks and no rack more than `c`. [`StripeMatching`] keeps
//! that flow between calls, so adding a block is one breadth-first search
//! for an augmenting path in the residual graph. The path may free a node by
//! moving the block kept there to another of its replicas, or free a slot of
//! a full rack by moving a block kept in that rack elsewhere; it ends at a
//! free node of a rack below `c`. Under Section III-D's target racks only
//! replicas in those racks can be kept.
//!
//! The sets of blocks that can all be kept form a matroid (a gammoid), so
//! adding blocks greedily in order reaches a maximum matching, and a block
//! is refused exactly when it and the blocks already kept admit no complete
//! matching — the answer a max-flow solve from zero flow gives.

use ear_types::{ClusterTopology, NodeId, RackId};
use std::collections::VecDeque;

/// A kept block: its replicas and the replica it keeps.
#[derive(Debug, Clone)]
struct Kept {
    replicas: Vec<NodeId>,
    node: NodeId,
    rack: RackId,
}

/// How the search reached a kept block that must move to another replica.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// This block's node goes to block `.0`.
    Node(usize),
    /// This block leaves the full rack of `reached[.0]`, whose free node
    /// goes to the block that reached it.
    Rack(usize),
}

/// One stripe's kept replicas, one per block: no node keeps two blocks, no
/// rack more than `c`, and, with target racks, no rack outside them. A
/// node's holder and a rack's load are read off the kept list, which holds
/// at most `k` blocks.
#[derive(Debug, Clone)]
pub(crate) struct StripeMatching {
    c: usize,
    eligible: Option<Vec<RackId>>,
    kept: Vec<Kept>,
}

impl StripeMatching {
    /// An empty matching that keeps at most `c` blocks per rack, in
    /// `eligible` racks only when given.
    pub(crate) fn new(c: usize, eligible: Option<&[RackId]>) -> Self {
        StripeMatching {
            c,
            eligible: eligible.map(<[RackId]>::to_vec),
            kept: Vec::new(),
        }
    }

    /// The kept node of each block added, in the order they were added.
    pub(crate) fn kept(&self) -> Vec<NodeId> {
        self.kept.iter().map(|k| k.node).collect()
    }

    /// Adds a block with replicas on `replicas` and returns whether it could
    /// be kept. A refused block leaves the matching as it was.
    pub(crate) fn add(&mut self, topo: &ClusterTopology, replicas: &[NodeId]) -> bool {
        // The block being added is `new`; no path leads back to it.
        let new = self.kept.len();
        let mut via = vec![None; new];
        // Racks reached through a free node: (rack, block that takes it, node).
        let mut reached: Vec<(RackId, usize, NodeId)> = Vec::new();
        let mut queue = VecDeque::from([new]);
        while let Some(x) = queue.pop_front() {
            let (candidates, current) = match self.kept.get(x) {
                Some(k) => (&k.replicas[..], Some(k.node)),
                None => (replicas, None),
            };
            for &node in candidates {
                let rack = topo.rack_of(node);
                let eligible = self.eligible.as_ref().is_none_or(|e| e.contains(&rack));
                if Some(node) == current || !eligible {
                    continue;
                }
                if let Some(holder) = self.kept.iter().position(|k| k.node == node) {
                    if via[holder].is_none() {
                        via[holder] = Some(Via::Node(x));
                        queue.push_back(holder);
                    }
                    continue;
                }
                if reached.iter().any(|&(r, ..)| r == rack) {
                    continue;
                }
                reached.push((rack, x, node));
                if self.kept.iter().filter(|k| k.rack == rack).count() < self.c {
                    self.augment(&via, &reached, replicas);
                    return true;
                }
                for (y, k) in self.kept.iter().enumerate() {
                    if k.rack == rack && via[y].is_none() {
                        via[y] = Some(Via::Rack(reached.len() - 1));
                        queue.push_back(y);
                    }
                }
            }
        }
        false
    }

    /// Applies the path the search found: the block that reached the last
    /// rack takes its free node, then each block on the way back takes the
    /// node or rack slot the block after it gave up.
    fn augment(
        &mut self,
        via: &[Option<Via>],
        reached: &[(RackId, usize, NodeId)],
        replicas: &[NodeId],
    ) {
        let Some(&(rack, last, node)) = reached.last() else {
            return;
        };
        let mut moves = vec![(last, node, rack)];
        let mut at = last;
        while let Some(&Some(step)) = via.get(at) {
            let (to, node, rack) = match step {
                Via::Node(to) => (to, self.kept[at].node, self.kept[at].rack),
                Via::Rack(i) => (reached[i].1, reached[i].2, reached[i].0),
            };
            moves.push((to, node, rack));
            at = to;
        }
        for (block, node, rack) in moves {
            match self.kept.get_mut(block) {
                Some(k) => (k.node, k.rack) = (node, rack),
                None => self.kept.push(Kept {
                    replicas: replicas.to_vec(),
                    node,
                    rack,
                }),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ear_types::prop::{check, range};

    /// The most blocks of `layouts` that can each keep one replica — one
    /// block per node, at most `c` per rack, `eligible` racks only — found
    /// by trying every assignment, leaving blocks unkept included.
    pub(crate) fn exhaustive(
        topo: &ClusterTopology,
        layouts: &[Vec<NodeId>],
        c: usize,
        eligible: Option<&[RackId]>,
    ) -> usize {
        fn best(
            topo: &ClusterTopology,
            layouts: &[Vec<NodeId>],
            c: usize,
            eligible: Option<&[RackId]>,
            used: &mut Vec<NodeId>,
        ) -> usize {
            let Some((first, rest)) = layouts.split_first() else {
                return 0;
            };
            let mut most = best(topo, rest, c, eligible, used);
            for &node in first {
                let rack = topo.rack_of(node);
                let load = used.iter().filter(|&&u| topo.rack_of(u) == rack).count();
                if used.contains(&node) || load >= c || eligible.is_some_and(|e| !e.contains(&rack))
                {
                    continue;
                }
                used.push(node);
                most = most.max(1 + best(topo, rest, c, eligible, used));
                used.pop();
            }
            most
        }
        best(topo, layouts, c, eligible, &mut Vec::new())
    }

    /// Feeds `layouts` to a fresh matching in order; returns it and which
    /// blocks it kept.
    fn feed(
        topo: &ClusterTopology,
        layouts: &[Vec<NodeId>],
        c: usize,
        eligible: Option<&[RackId]>,
    ) -> (StripeMatching, Vec<bool>) {
        let mut m = StripeMatching::new(c, eligible);
        let accepted = layouts.iter().map(|l| m.add(topo, l)).collect();
        (m, accepted)
    }

    /// The kept set keeps the rule: each kept node is a replica of its
    /// block, no node keeps two blocks, no rack more than `c`, and every
    /// kept node is in an eligible rack.
    fn assert_valid(
        topo: &ClusterTopology,
        kept_layouts: &[Vec<NodeId>],
        m: &StripeMatching,
        c: usize,
        eligible: Option<&[RackId]>,
    ) {
        let kept = m.kept();
        assert_eq!(kept.len(), kept_layouts.len());
        for (i, node) in kept.iter().enumerate() {
            let rack = topo.rack_of(*node);
            assert!(kept_layouts[i].contains(node), "block {i} keeps a replica");
            assert!(!kept[..i].contains(node), "{node} keeps one block");
            let load = kept.iter().filter(|&&u| topo.rack_of(u) == rack).count();
            assert!(load <= c, "{rack} keeps at most {c} blocks");
            assert!(
                eligible.is_none_or(|e| e.contains(&rack)),
                "{rack} is eligible"
            );
        }
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&n| NodeId(n)).collect()
    }

    /// Node `i` alone in rack `i`: the stripe matching is then a plain
    /// bipartite matching of blocks to nodes.
    fn bipartite(layouts: &[&[u32]]) -> (ClusterTopology, Vec<Vec<NodeId>>) {
        let layouts: Vec<_> = layouts.iter().map(|l| nodes(l)).collect();
        let width = layouts
            .iter()
            .flatten()
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(1);
        (ClusterTopology::uniform(width, 1), layouts)
    }

    #[test]
    fn agrees_with_exhaustive_search_on_random_stripes() {
        check("matching_agrees_with_exhaustive_search", 512, |rng| {
            let (racks, nodes_per_rack) = (range(rng, 1..=5), range(rng, 1..=3));
            let topo = ClusterTopology::uniform(racks as usize, nodes_per_rack as usize);
            let c = range(rng, 1..=3) as usize;
            let eligible: Option<Vec<RackId>> = match rng.below(2) {
                0 => None,
                _ => Some(topo.racks().filter(|_| rng.below(2) == 0).collect()),
            };
            let eligible = eligible.as_deref();
            let layouts: Vec<Vec<NodeId>> = (0..range(rng, 0..=7))
                .map(|_| {
                    let mut l: Vec<NodeId> = (0..range(rng, 1..=3))
                        .map(|_| NodeId(rng.below(topo.num_nodes() as u64) as u32))
                        .collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let mut m = StripeMatching::new(c, eligible);
            let mut kept_layouts: Vec<Vec<NodeId>> = Vec::new();
            for layout in &layouts {
                let before = m.kept();
                let mut with = kept_layouts.clone();
                with.push(layout.clone());
                let fits = exhaustive(&topo, &with, c, eligible) == with.len();
                assert_eq!(
                    m.add(&topo, layout),
                    fits,
                    "accept {layout:?} after {kept_layouts:?}"
                );
                match fits {
                    true => kept_layouts = with,
                    false => assert_eq!(m.kept(), before, "a refused block changes nothing"),
                }
                assert_valid(&topo, &kept_layouts, &m, c, eligible);
            }
            assert_eq!(kept_layouts.len(), exhaustive(&topo, &layouts, c, eligible));
        });
    }

    /// Over stripes too large for the exhaustive search, the kept set keeps
    /// the rule and stays within the plain upper bounds: the block count,
    /// the distinct replica nodes and `c` per rack.
    #[test]
    fn kept_matching_is_always_valid() {
        check("kept_matching_is_always_valid", 128, |rng| {
            let racks = range(rng, 2..=7) as usize;
            let topo = ClusterTopology::uniform(racks, range(rng, 1..=3) as usize);
            let c = range(rng, 1..=2) as usize;
            let layouts: Vec<Vec<NodeId>> = (0..range(rng, 1..=12))
                .map(|_| {
                    let mut l: Vec<NodeId> = (0..range(rng, 1..=3))
                        .map(|_| NodeId(rng.below(topo.num_nodes() as u64) as u32))
                        .collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let (m, accepted) = feed(&topo, &layouts, c, None);
            let kept_layouts: Vec<Vec<NodeId>> = layouts
                .iter()
                .zip(&accepted)
                .filter(|(_, &a)| a)
                .map(|(l, _)| l.clone())
                .collect();
            assert_valid(&topo, &kept_layouts, &m, c, None);
            let distinct: std::collections::HashSet<NodeId> =
                layouts.iter().flatten().copied().collect();
            let size = kept_layouts.len();
            assert!(size <= layouts.len());
            assert!(size <= distinct.len());
            assert!(size <= racks * c);
        });
    }

    #[test]
    fn feasible_layout_is_matched_completely() {
        let topo = ClusterTopology::uniform(4, 2);
        let layouts = [nodes(&[0, 2]), nodes(&[1, 4]), nodes(&[3, 6])];
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true; 3]);
        assert_valid(&topo, &layouts, &m, 1, None);
    }

    #[test]
    fn paper_fig4_example() {
        // Fig. 4: 8 nodes in 4 racks (2 per rack), 3 blocks, c = 1. Block 2
        // arrives while block 1 keeps node 0 in rack 0, block 3 while block
        // 2 keeps a node in rack 0 or 2; all three are kept in distinct racks.
        let topo = ClusterTopology::uniform(4, 2);
        let layouts = [nodes(&[0, 2]), nodes(&[1, 4]), nodes(&[3, 5])];
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true; 3]);
        assert_valid(&topo, &layouts, &m, 1, None);
    }

    #[test]
    fn infeasible_layout_detected() {
        // Section III-A's availability violation: three blocks whose
        // replicas all live in the same two racks, c = 1. The third is
        // refused, and the first two stay kept.
        let topo = ClusterTopology::uniform(4, 3);
        let layouts = [nodes(&[0, 3]), nodes(&[1, 4]), nodes(&[2, 5])];
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true, true, false]);
        assert_valid(&topo, &layouts[..2], &m, 1, None);
    }

    #[test]
    fn larger_c_relaxes_rack_constraint() {
        // The same layout with c = 2: two blocks in one rack, one in the other.
        let topo = ClusterTopology::uniform(4, 3);
        let layouts = [nodes(&[0, 3]), nodes(&[1, 4]), nodes(&[2, 5])];
        let (m, accepted) = feed(&topo, &layouts, 2, None);
        assert_eq!(accepted, [true; 3]);
        assert_valid(&topo, &layouts, &m, 2, None);
    }

    #[test]
    fn node_collision_limits_matching() {
        // Two blocks whose only replica is the same node.
        let topo = ClusterTopology::uniform(2, 2);
        let layouts = [nodes(&[0]), nodes(&[0])];
        let (m, accepted) = feed(&topo, &layouts, 2, None);
        assert_eq!(accepted, [true, false]);
        assert_eq!(m.kept(), nodes(&[0]));
    }

    #[test]
    fn target_racks_restrict_kept_copies() {
        // Section III-D: (6,3), c = 3, R' = 2 target racks. Every block has
        // a replica in rack 0 and one in rack 2, which is not a target, so
        // only the rack-0 copies can be kept.
        let topo = ClusterTopology::uniform(6, 4);
        let targets = [RackId(0), RackId(1)];
        let layouts = [nodes(&[0, 8]), nodes(&[1, 9]), nodes(&[2, 10])];
        let (m, accepted) = feed(&topo, &layouts, 3, Some(&targets));
        assert_eq!(accepted, [true; 3]);
        assert_valid(&topo, &layouts, &m, 3, Some(&targets));
        assert_eq!(m.kept(), nodes(&[0, 1, 2]));
    }

    #[test]
    fn target_racks_can_make_layout_infeasible() {
        // No replica in target rack 2 at all.
        let topo = ClusterTopology::uniform(3, 2);
        let (m, accepted) = feed(&topo, &[nodes(&[0, 2])], 1, Some(&[RackId(2)]));
        assert_eq!(accepted, [false]);
        assert!(m.kept().is_empty());
    }

    #[test]
    fn empty_stripe() {
        let m = StripeMatching::new(1, None);
        assert!(m.kept().is_empty());
    }

    #[test]
    fn empty_graph() {
        // Three blocks with no replica to keep: none is kept.
        let topo = ClusterTopology::uniform(3, 1);
        let (m, accepted) = feed(&topo, &[vec![], vec![], vec![]], 1, None);
        assert_eq!(accepted, [false; 3]);
        assert!(m.kept().is_empty());
    }

    #[test]
    fn saturated_left_vertex() {
        // Two blocks compete for the one node they share; the first keeps it.
        let (topo, layouts) = bipartite(&[&[0], &[0]]);
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true, false]);
        assert_eq!(m.kept(), nodes(&[0]));
    }

    #[test]
    fn augmenting_path_is_found() {
        // Block 0 takes node 0 first; block 1 has only node 0, so the path
        // moves block 0 to node 1.
        let (topo, layouts) = bipartite(&[&[0, 1], &[0]]);
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true, true]);
        assert_eq!(m.kept(), nodes(&[1, 0]));
    }

    #[test]
    fn perfect_matching_on_cycle() {
        // An even cycle of blocks and nodes: the last block closes it by
        // shifting every earlier block one node along.
        let (topo, layouts) = bipartite(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true; 4]);
        assert_valid(&topo, &layouts, &m, 1, None);
    }

    #[test]
    fn a_full_rack_gives_up_a_slot() {
        // c = 1, racks of two nodes. Block 0 keeps node 0 (rack 0); block 1
        // can only be kept on node 1, also rack 0, so block 0 leaves for
        // node 2 in rack 1 although node 0 itself is not wanted.
        let topo = ClusterTopology::uniform(2, 2);
        let layouts = [nodes(&[0, 2]), nodes(&[1])];
        let (m, accepted) = feed(&topo, &layouts, 1, None);
        assert_eq!(accepted, [true, true]);
        assert_eq!(m.kept(), nodes(&[2, 1]));
    }
}
