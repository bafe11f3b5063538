//! Rack-balanced repair (DESIGN.md §8): where every rebuild of a lost set is
//! decoded and which survivors it reads, decided for the whole set before any
//! byte moves, so that no link carries more than its share of the chains
//! (D3, arXiv:2004.03998).

use crate::StripeSpread;
use ear_types::{BlockId, ClusterTopology, NodeId, RackId, StripeId};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A surviving stripe member a rebuild may read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Survivor {
    /// The member's row in the stripe's generator order.
    pub index: usize,
    /// The member.
    pub block: BlockId,
    /// The reachable node to read it from.
    pub holder: NodeId,
}

/// One lost stripe member to plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rebuild {
    /// Its stripe: the rebuilds of one stripe share the stripe's spread.
    pub stripe: StripeId,
    /// The surviving members a rebuild may read.
    pub survivors: Vec<Survivor>,
    /// One node per placed member of the stripe: the spread the rebuilt
    /// block must keep.
    pub placed: Vec<NodeId>,
}

/// Where one rebuild runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairSite {
    /// The recovery node: the chain ends here and the block is decoded.
    pub at: NodeId,
    /// Where the rebuilt block is kept: `at` itself when the stripe's spread
    /// admits it or admits no node the caller accepts, else one more leg
    /// away.
    pub sink: NodeId,
    /// The survivors in preference order: the first `k` are read, the rest
    /// are spares for a source that cannot be read.
    pub sources: Vec<Survivor>,
    /// The aggregator that heads the chain (`None`: no rack folds). The
    /// [`ChainPlan`](crate::ChainPlan) of the first `k` sources lists its
    /// hops in ascending rack id; moving this one to the front is the
    /// planned route.
    pub head: Option<NodeId>,
}

/// The planned legs on one direction of the node links.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkBalance {
    /// Legs on the busiest link.
    pub max: usize,
    /// Mean legs over the nodes the plan gave a leg in either direction.
    pub mean: f64,
}

impl LinkBalance {
    /// `max / mean`: 1 when every used link carries the same share, 0 when
    /// nothing was planned.
    pub fn ratio(&self) -> f64 {
        if self.mean > 0.0 {
            self.max as f64 / self.mean
        } else {
            0.0
        }
    }
}

/// Plans the rebuilds of a lost set one after another, in task order, on
/// top of the block-sized legs the earlier ones put on each node's up-link
/// and down-link. It draws nothing at random, so a list of rebuilds gets the
/// same sites however their execution later interleaves.
///
/// For each [`site`](RepairPlanner::site):
///
/// * **Sources.** The trusted survivors rack by rack, densest rack first so
///   that the first `k` span the fewest racks; among racks of one density,
///   those where the block could be decoded and kept first, then the one
///   whose best member has the least-loaded up-link. Suspect holders come
///   last. The first `k` are read, the rest are spares.
/// * **Recovery node and sink.** Both are nodes the caller accepts, the sink
///   one the stripe's [`StripeSpread`] admits, counting the sinks already
///   planned for the same stripe; when the spread admits no accepted node,
///   the recovery node keeps the block itself. The recovery node sits in a
///   rack of the first `k` where it can (the fold then crosses racks once
///   per other such rack, the densest-rack rule's count, so balance never
///   costs bytes); a recovery node that is its own sink is preferred, then
///   one holding no member of the stripe.
/// * **Head.** Every other rack of the first `k` folds at its lowest holder
///   ([`ChainPlan::of`](crate::ChainPlan::of) at one row); the aggregator
///   with the most down-link load heads the chain, since the head receives
///   nothing.
///
/// Remaining ties go to the smallest busiest-link load after the rebuild,
/// then the smallest growth of the sum of squared loads, then the lowest
/// node ids.
#[derive(Debug, Clone)]
pub struct RepairPlanner<'t> {
    topo: &'t ClusterTopology,
    c: usize,
    k: usize,
    /// Legs planned per link: node up-links, then node down-links, each
    /// block indexed by node id.
    legs: Vec<usize>,
    /// The sinks planned so far, per stripe.
    planned: BTreeMap<StripeId, Vec<NodeId>>,
}

/// The first `k` sources of a rebuild grouped for the chain: each rack's
/// holders, lowest first — the first of a rack that folds is its
/// aggregator — in ascending rack id.
struct Racks(Vec<(RackId, NodeId)>);

impl Racks {
    fn runs(&self) -> impl Iterator<Item = &[(RackId, NodeId)]> + Clone {
        self.0.chunk_by(|a, b| a.0 == b.0)
    }

    /// The aggregator of each rack but `local`, in ascending rack id.
    fn aggregators(&self, local: RackId) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self.runs().filter_map(move |run| run.first().filter(|(r, _)| *r != local).map(|h| h.1))
    }

    /// Every leg of the fold when `at`, in rack `local`, decodes: reads
    /// into each other rack's aggregator, the chain from `head` through the
    /// others in rack order to `at`, and `local` read whole at `at`.
    fn legs(
        &self,
        legs: &mut Vec<(NodeId, NodeId)>,
        at: NodeId,
        local: RackId,
        head: Option<NodeId>,
    ) {
        legs.clear();
        for run in self.runs() {
            let Some(&(rack, aggregator)) = run.first() else { continue };
            let reader = if rack == local { at } else { aggregator };
            legs.extend(run.iter().map(|&(_, h)| (h, reader)));
        }
        let others = self.aggregators(local).filter(|&a| Some(a) != head);
        let mut from = head;
        for to in others.chain([at]) {
            legs.extend(from.map(|from| (from, to)));
            from = Some(to);
        }
        legs.retain(|&(src, dst)| src != dst);
    }
}

/// How two candidates `(at, sink)` of the same kind rank: busiest link
/// after the rebuild, growth of Σ load², `at`, `sink`.
type Score = (usize, usize, NodeId, NodeId);

impl<'t> RepairPlanner<'t> {
    /// A planner for `(n, k)` stripes held to `c` blocks per rack, with no
    /// leg planned yet.
    pub fn new(topo: &'t ClusterTopology, c: usize, k: usize) -> Self {
        RepairPlanner {
            topo,
            c,
            k,
            legs: vec![0; 2 * topo.num_nodes()],
            planned: BTreeMap::new(),
        }
    }

    /// Plans `rebuild` and books its legs. `accepts` says which nodes may
    /// decode or keep the block; `suspect` which holders to read last.
    /// `None` when it accepts no node.
    pub fn site(
        &mut self,
        rebuild: &Rebuild,
        accepts: impl Fn(NodeId) -> bool,
        suspect: impl Fn(NodeId) -> bool,
    ) -> Option<RepairSite> {
        let topo = self.topo;
        let planned = self.planned.get(&rebuild.stripe).map_or(&[][..], Vec::as_slice);
        let spread = StripeSpread::of(topo, self.c, rebuild.placed.iter().chain(planned).copied());
        // The nodes that may decode, whether each may keep the block too,
        // and per rack whether none could keep it and none could decode it.
        let mut ats: Vec<(NodeId, bool)> = Vec::new();
        let mut unfit = vec![(true, true); topo.num_racks()];
        for at in topo.nodes().filter(|&nd| accepts(nd)) {
            let keeps = spread.admits(at);
            if let Some(rack) = unfit.get_mut(topo.rack_of(at).index()) {
                *rack = (rack.0 && !keeps, false);
            }
            ats.push((at, keeps));
        }
        let sinks: Vec<NodeId> =
            ats.iter().filter(|&&(_, keeps)| keeps).map(|&(at, _)| at).collect();

        // Trusted survivors rack by rack, then the Suspect ones.
        let trusted = |s: &Survivor| !suspect(s.holder);
        let key = |s: &Survivor| (self.up_load(s.holder), s.holder, s.index);
        let mut density: Vec<(RackId, usize, (usize, NodeId, usize))> = Vec::new();
        for s in rebuild.survivors.iter().filter(|s| trusted(s)) {
            let rack = topo.rack_of(s.holder);
            match density.iter_mut().find(|(r, ..)| *r == rack) {
                Some((_, count, best)) => (*count, *best) = (*count + 1, (*best).min(key(s))),
                None => density.push((rack, 1, key(s))),
            }
        }
        let mut sources = rebuild.survivors.clone();
        sources.sort_by_cached_key(|s| {
            let rack = topo.rack_of(s.holder);
            let fit = unfit.get(rack.index()).copied();
            let dense = density
                .iter()
                .find(|(r, ..)| *r == rack)
                .map(|&(_, n, best)| (Reverse(n), fit, best));
            (!trusted(s), dense, rack, key(s))
        });
        let chosen = sources.get(..self.k).unwrap_or(&sources);
        let mut racks: Vec<(RackId, NodeId)> =
            chosen.iter().map(|s| (topo.rack_of(s.holder), s.holder)).collect();
        racks.sort_unstable();
        let racks = Racks(racks);
        let folding = racks.runs().count();

        // Candidates: accepted nodes in a rack of the first `k` (one fewer
        // rack to cross), and of those the best kind: their own sink, then
        // holding no member.
        let kinds: Vec<_> = ats
            .iter()
            .map(|&(at, keeps)| {
                let local = racks.0.iter().any(|h| h.0 == topo.rack_of(at));
                ((folding - usize::from(local), !keeps, spread.holds(at)), at)
            })
            .collect();
        let top = kinds.iter().map(|&(kind, _)| kind).min()?;
        // The aggregators by down-link load, most first: a candidate's head
        // is the first not in its own rack.
        let mut heads: Vec<NodeId> = racks.runs().filter_map(|run| Some(run.first()?.1)).collect();
        heads.sort_by_key(|&a| (Reverse(self.down_load(a)), a));

        let busiest = self.legs.iter().copied().max().unwrap_or(0);
        let (mut extra, mut touched, mut legs) = (vec![0; self.legs.len()], Vec::new(), Vec::new());
        let mut best: Option<(Score, Option<NodeId>)> = None;
        for (kind, at) in kinds.into_iter().filter(|&(kind, _)| kind == top) {
            let local = topo.rack_of(at);
            let head = heads.iter().copied().find(|&a| topo.rack_of(a) != local);
            // What the fold books on each link, on top of the loads.
            racks.legs(&mut legs, at, local, head);
            for &(src, dst) in &legs {
                for link in self.links(src, dst) {
                    if extra[link] == 0 {
                        touched.push(link);
                    }
                    extra[link] += 1;
                }
            }
            let after = |link: usize| self.load(link) + extra[link];
            let (peak, growth) = touched.iter().fold((busiest, 0), |(peak, growth), &link| {
                let before = self.load(link);
                (peak.max(after(link)), growth + after(link).pow(2) - before * before)
            });
            // No admitted node at all: the recovery node keeps the block.
            let own = !kind.1 || sinks.is_empty();
            for &sink in if own { std::slice::from_ref(&at) } else { &sinks[..] } {
                // One more leg, `at` → `sink`, when the block moves on.
                let shipped = (sink != at).then(|| self.links(at, sink)).into_iter().flatten();
                let (peak, growth) = shipped.fold((peak, growth), |(peak, growth), link| {
                    (peak.max(after(link) + 1), growth + 2 * after(link) + 1)
                });
                let score = (peak, growth, at, sink);
                if best.is_none_or(|(first, _)| score < first) {
                    best = Some((score, head));
                }
            }
            for link in touched.drain(..) {
                extra[link] = 0;
            }
        }
        let ((.., at, sink), head) = best?;
        let shipped = (sink != at).then_some((at, sink));
        racks.legs(&mut legs, at, topo.rack_of(at), head);
        for (src, dst) in legs.into_iter().chain(shipped) {
            for link in self.links(src, dst) {
                self.legs[link] += 1;
            }
        }
        self.planned.entry(rebuild.stripe).or_default().push(sink);
        Some(RepairSite { at, sink, sources, head })
    }

    /// The legs planned so far on the node up-links and down-links.
    pub fn balance(&self) -> (LinkBalance, LinkBalance) {
        let n = self.topo.num_nodes();
        let up = self.legs.get(..n).unwrap_or_default();
        let down = self.legs.get(n..2 * n).unwrap_or_default();
        let used = up.iter().zip(down).filter(|&(u, d)| u + d > 0).count();
        let of = |legs: &[usize]| LinkBalance {
            max: legs.iter().copied().max().unwrap_or(0),
            mean: if used == 0 { 0.0 } else { legs.iter().sum::<usize>() as f64 / used as f64 },
        };
        (of(up), of(down))
    }

    fn load(&self, link: usize) -> usize {
        self.legs.get(link).copied().unwrap_or(0)
    }

    /// Legs planned on `node`'s up-link.
    fn up_load(&self, node: NodeId) -> usize {
        self.load(node.index())
    }

    /// Legs planned on `node`'s down-link.
    fn down_load(&self, node: NodeId) -> usize {
        self.load(self.topo.num_nodes() + node.index())
    }

    /// The links one block-sized leg from `src` to `dst` occupies: `src`'s
    /// up-link and `dst`'s down-link.
    fn links(&self, src: NodeId, dst: NodeId) -> [usize; 2] {
        [src.index(), self.topo.num_nodes() + dst.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainPlan;
    use ear_types::prop::{check, range};
    use std::collections::HashSet;

    /// The chain a site runs: the fold of its first `k` sources at `at`
    /// for `sink`, head first.
    fn chain_of(topo: &ClusterTopology, site: &RepairSite, k: usize) -> ChainPlan {
        let chosen = site.sources.get(..k).unwrap_or(&site.sources);
        let listed = chosen.iter().map(|s| (s.block, std::slice::from_ref(&s.holder)));
        let (at, sink) = (site.at, site.sink);
        let mut plan = ChainPlan::of(topo, at, sink, 1, listed, |_| false, |_| false).unwrap();
        let head = plan.hops.iter().position(|hop| Some(hop.aggregator) == site.head);
        assert_eq!(head.is_some(), !plan.hops.is_empty(), "a head iff a rack folds");
        if let Some(head) = head {
            plan.hops[..=head].rotate_right(1);
        }
        plan
    }

    /// Cross-rack legs of the densest-rack rule: decode in the rack with the
    /// most survivors (lowest id on ties), read it and then remote racks
    /// densest first, and ship the block out of the rack unless a node
    /// there may keep it.
    fn densest_rack_rule(
        topo: &ClusterTopology,
        rebuild: &Rebuild,
        k: usize,
        keeps: bool,
    ) -> usize {
        let mut per_rack: BTreeMap<RackId, usize> = BTreeMap::new();
        for s in &rebuild.survivors {
            *per_rack.entry(topo.rack_of(s.holder)).or_insert(0) += 1;
        }
        let mut racks: Vec<(RackId, usize)> = per_rack.into_iter().collect();
        racks.sort_by_key(|&(rack, count)| (Reverse(count), rack));
        let (mut read, mut used) = (0, 0usize);
        for &(_, count) in &racks {
            if read >= k {
                break;
            }
            read += count;
            used += 1;
        }
        used.saturating_sub(1) + usize::from(!keeps && !racks.is_empty())
    }

    #[test]
    fn repair_plans_keep_the_bytes_the_spread_and_the_view() {
        check("repair_plans_keep_the_bytes_the_spread_and_the_view", 256, |rng| {
            let sizes: Vec<usize> =
                (0..range(rng, 2..=8)).map(|_| range(rng, 1..=3) as usize).collect();
            let topo = ClusterTopology::with_rack_sizes(&sizes);
            let nodes = topo.num_nodes();
            let (c, k) = (range(rng, 1..=3) as usize, range(rng, 1..=5) as usize);
            let dead: HashSet<NodeId> = topo.nodes().filter(|_| rng.below(5) == 0).collect();
            let suspect: HashSet<NodeId> = topo.nodes().filter(|_| rng.below(5) == 0).collect();
            let mut rebuilds: Vec<(BlockId, Rebuild)> = Vec::new();
            for stripe in 0..range(rng, 1..=6) {
                let n = (k + range(rng, 0..=3) as usize).min(nodes);
                let holders: Vec<NodeId> =
                    rng.sample_indices(nodes, n).into_iter().map(|i| NodeId(i as u32)).collect();
                let block = |index: usize| BlockId(stripe * 16 + index as u64);
                let lost: Vec<usize> =
                    (0..n).filter(|&i| dead.contains(&holders[i]) || rng.below(6) == 0).collect();
                let survivors: Vec<Survivor> = (0..n)
                    .filter(|i| !lost.contains(i) && !dead.contains(&holders[*i]))
                    .map(|index| Survivor { index, block: block(index), holder: holders[index] })
                    .collect();
                // Rebuilds from a failure detector still count a lost copy
                // where it was; a recovery that retired the node does not.
                let keep_lost = rng.below(2) == 0;
                let placed: Vec<NodeId> =
                    (0..n).filter(|i| keep_lost || !lost.contains(i)).map(|i| holders[i]).collect();
                for &i in &lost {
                    let rebuild = Rebuild {
                        stripe: StripeId(stripe),
                        survivors: survivors.clone(),
                        placed: placed.clone(),
                    };
                    rebuilds.push((block(i), rebuild));
                }
            }
            let bad: HashSet<(NodeId, BlockId)> = rebuilds
                .iter()
                .flat_map(|(b, _)| topo.nodes().map(move |nd| (nd, *b)))
                .filter(|_| rng.below(8) == 0)
                .collect();
            let accepts = |nd: NodeId, b: BlockId| {
                !dead.contains(&nd) && !suspect.contains(&nd) && !bad.contains(&(nd, b))
            };
            let plan = || {
                let mut planner = RepairPlanner::new(&topo, c, k);
                let sites: Vec<Option<RepairSite>> = rebuilds
                    .iter()
                    .map(|(b, r)| planner.site(r, |nd| accepts(nd, *b), |nd| suspect.contains(&nd)))
                    .collect();
                (sites, planner.legs)
            };
            let (sites, legs) = plan();
            assert_eq!((sites.clone(), legs.clone()), plan(), "a pure function of its inputs");

            // What the executed chains put on every node up-link and
            // down-link, to hold the planner's bookings against.
            let mut carried = vec![0; 2 * nodes];
            let mut planned: BTreeMap<StripeId, Vec<NodeId>> = BTreeMap::new();
            for ((block, rebuild), site) in rebuilds.iter().zip(&sites) {
                let earlier = planned.entry(rebuild.stripe).or_default();
                let spread =
                    StripeSpread::of(&topo, c, rebuild.placed.iter().chain(&*earlier).copied());
                let fits = |nd: NodeId| spread.admits(nd) && accepts(nd, *block);
                let Some(site) = site else {
                    assert!(!topo.nodes().any(|nd| accepts(nd, *block)), "{block} had a node");
                    continue;
                };
                // The sink is admitted, or none is and the recovery node
                // keeps the block.
                let kept = site.sink == site.at && !topo.nodes().any(fits);
                assert!(accepts(site.at, *block) && (fits(site.sink) || kept), "{site:?}");
                earlier.push(site.sink);

                // The sources are the survivors, the first k distinct.
                let mut listed = site.sources.clone();
                let mut want = rebuild.survivors.clone();
                listed.sort_by_key(|s| s.index);
                want.sort_by_key(|s| s.index);
                assert_eq!(listed, want);
                let chosen: HashSet<usize> = site.sources.iter().take(k).map(|s| s.index).collect();
                assert_eq!(chosen.len(), k.min(want.len()));

                // The chain visits distinct nodes and ends at the sink.
                let chain = chain_of(&topo, site, k);
                let path = chain.path();
                assert_eq!(path.iter().collect::<HashSet<_>>().len(), path.len(), "{path:?}");
                assert_eq!(path.last(), Some(&site.sink));
                let home = |pos: &usize| chain.homes[*pos].unwrap();
                let reads = chain
                    .hops
                    .iter()
                    .flat_map(|hop| hop.members.iter().map(move |pos| (home(pos), hop.aggregator)));
                let reads = reads.chain(chain.whole.iter().map(|pos| (home(pos), site.at)));
                let streamed = path.windows(2).map(|leg| (leg[0], leg[1]));
                for (src, dst) in reads.chain(streamed).filter(|(src, dst)| src != dst) {
                    carried[src.index()] += 1;
                    carried[nodes + dst.index()] += 1;
                }

                // Suspect holders are read last.
                let trusted = site.sources.iter().map(|s| !suspect.contains(&s.holder));
                assert!(trusted.collect::<Vec<_>>().is_sorted_by(|a, b| a >= b), "{site:?}");

                // It crosses racks no more often than the densest-rack rule
                // would, wherever that rule can decode (it knows no Suspect).
                if rebuild.survivors.iter().any(|s| suspect.contains(&s.holder)) {
                    continue;
                }
                let racks = rebuild.survivors.iter().map(|s| topo.rack_of(s.holder));
                let densest = racks.max_by_key(|&r| {
                    let count = rebuild.survivors.iter().filter(|s| topo.rack_of(s.holder) == r);
                    (count.count(), Reverse(r))
                });
                let Some(densest) = densest else { continue };
                let in_densest = topo.nodes_in_rack(densest);
                if !in_densest.iter().any(|&nd| accepts(nd, *block)) {
                    continue;
                }
                let keeps = in_densest.iter().any(|&nd| fits(nd));
                let shipped = usize::from(!topo.same_rack(site.at, site.sink));
                let cross = chain.hops.len() + shipped;
                assert!(cross <= densest_rack_rule(&topo, rebuild, k, keeps), "{site:?}");
            }
            assert_eq!(carried, legs, "the bookings are the legs the chains carry");
        });
    }

    #[test]
    fn testbed_repair_plans_balance_the_node_links() {
        // The paper's testbed shape: (10,8) at c = 1 on 12 racks of one node.
        // One node dies; each stripe it held loses one member.
        check("testbed_repair_plans_balance_the_node_links", 256, |rng| {
            let topo = ClusterTopology::uniform(12, 1);
            let dead = NodeId(rng.below(12) as u32);
            let want = range(rng, 50..=120) as usize;
            let mut planner = RepairPlanner::new(&topo, 1, 8);
            let mut planned = 0;
            for stripe in 0.. {
                if planned == want {
                    break;
                }
                let holders: Vec<NodeId> =
                    rng.sample_indices(12, 10).into_iter().map(|i| NodeId(i as u32)).collect();
                if !holders.contains(&dead) {
                    continue;
                }
                let survivors: Vec<Survivor> = (0..10)
                    .filter(|&i| holders[i] != dead)
                    .map(|index| Survivor {
                        index,
                        block: BlockId(stripe * 10 + index as u64),
                        holder: holders[index],
                    })
                    .collect();
                let placed = survivors.iter().map(|s| s.holder).collect();
                let rebuild = Rebuild { stripe: StripeId(stripe), survivors, placed };
                let site = planner.site(&rebuild, |nd| nd != dead, |_| false).unwrap();
                assert_eq!(site.sources.len(), 9);
                planned += 1;
            }
            let (up, down) = planner.balance();
            assert!(up.ratio() <= 1.10 && down.ratio() <= 1.10, "{up:?} {down:?}");
        });
    }

    #[test]
    fn the_planner_picks_what_the_rule_says_on_a_small_case() {
        // Four racks of one node, (3,2) at c = 1: node 3 is dead and held
        // member 2; members 0 and 1 survive on nodes 0 and 1, node 2 is free.
        let topo = ClusterTopology::uniform(4, 1);
        let survivors = vec![
            Survivor { index: 0, block: BlockId(0), holder: NodeId(0) },
            Survivor { index: 1, block: BlockId(1), holder: NodeId(1) },
        ];
        let rebuild =
            Rebuild { stripe: StripeId(0), survivors, placed: vec![NodeId(0), NodeId(1)] };
        let mut planner = RepairPlanner::new(&topo, 1, 2);
        let alive = |nd: NodeId| nd != NodeId(3);
        // Decoding at a holder folds one remote rack, at node 2 two: a
        // holder decodes, ties to node 0, and ships the block to node 2,
        // the one node that may keep it.
        let site = planner.site(&rebuild, alive, |_| false).unwrap();
        assert_eq!((site.at, site.sink, site.head), (NodeId(0), NodeId(2), Some(NodeId(1))));
        // Booked: 1 → 0 → 2. A second such rebuild (another stripe on the
        // same nodes) decodes at node 1 instead: node 0's links are busier.
        let again = Rebuild { stripe: StripeId(1), ..rebuild.clone() };
        let site = planner.site(&again, alive, |_| false).unwrap();
        assert_eq!((site.at, site.sink, site.head), (NodeId(1), NodeId(2), Some(NodeId(0))));
        let (up, down) = planner.balance();
        assert_eq!((up.max, down.max), (2, 2));
        assert!((up.mean - 4.0 / 3.0).abs() < 1e-9 && (down.mean - 4.0 / 3.0).abs() < 1e-9);
        // A Suspect node never decodes or keeps a block: with node 2 Suspect
        // the spread admits no node, so the recovery node keeps it.
        let mut fresh = RepairPlanner::new(&topo, 1, 2);
        let kept = fresh.site(&rebuild, |nd| alive(nd) && nd != NodeId(2), |_| false).unwrap();
        assert_eq!((kept.at, kept.sink, kept.head), (NodeId(0), NodeId(0), Some(NodeId(1))));
        // With no node accepted there is nowhere to decode.
        assert_eq!(fresh.site(&rebuild, |_| false, |_| false), None);
        // A Suspect holder is read last.
        let third = Rebuild { stripe: StripeId(2), ..rebuild.clone() };
        let at_2 = RepairPlanner::new(&topo, 1, 1).site(
            &third,
            |nd| nd == NodeId(2),
            |nd| nd == NodeId(0),
        );
        assert_eq!(at_2.map(|s| s.sources[0].holder), Some(NodeId(1)));
    }
}
