//! Property-based tests for the flow substrate: max-flow bounds, agreement
//! between the Dinic and Hopcroft–Karp formulations, and validity of the
//! stripe matching under arbitrary replica layouts.

use ear_flow::{hopcroft_karp, max_kept_matching, FlowNetwork};
use ear_types::prop::{check, range};
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, NodeId};
use std::collections::{HashMap, HashSet};

/// `len` (drawn from `lens`) values, each drawn from `values`.
fn vec_of(
    rng: &mut ChaCha8,
    lens: std::ops::RangeInclusive<u64>,
    values: std::ops::RangeInclusive<u64>,
) -> Vec<u64> {
    (0..range(rng, lens))
        .map(|_| range(rng, values.clone()))
        .collect()
}

/// Random bipartite adjacency: left size, right size, sorted neighbour lists.
fn bipartite(rng: &mut ChaCha8) -> (usize, usize, Vec<Vec<usize>>) {
    let (l, r) = (range(rng, 1..=10), range(rng, 1..=10));
    let adj = (0..l)
        .map(|_| {
            let mut nbrs: Vec<usize> = vec_of(rng, 0..=r, 0..=r - 1)
                .into_iter()
                .map(|ri| ri as usize)
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs
        })
        .collect();
    (l as usize, r as usize, adj)
}

/// Hopcroft–Karp and the flow formulation agree on matching size.
#[test]
fn matching_formulations_agree() {
    check("matching_formulations_agree", 128, |rng| {
        let (l, r, adj) = bipartite(rng);
        let m = hopcroft_karp(l, r, &adj);
        let hk_size = m.iter().flatten().count() as u64;

        let mut net = FlowNetwork::new(l + r + 2);
        let (s, t) = (l + r, l + r + 1);
        for li in 0..l {
            net.add_edge(s, li, 1);
        }
        for ri in 0..r {
            net.add_edge(l + ri, t, 1);
        }
        for (li, nbrs) in adj.iter().enumerate() {
            for &ri in nbrs {
                net.add_edge(li, l + ri, 1);
            }
        }
        assert_eq!(hk_size, net.max_flow(s, t));

        // The matching itself is valid: edges exist, right vertices unique.
        let mut used = HashSet::new();
        for (li, r_opt) in m.iter().enumerate() {
            if let Some(ri) = r_opt {
                assert!(adj[li].contains(ri));
                assert!(used.insert(*ri));
            }
        }
    });
}

/// Max flow is bounded by both the source and sink cut capacities, and
/// is monotone under capacity increase.
#[test]
fn max_flow_respects_cuts() {
    check("max_flow_respects_cuts", 128, |rng| {
        let caps_out = vec_of(rng, 1..=7, 0..=19);
        let caps_in = vec_of(rng, 1..=7, 0..=19);
        let bump = range(rng, 1..=9);
        // Star network: s -> mid_i -> t.
        let n = caps_out.len().min(caps_in.len());
        let mut net = FlowNetwork::new(n + 2);
        let (s, t) = (n, n + 1);
        for i in 0..n {
            net.add_edge(s, i, caps_out[i]);
            net.add_edge(i, t, caps_in[i]);
        }
        let flow = net.max_flow(s, t);
        let expected: u64 = (0..n).map(|i| caps_out[i].min(caps_in[i])).sum();
        assert_eq!(flow, expected);

        // Monotonicity: adding a parallel edge can only increase max flow.
        let mut net2 = FlowNetwork::new(n + 2);
        for i in 0..n {
            net2.add_edge(s, i, caps_out[i] + bump);
            net2.add_edge(i, t, caps_in[i]);
        }
        assert!(net2.max_flow(s, t) >= flow);
    });
}

/// For arbitrary replica layouts, the kept matching never violates the
/// node/rack constraints, and its size is maximal with respect to the
/// trivial upper bounds.
#[test]
fn kept_matching_is_always_valid() {
    check("kept_matching_is_always_valid", 128, |rng| {
        let racks = range(rng, 2..=7) as usize;
        let nodes_per_rack = range(rng, 1..=3) as usize;
        let c = range(rng, 1..=2) as usize;
        let topo = ClusterTopology::uniform(racks, nodes_per_rack);
        let total = topo.num_nodes() as u64;
        let layouts: Vec<Vec<NodeId>> = (0..range(rng, 1..=7))
            .map(|_| {
                let mut v: Vec<NodeId> = vec_of(rng, 1..=3, 0..=31)
                    .into_iter()
                    .map(|x| NodeId((x % total) as u32))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let outcome = max_kept_matching(&topo, &layouts, c, None);

        // Constraint validity.
        let mut node_used = HashSet::new();
        let mut rack_load: HashMap<u32, usize> = HashMap::new();
        for (i, kept) in outcome.kept.iter().enumerate() {
            if let Some(node) = kept {
                assert!(layouts[i].contains(node));
                assert!(node_used.insert(*node));
                *rack_load.entry(topo.rack_of(*node).0).or_insert(0) += 1;
            }
        }
        for (_, load) in rack_load {
            assert!(load <= c);
        }

        // Upper bounds: cannot exceed block count, distinct replica nodes,
        // or total rack capacity.
        let distinct_nodes: HashSet<NodeId> = layouts.iter().flatten().copied().collect();
        assert!(outcome.size <= layouts.len());
        assert!(outcome.size <= distinct_nodes.len());
        assert!(outcome.size <= racks * c);
    });
}
