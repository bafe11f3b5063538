//! Random sampling helpers over cluster topologies.

use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, NodeId, RackId};

/// Picks a uniformly random rack, optionally excluding some racks and
/// optionally restricting to an allow-list.
///
/// Returns `None` if no rack qualifies.
pub fn random_rack(
    rng: &mut ChaCha8,
    topo: &ClusterTopology,
    exclude: &[RackId],
    allow: Option<&[RackId]>,
) -> Option<RackId> {
    let candidates: Vec<RackId> = match allow {
        Some(list) => list
            .iter()
            .copied()
            .filter(|r| !exclude.contains(r))
            .collect(),
        None => topo.racks().filter(|r| !exclude.contains(r)).collect(),
    };
    rng.choose(&candidates).copied()
}

/// Picks a uniformly random node within `rack`, excluding the given nodes.
///
/// Returns `None` if every node in the rack is excluded.
pub fn random_node_in_rack(
    rng: &mut ChaCha8,
    topo: &ClusterTopology,
    rack: RackId,
    exclude: &[NodeId],
) -> Option<NodeId> {
    let candidates: Vec<NodeId> = topo
        .nodes_in_rack(rack)
        .iter()
        .copied()
        .filter(|n| !exclude.contains(n))
        .collect();
    rng.choose(&candidates).copied()
}

/// Picks `count` distinct random nodes within `rack`, excluding the given
/// nodes. Returns `None` if the rack has fewer than `count` eligible nodes.
pub fn random_nodes_in_rack(
    rng: &mut ChaCha8,
    topo: &ClusterTopology,
    rack: RackId,
    count: usize,
    exclude: &[NodeId],
) -> Option<Vec<NodeId>> {
    let candidates: Vec<NodeId> = topo
        .nodes_in_rack(rack)
        .iter()
        .copied()
        .filter(|n| !exclude.contains(n))
        .collect();
    if candidates.len() < count {
        return None;
    }
    Some(rng.sample(&candidates, count))
}

/// Picks `count` distinct random racks (excluding `exclude`, restricted to
/// `allow` if given). Returns `None` if not enough racks qualify.
pub fn random_racks(
    rng: &mut ChaCha8,
    topo: &ClusterTopology,
    count: usize,
    exclude: &[RackId],
    allow: Option<&[RackId]>,
) -> Option<Vec<RackId>> {
    let candidates: Vec<RackId> = match allow {
        Some(list) => list
            .iter()
            .copied()
            .filter(|r| !exclude.contains(r))
            .collect(),
        None => topo.racks().filter(|r| !exclude.contains(r)).collect(),
    };
    if candidates.len() < count {
        return None;
    }
    Some(rng.sample(&candidates, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_rack_respects_exclusions() {
        let topo = ClusterTopology::uniform(4, 2);
        let mut rng = ChaCha8::from_seed(1);
        for _ in 0..100 {
            let r = random_rack(&mut rng, &topo, &[RackId(0), RackId(1)], None).unwrap();
            assert!(r == RackId(2) || r == RackId(3));
        }
        // Everything excluded.
        let all: Vec<RackId> = topo.racks().collect();
        assert!(random_rack(&mut rng, &topo, &all, None).is_none());
    }

    #[test]
    fn random_rack_respects_allow_list() {
        let topo = ClusterTopology::uniform(5, 2);
        let mut rng = ChaCha8::from_seed(2);
        let allow = [RackId(1), RackId(3)];
        for _ in 0..100 {
            let r = random_rack(&mut rng, &topo, &[RackId(3)], Some(&allow)).unwrap();
            assert_eq!(r, RackId(1));
        }
    }

    #[test]
    fn random_nodes_in_rack_distinct() {
        let topo = ClusterTopology::uniform(2, 5);
        let mut rng = ChaCha8::from_seed(3);
        for _ in 0..50 {
            let nodes = random_nodes_in_rack(&mut rng, &topo, RackId(1), 3, &[]).unwrap();
            let set: std::collections::HashSet<_> = nodes.iter().collect();
            assert_eq!(set.len(), 3);
            for n in &nodes {
                assert_eq!(topo.rack_of(*n), RackId(1));
            }
        }
        // Too many requested.
        assert!(random_nodes_in_rack(&mut rng, &topo, RackId(0), 6, &[]).is_none());
    }

    #[test]
    fn random_node_in_rack_exclusion() {
        let topo = ClusterTopology::uniform(1, 2);
        let mut rng = ChaCha8::from_seed(4);
        let n = random_node_in_rack(&mut rng, &topo, RackId(0), &[NodeId(0)]).unwrap();
        assert_eq!(n, NodeId(1));
        assert!(random_node_in_rack(&mut rng, &topo, RackId(0), &[NodeId(0), NodeId(1)]).is_none());
    }

    #[test]
    fn random_racks_count() {
        let topo = ClusterTopology::uniform(6, 1);
        let mut rng = ChaCha8::from_seed(5);
        let racks = random_racks(&mut rng, &topo, 4, &[RackId(0)], None).unwrap();
        assert_eq!(racks.len(), 4);
        assert!(!racks.contains(&RackId(0)));
        assert!(random_racks(&mut rng, &topo, 6, &[RackId(0)], None).is_none());
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let topo = ClusterTopology::uniform(4, 1);
        let mut rng = ChaCha8::from_seed(6);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let r = random_rack(&mut rng, &topo, &[], None).unwrap();
            counts[r.index()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts not uniform: {counts:?}");
        }
    }
}
