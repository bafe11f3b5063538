//! Random replication (RR): the HDFS default replica placement policy
//! (Section II-A of the paper).

use crate::layout::BlockLayout;
use crate::sample;
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, Error, RackSpread, ReplicationConfig, Result};

/// The random replication placement used by HDFS, Azure, and RAMCloud
/// (Section II-A): the first replica goes to a node in a randomly chosen
/// rack; the remaining replicas go to distinct randomly chosen nodes in a
/// single different rack ([`RackSpread::TwoRacks`]), or to one node in each
/// of `r - 1` distinct other racks ([`RackSpread::DistinctRacks`]).
///
/// ```
/// use ear_core::RandomReplication;
/// use ear_types::{ClusterTopology, ReplicationConfig};
///
/// let topo = ClusterTopology::uniform(5, 6);
/// let rr = RandomReplication::new(topo.clone(), ReplicationConfig::hdfs_default())?;
/// let mut rng = ear_types::rng::ChaCha8::from_seed(7);
/// let layout = rr.place_block(&mut rng);
/// assert_eq!(layout.replicas.len(), 3);
/// assert_eq!(layout.racks(&topo).len(), 2); // spans exactly two racks
/// # Ok::<(), ear_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomReplication {
    topo: ClusterTopology,
    replication: ReplicationConfig,
}

impl RandomReplication {
    /// Creates the policy, validating that the topology can host it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopologyTooSmall`] if the cluster has too few racks
    /// for the configured rack spread, or racks are too small to hold the
    /// non-primary replicas on distinct nodes.
    pub fn new(topo: ClusterTopology, replication: ReplicationConfig) -> Result<Self> {
        let r = replication.replicas();
        match replication.spread() {
            RackSpread::TwoRacks => {
                if topo.num_racks() < 2 {
                    return Err(Error::TopologyTooSmall {
                        reason: "two-rack spread needs at least 2 racks".into(),
                    });
                }
                if topo.min_rack_size() < r - 1 {
                    return Err(Error::TopologyTooSmall {
                        reason: format!(
                            "two-rack spread needs {} nodes per rack, smallest rack has {}",
                            r - 1,
                            topo.min_rack_size()
                        ),
                    });
                }
            }
            RackSpread::DistinctRacks => {
                if topo.num_racks() < r {
                    return Err(Error::TopologyTooSmall {
                        reason: format!(
                            "distinct-rack spread needs {} racks, topology has {}",
                            r,
                            topo.num_racks()
                        ),
                    });
                }
            }
        }
        Ok(RandomReplication { topo, replication })
    }

    /// The topology this policy places into.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// The replication configuration.
    pub fn replication(&self) -> ReplicationConfig {
        self.replication
    }

    /// Places the replicas of one block.
    pub fn place_block(&self, rng: &mut ChaCha8) -> BlockLayout {
        let r = self.replication.replicas();
        let first_rack =
            sample::random_rack(rng, &self.topo, &[], None).expect("validated: topology has racks");
        let first =
            sample::random_node_in_rack(rng, &self.topo, first_rack, &[]).expect("non-empty rack");
        let mut replicas = vec![first];
        if r == 1 {
            return BlockLayout::new(replicas);
        }
        match self.replication.spread() {
            RackSpread::TwoRacks => {
                let second_rack = sample::random_rack(rng, &self.topo, &[first_rack], None)
                    .expect("validated: at least 2 racks");
                let rest = sample::random_nodes_in_rack(rng, &self.topo, second_rack, r - 1, &[])
                    .expect("validated: rack large enough");
                replicas.extend(rest);
            }
            RackSpread::DistinctRacks => {
                let racks = sample::random_racks(rng, &self.topo, r - 1, &[first_rack], None)
                    .expect("validated: enough racks");
                for rack in racks {
                    let node = sample::random_node_in_rack(rng, &self.topo, rack, &[])
                        .expect("non-empty rack");
                    replicas.push(node);
                }
            }
        }
        BlockLayout::new(replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::{NodeId, RackId};
    use std::collections::HashSet;

    #[test]
    fn hdfs_default_spans_exactly_two_racks() {
        let topo = ClusterTopology::uniform(5, 6);
        let rr = RandomReplication::new(topo.clone(), ReplicationConfig::hdfs_default()).unwrap();
        let mut rng = ChaCha8::from_seed(11);
        for _ in 0..200 {
            let l = rr.place_block(&mut rng);
            assert_eq!(l.replicas.len(), 3);
            assert_eq!(l.racks(&topo).len(), 2);
            // Replicas 2 and 3 share a rack distinct from replica 1's.
            let r1 = topo.rack_of(l.replicas[0]);
            let r2 = topo.rack_of(l.replicas[1]);
            let r3 = topo.rack_of(l.replicas[2]);
            assert_eq!(r2, r3);
            assert_ne!(r1, r2);
        }
    }

    #[test]
    fn distinct_racks_spread() {
        let topo = ClusterTopology::uniform(8, 2);
        let cfg = ReplicationConfig::new(4, RackSpread::DistinctRacks).unwrap();
        let rr = RandomReplication::new(topo.clone(), cfg).unwrap();
        let mut rng = ChaCha8::from_seed(12);
        for _ in 0..100 {
            let l = rr.place_block(&mut rng);
            assert_eq!(l.replicas.len(), 4);
            assert_eq!(l.racks(&topo).len(), 4);
        }
    }

    #[test]
    fn single_replica() {
        let topo = ClusterTopology::uniform(3, 2);
        let cfg = ReplicationConfig::new(1, RackSpread::DistinctRacks).unwrap();
        let rr = RandomReplication::new(topo, cfg).unwrap();
        let mut rng = ChaCha8::from_seed(13);
        assert_eq!(rr.place_block(&mut rng).replicas.len(), 1);
    }

    #[test]
    fn validation_rejects_small_topologies() {
        let one_rack = ClusterTopology::uniform(1, 10);
        assert!(RandomReplication::new(one_rack, ReplicationConfig::hdfs_default()).is_err());

        let tiny_racks = ClusterTopology::uniform(5, 1);
        assert!(RandomReplication::new(tiny_racks, ReplicationConfig::hdfs_default()).is_err());

        let few_racks = ClusterTopology::uniform(2, 4);
        let distinct4 = ReplicationConfig::new(4, RackSpread::DistinctRacks).unwrap();
        assert!(RandomReplication::new(few_racks, distinct4).is_err());
    }

    #[test]
    fn two_way_replication_on_single_node_racks() {
        // The paper's testbed: 12 racks of one node each, 2-way replication.
        let topo = ClusterTopology::uniform(12, 1);
        let rr = RandomReplication::new(topo.clone(), ReplicationConfig::two_way()).unwrap();
        let mut rng = ChaCha8::from_seed(14);
        for _ in 0..100 {
            let l = rr.place_block(&mut rng);
            assert_eq!(l.replicas.len(), 2);
            assert_eq!(l.racks(&topo).len(), 2);
        }
    }

    #[test]
    fn first_rack_choice_is_roughly_uniform() {
        let topo = ClusterTopology::uniform(4, 3);
        let rr = RandomReplication::new(topo.clone(), ReplicationConfig::hdfs_default()).unwrap();
        let mut rng = ChaCha8::from_seed(15);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let l = rr.place_block(&mut rng);
            counts[topo.rack_of(l.primary()).index()] += 1;
        }
        for c in counts {
            assert!(
                (800..1200).contains(&c),
                "first-rack counts skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn all_nodes_eventually_used() {
        let topo = ClusterTopology::uniform(4, 4);
        let rr = RandomReplication::new(topo, ReplicationConfig::hdfs_default()).unwrap();
        let mut rng = ChaCha8::from_seed(16);
        let mut seen: HashSet<NodeId> = HashSet::new();
        for _ in 0..500 {
            seen.extend(rr.place_block(&mut rng).replicas);
        }
        assert_eq!(seen.len(), 16, "every node should receive some replica");
    }

    #[test]
    fn second_rack_never_equals_first() {
        let topo = ClusterTopology::uniform(2, 5);
        let rr = RandomReplication::new(topo.clone(), ReplicationConfig::hdfs_default()).unwrap();
        let mut rng = ChaCha8::from_seed(17);
        for _ in 0..100 {
            let l = rr.place_block(&mut rng);
            let racks: Vec<RackId> = l.replicas.iter().map(|&n| topo.rack_of(n)).collect();
            assert_ne!(racks[0], racks[1]);
        }
    }
}
