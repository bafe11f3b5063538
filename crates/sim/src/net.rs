//! The Topology module of the simulator (Fig. 11): maps the CFS rack/node
//! structure onto network-engine links and computes transfer paths.

use ear_des::{FifoEngine, LinkId};
use ear_types::{Bandwidth, ClusterTopology, NodeId};

/// Link layout for a CFS: every node has an uplink and a downlink to its
/// top-of-rack switch; every rack has an uplink and a downlink to the
/// network core (assumed non-blocking, as in the paper — cross-rack
/// contention happens on the rack links).
#[derive(Debug, Clone)]
pub struct NetTopology {
    node_up: Vec<LinkId>,
    node_down: Vec<LinkId>,
    rack_up: Vec<LinkId>,
    rack_down: Vec<LinkId>,
}

impl NetTopology {
    /// Registers all links for `topo` on `engine`.
    pub fn build(
        engine: &mut FifoEngine,
        topo: &ClusterTopology,
        node_bandwidth: Bandwidth,
        rack_bandwidth: Bandwidth,
    ) -> Self {
        let node_up = (0..topo.num_nodes())
            .map(|_| engine.add_link(node_bandwidth))
            .collect();
        let node_down = (0..topo.num_nodes())
            .map(|_| engine.add_link(node_bandwidth))
            .collect();
        let rack_up = (0..topo.num_racks())
            .map(|_| engine.add_link(rack_bandwidth))
            .collect();
        let rack_down = (0..topo.num_racks())
            .map(|_| engine.add_link(rack_bandwidth))
            .collect();
        NetTopology {
            node_up,
            node_down,
            rack_up,
            rack_down,
        }
    }

    /// The link path from `src` to `dst`. Empty when `src == dst` (local
    /// copy); two hops intra-rack; four hops (through both rack links)
    /// cross-rack.
    pub fn path(&self, topo: &ClusterTopology, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        if src == dst {
            return Vec::new();
        }
        let sr = topo.rack_of(src);
        let dr = topo.rack_of(dst);
        if sr == dr {
            vec![self.node_up[src.index()], self.node_down[dst.index()]]
        } else {
            vec![
                self.node_up[src.index()],
                self.rack_up[sr.index()],
                self.rack_down[dr.index()],
                self.node_down[dst.index()],
            ]
        }
    }

    /// Whether a transfer between the nodes would cross racks.
    pub fn is_cross_rack(&self, topo: &ClusterTopology, src: NodeId, dst: NodeId) -> bool {
        topo.rack_of(src) != topo.rack_of(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_have_expected_shapes() {
        let topo = ClusterTopology::uniform(3, 2);
        let mut engine = FifoEngine::new();
        let net = NetTopology::build(
            &mut engine,
            &topo,
            Bandwidth::gbit(1.0),
            Bandwidth::gbit(1.0),
        );

        assert!(net.path(&topo, NodeId(0), NodeId(0)).is_empty());
        assert_eq!(net.path(&topo, NodeId(0), NodeId(1)).len(), 2);
        assert_eq!(net.path(&topo, NodeId(0), NodeId(2)).len(), 4);
        assert!(net.is_cross_rack(&topo, NodeId(0), NodeId(2)));
        assert!(!net.is_cross_rack(&topo, NodeId(0), NodeId(1)));
    }

    #[test]
    fn cross_rack_paths_share_rack_links() {
        let topo = ClusterTopology::uniform(2, 2);
        let mut engine = FifoEngine::new();
        let net = NetTopology::build(
            &mut engine,
            &topo,
            Bandwidth::gbit(1.0),
            Bandwidth::gbit(1.0),
        );
        // Node 0 -> node 2 and node 1 -> node 3 both traverse rack 0's
        // uplink and rack 1's downlink.
        let p1 = net.path(&topo, NodeId(0), NodeId(2));
        let p2 = net.path(&topo, NodeId(1), NodeId(3));
        assert_eq!(p1[1], p2[1], "rack uplink shared");
        assert_eq!(p1[2], p2[2], "rack downlink shared");
        assert_ne!(p1[0], p2[0], "node uplinks distinct");
    }

    #[test]
    fn all_links_distinct() {
        let topo = ClusterTopology::uniform(4, 3);
        let mut engine = FifoEngine::new();
        let net = NetTopology::build(
            &mut engine,
            &topo,
            Bandwidth::gbit(1.0),
            Bandwidth::gbit(0.5),
        );
        let mut all: Vec<LinkId> = Vec::new();
        all.extend(&net.node_up);
        all.extend(&net.node_down);
        all.extend(&net.rack_up);
        all.extend(&net.rack_down);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        assert_eq!(all.len(), 2 * 12 + 2 * 4);
    }
}
