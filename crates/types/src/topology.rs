//! Cluster topology: nodes grouped into racks (Fig. 1 of the paper).

use crate::{Error, NodeId, RackId, Result};

/// A clustered-file-system topology: `R` racks, each holding a set of nodes
/// connected by a top-of-rack switch; racks are connected by a network core.
///
/// Node ids are dense (`0..num_nodes`) and assigned rack by rack, so
/// `rack_of` is an O(1) table lookup.
///
/// ```
/// use ear_types::{ClusterTopology, NodeId, RackId};
///
/// let topo = ClusterTopology::uniform(4, 2); // Fig. 4's 8-node cluster
/// assert_eq!(topo.rack_of(NodeId(5)), RackId(2));
/// assert_eq!(topo.nodes_in_rack(RackId(0)), &[NodeId(0), NodeId(1)]);
/// assert!(topo.same_rack(NodeId(2), NodeId(3)));
/// assert!(!topo.same_rack(NodeId(1), NodeId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    /// `racks[r]` lists the node ids in rack `r`.
    racks: Vec<Vec<NodeId>>,
    /// `node_rack[node.index()]` is the rack of that node.
    node_rack: Vec<RackId>,
}

impl ClusterTopology {
    /// Builds a topology of `num_racks` racks with `nodes_per_rack` nodes
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `num_racks == 0` or `nodes_per_rack == 0`.
    pub fn uniform(num_racks: usize, nodes_per_rack: usize) -> Self {
        assert!(num_racks > 0, "topology needs at least one rack");
        assert!(nodes_per_rack > 0, "racks need at least one node");
        Self::with_rack_sizes(&vec![nodes_per_rack; num_racks])
    }

    /// [`uniform`](Self::uniform) for counts from outside input (a config,
    /// a flag, a MANIFEST).
    ///
    /// # Errors
    ///
    /// [`Error::TopologyTooSmall`] if either count is zero.
    pub fn try_uniform(num_racks: usize, nodes_per_rack: usize) -> Result<Self> {
        if num_racks == 0 || nodes_per_rack == 0 {
            return Err(Error::TopologyTooSmall {
                reason: format!("{num_racks} rack(s) of {nodes_per_rack} node(s)"),
            });
        }
        Ok(Self::uniform(num_racks, nodes_per_rack))
    }

    /// Builds a topology with per-rack node counts, allowing heterogeneous
    /// racks.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or any rack size is zero.
    pub fn with_rack_sizes(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "topology needs at least one rack");
        let mut racks = Vec::with_capacity(sizes.len());
        let mut node_rack = Vec::new();
        let mut next = 0u32;
        for (r, &size) in sizes.iter().enumerate() {
            assert!(size > 0, "rack {r} has zero nodes");
            let mut nodes = Vec::with_capacity(size);
            for _ in 0..size {
                nodes.push(NodeId(next));
                node_rack.push(RackId(r as u32));
                next += 1;
            }
            racks.push(nodes);
        }
        ClusterTopology { racks, node_rack }
    }

    /// Number of racks `R`.
    #[inline]
    pub fn num_racks(&self) -> usize {
        self.racks.len()
    }

    /// Total number of nodes in the cluster.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_rack.len()
    }

    /// The rack containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.node_rack[node.index()]
    }

    /// The nodes in `rack`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    #[inline]
    pub fn nodes_in_rack(&self, rack: RackId) -> &[NodeId] {
        &self.racks[rack.index()]
    }

    /// Whether two nodes share a rack (i.e. a transfer between them is
    /// intra-rack).
    #[inline]
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Iterator over all rack ids.
    pub fn racks(&self) -> impl Iterator<Item = RackId> + '_ {
        (0..self.racks.len() as u32).map(RackId)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_rack.len() as u32).map(NodeId)
    }

    /// Size of the smallest rack; useful for validating placement
    /// feasibility.
    pub fn min_rack_size(&self) -> usize {
        self.racks.iter().map(Vec::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_assigns_dense_ids_rack_by_rack() {
        let t = ClusterTopology::uniform(3, 4);
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.num_nodes(), 12);
        assert_eq!(t.rack_of(NodeId(0)), RackId(0));
        assert_eq!(t.rack_of(NodeId(4)), RackId(1));
        assert_eq!(t.rack_of(NodeId(11)), RackId(2));
        assert_eq!(
            t.nodes_in_rack(RackId(1)),
            &[NodeId(4), NodeId(5), NodeId(6), NodeId(7)]
        );
    }

    #[test]
    fn heterogeneous_racks() {
        let t = ClusterTopology::with_rack_sizes(&[1, 3, 2]);
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.nodes_in_rack(RackId(0)), &[NodeId(0)]);
        assert_eq!(t.nodes_in_rack(RackId(2)), &[NodeId(4), NodeId(5)]);
        assert_eq!(t.min_rack_size(), 1);
    }

    #[test]
    fn iterators_cover_everything() {
        let t = ClusterTopology::uniform(2, 3);
        assert_eq!(t.racks().count(), 2);
        assert_eq!(t.nodes().count(), 6);
        for node in t.nodes() {
            assert!(t.nodes_in_rack(t.rack_of(node)).contains(&node));
        }
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_racks_panics() {
        let _ = ClusterTopology::uniform(0, 3);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_rack_size_panics() {
        let _ = ClusterTopology::with_rack_sizes(&[2, 0]);
    }
}
