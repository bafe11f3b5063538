//! Encoding-aware replication (EAR): the paper's core contribution
//! (Section III).
//!
//! EAR jointly places the replicas of the `k` data blocks that will later be
//! encoded into one stripe:
//!
//! 1. every block keeps its *first* replica in a common **core rack**, so a
//!    node in that rack can encode the stripe with zero cross-rack
//!    downloads (Section III-A);
//! 2. a block's remaining replicas are placed randomly like RR, but a layout
//!    is accepted only if the stripe's flow graph still admits a maximum
//!    matching — guaranteeing that after encoding one replica per block can
//!    be kept on distinct nodes with at most `c` blocks per rack, so no
//!    relocation is ever needed (Section III-B);
//! 3. optionally all blocks are confined to `R'` *target racks* to trade
//!    rack fault tolerance for cheaper recovery (Section III-D).

use crate::layout::{BlockLayout, StripePlan};
use crate::sample;
use ear_flow::max_kept_matching;
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, Error, NodeId, RackId, RackSpread, Result};
use std::collections::HashMap;

/// How the core rack for a new stripe is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CoreRackSelection {
    /// The rack of the block's first replica becomes the core rack — i.e. a
    /// uniformly random rack, matching RR's first-replica distribution
    /// (the paper's design, Section III-A).
    #[default]
    FirstWriter,
    /// Pick the rack currently hosting the fewest open-stripe blocks; an
    /// extension that smooths core-rack load when write bursts are skewed.
    LeastLoaded,
}

/// Incrementally builds one stripe's replica placement under EAR.
///
/// Created by [`EncodingAwareReplication`], but usable standalone when a
/// caller wants a specific core rack:
///
/// ```
/// use ear_core::EarStripeBuilder;
/// use ear_types::{ClusterTopology, EarConfig, ErasureParams, RackId, ReplicationConfig};
///
/// let topo = ClusterTopology::uniform(6, 4);
/// let cfg = EarConfig::new(
///     ErasureParams::new(5, 4).unwrap(),
///     ReplicationConfig::hdfs_default(),
///     1,
/// ).unwrap();
/// let mut rng = ear_types::rng::ChaCha8::from_seed(1);
/// let mut b = EarStripeBuilder::new(&cfg, &topo, RackId(2), &mut rng)?;
/// while !b.is_full() {
///     b.add_block(&topo, &cfg, &mut rng)?;
/// }
/// let plan = b.finish();
/// assert_eq!(plan.core_rack(), Some(RackId(2)));
/// # Ok::<(), ear_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct EarStripeBuilder {
    core_rack: RackId,
    /// Target racks (always including the core rack) if Section III-D's
    /// restriction is active.
    target_racks: Option<Vec<RackId>>,
    layouts: Vec<BlockLayout>,
    /// Replica node lists, mirrored from `layouts` for the matching calls.
    node_lists: Vec<Vec<NodeId>>,
    retries: Vec<usize>,
    k: usize,
}

impl EarStripeBuilder {
    /// Starts a stripe with the given core rack, sampling target racks if
    /// the configuration requests them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopologyTooSmall`] if the topology cannot host a
    /// stripe under `cfg` (too few racks for `ceil(n/c)`, or for the target
    /// racks).
    pub fn new(
        cfg: &EarConfig,
        topo: &ClusterTopology,
        core_rack: RackId,
        rng: &mut ChaCha8,
    ) -> Result<Self> {
        validate_topology(cfg, topo)?;
        let target_racks = match cfg.target_racks() {
            None => None,
            Some(r_prime) => {
                let mut targets = vec![core_rack];
                let others = sample::random_racks(rng, topo, r_prime - 1, &[core_rack], None)
                    .ok_or_else(|| Error::TopologyTooSmall {
                        reason: format!(
                            "cannot pick {} target racks out of {}",
                            r_prime,
                            topo.num_racks()
                        ),
                    })?;
                targets.extend(others);
                Some(targets)
            }
        };
        Ok(EarStripeBuilder {
            core_rack,
            target_racks,
            layouts: Vec::new(),
            node_lists: Vec::new(),
            retries: Vec::new(),
            k: cfg.erasure().k(),
        })
    }

    /// The stripe's core rack.
    pub fn core_rack(&self) -> RackId {
        self.core_rack
    }

    /// Blocks placed so far.
    pub fn len(&self) -> usize {
        self.layouts.len()
    }

    /// Whether no block has been placed yet.
    pub fn is_empty(&self) -> bool {
        self.layouts.is_empty()
    }

    /// Whether the stripe has accumulated `k` blocks and is sealed for
    /// encoding.
    pub fn is_full(&self) -> bool {
        self.layouts.len() >= self.k
    }

    /// Places the next data block: first replica in the core rack, remaining
    /// replicas random, regenerating the layout until the stripe's flow
    /// graph admits a maximum matching (Fig. 5, steps 2–5).
    ///
    /// # Errors
    ///
    /// * [`Error::Invariant`] if the stripe is already full.
    /// * [`Error::PlacementExhausted`] if no feasible layout was found
    ///   within the configured retry budget.
    pub fn add_block(
        &mut self,
        topo: &ClusterTopology,
        cfg: &EarConfig,
        rng: &mut ChaCha8,
    ) -> Result<BlockLayout> {
        if self.is_full() {
            return Err(Error::Invariant("stripe already holds k blocks".into()));
        }
        let i = self.layouts.len();
        let max_attempts = cfg.max_retries_per_block();
        for attempt in 0..max_attempts {
            let layout = self.generate_layout(topo, cfg, rng)?;
            self.node_lists.push(layout.replicas.clone());
            let outcome = max_kept_matching(
                topo,
                &self.node_lists,
                cfg.c(),
                self.target_racks.as_deref(),
            );
            if outcome.size == i + 1 {
                self.layouts.push(layout.clone());
                self.retries.push(attempt);
                return Ok(layout);
            }
            self.node_lists.pop();
        }
        Err(Error::PlacementExhausted {
            block_index: i,
            attempts: max_attempts,
        })
    }

    /// Seals the stripe into a [`StripePlan`].
    ///
    /// # Panics
    ///
    /// Panics if the stripe is not full; sealing a partial stripe would
    /// produce an unencodable plan.
    pub fn finish(self) -> StripePlan {
        assert!(
            self.is_full(),
            "cannot seal a stripe with fewer than k blocks"
        );
        StripePlan::new(
            self.layouts,
            Some(self.core_rack),
            self.target_racks,
            self.retries,
        )
    }

    /// Generates one candidate layout for the next block: first replica on a
    /// random core-rack node, remaining replicas per the rack-spread policy
    /// (within target racks when active).
    fn generate_layout(
        &self,
        topo: &ClusterTopology,
        cfg: &EarConfig,
        rng: &mut ChaCha8,
    ) -> Result<BlockLayout> {
        let r = cfg.replication().replicas();
        let first =
            sample::random_node_in_rack(rng, topo, self.core_rack, &[]).ok_or_else(|| {
                Error::TopologyTooSmall {
                    reason: format!("core {} has no nodes", self.core_rack),
                }
            })?;
        let mut replicas = vec![first];
        if r > 1 {
            let allow = self.target_racks.as_deref();
            match cfg.replication().spread() {
                RackSpread::TwoRacks => {
                    let rack = sample::random_rack(rng, topo, &[self.core_rack], allow)
                        .ok_or_else(|| Error::TopologyTooSmall {
                            reason: "no rack available for non-primary replicas".into(),
                        })?;
                    let rest = sample::random_nodes_in_rack(rng, topo, rack, r - 1, &[])
                        .ok_or_else(|| Error::TopologyTooSmall {
                            reason: format!("{rack} too small for {} replicas", r - 1),
                        })?;
                    replicas.extend(rest);
                }
                RackSpread::DistinctRacks => {
                    let racks = sample::random_racks(rng, topo, r - 1, &[self.core_rack], allow)
                        .ok_or_else(|| Error::TopologyTooSmall {
                            reason: format!("fewer than {} racks for replicas", r - 1),
                        })?;
                    for rack in racks {
                        let node = sample::random_node_in_rack(rng, topo, rack, &[])
                            .expect("racks are non-empty");
                        replicas.push(node);
                    }
                }
            }
        }
        Ok(BlockLayout::new(replicas))
    }
}

/// Validates that `topo` can host stripes under `cfg`.
fn validate_topology(cfg: &EarConfig, topo: &ClusterTopology) -> Result<()> {
    let needed_racks = cfg.min_racks_for_stripe();
    if topo.num_racks() < needed_racks {
        return Err(Error::TopologyTooSmall {
            reason: format!(
                "stripe needs ceil(n/c) = {needed_racks} racks, topology has {}",
                topo.num_racks()
            ),
        });
    }
    if let Some(r_prime) = cfg.target_racks() {
        if topo.num_racks() < r_prime {
            return Err(Error::TopologyTooSmall {
                reason: format!(
                    "{r_prime} target racks requested, topology has {}",
                    topo.num_racks()
                ),
            });
        }
    }
    let r = cfg.replication().replicas();
    match cfg.replication().spread() {
        RackSpread::TwoRacks => {
            if r > 1 && topo.min_rack_size() < r - 1 {
                return Err(Error::TopologyTooSmall {
                    reason: format!(
                        "two-rack spread needs {} nodes per rack, smallest rack has {}",
                        r - 1,
                        topo.min_rack_size()
                    ),
                });
            }
            if topo.num_racks() < 2 {
                return Err(Error::TopologyTooSmall {
                    reason: "two-rack spread needs at least 2 racks".into(),
                });
            }
        }
        RackSpread::DistinctRacks => {
            let needed = cfg.target_racks().unwrap_or(topo.num_racks());
            if needed < r {
                return Err(Error::TopologyTooSmall {
                    reason: format!("distinct-rack spread needs {r} racks, {needed} available"),
                });
            }
        }
    }
    Ok(())
}

/// The complete EAR placement policy: maintains one open stripe builder per
/// core rack (the paper's *pre-encoding store*, Section IV-B), sealing a
/// stripe whenever a core rack accumulates `k` blocks.
///
/// ```
/// use ear_core::{EncodingAwareReplication, PlacementPolicy};
/// use ear_types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};
///
/// let topo = ClusterTopology::uniform(8, 4);
/// let cfg = EarConfig::new(
///     ErasureParams::new(6, 4).unwrap(),
///     ReplicationConfig::hdfs_default(),
///     1,
/// ).unwrap();
/// let mut ear = EncodingAwareReplication::new(cfg, topo);
/// let mut rng = ear_types::rng::ChaCha8::from_seed(5);
/// let mut sealed = 0;
/// for _ in 0..64 {
///     let placed = ear.place_block(&mut rng)?;
///     if placed.sealed_stripe.is_some() {
///         sealed += 1;
///     }
/// }
/// assert!(sealed >= 1);
/// # Ok::<(), ear_types::Error>(())
/// ```
#[derive(Debug)]
pub struct EncodingAwareReplication {
    cfg: EarConfig,
    topo: ClusterTopology,
    selection: CoreRackSelection,
    open: HashMap<RackId, EarStripeBuilder>,
}

impl EncodingAwareReplication {
    /// Creates the policy.
    pub fn new(cfg: EarConfig, topo: ClusterTopology) -> Self {
        EncodingAwareReplication {
            cfg,
            topo,
            selection: CoreRackSelection::default(),
            open: HashMap::new(),
        }
    }

    /// Overrides how the core rack of a new stripe is chosen.
    pub fn with_core_rack_selection(mut self, selection: CoreRackSelection) -> Self {
        self.selection = selection;
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &EarConfig {
        &self.cfg
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// Number of stripes currently open (accumulating blocks) in the
    /// pre-encoding store.
    pub fn open_stripes(&self) -> usize {
        self.open.len()
    }

    /// Places one block, returning its layout and — when this block fills a
    /// core rack's stripe — the sealed [`StripePlan`].
    ///
    /// # Errors
    ///
    /// Propagates topology-validation and retry-exhaustion errors from
    /// [`EarStripeBuilder`].
    pub fn place_block(&mut self, rng: &mut ChaCha8) -> Result<crate::PlacedBlock> {
        let core = self.pick_core_rack(rng);
        let builder = match self.open.entry(core) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(EarStripeBuilder::new(&self.cfg, &self.topo, core, rng)?)
            }
        };
        let layout = builder.add_block(&self.topo, &self.cfg, rng)?;
        let sealed = if builder.is_full() {
            let b = self.open.remove(&core).expect("present");
            Some(b.finish())
        } else {
            None
        };
        Ok(crate::PlacedBlock {
            layout,
            sealed_stripe: sealed,
        })
    }

    fn pick_core_rack(&self, rng: &mut ChaCha8) -> RackId {
        match self.selection {
            CoreRackSelection::FirstWriter => {
                sample::random_rack(rng, &self.topo, &[], None).expect("topology has racks")
            }
            CoreRackSelection::LeastLoaded => self
                .topo
                .racks()
                .min_by_key(|r| self.open.get(r).map(|b| b.len()).unwrap_or(0))
                .expect("topology has racks"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::{ErasureParams, ReplicationConfig};

    fn cfg(n: usize, k: usize, c: usize) -> EarConfig {
        EarConfig::new(
            ErasureParams::new(n, k).unwrap(),
            ReplicationConfig::hdfs_default(),
            c,
        )
        .unwrap()
    }

    #[test]
    fn builder_places_first_replica_in_core_rack() {
        let topo = ClusterTopology::uniform(6, 4);
        let cfg = cfg(5, 4, 1);
        let mut rng = ChaCha8::from_seed(21);
        let mut b = EarStripeBuilder::new(&cfg, &topo, RackId(3), &mut rng).unwrap();
        while !b.is_full() {
            let layout = b.add_block(&topo, &cfg, &mut rng).unwrap();
            assert_eq!(topo.rack_of(layout.primary()), RackId(3));
        }
        let plan = b.finish();
        assert_eq!(plan.num_blocks(), 4);
        // Every block has a replica in the core rack.
        for l in plan.data_layouts() {
            assert!(l.has_replica_in_rack(&topo, RackId(3)));
        }
    }

    #[test]
    fn sealed_stripe_always_admits_complete_matching() {
        let topo = ClusterTopology::uniform(8, 4);
        let cfg = cfg(6, 4, 1);
        let mut rng = ChaCha8::from_seed(22);
        for trial in 0..50 {
            let mut b = EarStripeBuilder::new(&cfg, &topo, RackId(trial % 8), &mut rng).unwrap();
            while !b.is_full() {
                b.add_block(&topo, &cfg, &mut rng).unwrap();
            }
            let plan = b.finish();
            let lists: Vec<Vec<NodeId>> = plan
                .data_layouts()
                .iter()
                .map(|l| l.replicas.clone())
                .collect();
            let m = max_kept_matching(&topo, &lists, cfg.c(), None);
            assert!(m.is_complete(), "trial {trial}: matching incomplete");
        }
    }

    #[test]
    fn builder_rejects_overfull_stripe() {
        let topo = ClusterTopology::uniform(6, 4);
        let cfg = cfg(4, 3, 1);
        let mut rng = ChaCha8::from_seed(23);
        let mut b = EarStripeBuilder::new(&cfg, &topo, RackId(0), &mut rng).unwrap();
        for _ in 0..3 {
            b.add_block(&topo, &cfg, &mut rng).unwrap();
        }
        assert!(matches!(
            b.add_block(&topo, &cfg, &mut rng),
            Err(Error::Invariant(_))
        ));
    }

    #[test]
    #[should_panic(expected = "fewer than k blocks")]
    fn finishing_partial_stripe_panics() {
        let topo = ClusterTopology::uniform(6, 4);
        let cfg = cfg(4, 3, 1);
        let mut rng = ChaCha8::from_seed(24);
        let b = EarStripeBuilder::new(&cfg, &topo, RackId(0), &mut rng).unwrap();
        let _ = b.finish();
    }

    #[test]
    fn topology_validation() {
        let mut rng = ChaCha8::from_seed(25);
        // (14,10) with c=1 needs 14 racks.
        let small = ClusterTopology::uniform(10, 4);
        let c = cfg(14, 10, 1);
        assert!(EarStripeBuilder::new(&c, &small, RackId(0), &mut rng).is_err());
        // c=2 halves the requirement.
        let c2 = cfg(14, 10, 2);
        assert!(EarStripeBuilder::new(&c2, &small, RackId(0), &mut rng).is_ok());
    }

    #[test]
    fn target_racks_constrain_all_replicas() {
        // Section III-D: (6,3), c=3, R'=2.
        let topo = ClusterTopology::uniform(6, 6);
        let cfg = EarConfig::new(
            ErasureParams::new(6, 3).unwrap(),
            ReplicationConfig::hdfs_default(),
            3,
        )
        .unwrap()
        .with_target_racks(2)
        .unwrap();
        let mut rng = ChaCha8::from_seed(26);
        let mut b = EarStripeBuilder::new(&cfg, &topo, RackId(1), &mut rng).unwrap();
        while !b.is_full() {
            b.add_block(&topo, &cfg, &mut rng).unwrap();
        }
        let plan = b.finish();
        let targets = plan.target_racks().unwrap().to_vec();
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&RackId(1)));
        for l in plan.data_layouts() {
            for &node in &l.replicas {
                assert!(
                    targets.contains(&topo.rack_of(node)),
                    "replica outside target racks"
                );
            }
        }
    }

    #[test]
    fn driver_seals_stripes_per_core_rack() {
        let topo = ClusterTopology::uniform(8, 4);
        let cfg = cfg(6, 4, 1);
        let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
        let mut rng = ChaCha8::from_seed(27);
        let mut sealed = Vec::new();
        for _ in 0..200 {
            let placed = ear.place_block(&mut rng).unwrap();
            if let Some(plan) = placed.sealed_stripe {
                sealed.push(plan);
            }
        }
        assert!(!sealed.is_empty());
        for plan in &sealed {
            assert_eq!(plan.num_blocks(), 4);
            let core = plan.core_rack().unwrap();
            for l in plan.data_layouts() {
                assert_eq!(topo.rack_of(l.primary()), core);
            }
        }
        // Open stripes never exceed the number of racks.
        assert!(ear.open_stripes() <= 8);
    }

    #[test]
    fn least_loaded_core_rack_selection_round_robins() {
        let topo = ClusterTopology::uniform(5, 4);
        let cfg = cfg(5, 4, 1);
        let mut ear = EncodingAwareReplication::new(cfg, topo)
            .with_core_rack_selection(CoreRackSelection::LeastLoaded);
        let mut rng = ChaCha8::from_seed(28);
        // After 4 blocks, each rack should host exactly one open block.
        for _ in 0..4 {
            ear.place_block(&mut rng).unwrap();
        }
        assert_eq!(ear.open_stripes(), 4);
    }

    #[test]
    fn retries_are_recorded() {
        // Tight topology forces some regeneration: 5 racks, c=1, k=4 means
        // non-core replicas must land in 4 distinct non-core racks.
        let topo = ClusterTopology::uniform(5, 4);
        let cfg = cfg(5, 4, 1);
        let mut rng = ChaCha8::from_seed(29);
        let mut total_retries = 0usize;
        for trial in 0..30 {
            let mut b = EarStripeBuilder::new(&cfg, &topo, RackId(trial % 5), &mut rng).unwrap();
            while !b.is_full() {
                b.add_block(&topo, &cfg, &mut rng).unwrap();
            }
            total_retries += b.finish().retries().iter().sum::<usize>();
        }
        assert!(
            total_retries > 0,
            "a tight topology should require at least one regeneration"
        );
    }
}
