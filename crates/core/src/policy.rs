//! The [`PlacementPolicy`] trait: a uniform interface over random
//! replication and encoding-aware replication, used by the simulators, and
//! [`ClusterPolicy`], the one switch between them.

use crate::encode::{plan_encoding_ear, plan_encoding_rr};
use crate::layout::{BlockLayout, EncodePlan, StripePlan};
use crate::rr::RandomReplication;
use crate::EncodingAwareReplication;
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, Result};

/// Which placement policy a cluster or a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterPolicy {
    /// Random replication (the baseline).
    Rr,
    /// Encoding-aware replication (the paper's contribution).
    Ear,
}

impl ClusterPolicy {
    /// The policy's name in reports, flags and MANIFESTs: `rr` or `ear`.
    pub fn name(self) -> &'static str {
        match self {
            ClusterPolicy::Rr => "rr",
            ClusterPolicy::Ear => "ear",
        }
    }

    /// The policy [`name`](Self::name)d `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        [ClusterPolicy::Rr, ClusterPolicy::Ear].into_iter().find(|p| p.name() == name)
    }

    /// The policy over `topo`, placing under `cfg`.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::TopologyTooSmall`] if `topo` cannot host random
    /// replication's layouts.
    pub fn build(self, cfg: EarConfig, topo: ClusterTopology) -> Result<Box<dyn PlacementPolicy>> {
        Ok(match self {
            ClusterPolicy::Rr => Box::new(RandomReplicationPolicy::new(cfg, topo)?),
            ClusterPolicy::Ear => Box::new(EncodingAwareReplication::new(cfg, topo)),
        })
    }
}

/// The result of placing one block through a policy.
#[derive(Debug, Clone)]
pub struct PlacedBlock {
    /// The replica layout chosen for the block.
    pub layout: BlockLayout,
    /// When this block completed a group of `k`, the sealed stripe ready for
    /// encoding.
    pub sealed_stripe: Option<StripePlan>,
}

/// A replica placement policy that also knows how to plan the subsequent
/// encoding operation.
///
/// Object-safe so simulators can swap policies at runtime
/// (`Box<dyn PlacementPolicy>`).
pub trait PlacementPolicy: Send {
    /// Places the replicas of the next written block, sealing a stripe when
    /// `k` blocks have accumulated.
    ///
    /// # Errors
    ///
    /// Returns placement errors when the topology cannot host the layout or
    /// the retry budget is exhausted (EAR).
    fn place_block(&mut self, rng: &mut ChaCha8) -> Result<PlacedBlock>;

    /// Plans the encoding operation for a sealed stripe.
    ///
    /// # Errors
    ///
    /// Returns an error when parity or relocated blocks cannot be placed.
    fn plan_encoding(&self, stripe: &StripePlan, rng: &mut ChaCha8) -> Result<EncodePlan>;

    /// The configuration in force (shared by both policies so comparisons
    /// are apples-to-apples).
    fn config(&self) -> &EarConfig;
}

/// Random replication as a [`PlacementPolicy`]: blocks are placed
/// independently; every `k` consecutively written blocks form a stripe
/// (Facebook's RaidNode groups blocks this way, Section IV-A).
#[derive(Debug)]
pub struct RandomReplicationPolicy {
    cfg: EarConfig,
    rr: RandomReplication,
    pending: Vec<BlockLayout>,
}

impl RandomReplicationPolicy {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ear_types::Error::TopologyTooSmall`] if the topology cannot
    /// host the replication configuration.
    pub fn new(cfg: EarConfig, topo: ClusterTopology) -> Result<Self> {
        let rr = RandomReplication::new(topo, cfg.replication())?;
        Ok(RandomReplicationPolicy {
            cfg,
            rr,
            pending: Vec::new(),
        })
    }

    /// Blocks written but not yet grouped into a stripe.
    pub fn pending_blocks(&self) -> usize {
        self.pending.len()
    }
}

impl PlacementPolicy for RandomReplicationPolicy {
    fn place_block(&mut self, rng: &mut ChaCha8) -> Result<PlacedBlock> {
        let layout = self.rr.place_block(rng);
        self.pending.push(layout.clone());
        let sealed = if self.pending.len() == self.cfg.erasure().k() {
            let layouts = std::mem::take(&mut self.pending);
            let retries = vec![0; layouts.len()];
            Some(StripePlan::new(layouts, None, None, retries))
        } else {
            None
        };
        Ok(PlacedBlock {
            layout,
            sealed_stripe: sealed,
        })
    }

    fn plan_encoding(&self, stripe: &StripePlan, rng: &mut ChaCha8) -> Result<EncodePlan> {
        plan_encoding_rr(self.rr.topology(), &self.cfg, stripe, rng)
    }

    fn config(&self) -> &EarConfig {
        &self.cfg
    }
}

impl PlacementPolicy for EncodingAwareReplication {
    fn place_block(&mut self, rng: &mut ChaCha8) -> Result<PlacedBlock> {
        EncodingAwareReplication::place_block(self, rng)
    }

    fn plan_encoding(&self, stripe: &StripePlan, rng: &mut ChaCha8) -> Result<EncodePlan> {
        plan_encoding_ear(self.topology(), self.config(), stripe, rng)
    }

    fn config(&self) -> &EarConfig {
        EncodingAwareReplication::config(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::{ErasureParams, ReplicationConfig};

    fn cfg() -> EarConfig {
        EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap()
    }

    #[test]
    fn rr_policy_seals_every_k_blocks() {
        let topo = ClusterTopology::uniform(8, 4);
        let mut p = RandomReplicationPolicy::new(cfg(), topo).unwrap();
        let mut rng = ChaCha8::from_seed(41);
        let mut sealed = 0;
        for i in 1..=20 {
            let placed = p.place_block(&mut rng).unwrap();
            if i % 4 == 0 {
                assert!(placed.sealed_stripe.is_some(), "block {i}");
                sealed += 1;
            } else {
                assert!(placed.sealed_stripe.is_none(), "block {i}");
            }
        }
        assert_eq!(sealed, 5);
        assert_eq!(p.pending_blocks(), 0);
    }

    #[test]
    fn policies_are_object_safe_and_comparable() {
        let topo = ClusterTopology::uniform(8, 4);
        let mut rng = ChaCha8::from_seed(42);
        for kind in [ClusterPolicy::Rr, ClusterPolicy::Ear] {
            assert_eq!(ClusterPolicy::parse(kind.name()), Some(kind));
            let mut p = kind.build(cfg(), topo.clone()).unwrap();
            let mut stripes = Vec::new();
            for _ in 0..100 {
                if let Some(s) = p.place_block(&mut rng).unwrap().sealed_stripe {
                    stripes.push(s);
                }
            }
            assert!(!stripes.is_empty(), "{kind:?} produced no stripes");
            for s in &stripes {
                let plan = p.plan_encoding(s, &mut rng).unwrap();
                assert_eq!(plan.check_fault_tolerance(&topo, p.config().c()), None);
                if kind == ClusterPolicy::Ear {
                    assert_eq!(plan.cross_rack_downloads(), 0);
                    assert!(plan.relocations.is_empty());
                }
            }
        }
    }
}
