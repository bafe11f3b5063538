//! Simulation configuration (the knobs of Experiments B.1 and B.2).

use ear_core::ClusterPolicy;
use ear_types::{Bandwidth, ByteSize, EarConfig, ErasureParams, ReplicationConfig, Result};

/// Full configuration of one simulation run.
///
/// Defaults mirror Experiment B.2: a 400-node CFS of 20 racks × 20 nodes,
/// 1 Gb/s links, 64 MiB blocks, 3-way replication over two racks, `(14, 10)`
/// erasure coding with `c = 1`, write and background traffic at 1 req/s, and
/// 20 encoding processes of 50 stripes each.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of racks.
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Bandwidth of each node's access link.
    pub node_bandwidth: Bandwidth,
    /// Bandwidth of each rack's uplink/downlink to the network core.
    pub rack_bandwidth: Bandwidth,
    /// Fixed CFS block size.
    pub block_size: ByteSize,
    /// Erasure-coding parameters applied at encoding time.
    pub erasure: ErasureParams,
    /// Replication configuration used before encoding.
    pub replication: ReplicationConfig,
    /// Maximum stripe blocks per rack after encoding (EAR's `c`).
    pub c: usize,
    /// Optional target-racks restriction `R'` (Section III-D).
    pub target_racks: Option<usize>,
    /// Placement policy.
    pub policy: ClusterPolicy,
    /// Write request arrival rate (requests/second); 0 disables writes.
    pub write_rate: f64,
    /// Background request arrival rate (requests/second); 0 disables it.
    pub background_rate: f64,
    /// Mean size of (exponentially distributed) background transfers.
    pub background_mean_size: ByteSize,
    /// Fraction of background transfers that cross racks (the paper's 1:1
    /// ratio is 0.5).
    pub background_cross_fraction: f64,
    /// Number of concurrent encoding processes.
    pub encode_processes: usize,
    /// Stripes encoded by each process.
    pub stripes_per_process: usize,
    /// Simulated time at which encoding starts (seconds).
    pub encode_start: f64,
    /// Writes issued before the simulation stops generating them, when no
    /// encoding bounds the run (e.g. Table I's "without encoding" rows).
    pub standalone_writes: usize,
    /// Simulate the BlockMover's relocation transfers for RR stripes that
    /// violate rack-level fault tolerance after encoding. The paper does
    /// *not* simulate these ("the simulated performance of RR is actually
    /// over-estimated", Experiment B.2); enabling this measures how much.
    pub simulate_relocation: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            racks: 20,
            nodes_per_rack: 20,
            node_bandwidth: Bandwidth::gbit(1.0),
            rack_bandwidth: Bandwidth::gbit(1.0),
            block_size: ByteSize::mib(64),
            erasure: ErasureParams::new(14, 10).expect("valid"),
            replication: ReplicationConfig::hdfs_default(),
            c: 1,
            target_racks: None,
            policy: ClusterPolicy::Ear,
            write_rate: 1.0,
            background_rate: 1.0,
            background_mean_size: ByteSize::mib(64),
            background_cross_fraction: 0.5,
            encode_processes: 20,
            stripes_per_process: 50,
            encode_start: 0.0,
            standalone_writes: 0,
            simulate_relocation: false,
            seed: 1,
        }
    }
}

impl SimConfig {
    /// The testbed topology of Experiments A.1–A.3 and B.1: 12 racks with a
    /// single DataNode each, 1 Gb/s links, 2-way replication, 96 stripes
    /// encoded by 12 map processes.
    pub fn testbed(policy: ClusterPolicy, erasure: ErasureParams) -> Self {
        SimConfig {
            racks: 12,
            nodes_per_rack: 1,
            replication: ReplicationConfig::two_way(),
            erasure,
            policy,
            write_rate: 0.0,
            background_rate: 0.0,
            encode_processes: 12,
            stripes_per_process: 8,
            ..SimConfig::default()
        }
    }

    /// Derives the [`EarConfig`] shared by both policies.
    ///
    /// # Errors
    ///
    /// Returns a validation error if `c` or the target racks are
    /// inconsistent with the erasure parameters.
    pub fn ear_config(&self) -> Result<EarConfig> {
        let cfg = EarConfig::new(self.erasure, self.replication, self.c)?;
        match self.target_racks {
            Some(r) => cfg.with_target_racks(r),
            None => Ok(cfg),
        }
    }

    /// Total stripes encoded in this run.
    pub fn total_stripes(&self) -> usize {
        self.encode_processes * self.stripes_per_process
    }

    /// Overrides the seed, for multi-run experiments.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the policy.
    pub fn with_policy(mut self, policy: ClusterPolicy) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_experiment_b2() {
        let c = SimConfig::default();
        assert_eq!(c.racks, 20);
        assert_eq!(c.nodes_per_rack, 20);
        assert_eq!(c.erasure.n(), 14);
        assert_eq!(c.erasure.k(), 10);
        assert_eq!(c.total_stripes(), 1000);
        assert!(c.ear_config().is_ok());
    }

    #[test]
    fn testbed_matches_experiment_a() {
        let c = SimConfig::testbed(ClusterPolicy::Rr, ErasureParams::new(10, 8).unwrap());
        assert_eq!(c.racks, 12);
        assert_eq!(c.nodes_per_rack, 1);
        assert_eq!(c.replication.replicas(), 2);
        assert_eq!(c.total_stripes(), 96);
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::default()
            .with_seed(9)
            .with_policy(ClusterPolicy::Rr);
        assert_eq!(c.seed, 9);
        assert_eq!(c.policy, ClusterPolicy::Rr);
        assert_eq!(c.policy.name(), "rr");
    }
}
