//! Property-based tests of the placement invariants the paper guarantees:
//! for any topology and parameters EAR can host, sealed stripes admit a
//! complete matching, encoding needs no cross-rack download, and the
//! post-encoding layout satisfies node- and rack-level fault tolerance with
//! no relocation. Random replication must always end valid too — after its
//! (possibly non-empty) relocations.

use ear_core::{EncodingAwareReplication, PlacementPolicy, RandomReplicationPolicy};
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, ErasureParams, RackSpread, ReplicationConfig};
use proptest::prelude::*;

/// A topology + configuration pair that EAR can host.
#[derive(Debug, Clone)]
struct Scenario {
    racks: usize,
    nodes_per_rack: usize,
    n: usize,
    k: usize,
    c: usize,
    replicas: usize,
    spread: RackSpread,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        2usize..=8, // k
        1usize..=4, // parity
        1usize..=2, // c
        2usize..=3, // replicas
        prop_oneof![Just(RackSpread::TwoRacks), Just(RackSpread::DistinctRacks)],
        2usize..=6,   // nodes per rack
        any::<u64>(), // seed
        0usize..=6,   // extra racks beyond the minimum
    )
        .prop_map(
            |(k, parity, c, replicas, spread, nodes_per_rack, seed, extra)| {
                let n = k + parity;
                // EAR needs ceil(n/c) racks; spreads add their own minimums.
                let min_racks = n.div_ceil(c).max(replicas).max(2);
                Scenario {
                    racks: min_racks + extra,
                    nodes_per_rack: nodes_per_rack.max(replicas.saturating_sub(1)).max(1),
                    n,
                    k,
                    c,
                    replicas,
                    spread,
                    seed,
                }
            },
        )
}

fn build(scenario: &Scenario) -> (ClusterTopology, EarConfig) {
    let topo = ClusterTopology::uniform(scenario.racks, scenario.nodes_per_rack);
    let cfg = EarConfig::new(
        ErasureParams::new(scenario.n, scenario.k).expect("valid by construction"),
        ReplicationConfig::new(scenario.replicas, scenario.spread).expect("valid"),
        scenario.c,
    )
    .expect("valid");
    (topo, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ear_guarantees_hold_for_any_hostable_scenario(s in scenario_strategy()) {
        let (topo, cfg) = build(&s);
        let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
        let mut rng = ChaCha8::from_seed(s.seed);
        let mut sealed = Vec::new();
        for _ in 0..(s.k * 6) {
            match ear.place_block(&mut rng) {
                Ok(placed) => {
                    prop_assert_eq!(placed.layout.replicas.len(), s.replicas);
                    if let Some(plan) = placed.sealed_stripe {
                        sealed.push(plan);
                    }
                }
                Err(e) => return Err(TestCaseError::fail(format!("placement failed: {e}"))),
            }
        }
        for stripe in &sealed {
            let core = stripe.core_rack().expect("EAR stripes have a core rack");
            // Every block keeps a replica in the core rack.
            for layout in stripe.data_layouts() {
                prop_assert!(layout.has_replica_in_rack(&topo, core));
            }
            let plan = ear.plan_encoding(stripe, &mut rng)
                .map_err(|e| TestCaseError::fail(format!("encode plan failed: {e}")))?;
            prop_assert_eq!(plan.cross_rack_downloads(), 0);
            prop_assert!(plan.relocations.is_empty());
            prop_assert_eq!(plan.parity_nodes.len(), s.n - s.k);
            prop_assert_eq!(plan.check_fault_tolerance(&topo, s.c), None);
            prop_assert_eq!(topo.rack_of(plan.encoding_node), core);
        }
    }

    #[test]
    fn rr_always_ends_valid_after_relocation(s in scenario_strategy()) {
        let (topo, cfg) = build(&s);
        let mut rr = match RandomReplicationPolicy::new(cfg, topo.clone()) {
            Ok(p) => p,
            Err(_) => return Ok(()), // RR has its own topology minimums
        };
        let mut rng = ChaCha8::from_seed(s.seed ^ 0xDEAD);
        let mut sealed = Vec::new();
        for _ in 0..(s.k * 6) {
            if let Some(plan) = rr.place_block(&mut rng).unwrap().sealed_stripe {
                sealed.push(plan);
            }
        }
        prop_assert_eq!(sealed.len(), 6);
        for stripe in &sealed {
            let plan = rr.plan_encoding(stripe, &mut rng)
                .map_err(|e| TestCaseError::fail(format!("encode plan failed: {e}")))?;
            // RR may relocate, but the final layout must satisfy the
            // fault-tolerance constraints.
            prop_assert_eq!(plan.check_fault_tolerance(&topo, s.c), None);
            // Relocated blocks always move to a different node.
            for &(_, from, to) in &plan.relocations {
                prop_assert_ne!(from, to);
            }
        }
    }

    #[test]
    fn ear_retry_counts_stay_small_in_large_clusters(seed in any::<u64>()) {
        // Theorem 1: with R = 20 racks and c = 1, E_i <= (R-1)/(R-1-(i-1))
        // which is at most 19/10 = 1.9 for k = 10. Observed retries should
        // be well under the budget — we allow a loose bound of 50.
        let topo = ClusterTopology::uniform(20, 5);
        let cfg = EarConfig::new(
            ErasureParams::new(14, 10).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        ).unwrap();
        let mut ear = EncodingAwareReplication::new(cfg, topo);
        let mut rng = ChaCha8::from_seed(seed);
        for _ in 0..40 {
            let placed = ear.place_block(&mut rng).unwrap();
            if let Some(plan) = placed.sealed_stripe {
                for &r in plan.retries() {
                    prop_assert!(r < 50, "retry count {r} unexpectedly high");
                }
            }
        }
    }
}
