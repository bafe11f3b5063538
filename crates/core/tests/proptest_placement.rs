//! Property-based tests of the placement invariants the paper guarantees:
//! for any topology and parameters EAR can host, sealed stripes admit a
//! complete matching, encoding needs no cross-rack download, and the
//! post-encoding layout satisfies node- and rack-level fault tolerance with
//! no relocation. Random replication must always end valid too — after its
//! (possibly non-empty) relocations. The rule itself — at most `c` blocks of
//! a stripe per rack, one per node — is `StripeSpread`'s, checked last.

use ear_core::{
    EncodingAwareReplication, PlacementPolicy, RandomReplicationPolicy, StripeSpread,
};
use ear_types::prop::{check, range};
use ear_types::rng::ChaCha8;
use ear_types::{
    ClusterTopology, EarConfig, ErasureParams, NodeId, RackId, RackSpread, ReplicationConfig,
};

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

fn scenario(rng: &mut ChaCha8) -> Scenario {
    let k = range(rng, 2..=8) as usize;
    let n = k + range(rng, 1..=4) as usize;
    let c = range(rng, 1..=2) as usize;
    let replicas = range(rng, 2..=3) as usize;
    let spread = [RackSpread::TwoRacks, RackSpread::DistinctRacks][rng.below(2) as usize];
    let nodes_per_rack = range(rng, 2..=6) as usize;
    let seed = rng.next_u64();
    let extra_racks = range(rng, 0..=6) as usize;
    // EAR needs ceil(n/c) racks; spreads add their own minimums.
    let min_racks = n.div_ceil(c).max(replicas).max(2);
    Scenario {
        racks: min_racks + extra_racks,
        nodes_per_rack: nodes_per_rack.max(replicas.saturating_sub(1)).max(1),
        n,
        k,
        c,
        replicas,
        spread,
        seed,
    }
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

#[test]
fn ear_guarantees_hold_for_any_hostable_scenario() {
    check("ear_guarantees_hold_for_any_hostable_scenario", 48, |rng| {
        let s = scenario(rng);
        let (topo, cfg) = build(&s);
        let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
        let mut rng = ChaCha8::from_seed(s.seed);
        let mut sealed = Vec::new();
        for _ in 0..(s.k * 6) {
            let placed = ear.place_block(&mut rng).expect("placement");
            assert_eq!(placed.layout.replicas.len(), s.replicas);
            if let Some(plan) = placed.sealed_stripe {
                sealed.push(plan);
            }
        }
        for stripe in &sealed {
            let core = stripe.core_rack().expect("EAR stripes have a core rack");
            // Every block keeps a replica in the core rack.
            for layout in stripe.data_layouts() {
                assert!(layout.has_replica_in_rack(&topo, core));
            }
            let plan = ear.plan_encoding(stripe, &mut rng).expect("encode plan");
            assert_eq!(plan.cross_rack_downloads(), 0);
            assert!(plan.relocations.is_empty());
            assert_eq!(plan.parity_nodes.len(), s.n - s.k);
            assert_eq!(plan.check_fault_tolerance(&topo, s.c), None);
            assert_eq!(topo.rack_of(plan.encoding_node), core);
        }
    });
}

#[test]
fn rr_always_ends_valid_after_relocation() {
    check("rr_always_ends_valid_after_relocation", 48, |rng| {
        let s = scenario(rng);
        let (topo, cfg) = build(&s);
        let Ok(mut rr) = RandomReplicationPolicy::new(cfg, topo.clone()) else {
            return; // RR has its own topology minimums
        };
        let mut rng = ChaCha8::from_seed(s.seed ^ 0xDEAD);
        let mut sealed = Vec::new();
        for _ in 0..(s.k * 6) {
            if let Some(plan) = rr.place_block(&mut rng).unwrap().sealed_stripe {
                sealed.push(plan);
            }
        }
        assert_eq!(sealed.len(), 6);
        for stripe in &sealed {
            let plan = rr.plan_encoding(stripe, &mut rng).expect("encode plan");
            // RR may relocate, but the final layout must satisfy the
            // fault-tolerance constraints.
            assert_eq!(plan.check_fault_tolerance(&topo, s.c), None);
            // Relocated blocks always move to a different node.
            for &(_, from, to) in &plan.relocations {
                assert_ne!(from, to);
            }
        }
    });
}

#[test]
fn ear_retry_counts_stay_small_in_large_clusters() {
    check("ear_retry_counts_stay_small_in_large_clusters", 48, |rng| {
        // Theorem 1: with R = 20 racks and c = 1, E_i <= (R-1)/(R-1-(i-1))
        // which is at most 19/10 = 1.9 for k = 10. Observed retries should
        // be well under the budget — we allow a loose bound of 50.
        let topo = ClusterTopology::uniform(20, 5);
        let cfg = EarConfig::new(
            ErasureParams::new(14, 10).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap();
        let mut ear = EncodingAwareReplication::new(cfg, topo);
        for _ in 0..40 {
            let placed = ear.place_block(rng).unwrap();
            if let Some(plan) = placed.sealed_stripe {
                for &r in plan.retries() {
                    assert!(r < 50, "retry count {r} unexpectedly high");
                }
            }
        }
    });
}

#[test]
fn spread_admits_exactly_what_keeps_the_rule() {
    check("spread_admits_exactly_what_keeps_the_rule", 48, |rng| {
        let topo = ClusterTopology::uniform(range(rng, 1..=8) as usize, range(rng, 1..=4) as usize);
        let c = range(rng, 1..=3) as usize;
        let nodes: Vec<NodeId> = topo.nodes().collect();
        // A holder set the rule accepts, grown by the report alone: a random
        // node stays only if the report is still empty with it.
        let mut spread = StripeSpread::of(&topo, c, []);
        for _ in 0..range(rng, 0..=12) {
            let node = *rng.choose(&nodes).unwrap();
            spread.place(node);
            if !spread.violations().is_empty() {
                spread.vacate(node);
            }
            assert!(spread.violations().is_empty(), "vacate must undo place");
        }
        for &node in &nodes {
            let mut with = spread.clone();
            with.place(node);
            let found = with.violations();
            assert_eq!(spread.admits(node), found.is_empty(), "{node}: {found:?} in {spread:?}");
        }
        let some_racks: Vec<RackId> = topo.racks().filter(|_| rng.below(2) == 0).collect();
        for eligible in [None, Some(&some_racks[..])] {
            let in_reach = |n: NodeId| eligible.is_none_or(|list| list.contains(&topo.rack_of(n)));
            match spread.pick(eligible, rng) {
                Some(node) => assert!(spread.admits(node) && in_reach(node), "{node} in {spread:?}"),
                None => assert!(!nodes.iter().any(|&n| spread.admits(n) && in_reach(n))),
            }
        }
    });
}
