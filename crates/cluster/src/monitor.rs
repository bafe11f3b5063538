//! The PlacementMonitor: Facebook's HDFS periodically scans encoded stripes
//! for rack-level fault-tolerance violations and hands them to the
//! BlockMover (Section II-B of the paper). This module reproduces the scan;
//! [`RaidNode::relocate`](crate::RaidNode::relocate) is the mover.

use crate::cluster::MiniCfs;
use crate::namenode::EncodedStripe;
use crate::raidnode::Relocation;
use ear_types::rng::ChaCha8;
use ear_types::{NodeId, RackId, StripeId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One detected violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending stripe.
    pub stripe: StripeId,
    /// Racks holding more than `c` blocks of the stripe, with their counts.
    pub overloaded_racks: Vec<(RackId, usize)>,
}

/// Scans every encoded stripe and reports those whose current block
/// placement violates the `c` blocks-per-rack constraint (or places two
/// stripe blocks on one node).
pub fn scan(cfs: &MiniCfs) -> Vec<Violation> {
    let nn = cfs.namenode();
    let mut violations = Vec::new();
    for es in nn.encoded_stripes() {
        let holders = es.members().filter_map(|b| nn.locations(b)).flatten();
        let found = cfs.spread_of(holders).violations();
        if !found.is_empty() {
            violations.push(Violation {
                stripe: es.id,
                overloaded_racks: found.overloaded_racks,
            });
        }
    }
    violations
}

/// Plans relocations repairing the reported violations: a rack's surplus
/// blocks, and any node's second block whatever its rack holds, move to
/// nodes the stripe's spread admits. Feed the result to
/// [`RaidNode::relocate`](crate::RaidNode::relocate).
pub fn plan_repairs(cfs: &MiniCfs, violations: &[Violation]) -> Vec<Relocation> {
    let topo = cfs.topology();
    // Derived from the cluster seed so two clusters differing only in seed
    // plan different (but individually reproducible) repairs.
    let mut rng = ChaCha8::from_seed(cfs.config().seed ^ 0x510C);
    let encoded: HashMap<StripeId, EncodedStripe> = cfs
        .namenode()
        .encoded_stripes()
        .into_iter()
        .map(|es| (es.id, es))
        .collect();
    let mut out = Vec::new();
    for v in violations {
        let Some(es) = encoded.get(&v.stripe) else {
            continue;
        };
        // Current placement of the stripe.
        let placement: Vec<(ear_types::BlockId, NodeId)> = es
            .members()
            .filter_map(|b| {
                cfs.namenode()
                    .locations(b)
                    .and_then(|l| l.first().copied())
                    .map(|n| (b, n))
            })
            .collect();
        let mut spread = cfs.spread_of(placement.iter().map(|&(_, n)| n));
        // Rack by rack in rack order, so the plan is a pure function of
        // cluster state and seed.
        let mut per_rack: BTreeMap<RackId, Vec<usize>> = BTreeMap::new();
        for (i, &(_, n)) in placement.iter().enumerate() {
            per_rack.entry(topo.rack_of(n)).or_default().push(i);
        }
        for members in per_rack.into_values() {
            let surplus = members.len().saturating_sub(spread.c());
            // A node's second stripe block moves before any node's only one
            // — otherwise the rack can drop to `c` with a node clash left in
            // it — and moves even when the rack is within `c`.
            let mut seen = HashSet::new();
            let (lone, doubled): (Vec<usize>, Vec<usize>) = members
                .iter()
                .partition(|&&idx| seen.insert(placement[idx].1));
            let moving = surplus.max(doubled.len());
            for &idx in doubled.iter().chain(&lone).take(moving) {
                let (block, from) = placement[idx];
                let Some(to) = spread.pick(None, &mut rng) else {
                    continue;
                };
                out.push((block, from, to));
                // The destination now holds a stripe block: the next pick
                // must not land a second one on it.
                spread.vacate(from);
                spread.place(to);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterPolicy};
    use crate::raidnode::RaidNode;
    use ear_types::{
        Bandwidth, ByteSize, CacheConfig, EarConfig, ErasureParams, ReplicationConfig,
        StoreBackend,
    };

    fn config(policy: ClusterPolicy) -> ClusterConfig {
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        ClusterConfig {
            racks: 8,
            nodes_per_rack: 2,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(512e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
            ear,
            policy,
            seed: 77,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        }
    }

    fn boot(policy: ClusterPolicy) -> MiniCfs {
        MiniCfs::new(config(policy)).unwrap()
    }

    fn write_and_encode(cfs: &MiniCfs, stripes: usize) -> Vec<Relocation> {
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < stripes {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
            i += 1;
        }
        RaidNode::encode_all(cfs, 4).unwrap().1
    }

    #[test]
    fn clean_ear_cluster_reports_no_violations() {
        let cfs = boot(ClusterPolicy::Ear);
        write_and_encode(&cfs, 3);
        assert!(scan(&cfs).is_empty());
    }

    #[test]
    fn detects_and_repairs_a_manufactured_violation() {
        let cfs = boot(ClusterPolicy::Ear);
        write_and_encode(&cfs, 2);
        // Manufacture a violation: cram two blocks of one stripe into the
        // same rack.
        let es = &cfs.namenode().encoded_stripes()[0];
        let b0 = es.data[0];
        let b1 = es.data[1];
        let n0 = cfs.namenode().locations(b0).unwrap()[0];
        let rack = cfs.topology().rack_of(n0);
        // Move b1's copy onto the other node of b0's rack.
        let other = cfs
            .topology()
            .nodes_in_rack(rack)
            .iter()
            .copied()
            .find(|&n| n != n0)
            .unwrap();
        let old = cfs.namenode().locations(b1).unwrap()[0];
        let data = cfs.datanode(old).get(b1).unwrap();
        cfs.datanode(other).put(b1, data).unwrap();
        cfs.datanode(old).delete(b1);
        cfs.namenode().set_locations(b1, vec![other]).unwrap();

        let violations = scan(&cfs);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].stripe, es.id);
        assert_eq!(violations[0].overloaded_racks[0].0, rack);

        let repairs = plan_repairs(&cfs, &violations);
        assert!(!repairs.is_empty());
        RaidNode::relocate(&cfs, &repairs).unwrap();
        assert!(scan(&cfs).is_empty(), "repairs must clear the violations");
    }

    #[test]
    fn surplus_blocks_never_land_on_one_node() {
        // Regression: plan_repairs once never added chosen destinations to
        // its used set, so two surplus blocks of one stripe could be planned
        // onto the same node, and iterated monitor repair never converged.
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            2,
        )
        .unwrap();
        let cfg = ClusterConfig {
            racks: 4,
            nodes_per_rack: 2,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(512e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
            ear,
            policy: ClusterPolicy::Ear,
            seed: 79,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        };
        let cfs = MiniCfs::new(cfg).unwrap();
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < 1 {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
            i += 1;
        }
        RaidNode::encode_all(&cfs, 2).unwrap();
        let es = &cfs.namenode().encoded_stripes()[0];
        let members: Vec<_> = es.data.iter().chain(es.parity.iter()).copied().collect();
        let topo = cfs.topology();
        let holder = |b| cfs.namenode().locations(b).unwrap()[0];
        // Cram a second rack's blocks into the first stripe rack: 4 blocks
        // in one rack under c = 2 gives two surplus moves.
        let rack_a = topo.rack_of(holder(members[0]));
        let movers: Vec<_> = members
            .iter()
            .copied()
            .filter(|&b| topo.rack_of(holder(b)) != rack_a)
            .take(2)
            .collect();
        let a_nodes = topo.nodes_in_rack(rack_a).to_vec();
        assert!(movers.len() >= 2, "need two blocks to relocate into rack A");
        for (&b, &dst) in movers.iter().zip(a_nodes.iter()) {
            let old = holder(b);
            let data = cfs.datanode(old).get(b).unwrap();
            cfs.datanode(dst).put(b, data).unwrap();
            cfs.datanode(old).delete(b);
            cfs.namenode().set_locations(b, vec![dst]).unwrap();
        }
        assert!(!scan(&cfs).is_empty(), "manufactured overload must be seen");
        // Iterated monitor repair must converge, never stacking two planned
        // destinations on one node.
        for _ in 0..4 {
            let violations = scan(&cfs);
            if violations.is_empty() {
                break;
            }
            let plan = plan_repairs(&cfs, &violations);
            let mut dests = HashSet::new();
            for &(_, _, to) in &plan {
                assert!(dests.insert(to), "two surplus blocks planned onto {to}");
            }
            RaidNode::relocate(&cfs, &plan).unwrap();
        }
        assert!(scan(&cfs).is_empty(), "iterated repair must converge");
    }

    #[test]
    fn a_node_clash_inside_a_racks_allowance_is_moved() {
        // c = 2: two stripe blocks on one node overload no rack, so the
        // violation carries no rack to drain — the clash alone must plan a
        // move.
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            2,
        )
        .unwrap();
        let cfs = MiniCfs::new(ClusterConfig {
            racks: 4,
            ear,
            seed: 79,
            ..config(ClusterPolicy::Ear)
        })
        .unwrap();
        write_and_encode(&cfs, 1);
        let es = &cfs.namenode().encoded_stripes()[0];
        let topo = cfs.topology();
        let holder = |b| cfs.namenode().locations(b).unwrap()[0];
        // Two members sharing a rack: the second joins the first's node.
        let (stay, mover) = es
            .members()
            .flat_map(|a| es.members().map(move |b| (a, b)))
            .find(|&(a, b)| a < b && topo.rack_of(holder(a)) == topo.rack_of(holder(b)))
            .expect("six blocks over four racks share one");
        let (old, dst) = (holder(mover), holder(stay));
        let data = cfs.datanode(old).get(mover).unwrap();
        cfs.datanode(dst).put(mover, data).unwrap();
        cfs.datanode(old).delete(mover);
        cfs.namenode().set_locations(mover, vec![dst]).unwrap();

        let violations = scan(&cfs);
        assert_eq!(violations, [Violation { stripe: es.id, overloaded_racks: vec![] }]);
        let repairs = plan_repairs(&cfs, &violations);
        assert_eq!(repairs.len(), 1, "{repairs:?}");
        assert_eq!(repairs[0].1, dst);
        RaidNode::relocate(&cfs, &repairs).unwrap();
        assert_eq!(scan(&cfs), []);
    }

    #[test]
    fn repair_plans_replay_from_the_cluster_seed() {
        // plan_repairs derives its RNG from the cluster seed (not a
        // hard-coded constant), and is a pure function of cluster state:
        // booting the identical cluster twice plans identical repairs.
        let build = || {
            let cfs = boot(ClusterPolicy::Ear);
            let nodes = cfs.topology().num_nodes() as u64;
            let mut i = 0u64;
            while cfs.namenode().pending_stripe_count() < 2 {
                let data = cfs.make_block(i);
                cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
                i += 1;
            }
            RaidNode::encode_all(&cfs, 4).unwrap();
            let es = &cfs.namenode().encoded_stripes()[0];
            let b0 = es.data[0];
            let b1 = es.data[1];
            let n0 = cfs.namenode().locations(b0).unwrap()[0];
            let rack = cfs.topology().rack_of(n0);
            let other = cfs
                .topology()
                .nodes_in_rack(rack)
                .iter()
                .copied()
                .find(|&n| n != n0)
                .unwrap();
            let old = cfs.namenode().locations(b1).unwrap()[0];
            let data = cfs.datanode(old).get(b1).unwrap();
            cfs.datanode(other).put(b1, data).unwrap();
            cfs.datanode(old).delete(b1);
            cfs.namenode().set_locations(b1, vec![other]).unwrap();
            let violations = scan(&cfs);
            plan_repairs(&cfs, &violations)
        };
        let a = build();
        let b = build();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same cluster seed must replay the same plan");
    }

    #[test]
    fn rr_violations_found_by_monitor_match_encode_stats() {
        // Tight cluster: (6,4) over exactly 6 racks.
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        let cfg = ClusterConfig {
            racks: 6,
            nodes_per_rack: 3,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(512e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
            ear,
            policy: ClusterPolicy::Rr,
            seed: 78,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        };
        let cfs = MiniCfs::new(cfg).unwrap();
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < 20 {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % nodes) as u32), data).unwrap();
            i += 1;
        }
        let (stats, _pending_relocations) = RaidNode::encode_all(&cfs, 4).unwrap();
        let found = scan(&cfs);
        assert_eq!(
            found.len(),
            stats.stripes_with_relocation,
            "monitor and encode stats must agree"
        );
        if !found.is_empty() {
            let repairs = plan_repairs(&cfs, &found);
            RaidNode::relocate(&cfs, &repairs).unwrap();
            assert!(scan(&cfs).is_empty());
        }
    }
}
