//! Planning the encoding operation: which node encodes a stripe, what it
//! downloads, which replicas survive, where parity lands, and what must be
//! relocated (Section II-A and Section III of the paper).

use crate::layout::{EncodePlan, StripePlan, StripeSpread};
use crate::matching::StripeMatching;
use crate::sample;
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, Error, NodeId, RackId, Result};

/// Refuses a plan that names a node, core rack or target rack outside
/// `topo` — possible only for a plan decoded from the metadata log, whose
/// CRC vouches for its bytes but not for its ids.
fn check_in_topology(topo: &ClusterTopology, stripe: &StripePlan) -> Result<()> {
    let mut nodes = stripe.data_layouts().iter().flat_map(|l| &l.replicas);
    if let Some(node) = nodes.find(|n| n.index() >= topo.num_nodes()) {
        return Err(Error::Invariant(format!(
            "stripe plan names {node}, outside the {}-node topology",
            topo.num_nodes()
        )));
    }
    let core = stripe.core_rack();
    let mut racks = core.iter().chain(stripe.target_racks().unwrap_or_default());
    if let Some(rack) = racks.find(|r| r.index() >= topo.num_racks()) {
        return Err(Error::Invariant(format!(
            "stripe plan names {rack}, outside the {}-rack topology",
            topo.num_racks()
        )));
    }
    Ok(())
}

/// Plans the encoding of an EAR-placed stripe (Section III): the encoding
/// node is a random node of the core rack, no cross-rack downloads occur,
/// the kept replicas are the stripe's maximum matching (its blocks fed to
/// the matcher in order, as the builder fed them, so the builder's kept
/// set), and parity blocks go to racks that still have spare stripe
/// capacity.
///
/// # Errors
///
/// Returns [`Error::Invariant`] if the plan names a node or rack outside
/// `topo`, lacks a core rack, or its flow graph has no complete matching
/// (all impossible for plans produced by
/// [`EncodingAwareReplication`](crate::EncodingAwareReplication)), or
/// [`Error::TopologyTooSmall`] if parity cannot be placed.
pub fn plan_encoding_ear(
    topo: &ClusterTopology,
    cfg: &EarConfig,
    stripe: &StripePlan,
    rng: &mut ChaCha8,
) -> Result<EncodePlan> {
    check_in_topology(topo, stripe)?;
    let core = stripe
        .core_rack()
        .ok_or_else(|| Error::Invariant("EAR encoding plan requires a core rack".into()))?;
    let encoding_node = sample::random_node_in_rack(rng, topo, core, &[])
        .ok_or_else(|| Error::Invariant(format!("core {core} has no nodes")))?;

    let mut matching = StripeMatching::new(cfg.c(), stripe.target_racks());
    let layouts = stripe.data_layouts();
    if !layouts.iter().all(|l| matching.add(topo, &l.replicas)) {
        return Err(Error::Invariant(
            "EAR stripe has no complete matching; placement invariant broken".into(),
        ));
    }
    let kept_data = matching.kept();

    // By construction every block has a replica in the core rack, so the
    // encoding node downloads everything intra-rack.
    let cross_rack_sources: Vec<usize> = stripe
        .data_layouts()
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.has_replica_in_rack(topo, core))
        .map(|(i, _)| i)
        .collect();
    debug_assert!(
        cross_rack_sources.is_empty(),
        "EAR stripes always have a core-rack replica per block"
    );

    let mut spread = StripeSpread::of(topo, cfg.c(), kept_data.iter().copied());
    let parity_nodes =
        place_parity(&mut spread, cfg.erasure().parity(), stripe.target_racks(), rng)?;

    Ok(EncodePlan {
        encoding_node,
        cross_rack_sources,
        kept_data,
        parity_nodes,
        relocations: Vec::new(),
    })
}

/// Plans the encoding of an RR-placed stripe (Section II-B): a uniformly
/// random node encodes ("the CFS randomly selects a node to perform the
/// encoding operation", Section II-A), downloading every block whose
/// replicas are all in other racks; surviving replicas are chosen as
/// favourably as possible (via the same maximum matching EAR uses — a
/// charitable baseline), and any block the matching refuses is relocated,
/// reproducing the PlacementMonitor/BlockMover behaviour of Facebook's HDFS.
///
/// # Errors
///
/// Returns [`Error::Invariant`] if the plan names a node outside `topo`, or
/// [`Error::TopologyTooSmall`] if parity or relocated blocks cannot be
/// placed anywhere.
pub fn plan_encoding_rr(
    topo: &ClusterTopology,
    cfg: &EarConfig,
    stripe: &StripePlan,
    rng: &mut ChaCha8,
) -> Result<EncodePlan> {
    check_in_topology(topo, stripe)?;
    let all: Vec<NodeId> = topo.nodes().collect();
    let encoding_node = *rng.choose(&all).expect("topology has nodes");
    let enc_rack = topo.rack_of(encoding_node);
    let cross_rack_sources: Vec<usize> = stripe
        .data_layouts()
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.has_replica_in_rack(topo, enc_rack))
        .map(|(i, _)| i)
        .collect();

    // Keep replicas as favourably as possible: the blocks the matching
    // refuses keep an arbitrary replica for now and are relocated.
    let mut matching = StripeMatching::new(cfg.c(), None);
    let matched: Vec<bool> = stripe
        .data_layouts()
        .iter()
        .map(|l| matching.add(topo, &l.replicas))
        .collect();
    let mut kept = matching.kept().into_iter();
    let kept_data: Vec<NodeId> = stripe
        .data_layouts()
        .iter()
        .zip(&matched)
        .map(|(l, &m)| match m {
            true => kept.next().expect("a kept node per matched block"),
            false => l.primary(),
        })
        .collect();

    // Relocate unmatched blocks to racks with spare capacity
    // (BlockMover, Section II-B): the spread starts from the matched
    // replicas, so a block on its way out takes up no room.
    let mut relocations = Vec::new();
    let mut spread = StripeSpread::of(topo, cfg.c(), matching.kept());
    let unmatched = (0..matched.len()).filter(|&i| !matched[i]);
    for i in unmatched {
        let to = spread.pick(None, rng).ok_or_else(|| Error::TopologyTooSmall {
            reason: "no rack has spare capacity for a relocated block".into(),
        })?;
        relocations.push((i, kept_data[i], to));
        spread.place(to);
    }
    // The spread now holds the final data nodes; parity joins them.
    let parity_nodes = place_parity(&mut spread, cfg.erasure().parity(), None, rng)?;

    Ok(EncodePlan {
        encoding_node,
        cross_rack_sources,
        kept_data,
        parity_nodes,
        relocations,
    })
}

/// Places `m` parity blocks on nodes `spread` admits — beside the data
/// blocks it already holds, no node takes two stripe blocks and no rack
/// exceeds `c` — and records them in it.
fn place_parity(
    spread: &mut StripeSpread<'_>,
    m: usize,
    eligible: Option<&[RackId]>,
    rng: &mut ChaCha8,
) -> Result<Vec<NodeId>> {
    let mut parity = Vec::with_capacity(m);
    for _ in 0..m {
        let node = spread.pick(eligible, rng).ok_or_else(|| Error::TopologyTooSmall {
            reason: format!("cannot place {m} parity blocks with c = {}", spread.c()),
        })?;
        spread.place(node);
        parity.push(node);
    }
    Ok(parity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ear::EarStripeBuilder;
    use crate::layout::BlockLayout;
    use crate::rr::RandomReplication;
    use ear_types::{ErasureParams, ReplicationConfig};

    fn cfg(n: usize, k: usize, c: usize) -> EarConfig {
        EarConfig::new(
            ErasureParams::new(n, k).unwrap(),
            ReplicationConfig::hdfs_default(),
            c,
        )
        .unwrap()
    }

    fn ear_stripe(
        topo: &ClusterTopology,
        cfg: &EarConfig,
        core: RackId,
        rng: &mut ChaCha8,
    ) -> StripePlan {
        let mut b = EarStripeBuilder::new(cfg, topo, core, rng).unwrap();
        while !b.is_full() {
            b.add_block(topo, cfg, rng).unwrap();
        }
        b.finish()
    }

    fn rr_stripe(topo: &ClusterTopology, cfg: &EarConfig, rng: &mut ChaCha8) -> StripePlan {
        let rr = RandomReplication::new(topo.clone(), cfg.replication()).unwrap();
        let layouts: Vec<BlockLayout> = (0..cfg.erasure().k())
            .map(|_| rr.place_block(rng))
            .collect();
        let retries = vec![0; layouts.len()];
        StripePlan::new(layouts, None, None, retries)
    }

    #[test]
    fn ear_plan_has_zero_cross_rack_downloads_and_no_relocation() {
        let topo = ClusterTopology::uniform(8, 4);
        let cfg = cfg(6, 4, 1);
        let mut rng = ChaCha8::from_seed(31);
        for trial in 0..30 {
            let stripe = ear_stripe(&topo, &cfg, RackId(trial % 8), &mut rng);
            let plan = plan_encoding_ear(&topo, &cfg, &stripe, &mut rng).unwrap();
            assert_eq!(plan.cross_rack_downloads(), 0);
            assert!(!plan.violated_rack_fault_tolerance());
            assert_eq!(
                plan.check_fault_tolerance(&topo, cfg.c()),
                None,
                "trial {trial}"
            );
            // The encoding node sits in the core rack.
            assert_eq!(topo.rack_of(plan.encoding_node), RackId(trial % 8));
        }
    }

    #[test]
    fn rr_plan_usually_needs_cross_rack_downloads() {
        let topo = ClusterTopology::uniform(10, 4);
        let cfg = cfg(6, 4, 1);
        let mut rng = ChaCha8::from_seed(32);
        let mut total_cross = 0usize;
        for _ in 0..50 {
            let stripe = rr_stripe(&topo, &cfg, &mut rng);
            let plan = plan_encoding_rr(&topo, &cfg, &stripe, &mut rng).unwrap();
            total_cross += plan.cross_rack_downloads();
            // Post-encode (with relocations applied) the stripe is valid.
            assert_eq!(plan.check_fault_tolerance(&topo, cfg.c()), None);
        }
        // Section II-B: expectation is k - 2k/R = 4 - 0.8 = 3.2 per stripe.
        let avg = total_cross as f64 / 50.0;
        assert!(avg > 2.0, "average cross-rack downloads {avg} too low");
    }

    #[test]
    fn rr_relocation_occurs_in_small_clusters() {
        // Section III-A: with few racks the probability of violating
        // rack-level fault tolerance is high, so relocations must appear.
        let topo = ClusterTopology::uniform(6, 6);
        let cfg = cfg(6, 4, 1);
        let mut rng = ChaCha8::from_seed(34);
        let mut relocated = 0usize;
        for _ in 0..100 {
            let stripe = rr_stripe(&topo, &cfg, &mut rng);
            let plan = plan_encoding_rr(&topo, &cfg, &stripe, &mut rng).unwrap();
            if plan.violated_rack_fault_tolerance() {
                relocated += 1;
            }
            assert_eq!(plan.check_fault_tolerance(&topo, cfg.c()), None);
        }
        assert!(
            relocated > 0,
            "expected some relocations in a 6-rack cluster"
        );
    }

    #[test]
    fn parity_respects_target_racks() {
        let topo = ClusterTopology::uniform(6, 6);
        let cfg = EarConfig::new(
            ErasureParams::new(6, 3).unwrap(),
            ReplicationConfig::hdfs_default(),
            3,
        )
        .unwrap()
        .with_target_racks(2)
        .unwrap();
        let mut rng = ChaCha8::from_seed(35);
        let stripe = ear_stripe(&topo, &cfg, RackId(4), &mut rng);
        let plan = plan_encoding_ear(&topo, &cfg, &stripe, &mut rng).unwrap();
        let targets = stripe.target_racks().unwrap();
        for &p in &plan.parity_nodes {
            assert!(targets.contains(&topo.rack_of(p)));
        }
        for &d in &plan.kept_data {
            assert!(targets.contains(&topo.rack_of(d)));
        }
        assert_eq!(plan.check_fault_tolerance(&topo, cfg.c()), None);
    }

    #[test]
    fn parity_placement_fails_when_capacity_exhausted() {
        // 3 racks, c = 1, (5,3): stripe needs 5 racks.
        let topo = ClusterTopology::uniform(3, 4);
        let mut spread = StripeSpread::of(&topo, 1, [NodeId(0), NodeId(4), NodeId(8)]);
        let mut rng = ChaCha8::from_seed(36);
        let err = place_parity(&mut spread, 2, None, &mut rng).unwrap_err();
        assert!(matches!(err, Error::TopologyTooSmall { .. }));
    }

    #[test]
    fn kept_replicas_are_actual_replicas() {
        let topo = ClusterTopology::uniform(8, 4);
        let cfg = cfg(6, 4, 1);
        let mut rng = ChaCha8::from_seed(37);
        let stripe = ear_stripe(&topo, &cfg, RackId(2), &mut rng);
        let plan = plan_encoding_ear(&topo, &cfg, &stripe, &mut rng).unwrap();
        for (i, &kept) in plan.kept_data.iter().enumerate() {
            assert!(stripe.data_layouts()[i].replicas.contains(&kept));
        }
    }
}
