//! Section III-D's trade-off: relaxing EAR's rack-level fault tolerance
//! (larger `c`, fewer target racks) keeps more of a stripe inside fewer
//! racks, cutting the cross-rack traffic of single-node failure recovery.
//! The paper discusses this analytically ("the other k−1 blocks need to be
//! downloaded from other racks"); this experiment measures it on the
//! mini-CFS by failing nodes and running real degraded reads.

use crate::{Scale, Table};
use ear_cluster::chaos::{run_heal_plan, HealSoakConfig};
use ear_cluster::{recover_node, ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear_types::{
    Bandwidth, ByteSize, EarConfig, ErasureParams, Error, NodeId, ReplicationConfig, Result,
};

/// One configuration's recovery measurements.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// `c` — stripe blocks allowed per rack.
    pub c: usize,
    /// Target racks, if restricted.
    pub target_racks: Option<usize>,
    /// Rack failures the encoded stripes tolerate.
    pub rack_failures_tolerated: usize,
    /// Fraction of recovery downloads that crossed racks.
    pub cross_rack_fraction: f64,
    /// Cross-rack bytes the recovery phase moved (netem reading — repair
    /// downloads, folded partials, and re-placement transfers alike).
    pub cross_rack_bytes: u64,
    /// Seed of the fault plan active during the runs (`None` = fault-free).
    pub fault_seed: Option<u64>,
}

/// An EAR cluster of `racks` × `nodes_per_rack` nodes with `stripes`
/// stripes written and encoded.
fn encoded_cluster(
    ear: EarConfig,
    racks: usize,
    nodes_per_rack: usize,
    stripes: usize,
) -> Result<MiniCfs> {
    let cfg = ClusterConfig {
        racks,
        nodes_per_rack,
        block_size: ByteSize::kib(64),
        node_bandwidth: Bandwidth::bytes_per_sec(512e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
        ear,
        policy: ClusterPolicy::Ear,
        seed: 30,
        store: ear_types::StoreBackend::from_env(),
        cache: ear_types::CacheConfig::from_env(),
        durability: ear_types::DurabilityConfig::default(),
        hedge_reads: true,
    };
    let cfs = MiniCfs::new(cfg)?;
    let nodes = cfs.topology().num_nodes() as u64;
    let mut i = 0u64;
    while cfs.namenode().pending_stripe_count() < stripes {
        let data = cfs.make_block(i);
        cfs.write_block(NodeId((i % nodes) as u32), data)?;
        i += 1;
    }
    RaidNode::encode_all(&cfs, 6)?;
    Ok(cfs)
}

/// Measures recovery traffic for one `(params, c, target_racks)` point.
///
/// # Errors
///
/// Propagates cluster failures.
pub fn measure(
    params: ErasureParams,
    c: usize,
    target_racks: Option<usize>,
    scale: Scale,
) -> Result<RecoveryPoint> {
    let mut ear = EarConfig::new(params, ReplicationConfig::hdfs_default(), c)?;
    if let Some(r) = target_racks {
        ear = ear.with_target_racks(r)?;
    }
    let cfs = encoded_cluster(ear, 6, 6, scale.pick(4, 30))?;

    let (mut cross, mut total) = (0usize, 0usize);
    let mut fault_seed = cfs.fault_seed();
    let before = cfs.network().snapshot();
    for es in cfs.namenode().encoded_stripes() {
        // An encoded stripe whose lead block has no registered location is
        // unrecoverable input, not a harness bug: report it as such.
        let block = es.data[0];
        let victim = cfs
            .namenode()
            .locations(block)
            .and_then(|locs| locs.first().copied())
            .ok_or(Error::BlockUnavailable { block })?;
        let stats = recover_node(&cfs, victim)?;
        cross += stats.cross_rack_downloads;
        total += stats.blocks_downloaded;
        fault_seed = fault_seed.or(stats.fault_seed);
    }
    let traffic = cfs.network().snapshot().delta(&before);
    Ok(RecoveryPoint {
        c,
        target_racks,
        rack_failures_tolerated: params.parity() / c,
        cross_rack_fraction: if total == 0 {
            0.0
        } else {
            cross as f64 / total as f64
        },
        cross_rack_bytes: traffic.cross_rack_bytes,
        fault_seed,
    })
}

/// Sweeps `c` and the target-rack restriction, rendering the trade-off
/// table.
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(&[
        "c",
        "target racks",
        "rack failures tolerated",
        "cross-rack recovery fraction",
        "cross-rack repair KiB",
    ]);
    let mut fault_seed = None;
    let params = ErasureParams::new(6, 3).expect("params"); // the Section III-D example code
    for (c, targets) in [(1usize, None), (2, None), (3, None), (3, Some(2))] {
        let p = measure(params, c, targets, scale).expect("recovery run");
        fault_seed = fault_seed.or(p.fault_seed);
        t.row_owned(vec![
            p.c.to_string(),
            p.target_racks.map_or("all".into(), |r| r.to_string()),
            p.rack_failures_tolerated.to_string(),
            format!("{:.2}", p.cross_rack_fraction),
            (p.cross_rack_bytes / 1024).to_string(),
        ]);
    }
    let mut out = format!(
        "Section III-D: rack fault tolerance vs cross-rack recovery traffic\n\
         ((6,3) erasure coding, 6 racks x 6 nodes; single-node failure recovery;\n\
         fault seed {})\n\n",
        crate::fault_seed_label(fault_seed),
    );
    out.push_str(&t.render());
    out.push_str(
        "\nLower c spreads the stripe over more racks (better rack fault tolerance,\n\
         more cross-rack recovery traffic); c = n - k with two target racks keeps\n\
         recovery almost entirely intra-rack at the cost of single-rack tolerance.\n\
         Repair folds every remote rack's chosen sources into one partial and\n\
         streams it down one chain of those racks (DESIGN.md 15). With (6,3),\n\
         decoding in the densest surviving rack leaves every remote rack at\n\
         most one chosen source (k < c + 2 for every c here), so the chain moves\n\
         the blocks a gather would; where that rack is full, decoding beside a\n\
         lone chosen source in a rack with room folds the dense rack instead and\n\
         saves the upload (c = 2). The section below uses a code where a rack\n\
         saves one.\n",
    );
    out.push('\n');
    out.push_str(&fold_section(scale));
    out.push('\n');
    out.push_str(&balance_section(scale));
    out.push('\n');
    out.push_str(&heal_section(scale));
    out
}

/// The rack-fold measurement: a (6,4) code at c = 2 held to three target
/// racks lays every stripe out 2+2+2, so a failure leaves the victim's rack
/// one survivor and the chosen k = 4 sources are two at the recovery site and
/// two in one remote rack — which ships one folded partial instead of two
/// shards, the aggregator reading its own off its disk. (Unrestricted, a
/// stripe may spread 2+1+1+1+1 and no rack saves a block;
/// which layout a seed draws would then decide the number.)
fn fold_section(scale: Scale) -> String {
    let params = ErasureParams::new(6, 4).expect("params");
    let p = measure(params, 2, Some(3), scale).expect("fold run");
    let mut t = Table::new(&["cross-rack recovery fraction", "cross-rack repair KiB"]);
    t.row_owned(vec![
        format!("{:.2}", p.cross_rack_fraction),
        (p.cross_rack_bytes / 1024).to_string(),
    ]);
    format!(
        "Rack-folded repair (DESIGN.md 15): (6,4) erasure coding, c = 2,\n\
         3 target racks, 6 racks x 6 nodes, single-node failure recovery\n\n{}\n\
         Each rebuilt stripe block needs k = 4 sources: two intra-rack at the\n\
         recovery site and two in one remote rack, folded there into a single\n\
         partial at the node that holds one of them — 1 of its 4 transfers\n\
         crosses racks, where shipping both shards whole would make it 2 of 4.\n\
         (The fraction also counts the victims' replicated blocks, re-copied\n\
         from one source each, and stripes an earlier repair already moved off\n\
         their three racks.)\n",
        t.render()
    )
}

/// The rack-balanced repair measurement (DESIGN.md §8): the paper's testbed
/// shape — (10,8) at c = 1 over 12 racks of one node — loses one node, and
/// the repair planner spreads the rebuilds' chains over the surviving links
/// before any byte moves.
fn balance_section(scale: Scale) -> String {
    let params = ErasureParams::new(10, 8).expect("params");
    let ear = EarConfig::new(params, ReplicationConfig::two_way(), 1).expect("(10,8) at c = 1");
    let cfs = encoded_cluster(ear, 12, 1, scale.pick(64, 125)).expect("testbed cluster");
    let stats = recover_node(&cfs, NodeId(0)).expect("recovery");
    let mut t = Table::new(&["blocks repaired", "link", "max legs", "mean legs", "max/mean"]);
    for (link, legs) in [("up", stats.up_links), ("down", stats.down_links)] {
        t.row_owned(vec![
            stats.blocks_recovered.to_string(),
            link.into(),
            legs.max.to_string(),
            format!("{:.1}", legs.mean),
            format!("{:.2}", legs.ratio()),
        ]);
    }
    format!(
        "Rack-balanced repair (DESIGN.md 8): (10,8) erasure coding, c = 1,\n\
         12 racks x 1 node, 2-way replication, node 0 fails\n\n{}\n\
         Every rebuild is planned before any byte moves: a recovery node whose\n\
         fold crosses racks as few times as any, the k survivors with the\n\
         least-loaded up-links, the most-received aggregator at the head of the\n\
         chain. Legs are the block-sized transfers the plan puts on each node's\n\
         up-link and down-link; the mean is over the nodes given any.\n",
        t.render()
    )
}

/// The self-healing companion measurement: seeded kill plans healed by the
/// background scheduler, reporting MTTR (detection + repair, in healer
/// rounds) and repair traffic per plan.
fn heal_section(scale: Scale) -> String {
    let plans = scale.pick(2, 8) as u64;
    let cfg = HealSoakConfig::default();
    let mut t = Table::new(&[
        "seed",
        "rounds",
        "MTTR (rounds)",
        "re-replicated",
        "reconstructed",
        "cross-rack repair KiB",
        "result",
    ]);
    for seed in 0..plans {
        match run_heal_plan(seed, &cfg) {
            Ok(r) => t.row_owned(vec![
                seed.to_string(),
                r.heal.rounds.to_string(),
                r.heal
                    .mttr_rounds
                    .map_or("-".into(), |m| m.to_string()),
                r.heal.blocks_re_replicated.to_string(),
                r.heal.shards_reconstructed.to_string(),
                (r.heal.cross_rack_repair_bytes / 1024).to_string(),
                if r.passed() { "healed".into() } else { "FAILED".into() },
            ]),
            Err(e) => t.row_owned(vec![
                seed.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("error: {e}"),
            ]),
        }
    }
    format!(
        "Self-healing MTTR ({} kills per plan, background healer; (6,4) RS,\n\
         8 racks x 3 nodes, 3-way replication)\n\n{}",
        cfg.kills,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_includes_heal_stats() {
        let out = run(Scale::Quick);
        assert!(out.contains("Self-healing MTTR"), "{out}");
        assert!(out.contains("healed"), "{out}");
        assert!(out.contains("cross-rack repair KiB"), "{out}");
    }

    #[test]
    fn tradeoff_direction_holds() {
        let params = ErasureParams::new(6, 3).unwrap();
        let tight = measure(params, 1, None, Scale::Quick).unwrap();
        let loose = measure(params, 3, Some(2), Scale::Quick).unwrap();
        assert_eq!(tight.rack_failures_tolerated, 3);
        assert_eq!(loose.rack_failures_tolerated, 1);
        assert!(
            loose.cross_rack_fraction < tight.cross_rack_fraction,
            "target racks should cut cross-rack recovery: {} !< {}",
            loose.cross_rack_fraction,
            tight.cross_rack_fraction
        );
    }

    #[test]
    fn dense_remote_rack_is_folded_into_one_partial() {
        // (6,4) at c = 2 over 3 target racks: the victim's rack keeps one
        // survivor, recovery sits in a dense rack (2 intra sources), and
        // the remaining two chosen sources share the other remote rack.
        // Folded, a rebuilt block costs 1 cross-rack transfer in 5; two
        // whole shards would be 2 in 4.
        let params = ErasureParams::new(6, 4).unwrap();
        let p = measure(params, 2, Some(3), Scale::Quick).unwrap();
        assert!(
            p.cross_rack_fraction < 0.5,
            "a folded rack must beat two whole shards: {}",
            p.cross_rack_fraction
        );
    }

    #[test]
    fn a_lost_testbed_node_spreads_its_rebuilds_over_the_links() {
        let out = balance_section(Scale::Quick);
        let ratios: Vec<f64> = out
            .lines()
            .filter(|line| line.contains(" up ") || line.contains(" down "))
            .filter_map(|line| line.split_whitespace().last()?.parse().ok())
            .collect();
        assert_eq!(ratios.len(), 2, "{out}");
        assert!(ratios.iter().all(|&r| (1.0..=1.10).contains(&r)), "{out}");
    }

    #[test]
    fn report_includes_fold_section() {
        let out = run(Scale::Quick);
        assert!(out.contains("Rack-folded repair"), "{out}");
    }
}
