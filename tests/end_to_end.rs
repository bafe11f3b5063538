//! End-to-end integration tests spanning the whole workspace through the
//! `ear` facade crate: placement → encoding plan → real Reed–Solomon bytes →
//! testbed emulator → discrete-event simulator, all telling the same story.

use ear::analysis::violation_probability;
use ear::cluster::{ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear::core::{EncodingAwareReplication, PlacementPolicy, RandomReplicationPolicy};
use ear::sim::{run as sim_run, PolicyKind, SimConfig};
use ear::types::rng::ChaCha8;
use ear::types::{
    Bandwidth, ByteSize, CacheConfig, ClusterTopology, EarConfig, ErasureParams, NodeId,
    ReplicationConfig, StoreBackend,
};

fn ear_cfg(n: usize, k: usize, c: usize) -> EarConfig {
    EarConfig::new(
        ErasureParams::new(n, k).unwrap(),
        ReplicationConfig::hdfs_default(),
        c,
    )
    .unwrap()
}

/// The paper's headline claim, across every layer: placement plans, the
/// byte-level testbed, and the simulator all agree that EAR eliminates
/// cross-rack downloads while RR performs nearly k per stripe.
#[test]
fn cross_rack_download_story_is_consistent_across_layers() {
    // Layer 1: placement plans.
    let topo = ClusterTopology::uniform(10, 4);
    let cfg = ear_cfg(6, 4, 1);
    let mut rng = ChaCha8::from_seed(1);
    let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
    let mut rr = RandomReplicationPolicy::new(cfg, topo.clone()).unwrap();
    let (mut ear_cross, mut rr_cross, mut stripes) = (0usize, 0usize, 0usize);
    for _ in 0..200 {
        if let Some(s) = ear.place_block(&mut rng).unwrap().sealed_stripe {
            ear_cross += ear
                .plan_encoding(&s, &mut rng)
                .unwrap()
                .cross_rack_downloads();
        }
        if let Some(s) = rr.place_block(&mut rng).unwrap().sealed_stripe {
            rr_cross += rr
                .plan_encoding(&s, &mut rng)
                .unwrap()
                .cross_rack_downloads();
            stripes += 1;
        }
    }
    assert_eq!(ear_cross, 0);
    // Section II-B: expectation k - 2k/R = 4 - 0.8 = 3.2 per stripe.
    let per_stripe = rr_cross as f64 / stripes as f64;
    assert!(
        per_stripe > 2.0,
        "RR cross-rack downloads too low: {per_stripe}"
    );

    // Layer 2: the simulator sees the same counts.
    let sim_cfg = SimConfig {
        racks: 10,
        nodes_per_rack: 4,
        erasure: ErasureParams::new(6, 4).unwrap(),
        encode_processes: 5,
        stripes_per_process: 4,
        write_rate: 0.0,
        background_rate: 0.0,
        ..SimConfig::default()
    };
    let sim_ear = sim_run(&sim_cfg.clone().with_policy(PolicyKind::Ear)).unwrap();
    let sim_rr = sim_run(&sim_cfg.with_policy(PolicyKind::Rr)).unwrap();
    assert_eq!(sim_ear.cross_rack_downloads, 0);
    assert!(sim_rr.cross_rack_downloads as f64 / 20.0 > 2.0);
}

/// Writing through the mini-CFS, encoding with the RaidNode, then failing
/// n - k nodes: the stripe must still reconstruct byte-for-byte.
#[test]
fn full_pipeline_survives_node_failures() {
    let cfg = ClusterConfig {
        racks: 8,
        nodes_per_rack: 2,
        block_size: ByteSize::kib(64),
        node_bandwidth: Bandwidth::bytes_per_sec(256e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(256e6),
        ear: EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap(),
        policy: ClusterPolicy::Ear,
        seed: 2,
        store: StoreBackend::from_env(),
        cache: CacheConfig::from_env(),
        durability: Default::default(),
        hedge_reads: true,
    };
    let cfs = MiniCfs::new(cfg).unwrap();
    let mut originals = Vec::new();
    let mut i = 0u64;
    while cfs.namenode().pending_stripe_count() < 2 {
        let data = cfs.make_block(i);
        originals.push(data.clone());
        cfs.write_block(NodeId((i % 16) as u32), data).unwrap();
        i += 1;
    }
    let (stats, relocations) = RaidNode::encode_all(&cfs, 4).unwrap();
    assert!(stats.stripes >= 2);
    assert!(relocations.is_empty());

    for es in cfs.namenode().encoded_stripes() {
        // Simulate losing the nodes holding the first data block and the
        // first parity block.
        let all: Vec<_> = es.data.iter().chain(es.parity.iter()).copied().collect();
        let mut shards: Vec<Option<Vec<u8>>> = all
            .iter()
            .map(|&b| {
                let loc = cfs.namenode().locations(b).unwrap()[0];
                cfs.datanode(loc).get(b).map(|d| d.to_vec())
            })
            .collect();
        shards[0] = None;
        shards[4] = None;
        cfs.codec().reconstruct(&mut shards).unwrap();
        for (j, &b) in es.data.iter().enumerate() {
            assert_eq!(
                shards[j].as_ref().unwrap(),
                &originals[b.0 as usize],
                "stripe {} data block {j} corrupted",
                es.id
            );
        }
    }
}

/// Storage accounting: after encoding, the cluster stores exactly
/// k + (n - k) blocks per stripe — the paper's storage-overhead motivation
/// (3x replication -> n/k).
#[test]
fn storage_overhead_drops_from_replication_to_erasure_coding() {
    let cfg = ClusterConfig {
        racks: 8,
        nodes_per_rack: 1,
        block_size: ByteSize::kib(64),
        node_bandwidth: Bandwidth::bytes_per_sec(256e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(256e6),
        ear: EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap(),
        policy: ClusterPolicy::Rr,
        seed: 3,
        store: StoreBackend::from_env(),
        cache: CacheConfig::from_env(),
        durability: Default::default(),
        hedge_reads: true,
    };
    let cfs = MiniCfs::new(cfg).unwrap();
    for i in 0..8u64 {
        let data = cfs.make_block(i);
        cfs.write_block(NodeId((i % 8) as u32), data).unwrap();
    }
    let block = ByteSize::kib(64).as_u64();
    let before: u64 = cfs.rack_storage().iter().sum();
    assert_eq!(before, 8 * 2 * block, "2x replication before encoding");
    RaidNode::encode_all(&cfs, 4).unwrap();
    let after: u64 = cfs.rack_storage().iter().sum();
    // 2 stripes x (4 data + 2 parity) blocks: 1.5x overhead.
    assert_eq!(after, 2 * 6 * block, "n/k overhead after encoding");
}

/// Equation (1) explains what the placement layer observes: in a small
/// cluster the preliminary-EAR-style violation rate is high, and complete
/// EAR eliminates it entirely.
#[test]
fn analysis_predictions_match_placement_behaviour() {
    // f is large for R = 14, k = 12 — the regime where EAR's matching step
    // matters most.
    assert!(violation_probability(14, 12) > 0.95);

    let topo = ClusterTopology::uniform(16, 4);
    let cfg = ear_cfg(16, 12, 1);
    let mut rng = ChaCha8::from_seed(4);
    let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
    let mut sealed = 0;
    for _ in 0..(12 * 20) {
        if let Some(s) = ear.place_block(&mut rng).unwrap().sealed_stripe {
            sealed += 1;
            let plan = ear.plan_encoding(&s, &mut rng).unwrap();
            assert!(plan.relocations.is_empty());
            assert_eq!(plan.check_fault_tolerance(&topo, 1), None);
        }
    }
    assert!(sealed > 0);
}

/// Determinism across the whole stack: same seed, same simulator results.
#[test]
fn facade_reexports_work_together() {
    let cfg = SimConfig {
        racks: 8,
        nodes_per_rack: 2,
        erasure: ErasureParams::new(6, 4).unwrap(),
        encode_processes: 2,
        stripes_per_process: 2,
        write_rate: 0.5,
        background_rate: 0.5,
        seed: 99,
        ..SimConfig::default()
    };
    let a = sim_run(&cfg).unwrap();
    let b = sim_run(&cfg).unwrap();
    assert_eq!(a.encode_completions, b.encode_completions);
    assert!(a.encoding_throughput() > 0.0);
}
