//! Failure recovery after the transition to erasure coding: write, encode,
//! fail a node, and rebuild its blocks with degraded reads — demonstrating
//! the Section III-D trade-off between rack fault tolerance and cross-rack
//! recovery traffic.
//!
//! Run with `cargo run --release --example degraded_read`.

use ear::cluster::{recover_node, ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear::types::{
    Bandwidth, ByteSize, CacheConfig, EarConfig, ErasureParams, NodeId, ReplicationConfig,
    StoreBackend,
};

fn run_config(c: usize, target_racks: Option<usize>) -> Result<(), Box<dyn std::error::Error>> {
    let params = ErasureParams::new(6, 3)?;
    let mut ear = EarConfig::new(params, ReplicationConfig::hdfs_default(), c)?;
    if let Some(r) = target_racks {
        ear = ear.with_target_racks(r)?;
    }
    let cfg = ClusterConfig {
        racks: 6,
        nodes_per_rack: 6,
        block_size: ByteSize::kib(256),
        node_bandwidth: Bandwidth::bytes_per_sec(256e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(256e6),
        ear,
        policy: ClusterPolicy::Ear,
        seed: 42,
        store: StoreBackend::from_env(),
        cache: CacheConfig::from_env(),
        durability: Default::default(),
        reliability: Default::default(),
    };
    let cfs = MiniCfs::new(cfg)?;

    // Write and encode a handful of stripes.
    let mut i = 0u64;
    while cfs.namenode().pending_stripe_count() < 6 {
        let data = cfs.make_block(i);
        cfs.write_block(NodeId((i % 36) as u32), data)?;
        i += 1;
    }
    RaidNode::encode_all(&cfs, 6)?;

    // Fail the node holding the first stripe's first data block.
    let stripes = cfs.namenode().encoded_stripes();
    let victim = cfs.namenode().locations(stripes[0].data[0]).expect("registered")[0];
    let stats = recover_node(&cfs, victim)?;

    // The rebuilt blocks are byte-identical to the originals.
    for es in &stripes {
        for &b in &es.data {
            let loc = cfs.namenode().locations(b).expect("registered")[0];
            let bytes = cfs.datanode(loc).get(b).expect("present");
            assert_eq!(
                bytes.as_slice(),
                cfs.make_block(b.0).as_slice(),
                "{b} corrupted"
            );
        }
    }

    println!(
        "c = {c}, target racks = {:>3}: tolerates {} rack failures | \
         recovered {} blocks via {} downloads, {:.0}% cross-rack",
        target_racks.map_or("all".to_string(), |r| r.to_string()),
        params.parity() / c,
        stats.blocks_recovered,
        stats.blocks_downloaded,
        100.0 * stats.cross_rack_downloads as f64 / stats.blocks_downloaded.max(1) as f64,
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Degraded reads after a node failure, (6,3) over 6 racks x 6 nodes:\n");
    run_config(1, None)?; // strict: n-k rack failures, recovery mostly cross-rack
    run_config(3, None)?; // relaxed: 1 rack failure, recovery mostly intra-rack
    run_config(3, Some(2))?; // two target racks: recovery almost all intra-rack
    println!("\nSection III-D's trade-off: rack fault tolerance vs recovery locality.");
    Ok(())
}
