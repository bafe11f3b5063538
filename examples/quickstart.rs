//! Quickstart: place a stripe with encoding-aware replication, plan its
//! encoding, and verify the paper's two guarantees — zero cross-rack
//! downloads and no post-encoding relocation — then actually erasure-code
//! some bytes.
//!
//! Run with `cargo run --release --example quickstart`.

use ear::core::{EncodingAwareReplication, PlacementPolicy};
use ear::erasure::ReedSolomon;
use ear::types::rng::ChaCha8;
use ear::types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 40-node CFS: 10 racks x 4 nodes (Fig. 1's architecture).
    let topo = ClusterTopology::uniform(10, 4);

    // (6, 4) erasure coding over 3-way replicated blocks; at most c = 1
    // block of a stripe per rack, i.e. tolerate n - k = 2 rack failures.
    let params = ErasureParams::new(6, 4)?;
    let cfg = EarConfig::new(params, ReplicationConfig::hdfs_default(), 1)?;

    let mut ear = EncodingAwareReplication::new(cfg, topo.clone());
    let mut rng = ChaCha8::from_seed(2015);

    // Write blocks until the pre-encoding store seals a stripe.
    let stripe = loop {
        if let Some(stripe) = ear.place_block(&mut rng)?.sealed_stripe {
            break stripe;
        }
    };
    let core = stripe.core_rack().expect("EAR stripes have a core rack");
    println!(
        "sealed a stripe of {} blocks, core {core}",
        stripe.num_blocks()
    );
    for (i, layout) in stripe.data_layouts().iter().enumerate() {
        println!("  block {i}: replicas on {:?}", layout.replicas);
    }

    // Plan the encoding operation.
    let plan = ear.plan_encoding(&stripe, &mut rng)?;
    println!("\nencoding node: {} (in the core rack)", plan.encoding_node);
    println!("cross-rack downloads: {}", plan.cross_rack_downloads());
    println!("relocations needed:  {}", plan.relocations.len());
    println!("kept data replicas:  {:?}", plan.kept_data);
    println!("parity destinations: {:?}", plan.parity_nodes);
    assert_eq!(plan.cross_rack_downloads(), 0, "the EAR guarantee");
    assert!(plan.relocations.is_empty(), "the EAR guarantee");
    assert_eq!(
        plan.check_fault_tolerance(&topo, cfg.c()),
        None,
        "post-encoding layout satisfies node- and rack-level fault tolerance"
    );

    // And the stripe really is erasure-coded: encode 4 data blocks, lose
    // any 2 of the 6, reconstruct.
    let rs = ReedSolomon::new(params);
    let data: Vec<Vec<u8>> = (0..4).map(|i| vec![0x40 + i as u8; 1024]).collect();
    let parity = rs.encode(&data)?;
    let mut shards: Vec<Option<Vec<u8>>> = data
        .iter()
        .cloned()
        .map(Some)
        .chain(parity.into_iter().map(Some))
        .collect();
    shards[0] = None; // lose a data block
    shards[5] = None; // and a parity block
    rs.reconstruct(&mut shards)?;
    assert_eq!(shards[0].as_deref(), Some(data[0].as_slice()));
    println!("\nreconstructed 2 lost blocks out of a (6,4) stripe — all good");
    Ok(())
}
