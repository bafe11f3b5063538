//! Load-balancing analysis (Experiments C.1/C.2 in miniature): shows that
//! EAR's placement constraints do not skew per-rack storage or read load
//! relative to random replication, and validates Theorem 1's retry bound.
//!
//! Run with `cargo run --release --example load_balancing`.

use ear::analysis::{
    max_rank_difference, measure_iterations, read_hotness, storage_distribution, theorem1_bound,
};
use ear::core::{EncodingAwareReplication, PlacementPolicy, RandomReplicationPolicy};
use ear::types::rng::ChaCha8;
use ear::types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = ClusterTopology::uniform(20, 20);
    let cfg = EarConfig::new(
        ErasureParams::new(14, 10)?,
        ReplicationConfig::hdfs_default(),
        1,
    )?;
    let mut rng = ChaCha8::from_seed(7);

    // Storage balance (Fig. 14): replica share of the most/least loaded rack.
    let t = topo.clone();
    let c = cfg;
    let rr = storage_distribution(
        move || {
            Box::new(RandomReplicationPolicy::new(c, t.clone()).expect("valid"))
                as Box<dyn PlacementPolicy>
        },
        &topo,
        2_000,
        50,
        &mut rng,
    )?;
    let t = topo.clone();
    let ear = storage_distribution(
        move || Box::new(EncodingAwareReplication::new(c, t.clone())) as Box<dyn PlacementPolicy>,
        &topo,
        2_000,
        50,
        &mut rng,
    )?;
    println!("storage balance over 20 racks (replica share, most -> least loaded):");
    println!("  RR : {:.2}% .. {:.2}%", rr[0], rr[19]);
    println!("  EAR: {:.2}% .. {:.2}%", ear[0], ear[19]);
    println!(
        "  max per-rank difference: {:.3} percentage points\n",
        max_rank_difference(&rr, &ear)
    );

    // Read balance (Fig. 15): hotness index vs file size.
    println!("read hotness index H (lower = better balanced):");
    for file_blocks in [10usize, 100, 1_000] {
        let t = topo.clone();
        let h_rr = read_hotness(
            move || {
                Box::new(RandomReplicationPolicy::new(c, t.clone()).expect("valid"))
                    as Box<dyn PlacementPolicy>
            },
            &topo,
            file_blocks,
            30,
            &mut rng,
        )?;
        let t = topo.clone();
        let h_ear = read_hotness(
            move || {
                Box::new(EncodingAwareReplication::new(c, t.clone())) as Box<dyn PlacementPolicy>
            },
            &topo,
            file_blocks,
            30,
            &mut rng,
        )?;
        println!("  {file_blocks:>5} blocks: RR {h_rr:5.2}%  EAR {h_ear:5.2}%");
    }

    // Theorem 1: measured retry iterations vs the analytical bound.
    println!("\nTheorem 1 (R = 20, c = 1, k = 10): layout-generation iterations per block:");
    let measured = measure_iterations(&c, &topo, 300, &mut rng)?;
    for (i, m) in measured.iter().enumerate() {
        println!(
            "  block {:>2}: measured {:.3}  bound {:.3}",
            i + 1,
            m,
            theorem1_bound(20, 1, i + 1)
        );
    }
    Ok(())
}
