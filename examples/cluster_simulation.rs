//! Large-scale discrete-event simulation (Experiment B.2 in miniature):
//! a 20-rack × 20-node CFS encoding stripes while serving write and
//! background traffic, comparing RR and EAR across erasure parameters.
//!
//! Run with `cargo run --release --example cluster_simulation`.

use ear::core::ClusterPolicy;
use ear::sim::{run, SimConfig};
use ear::types::ErasureParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("20 racks x 20 nodes, 1 Gb/s links, 64 MiB blocks, writes + background at 1 req/s");
    println!("500 stripes per run over 20 encoding processes, 3 seeds averaged\n");
    println!(
        "{:<8} {:>12} {:>12} {:>8}   {:>12} {:>12} {:>8}",
        "(n,k)", "RR enc MB/s", "EAR enc MB/s", "gain", "RR wr MB/s", "EAR wr MB/s", "gain"
    );
    for (n, k) in [(10usize, 6usize), (12, 8), (14, 10), (16, 12)] {
        let base = SimConfig {
            erasure: ErasureParams::new(n, k)?,
            encode_processes: 20,
            stripes_per_process: 25,
            ..SimConfig::default()
        };
        let (mut rr_e, mut ear_e, mut rr_w, mut ear_w) = (0.0, 0.0, 0.0, 0.0);
        let seeds = 3;
        for seed in 0..seeds {
            let rr = run(&base.clone().with_policy(ClusterPolicy::Rr).with_seed(seed))?;
            let ear = run(&base.clone().with_policy(ClusterPolicy::Ear).with_seed(seed))?;
            rr_e += rr.encoding_throughput() / seeds as f64;
            ear_e += ear.encoding_throughput() / seeds as f64;
            rr_w += rr.write_throughput_during_encoding() / seeds as f64;
            ear_w += ear.write_throughput_during_encoding() / seeds as f64;
        }
        println!(
            "({n:>2},{k:>2})  {rr_e:>12.1} {ear_e:>12.1} {:>7.1}%   {rr_w:>12.1} {ear_w:>12.1} {:>7.1}%",
            (ear_e / rr_e - 1.0) * 100.0,
            (ear_w / rr_w - 1.0) * 100.0,
        );
    }
    println!("\nThe paper's Fig. 13 reports ~70% encoding and ~20-35% write gains at (14,10).");
    Ok(())
}
