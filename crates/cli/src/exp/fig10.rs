//! Figure 10 (Experiment A.3): impact of the placement policy on MapReduce
//! performance *before* encoding — the number of completed jobs over time
//! should be nearly identical for RR and EAR.

use crate::{Scale, Table};
use ear_cluster::workloads::SwimGenerator;
use ear_cluster::{mapreduce, ClusterConfig, ClusterPolicy, MiniCfs};
use ear_types::rng::ChaCha8;
use ear_types::{Bandwidth, ByteSize, EarConfig, ErasureParams, ReplicationConfig, Result};

/// Replays the workload for one policy; returns per-job completion offsets
/// (seconds), sorted.
///
/// # Errors
///
/// Propagates cluster failures.
pub fn measure(policy: ClusterPolicy, scale: Scale, seed: u64) -> Result<Vec<f64>> {
    let ear = EarConfig::new(ErasureParams::new(10, 8)?, ReplicationConfig::two_way(), 1)?;
    let cfg = ClusterConfig {
        racks: 12,
        nodes_per_rack: 1,
        block_size: ByteSize::kib(256),
        node_bandwidth: Bandwidth::bytes_per_sec(256e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(256e6),
        ear,
        policy,
        seed,
        store: ear_types::StoreBackend::from_env(),
        cache: ear_types::CacheConfig::from_env(),
        durability: ear_types::DurabilityConfig::default(),
        hedge_reads: true,
    };
    let cfs = MiniCfs::new(cfg)?;

    let mut gen = SwimGenerator::miniature();
    gen.max_bytes = scale.pick(1, 8) * 1024 * 1024;
    let jobs = gen.generate(scale.pick(10, 50), &mut ChaCha8::from_seed(seed));
    let inputs = mapreduce::prepare_inputs(&cfs, &jobs)?;
    let results = mapreduce::run_jobs(&cfs, &jobs, &inputs, 4, scale.pick(0.02, 0.2))?;
    Ok(results.into_iter().map(|r| r.finish).collect())
}

/// Runs both policies and renders completed-jobs-vs-time rows.
pub fn run(scale: Scale) -> String {
    let rr = measure(ClusterPolicy::Rr, scale, 21).expect("rr run");
    let ear = measure(ClusterPolicy::Ear, scale, 21).expect("ear run");
    let total = rr.len();
    let mut out = format!(
        "Figure 10 (Experiment A.3): MapReduce jobs completed over time ({total} SWIM-like jobs)\n\n"
    );
    let mut t = Table::new(&["completed", "RR t (s)", "EAR t (s)"]);
    let quartiles = [total / 4, total / 2, 3 * total / 4, total];
    for q in quartiles {
        let idx = q.saturating_sub(1);
        t.row_owned(vec![
            q.to_string(),
            format!("{:.2}", rr[idx]),
            format!("{:.2}", ear[idx]),
        ]);
    }
    out.push_str(&t.render());
    let makespan_delta = (ear[total - 1] / rr[total - 1] - 1.0) * 100.0;
    out.push_str(&format!(
        "\nEAR's makespan differs from RR's by {makespan_delta:+.1}% \
         (the paper observes near-identical curves).\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_policies_complete_all_jobs_in_similar_time() {
        let rr = measure(ClusterPolicy::Rr, Scale::Quick, 4).unwrap();
        let ear = measure(ClusterPolicy::Ear, Scale::Quick, 4).unwrap();
        assert_eq!(rr.len(), 10);
        assert_eq!(ear.len(), 10);
        let ratio = ear[9] / rr[9];
        assert!(
            (0.5..2.0).contains(&ratio),
            "makespans diverge: RR {} vs EAR {}",
            rr[9],
            ear[9]
        );
    }
}
