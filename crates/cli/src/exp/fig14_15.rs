//! Figures 14–15 (Experiments C.1–C.2): load-balancing analysis — EAR's
//! per-rack storage distribution and read hotness index must match RR's.

use crate::{Scale, Table};
use ear_analysis::{max_rank_difference, read_hotness, storage_distribution};
use ear_core::{ClusterPolicy, PlacementPolicy};
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};

fn cfg() -> EarConfig {
    EarConfig::new(
        ErasureParams::new(14, 10).expect("valid"),
        ReplicationConfig::hdfs_default(),
        1,
    )
    .expect("valid")
}

fn topo() -> ClusterTopology {
    ClusterTopology::uniform(20, 20)
}

/// A fresh `policy` over `t`, for each Monte Carlo run.
fn maker(policy: ClusterPolicy, t: &ClusterTopology) -> Box<dyn PlacementPolicy> {
    policy.build(cfg(), t.clone()).expect("valid")
}

/// Figure 14: proportion of replicas per rack (racks ranked by load),
/// averaged over Monte Carlo runs.
pub fn run_storage(scale: Scale) -> String {
    let blocks = scale.pick(1_000, 10_000);
    let runs = scale.pick(20, 1_000);
    let t = topo();
    let mut rng = ChaCha8::from_seed(14);
    let mut balance = |policy| {
        storage_distribution(|| maker(policy, &t), &t, blocks, runs, &mut rng).expect("balance")
    };
    let (rr, ear) = (balance(ClusterPolicy::Rr), balance(ClusterPolicy::Ear));

    let mut out = format!(
        "Figure 14 (Experiment C.1): storage load balancing — {blocks} blocks, \
         {runs} runs, 20 racks x 20 nodes, (14,10)\n\n"
    );
    let mut table = Table::new(&["rack rank", "RR %", "EAR %"]);
    for i in 0..t.num_racks() {
        table.row_owned(vec![
            (i + 1).to_string(),
            format!("{:.3}", rr[i]),
            format!("{:.3}", ear[i]),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nmax per-rank difference: {:.3} percentage points \
         (paper: both within 4.5%-5.5%)\n",
        max_rank_difference(&rr, &ear)
    ));
    out
}

/// Figure 15: hotness index `H` versus file size.
pub fn run_hotness(scale: Scale) -> String {
    let runs = scale.pick(10, 200);
    let sizes = scale.pick(
        vec![1usize, 10, 100, 1_000],
        vec![1, 10, 100, 1_000, 10_000],
    );
    let t = topo();
    let mut rng = ChaCha8::from_seed(15);
    let mut out = format!(
        "Figure 15 (Experiment C.2): read load balancing — hotness index H, {runs} runs\n\n"
    );
    let mut table = Table::new(&["file size (blocks)", "RR H %", "EAR H %"]);
    for &f in &sizes {
        let mut hotness =
            |policy| read_hotness(|| maker(policy, &t), &t, f, runs, &mut rng).expect("hotness");
        let (rr, ear) = (hotness(ClusterPolicy::Rr), hotness(ClusterPolicy::Ear));
        table.row_owned(vec![f.to_string(), format!("{rr:.2}"), format!("{ear:.2}")]);
    }
    out.push_str(&table.render());
    out.push_str("\nH falls toward the uniform 5% as files grow; RR and EAR track closely.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_report_shows_all_racks() {
        let s = run_storage(Scale::Quick);
        assert!(s.contains("Figure 14"));
        assert!(s.lines().any(|l| l.trim_start().starts_with("20 ")));
        assert!(s.contains("max per-rank difference"));
    }

    #[test]
    fn hotness_report_covers_sizes() {
        let s = run_hotness(Scale::Quick);
        assert!(s.contains("Figure 15"));
        assert!(s
            .lines()
            .any(|l| l.trim_start().starts_with("1000") || l.trim_start().starts_with("1_000")));
    }
}
