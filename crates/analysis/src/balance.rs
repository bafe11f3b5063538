//! Load-balancing analysis (Section V-C): does EAR's constrained placement
//! still spread replicas — and therefore storage and read load — as evenly
//! as random replication?

use ear_core::{PlacementPolicy, StripePlan};
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, Result};

/// Per-rack replica proportions from placing `blocks` blocks with a policy,
/// averaged over `runs` Monte Carlo rounds: `result[j]` is the average
/// proportion (in percent) of replicas landing in the rack of rank `j` when
/// racks are sorted by descending load (Fig. 14's y-axis).
///
/// # Errors
///
/// Propagates placement failures.
pub fn storage_distribution(
    make_policy: impl Fn() -> Box<dyn PlacementPolicy>,
    topo: &ClusterTopology,
    blocks: usize,
    runs: usize,
    rng: &mut ChaCha8,
) -> Result<Vec<f64>> {
    let racks = topo.num_racks();
    let mut avg = vec![0.0f64; racks];
    for _ in 0..runs {
        let mut policy = make_policy();
        let mut counts = vec![0usize; racks];
        let mut total = 0usize;
        for _ in 0..blocks {
            let placed = policy.place_block(rng)?;
            for &node in &placed.layout.replicas {
                counts[topo.rack_of(node).index()] += 1;
                total += 1;
            }
        }
        let mut props: Vec<f64> = counts
            .iter()
            .map(|&c| 100.0 * c as f64 / total as f64)
            .collect();
        props.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        for (slot, p) in avg.iter_mut().zip(props) {
            *slot += p;
        }
    }
    for a in &mut avg {
        *a /= runs as f64;
    }
    Ok(avg)
}

/// The hotness index `H` of Experiment C.2: place a file of `file_blocks`
/// blocks, assume every block is read equally often and each read goes to a
/// uniformly chosen rack holding a replica; `H = max_i L(i)` where `L(i)` is
/// the expected proportion of reads served by rack `i`. Returned averaged
/// over `runs` placements (as a percentage).
///
/// # Errors
///
/// Propagates placement failures.
pub fn read_hotness(
    make_policy: impl Fn() -> Box<dyn PlacementPolicy>,
    topo: &ClusterTopology,
    file_blocks: usize,
    runs: usize,
    rng: &mut ChaCha8,
) -> Result<f64> {
    let racks = topo.num_racks();
    let mut total_h = 0.0f64;
    for _ in 0..runs {
        let mut policy = make_policy();
        let mut load = vec![0.0f64; racks];
        for _ in 0..file_blocks {
            let placed = policy.place_block(rng)?;
            let mut rack_hit = vec![false; racks];
            for &node in &placed.layout.replicas {
                rack_hit[topo.rack_of(node).index()] = true;
            }
            let span = rack_hit.iter().filter(|&&h| h).count() as f64;
            for (i, hit) in rack_hit.iter().enumerate() {
                if *hit {
                    load[i] += 1.0 / span;
                }
            }
        }
        let h = load.iter().fold(0.0f64, |m, &l| m.max(l)) / file_blocks as f64;
        total_h += h * 100.0;
    }
    Ok(total_h / runs as f64)
}

/// Relative imbalance between two sorted distributions: the maximum absolute
/// difference between per-rank proportions. Used to assert that EAR's curve
/// tracks RR's (Fig. 14 shows them within a fraction of a percent).
pub fn max_rank_difference(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Collects the stripes a policy seals while placing `blocks` blocks — a
/// helper for experiments that need both the layouts and the seals.
///
/// # Errors
///
/// Propagates placement failures.
pub fn place_and_collect(
    policy: &mut dyn PlacementPolicy,
    blocks: usize,
    rng: &mut ChaCha8,
) -> Result<Vec<StripePlan>> {
    let mut sealed = Vec::new();
    for _ in 0..blocks {
        if let Some(plan) = policy.place_block(rng)?.sealed_stripe {
            sealed.push(plan);
        }
    }
    Ok(sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_core::{EncodingAwareReplication, RandomReplicationPolicy};
    use ear_types::{EarConfig, ErasureParams, ReplicationConfig};

    fn cfg() -> EarConfig {
        EarConfig::new(
            ErasureParams::new(14, 10).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap()
    }

    fn topo() -> ClusterTopology {
        ClusterTopology::uniform(20, 20)
    }

    #[test]
    fn distributions_sum_to_one_hundred_and_sort_descending() {
        let t = topo();
        let mut rng = ChaCha8::from_seed(31);
        let t2 = t.clone();
        let dist = storage_distribution(
            move || Box::new(RandomReplicationPolicy::new(cfg(), t2.clone()).unwrap()),
            &t,
            500,
            5,
            &mut rng,
        )
        .unwrap();
        let sum: f64 = dist.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        for w in dist.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn ear_matches_rr_storage_balance() {
        // Experiment C.1's claim: both policies land between roughly 4.5%
        // and 5.5% per rack on 20 racks.
        let t = topo();
        let mut rng = ChaCha8::from_seed(32);
        let t_rr = t.clone();
        let rr = storage_distribution(
            move || Box::new(RandomReplicationPolicy::new(cfg(), t_rr.clone()).unwrap()),
            &t,
            1000,
            10,
            &mut rng,
        )
        .unwrap();
        let t_ear = t.clone();
        let ear = storage_distribution(
            move || Box::new(EncodingAwareReplication::new(cfg(), t_ear.clone())),
            &t,
            1000,
            10,
            &mut rng,
        )
        .unwrap();
        let diff = max_rank_difference(&rr, &ear);
        assert!(
            diff < 0.5,
            "EAR diverges from RR by {diff} percentage points"
        );
        for &p in rr.iter().chain(&ear) {
            assert!((4.0..6.5).contains(&p), "proportion {p} out of range");
        }
    }

    #[test]
    fn hotness_decreases_with_file_size() {
        let t = topo();
        let mut rng = ChaCha8::from_seed(33);
        let mk = {
            let t = t.clone();
            move || -> Box<dyn PlacementPolicy> {
                Box::new(EncodingAwareReplication::new(cfg(), t.clone()))
            }
        };
        let h_small = read_hotness(&mk, &t, 10, 10, &mut rng).unwrap();
        let h_large = read_hotness(&mk, &t, 1000, 5, &mut rng).unwrap();
        assert!(
            h_small > h_large,
            "hotness should fall with file size: {h_small} vs {h_large}"
        );
        // A large file approaches uniform 5% per rack.
        assert!(h_large < 8.0);
    }

    #[test]
    fn hotness_similar_between_policies() {
        let t = topo();
        let mut rng = ChaCha8::from_seed(34);
        let t_rr = t.clone();
        let rr = read_hotness(
            move || {
                Box::new(RandomReplicationPolicy::new(cfg(), t_rr.clone()).unwrap())
                    as Box<dyn PlacementPolicy>
            },
            &t,
            200,
            10,
            &mut rng,
        )
        .unwrap();
        let t_ear = t.clone();
        let ear = read_hotness(
            move || {
                Box::new(EncodingAwareReplication::new(cfg(), t_ear.clone()))
                    as Box<dyn PlacementPolicy>
            },
            &t,
            200,
            10,
            &mut rng,
        )
        .unwrap();
        assert!(
            (rr - ear).abs() < 1.5,
            "hotness differs: RR {rr}% vs EAR {ear}%"
        );
    }

    #[test]
    fn place_and_collect_returns_sealed_stripes() {
        let t = topo();
        let mut rng = ChaCha8::from_seed(35);
        let mut policy = RandomReplicationPolicy::new(cfg(), t).unwrap();
        let sealed = place_and_collect(&mut policy, 35, &mut rng).unwrap();
        assert_eq!(sealed.len(), 3); // k = 10
    }
}
