//! Theorem 1 of the paper: the expected number of layout-generation
//! iterations EAR needs per data block, and an empirical estimator that
//! validates the bound against the real algorithm.

use ear_core::EarStripeBuilder;
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, RackId, Result};

/// Theorem 1's upper bound on `E_i`, the expected number of iterations that
/// finds a qualified replica layout for the `i`-th data block (1-indexed)
/// under 3-way replication with `R` racks and rack capacity `c`:
///
/// ```text
/// E_i <= [ 1 - ceil((i-1)/c) / (R-1) ]^{-1}
/// ```
///
/// ```
/// use ear_analysis::theorem1_bound;
/// // The paper's remark: R = 20, c = 1, k = 10 -> E_k <= 19/10 = 1.9.
/// assert!((theorem1_bound(20, 1, 10) - 1.9).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the bound's denominator is non-positive (the topology cannot
/// host the stripe: `ceil((i-1)/c) >= R-1`).
pub fn theorem1_bound(r: usize, c: usize, i: usize) -> f64 {
    assert!(r >= 2 && c >= 1 && i >= 1);
    let full_racks = (i - 1).div_ceil(c);
    let denom = (r - 1) as f64 - full_racks as f64;
    assert!(
        denom > 0.0,
        "topology cannot host block {i} with c={c}, R={r}"
    );
    (r - 1) as f64 / denom
}

/// Empirical mean iteration counts per block index, measured by running the
/// real EAR stripe builder `trials` times: `result[i]` is the average number
/// of layout generations (1 = first try succeeded) for the `(i+1)`-th block.
///
/// # Errors
///
/// Propagates placement failures from the builder.
pub fn measure_iterations(
    cfg: &EarConfig,
    topo: &ClusterTopology,
    trials: usize,
    rng: &mut ChaCha8,
) -> Result<Vec<f64>> {
    let k = cfg.erasure().k();
    let mut sums = vec![0.0f64; k];
    for t in 0..trials {
        let core = RackId((t % topo.num_racks()) as u32);
        let mut builder = EarStripeBuilder::new(cfg, topo, core, rng)?;
        while !builder.is_full() {
            builder.add_block(topo, cfg, rng)?;
        }
        for (i, &retries) in builder.finish().retries().iter().enumerate() {
            sums[i] += (retries + 1) as f64; // iterations = retries + 1
        }
    }
    Ok(sums.into_iter().map(|s| s / trials as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::{ErasureParams, ReplicationConfig};

    #[test]
    fn bound_matches_paper_remarks() {
        // k = 12, R = 20, c = 1: E_k <= 19/8 = 2.375.
        assert!((theorem1_bound(20, 1, 12) - 19.0 / 8.0).abs() < 1e-12);
        // First block always succeeds immediately.
        assert_eq!(theorem1_bound(20, 1, 1), 1.0);
    }

    #[test]
    fn bound_relaxes_with_larger_c() {
        let tight = theorem1_bound(20, 1, 10);
        let loose = theorem1_bound(20, 2, 10);
        assert!(loose < tight);
    }

    #[test]
    fn empirical_iterations_respect_the_bound() {
        let topo = ClusterTopology::uniform(20, 10);
        let cfg = EarConfig::new(
            ErasureParams::new(14, 10).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap();
        let mut rng = ChaCha8::from_seed(23);
        let measured = measure_iterations(&cfg, &topo, 300, &mut rng).unwrap();
        assert_eq!(measured.len(), 10);
        for (i, &e) in measured.iter().enumerate() {
            let bound = theorem1_bound(20, 1, i + 1);
            // Allow modest sampling slack above the theoretical bound.
            assert!(
                e <= bound * 1.25 + 0.05,
                "E_{} = {e} exceeds bound {bound}",
                i + 1
            );
            assert!(e >= 1.0);
        }
        // Iterations grow with i (later blocks face more full racks).
        assert!(measured[9] >= measured[0]);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn impossible_topology_panics() {
        let _ = theorem1_bound(5, 1, 6);
    }
}
