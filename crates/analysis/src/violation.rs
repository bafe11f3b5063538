//! Equation (1) of the paper: the probability that a stripe placed by the
//! *preliminary* EAR (core rack + unconstrained random second rack per
//! block) violates rack-level fault tolerance and would need relocation.

use ear_types::rng::ChaCha8;

/// Falling factorial `n · (n-1) · … · (n-k+1)` as `f64`.
fn falling_factorial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    (0..k).fold(1.0, |acc, i| acc * (n - i) as f64)
}

/// Equation (1): the probability `f` that a stripe of `k` data blocks,
/// placed by the preliminary EAR over `R` racks with 3-way replication
/// (second and third replicas together in one random non-core rack),
/// violates rack-level fault tolerance after encoding.
///
/// The stripe is safe iff the `k` chosen non-core racks are all distinct, or
/// exactly two blocks share a rack:
///
/// ```text
/// f = 1 - [ C(R-1, k)·k! + C(k,2)·C(R-1, k-1)·(k-1)! ] / (R-1)^k
/// ```
///
/// ```
/// use ear_analysis::violation_probability;
/// // Fig. 3: k = 12, R = 16 gives ~0.97.
/// let f = violation_probability(16, 12);
/// assert!((f - 0.97).abs() < 0.01);
/// // Violations vanish as R grows.
/// assert!(violation_probability(200, 12) < 0.3);
/// ```
///
/// # Panics
///
/// Panics if `R < 2` or `k == 0`.
pub fn violation_probability(r: usize, k: usize) -> f64 {
    assert!(r >= 2, "need at least two racks");
    assert!(k >= 1, "need at least one data block");
    let m = r - 1; // non-core racks
    let total = (m as f64).powi(k as i32);
    // All k distinct: C(m, k) · k! = falling factorial.
    let all_distinct = falling_factorial(m, k);
    // Exactly one coincidence: choose the pair of blocks sharing a rack,
    // then an injective assignment of k-1 racks.
    let one_pair = if k >= 2 {
        (k * (k - 1) / 2) as f64 * falling_factorial(m, k - 1)
    } else {
        0.0
    };
    (1.0 - (all_distinct + one_pair) / total).clamp(0.0, 1.0)
}

/// Monte Carlo estimate of the same probability, by directly simulating the
/// preliminary EAR's random rack choices: each of `k` blocks picks one of
/// `R-1` non-core racks; the stripe is safe iff at most one pair collides
/// (at least `k-1` distinct racks are hit).
pub fn violation_probability_monte_carlo(
    r: usize,
    k: usize,
    trials: usize,
    rng: &mut ChaCha8,
) -> f64 {
    assert!(r >= 2 && k >= 1 && trials > 0);
    let m = r - 1;
    let mut violations = 0usize;
    let mut counts = vec![0u32; m];
    for _ in 0..trials {
        counts.fill(0);
        for _ in 0..k {
            counts[rng.below(m as u64) as usize] += 1;
        }
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        if distinct < k - 1 || (distinct == k - 1 && counts.iter().any(|&c| c > 2)) {
            violations += 1;
        }
    }
    violations as f64 / trials as f64
}

/// Expected number of cross-rack downloads when a random node encodes an
/// RR-placed stripe: `k - 2k/R` (Section II-B), assuming each block's
/// replicas occupy two distinct racks.
pub fn expected_cross_rack_downloads_rr(r: usize, k: usize) -> f64 {
    assert!(r >= 2 && k >= 1);
    k as f64 - 2.0 * k as f64 / r as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_reference_point() {
        // Section III-A: "0.97 for k = 12 and R = 16".
        let f = violation_probability(16, 12);
        assert!((0.96..0.98).contains(&f), "got {f}");
    }

    #[test]
    fn monotone_decreasing_in_r() {
        for k in [6, 8, 10, 12] {
            let mut prev = 1.0;
            for r in (k + 2)..60 {
                let f = violation_probability(r, k);
                assert!(f <= prev + 1e-12, "f not decreasing at R={r}, k={k}");
                prev = f;
            }
        }
    }

    #[test]
    fn increasing_in_k() {
        for r in [20, 30, 40] {
            let f6 = violation_probability(r, 6);
            let f12 = violation_probability(r, 12);
            assert!(f12 > f6);
        }
    }

    #[test]
    fn certain_violation_when_racks_insufficient() {
        // k blocks cannot span k-1 distinct non-core racks when R-1 < k-1.
        assert_eq!(violation_probability(5, 8), 1.0);
    }

    #[test]
    fn trivial_cases() {
        // One block can never violate.
        assert_eq!(violation_probability(10, 1), 0.0);
        // Two blocks may always share or split: never a violation.
        assert!(violation_probability(10, 2).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_formula() {
        let mut rng = ChaCha8::from_seed(17);
        for (r, k) in [(16, 12), (20, 10), (30, 6), (40, 8)] {
            let exact = violation_probability(r, k);
            let mc = violation_probability_monte_carlo(r, k, 40_000, &mut rng);
            assert!(
                (exact - mc).abs() < 0.015,
                "R={r} k={k}: exact {exact} vs MC {mc}"
            );
        }
    }

    #[test]
    fn cross_rack_expectation() {
        // Section II-B example numbers: k=10, R=20 -> 9.
        let e = expected_cross_rack_downloads_rr(20, 10);
        assert!((e - 9.0).abs() < 1e-12);
        // Approaches k for large R.
        assert!(expected_cross_rack_downloads_rr(1000, 10) > 9.9);
    }
}
