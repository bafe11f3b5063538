//! Random-variate generators for the simulator's traffic models.
//!
//! The paper's workloads use Poisson arrival processes (write and background
//! requests) and exponentially distributed transfer sizes (background
//! traffic, Experiment B.2); these are derived from uniform variates via
//! inverse-transform sampling, so one uniform draw is all they need.

use ear_types::rng::ChaCha8;

/// Samples an exponentially distributed value with the given `mean`.
///
/// # Panics
///
/// Panics if `mean` is not finite and positive.
pub fn exponential(rng: &mut ChaCha8, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential mean must be finite and positive"
    );
    // 1 - U is in (0, 1], so ln() is finite.
    let u: f64 = rng.unit_f64();
    -mean * (1.0 - u).ln()
}

/// A Poisson arrival process with a fixed rate (events per second):
/// successive calls to [`next_gap`](PoissonProcess::next_gap) return i.i.d.
/// exponential inter-arrival times.
///
/// ```
/// use ear_des::PoissonProcess;
/// let mut rng = ear_types::rng::ChaCha8::from_seed(1);
/// let p = PoissonProcess::new(2.0); // 2 events/sec
/// let gap = p.next_gap(&mut rng);
/// assert!(gap >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Creates a process with `rate` events per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "poisson rate must be finite and positive"
        );
        PoissonProcess { rate }
    }

    /// The arrival rate in events per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples the time until the next arrival.
    pub fn next_gap(&self, rng: &mut ChaCha8) -> f64 {
        exponential(rng, 1.0 / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = ChaCha8::from_seed(1);
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.05,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = ChaCha8::from_seed(2);
        for _ in 0..10_000 {
            assert!(exponential(&mut rng, 0.5) >= 0.0);
        }
    }

    #[test]
    fn poisson_rate_matches_event_count() {
        let mut rng = ChaCha8::from_seed(3);
        let p = PoissonProcess::new(10.0);
        // Count arrivals in 1000 simulated seconds.
        let mut t = 0.0;
        let mut count = 0u64;
        while t < 1000.0 {
            t += p.next_gap(&mut rng);
            count += 1;
        }
        assert!(
            (9_000..11_000).contains(&count),
            "expected ~10000 arrivals, got {count}"
        );
    }

    #[test]
    fn exponential_variance_close_to_square_of_mean() {
        let mut rng = ChaCha8::from_seed(4);
        let mean = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| exponential(&mut rng, mean)).collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        assert!(
            (var - mean * mean).abs() < 0.15,
            "variance {var} far from {}",
            mean * mean
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = PoissonProcess::new(0.0);
    }
}
