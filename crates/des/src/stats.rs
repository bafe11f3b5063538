//! Sample quantiles and boxplot summaries for experiment reports.

use std::fmt;

/// Five-number summary used by the paper's boxplots (Fig. 13): minimum,
/// lower quartile, median, upper quartile, maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl fmt::Display for BoxStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// A sample collection supporting quantiles and boxplot summaries.
///
/// ```
/// use ear_des::Samples;
/// let mut s = Samples::new();
/// for x in 1..=100 {
///     s.push(x as f64);
/// }
/// assert_eq!(s.quantile(0.5), 50.5);
/// let b = s.boxplot();
/// assert_eq!(b.min, 1.0);
/// assert_eq!(b.max, 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "samples cannot be NaN");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `q`-quantile (linear interpolation between order statistics).
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of empty samples");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Five-number summary.
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty.
    pub fn boxplot(&mut self) -> BoxStats {
        BoxStats {
            min: self.quantile(0.0),
            q1: self.quantile(0.25),
            median: self.quantile(0.5),
            q3: self.quantile(0.75),
            max: self.quantile(1.0),
        }
    }

    /// Borrowed view of the raw values (unsorted).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            self.sorted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!((s.quantile(0.5) - 2.5).abs() < 1e-12);
        assert!((s.quantile(1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn boxplot_of_uniform_sequence() {
        let mut s = Samples::new();
        for x in 0..=100 {
            s.push(x as f64);
        }
        let b = s.boxplot();
        assert_eq!(b.min, 0.0);
        assert_eq!(b.q1, 25.0);
        assert_eq!(b.median, 50.0);
        assert_eq!(b.q3, 75.0);
        assert_eq!(b.max, 100.0);
    }

    #[test]
    fn single_sample() {
        let mut s = Samples::new();
        s.push(42.0);
        assert_eq!(s.quantile(0.37), 42.0);
        let b = s.boxplot();
        assert_eq!(b.min, 42.0);
        assert_eq!(b.max, 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        let mut s = Samples::new();
        let _ = s.quantile(0.5);
    }
}
