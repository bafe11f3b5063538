//! Order statistics, the harness-owned RNG, and the share arithmetic.

/// SplitMix64: the harness's only source of randomness, so the inputs of a
/// run are a pure function of `--seed` and never of the product's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be positive).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `count` distinct values from `0..pool`, in draw order.
    pub fn distinct(&mut self, pool: u64, count: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count.min(pool as usize) {
            let v = self.below(pool);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// A seed for sub-stream `salt` of `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The skewed block index of `durable_extent`: `⌊b^u⌋ − 1` for `u` uniform
/// in `[0, 1)`, so index `i` is drawn with probability ∝ `ln((i+2)/(i+1))`.
pub fn skewed_index(u: f64, blocks: usize) -> usize {
    let i = (blocks as f64).powf(u).floor() as usize;
    i.saturating_sub(1).min(blocks.saturating_sub(1))
}

/// Median of `values` (mean of the middle two for an even count); 0 for an
/// empty slice, which callers never report.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The layers a phase's time is attributed to, in reporting order. The last
/// entry is the remainder, so a group always sums to 1.
pub const SHARE_LAYERS: [&str; 8] = [
    "kernels_rs",
    "crc",
    "store",
    "wal_namenode",
    "cache",
    "reliability",
    "netem",
    "unattributed",
];

/// Seconds per operation attributed to each layer but the last.
pub type LayerSeconds = [f64; SHARE_LAYERS.len() - 1];

/// Turns per-layer seconds into shares of `per_op_seconds`; the final
/// `unattributed` share is whatever the model leaves over (negative when
/// the model over-counts, e.g. work that overlaps across threads).
pub fn shares(attributed: &LayerSeconds, per_op_seconds: f64) -> [f64; SHARE_LAYERS.len()] {
    let mut out = [0.0; SHARE_LAYERS.len()];
    let mut sum = 0.0;
    for (o, a) in out.iter_mut().zip(attributed) {
        *o = if per_op_seconds > 0.0 {
            a / per_op_seconds
        } else {
            0.0
        };
        sum += *o;
    }
    out[SHARE_LAYERS.len() - 1] = 1.0 - sum;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), 500);
        // 10 samples lie beyond the p99 of 1000.
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn skewed_index_stays_in_range_and_is_skewed() {
        let mut rng = SplitMix64::new(7);
        let blocks = 1000;
        let mut low = 0usize;
        for _ in 0..100_000 {
            let i = skewed_index(rng.unit(), blocks);
            assert!(i < blocks);
            if i < 10 {
                low += 1;
            }
        }
        // P(i < 10) = ln(11)/ln(1000) ≈ 0.347 — far above uniform's 0.01.
        assert!((30_000..40_000).contains(&low), "low = {low}");
        assert_eq!(skewed_index(0.0, blocks), 0);
        assert_eq!(skewed_index(0.999_999_999, blocks), blocks - 2);
        assert_eq!(skewed_index(0.5, 1), 0);
    }

    #[test]
    fn below_and_distinct_respect_bounds() {
        let mut rng = SplitMix64::new(1);
        for n in [1u64, 2, 12, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
        let d = rng.distinct(12, 8);
        assert_eq!(d.len(), 8);
        let mut s = d.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
        assert_eq!(rng.distinct(3, 8).len(), 3);
    }

    #[test]
    fn same_seed_same_stream() {
        let stream = |seed| {
            let mut r = SplitMix64::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10));
        assert_ne!(derive(9, 1), derive(9, 2));
    }

    #[test]
    fn shares_sum_to_one_with_unattributed() {
        let s = shares(&[1e-6, 2e-6, 0.0, 0.5e-6, 0.0, 0.1e-6, 3e-6], 10e-6);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[7] - 0.34).abs() < 1e-9);
        // Over-counting shows as a negative remainder, still summing to 1.
        let over = shares(&[8e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 8e-6], 10e-6);
        assert!((over.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(over[7] < 0.0);
    }
}
