//! The workspace's one random generator: a self-contained ChaCha8 word
//! stream keyed from a 64-bit seed.
//!
//! Every seeded result in the repo — fault plans, crash schedules, replica
//! placement, repair destinations, the simulator, the Monte-Carlo figures —
//! draws from this stream, so the exact stream is part of every result's
//! format: a seed printed in a log must replay bit-identically on any build.
//! That is why the generator lives here, in the dependency-free base crate,
//! where no dependency upgrade can change it; the known-answer tests below
//! pin the format.

/// ChaCha with 8 rounds, keyed from a 64-bit seed, used as a deterministic
/// word stream.
#[derive(Debug, Clone)]
pub struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    next_word: usize,
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// SplitMix64 finalizer: mixes a 64-bit value into an avalanche-quality hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ChaCha8 {
    /// Expands `seed` into a 256-bit key (SplitMix64 chain) and starts the
    /// stream at block 0.
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u32; 8];
        let mut s = seed;
        for pair in key.chunks_mut(2) {
            s = mix64(s);
            pair[0] = s as u32;
            pair[1] = (s >> 32) as u32;
        }
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; 16],
            next_word: 16,
        }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14..16] stay zero (nonce).
        let input = state;
        for _ in 0..4 {
            quarter(&mut state, 0, 4, 8, 12);
            quarter(&mut state, 1, 5, 9, 13);
            quarter(&mut state, 2, 6, 10, 14);
            quarter(&mut state, 3, 7, 11, 15);
            quarter(&mut state, 0, 5, 10, 15);
            quarter(&mut state, 1, 6, 11, 12);
            quarter(&mut state, 2, 7, 8, 13);
            quarter(&mut state, 3, 4, 9, 14);
        }
        for (o, i) in state.iter_mut().zip(input) {
            *o = o.wrapping_add(i);
        }
        self.buf = state;
        self.counter = self.counter.wrapping_add(1);
        self.next_word = 0;
    }

    /// The next 32-bit word of the stream.
    pub fn next_u32(&mut self) -> u32 {
        if self.next_word >= 16 {
            self.refill();
        }
        let w = self.buf[self.next_word];
        self.next_word += 1;
        w
    }

    /// The next 64-bit word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// A uniform value in `[0, bound)`. Returns 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // 128-bit multiply-shift: unbiased enough for schedules (bias is
        // < 2^-64 relative), and branch-free.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Takes `count` distinct indices from `0..pool` (partial Fisher–Yates).
    pub fn sample_indices(&mut self, pool: usize, count: usize) -> Vec<usize> {
        let count = count.min(pool);
        let mut all: Vec<usize> = (0..pool).collect();
        for i in 0..count {
            let j = i + self.below((pool - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(count);
        all
    }

    /// A uniform value in `[0, 1)` carrying 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly chosen element; `None` (and no draw) for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.get(self.below(items.len() as u64) as usize)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `count` distinct elements of `items` in random order (all of them if
    /// the slice is shorter).
    pub fn sample<T: Clone>(&mut self, items: &[T], count: usize) -> Vec<T> {
        self.sample_indices(items.len(), count)
            .into_iter()
            .map(|i| items[i].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8::from_seed(42);
        let mut b = ChaCha8::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha8::from_seed(1);
        let mut b = ChaCha8::from_seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = ChaCha8::from_seed(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = ChaCha8::from_seed(3);
        let s = r.sample_indices(10, 4);
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert!(s.iter().all(|&i| i < 10));
        // Requesting more than the pool clamps.
        assert_eq!(r.sample_indices(3, 9).len(), 3);
    }

    /// The stream format, pinned. These values come from an independent
    /// model of the generator (SplitMix64 key chain, RFC-7539 state layout,
    /// 8 rounds, low word first); if one changes, every seeded result in the
    /// repo — fault plans, placements, `results/exp_*.txt` — has been re-keyed.
    #[test]
    fn stream_format_known_answers() {
        let words = |seed| {
            let mut r = ChaCha8::from_seed(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            words(0),
            [
                0xf908_d135_e2d5_8524,
                0xf319_dbfa_0284_9c01,
                0x9ce9_b05b_6217_5145,
                0x4c62_8c26_264f_a7bc
            ]
        );
        assert_eq!(
            words(42),
            [
                0x6541_90fc_8cfa_b18e,
                0x8d1c_2ee6_c8c4_2bf9,
                0xf6bb_4fdf_48b9_e6c3,
                0x8673_a19c_090c_bc83
            ]
        );

        let mut r = ChaCha8::from_seed(42);
        let draws: Vec<u64> = (0..4).map(|_| r.below(1000)).collect();
        assert_eq!(draws, [395, 551, 963, 525]);

        assert_eq!(ChaCha8::from_seed(3).sample_indices(10, 4), [1, 7, 2, 4]);

        let mut v: Vec<u32> = (0..8).collect();
        ChaCha8::from_seed(5).shuffle(&mut v);
        assert_eq!(v, [5, 7, 4, 6, 3, 2, 1, 0]);

        let items: Vec<u32> = (10..20).collect();
        let mut r = ChaCha8::from_seed(6);
        let picks: Vec<u32> = (0..4).map(|_| *r.choose(&items).unwrap()).collect();
        assert_eq!(picks, [19, 11, 13, 19]);

        assert_eq!(ChaCha8::from_seed(7).unit_f64(), 0.382_676_218_455_638_04);
    }

    #[test]
    fn below_and_unit_f64_are_bounded_and_coarsely_uniform() {
        let mut r = ChaCha8::from_seed(9);
        let (mut by_below, mut by_unit) = ([0usize; 10], [0usize; 10]);
        for _ in 0..10_000 {
            by_below[r.below(10) as usize] += 1;
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
            by_unit[(u * 10.0) as usize] += 1;
        }
        for counts in [by_below, by_unit] {
            assert!(
                counts.iter().all(|c| (800..1200).contains(c)),
                "not uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_reaches_every_position() {
        let mut r = ChaCha8::from_seed(11);
        let mut landed = [[false; 5]; 5];
        for _ in 0..200 {
            let mut v: Vec<usize> = (0..5).collect();
            r.shuffle(&mut v);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4]);
            for (pos, &item) in v.iter().enumerate() {
                landed[item][pos] = true;
            }
        }
        assert!(landed.iter().flatten().all(|&seen| seen), "{landed:?}");
        // Degenerate slices draw nothing and do not panic.
        r.shuffle::<u8>(&mut []);
        r.shuffle(&mut [1u8]);
    }

    #[test]
    fn sample_returns_distinct_items_of_the_slice_and_clamps() {
        let mut r = ChaCha8::from_seed(13);
        let items: Vec<u32> = (100..110).collect();
        for _ in 0..50 {
            let mut picked = r.sample(&items, 4);
            assert_eq!(picked.len(), 4);
            assert!(picked.iter().all(|p| items.contains(p)));
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(picked.len(), 4);
        }
        let mut all = r.sample(&items, 99);
        all.sort_unstable();
        assert_eq!(all, items);
        assert!(r.sample(&items, 0).is_empty());
        assert!(r.sample::<u32>(&[], 3).is_empty());
    }

    #[test]
    fn choose_covers_the_slice_and_an_empty_slice_is_none() {
        let mut r = ChaCha8::from_seed(17);
        let items = [1u8, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[(*r.choose(&items).unwrap() - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
        // No element, and no word consumed.
        let mut twin = r.clone();
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.next_u64(), twin.next_u64());
    }
}
