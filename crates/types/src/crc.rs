//! CRC32C (Castagnoli) checksums, the integrity check HDFS uses for its
//! on-disk blocks and the one every store, WAL frame and extent header in
//! this workspace carries. Three tiers compute the same function:
//!
//! * **`vpclmulqdq`** (x86-64 with AVX-512F and VPCLMULQDQ): carry-less
//!   multiply folding, 256 bytes a step in four 512-bit accumulators, with
//!   the next 4 KiB prefetched, reduced to 128 bits and finished by two
//!   `crc32` instructions. Inputs under 512 bytes and the tail after the
//!   last full step go to the `sse4.2` loop;
//! * **`sse4.2`** (x86-64 with SSE4.2): the `crc32` instruction, three
//!   1 KiB lanes in flight at once to cover its 3-cycle latency, recombined
//!   through a precomputed "append one lane of zero bytes" table, each lane
//!   prefetched 4 KiB ahead;
//! * **`slicing8`** (everywhere else): slicing-by-8 over eight compile-time
//!   tables, 8 bytes per iteration.
//!
//! A block that misses every cache is bound by how many loads are in
//! flight, not by the hash: the fold and the prefetch keep memory busy
//! where one `crc32` chain per lane cannot.
//!
//! [`crc32c`] picks the tier per call from the CPU it runs on (std caches
//! the probe); [`tier`] reports which. Nothing selects a tier by hand.
//! [`extend`] carries a checksum over the next piece of a message on the
//! same tiers, so a walk that visits a block tile by tile can hash it on
//! the way instead of in a pass of its own.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82f6_3b78;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[j]` advances a byte `j` positions
/// further through the CRC register.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// The CRC32C checksum of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(test)]
    tests::HASHES.with(|n| n.set(n.get() + 1));
    extend(0, data)
}

/// The CRC32C of a message whose first part hashed to `crc`, after `data`
/// follows it: `extend(crc32c(a), b) == crc32c(a ++ b)`, and the empty
/// message's checksum is 0, so `extend(0, data) == crc32c(data)`. Pieces of
/// any length chain, on whichever tier [`crc32c`] runs.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    // The tiers work on the raw register, which is the checksum inverted.
    #[cfg(target_arch = "x86_64")]
    if let Some(reg) = fold512(!crc, data).or_else(|| sse42(!crc, data)) {
        return !reg;
    }
    !update(!crc, data)
}

/// The tier [`crc32c`] runs on this CPU: `"vpclmulqdq"`, `"sse4.2"` or
/// `"slicing8"`.
pub fn tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_fold512() {
        return "vpclmulqdq";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return "sse4.2";
    }
    "slicing8"
}

/// The portable tier's CRC32C of `data`: what every other tier is tested
/// against.
#[cfg(test)]
fn slicing8(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// The raw register `crc` after `data`, on the portable tier.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// The raw register `reg` after `data` on the SSE4.2 tier, or `None` on a
/// CPU without it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn sse42(reg: u32, data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `x86::update` is a safe function whose only requirement on
    // its caller is the `sse4.2` target feature, which the probe above
    // just found on this CPU.
    Some(unsafe { x86::update(reg, data) })
}

/// Whether this CPU runs the folding tier. SSE4.2 and PCLMULQDQ come with
/// every AVX-512 CPU; the probe asks anyway, since the tier uses both.
#[cfg(target_arch = "x86_64")]
fn has_fold512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
}

/// The raw register `reg` after `data` on the VPCLMULQDQ tier, or `None`
/// on a CPU without it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn fold512(reg: u32, data: &[u8]) -> Option<u32> {
    if !has_fold512() {
        return None;
    }
    // SAFETY: `x86::update_fold` is a safe function whose only requirement
    // on its caller is the four target features `has_fold512` just found
    // on this CPU.
    Some(unsafe { x86::update_fold(reg, data) })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::TABLES;
    use std::arch::x86_64::{
        __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32,
        _mm512_loadu_si512, _mm512_maskz_set1_epi32, _mm512_set_epi64, _mm512_ternarylogic_epi64,
        _mm512_xor_si512, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si64, _mm_extract_epi64,
        _mm_prefetch, _mm_set_epi64x, _mm_xor_si128, _MM_HINT_T0,
    };

    /// Bytes per interleaved lane. Three lanes make one 3 KiB round, so a
    /// 64 KiB block leaves 1 KiB to the single-lane tail, and the two
    /// table shifts per round cost a few percent of its 384 `crc32`s.
    pub(super) const LANE: usize = 1024;

    /// How far ahead of the bytes being hashed both loops prefetch: about
    /// a DRAM latency's worth of bytes at memory bandwidth.
    pub(super) const PREFETCH: usize = 4096;

    /// Bytes one fold step consumes: four 512-bit accumulators.
    pub(super) const STEP: usize = 256;

    /// The smallest input the fold takes: one step loaded, one folded in.
    pub(super) const FOLD_MIN: usize = 2 * STEP;

    /// `SHIFT[j][b]` is byte `j` of a raw CRC register holding `b`, after
    /// `LANE` zero bytes have been fed in: XOR-ing the four lookups of a
    /// register's bytes multiplies it by `x^(8·LANE)` mod the polynomial.
    static SHIFT: [[u32; 256]; 4] = build_shift();

    const fn build_shift() -> [[u32; 256]; 4] {
        // The map is linear over GF(2): shift each of the 32 register bits
        // through `LANE` zero bytes, then XOR the images of a byte's bits.
        let mut image = [0u32; 32];
        let mut bit = 0;
        while bit < 32 {
            let mut crc = 1u32 << bit;
            let mut n = 0;
            while n < LANE {
                crc = (crc >> 8) ^ TABLES[0][(crc & 0xff) as usize];
                n += 1;
            }
            image[bit] = crc;
            bit += 1;
        }
        let mut shift = [[0u32; 256]; 4];
        let mut j = 0;
        while j < 4 {
            let mut b = 0;
            while b < 256 {
                let mut bit = 0;
                while bit < 8 {
                    if b & (1 << bit) != 0 {
                        shift[j][b] ^= image[8 * j + bit];
                    }
                    bit += 1;
                }
                b += 1;
            }
            j += 1;
        }
        shift
    }

    /// `x^n` mod the polynomial, bit-reflected like the CRC register (the
    /// register `1 << 31` is the polynomial 1): `n / 8` zero bytes through
    /// `TABLES[0]`, then the last `n % 8` zero bits one at a time.
    const fn x_pow(n: usize) -> u32 {
        let mut crc = 1u32 << 31;
        let mut i = 0;
        while i < n / 8 {
            crc = (crc >> 8) ^ TABLES[0][(crc & 0xff) as usize];
            i += 1;
        }
        let mut bit = 0;
        while bit < n % 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ super::POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        crc
    }

    /// The multiplier pair that moves a 128-bit accumulator `bytes` further
    /// down the message. Its low qword holds the first 8 bytes, the
    /// polynomial's `x^64..x^127` terms, so it is carried by
    /// `x^(8·bytes + 64)`; its high qword by `x^(8·bytes)`. A reflected
    /// carry-less multiply by a 32-bit constant adds `x^33` (one for the
    /// reflection, 32 for the constant sitting in the qword's low half), so
    /// the pair is `[x^(8·bytes + 31), x^(8·bytes − 33)]` mod P.
    pub(super) const fn fold_by(bytes: usize) -> [u64; 2] {
        [x_pow(8 * bytes + 31) as u64, x_pow(8 * bytes - 33) as u64]
    }

    /// The five fold distances: a whole step, a 512-bit accumulator into
    /// the next, and the last three 128-bit lanes of one into its fourth.
    pub(super) const K256: [u64; 2] = fold_by(STEP);
    pub(super) const K64: [u64; 2] = fold_by(64);
    pub(super) const K48: [u64; 2] = fold_by(48);
    pub(super) const K32: [u64; 2] = fold_by(32);
    pub(super) const K16: [u64; 2] = fold_by(16);

    /// The raw register `crc` after `LANE` more zero bytes.
    #[inline]
    fn shift_lane(crc: u64) -> u64 {
        let crc = crc as u32;
        u64::from(
            SHIFT[0][(crc & 0xff) as usize]
                ^ SHIFT[1][((crc >> 8) & 0xff) as usize]
                ^ SHIFT[2][((crc >> 16) & 0xff) as usize]
                ^ SHIFT[3][(crc >> 24) as usize],
        )
    }

    #[inline]
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }

    /// Asks for the cache line holding `data[at]`, when `at` is inside
    /// `data`: neither loop prefetches past the end of its slice.
    #[inline]
    #[target_feature(enable = "sse")]
    #[allow(
        unsafe_code,
        unused_unsafe,
        reason = "`_mm_prefetch` takes a pointer, and not every toolchain from \
                  the declared rust-version on marks it safe to call"
    )]
    fn prefetch(data: &[u8], at: usize) {
        if let Some(byte) = data.get(at) {
            // SAFETY: a prefetch is a hint that reads nothing and never
            // faults; the pointer is to a live byte of `data` regardless.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(byte).cast()) };
        }
    }

    /// The raw register `crc` after `data`, on the `crc32` instruction.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let mut crc = u64::from(crc);
        let mut rounds = data.chunks_exact(3 * LANE);
        for (r, round) in (&mut rounds).enumerate() {
            // Lanes b and c start from a zero register, so by linearity
            // crc(a|b|c) = shift(shift(crc_a) ^ crc_b) ^ crc_c.
            let (a, rest) = round.split_at(LANE);
            let (b, c) = rest.split_at(LANE);
            let (mut crc_b, mut crc_c) = (0u64, 0u64);
            let ahead = r * 3 * LANE + PREFETCH;
            for (line, ((la, lb), lc)) in a
                .chunks_exact(64)
                .zip(b.chunks_exact(64))
                .zip(c.chunks_exact(64))
                .enumerate()
            {
                for lane in 0..3 {
                    prefetch(data, ahead + lane * LANE + 64 * line);
                }
                for ((wa, wb), wc) in la
                    .chunks_exact(8)
                    .zip(lb.chunks_exact(8))
                    .zip(lc.chunks_exact(8))
                {
                    crc = _mm_crc32_u64(crc, word(wa));
                    crc_b = _mm_crc32_u64(crc_b, word(wb));
                    crc_c = _mm_crc32_u64(crc_c, word(wc));
                }
            }
            crc = shift_lane(shift_lane(crc) ^ crc_b) ^ crc_c;
        }
        let mut words = rounds.remainder().chunks_exact(8);
        for w in &mut words {
            crc = _mm_crc32_u64(crc, word(w));
        }
        let mut crc = crc as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// One step's four 512-bit accumulators' worth of bytes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)]
    fn load(step: &[u8; STEP]) -> [__m512i; 4] {
        let at = |i: usize| step[64 * i..].as_ptr().cast::<__m512i>();
        // SAFETY: each load reads 64 bytes starting 64·i bytes into a
        // `STEP` = 256-byte array, i < 4, so every read is in bounds;
        // `loadu` has no alignment requirement.
        unsafe {
            [
                _mm512_loadu_si512(at(0)),
                _mm512_loadu_si512(at(1)),
                _mm512_loadu_si512(at(2)),
                _mm512_loadu_si512(at(3)),
            ]
        }
    }

    /// The 128-bit lanes of `x` moved forward by the distance `k` was built
    /// for, XORed into `next`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold(x: __m512i, k: __m512i, next: __m512i) -> __m512i {
        _mm512_ternarylogic_epi64::<0x96>(
            _mm512_clmulepi64_epi128::<0x00>(x, k),
            _mm512_clmulepi64_epi128::<0x11>(x, k),
            next,
        )
    }

    /// A multiplier pair in every 128-bit lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(k: [u64; 2]) -> __m512i {
        _mm512_broadcast_i32x4(_mm_set_epi64x(k[1] as i64, k[0] as i64))
    }

    /// The raw register `reg` after `data`, folding 256 bytes a step.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
    pub(super) fn update_fold(reg: u32, data: &[u8]) -> u32 {
        if data.len() < FOLD_MIN {
            return update(reg, data);
        }
        let (steps, tail) = data.as_chunks::<STEP>();
        let mut acc = load(&steps[0]);
        // Starting from register `reg` is the same as XOR-ing it into the
        // first four bytes and starting from zero, which the fold does.
        acc[0] = _mm512_xor_si512(acc[0], _mm512_maskz_set1_epi32(1, reg as i32));
        let k256 = splat(K256);
        for (s, step) in steps.iter().enumerate().skip(1) {
            for line in 0..STEP / 64 {
                prefetch(data, s * STEP + PREFETCH + 64 * line);
            }
            let next = load(step);
            for (a, n) in acc.iter_mut().zip(next) {
                *a = fold(*a, k256, n);
            }
        }
        // Four accumulators into one, then its lanes 0, 1 and 2 on to lane
        // 3, which joins the XOR as it is (its multiplier lane is zero).
        let k64 = splat(K64);
        let x = fold(fold(fold(acc[0], k64, acc[1]), k64, acc[2]), k64, acc[3]);
        let k = _mm512_set_epi64(
            0,
            0,
            K16[1] as i64,
            K16[0] as i64,
            K32[1] as i64,
            K32[0] as i64,
            K48[1] as i64,
            K48[0] as i64,
        );
        let y = _mm512_xor_si512(
            _mm512_clmulepi64_epi128::<0x00>(x, k),
            _mm512_clmulepi64_epi128::<0x11>(x, k),
        );
        let r = _mm_xor_si128(
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<0>(y),
                _mm512_extracti32x4_epi32::<1>(y),
            ),
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<2>(y),
                _mm512_extracti32x4_epi32::<3>(x),
            ),
        );
        // The 16 folded bytes from a zero register, then the tail.
        let crc = _mm_crc32_u64(0, _mm_cvtsi128_si64(r) as u64);
        let crc = _mm_crc32_u64(crc, _mm_extract_epi64::<1>(r) as u64);
        update(crc as u32, tail)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// [`crc32c`] calls made by this thread — how the `Block` tests
        /// show that a stamped handle is not hashed again.
        pub(crate) static HASHES: Cell<usize> = const { Cell::new(0) };
    }

    type Tier = (&'static str, fn(&[u8]) -> u32);

    /// Every tier this CPU can run, slowest first, called directly (not
    /// through [`crc32c`]'s dispatch). A CPU without AVX-512 has no
    /// `vpclmulqdq` entry, so the tests below skip that tier there.
    fn tiers() -> Vec<Tier> {
        #[cfg_attr(not(target_arch = "x86_64"), expect(unused_mut))]
        let mut tiers: Vec<Tier> = vec![("slicing8", slicing8)];
        #[cfg(target_arch = "x86_64")]
        {
            if sse42(!0, b"").is_some() {
                tiers.push(("sse4.2", |data| !sse42(!0, data).expect("probed above")));
            }
            if fold512(!0, b"").is_some() {
                tiers.push(("vpclmulqdq", |data| !fold512(!0, data).expect("probed above")));
            }
        }
        tiers
    }

    type Extend = (&'static str, fn(u32, &[u8]) -> u32);

    /// [`extend`] on every tier this CPU can run, called directly, plus the
    /// dispatcher.
    fn extenders() -> Vec<Extend> {
        #[cfg_attr(not(target_arch = "x86_64"), expect(unused_mut))]
        let mut tiers: Vec<Extend> = vec![("slicing8", |crc, data| !update(!crc, data))];
        #[cfg(target_arch = "x86_64")]
        {
            if sse42(!0, b"").is_some() {
                tiers.push(("sse4.2", |crc, data| !sse42(!crc, data).expect("probed above")));
            }
            if fold512(!0, b"").is_some() {
                tiers.push(("vpclmulqdq", |crc, data| !fold512(!crc, data).expect("probed above")));
            }
        }
        tiers.push(("dispatch", extend));
        tiers
    }

    /// `data` cut at `cuts` (ascending, each at most `data.len()`), the
    /// pieces chained through `extend`.
    fn chained(extend: fn(u32, &[u8]) -> u32, data: &[u8], cuts: &[usize]) -> u32 {
        let mut crc = 0;
        let mut from = 0;
        for &to in cuts.iter().chain([&data.len()]) {
            crc = extend(crc, &data[from..to]);
            from = to;
        }
        crc
    }

    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// 4 KiB + 13 bytes: sixteen fold steps and a tail, on every tier that
    /// folds. [`LONG_CRC`] pins its checksum by value.
    fn long_vector() -> Vec<u8> {
        (0..4096 + 13u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect()
    }

    /// `bytewise(&long_vector())`, which `known_vectors` re-derives.
    const LONG_CRC: u32 = 0x58c0_9364;

    /// RFC 3720 (iSCSI) B.4 test vectors, and one long known answer.
    fn assert_rfc3720(name: &str, crc: fn(&[u8]) -> u32) {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let iscsi_read: [u8; 48] = [
            0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x14,
            0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        assert_eq!(crc(b"123456789"), 0xe306_9283, "{name}");
        assert_eq!(crc(&[0u8; 32]), 0x8a91_36aa, "{name}");
        assert_eq!(crc(&[0xffu8; 32]), 0x62a8_ab43, "{name}");
        assert_eq!(crc(&ascending), 0x46dd_794e, "{name}");
        assert_eq!(crc(&descending), 0x113f_db5c, "{name}");
        assert_eq!(crc(&iscsi_read), 0xd996_3a56, "{name}");
        assert_eq!(crc(b""), 0, "{name}");
        assert_eq!(crc(&long_vector()), LONG_CRC, "{name}");
    }

    // The next three call the portable tier directly: they are what CI's
    // Miri step runs.
    #[test]
    fn known_vectors() {
        assert_rfc3720("slicing8", slicing8);
        assert_eq!(bytewise(&long_vector()), LONG_CRC);
    }

    #[test]
    fn portable_pieces_chain_to_the_whole() {
        let data = long_vector();
        let data = &data[..100];
        let whole = slicing8(data);
        let portable: fn(u32, &[u8]) -> u32 = |crc, piece| !update(!crc, piece);
        for cut in 0..=data.len() {
            assert_eq!(chained(portable, data, &[cut]), whole, "cut at {cut}");
        }
        assert_eq!(chained(portable, data, &[0, 7, 7, 8, 63, 99]), whole);
        assert_eq!(portable(0, b""), 0, "the empty message hashes to 0");
    }

    #[test]
    fn single_bit_flip_detected() {
        let data = vec![0x5au8; 4096];
        let clean = slicing8(&data);
        for idx in [0usize, 1, 2047, 4095] {
            let mut bad = data.clone();
            bad[idx] ^= 0x01;
            assert_ne!(slicing8(&bad), clean, "flip at {idx} must change the crc");
        }
    }

    #[test]
    fn sliced_path_matches_byte_at_a_time() {
        // Exercise every remainder length around the 8-byte fold boundary.
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in (0..=64).chain([255, 256, 257, 1023, 1024]) {
            assert_eq!(slicing8(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn every_tier_and_the_dispatcher_match_rfc3720_vectors() {
        for (name, crc) in tiers() {
            assert_rfc3720(name, crc);
        }
        assert_rfc3720(tier(), crc32c);
    }

    #[test]
    fn tier_names_what_dispatch_runs() {
        let names: Vec<&str> = tiers().iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names.last(),
            Some(&tier()),
            "dispatch prefers the fastest tier"
        );
    }

    /// Every tier after the portable one against `slicing8`, on `buf`'s
    /// `len` bytes from each of `starts`.
    fn assert_tiers_agree(buf: &[u8], lens: impl IntoIterator<Item = usize>, starts: &[usize]) {
        let tiers = tiers();
        for len in lens {
            for &start in starts {
                let data = &buf[start..start + len];
                let want = slicing8(data);
                for &(name, crc) in &tiers[1..] {
                    assert_eq!(crc(data), want, "{name} start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_random_lengths_offsets_and_content() {
        use crate::prop;
        prop::check(
            "tiers_agree_on_random_lengths_offsets_and_content",
            512,
            |rng| {
                let start = prop::range(rng, 0..=63) as usize;
                let len = prop::range(rng, 0..=20 * 1024) as usize;
                let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u32() as u8).collect();
                assert_tiers_agree(&buf, [len], &[start]);
            },
        );
    }

    #[test]
    fn pieces_chain_to_the_whole_on_every_tier() {
        use crate::prop;
        prop::check("pieces_chain_to_the_whole_on_every_tier", 256, |rng| {
            // Short, odd and fold-sized messages alike: under 512 bytes no
            // piece reaches the fold, past it some do and some do not.
            let len = match rng.below(3) {
                0 => prop::range(rng, 0..=511),
                1 => 2 * prop::range(rng, 0..=4096) + 1,
                _ => prop::range(rng, 512..=20 * 1024),
            } as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let mut cuts: Vec<usize> = (0..prop::range(rng, 1..=5))
                .map(|_| prop::range(rng, 0..=len as u64) as usize)
                .collect();
            cuts.sort_unstable();
            let whole = slicing8(&data);
            for (name, extend) in extenders() {
                assert_eq!(chained(extend, &data, &cuts), whole, "{name} len {len} cuts {cuts:?}");
            }
        });
    }

    /// Bytes with no short period, so a misplaced lane or step shows.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tiers_agree_across_every_lane_boundary() {
        let lane = x86::LANE;
        let buf = patterned(7 * lane + 64);
        // One to six lanes (zero, one and two full rounds, with one- and
        // two-lane tails), each boundary straddled byte by byte.
        for lanes in 1..=6 {
            assert_tiers_agree(&buf, lanes * lane - 9..=lanes * lane + 9, &[0, 3]);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tiers_agree_across_every_fold_and_prefetch_boundary() {
        use x86::{FOLD_MIN, PREFETCH, STEP};
        let buf = patterned(512 * 1024 + 13 + 5);
        // The fold's entry size straddled byte by byte, then every whole
        // number of steps to 8 KiB and a byte either side.
        assert_tiers_agree(&buf, FOLD_MIN - 9..=FOLD_MIN + 9, &[0, 5]);
        let steps = (1..=8 * 1024 / STEP).flat_map(|s| [s * STEP - 1, s * STEP, s * STEP + 1]);
        assert_tiers_agree(&buf, steps, &[0, 5]);
        // The prefetch distance, then blocks the size the stores hold.
        assert_tiers_agree(&buf, PREFETCH - 9..=PREFETCH + 9, &[0, 5]);
        assert_tiers_agree(&buf, [64 * 1024, 256 * 1024, 512 * 1024 + 13], &[0, 5]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_multipliers_are_powers_of_x_mod_p() {
        // The register 1 << 31 is the polynomial 1; one right shift, with
        // the reduction when a bit falls off, multiplies it by x.
        let shifted = |bits: usize| {
            let mut crc = 1u32 << 31;
            for _ in 0..bits {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            u64::from(crc)
        };
        let folds = [
            (16, x86::K16),
            (32, x86::K32),
            (48, x86::K48),
            (64, x86::K64),
            (256, x86::K256),
        ];
        for (bytes, k) in folds {
            assert_eq!(
                k,
                [shifted(8 * bytes + 31), shifted(8 * bytes - 33)],
                "{bytes} bytes"
            );
        }
        // Folding by 16 bytes is the classic 128-bit fold's pair.
        assert_eq!(x86::K16, [0xf20c_0dfe, 0x493c_7d27]);
    }
}
