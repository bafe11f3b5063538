//! CRC32C (Castagnoli) checksums, the integrity check HDFS uses for its
//! on-disk blocks and the one every store, WAL frame and extent header in
//! this workspace carries. Two tiers compute the same function:
//!
//! * **`sse4.2`** (x86-64 with SSE4.2): the `crc32` instruction, three
//!   1 KiB lanes in flight at once to cover its 3-cycle latency, recombined
//!   through a precomputed "append one lane of zero bytes" table;
//! * **`slicing8`** (everywhere else): slicing-by-8 over eight compile-time
//!   tables, 8 bytes per iteration.
//!
//! [`crc32c`] picks the tier per call from the CPU it runs on (std caches
//! the probe); [`tier`] reports which. Nothing selects a tier by hand.

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
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = sse42(data) {
        return crc;
    }
    slicing8(data)
}

/// The tier [`crc32c`] runs on this CPU: `"sse4.2"` or `"slicing8"`.
pub fn tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return "sse4.2";
    }
    "slicing8"
}

/// The portable tier.
fn slicing8(data: &[u8]) -> u32 {
    let mut crc = !0u32;
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
    !crc
}

/// The SSE4.2 tier, or `None` on a CPU without it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn sse42(data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `x86::crc32c` is a safe function whose only requirement on
    // its caller is the `sse4.2` target feature, which the probe above
    // just found on this CPU.
    Some(unsafe { x86::crc32c(data) })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::TABLES;
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Bytes per interleaved lane. Three lanes make one 3 KiB round, so a
    /// 64 KiB block leaves 1 KiB to the single-lane tail, and the two
    /// table shifts per round cost a few percent of its 384 `crc32`s.
    pub(super) const LANE: usize = 1024;

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

    /// CRC32C of `data` on the `crc32` instruction.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn crc32c(data: &[u8]) -> u32 {
        let mut crc = u64::from(!0u32);
        let mut rounds = data.chunks_exact(3 * LANE);
        for round in &mut rounds {
            // Lanes b and c start from a zero register, so by linearity
            // crc(a|b|c) = shift(shift(crc_a) ^ crc_b) ^ crc_c.
            let (a, rest) = round.split_at(LANE);
            let (b, c) = rest.split_at(LANE);
            let (mut crc_b, mut crc_c) = (0u64, 0u64);
            for ((wa, wb), wc) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                crc = _mm_crc32_u64(crc, word(wa));
                crc_b = _mm_crc32_u64(crc_b, word(wb));
                crc_c = _mm_crc32_u64(crc_c, word(wc));
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
        !crc
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

    /// Every tier this CPU can run, called directly (not through
    /// [`crc32c`]'s dispatch).
    fn tiers() -> Vec<Tier> {
        #[cfg(target_arch = "x86_64")]
        if sse42(b"").is_some() {
            let fast = |data: &[u8]| sse42(data).expect("probed above");
            return vec![("slicing8", slicing8), ("sse4.2", fast)];
        }
        vec![("slicing8", slicing8)]
    }

    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// RFC 3720 (iSCSI) B.4 test vectors.
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
    }

    // The next three call the portable tier directly: they are what CI's
    // Miri step runs.
    #[test]
    fn known_vectors() {
        assert_rfc3720("slicing8", slicing8);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tiers_agree_on_random_lengths_offsets_and_content() {
        let Some(&(_, fast)) = tiers().get(1) else {
            return; // no SSE4.2 on this CPU: one tier, nothing to compare
        };
        use crate::prop;
        let max = 3 * x86::LANE as u64 + 17;
        prop::check(
            "tiers_agree_on_random_lengths_offsets_and_content",
            512,
            |rng| {
                let start = prop::range(rng, 0..=7) as usize;
                let len = prop::range(rng, 0..=max) as usize;
                let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u32() as u8).collect();
                let data = &buf[start..];
                assert_eq!(fast(data), slicing8(data), "start {start} len {len}");
            },
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tiers_agree_across_every_lane_boundary() {
        let Some(&(_, fast)) = tiers().get(1) else {
            return;
        };
        let lane = x86::LANE;
        let buf: Vec<u8> = (0..7 * lane as u32 + 64)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // One to six lanes (zero, one and two full rounds, with one- and
        // two-lane tails), each boundary straddled byte by byte.
        for lanes in 1..=6 {
            for len in lanes * lane - 9..=lanes * lane + 9 {
                for start in [0, 3] {
                    let data = &buf[start..start + len];
                    assert_eq!(fast(data), slicing8(data), "start {start} len {len}");
                }
            }
        }
    }
}
