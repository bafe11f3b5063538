//! Tiered bulk kernels for GF(2⁸) slice arithmetic — the Reed–Solomon hot
//! path.
//!
//! Every experiment that encodes, repairs, or degraded-reads a stripe bottoms
//! out in `dst[i] ^= coef · src[i]` over block-sized buffers. This module
//! provides that primitive at four performance tiers:
//!
//! * [`KernelTier::Scalar`] — the portable byte-at-a-time product-table loop
//!   from [`crate::gf256`]; the reference all other tiers must match bit for
//!   bit.
//! * [`KernelTier::Ssse3`] — 16 bytes per step via `_mm_shuffle_epi8`
//!   low/high-nibble split product tables (the ISA-L technique).
//! * [`KernelTier::Avx2`] — the same nibble-table technique at 32 bytes per
//!   step via `_mm256_shuffle_epi8`.
//! * [`KernelTier::Gfni`] — one `vgf2p8affineqb` per 64 bytes: multiplying
//!   by a fixed coefficient is a linear map on GF(2)⁸, so it is an 8×8 bit
//!   matrix (built per coefficient under the field's polynomial 0x11D), and
//!   the instruction applies one to every byte of a 512-bit vector.
//!
//! The active tier is chosen once per process by [`Kernel::active`]: the best
//! tier the CPU supports, unless the `EAR_GF_KERNEL` environment variable
//! (`scalar`, `ssse3`, `avx2`, `gfni`, or `auto`) overrides it. An override
//! naming a tier the CPU cannot run falls back to auto-detection rather than
//! crashing, so a pinned benchmark configuration degrades gracefully on
//! older machines.
//!
//! Besides the single-source [`Kernel::mul_acc`], the codec-facing entry
//! point is [`Kernel::mul_acc_many`]: one tiled pass that accumulates every
//! source into every output row, [`TILE`] bytes at a time, so each source
//! byte is loaded once per call however many rows it feeds, and each row's
//! tile stays in cache for all of its read-modify-writes.

use crate::gf256;
use std::sync::OnceLock;

/// Bytes of every row and source [`Kernel::mul_acc_many`] finishes before
/// moving on.
///
/// 16 KiB of a few rows and one source at a time fits a 48 KiB L1d; the
/// call's whole tile (`k` sources and `r` rows, 224 KiB for a (14,10)
/// stripe) fits the L2, so a block-sized call reads each source from memory
/// once and each row once.
pub const TILE: usize = 16 * 1024;

/// The performance tier of a [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Byte-at-a-time product-table loop (portable reference).
    Scalar,
    /// SSSE3 `_mm_shuffle_epi8` nibble tables, 16 B/step (x86-64 only).
    Ssse3,
    /// AVX2 `_mm256_shuffle_epi8` nibble tables, 32 B/step (x86-64 only).
    Avx2,
    /// AVX-512 GFNI `vgf2p8affineqb` bit matrices, 64 B/step (x86-64 only).
    Gfni,
}

impl KernelTier {
    /// All tiers, in enumeration order.
    pub const ALL: [KernelTier; 4] = [
        KernelTier::Scalar,
        KernelTier::Ssse3,
        KernelTier::Avx2,
        KernelTier::Gfni,
    ];

    /// The canonical lower-case name (`scalar`, `ssse3`, `avx2`, `gfni`).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Ssse3 => "ssse3",
            KernelTier::Avx2 => "avx2",
            KernelTier::Gfni => "gfni",
        }
    }

    /// Parses a tier name as accepted by the `EAR_GF_KERNEL` override.
    ///
    /// Returns `None` for `auto`, the empty string, or anything unknown —
    /// callers treat all three as "pick the best supported tier".
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "ssse3" => Some(KernelTier::Ssse3),
            "avx2" => Some(KernelTier::Avx2),
            "gfni" => Some(KernelTier::Gfni),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn supported(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A selected GF(2⁸) bulk-arithmetic kernel.
///
/// `Kernel` is a plain `Copy` token whose tier is guaranteed supported by
/// the running CPU — [`Kernel::select`] refuses to build one otherwise —
/// which is the invariant that makes the internal `target_feature` calls
/// sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    tier: KernelTier,
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

impl Kernel {
    /// The process-wide kernel: `EAR_GF_KERNEL` override if set and
    /// supported, otherwise the best tier the CPU offers. Selected once and
    /// cached; changing the environment variable afterwards has no effect.
    pub fn active() -> Kernel {
        *ACTIVE.get_or_init(Kernel::from_env)
    }

    /// Uncached selection: applies the `EAR_GF_KERNEL` override against the
    /// current environment, falling back to [`Kernel::detect`]. This is the
    /// initializer behind [`Kernel::active`]; tests use it directly to
    /// exercise the dispatch path without process-global caching.
    pub fn from_env() -> Kernel {
        match std::env::var("EAR_GF_KERNEL") {
            Ok(v) => match KernelTier::parse(&v).and_then(Kernel::select) {
                Some(k) => k,
                None => Kernel::detect(),
            },
            Err(_) => Kernel::detect(),
        }
    }

    /// The fastest tier the running CPU supports, ignoring the environment.
    pub fn detect() -> Kernel {
        let tier = KernelTier::ALL
            .iter()
            .rev()
            .copied()
            .find(|t| t.supported())
            .unwrap_or(KernelTier::Scalar);
        Kernel { tier }
    }

    /// Builds a kernel of the given tier, or `None` if this CPU cannot run
    /// it.
    pub fn select(tier: KernelTier) -> Option<Kernel> {
        tier.supported().then_some(Kernel { tier })
    }

    /// Every kernel this CPU supports, in [`KernelTier::ALL`] enumeration
    /// order (always includes scalar).
    pub fn available() -> Vec<Kernel> {
        KernelTier::ALL
            .iter()
            .filter(|t| t.supported())
            .map(|&tier| Kernel { tier })
            .collect()
    }

    /// This kernel's tier.
    #[inline]
    pub fn tier(self) -> KernelTier {
        self.tier
    }

    /// The tier name, e.g. for logs and stats.
    #[inline]
    pub fn name(self) -> &'static str {
        self.tier.name()
    }

    /// `dst[i] ^= coef · src[i]` over the whole slice.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    // SAFETY of the unsafe dispatch arms: tier support was proven at
    // construction (`Kernel::select` / `Kernel::detect`), so the
    // `target_feature` functions only run on CPUs that have the feature.
    #[allow(unsafe_code)]
    pub fn mul_acc(self, dst: &mut [u8], src: &[u8], coef: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc length mismatch");
        if coef == 0 {
            return;
        }
        if coef == 1 {
            xor_slice(dst, src);
            return;
        }
        match self.tier {
            KernelTier::Scalar => gf256::mul_acc(dst, src, coef),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Ssse3 => unsafe { x86::mul_acc_ssse3(dst, src, &x86::Tables::new(coef)) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => unsafe { x86::mul_acc_avx2(dst, src, &x86::Tables::new(coef)) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Gfni => unsafe {
                x86::rows_gfni::<1>(&mut [dst], &[src], &[x86::matrix(coef)], 0..src.len());
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => gf256::mul_acc(dst, src, coef),
        }
    }

    /// `dst[i] = coef · src[i]` over the whole slice.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    // SAFETY: as in `mul_acc` — tier support proven at construction.
    #[allow(unsafe_code)]
    pub fn mul_slice(self, dst: &mut [u8], src: &[u8], coef: u8) {
        assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
        if coef == 0 {
            dst.fill(0);
            return;
        }
        if coef == 1 {
            dst.copy_from_slice(src);
            return;
        }
        match self.tier {
            KernelTier::Scalar => gf256::mul_slice(dst, src, coef),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Ssse3 => unsafe { x86::mul_slice_ssse3(dst, src, &x86::Tables::new(coef)) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => unsafe { x86::mul_slice_avx2(dst, src, &x86::Tables::new(coef)) },
            // No caller on the coding path sets rather than accumulates.
            KernelTier::Gfni => {
                dst.fill(0);
                self.mul_acc(dst, src, coef);
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => gf256::mul_slice(dst, src, coef),
        }
    }

    /// Fused multi-row, multi-source accumulation: for every row `r`,
    /// `rows[r][i] ^= Σⱼ coefs[r · srcs.len() + j] · srcs[j][i]`.
    ///
    /// This is the shape of a Reed–Solomon fold: `m` parity rows of `k`
    /// data shards during encode, the recovered shards of a decode. The
    /// slices are walked once, in [`TILE`]-sized tiles: each source's piece
    /// of a tile is first shown to `piece(j, bytes)` — the fold hashes it
    /// there, while it is in L1 — and then absorbed into every row's tile,
    /// so no byte of a source or a row is fetched from memory twice. The
    /// coefficient tables are built once per call.
    ///
    /// Zero coefficients add nothing; length-0 slices are a no-op (the hook
    /// sees no piece). The hook is a trait object so that this function and
    /// its kernels are compiled once, in this crate, at its optimisation
    /// level, whoever calls them.
    ///
    /// # Panics
    ///
    /// Panics if any row or source length differs from the others, or if
    /// `coefs` does not hold `rows.len() · srcs.len()` coefficients.
    // SAFETY: as in `mul_acc` — tier support proven at construction.
    #[allow(unsafe_code)]
    pub fn mul_acc_many(
        self,
        rows: &mut [&mut [u8]],
        srcs: &[&[u8]],
        coefs: &[u8],
        piece: &mut dyn FnMut(usize, &[u8]),
    ) {
        let mut lens = rows.iter().map(|r| r.len()).chain(srcs.iter().map(|s| s.len()));
        let len = lens.next().unwrap_or(0);
        for l in lens {
            assert_eq!(l, len, "mul_acc_many length mismatch");
        }
        assert_eq!(coefs.len(), rows.len() * srcs.len(), "mul_acc_many coefficient count mismatch");
        if srcs.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        let tables: Vec<x86::Tables> = match self.tier {
            KernelTier::Ssse3 | KernelTier::Avx2 => coefs.iter().map(|&c| x86::Tables::new(c)).collect(),
            _ => Vec::new(),
        };
        #[cfg(target_arch = "x86_64")]
        let matrices: Vec<u64> = match self.tier {
            KernelTier::Gfni => coefs.iter().map(|&c| x86::matrix(c)).collect(),
            _ => Vec::new(),
        };
        let mut start = 0;
        while start < len {
            let end = (start + TILE).min(len);
            for (j, src) in srcs.iter().enumerate() {
                piece(j, &src[start..end]);
            }
            #[cfg(target_arch = "x86_64")]
            if self.tier == KernelTier::Gfni {
                // Up to four rows share one load of each source vector.
                for (group, mats) in rows.chunks_mut(4).zip(matrices.chunks(4 * srcs.len())) {
                    let range = start..end;
                    unsafe {
                        match group.len() {
                            1 => x86::rows_gfni::<1>(group, srcs, mats, range),
                            2 => x86::rows_gfni::<2>(group, srcs, mats, range),
                            3 => x86::rows_gfni::<3>(group, srcs, mats, range),
                            _ => x86::rows_gfni::<4>(group, srcs, mats, range),
                        }
                    }
                }
                start = end;
                continue;
            }
            for (r, row) in rows.iter_mut().enumerate() {
                let d = &mut row[start..end];
                for (j, src) in srcs.iter().enumerate() {
                    let at = r * srcs.len() + j;
                    let (s, coef) = (&src[start..end], coefs[at]);
                    if coef == 0 {
                        continue;
                    }
                    if coef == 1 {
                        xor_slice(d, s);
                        continue;
                    }
                    match self.tier {
                        #[cfg(target_arch = "x86_64")]
                        KernelTier::Ssse3 => unsafe { x86::mul_acc_ssse3(d, s, &tables[at]) },
                        #[cfg(target_arch = "x86_64")]
                        KernelTier::Avx2 => unsafe { x86::mul_acc_avx2(d, s, &tables[at]) },
                        _ => gf256::mul_acc(d, s, coef),
                    }
                }
            }
            start = end;
        }
    }
}

/// `dst[i] ^= src[i]`, eight bytes at a time.
///
/// The `coef == 1` fast path shared by every tier; the compiler
/// autovectorizes this, and it is the same operation at every tier so
/// equivalence is trivial.
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let w = u64::from_le_bytes(dc[..8].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(sc.try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&w.to_le_bytes());
    }
    for (dc, sc) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dc ^= *sc;
    }
}

/// x86-64 nibble-table kernels (SSSE3 / AVX2) and bit-matrix kernels (GFNI).
///
/// For a fixed coefficient `c`, `c · x = c · (x & 0xF) ⊕ c · (x & 0xF0)` by
/// linearity of GF(2⁸) multiplication, so two 16-entry tables — products of
/// `c` with every low nibble and every high nibble — turn a field multiply
/// into two byte shuffles and a XOR. `_mm_shuffle_epi8` performs sixteen
/// such 16-entry lookups per instruction (`_mm256_shuffle_epi8`:
/// thirty-two).
///
/// GFNI needs no tables: `c · x` is linear in the bits of `x`, so it is an
/// 8×8 bit matrix over GF(2), and `vgf2p8affineqb` multiplies 64 bytes by
/// one per instruction. The instruction's own field multiply (`vgf2p8mulb`)
/// is fixed to the AES polynomial 0x11B; the affine form takes any
/// polynomial, here the code's 0x11D, through the matrix.
///
/// This is the only module in the crate allowed to use `unsafe`: every
/// unsafe fn below is `#[target_feature]`-gated and only reachable through a
/// [`Kernel`](super::Kernel) whose tier passed runtime detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use crate::gf256;
    use std::arch::x86_64::*;

    /// Split low/high-nibble product tables for one coefficient.
    pub struct Tables {
        lo: [u8; 16],
        hi: [u8; 16],
        coef: u8,
    }

    impl Tables {
        pub fn new(coef: u8) -> Tables {
            let mut lo = [0u8; 16];
            let mut hi = [0u8; 16];
            for x in 0..16u8 {
                lo[x as usize] = gf256::mul(coef, x);
                hi[x as usize] = gf256::mul(coef, x << 4);
            }
            Tables { lo, hi, coef }
        }
    }

    /// The bit matrix of multiplication by `coef`, in the layout
    /// `vgf2p8affineqb` reads: byte `7 − i` is the mask of input bits that
    /// feed output bit `i`, and input bit `j` feeds it iff bit `i` of
    /// `coef · 2ʲ` is set.
    pub fn matrix(coef: u8) -> u64 {
        let mut m = 0u64;
        for i in 0..8 {
            let row = (0..8).fold(0u8, |row, j| row | (((gf256::mul(coef, 1 << j) >> i) & 1) << j));
            m |= u64::from(row) << (8 * (7 - i));
        }
        m
    }

    /// `rows[r][range] ^= Σⱼ M(r, j) · srcs[j][range]` for `N` rows, where
    /// `mats[r · srcs.len() + j]` is the [`matrix`] of `M(r, j)`: each
    /// 64-byte source vector is loaded once and applied to all `N` rows,
    /// whose sums stay in registers until every source is in.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512BW and GFNI.
    ///
    /// # Panics
    ///
    /// If `rows.len() != N`, `mats` holds fewer than `N · srcs.len()`
    /// matrices, or `range` does not lie inside every row and source.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    pub unsafe fn rows_gfni<const N: usize>(
        rows: &mut [&mut [u8]],
        srcs: &[&[u8]],
        mats: &[u64],
        range: std::ops::Range<usize>,
    ) {
        assert_eq!(rows.len(), N);
        assert!(mats.len() >= N * srcs.len());
        let lens = rows.iter().map(|r| r.len()).chain(srcs.iter().map(|s| s.len()));
        for len in lens {
            assert!(range.start <= range.end && range.end <= len);
        }
        let k = srcs.len();
        // SAFETY: every access is at `off .. off + 64` with
        // `off + 64 <= range.end`, or masked to the bytes below
        // `range.end`, and `range.end` is within every row and source
        // (asserted above); `loadu`/`storeu` take any alignment.
        unsafe {
            let mut off = range.start;
            while off < range.end {
                // All 64 lanes, or the ones left in the range.
                let mask = match range.end - off {
                    64.. => !0u64,
                    left => (1u64 << left) - 1,
                };
                let mut sum = [_mm512_setzero_si512(); N];
                for (j, src) in srcs.iter().enumerate() {
                    let x = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(off).cast());
                    for (r, s) in sum.iter_mut().enumerate() {
                        let m = _mm512_set1_epi64(mats[r * k + j] as i64);
                        *s = _mm512_xor_si512(*s, _mm512_gf2p8affine_epi64_epi8::<0>(x, m));
                    }
                }
                for (row, s) in rows.iter_mut().zip(sum) {
                    let at = row.as_mut_ptr().add(off);
                    let cur = _mm512_maskz_loadu_epi8(mask, at.cast());
                    _mm512_mask_storeu_epi8(at.cast(), mask, _mm512_xor_si512(cur, s));
                }
                off += 64;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support SSSE3.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], t: &Tables) {
        // SAFETY: loads/stores are unaligned-tolerant (`loadu`/`storeu`) and
        // stay within the 16-byte chunks produced by `chunks_exact`.
        unsafe {
            let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
            let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
            let nib = _mm_set1_epi8(0x0F);
            let mut d = dst.chunks_exact_mut(16);
            let mut s = src.chunks_exact(16);
            for (dc, sc) in (&mut d).zip(&mut s) {
                let x = _mm_loadu_si128(sc.as_ptr().cast());
                let xl = _mm_and_si128(x, nib);
                let xh = _mm_and_si128(_mm_srli_epi64::<4>(x), nib);
                let prod = _mm_xor_si128(_mm_shuffle_epi8(lo, xl), _mm_shuffle_epi8(hi, xh));
                let cur = _mm_loadu_si128(dc.as_ptr().cast());
                _mm_storeu_si128(dc.as_mut_ptr().cast(), _mm_xor_si128(cur, prod));
            }
            gf256::tail_acc(d.into_remainder(), s.remainder(), t.coef);
        }
    }

    /// # Safety
    ///
    /// The CPU must support SSSE3.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_slice_ssse3(dst: &mut [u8], src: &[u8], t: &Tables) {
        // SAFETY: as in `mul_acc_ssse3`.
        unsafe {
            let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
            let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
            let nib = _mm_set1_epi8(0x0F);
            let mut d = dst.chunks_exact_mut(16);
            let mut s = src.chunks_exact(16);
            for (dc, sc) in (&mut d).zip(&mut s) {
                let x = _mm_loadu_si128(sc.as_ptr().cast());
                let xl = _mm_and_si128(x, nib);
                let xh = _mm_and_si128(_mm_srli_epi64::<4>(x), nib);
                let prod = _mm_xor_si128(_mm_shuffle_epi8(lo, xl), _mm_shuffle_epi8(hi, xh));
                _mm_storeu_si128(dc.as_mut_ptr().cast(), prod);
            }
            for (dc, sc) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *dc = gf256::mul(t.coef, *sc);
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], t: &Tables) {
        // SAFETY: unaligned 32-byte loads/stores within `chunks_exact(32)`
        // chunks; the scalar tail covers the remainder.
        unsafe {
            let lo128 = _mm_loadu_si128(t.lo.as_ptr().cast());
            let hi128 = _mm_loadu_si128(t.hi.as_ptr().cast());
            let lo = _mm256_broadcastsi128_si256(lo128);
            let hi = _mm256_broadcastsi128_si256(hi128);
            let nib = _mm256_set1_epi8(0x0F);
            let mut d = dst.chunks_exact_mut(32);
            let mut s = src.chunks_exact(32);
            for (dc, sc) in (&mut d).zip(&mut s) {
                let x = _mm256_loadu_si256(sc.as_ptr().cast());
                let xl = _mm256_and_si256(x, nib);
                let xh = _mm256_and_si256(_mm256_srli_epi64::<4>(x), nib);
                let prod =
                    _mm256_xor_si256(_mm256_shuffle_epi8(lo, xl), _mm256_shuffle_epi8(hi, xh));
                let cur = _mm256_loadu_si256(dc.as_ptr().cast());
                _mm256_storeu_si256(dc.as_mut_ptr().cast(), _mm256_xor_si256(cur, prod));
            }
            gf256::tail_acc(d.into_remainder(), s.remainder(), t.coef);
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_slice_avx2(dst: &mut [u8], src: &[u8], t: &Tables) {
        // SAFETY: as in `mul_acc_avx2`.
        unsafe {
            let lo128 = _mm_loadu_si128(t.lo.as_ptr().cast());
            let hi128 = _mm_loadu_si128(t.hi.as_ptr().cast());
            let lo = _mm256_broadcastsi128_si256(lo128);
            let hi = _mm256_broadcastsi128_si256(hi128);
            let nib = _mm256_set1_epi8(0x0F);
            let mut d = dst.chunks_exact_mut(32);
            let mut s = src.chunks_exact(32);
            for (dc, sc) in (&mut d).zip(&mut s) {
                let x = _mm256_loadu_si256(sc.as_ptr().cast());
                let xl = _mm256_and_si256(x, nib);
                let xh = _mm256_and_si256(_mm256_srli_epi64::<4>(x), nib);
                let prod =
                    _mm256_xor_si256(_mm256_shuffle_epi8(lo, xl), _mm256_shuffle_epi8(hi, xh));
                _mm256_storeu_si256(dc.as_mut_ptr().cast(), prod);
            }
            for (dc, sc) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *dc = gf256::mul(t.coef, *sc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256;

    /// Deterministic pseudo-random bytes (no external RNG crates needed).
    fn fill(buf: &mut [u8], mut seed: u64) {
        for b in buf.iter_mut() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (seed >> 33) as u8;
        }
    }

    /// Lengths hitting every head/tail combination of the 8/16/32-byte
    /// vector widths, plus empty and single-byte edge cases.
    const LENGTHS: [usize; 15] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 4099];

    #[test]
    fn parse_and_names_roundtrip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
            assert_eq!(KernelTier::parse(&tier.name().to_uppercase()), Some(tier));
        }
        assert_eq!(KernelTier::parse("auto"), None);
        assert_eq!(KernelTier::parse(""), None);
        assert_eq!(KernelTier::parse("neon"), None);
    }

    #[test]
    fn detection_always_yields_a_kernel() {
        let k = Kernel::detect();
        assert!(k.tier().supported());
        let avail = Kernel::available();
        assert!(avail.iter().any(|a| a.tier() == KernelTier::Scalar));
        // Detection picks the fastest supported tier.
        let best = avail.last().expect("scalar is always available");
        assert_eq!(k.tier(), best.tier());
    }

    #[test]
    fn select_refuses_unsupported_tiers() {
        for tier in KernelTier::ALL {
            match Kernel::select(tier) {
                Some(k) => assert_eq!(k.tier(), tier),
                None => assert!(!tier.supported()),
            }
        }
    }

    #[test]
    fn mul_acc_matches_scalar_reference_all_tiers() {
        for kernel in Kernel::available() {
            for &len in &LENGTHS {
                let mut src = vec![0u8; len];
                fill(&mut src, 0xDEAD ^ len as u64);
                let mut reference = vec![0u8; len];
                fill(&mut reference, 0xBEEF ^ len as u64);
                let mut out = reference.clone();
                for coef in [0u8, 1, 2, 3, 0x1D, 0x80, 0xFF, 142] {
                    gf256::mul_acc(&mut reference, &src, coef);
                    kernel.mul_acc(&mut out, &src, coef);
                    assert_eq!(out, reference, "{} len={len} coef={coef}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn mul_acc_matches_on_unaligned_heads() {
        // Slice at every offset into an aligned allocation so vector loads
        // see all 32 possible misalignments.
        let len = 1024;
        let mut src = vec![0u8; len + 33];
        fill(&mut src, 77);
        for kernel in Kernel::available() {
            for off in 0..33 {
                let s = &src[off..off + len];
                let mut reference = vec![3u8; s.len()];
                let mut out = reference.clone();
                gf256::mul_acc(&mut reference, s, 0xA7);
                kernel.mul_acc(&mut out, s, 0xA7);
                assert_eq!(out, reference, "{} offset {off}", kernel.name());
            }
        }
    }

    #[test]
    fn mul_acc_exhaustive_coefficients() {
        // Every coefficient over a buffer long enough to engage the vector
        // main loops and a tail.
        let len = 100;
        let mut src = vec![0u8; len];
        fill(&mut src, 31337);
        for kernel in Kernel::available() {
            for coef in 0..=255u8 {
                let mut reference = vec![9u8; len];
                let mut out = reference.clone();
                gf256::mul_acc(&mut reference, &src, coef);
                kernel.mul_acc(&mut out, &src, coef);
                assert_eq!(out, reference, "{} coef={coef}", kernel.name());
            }
        }
    }

    #[test]
    fn mul_slice_matches_scalar_reference_all_tiers() {
        for kernel in Kernel::available() {
            for &len in &LENGTHS {
                let mut src = vec![0u8; len];
                fill(&mut src, 0xACE ^ len as u64);
                for coef in [0u8, 1, 2, 0x1D, 0xFE, 0xFF] {
                    let mut reference = vec![0xAAu8; len];
                    let mut out = vec![0x55u8; len];
                    gf256::mul_slice(&mut reference, &src, coef);
                    kernel.mul_slice(&mut out, &src, coef);
                    assert_eq!(out, reference, "{} len={len} coef={coef}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn mul_acc_many_matches_sequential_single_source_passes() {
        // Cover lengths below, at, and above the tile, with k sources
        // including zero and one coefficients, into one row and into five
        // (a full group of four and one more on the GFNI tier).
        for kernel in Kernel::available() {
            for &len in &[0usize, 1, 63, 1024, TILE - 1, TILE, TILE + 1, 3 * TILE + 17] {
                let k = 6;
                let srcs: Vec<Vec<u8>> = (0..k)
                    .map(|i| {
                        let mut v = vec![0u8; len];
                        fill(&mut v, (i as u64 + 1) * 1009 + len as u64);
                        v
                    })
                    .collect();
                let srcs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
                for rows in [1usize, 5] {
                    let coefs: Vec<u8> = [0u8, 1, 2, 0x53, 0xFF, 29]
                        .iter()
                        .cycle()
                        .skip(rows)
                        .take(rows * k)
                        .copied()
                        .collect();
                    let mut reference: Vec<Vec<u8>> = (0..rows)
                        .map(|r| {
                            let mut v = vec![0u8; len];
                            fill(&mut v, 4242 + len as u64 + r as u64);
                            v
                        })
                        .collect();
                    let mut out = reference.clone();
                    for (r, row) in reference.iter_mut().enumerate() {
                        for (j, s) in srcs.iter().enumerate() {
                            gf256::mul_acc(row, s, coefs[r * k + j]);
                        }
                    }
                    let mut outs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
                    let mut seen = vec![Vec::new(); k];
                    kernel.mul_acc_many(&mut outs, &srcs, &coefs, &mut |j, piece| {
                        seen[j].extend_from_slice(piece)
                    });
                    assert_eq!(out, reference, "{} len={len} rows={rows}", kernel.name());
                    assert_eq!(seen, srcs, "{} len={len}: the hook sees every byte", kernel.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mul_acc_many length mismatch")]
    fn mul_acc_many_rejects_ragged_sources() {
        let short = [1u8, 2, 3];
        let mut dst = [0u8; 4];
        Kernel::detect().mul_acc_many(&mut [&mut dst], &[&short], &[5], &mut |_, _| ());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gfni_matrices_multiply_like_the_field() {
        // The matrix applied by hand, bit by bit, as the instruction does.
        let apply = |m: u64, x: u8| {
            (0..8).fold(0u8, |out, i| {
                let row = (m >> (8 * (7 - i))) as u8;
                out | (((row & x).count_ones() as u8 & 1) << i)
            })
        };
        for coef in 0..=255u8 {
            let m = x86::matrix(coef);
            for x in 0..=255u8 {
                assert_eq!(apply(m, x), gf256::mul(coef, x), "coef {coef} x {x}");
            }
        }
    }
}
