//! Tiered bulk kernels for GF(2⁸) slice arithmetic — the Reed–Solomon hot
//! path.
//!
//! Every experiment that encodes, repairs, or degraded-reads a stripe bottoms
//! out in `dst[i] ^= coef · src[i]` over block-sized buffers. This module
//! provides that primitive at three performance tiers:
//!
//! * [`KernelTier::Scalar`] — the portable byte-at-a-time product-table loop
//!   from [`crate::gf256`]; the reference all other tiers must match bit for
//!   bit.
//! * [`KernelTier::Ssse3`] — 16 bytes per step via `_mm_shuffle_epi8`
//!   low/high-nibble split product tables (the ISA-L technique).
//! * [`KernelTier::Avx2`] — the same nibble-table technique at 32 bytes per
//!   step via `_mm256_shuffle_epi8`.
//!
//! The active tier is chosen once per process by [`Kernel::active`]: the best
//! tier the CPU supports, unless the `EAR_GF_KERNEL` environment variable
//! (`scalar`, `ssse3`, `avx2`, or `auto`) overrides it. An override
//! naming a tier the CPU cannot run falls back to auto-detection rather than
//! crashing, so a pinned benchmark configuration degrades gracefully on
//! older machines.
//!
//! Besides the single-source [`Kernel::mul_acc`], the codec-facing entry
//! point is [`Kernel::mul_acc_many`]: one fused pass that accumulates all
//! `k` sources of a parity/decode row into the destination in cache-sized
//! blocks, so the destination tile is loaded into L1 once per block instead
//! of once per source.

use crate::gf256;
use std::sync::OnceLock;

/// Destination tile size for [`Kernel::mul_acc_many`] blocking.
///
/// 16 KiB keeps the destination tile plus one streaming source chunk inside
/// a typical 32–48 KiB L1d, so a `k`-source accumulation touches DRAM once
/// per source byte and L1 for every read-modify-write of the destination.
const BLOCK: usize = 16 * 1024;

/// The performance tier of a [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Byte-at-a-time product-table loop (portable reference).
    Scalar,
    /// SSSE3 `_mm_shuffle_epi8` nibble tables, 16 B/step (x86-64 only).
    Ssse3,
    /// AVX2 `_mm256_shuffle_epi8` nibble tables, 32 B/step (x86-64 only).
    Avx2,
}

impl KernelTier {
    /// All tiers, in enumeration order.
    pub const ALL: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Ssse3, KernelTier::Avx2];

    /// The canonical lower-case name (`scalar`, `ssse3`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Ssse3 => "ssse3",
            KernelTier::Avx2 => "avx2",
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
            #[cfg(not(target_arch = "x86_64"))]
            _ => gf256::mul_slice(dst, src, coef),
        }
    }

    /// Fused multi-source accumulation: `dst[i] ^= Σ_j coef_j · src_j[i]`.
    ///
    /// This is the shape of one Reed–Solomon output row (parity during
    /// encode, a recovered shard during decode): all `k` sources contribute
    /// to one destination. Instead of `k` independent full-length passes —
    /// which stream the destination through the cache hierarchy `k` times —
    /// the slice is processed in [`BLOCK`]-sized tiles with all sources
    /// applied to a tile before moving on, so the destination tile stays in
    /// L1 for its entire read-modify-write lifetime.
    ///
    /// Zero coefficients are skipped; length-0 slices are a no-op.
    ///
    /// # Panics
    ///
    /// Panics if any source length differs from `dst.len()`.
    // SAFETY: as in `mul_acc` — tier support proven at construction.
    #[allow(unsafe_code)]
    pub fn mul_acc_many(self, dst: &mut [u8], srcs: &[(&[u8], u8)]) {
        for (src, _) in srcs {
            assert_eq!(dst.len(), src.len(), "mul_acc_many length mismatch");
        }
        // Per-source coefficient tables are built once per call, not once
        // per block: 32 field multiplies per source versus len/BLOCK
        // rebuilds.
        #[cfg(target_arch = "x86_64")]
        let tables: Vec<x86::Tables> = match self.tier {
            KernelTier::Ssse3 | KernelTier::Avx2 => srcs
                .iter()
                .map(|&(_, coef)| x86::Tables::new(coef))
                .collect(),
            _ => Vec::new(),
        };
        let mut start = 0;
        while start < dst.len() {
            let end = (start + BLOCK).min(dst.len());
            for (j, &(src, coef)) in srcs.iter().enumerate() {
                #[cfg(not(target_arch = "x86_64"))]
                let _ = j;
                let d = &mut dst[start..end];
                let s = &src[start..end];
                if coef == 0 {
                    continue;
                }
                if coef == 1 {
                    xor_slice(d, s);
                    continue;
                }
                match self.tier {
                    KernelTier::Scalar => gf256::mul_acc(d, s, coef),
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Ssse3 => unsafe { x86::mul_acc_ssse3(d, s, &tables[j]) },
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => unsafe { x86::mul_acc_avx2(d, s, &tables[j]) },
                    #[cfg(not(target_arch = "x86_64"))]
                    _ => gf256::mul_acc(d, s, coef),
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

/// x86-64 nibble-table kernels (SSSE3 / AVX2).
///
/// For a fixed coefficient `c`, `c · x = c · (x & 0xF) ⊕ c · (x & 0xF0)` by
/// linearity of GF(2⁸) multiplication, so two 16-entry tables — products of
/// `c` with every low nibble and every high nibble — turn a field multiply
/// into two byte shuffles and a XOR. `_mm_shuffle_epi8` performs sixteen
/// such 16-entry lookups per instruction (`_mm256_shuffle_epi8`:
/// thirty-two).
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
        // Cover lengths below, at, and above the blocking tile, with k
        // sources including zero and one coefficients.
        for kernel in Kernel::available() {
            for &len in &[0usize, 1, 63, 1024, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
                let k = 6;
                let coefs = [0u8, 1, 2, 0x53, 0xFF, 29];
                let srcs: Vec<Vec<u8>> = (0..k)
                    .map(|i| {
                        let mut v = vec![0u8; len];
                        fill(&mut v, (i as u64 + 1) * 1009 + len as u64);
                        v
                    })
                    .collect();
                let mut reference = vec![0u8; len];
                fill(&mut reference, 4242 + len as u64);
                let mut out = reference.clone();
                for (s, &c) in srcs.iter().zip(&coefs) {
                    gf256::mul_acc(&mut reference, s, c);
                }
                let pairs: Vec<(&[u8], u8)> = srcs
                    .iter()
                    .map(|s| s.as_slice())
                    .zip(coefs.iter().copied())
                    .collect();
                kernel.mul_acc_many(&mut out, &pairs);
                assert_eq!(out, reference, "{} len={len}", kernel.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "mul_acc_many length mismatch")]
    fn mul_acc_many_rejects_ragged_sources() {
        let short = [1u8, 2, 3];
        let mut dst = [0u8; 4];
        Kernel::detect().mul_acc_many(&mut dst, &[(&short, 5)]);
    }
}
