//! Arithmetic in the Galois field GF(2⁸) with the standard Reed–Solomon
//! reducing polynomial `x⁸ + x⁴ + x³ + x² + 1` (0x11D).
//!
//! Addition is XOR; multiplication uses compile-time exponential/logarithm
//! tables generated from the generator element 2.

/// The reducing polynomial, without the leading x⁸ term.
const POLY: u16 = 0x1D;

/// Order of the multiplicative group (2⁸ − 1).
const GROUP_ORDER: usize = 255;

/// `EXP[i] = 2^i` for `i` in `0..510` (doubled so products of logs need no
/// modular reduction).
static EXP: [u8; 510] = build_exp();

/// `LOG[x]` is the discrete log of `x` base 2; `LOG[0]` is unused.
static LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 510] {
    let mut exp = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x as u8;
        exp[i + GROUP_ORDER] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x100 | POLY;
        }
        i += 1;
    }
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < GROUP_ORDER {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Adds two field elements (XOR).
///
/// ```
/// assert_eq!(ear_erasure::gf256::add(0x53, 0xCA), 0x99);
/// ```
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts two field elements; identical to [`add`] in characteristic 2.
#[inline]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
///
/// ```
/// use ear_erasure::gf256::mul;
/// assert_eq!(mul(0, 7), 0);
/// assert_eq!(mul(1, 7), 7);
/// assert_eq!(mul(2, 0x80), 0x1D); // wraps through the reducing polynomial
/// ```
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// The multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a == 0`; zero has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + GROUP_ORDER - LOG[b as usize] as usize]
    }
}

/// Raises `a` to the power `e`.
///
/// `pow(0, 0)` is defined as 1, matching the empty-product convention used
/// when evaluating Vandermonde matrices.
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as usize * e) % GROUP_ORDER;
    EXP[l]
}

/// Multiplies every byte of `src` by `coef` and XORs the products into
/// `dst`: `dst[i] ^= coef * src[i]`.
///
/// This is the inner loop of Reed–Solomon encoding; it is written against a
/// per-coefficient 256-entry product table so the hot loop is a single table
/// lookup and XOR per byte.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_acc(dst: &mut [u8], src: &[u8], coef: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc length mismatch");
    if coef == 0 {
        return;
    }
    if coef == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let table = product_row(coef);
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= table[*s as usize];
    }
}

/// `dst[i] ^= coef · src[i]` by per-byte field multiply, with no
/// per-coefficient table: for the short remainders the vector tiers leave
/// behind, where building [`mul_acc`]'s 256-entry row would dominate.
#[cfg(target_arch = "x86_64")]
pub(crate) fn tail_acc(dst: &mut [u8], src: &[u8], coef: u8) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= mul(coef, *s);
    }
}

/// Multiplies every byte of `src` by `coef`, writing into `dst`.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_slice(dst: &mut [u8], src: &[u8], coef: u8) {
    assert_eq!(dst.len(), src.len(), "mul_slice length mismatch");
    if coef == 0 {
        dst.fill(0);
        return;
    }
    if coef == 1 {
        dst.copy_from_slice(src);
        return;
    }
    let table = product_row(coef);
    for (d, s) in dst.iter_mut().zip(src) {
        *d = table[*s as usize];
    }
}

/// Returns the 256-entry row of products `coef * x` for all `x`.
fn product_row(coef: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    let lc = LOG[coef as usize] as usize;
    for (x, slot) in row.iter_mut().enumerate().skip(1) {
        *slot = EXP[lc + LOG[x] as usize];
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_roundtrip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Reference: schoolbook carry-less multiply with reduction.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            for _ in 0..8 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= POLY as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 == 1 for a={a}");
            assert_eq!(div(a, a), 1);
            assert_eq!(mul(a, 1), a);
            assert_eq!(add(a, a), 0);
        }
        // Associativity and distributivity spot checks over a subsample.
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(mul(a, mul(b, c)), mul(mul(a, b), c));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 5, 29, 255] {
            let mut acc = 1u8;
            for e in 0..20 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 3), 0);
    }

    #[test]
    fn mul_acc_accumulates() {
        let src = [1u8, 2, 3, 250];
        let mut dst = [9u8, 9, 9, 9];
        mul_acc(&mut dst, &src, 7);
        for i in 0..4 {
            assert_eq!(dst[i], 9 ^ mul(7, src[i]));
        }
        // coef == 0 is a no-op.
        let before = dst;
        mul_acc(&mut dst, &src, 0);
        assert_eq!(dst, before);
    }

    #[test]
    fn mul_slice_writes_products() {
        let src = [0u8, 1, 128, 255];
        let mut dst = [0u8; 4];
        mul_slice(&mut dst, &src, 3);
        for i in 0..4 {
            assert_eq!(dst[i], mul(3, src[i]));
        }
        mul_slice(&mut dst, &src, 1);
        assert_eq!(dst, src);
        mul_slice(&mut dst, &src, 0);
        assert_eq!(dst, [0; 4]);
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn inv_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_zero_panics() {
        let _ = div(3, 0);
    }
}
