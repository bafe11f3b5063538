//! Property tests: every GF(2⁸) kernel tier available on this machine must
//! be byte-identical to the reference scalar implementation for random
//! buffers, coefficients, lengths, and alignments — including length 0/1
//! edge cases and unaligned heads/tails.

use ear_erasure::{gf256, Kernel};
use ear_types::prop::{check, range};
use ear_types::rng::ChaCha8;

/// Random buffer lengths biased toward vector-width boundaries.
fn len(rng: &mut ChaCha8) -> usize {
    let len = match rng.below(6) {
        0 => 0,
        1 => 1,
        2 => range(rng, 1..=64),
        3 => *rng.choose(&[7, 8, 15, 16, 31, 32, 33]).expect("non-empty"),
        4 => range(rng, 65..=4096),
        // Past the mul_acc_many L1 blocking tile.
        _ => range(rng, 16 * 1024 - 2..=16 * 1024 + 34),
    };
    len as usize
}

fn bytes(rng: &mut ChaCha8, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// `mul_acc` agrees with the scalar reference on every available tier.
#[test]
fn mul_acc_equivalent_across_tiers() {
    check("mul_acc_equivalent_across_tiers", 128, |rng| {
        let len = len(rng);
        let coef = rng.next_u32() as u8;
        let head = range(rng, 0..=33) as usize;
        let bytes = bytes(rng, len + head);
        // Unaligned head: slice `head` bytes into the allocation.
        let src = &bytes[head..];
        let mut reference = vec![0x5Au8; src.len()];
        gf256::mul_acc(&mut reference, src, coef);
        for kernel in Kernel::available() {
            let mut out = vec![0x5Au8; src.len()];
            kernel.mul_acc(&mut out, src, coef);
            assert_eq!(&out, &reference, "tier {}", kernel.name());
        }
    });
}

/// `mul_slice` agrees with the scalar reference on every available tier.
#[test]
fn mul_slice_equivalent_across_tiers() {
    check("mul_slice_equivalent_across_tiers", 128, |rng| {
        let len = len(rng);
        let coef = rng.next_u32() as u8;
        let src = bytes(rng, len);
        let mut reference = vec![0u8; len];
        gf256::mul_slice(&mut reference, &src, coef);
        for kernel in Kernel::available() {
            let mut out = vec![0xA5u8; len];
            kernel.mul_slice(&mut out, &src, coef);
            assert_eq!(&out, &reference, "tier {}", kernel.name());
        }
    });
}

/// The fused `mul_acc_many` equals k sequential scalar `mul_acc` passes
/// on every available tier, for random source counts and coefficients.
#[test]
fn mul_acc_many_equivalent_across_tiers() {
    check("mul_acc_many_equivalent_across_tiers", 128, |rng| {
        let len = len(rng);
        let sources = range(rng, 1..=14) as usize;
        let coefs = bytes(rng, sources);
        let srcs: Vec<Vec<u8>> = (0..sources).map(|_| bytes(rng, len)).collect();
        let init = bytes(rng, len);
        let mut reference = init.clone();
        for (src, &coef) in srcs.iter().zip(&coefs) {
            gf256::mul_acc(&mut reference, src, coef);
        }
        let pairs: Vec<(&[u8], u8)> = srcs
            .iter()
            .map(|v| v.as_slice())
            .zip(coefs.iter().copied())
            .collect();
        for kernel in Kernel::available() {
            let mut out = init.clone();
            kernel.mul_acc_many(&mut out, &pairs);
            assert_eq!(&out, &reference, "tier {}", kernel.name());
        }
    });
}

/// Single-element algebra: kernels implement the same field multiply as
/// `gf256::mul` for every (coefficient, byte) pair the runner draws.
#[test]
fn kernels_agree_with_field_mul_pointwise() {
    check("kernels_agree_with_field_mul_pointwise", 128, |rng| {
        let (a, b) = (rng.next_u32() as u8, rng.next_u32() as u8);
        for kernel in Kernel::available() {
            let mut out = [0u8];
            kernel.mul_slice(&mut out, &[b], a);
            assert_eq!(out[0], gf256::mul(a, b), "tier {}", kernel.name());
        }
    });
}
