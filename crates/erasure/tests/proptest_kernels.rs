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
        // Past the mul_acc_many tile.
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

/// Tile-crossing lengths and lengths that leave a partial 64-byte vector.
fn tiled_len(rng: &mut ChaCha8) -> usize {
    let tile = ear_erasure::kernels::TILE as u64;
    match rng.below(3) {
        0 => len(rng),
        1 => range(rng, 1..=3) as usize * tile as usize + range(rng, 0..=63) as usize,
        _ => range(rng, 64..=3 * tile) as usize,
    }
}

/// The fused `mul_acc_many` equals `rows × k` sequential scalar `mul_acc`
/// passes on every available tier, for random row and source counts and
/// coefficients (0 and 1 drawn often), and shows the hook every source byte
/// in order.
#[test]
fn mul_acc_many_equivalent_across_tiers() {
    check("mul_acc_many_equivalent_across_tiers", 128, |rng| {
        let len = tiled_len(rng);
        let rows = range(rng, 1..=6) as usize;
        let sources = range(rng, 1..=14) as usize;
        let coefs: Vec<u8> = (0..rows * sources)
            .map(|_| match rng.below(4) {
                0 => 0,
                1 => 1,
                _ => rng.next_u32() as u8,
            })
            .collect();
        let srcs: Vec<Vec<u8>> = (0..sources).map(|_| bytes(rng, len)).collect();
        let srcs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let init: Vec<Vec<u8>> = (0..rows).map(|_| bytes(rng, len)).collect();
        let mut reference = init.clone();
        for (r, row) in reference.iter_mut().enumerate() {
            for (j, src) in srcs.iter().enumerate() {
                gf256::mul_acc(row, src, coefs[r * sources + j]);
            }
        }
        for kernel in Kernel::available() {
            let mut out = init.clone();
            let mut outs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            let mut seen = vec![Vec::new(); sources];
            kernel.mul_acc_many(&mut outs, &srcs, &coefs, &mut |j, piece| {
                seen[j].extend_from_slice(piece)
            });
            assert_eq!(out, reference, "tier {} len {len} rows {rows}", kernel.name());
            assert_eq!(seen, srcs, "tier {} len {len}", kernel.name());
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
