//! Property-based tests for the Reed–Solomon codec: the MDS property
//! (any k of n shards reconstruct the stripe) must hold for random
//! parameters, random payloads, and random erasure patterns.

use ear_erasure::ReedSolomon;
use ear_types::prop::{check, range};
use ear_types::rng::ChaCha8;
use ear_types::ErasureParams;

/// A valid (n, k) pair in the paper's practical range.
fn params(rng: &mut ChaCha8) -> ErasureParams {
    let k = range(rng, 2..=16) as usize;
    let n = k + range(rng, 1..=6) as usize;
    ErasureParams::new(n, k).expect("valid")
}

/// Erasing any subset of up to n-k shards still reconstructs the stripe.
#[test]
fn mds_property_random_erasures() {
    check("mds_property_random_erasures", 64, |rng| {
        let params = params(rng);
        let seed = rng.next_u64();
        let k = params.k();
        let n = params.n();
        let rs = ReedSolomon::new(params);
        // Deterministic payload from the seed keeps the inputs small.
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..64u64)
                    .map(|j| {
                        ((seed ^ (i as u64 * 0x9E3779B9) ^ j.wrapping_mul(0x85EBCA6B)) % 256) as u8
                    })
                    .collect()
            })
            .collect();
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Erase exactly n-k shards.
        let erased = rng.sample_indices(n, n - k);
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &e in &erased {
            shards[e] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.as_ref().unwrap(), &full[i]);
        }
    });
}

/// Encoding is linear: encode(a XOR b) == encode(a) XOR encode(b).
#[test]
fn encoding_is_linear() {
    check("encoding_is_linear", 64, |rng| {
        let params = params(rng);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let k = params.k();
        let rs = ReedSolomon::new(params);
        let mk = |seed: u64| -> Vec<Vec<u8>> {
            (0..k)
                .map(|i| {
                    (0..32u64)
                        .map(|j| ((seed ^ (i as u64) << 3 ^ j.wrapping_mul(31)) % 256) as u8)
                        .collect()
                })
                .collect()
        };
        let da = mk(a);
        let db = mk(b);
        let dxor: Vec<Vec<u8>> = da
            .iter()
            .zip(&db)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let pa = rs.encode(&da).unwrap();
        let pb = rs.encode(&db).unwrap();
        let pxor = rs.encode(&dxor).unwrap();
        for (i, p) in pxor.iter().enumerate() {
            let manual: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(x, y)| x ^ y).collect();
            assert_eq!(p, &manual);
        }
    });
}

/// Whether `parity` is what `rs` encodes `data` to.
fn verify(rs: &ReedSolomon, data: &[Vec<u8>], parity: &[Vec<u8>]) -> bool {
    rs.encode(data).unwrap() == parity
}

/// Re-encoding accepts genuine parity and rejects any single-byte flip.
#[test]
fn verify_rejects_bit_flips() {
    check("verify_rejects_bit_flips", 64, |rng| {
        let params = params(rng);
        let seed = rng.next_u64();
        let k = params.k();
        let rs = ReedSolomon::new(params);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..16u64)
                    .map(|j| ((seed ^ (i as u64 * 7) ^ j) % 256) as u8)
                    .collect()
            })
            .collect();
        let mut parity = rs.encode(&data).unwrap();
        assert!(verify(&rs, &data, &parity));
        let si = rng.below(parity.len() as u64) as usize;
        let bi = rng.below(parity[si].len() as u64) as usize;
        parity[si][bi] ^= 0x01;
        assert!(!verify(&rs, &data, &parity));
    });
}
