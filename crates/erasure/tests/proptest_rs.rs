//! Property-based tests for the Reed–Solomon codec: the MDS property
//! (any k of n shards reconstruct the stripe) must hold for random
//! parameters, random payloads, and random erasure patterns.

use ear_erasure::ReedSolomon;
use ear_types::ErasureParams;
use proptest::prelude::*;

/// Strategy producing valid (n, k) pairs in the paper's practical range.
fn params_strategy() -> impl Strategy<Value = ErasureParams> {
    (2usize..=16).prop_flat_map(|k| {
        (Just(k), (k + 1)..=(k + 6)).prop_map(|(k, n)| ErasureParams::new(n, k).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Erasing any subset of up to n-k shards still reconstructs the stripe.
    #[test]
    fn mds_property_random_erasures(
        params in params_strategy(),
        seed in any::<u64>(),
    ) {
        let k = params.k();
        let n = params.n();
        let rs = ReedSolomon::new(params);
        // Deterministic payload from the seed keeps the strategy small.
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..64u64).map(|j| ((seed ^ (i as u64 * 0x9E3779B9) ^ j.wrapping_mul(0x85EBCA6B)) % 256) as u8).collect())
            .collect();
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Choose an erasure pattern from the seed: erase exactly n-k shards.
        let mut erased: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            erased.swap(i, j);
        }
        erased.truncate(n - k);

        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &e in &erased {
            shards[e] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.as_ref().unwrap(), &full[i]);
        }
    }

    /// Encoding is linear: encode(a XOR b) == encode(a) XOR encode(b).
    #[test]
    fn encoding_is_linear(params in params_strategy(), a in any::<u64>(), b in any::<u64>()) {
        let k = params.k();
        let rs = ReedSolomon::new(params);
        let mk = |seed: u64| -> Vec<Vec<u8>> {
            (0..k)
                .map(|i| (0..32u64).map(|j| ((seed ^ (i as u64) << 3 ^ j.wrapping_mul(31)) % 256) as u8).collect())
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
            prop_assert_eq!(p, &manual);
        }
    }

    /// verify() accepts genuine parity and rejects any single-byte flip.
    #[test]
    fn verify_rejects_bit_flips(
        params in params_strategy(),
        seed in any::<u64>(),
        flip_shard in any::<prop::sample::Index>(),
        flip_byte in any::<prop::sample::Index>(),
    ) {
        let k = params.k();
        let rs = ReedSolomon::new(params);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..16u64).map(|j| ((seed ^ (i as u64 * 7) ^ j) % 256) as u8).collect())
            .collect();
        let mut parity = rs.encode(&data).unwrap();
        prop_assert!(rs.verify(&data, &parity).unwrap());
        let si = flip_shard.index(parity.len());
        let bi = flip_byte.index(parity[si].len());
        parity[si][bi] ^= 0x01;
        prop_assert!(!rs.verify(&data, &parity).unwrap());
    }
}
