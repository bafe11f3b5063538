//! End-to-end dispatch coverage: Reed–Solomon encode → decode → repair must
//! be bit-identical through *every* kernel tier, selected the same way
//! production code selects it — via the `EAR_GF_KERNEL` environment
//! override feeding [`Kernel::from_env`] (the uncached initializer behind
//! [`Kernel::active`]).
//!
//! Uses only `std`, so it runs even where the dev-dependency registry is
//! unreachable (see `scripts/check.sh`).

use ear_erasure::{Kernel, KernelTier, ReedSolomon};
use ear_types::ErasureParams;

fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 0x9E37 + j * 0x85EB + 11) % 256) as u8)
                .collect()
        })
        .collect()
}

type Shards = Vec<Vec<u8>>;

/// Full stripe lifecycle under `codec`: encode, decode after maximal
/// erasure, and parity repair. Returns the artifacts so tiers can be
/// compared bit for bit.
fn round_trip(codec: &ReedSolomon, data: &[Vec<u8>]) -> (Shards, Shards, Shards) {
    let n = codec.params().n();
    let k = codec.params().k();
    let parity = codec.encode(data).unwrap();

    // Decode: erase n - k shards (mix of data and parity), reconstruct all.
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
    let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
    for e in 0..(n - k) {
        // Alternate erasures between the data and parity halves.
        let idx = if e % 2 == 0 { e / 2 } else { n - 1 - e / 2 };
        shards[idx] = None;
    }
    codec.reconstruct(&mut shards).unwrap();
    let decoded: Vec<Vec<u8>> = shards.into_iter().map(|s| s.unwrap()).collect();
    assert_eq!(decoded, full, "reconstruct must restore the exact stripe");

    // Repair: lose only parity, recompute it from intact data.
    let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
    for slot in shards.iter_mut().skip(k) {
        *slot = None;
    }
    codec.reconstruct(&mut shards).unwrap();
    let repaired: Vec<Vec<u8>> = shards.into_iter().skip(k).map(|s| s.unwrap()).collect();

    (parity, decoded, repaired)
}

#[test]
fn rs_round_trip_is_bit_identical_across_all_tiers_via_env_override() {
    let params = ErasureParams::new(10, 8).unwrap();
    // Longer than one 16 KiB blocking tile, odd length for vector tails.
    let data = sample_data(8, 20 * 1024 + 5);

    let scalar = Kernel::select(KernelTier::Scalar).expect("scalar always available");
    let reference = round_trip(&ReedSolomon::with_kernel(params, scalar), &data);

    // All env-var manipulation lives in this single #[test] so parallel
    // test threads never race on the process environment.
    for tier in KernelTier::ALL {
        std::env::set_var("EAR_GF_KERNEL", tier.name());
        let kernel = Kernel::from_env();
        if tier.supported() {
            assert_eq!(
                kernel.tier(),
                tier,
                "EAR_GF_KERNEL={} must dispatch to that tier",
                tier.name()
            );
        } else {
            assert_eq!(
                kernel.tier(),
                Kernel::detect().tier(),
                "unsupported override must fall back to detection"
            );
        }
        let got = round_trip(&ReedSolomon::with_kernel(params, kernel), &data);
        assert_eq!(
            got, reference,
            "tier {} produced different stripe artifacts",
            tier.name()
        );
    }

    // Unknown and auto overrides fall back to best-available.
    for junk in ["auto", "", "neon", "avx512"] {
        std::env::set_var("EAR_GF_KERNEL", junk);
        assert_eq!(Kernel::from_env().tier(), Kernel::detect().tier(), "{junk:?}");
    }
    std::env::remove_var("EAR_GF_KERNEL");
    assert_eq!(Kernel::from_env().tier(), Kernel::detect().tier());
}

#[test]
fn codec_reports_its_kernel() {
    let params = ErasureParams::new(6, 4).unwrap();
    for kernel in Kernel::available() {
        let codec = ReedSolomon::with_kernel(params, kernel);
        assert_eq!(codec.kernel().tier(), kernel.tier());
        assert!(!codec.kernel().name().is_empty());
    }
    // The default constructor uses the process-wide selection.
    assert_eq!(
        ReedSolomon::new(params).kernel().tier(),
        Kernel::active().tier()
    );
}
