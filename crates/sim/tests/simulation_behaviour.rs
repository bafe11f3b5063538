//! Behavioural tests of the CFS simulator: the qualitative results the paper
//! reports must emerge from the model (EAR beats RR on encoding throughput,
//! EAR never does cross-rack downloads, RR relocates in small clusters,
//! writes slow down while encoding runs, determinism under a fixed seed).

use ear_core::ClusterPolicy;
use ear_sim::{run, SimConfig};
use ear_types::{Bandwidth, ByteSize, ErasureParams};

fn small_b2_config() -> SimConfig {
    SimConfig {
        racks: 12,
        nodes_per_rack: 4,
        erasure: ErasureParams::new(9, 6).unwrap(),
        block_size: ByteSize::mib(64),
        encode_processes: 4,
        stripes_per_process: 5,
        write_rate: 0.5,
        background_rate: 0.5,
        ..SimConfig::default()
    }
}

#[test]
fn ear_encodes_faster_than_rr() {
    let mut ear_wins = 0;
    for seed in 0..3 {
        // 60 stripes per run: at 20 the race between background traffic and
        // encode transfers is noisy enough that a single seed's RNG stream
        // can flip the ordering; at 60 EAR's ~20% margin dominates the noise
        // for any uniform stream.
        let mut base = small_b2_config().with_seed(seed);
        base.stripes_per_process = 15;
        let ear = run(&base.clone().with_policy(ClusterPolicy::Ear)).unwrap();
        let rr = run(&base.with_policy(ClusterPolicy::Rr)).unwrap();
        assert_eq!(ear.encode_completions.len(), 60);
        assert_eq!(rr.encode_completions.len(), 60);
        if ear.encoding_throughput() > rr.encoding_throughput() {
            ear_wins += 1;
        }
    }
    assert_eq!(ear_wins, 3, "EAR should beat RR on encoding throughput");
}

#[test]
fn ear_has_zero_cross_rack_downloads_rr_does_not() {
    let base = small_b2_config().with_seed(7);
    let ear = run(&base.clone().with_policy(ClusterPolicy::Ear)).unwrap();
    let rr = run(&base.with_policy(ClusterPolicy::Rr)).unwrap();
    assert_eq!(ear.cross_rack_downloads, 0);
    assert_eq!(ear.stripes_with_relocation, 0);
    // Section II-B: RR downloads almost k blocks across racks per stripe.
    let per_stripe = rr.cross_rack_downloads as f64 / 20.0;
    assert!(
        per_stripe > 3.0,
        "RR averaged only {per_stripe} cross-rack downloads per stripe"
    );
}

#[test]
fn rr_relocations_appear_in_small_clusters() {
    // (6,4) over exactly 6 racks with c = 1: each stripe must span every
    // rack, so RR's independent placement frequently leaves some subset of
    // blocks squeezed into too few racks (Section II-B).
    let mut any = 0;
    for seed in 0..3 {
        let cfg = SimConfig {
            racks: 6,
            nodes_per_rack: 4,
            erasure: ErasureParams::new(6, 4).unwrap(),
            encode_processes: 4,
            stripes_per_process: 20,
            write_rate: 0.0,
            background_rate: 0.0,
            policy: ClusterPolicy::Rr,
            seed: 100 + seed,
            ..SimConfig::default()
        };
        let r = run(&cfg).unwrap();
        any += r.stripes_with_relocation;
    }
    assert!(any > 0, "RR should need relocation in a 6-rack cluster");
}

#[test]
fn writes_complete_and_slow_down_during_encoding() {
    let mut cfg = small_b2_config().with_seed(11);
    cfg.encode_start = 60.0;
    cfg.write_rate = 0.4;
    cfg.policy = ClusterPolicy::Rr;
    let r = run(&cfg).unwrap();
    assert!(!r.write_responses.is_empty());
    let before = r.mean_write_response_before_encoding();
    let during = r.mean_write_response_during_encoding();
    assert!(before > 0.0);
    assert!(
        during > before,
        "write responses should degrade while encoding runs: before={before} during={during}"
    );
}

#[test]
fn deterministic_under_fixed_seed() {
    let cfg = small_b2_config().with_seed(42);
    let a = run(&cfg).unwrap();
    let b = run(&cfg).unwrap();
    assert_eq!(a.encode_completions, b.encode_completions);
    assert_eq!(a.write_responses, b.write_responses);
    assert_eq!(a.cross_rack_downloads, b.cross_rack_downloads);
}

#[test]
fn different_seeds_differ() {
    let a = run(&small_b2_config().with_seed(1)).unwrap();
    let b = run(&small_b2_config().with_seed(2)).unwrap();
    assert_ne!(a.encode_completions, b.encode_completions);
}

#[test]
fn standalone_writes_without_encoding() {
    let cfg = SimConfig {
        racks: 12,
        nodes_per_rack: 1,
        erasure: ErasureParams::new(10, 8).unwrap(),
        replication: ear_types::ReplicationConfig::two_way(),
        encode_processes: 0,
        stripes_per_process: 0,
        write_rate: 0.5,
        background_rate: 0.0,
        standalone_writes: 40,
        policy: ClusterPolicy::Rr,
        ..SimConfig::default()
    };
    let r = run(&cfg).unwrap();
    assert_eq!(r.write_responses.len(), 40);
    assert_eq!(r.encode_completions.len(), 0);
    assert_eq!(r.encoding_throughput(), 0.0);
    // A 64 MiB block over two 1 Gb/s hops takes >= 2 * 0.537 s.
    assert!(r.mean_write_response() >= 1.0);
}

#[test]
fn lower_bandwidth_lowers_encoding_throughput() {
    let mut fast = small_b2_config().with_seed(3);
    fast.write_rate = 0.0;
    fast.background_rate = 0.0;
    let mut slow = fast.clone();
    slow.node_bandwidth = Bandwidth::gbit(0.2);
    slow.rack_bandwidth = Bandwidth::gbit(0.2);
    let rf = run(&fast).unwrap();
    let rs = run(&slow).unwrap();
    assert!(rf.encoding_throughput() > rs.encoding_throughput() * 2.0);
}

#[test]
fn testbed_config_reproduces_throughput_ordering_across_k() {
    // Fig. 8(a): encoding throughput grows with k (fewer parity blocks per
    // data block) for both policies. A single run's span is set by whichever
    // link the draw loads most, so the claim is about the mean over seeds,
    // as in the paper ("averaged over 30 runs").
    const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
    let mut prev_ear = 0.0;
    for (n, k) in [(6usize, 4usize), (8, 6), (10, 8)] {
        let mut cfg = SimConfig::testbed(ClusterPolicy::Ear, ErasureParams::new(n, k).unwrap());
        cfg.stripes_per_process = 2;
        let total: f64 = SEEDS
            .iter()
            .map(|&seed| {
                run(&cfg.clone().with_seed(seed))
                    .unwrap()
                    .encoding_throughput()
            })
            .sum();
        let t = total / SEEDS.len() as f64;
        assert!(
            t > prev_ear,
            "throughput should increase with k: {t} !> {prev_ear}"
        );
        prev_ear = t;
    }
}

#[test]
fn simulating_relocation_slows_rr_but_not_ear() {
    // The paper skips relocation traffic, over-estimating RR (Experiment
    // B.2). Enabling it must cost RR encoding time and leave EAR untouched
    // (EAR never relocates). Encoding plans come from a per-stripe RNG, so
    // the two RR runs are identical except for the relocation transfers —
    // the throughput comparison is exact, not statistical.
    let base = SimConfig {
        racks: 6,
        nodes_per_rack: 4,
        erasure: ErasureParams::new(6, 4).unwrap(),
        encode_processes: 4,
        // Enough stripes that a tight 6-rack RR cluster violates with
        // near-certainty (~5% per stripe) regardless of the RNG stream, so
        // the test does not pin a particular seed's bit-sequence.
        stripes_per_process: 60,
        write_rate: 0.0,
        background_rate: 0.0,
        seed: 77,
        ..SimConfig::default()
    };
    let mut with_reloc = base.clone();
    with_reloc.simulate_relocation = true;

    let rr_plain = run(&base.clone().with_policy(ClusterPolicy::Rr)).unwrap();
    let rr_reloc = run(&with_reloc.clone().with_policy(ClusterPolicy::Rr)).unwrap();
    assert!(
        rr_plain.stripes_with_relocation > 0,
        "tight cluster must violate"
    );
    assert!(
        rr_reloc.encoding_throughput() < rr_plain.encoding_throughput(),
        "relocation transfers must cost RR throughput: {} !< {}",
        rr_reloc.encoding_throughput(),
        rr_plain.encoding_throughput()
    );

    let ear_plain = run(&base.clone().with_policy(ClusterPolicy::Ear)).unwrap();
    let ear_reloc = run(&with_reloc.with_policy(ClusterPolicy::Ear)).unwrap();
    assert_eq!(ear_plain.stripes_with_relocation, 0);
    assert_eq!(
        ear_plain.encode_completions, ear_reloc.encode_completions,
        "EAR is unaffected by the relocation switch"
    );
}

#[test]
fn a_zero_rack_or_node_count_is_a_typed_error() {
    for (racks, nodes_per_rack) in [(0, 20), (20, 0)] {
        let cfg = SimConfig { racks, nodes_per_rack, ..SimConfig::default() };
        assert!(matches!(run(&cfg), Err(ear_types::Error::TopologyTooSmall { .. })));
    }
}
