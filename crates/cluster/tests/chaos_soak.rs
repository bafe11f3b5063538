//! Chaos soak: 100 seeded fault plans (50 per policy, light and heavy
//! mixes) against the EAR and RR testbed configurations, asserting the
//! three invariants of [`ear_cluster::chaos`]:
//!
//! 1. no acknowledged block is lost while failures per stripe stay within
//!    the code's `n - k` tolerance (per-replica-set tolerance for
//!    not-yet-encoded blocks);
//! 2. EAR encodes with zero rack-fault-tolerance violations under every
//!    plan, and RR's violations are repaired to zero by the BlockMover;
//! 3. every phase terminates with a typed result — no panic, no hang.
//!
//! A failure names the plan seed; `ear chaos --seed <s> --policy <p>
//! --profile <light|heavy>` replays it.

use ear_cluster::chaos::{run_plan, ChaosConfig};
use ear_cluster::ClusterPolicy;
use ear_faults::FaultConfig;
use ear_types::prop::check;
use ear_types::{CacheConfig, StoreBackend};

fn soak(policy: ClusterPolicy, seeds: std::ops::Range<u64>) {
    let mut verified = 0usize;
    let mut encoded = 0usize;
    for seed in seeds {
        // Alternate light and heavy fault mixes across the seed range.
        let cfg = if seed.is_multiple_of(2) {
            ChaosConfig::light(policy)
        } else {
            ChaosConfig::heavy(policy)
        };
        let report = run_plan(seed, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed} {policy:?}: harness error {e}"));
        assert!(
            report.passed(policy),
            "seed {seed} {policy:?} violated invariants: {report:?}"
        );
        verified += report.stripes_verified;
        encoded += report.encoded_stripes;
    }
    // The soak must actually exercise the machinery, not vacuously pass.
    assert!(encoded > 0, "{policy:?} soak never encoded a stripe");
    assert!(verified > 0, "{policy:?} soak never verified a stripe");
}

#[test]
fn ear_survives_fifty_seeded_plans() {
    soak(ClusterPolicy::Ear, 0..50);
}

#[test]
fn rr_survives_fifty_seeded_plans() {
    soak(ClusterPolicy::Rr, 0..50);
}

/// Same seed + plan ⇒ a bit-identical report on the memory and extent
/// backends, under the full lossy fault mix at the profiles' own encode
/// parallelism; thread-count invariance is covered below.
#[test]
fn chaos_reports_are_bit_identical_across_backends() {
    for (seed, heavy) in [(3u64, false), (11, false), (104, true)] {
        let cfg = |store| {
            let base = if heavy {
                ChaosConfig::heavy(ClusterPolicy::Ear)
            } else {
                ChaosConfig::light(ClusterPolicy::Ear)
            };
            ChaosConfig {
                store,
                ..base
            }
        };
        let mem = run_plan(seed, &cfg(StoreBackend::Memory)).expect("memory run");
        assert!(mem.passed(ClusterPolicy::Ear), "seed {seed}: {mem:?}");
        let ext = run_plan(seed, &cfg(StoreBackend::Extent)).expect("extent run");
        assert_eq!(
            format!("{mem:?}"),
            format!("{ext:?}"),
            "seed {seed}: extent diverged from memory"
        );
    }
}

/// Same seed + plan ⇒ a bit-identical report whether the block cache is
/// off or on, and — with the cache on — across both storage backends.
/// The cache sits server-side and only elides redundant CRC
/// re-verification of already-verified bytes; every read still pays the
/// emulated wire, so no data-plane outcome (and hence no report field)
/// may depend on the cache configuration.
#[test]
fn chaos_reports_are_bit_identical_across_cache_configs() {
    let small = CacheConfig::Sized { bytes: 5 << 20 };
    for (seed, heavy) in [(3u64, false), (104, true)] {
        let cfg = |store, cache| {
            let base = if heavy {
                ChaosConfig::heavy(ClusterPolicy::Ear)
            } else {
                ChaosConfig::light(ClusterPolicy::Ear)
            };
            ChaosConfig {
                store,
                cache,
                ..base
            }
        };
        let off = run_plan(seed, &cfg(StoreBackend::Memory, CacheConfig::Off)).expect("cache-off");
        assert!(off.passed(ClusterPolicy::Ear), "seed {seed}: {off:?}");
        let baseline = format!("{off:?}");
        for (store, cache) in [
            (StoreBackend::Memory, small),
            (StoreBackend::Extent, small),
            (StoreBackend::Extent, CacheConfig::default()),
        ] {
            let on = run_plan(seed, &cfg(store, cache)).expect("cache-on");
            assert_eq!(
                baseline,
                format!("{on:?}"),
                "seed {seed}: {} cache {} diverged from memory cache-off",
                store.name(),
                cache.label()
            );
        }
    }
}

/// Same seed + plan ⇒ the same report regardless of encode parallelism
/// or backend, under both policies (RR's encode folds dense racks and its
/// BlockMover relocates) and three kinds of plan: crashes active before the
/// first operation, lossy I/O with no crash at all (corruption and
/// transient errors hash block ids, parity ids included), and the light
/// profile's own mix, whose crashes land mid-run on the operation clock.
/// Parity ids are reserved in stripe order and every encode and repair
/// task counts operations on its own clock, so none of it follows the
/// scheduler.
#[test]
fn chaos_reports_are_identical_across_thread_counts_and_backends() {
    let crash_only = FaultConfig {
        straggler_delay: ear_faults::DelayModel::Throttle,
        node_crashes: 2,
        rack_outages: 0,
        stragglers: 0,
        straggler_factor: 1.0,
        transient_error_rate: 0.0,
        corruption_rate: 0.0,
        heartbeat_loss_rate: 0.0,
        // Both crashes active before the first operation.
        crash_window: 1,
    };
    let lossy_only = FaultConfig {
        node_crashes: 0,
        transient_error_rate: 0.02,
        corruption_rate: 0.02,
        ..crash_only.clone()
    };
    for (policy, seed) in [
        (ClusterPolicy::Ear, 1u64),
        (ClusterPolicy::Ear, 9),
        (ClusterPolicy::Ear, 42),
        (ClusterPolicy::Rr, 1),
        (ClusterPolicy::Rr, 9),
    ] {
        // Every seed under the crash-only plan, one per policy under the
        // other two.
        let kinds = [
            ("crash-only", &crash_only),
            ("lossy-only", &lossy_only),
            ("light", &FaultConfig::light()),
        ];
        for (kind, faults) in kinds.into_iter().take(if seed == 9 { 3 } else { 1 }) {
            let mk = |store, map_tasks| ChaosConfig {
                faults: faults.clone(),
                map_tasks,
                store,
                ..ChaosConfig::light(policy)
            };
            let baseline = run_plan(seed, &mk(StoreBackend::Memory, 1)).expect("baseline run");
            assert!(baseline.passed(policy), "seed {seed} {policy:?} {kind}: {baseline:?}");
            for store in [StoreBackend::Memory, StoreBackend::Extent] {
                for map_tasks in [1usize, 4, 8] {
                    let report = run_plan(seed, &mk(store, map_tasks)).expect("run");
                    assert_eq!(
                        format!("{baseline:?}"),
                        format!("{report:?}"),
                        "seed {seed} {policy:?} {kind}: {} x{map_tasks} diverged from memory x1",
                        store.name()
                    );
                }
            }
        }
    }
}

/// The straggler-heavy soak (DESIGN.md §14): several nodes with a
/// heavy-tailed Pareto delay, hedging on vs off over pinned seeds. Both
/// runs must lose nothing and fail only typed; the hedged tail must be
/// strictly shorter in aggregate, with real hedges launched and won.
#[test]
fn straggler_heavy_soak_hedging_cuts_tail_latency() {
    let mut hedged_p99 = 0u64;
    let mut unhedged_p99 = 0u64;
    let mut hedges_launched = 0u64;
    let mut hedges_won = 0u64;
    for seed in 0..8u64 {
        let mk = |hedging| ChaosConfig {
            hedging,
            ..ChaosConfig::straggler_heavy(ClusterPolicy::Ear)
        };
        let hedged = run_plan(seed, &mk(true)).expect("hedged run");
        let unhedged = run_plan(seed, &mk(false)).expect("unhedged run");
        for r in [&hedged, &unhedged] {
            // Zero acked-block loss under pure straggler + lossy-I/O chaos;
            // any probe-read failure is typed, never a hang or panic.
            assert!(r.passed(ClusterPolicy::Ear), "seed {seed}: {r:?}");
            assert!(r.read_ops > 0, "seed {seed}: probe never read");
        }
        assert_eq!(unhedged.hedges_launched, 0, "hedging off must not hedge");
        hedged_p99 += hedged.read_p99_ticks;
        unhedged_p99 += unhedged.read_p99_ticks;
        hedges_launched += hedged.hedges_launched;
        hedges_won += hedged.hedges_won;
    }
    assert!(hedges_launched > 0, "stragglers must trigger hedges");
    assert!(hedges_won > 0, "some hedge legs must beat the straggler");
    assert!(
        hedged_p99 < unhedged_p99,
        "hedged p99 sum {hedged_p99} must beat unhedged {unhedged_p99}"
    );
}

/// Hedging is latency-only machinery: under any straggler-free plan
/// (crashes and lossy I/O allowed, per-attempt delay always zero) the
/// soak report must be bit-identical with hedging on and off — no
/// hedge may launch, no outcome may shift.
#[test]
fn hedging_toggle_is_invisible_without_stragglers() {
    check("hedging_toggle_is_invisible", 16, |rng| {
        let seed = rng.next_u64();
        let mk = |hedging| {
            let base = ChaosConfig::light(ClusterPolicy::Ear);
            ChaosConfig {
                hedging,
                map_tasks: 1,
                faults: FaultConfig {
                    stragglers: 0,
                    ..base.faults
                },
                ..base
            }
        };
        let on = run_plan(seed, &mk(true)).expect("harness");
        let off = run_plan(seed, &mk(false)).expect("harness");
        assert_eq!(on.hedges_launched, 0, "plan seed {seed}");
        assert_eq!(format!("{on:?}"), format!("{off:?}"), "plan seed {seed}");
    });
}

#[test]
fn crash_heavy_plans_never_half_encode() {
    // Plans with aggressive crash schedules: every stripe either encodes
    // completely (parity stored, replicas trimmed) or stays fully
    // replicated in the pending queue — never in between.
    for seed in 100..120u64 {
        let cfg = ChaosConfig::heavy(ClusterPolicy::Ear);
        let report = run_plan(seed, &cfg).unwrap();
        assert!(
            report.passed(ClusterPolicy::Ear),
            "seed {seed}: {report:?}"
        );
    }
}
