//! Heal soak: seeded fault plans with mid-run node kills, healed by the
//! background [`Healer`](ear_cluster::Healer) rather than the one-shot
//! repair loop. Each plan asserts the self-healing invariants of
//! [`ear_cluster::chaos::run_heal_plan`]:
//!
//! 1. every acknowledged block is back at target redundancy once the
//!    healer converges (replicated blocks at their replica count, every
//!    stripe member with a live copy);
//! 2. healed placements pass `monitor::scan` with zero violations;
//! 3. convergence happens within the healer's bounded round budget, and
//!    MTTR is recorded whenever a degraded episode occurred.
//!
//! A failure names the plan seed; `ear heal --seed <s>` replays it.

use ear_cluster::chaos::{run_heal_plan, HealSoakConfig};
use ear_faults::FaultConfig;
use ear_types::prop::{check, range};
use ear_types::{CacheConfig, StoreBackend};

/// Same seed + kill plan ⇒ identical heal outcome on both storage
/// backends, down to repair-byte counters, under the default lossy fault
/// mix and encode parallelism.
#[test]
fn heal_reports_are_bit_identical_across_backends() {
    for seed in [0u64, 5, 9] {
        let mk = |store| HealSoakConfig {
            store,
            ..HealSoakConfig::default()
        };
        let mem = run_heal_plan(seed, &mk(StoreBackend::Memory)).expect("memory run");
        assert!(mem.passed(), "seed {seed}: {mem:?}");
        let ext = run_heal_plan(seed, &mk(StoreBackend::Extent)).expect("extent run");
        assert_eq!(
            format!("{mem:?}"),
            format!("{ext:?}"),
            "seed {seed}: extent diverged from memory"
        );
    }
}

/// Same seed + kill plan ⇒ an identical heal report whether the
/// block cache is off or on, and — with the cache on — across both
/// storage backends. The healer's scrub reads go through the
/// authoritative `get_with_crc` seam (never the cache), and the cache
/// itself only skips redundant re-hashing of verified bytes, so every
/// deterministic report field (including `scrub_hits` and repair-byte
/// counters) must be independent of the cache configuration.
#[test]
fn heal_reports_are_bit_identical_across_cache_configs() {
    let small = CacheConfig::Sized { bytes: 5 << 20 };
    for seed in [0u64, 5] {
        let mk = |store, cache| HealSoakConfig {
            store,
            cache,
            ..HealSoakConfig::default()
        };
        let off =
            run_heal_plan(seed, &mk(StoreBackend::Memory, CacheConfig::Off)).expect("cache-off");
        assert!(off.passed(), "seed {seed}: {off:?}");
        let baseline = format!("{off:?}");
        for (store, cache) in [
            (StoreBackend::Memory, small),
            (StoreBackend::Extent, small),
            (StoreBackend::Extent, CacheConfig::default()),
        ] {
            let on = run_heal_plan(seed, &mk(store, cache)).expect("cache-on");
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

/// Same seed + kill plan ⇒ the same heal outcome regardless of encode
/// parallelism or backend, under three kinds of plan: kills inside the
/// single-threaded write phase (`crash_window: 40` < the writes' operation
/// count) with no lossy I/O, lossy I/O with no kill at all (corruption and
/// transient errors hash block ids, parity ids included), and the soak's
/// own default, whose kills land anywhere up to the encode job and the
/// repairs after it. Parity ids are reserved in stripe order and every
/// encode and repair task counts operations on its own clock, so none of
/// it follows the scheduler.
#[test]
fn heal_reports_are_identical_across_thread_counts_and_backends() {
    let kills_only = FaultConfig {
        straggler_delay: ear_faults::DelayModel::Throttle,
        node_crashes: 2,
        rack_outages: 0,
        stragglers: 0,
        straggler_factor: 1.0,
        transient_error_rate: 0.0,
        corruption_rate: 0.0,
        heartbeat_loss_rate: 0.0,
        crash_window: 40,
    };
    let lossy_only = FaultConfig {
        transient_error_rate: 0.02,
        corruption_rate: 0.02,
        heartbeat_loss_rate: 0.02,
        ..kills_only.clone()
    };
    let default = HealSoakConfig::default();
    for seed in [2u64, 13] {
        // Both seeds under the kills-only plan, one under the other two.
        let kinds = [
            ("kills-only", default.kills, &kills_only),
            ("lossy-only", 0, &lossy_only),
            ("default", default.kills, &default.faults),
        ];
        for (kind, kills, faults) in kinds.into_iter().take(if seed == 13 { 3 } else { 1 }) {
            let mk = |store, map_tasks| HealSoakConfig {
                store,
                map_tasks,
                kills,
                faults: faults.clone(),
                ..HealSoakConfig::default()
            };
            let baseline = run_heal_plan(seed, &mk(StoreBackend::Memory, 1)).expect("baseline run");
            assert!(baseline.passed(), "seed {seed} {kind}: {baseline:?}");
            for store in [StoreBackend::Memory, StoreBackend::Extent] {
                for map_tasks in [1usize, 4, 8] {
                    let report = run_heal_plan(seed, &mk(store, map_tasks)).expect("run");
                    assert_eq!(
                        format!("{baseline:?}"),
                        format!("{report:?}"),
                        "seed {seed} {kind}: {} x{map_tasks} diverged from memory x1",
                        store.name()
                    );
                }
            }
        }
    }
}

#[test]
fn healer_survives_a_dozen_seeded_kill_plans() {
    let cfg = HealSoakConfig::default();
    let mut dead_declared = 0usize;
    let mut episodes = 0usize;
    for seed in 0..12u64 {
        let report = run_heal_plan(seed, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: harness error {e}"));
        assert!(report.passed(), "seed {seed}: {report:?}");
        assert!(
            report.heal.rounds <= cfg.healer.max_rounds,
            "seed {seed}: healer overran its round budget"
        );
        if report.heal.mttr_rounds.is_some() {
            episodes += 1;
            assert!(
                report.heal.blocks_re_replicated + report.heal.shards_reconstructed > 0,
                "seed {seed}: a degraded episode ended without any repair"
            );
        }
        dead_declared += report.heal.nodes_declared_dead;
    }
    // Two kills per plan: the detector must actually have fired, and most
    // plans must have gone through a real degraded episode.
    assert!(dead_declared > 0, "no plan ever declared a node dead");
    assert!(episodes > 0, "no plan ever recorded a degraded episode");
}

/// For arbitrary fault seeds killing at most `n - k` nodes, repeated
/// healer rounds restore full redundancy and the final placement scan
/// reports zero violations.
#[test]
fn healer_restores_redundancy_for_arbitrary_seeds() {
    check("healer_restores_redundancy", 16, |rng| {
        let seed = rng.next_u64();
        let kills = range(rng, 0..=2) as usize;
        let cfg = HealSoakConfig {
            kills,
            ..HealSoakConfig::default()
        };
        let report = run_heal_plan(seed, &cfg).expect("harness");
        assert!(report.passed(), "seed {seed} kills {kills}: {report:?}");
        assert_eq!(
            report.violations_after_heal, 0,
            "seed {seed} left violations after healing"
        );
        if kills == 0 && report.failed_writes == 0 {
            assert_eq!(report.heal.nodes_declared_dead, 0);
        }
    });
}
