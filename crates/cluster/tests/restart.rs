//! Restart round-trip tests of the durability layer (DESIGN.md §13): a
//! durable cluster is written to and encoded under fault injection, shut
//! down, and reopened from its data directory. The recovered metadata
//! snapshot must be bit-identical to the pre-shutdown one, and every block
//! must read back the same bytes. The volatile memory backend must refuse
//! a data directory with a typed error, never a panic.

// clippy.toml excuses unwrap/expect inside `#[test]` functions only; the
// helpers here are test code too.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ear_cluster::{recover_node, ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear_faults::{FaultConfig, FaultPlan};
use ear_types::{
    Bandwidth, ByteSize, CacheConfig, ClusterTopology, DurabilityConfig, EarConfig, Error,
    ErasureParams, NodeId, ReplicationConfig, StoreBackend,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ear-restart-{}-{}-{label}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn durable_cfg(store: StoreBackend, dir: &std::path::Path) -> ClusterConfig {
    let ear = EarConfig::new(
        ErasureParams::new(6, 4).expect("valid params"),
        ReplicationConfig::two_way(),
        1,
    )
    .expect("valid config");
    ClusterConfig {
        racks: 8,
        nodes_per_rack: 1,
        block_size: ByteSize::kib(16),
        node_bandwidth: Bandwidth::bytes_per_sec(1e9),
        rack_bandwidth: Bandwidth::bytes_per_sec(1e9),
        ear,
        policy: ClusterPolicy::Ear,
        seed: 11,
        store,
        cache: CacheConfig::from_env(),
        durability: DurabilityConfig::at(dir),
        hedge_reads: true,
    }
}

/// A fault plan with lossy-but-survivable I/O: transient errors and a
/// straggler, no crashes — every write retries to success, so the set of
/// acknowledged blocks is exactly the set written.
fn lossy_plan(cfg: &ClusterConfig) -> FaultPlan {
    let topo = ClusterTopology::uniform(cfg.racks, cfg.nodes_per_rack);
    let faults = FaultConfig {
        straggler_delay: ear_faults::DelayModel::Throttle,
        node_crashes: 0,
        rack_outages: 0,
        stragglers: 1,
        straggler_factor: 0.5,
        transient_error_rate: 0.05,
        corruption_rate: 0.0,
        heartbeat_loss_rate: 0.0,
        crash_window: 1,
    };
    FaultPlan::generate(7, &topo, &faults)
}

#[test]
fn extent_round_trips_through_restart_from_checkpoint_and_from_wal_alone() {
    // Both recoveries: checkpoint + WAL suffix, and pure WAL replay.
    for checkpoint in [true, false] {
        let dir = fresh_dir(if checkpoint { "ckpt" } else { "wal" });
        let cfg = durable_cfg(StoreBackend::Extent, &dir);

        // Phase 1: write + encode under fault injection, then shut down.
        let mut contents: BTreeMap<ear_types::BlockId, Vec<u8>> = BTreeMap::new();
        let before = {
            let cfs = MiniCfs::with_faults(cfg.clone(), lossy_plan(&cfg)).expect("boot");
            assert!(cfs.namenode().is_durable());
            for i in 0..24u64 {
                let data = cfs.make_block(i);
                let id = cfs
                    .write_block(NodeId((i % 8) as u32), data.clone())
                    .expect("acknowledged write");
                contents.insert(id, data);
            }
            RaidNode::encode_all(&cfs, 4).expect("encode");
            if checkpoint {
                cfs.checkpoint().expect("checkpoint");
            }
            cfs.namenode().snapshot()
        };

        // Phase 2: reopen from disk; metadata must be bit-identical.
        let cfs = MiniCfs::reopen(cfg.clone()).expect("reopen");
        let after = cfs.namenode().snapshot();
        assert_eq!(
            before, after,
            "checkpoint={checkpoint}: snapshot must survive restart"
        );
        assert_eq!(
            before.encode(),
            after.encode(),
            "checkpoint={checkpoint}: snapshot must be bit-identical"
        );

        // Every acknowledged block reads back its exact bytes (replicated
        // or post-encoding single copies alike).
        for (&id, data) in &contents {
            let back = cfs.read_block(NodeId(0), id).expect("readable after restart");
            assert_eq!(
                back.as_slice(),
                data.as_slice(),
                "checkpoint={checkpoint}: {id} bytes"
            );
        }

        // The block → stripe index is rebuilt with the image: a node that
        // holds the only copy of a stripe member can be recovered by
        // degraded read straight after the restart.
        let lost = cfs.namenode().encoded_stripes()[0].data[0];
        assert_eq!(
            cfs.namenode().stripe_of(lost).map(|es| es.id),
            Some(cfs.namenode().encoded_stripes()[0].id)
        );
        let victim = cfs.namenode().locations(lost).expect("located")[0];
        let stats = recover_node(&cfs, victim).expect("repair after restart");
        assert!(stats.blocks_recovered >= 1 && stats.blocks_downloaded >= 4);
        let holder = cfs.namenode().locations(lost).expect("located")[0];
        assert_ne!(holder, victim);
        let back = cfs.read_block(holder, lost).expect("rebuilt copy");
        assert_eq!(back.as_slice(), contents[&lost].as_slice());
        let after = cfs.namenode().snapshot();

        // A second reopen sees the same image (recovery is idempotent, and
        // the repair's metadata is in the log).
        drop(cfs);
        let cfs = MiniCfs::reopen(cfg).expect("second reopen");
        assert_eq!(cfs.namenode().snapshot(), after);
        drop(cfs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn memory_backend_refuses_a_data_dir_with_typed_error() {
    let dir = fresh_dir("memory");
    let cfg = durable_cfg(StoreBackend::Memory, &dir);
    match MiniCfs::new(cfg) {
        Err(Error::NotDurable { backend }) => assert_eq!(backend, "memory"),
        other => panic!("expected NotDurable, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_without_data_dir_is_typed_not_durable() {
    let dir = fresh_dir("volatile");
    let mut cfg = durable_cfg(StoreBackend::Extent, &dir);
    cfg.durability = DurabilityConfig::default();
    match MiniCfs::reopen(cfg) {
        Err(Error::NotDurable { backend }) => assert_eq!(backend, "extent"),
        other => panic!("expected NotDurable, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn manifest_mismatch_is_a_hard_error() {
    let dir = fresh_dir("manifest");
    let cfg = durable_cfg(StoreBackend::Extent, &dir);
    drop(MiniCfs::new(cfg.clone()).expect("first boot"));
    let mut reshaped = cfg;
    reshaped.seed = 12;
    match MiniCfs::reopen(reshaped) {
        Err(Error::Invariant(msg)) => assert!(msg.contains("manifest"), "got: {msg}"),
        other => panic!("expected Invariant, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
