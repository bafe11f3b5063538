//! Concurrency stress tests — the ThreadSanitizer targets of the `sanitizers`
//! CI job. They hammer the lock-striped block store and the shared
//! [`ClusterIo`] service from many threads so tsan can observe every
//! lock-order and atomics interleaving the data plane uses.

// clippy.toml excuses unwrap/expect inside `#[test]` functions only; the
// helpers here are test code too.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ear_cluster::{
    recover_node, BlockStore, ClusterConfig, ClusterPolicy, MetaWal, MiniCfs, NameNode, RaidNode,
    ShardedMemStore,
};
use ear_core::EncodingAwareReplication;
use ear_types::crc::crc32c;
use ear_types::rng::ChaCha8;
use ear_types::{
    Bandwidth, Block, BlockId, ByteSize, CacheConfig, ClusterTopology, EarConfig, ErasureParams,
    NodeId, ReplicationConfig, StoreBackend,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 200;

#[test]
fn sharded_store_survives_concurrent_mixed_ops() {
    let store = Arc::new(ShardedMemStore::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    // Overlapping id ranges: neighbours contend on the same
                    // stripes, exercising every lock against every other.
                    let id = BlockId((t * OPS_PER_THREAD + i) % 64);
                    let data = Block::from(vec![(t as u8) ^ (i as u8); 128]);
                    let crc = crc32c(&data);
                    store.put(id, data.clone(), crc).unwrap();
                    if let Some((back, stored_crc)) = store.get_with_crc(id) {
                        // A racing overwrite may have replaced the bytes, but
                        // the (data, crc) pair must always be consistent.
                        assert_eq!(crc32c(&back), stored_crc);
                    }
                    if i % 7 == 0 {
                        store.delete(id);
                    }
                    store.contains(id);
                    store.block_count();
                    store.bytes_stored();
                }
            });
        }
    });
    // Every surviving replica is internally consistent.
    for raw in 0..64u64 {
        if let Some((data, crc)) = store.get_with_crc(BlockId(raw)) {
            assert_eq!(crc32c(&data), crc);
        }
    }
}

fn boot(policy: ClusterPolicy) -> MiniCfs {
    let ear = EarConfig::new(
        ErasureParams::new(6, 4).unwrap(),
        ReplicationConfig::two_way(),
        1,
    )
    .unwrap();
    MiniCfs::new(ClusterConfig {
        racks: 6,
        nodes_per_rack: 2,
        block_size: ByteSize::kib(16),
        node_bandwidth: Bandwidth::bytes_per_sec(1e9),
        rack_bandwidth: Bandwidth::bytes_per_sec(1e9),
        ear,
        policy,
        seed: 5,
        store: StoreBackend::from_env(),
        cache: CacheConfig::from_env(),
        durability: Default::default(),
        hedge_reads: true,
    })
    .unwrap()
}

#[test]
fn cluster_io_survives_concurrent_writes_and_reads() {
    let cfs = boot(ClusterPolicy::Ear);
    let nodes = cfs.topology().num_nodes() as u64;

    // Phase 1: parallel writers through the full pipeline (NameNode
    // allocation, ClusterIo replication, netem accounting).
    let written: Vec<(BlockId, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let cfs = &cfs;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..24u64 {
                        let tag = t * 1000 + i;
                        let client = NodeId((tag % nodes) as u32);
                        let id = cfs.write_block(client, cfs.make_block(tag)).unwrap();
                        out.push((id, tag));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer thread"))
            .collect()
    });

    // Phase 2: parallel readers over the full block set, from every node.
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let cfs = &cfs;
            let written = &written;
            scope.spawn(move || {
                for &(id, tag) in written {
                    let reader = NodeId(((tag + t) % nodes) as u32);
                    let back = cfs.read_block(reader, id).unwrap();
                    assert_eq!(back.as_slice(), cfs.make_block(tag).as_slice());
                }
            });
        }
    });

    let stats = cfs.io_stats();
    assert_eq!(stats.reads, (written.len() * THREADS) as u64);
    assert_eq!(stats.failed_reads, 0);
}

#[test]
fn heartbeats_race_cleanly_with_data_plane_traffic() {
    let cfs = boot(ClusterPolicy::Rr);
    let nodes = cfs.topology().num_nodes() as u64;
    std::thread::scope(|scope| {
        // Heartbeat/health pollers on the control plane...
        for _ in 0..2 {
            let cfs = &cfs;
            scope.spawn(move || {
                for _ in 0..50 {
                    cfs.heartbeat_tick().unwrap();
                    let snap = cfs.health_snapshot().unwrap();
                    assert_eq!(snap.len(), cfs.topology().num_nodes());
                }
            });
        }
        // ...racing writers on the data plane.
        for t in 0..4u64 {
            let cfs = &cfs;
            scope.spawn(move || {
                for i in 0..25u64 {
                    let tag = t * 100 + i;
                    let client = NodeId((tag % nodes) as u32);
                    cfs.write_block(client, cfs.make_block(tag)).unwrap();
                }
            });
        }
    });
}

#[test]
fn node_recovery_races_cleanly_with_client_reads() {
    let cfs = boot(ClusterPolicy::Ear);
    let topo = cfs.topology();
    let nodes = topo.num_nodes() as u64;
    let mut written: Vec<(BlockId, u64)> = Vec::new();
    while cfs.namenode().pending_stripe_count() < 3 {
        let tag = written.len() as u64;
        let client = NodeId((tag % nodes) as u32);
        written.push((cfs.write_block(client, cfs.make_block(tag)).unwrap(), tag));
    }
    RaidNode::encode_all(&cfs, 2).unwrap();
    let encoded = cfs.namenode().encoded_stripes();
    let victim = cfs.namenode().locations(encoded[0].data[0]).unwrap()[0];
    let sole_copies: Vec<BlockId> = written
        .iter()
        .map(|&(id, _)| id)
        .filter(|&id| cfs.namenode().locations(id).unwrap() == [victim])
        .collect();

    // Readers and the recovery leave the barrier together; the readers keep
    // sweeping every written block until the recovery has returned.
    let start = Barrier::new(THREADS + 1);
    let recovered = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let (cfs, written, sole_copies) = (&cfs, &written, &sole_copies);
            let (start, recovered) = (&start, &recovered);
            scope.spawn(move || {
                start.wait();
                loop {
                    let last_sweep = recovered.load(Ordering::SeqCst);
                    for &(id, tag) in written {
                        let reader = NodeId(((tag + t) % nodes) as u32);
                        match cfs.read_block(reader, id) {
                            Ok(back) => {
                                assert_eq!(back.as_slice(), cfs.make_block(tag).as_slice());
                            }
                            // The victim's single-copy stripe blocks are
                            // gone until their rebuild lands.
                            Err(e) => assert!(
                                !last_sweep && sole_copies.contains(&id),
                                "read of {id} failed: {e}"
                            ),
                        }
                    }
                    if last_sweep {
                        break;
                    }
                }
            });
        }
        start.wait();
        let stats = recover_node(&cfs, victim).unwrap();
        assert!(stats.blocks_recovered >= sole_copies.len().max(1));
        recovered.store(true, Ordering::SeqCst);
    });

    for es in &encoded {
        let mut per_rack = vec![0usize; topo.num_racks()];
        for b in es.members() {
            let locs = cfs.namenode().locations(b).unwrap();
            assert_eq!(locs.len(), 1, "{b} of {}", es.id);
            assert_ne!(locs[0], victim);
            per_rack[topo.rack_of(locs[0]).index()] += 1;
        }
        assert!(
            per_rack.iter().all(|&held| held <= 1),
            "{}: {per_rack:?}",
            es.id
        );
    }
}

#[test]
fn concurrent_namenode_mutators_log_in_apply_order() {
    // Four threads mix allocations, parity registrations and location churn
    // on overlapping blocks of one durable NameNode, with a checkpoint every
    // 64 records racing them. Each record is appended and applied under the
    // lock of the table it changes, so log order is apply order per block:
    // replaying the directory must rebuild exactly the live image.
    let dir = std::env::temp_dir().join(format!("ear-nn-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = ClusterTopology::uniform(8, 4);
    let ear = EarConfig::new(
        ErasureParams::new(6, 4).unwrap(),
        ReplicationConfig::hdfs_default(),
        1,
    )
    .unwrap();
    let policy = Box::new(EncodingAwareReplication::new(ear, topo.clone()));
    let (wal, image) = MetaWal::open(&dir, false, 64).unwrap();
    let nn = NameNode::new(topo, policy, 7, Some(wal), image);
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (nn, start) = (&nn, &start);
            scope.spawn(move || {
                let mut rng = ChaCha8::from_seed(t);
                start.wait();
                for _ in 0..400 {
                    let block = BlockId(rng.below(nn.block_count() + 1));
                    let node = NodeId(rng.below(32) as u32);
                    match rng.below(6) {
                        0 | 1 => drop(nn.allocate_block().unwrap()),
                        2 => drop(nn.register_block(vec![node]).unwrap()),
                        3 => nn.add_location(block, node).unwrap(),
                        4 => drop(nn.drop_location(block, node).unwrap()),
                        _ => nn.set_locations(block, vec![node, NodeId(32)]).unwrap(),
                    }
                }
            });
        }
    });
    let live = nn.snapshot();
    drop(nn);
    let (_, recovered) = MetaWal::open(&dir, false, 64).unwrap();
    assert_eq!(recovered, live);
    std::fs::remove_dir_all(&dir).unwrap();
}
