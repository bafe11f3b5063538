//! Concurrency stress tests — the ThreadSanitizer targets of the `sanitizers`
//! CI job. They hammer the lock-striped block store and the shared
//! [`ClusterIo`] service from many threads so tsan can observe every
//! lock-order and atomics interleaving the data plane uses.

// clippy.toml excuses unwrap/expect inside `#[test]` functions only; the
// helpers here are test code too.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ear_cluster::{
    recover_node, BlockStore, ClusterConfig, ClusterPolicy, DataNode, MetaWal, MiniCfs, NameNode,
    RaidNode, ShardedMemStore,
};
use ear_core::EncodingAwareReplication;
use ear_types::crc::crc32c;
use ear_types::rng::ChaCha8;
use ear_types::{
    Bandwidth, Block, BlockId, ByteSize, CacheConfig, ClusterTopology, EarConfig, ErasureParams,
    NodeId, ReplicationConfig, StoreBackend,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 200;

#[test]
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
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

#[test]
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
fn no_hit_serves_bytes_older_than_a_returned_put_or_delete() {
    // Two readers hammer hits on four blocks while a third thread
    // overwrites and deletes them. Each payload carries its version. The
    // writer raises a block's floor (the oldest version a hit may serve)
    // only once its `put` or `delete` has returned, and then admits the
    // new version so that the lookups after it hit. A lookup reads the
    // floor first; a hit below it is a stale hit. The writer checks too,
    // right after raising a floor.
    const BLOCKS: u64 = 4;
    const VERSIONS: u64 = 400;
    let cache = CacheConfig::Sized { bytes: 2048 };
    let node = DataNode::with_backend(NodeId(0), StoreBackend::Memory, cache, 1).unwrap();
    let floors: Vec<AtomicU64> = (0..BLOCKS).map(|_| AtomicU64::new(0)).collect();
    let (start, done) = (Barrier::new(3), AtomicBool::new(false));
    let payload = |b: u64, v: u64| Block::from([v.to_le_bytes(), b.to_le_bytes()].concat());
    // One cache lookup of block `b`; true on a hit.
    let lookup = |b: u64| {
        let floor = floors[b as usize].load(Ordering::Acquire);
        let Some(read) = node.cached_read(BlockId(b)) else {
            return false;
        };
        if read.verified {
            let version = u64::from_le_bytes(read.data[..8].try_into().unwrap());
            assert!(version >= floor, "block {b}: a hit served v{version} past floor v{floor}");
        }
        read.verified
    };
    let lookups: u64 = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (lookup, start, done) = (&lookup, &start, &done);
                scope.spawn(move || {
                    start.wait();
                    let mut n = 0u64;
                    while !done.load(Ordering::Acquire) {
                        lookup((n + t) % BLOCKS);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        start.wait();
        let mut n = 0;
        for v in 1..=VERSIONS {
            for b in 0..BLOCKS {
                if v % 7 == 0 {
                    node.delete(BlockId(b));
                    floors[b as usize].store(v, Ordering::Release);
                    n += 1;
                    assert!(!lookup(b), "block {b} was deleted");
                    continue;
                }
                let data = payload(b, v);
                node.put(BlockId(b), data.clone()).unwrap();
                floors[b as usize].store(v, Ordering::Release);
                // One check; the verified read the I/O service would admit;
                // two hits; one hit asserted.
                n += 4;
                lookup(b);
                node.admit(BlockId(b), &data, crc32c(&data));
                lookup(b);
                lookup(b);
                assert!(lookup(b), "block {b} v{v} is cached");
            }
        }
        done.store(true, Ordering::Release);
        n + readers.into_iter().map(|h| h.join().expect("reader thread")).sum::<u64>()
    });
    let stats = node.cache_stats();
    assert_eq!(stats.hits() + stats.misses, lookups, "every lookup counted once");
    assert!(stats.hits() > 0 && stats.invalidations > 0);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
fn racing_writers_and_admitting_readers_leave_only_stored_bytes_cached() {
    // Each pass, two writers overwrite the same blocks with bytes of their
    // own while a reader misses, hashes and admits what the store returned.
    // Once all three have met at the end of the pass, every cached copy is
    // the stored bytes under the stored CRC: a put overtaken by another
    // leaves nothing of its own cached, and a read fetched before a put is
    // not admitted after it. The cache holds three of the four blocks, so
    // the reader's admissions evict and writes refresh what is resident.
    const BLOCKS: u64 = 4;
    const PASSES: u64 = 1500;
    let payload = |w: u64, pass: u64, b: u64| {
        Block::from([w, pass, b].map(u64::to_le_bytes).concat().repeat(4))
    };
    for backend in [StoreBackend::Memory, StoreBackend::Extent] {
        let cache = CacheConfig::Sized { bytes: 288 };
        let node = DataNode::with_backend(NodeId(0), backend, cache, 1).unwrap();
        let (start, end, writing) = (Barrier::new(3), Barrier::new(3), AtomicU64::new(0));
        let mut incoherent = None;
        let read_and_admit = |b: u64| {
            if let Some(read) = node.cached_read(BlockId(b)).filter(|r| !r.verified) {
                if crc32c(&read.data) == read.crc {
                    node.admit(BlockId(b), &read.data, read.crc);
                }
            }
        };
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let (node, start, end, writing) = (&node, &start, &end, &writing);
                scope.spawn(move || {
                    for pass in 0..PASSES {
                        start.wait();
                        for b in 0..BLOCKS {
                            node.put(BlockId(b), payload(w, pass, b)).unwrap();
                        }
                        writing.fetch_sub(1, Ordering::AcqRel);
                        end.wait();
                    }
                });
            }
            for pass in 0..PASSES {
                writing.store(2, Ordering::Release);
                start.wait();
                while writing.load(Ordering::Acquire) > 0 {
                    (0..BLOCKS).for_each(read_and_admit);
                }
                end.wait();
                // The writers wait at the next pass's start: nothing races
                // the check. A panic here would leave them waiting, so the
                // first incoherent copy is kept and asserted after the join.
                for b in 0..BLOCKS {
                    let (stored, crc) = node.get_with_crc(BlockId(b)).unwrap();
                    let hit = node.cached_read(BlockId(b)).filter(|r| r.verified);
                    let torn = crc32c(&stored) != crc;
                    if torn || hit.is_some_and(|h| (h.data, h.crc) != (stored, crc)) {
                        incoherent.get_or_insert((pass, b));
                    }
                }
            }
        });
        assert_eq!(incoherent, None, "{backend:?}: (pass, block) cached bytes the store lacks");
        let stats = node.cache_stats();
        assert!(stats.misses > 0 && stats.hits() > 0 && stats.evictions > 0, "{stats:?}");
    }
}

fn boot(policy: ClusterPolicy) -> MiniCfs {
    boot_cached(policy, CacheConfig::from_env())
}

fn boot_cached(policy: ClusterPolicy, cache: CacheConfig) -> MiniCfs {
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
        cache,
        durability: Default::default(),
        hedge_reads: true,
    })
    .unwrap()
}

#[test]
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
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
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
fn io_and_traffic_totals_are_exact_under_concurrent_clients() {
    // Four clients run known numbers of writes, cache-hit reads and raw
    // transfers through one cluster; the totals summed over the counters'
    // per-thread stripes, and over netem's per-node counters, must come out
    // exact.
    const CLIENTS: u64 = 4;
    const WRITES: u64 = 12;
    const READS: u64 = 150;
    const REPLICAS: u64 = 2;
    const XFER: u64 = 1_000;
    let cfs = boot_cached(ClusterPolicy::Ear, CacheConfig::parse("4m,16m").unwrap());
    let topo = cfs.topology();
    let nodes = topo.num_nodes() as u64;
    let block = cfs.config().block_size.as_u64();

    let before = cfs.io_stats();
    let written: Vec<BlockId> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let cfs = &cfs;
                scope.spawn(move || {
                    (0..WRITES)
                        .map(|i| {
                            let tag = t * 1000 + i;
                            let client = NodeId((tag % nodes) as u32);
                            cfs.write_block(client, cfs.make_block(tag)).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let wrote = cfs.io_stats();
    assert_eq!(wrote.writes - before.writes, CLIENTS * WRITES * REPLICAS);
    assert_eq!(wrote.bytes_written - before.bytes_written, CLIENTS * WRITES * REPLICAS * block);

    // Each client's reads, warmed once on this thread so that every
    // concurrent read below is a cache hit that skips its CRC32C.
    let reads = |t: u64| -> Vec<(NodeId, BlockId)> {
        (0..READS)
            .map(|i| {
                let pick = (t * 7 + i * 13) as usize % written.len();
                (NodeId(((t + i) % nodes) as u32), written[pick])
            })
            .collect()
    };
    for t in 0..CLIENTS {
        for (reader, id) in reads(t) {
            cfs.read_block(reader, id).unwrap();
        }
    }
    let warm = cfs.io_stats();
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (cfs, reads) = (&cfs, &reads);
            scope.spawn(move || {
                for (reader, id) in reads(t) {
                    cfs.read_block(reader, id).unwrap();
                }
            });
        }
    });
    let read = cfs.io_stats();
    assert_eq!(read.reads - warm.reads, CLIENTS * READS);
    assert_eq!(read.bytes_read - warm.bytes_read, CLIENTS * READS * block);
    assert_eq!(read.crc_skipped - warm.crc_skipped, CLIENTS * READS);
    assert_eq!(read.failed_reads, 0);

    // Raw transfers between every ordered pair of nodes, from every client.
    let pairs: Vec<(NodeId, NodeId)> = (0..nodes as u32)
        .flat_map(|a| (0..nodes as u32).map(move |b| (NodeId(a), NodeId(b))))
        .filter(|(a, b)| a != b)
        .collect();
    let cross = pairs.iter().filter(|(a, b)| topo.rack_of(*a) != topo.rack_of(*b)).count() as u64;
    let traffic = cfs.network().snapshot();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let (cfs, pairs) = (&cfs, &pairs);
            scope.spawn(move || {
                for &(a, b) in pairs {
                    cfs.network().transfer(a, b, XFER);
                }
            });
        }
    });
    let moved = cfs.network().snapshot().delta(&traffic);
    assert_eq!(moved.cross_rack_bytes, CLIENTS * cross * XFER);
    assert_eq!(moved.intra_rack_bytes, CLIENTS * (pairs.len() as u64 - cross) * XFER);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
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
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
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

    // A read may decode a block from its stripe, so the sweeps above do not
    // show that the rebuilt copies landed: every stored copy must hold its
    // bytes.
    for &(id, tag) in &written {
        let holders = cfs.namenode().locations(id).unwrap();
        assert!(!holders.is_empty(), "{id} has no copy");
        for n in holders {
            let copy = cfs.datanode(n).get(id).unwrap();
            assert_eq!(copy.as_slice(), cfs.make_block(tag).as_slice(), "{id} at {n}");
        }
    }
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
#[expect(clippy::disallowed_methods, reason = "races threads against the cluster on purpose")]
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
