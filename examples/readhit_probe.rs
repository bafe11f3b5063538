//! Times the pieces of a cache-hit client read in the shape of the
//! benchmark's `durable_extent` workload (EAR (9,6), 10 racks × 2 nodes,
//! 64 KiB blocks, 1e12 B/s links, an `8m,32m` cache per node), on one
//! thread and on two at once:
//!
//! * `read_block` — a whole `MiniCfs::read_block` served from the cache;
//! * `netem` — one 64 KiB `EmulatedNetwork::transfer` between two nodes
//!   (on these links every bucket deals per-thread token leases, so a
//!   transfer's draws take no lock and read no clock until a lease runs
//!   out);
//! * `cache_hit` — one `BlockCache::get` that hits (each thread has its
//!   own cache, as each DataNode does);
//! * `5_adds_shared` / `5_adds_striped` — five relaxed `fetch_add`s on
//!   counters every thread shares, and on a stripe of its own;
//! * `skewed_read` — a `read_block` in the benchmark's own read shape: a
//!   second cluster of 1 002 blocks, encoded (one replica of each data block
//!   left), read by random readers with the harness's skewed block mix on
//!   both threads, so both threads hit the same few hot blocks;
//! * `disjoint_read` — the same reads with nothing shared: each thread's
//!   blocks (by their one holder), readers and so links lie in its own half
//!   of the racks, and it draws its blocks with the skewed mix over them;
//! * `skewed_read`'s pieces, on the same reads: `sk_table` (the probe's own
//!   draw from its read table, which every `sk_` row and both `_read` rows
//!   include), `sk_locations` (the NameNode lookup the read path makes,
//!   `NameNode::locations`), `sk_cached_read` (the holder's
//!   `DataNode::cached_read`, a cache hit), `sk_transfer` (the
//!   holder → reader `EmulatedNetwork::transfer`) and `sk_block_clone` (a
//!   clone and drop of the block's `Block`).
//!
//! Prints one line per piece: the median over five repetitions of the
//! nanoseconds per operation, per thread. Uses only public API, so the same
//! file builds against an older checkout for a before/after table.
//!
//! Run with `cargo run --release --example readhit_probe`.

use ear::cluster::{BlockCache, ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear::netem::EmulatedNetwork;
use ear::types::rng::ChaCha8;
use ear::types::{
    Bandwidth, Block, BlockId, ByteSize, CacheConfig, EarConfig, ErasureParams, NodeId,
    ReplicationConfig, StoreBackend,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const OPS: u64 = 200_000;
const REPS: usize = 5;
const BLOCKS: u64 = 64;
const BLOCK: usize = 64 * 1024;
/// Blocks of the encoded cluster: 167 (9,6) stripes, the benchmark's 1 000
/// rounded up to whole stripes.
const SHAPED_BLOCKS: u64 = 1002;
/// Reads drawn ahead per thread for the shaped pieces, replayed in a cycle.
const TABLE: usize = 4096;

/// The harness's skewed block index: `⌊b^u⌋ − 1` for `u` uniform in
/// `[0, 1)`, so index `i` is drawn with probability ∝ `ln((i+2)/(i+1))`.
fn skewed_index(u: f64, blocks: usize) -> usize {
    let i = (blocks as f64).powf(u).floor() as usize;
    i.saturating_sub(1).min(blocks - 1)
}

/// Five counters on one cache line.
#[derive(Default)]
#[repr(align(64))]
struct Five([AtomicU64; 5]);

impl Five {
    fn add(&self) {
        for c in &self.0 {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Median nanoseconds per op of `op` run `OPS` times on each of `threads`
/// threads at once; `op` gets the thread's index and the op's.
#[expect(clippy::disallowed_methods, reason = "a wall-clock probe of concurrent threads")]
fn time(threads: usize, op: impl Fn(usize, u64) + Sync) -> f64 {
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let op = &op;
                        s.spawn(move || {
                            let start = Instant::now();
                            for i in 0..OPS {
                                op(t, i);
                            }
                            start.elapsed().as_nanos() as f64 / OPS as f64
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[REPS / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ear = EarConfig::new(ErasureParams::new(9, 6)?, ReplicationConfig::hdfs_default(), 1)?;
    let mut cfg = ClusterConfig::testbed(ClusterPolicy::Ear, ear);
    cfg.racks = 10;
    cfg.nodes_per_rack = 2;
    cfg.block_size = ByteSize::kib(64);
    cfg.node_bandwidth = Bandwidth::bytes_per_sec(1e12);
    cfg.rack_bandwidth = Bandwidth::bytes_per_sec(1e12);
    cfg.store = StoreBackend::Memory;
    let cache = CacheConfig::parse("8m,32m").ok_or("cache size")?;
    cfg.cache = cache;
    let cfs = MiniCfs::new(cfg.clone())?;
    let nodes = cfs.topology().num_nodes() as u64;
    let ids = (0..BLOCKS)
        .map(|i| cfs.write_block(NodeId((i % nodes) as u32), cfs.make_block(i)))
        .collect::<Result<Vec<_>, _>>()?;
    // Reader and block of op `i` on thread `t`; three passes leave every
    // block each reader touches cached at its source, its bit set.
    let pick = |t: usize, i: u64| {
        let reader = NodeId(((i + t as u64 * 7) % nodes) as u32);
        (reader, ids[(i % BLOCKS) as usize])
    };
    for _ in 0..3 {
        for t in 0..2 {
            for i in 0..nodes * BLOCKS {
                let (reader, id) = pick(t, i);
                cfs.read_block(reader, id)?;
            }
        }
    }
    let net: &EmulatedNetwork = cfs.network();
    let caches: Vec<BlockCache> = (0..2)
        .map(|t| {
            let c = BlockCache::new(cache, t).expect("a sized cache");
            for i in 0..BLOCKS {
                c.admit(BlockId(i), &Block::from(vec![i as u8; BLOCK]), 0);
                c.get(BlockId(i));
                c.get(BlockId(i));
            }
            c
        })
        .collect();
    let shared = Five::default();
    let stripes = [Five::default(), Five::default()];

    // The encoded cluster and each thread's two read tables, drawn ahead
    // and replayed three times so every block they read is hot.
    let shaped = MiniCfs::new(cfg)?;
    let topo = shaped.topology();
    let blocks = (0..SHAPED_BLOCKS)
        .map(|i| shaped.write_block(NodeId((i % nodes) as u32), shaped.make_block(i)))
        .collect::<Result<Vec<_>, _>>()?;
    RaidNode::encode_all(&shaped, 2)?;
    let half = |n: NodeId| usize::from(topo.rack_of(n).index() >= topo.num_racks() / 2);
    let holder = |id: BlockId| shaped.namenode().locations(id).and_then(|l| l.first().copied());
    let table = |t: usize, readers: &[NodeId], ids: &[BlockId]| {
        let mut rng = ChaCha8::from_seed(t as u64);
        (0..TABLE)
            .map(|_| {
                let reader = readers[rng.below(readers.len() as u64) as usize];
                (reader, ids[skewed_index(rng.unit_f64(), ids.len())])
            })
            .collect::<Vec<_>>()
    };
    let everyone: Vec<NodeId> = topo.nodes().collect();
    let skewed: Vec<_> = (0..2).map(|t| table(t, &everyone, &blocks)).collect();
    let disjoint: Vec<_> = (0..2)
        .map(|t| {
            let readers: Vec<NodeId> = topo.nodes().filter(|&n| half(n) == t).collect();
            let mine: Vec<BlockId> =
                blocks.iter().copied().filter(|&id| holder(id).map(half) == Some(t)).collect();
            table(t, &readers, &mine)
        })
        .collect();
    for _ in 0..3 {
        for &(reader, id) in skewed.iter().chain(&disjoint).flatten() {
            shaped.read_block(reader, id)?;
        }
    }

    println!("piece            1 thread ns/op   2 threads ns/op");
    let row = |name: &str, op: &(dyn Fn(usize, u64) + Sync)| {
        println!("{name:<16} {:>14.1} {:>17.1}", time(1, op), time(2, op));
    };
    row("read_block", &|t, i| {
        let (reader, id) = pick(t, i);
        cfs.read_block(reader, id).expect("a cached read");
    });
    row("netem", &|t, i| {
        let src = NodeId(((i + t as u64 * 7) % nodes) as u32);
        let dst = NodeId(((i + t as u64 * 7 + 3) % nodes) as u32);
        net.transfer(src, dst, BLOCK as u64);
    });
    row("cache_hit", &|t, i| {
        caches[t].get(BlockId(i % BLOCKS)).expect("a cache hit");
    });
    row("5_adds_shared", &|_, _| shared.add());
    row("5_adds_striped", &|t, _| stripes[t].add());
    for (name, tables) in [("skewed_read", &skewed), ("disjoint_read", &disjoint)] {
        row(name, &|t, i| {
            let (reader, id) = tables[t][i as usize % TABLE];
            shaped.read_block(reader, id).expect("a cached read");
        });
    }

    // The pieces of a skewed read: each read's holder and its `Block`,
    // looked up ahead.
    let pieces: Vec<Vec<_>> = skewed
        .iter()
        .map(|reads| {
            reads
                .iter()
                .map(|&(reader, id)| {
                    let from = holder(id).expect("an encoded block has a holder");
                    let data = shaped.datanode(from).get(id).expect("the holder's replica");
                    (reader, id, from, data)
                })
                .collect()
        })
        .collect();
    let piece = |t: usize, i: u64| &pieces[t][i as usize % TABLE];
    row("sk_table", &|t, i| {
        black_box(piece(t, i));
    });
    row("sk_locations", &|t, i| {
        black_box(shaped.namenode().locations(piece(t, i).1));
    });
    row("sk_cached_read", &|t, i| {
        let &(_, id, from, _) = piece(t, i);
        let read = shaped.datanode(from).cached_read(id).expect("a replica");
        assert!(read.verified, "a cache hit");
    });
    row("sk_transfer", &|t, i| {
        let &(reader, _, from, _) = piece(t, i);
        shaped.network().transfer(from, reader, BLOCK as u64);
    });
    row("sk_block_clone", &|t, i| {
        drop(black_box(piece(t, i).3.clone()));
    });
    Ok(())
}
