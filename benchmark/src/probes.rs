//! Per-layer probes: each times calls into one module's public functions
//! with the workload's own block size, (n,k), backend, cache and sync
//! settings. Probes run once per traced run, after the rounds; every timed
//! call (or batch of calls, for sub-microsecond ones) is a span.

use crate::round::{ctx, wipe, Res};
use crate::stats::{median, SplitMix64};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::Workload;
use ear_cluster::{
    blockstore::open_store_at, BlockCache, BlockStore, MetaRecord, MetaSnapshot, MetaWal, MiniCfs,
    OpClass, ShardedMemStore,
};
use ear_erasure::{Kernel, ReedSolomon, StripeEncoder};
use ear_faults::crc32c;
use ear_netem::EmulatedNetwork;
use ear_types::{Bandwidth, Block, BlockId, ClusterTopology, NodeId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median seconds per call of each probed function, plus the two probes
/// that are not times.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `Kernel::mul_acc` over one block.
    pub mul_acc_s: f64,
    /// `ReedSolomon::encode` of k blocks.
    pub rs_encode_s: f64,
    /// `ReedSolomon::reconstruct` of one lost data block from k survivors.
    pub rs_reconstruct_s: f64,
    /// `StripeEncoder`: absorb × k, then finish.
    pub fold_s: f64,
    /// `crc32c` of one block.
    pub crc_s: f64,
    /// `BlockStore::put` with fsync before ack (the memory store has none).
    pub put_sync_s: f64,
    /// `put`, `get_with_crc` and `delete` without it, as the workloads run.
    pub put_s: f64,
    pub get_s: f64,
    pub delete_s: f64,
    /// `MetaWal::append` with fsync before ack, and without.
    pub wal_append_sync_s: f64,
    pub wal_append_s: f64,
    pub wal_checkpoint_s: f64,
    pub wal_reopen_s: f64,
    pub wal_bytes_per_record: f64,
    pub allocate_s: f64,
    pub locations_s: f64,
    pub plan_encoding_s: f64,
    pub cache_get_hit_s: f64,
    pub cache_admit_s: f64,
    pub fetch_local_s: f64,
    pub store_local_s: f64,
    pub ctx_s: f64,
    /// Measured ÷ ideal (`bytes ÷ rate`) time of one cross-rack block
    /// transfer at the workload's link rate, transfers back to back.
    pub transfer_overshoot: f64,
    /// The same after the links sat idle long enough to bank their burst
    /// credit, as they do between the ops of two closed-loop clients;
    /// never above the back-to-back figure.
    pub idle_transfer_overshoot: f64,
}

struct Prober<'a> {
    tracer: Option<&'a Tracer>,
    parent: u32,
    round: u32,
}

impl Prober<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self
            .tracer
            .map_or(NO_PARENT, |t| t.open(name, self.parent, self.round));
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        if let Some(tr) = self.tracer {
            tr.close(id);
        }
        (out, s)
    }

    /// Median seconds of `n` calls, each timed on its own; `prepare` builds
    /// call `i`'s input outside the timed part.
    fn calls<S>(
        &self,
        name: &'static str,
        n: usize,
        mut prepare: impl FnMut(usize) -> Res<S>,
        mut call: impl FnMut(S) -> Res<()>,
    ) -> Res<f64> {
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            let input = prepare(i)?;
            let (out, s) = self.span(name, || call(input));
            out?;
            times.push(s);
        }
        Ok(median(&times))
    }

    /// Median over `samples` batches of `iters` calls of the seconds per
    /// call — for calls too short to time alone.
    fn batches(
        &self,
        name: &'static str,
        samples: usize,
        iters: usize,
        mut call: impl FnMut(usize),
    ) -> f64 {
        let times: Vec<f64> = (0..samples)
            .map(|_| {
                let ((), s) = self.span(name, || (0..iters).for_each(&mut call));
                s / iters as f64
            })
            .collect();
        median(&times)
    }
}

fn ok<T>(v: T) -> Res<T> {
    Ok(v)
}

/// Runs every probe for `w`. `dir` is scratch space on the repo's disk,
/// wiped before and after.
pub fn run(
    w: &Workload,
    seed: u64,
    dir: &Path,
    tracer: Option<&Tracer>,
    round: u32,
) -> Res<Probes> {
    wipe(dir)?;
    ctx("create probe dir", std::fs::create_dir_all(dir))?;
    let parent = tracer.map_or(NO_PARENT, |t| t.open("probes", NO_PARENT, round));
    let p = Prober {
        tracer,
        parent,
        round,
    };
    let mut out = Probes::default();
    let len = w.block_bytes();
    let replicas: Vec<NodeId> = (0..w.replicas as u32).map(NodeId).collect();

    let mut rng = SplitMix64::new(seed);
    let data: Vec<Vec<u8>> = (0..w.k)
        .map(|_| {
            (0..len / 8)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect()
        })
        .collect();
    let block = Block::from(data[0].clone());
    let crc = crc32c(&block);

    // ---- erasure + crc
    let kernel = Kernel::active();
    let mut acc = vec![0u8; len];
    out.mul_acc_s = p.calls("probe.mul_acc", 200, ok, |_| {
        kernel.mul_acc(black_box(&mut acc), black_box(&data[0]), 0x53);
        Ok(())
    })?;
    let rs = ReedSolomon::new(ctx("erasure params", w.erasure())?);
    out.rs_encode_s = p.calls("probe.rs_encode", 25, ok, |_| {
        ctx("rs encode", rs.encode(black_box(&data))).map(|parity| drop(black_box(parity)))
    })?;
    let parity = ctx("rs encode", rs.encode(&data))?;
    let full: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
    // One lost data block, rebuilt from the k lowest survivors — the
    // degraded read a node repair performs per block.
    let degraded = || {
        let mut shards = full.clone();
        shards[0] = None;
        for s in shards.iter_mut().skip(w.k + 1) {
            *s = None;
        }
        shards
    };
    let fold = || -> Res<Vec<Vec<u8>>> {
        let mut enc = StripeEncoder::new(&rs, len);
        for (i, d) in data.iter().enumerate() {
            ctx("absorb", enc.absorb_source(i, black_box(d)))?;
        }
        ctx("fold finish", enc.finish())
    };
    // Checked once, untimed: a probe of wrong answers measures nothing.
    let mut shards = degraded();
    ctx("rs reconstruct", rs.reconstruct(&mut shards))?;
    if shards[0].as_deref() != Some(data[0].as_slice()) || fold()? != parity {
        return Err("codec probes returned wrong bytes".into());
    }
    out.rs_reconstruct_s = p.calls(
        "probe.rs_reconstruct",
        15,
        |_| Ok(degraded()),
        |mut shards| ctx("rs reconstruct", rs.reconstruct(black_box(&mut shards))),
    )?;
    out.fold_s = p.calls("probe.fold", 25, ok, |_| {
        fold().map(|parity| drop(black_box(parity)))
    })?;
    out.crc_s = p.calls("probe.crc32c", 200, ok, |_| {
        black_box(crc32c(black_box(&block)));
        Ok(())
    })?;

    // ---- block store, on the workload's backend
    let open = |name: &str, sync: bool| -> Res<Box<dyn BlockStore>> {
        if w.durable {
            ctx(
                "open_store_at",
                open_store_at(w.store(), &dir.join(name), sync),
            )
        } else {
            Ok(Box::new(ShardedMemStore::new()))
        }
    };
    let id = |i: usize| Ok(BlockId(i as u64));
    let store = open("store-sync", true)?;
    out.put_sync_s = p.calls("probe.store_put_sync", 64, id, |b| {
        ctx("put", store.put(b, block.clone(), crc))
    })?;
    drop(store);
    let store = open("store", false)?;
    out.put_s = p.calls("probe.store_put", 64, id, |b| {
        ctx("put", store.put(b, block.clone(), crc))
    })?;
    out.get_s = p.calls("probe.store_get", 64, id, |b| match store.get_with_crc(b) {
        Some((got, c)) if c == crc && got.len() == len => {
            black_box(got);
            Ok(())
        }
        _ => Err(format!("store lost {b}")),
    })?;
    out.delete_s = p.calls("probe.store_delete", 64, id, |b| {
        if store.delete(b) {
            Ok(())
        } else {
            Err(format!("delete missed {b}"))
        }
    })?;
    drop(store);

    // ---- metadata WAL (probed on every workload; only a durable one
    // has it on its path)
    let record = |i: usize| {
        Ok(MetaRecord::Allocate {
            block: BlockId(i as u64),
            locations: replicas.clone(),
            assigned: true,
        })
    };
    let wal_dir = dir.join("wal-sync");
    let (wal, _) = ctx("MetaWal::open", MetaWal::open(&wal_dir, true, u64::MAX))?;
    out.wal_append_sync_s = p.calls("probe.wal_append_sync", 128, record, |r| {
        ctx("append", wal.append(&r)).map(drop)
    })?;
    let mut snap = MetaSnapshot::default();
    for i in 0..w.blocks {
        snap.apply(&record(i)?);
    }
    out.wal_checkpoint_s = p.calls("probe.wal_checkpoint", 5, ok, |_| {
        ctx("checkpoint", wal.checkpoint(&snap, wal.last_lsn()))
    })?;
    drop(wal);
    let wal_dir = dir.join("wal-nosync");
    let (wal, _) = ctx("MetaWal::open", MetaWal::open(&wal_dir, false, u64::MAX))?;
    out.wal_append_s = p.calls("probe.wal_append", w.blocks, record, |r| {
        ctx("append", wal.append(&r)).map(drop)
    })?;
    drop(wal);
    let log_bytes: u64 = ctx("read wal dir", std::fs::read_dir(&wal_dir))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.wal_bytes_per_record = log_bytes as f64 / w.blocks as f64;
    out.wal_reopen_s = p.calls("probe.wal_reopen", 5, ok, |_| {
        let (_, replayed) = ctx("MetaWal reopen", MetaWal::open(&wal_dir, false, u64::MAX))?;
        if replayed.blocks.len() != w.blocks {
            return Err(format!(
                "reopen replayed {} of {} records",
                replayed.blocks.len(),
                w.blocks
            ));
        }
        Ok(())
    })?;

    // ---- NameNode, ClusterIo and the reliability gate, on a cluster of
    // the workload's own configuration
    let cfs_dir = dir.join("cfs");
    let cfs = ctx(
        "probe cluster",
        MiniCfs::new(ctx("probe config", w.config(seed, &cfs_dir, false))?),
    )?;
    out.allocate_s = p.calls("probe.allocate_block", 256, ok, |_| {
        ctx("allocate_block", cfs.namenode().allocate_block()).map(drop)
    })?;
    out.locations_s = p.batches("probe.locations", 9, 2000, |i| {
        black_box(cfs.namenode().locations(BlockId((i % 256) as u64)));
    });
    let pending = cfs.namenode().pending_stripes();
    if pending.is_empty() {
        return Err("256 allocations sealed no stripe".into());
    }
    out.plan_encoding_s = p.calls(
        "probe.plan_encoding",
        pending.len(),
        |i| Ok(&pending[i]),
        |s| ctx("plan_encoding", cfs.namenode().plan_encoding(s)).map(drop),
    )?;
    out.ctx_s = p.batches("probe.reliability_ctx", 9, 2000, |_| {
        black_box(cfs.reliability().ctx(OpClass::ClientRead).is_ok());
    });
    // Local (src == dst) stores and first-touch fetches: the I/O service
    // with the wire taken out. Ids far above anything allocated.
    let node = NodeId(0);
    let far = |i: usize| BlockId(1 << 40 | i as u64);
    out.store_local_s = p.calls(
        "probe.store_local",
        64,
        |i| {
            Ok((
                far(i),
                ctx("ctx", cfs.reliability().ctx(OpClass::ClientWrite))?,
            ))
        },
        |(b, c)| {
            ctx(
                "store_at",
                cfs.io().store_at(&c, node, node, b, block.clone(), 0),
            )
        },
    )?;
    out.fetch_local_s = p.calls(
        "probe.fetch_local",
        64,
        |i| {
            Ok((
                far(i),
                ctx("ctx", cfs.reliability().ctx(OpClass::ClientRead))?,
            ))
        },
        |(b, c)| ctx("fetch_from", cfs.io().fetch_from(&c, node, node, b, 0)).map(drop),
    )?;
    drop(cfs);

    // ---- block cache at the workload's per-node size
    let cache = BlockCache::new(w.cache_config(), seed).ok_or("workload cache is off")?;
    out.cache_admit_s = p.calls("probe.cache_admit", 64, id, |b| {
        cache.admit(b, &block, crc);
        Ok(())
    })?;
    let resident = cache.resident_blocks();
    if resident.is_empty() {
        return Err("cache admitted nothing".into());
    }
    out.cache_get_hit_s = p.batches("probe.cache_get_hit", 9, 2000, |i| {
        black_box(cache.get(resident[i % resident.len()]));
    });

    // ---- netem: one block across racks at the workload's link rate
    let topo = ClusterTopology::uniform(2, 1);
    let rate = Bandwidth::bytes_per_sec(w.link_rate);
    let net = EmulatedNetwork::new(&topo, rate, rate);
    let ideal = len as f64 / w.link_rate;
    let transfer = |_| {
        net.transfer(NodeId(0), NodeId(1), len as u64);
        Ok(())
    };
    out.transfer_overshoot = p.calls("probe.netem_transfer", 9, ok, transfer)? / ideal;
    // A token bucket banks at most 5 ms of credit; 8 ms idle fills it.
    let idle = |i| {
        std::thread::sleep(std::time::Duration::from_millis(8));
        Ok(i)
    };
    // Credit can only shorten a transfer: a longer reading is the cold
    // start of a thread that just slept (all there is on unpaced links).
    out.idle_transfer_overshoot = (p.calls("probe.netem_idle_transfer", 9, idle, transfer)?
        / ideal)
        .min(out.transfer_overshoot);

    if let Some(t) = tracer {
        t.close(parent);
    }
    wipe(dir)?;
    Ok(out)
}
