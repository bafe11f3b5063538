//! One life-cycle round: fresh cluster → write → encode (+ relocate) →
//! read → kill + repair → verify → drop. Phases are fixed work, timed with
//! `Instant` here in the harness only; verification is never timed.

use crate::stats::{derive, percentile, skewed_index, SplitMix64};
use crate::trace::{Span, Tracer, NO_PARENT};
use crate::workload::{ReadMix, Workload, C, CLIENTS};
use ear_cluster::{recover_node, ClusterConfig, IoStats, MiniCfs, RaidNode};
use ear_netem::TrafficSnapshot;
use ear_types::{BlockId, NodeId};
use std::path::Path;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// Turns a product error into the harness's error, naming what failed.
pub fn ctx<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

pub const PHASES: [&str; 4] = ["write", "encode", "read", "repair"];

/// What one phase did below the client API, from `IoStats` and netem
/// counter deltas taken at the phase boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounters {
    pub reads: u64,
    pub writes: u64,
    pub crc_skipped: u64,
    pub read_retries: u64,
    pub failed_reads: u64,
    pub shed_ops: u64,
    pub deadline_misses: u64,
    pub hedges_launched: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub cross_rack_bytes: u64,
    pub intra_rack_bytes: u64,
}

struct Mark {
    io: IoStats,
    net: TrafficSnapshot,
}

impl Mark {
    fn take(cfs: &MiniCfs) -> Mark {
        Mark {
            io: cfs.io_stats(),
            net: cfs.network().snapshot(),
        }
    }

    fn since(&self, earlier: &Mark) -> PhaseCounters {
        let (a, b) = (&earlier.io, &self.io);
        let net = self.net.delta(&earlier.net);
        PhaseCounters {
            reads: b.reads - a.reads,
            writes: b.writes - a.writes,
            crc_skipped: b.crc_skipped - a.crc_skipped,
            read_retries: b.read_retries - a.read_retries,
            failed_reads: b.failed_reads - a.failed_reads,
            shed_ops: b.shed_ops - a.shed_ops,
            deadline_misses: b.deadline_misses - a.deadline_misses,
            hedges_launched: b.hedges_launched - a.hedges_launched,
            cache_hits: b.cache.hits() - a.cache.hits(),
            cache_misses: b.cache.misses - a.cache.misses,
            evictions: b.cache.evictions - a.cache.evictions,
            cross_rack_bytes: net.cross_rack_bytes,
            intra_rack_bytes: net.intra_rack_bytes,
        }
    }
}

/// The client-side latencies of one phase of one round, reduced to what
/// the reports use: a run keeps every round, and 400 000 raw read latencies
/// in each would make `peak_rss_mib` count the rounds that fit `--seconds`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latencies {
    pub ops: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

impl Latencies {
    pub fn of(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        Latencies {
            ops: ns.len(),
            p50_ns: percentile(&ns, 0.50),
            p95_ns: percentile(&ns, 0.95),
            p99_ns: percentile(&ns, 0.99),
        }
    }
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Whether the harness recorded spans during this round.
    pub traced: bool,
    pub setup_s: f64,
    pub write_s: f64,
    pub encode_s: f64,
    pub relocate_s: f64,
    pub read_s: f64,
    pub repair_s: f64,
    pub write_lat: Latencies,
    pub read_lat: Latencies,
    /// Client ops, stripes and node repairs attempted, and how many of
    /// them returned an error. An op that returns wrong bytes is not
    /// counted: it fails the round.
    pub attempted: u64,
    pub failed: u64,
    /// The first of those errors, for the message that refuses the run.
    pub first_failure: Option<String>,
    pub acked_blocks: usize,
    pub stripes: usize,
    pub encoded_bytes: u64,
    pub stripes_with_relocation: usize,
    pub relocated_blocks: usize,
    pub encode_cross_rack_downloads: usize,
    /// Gaps between consecutive stripe completions of the encode job, ms.
    pub stripe_gap_ms: Vec<f64>,
    /// Σ`rack_storage()` after encode + relocate.
    pub stored_bytes: u64,
    pub rebuilt_blocks: usize,
    pub repair_downloads: usize,
    pub repair_cross_rack_downloads: usize,
    pub repair_cross_rack_uploads: usize,
    /// Per victim: repair wall per rebuilt block, ms.
    pub repair_block_ms: Vec<f64>,
    /// Indexed like [`PHASES`]; `encode` includes the relocations.
    pub counters: [PhaseCounters; 4],
    /// Wall of `MiniCfs::reopen`, in the rounds that end with the restart
    /// gate.
    pub reopen_ms: Option<f64>,
}

impl Round {
    pub fn lifecycle_s(&self) -> f64 {
        self.write_s + self.encode_s + self.relocate_s + self.read_s + self.repair_s
    }
}

/// A block the cluster acknowledged, with what a read of it must return.
#[derive(Debug, Clone, Copy)]
struct Acked {
    id: BlockId,
    tag: u64,
    head: u64,
    tail: u64,
}

fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

fn head_tail(data: &[u8]) -> (u64, u64) {
    (word(&data[..8]), word(&data[data.len() - 8..]))
}

/// Span bookkeeping of one round; every method is a no-op untraced.
struct Spans<'a> {
    tracer: Option<&'a Tracer>,
    round: u32,
    root: u32,
}

impl<'a> Spans<'a> {
    fn open(&self, name: &'static str) -> u32 {
        self.tracer
            .map_or(NO_PARENT, |t| t.open(name, self.root, self.round))
    }

    fn close(&self, id: u32) {
        if let Some(t) = self.tracer {
            t.close(id);
        }
    }
}

/// A client thread's op timer: always the latency, plus the start time
/// when traced. The spans are built from the two in [`OpClock::finish`],
/// which the round calls after it has stopped the phase's clock: inside the
/// loop a traced op costs one more 8-byte store than an untraced one.
struct OpClock<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    parent: u32,
    round: u32,
    lat_ns: Vec<u64>,
    start_ns: Vec<u64>,
}

impl<'a> OpClock<'a> {
    fn new(spans: &Spans<'a>, name: &'static str, parent: u32, ops: usize) -> Self {
        OpClock {
            tracer: spans.tracer,
            name,
            parent,
            round: spans.round,
            lat_ns: Vec::with_capacity(ops),
            start_ns: Vec::with_capacity(if spans.tracer.is_some() { ops } else { 0 }),
        }
    }

    fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        // One clock read on each side of the op, traced or not.
        let start = Instant::now();
        let out = op();
        let ns = start.elapsed().as_nanos() as u64;
        self.lat_ns.push(ns);
        if let Some(t) = self.tracer {
            self.start_ns.push(t.ns_at(start));
        }
        out
    }

    /// Hands the spans to the tracer and returns the latencies.
    fn finish(self) -> Vec<u64> {
        if let Some(t) = self.tracer {
            let spans = self
                .start_ns
                .iter()
                .zip(&self.lat_ns)
                .map(|(&start_ns, &ns)| Span {
                    name: self.name,
                    start_ns,
                    end_ns: start_ns + ns,
                    parent: self.parent,
                    round: self.round,
                });
            t.extend(spans.collect());
        }
        self.lat_ns
    }
}

/// The client ops of one thread that returned an error.
#[derive(Default)]
struct Failures {
    count: u64,
    first: Option<String>,
}

impl Failures {
    fn note(&mut self, op: &str, e: impl std::fmt::Display) {
        self.count += 1;
        self.first.get_or_insert_with(|| format!("{op}: {e}"));
    }

    fn add_to(self, round: &mut Round) {
        round.failed += self.count;
        if round.first_failure.is_none() {
            round.first_failure = self.first;
        }
    }
}

/// A block to write: its `make_block` tag and its bytes.
type Payload = (u64, Vec<u8>);

/// Builds the round's cluster and payloads — the work `setup_s` times.
/// `dir` is wiped first so a durable cluster always boots empty.
pub fn set_up(
    w: &Workload,
    sync: bool,
    seed: u64,
    dir: &Path,
) -> Res<(ClusterConfig, MiniCfs, Vec<Payload>)> {
    wipe(dir)?;
    let cfg = ctx("cluster config", w.config(seed, dir, sync))?;
    let cfs = ctx("MiniCfs::new", MiniCfs::new(cfg.clone()))?;
    let payloads = (0..w.blocks as u64)
        .map(|i| {
            let tag = derive(seed, i);
            (tag, cfs.make_block(tag))
        })
        .collect();
    Ok((cfg, cfs, payloads))
}

pub fn wipe(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("wipe {}: {e}", dir.display())),
    }
}

/// Runs one round of `w` with inputs drawn from `seed`; `sync` is the
/// cluster's `sync_writes`. Any correctness gate that fails is an `Err`: the
/// caller withholds every metric. A durable round ends with the restart gate
/// if it is synced (where an ack promises the block is on disk) or the
/// run's first.
pub fn run(
    w: &Workload,
    sync: bool,
    seed: u64,
    dir: &Path,
    tracer: Option<&Tracer>,
    round: u32,
) -> Res<Round> {
    let mut out = Round {
        traced: tracer.is_some(),
        ..Round::default()
    };
    let root = tracer.map_or(NO_PARENT, |t| t.open("round", NO_PARENT, round));
    let spans = Spans {
        tracer,
        round,
        root,
    };
    let nodes = w.nodes() as u64;
    let block_bytes = w.block_bytes();

    let phase = spans.open("setup");
    let t = Instant::now();
    let (cfg, cfs, payloads) = set_up(w, sync, seed, dir)?;
    out.setup_s = t.elapsed().as_secs_f64();
    spans.close(phase);

    // ---- write: CLIENTS closed-loop clients, block i on client i % CLIENTS.
    let mut lanes: Vec<Vec<Payload>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (i, p) in payloads.into_iter().enumerate() {
        lanes[i % CLIENTS].push(p);
    }
    let before = Mark::take(&cfs);
    let phase = spans.open("write");
    let t = Instant::now();
    let written: Vec<(Vec<Acked>, OpClock, Failures)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(lane, payloads)| {
                let (cfs, spans) = (&cfs, &spans);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(derive(seed, 0x5752_0000 + lane as u64));
                    let mut clock = OpClock::new(spans, "write_block", phase, payloads.len());
                    let mut acked = Vec::with_capacity(payloads.len());
                    let mut failed = Failures::default();
                    for (tag, data) in payloads {
                        let client = NodeId(rng.below(nodes) as u32);
                        let (head, tail) = head_tail(&data);
                        match clock.time(|| cfs.write_block(client, data)) {
                            Ok(id) => acked.push(Acked {
                                id,
                                tag,
                                head,
                                tail,
                            }),
                            Err(e) => failed.note("write_block", e),
                        }
                    }
                    (acked, clock, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "write client panicked".to_string()))
            .collect::<Res<_>>()
    })?;
    out.write_s = t.elapsed().as_secs_f64();
    spans.close(phase);
    let after_write = Mark::take(&cfs);
    out.counters[0] = after_write.since(&before);

    let mut acked: Vec<Acked> = Vec::with_capacity(w.blocks);
    let mut lat_ns = Vec::with_capacity(w.blocks);
    for (a, clock, failed) in written {
        acked.extend(a);
        lat_ns.extend(clock.finish());
        failed.add_to(&mut out);
    }
    out.attempted += w.blocks as u64;
    out.write_lat = Latencies::of(lat_ns);
    // Id order is allocation order: the skewed read mix favours the
    // earliest blocks, whichever client wrote them.
    acked.sort_unstable_by_key(|a| a.id);
    out.acked_blocks = acked.len();
    if acked.is_empty() {
        return Err("no write was acknowledged".into());
    }

    // ---- encode, then the BlockMover's relocations.
    let phase = spans.open("encode");
    let t = Instant::now();
    let (enc, relocations) = ctx("encode_all", RaidNode::encode_all(&cfs, CLIENTS))?;
    out.encode_s = t.elapsed().as_secs_f64();
    spans.close(phase);
    let phase = spans.open("relocate");
    let t = Instant::now();
    out.relocated_blocks = ctx("relocate", RaidNode::relocate(&cfs, &relocations))?;
    out.relocate_s = t.elapsed().as_secs_f64();
    spans.close(phase);
    let after_encode = Mark::take(&cfs);
    out.counters[1] = after_encode.since(&after_write);

    out.stripes = enc.stripes;
    out.encoded_bytes = enc.encoded_bytes;
    out.stripes_with_relocation = enc.stripes_with_relocation;
    out.encode_cross_rack_downloads = enc.cross_rack_downloads;
    out.stripe_gap_ms = enc
        .completion_times
        .windows(2)
        .map(|p| (p[1] - p[0]) * 1e3)
        .collect();
    out.attempted += (enc.stripes + enc.failed_stripes.len()) as u64;
    out.failed += enc.failed_stripes.len() as u64;
    if let Some((id, e)) = enc.failed_stripes.first() {
        return Err(format!("encode gave up on {id}: {e}"));
    }
    if enc.stripes == 0 {
        return Err("no stripe was encoded".into());
    }
    if w.policy == ear_cluster::ClusterPolicy::Ear && out.relocated_blocks != 0 {
        return Err(format!(
            "EAR needed {} relocations; the paper guarantees 0",
            out.relocated_blocks
        ));
    }
    check_rack_limit(&cfs, "after encode")?;
    out.stored_bytes = cfs.rack_storage().iter().sum();

    // ---- read: whole blocks from seeded readers, checked head and tail.
    let phase = spans.open("read");
    let t = Instant::now();
    let read: Vec<Res<(OpClock, Failures)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                let (cfs, spans, acked) = (&cfs, &spans, &acked);
                let ops = w.reads / CLIENTS + usize::from(lane < w.reads % CLIENTS);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(derive(seed, 0x5244_0000 + lane as u64));
                    let mut clock = OpClock::new(spans, "read_block", phase, ops);
                    let mut failed = Failures::default();
                    for _ in 0..ops {
                        let reader = NodeId(rng.below(nodes) as u32);
                        let idx = match w.read_mix {
                            ReadMix::Uniform => rng.below(acked.len() as u64) as usize,
                            ReadMix::Skewed => skewed_index(rng.unit(), acked.len()),
                        };
                        let want = &acked[idx];
                        match clock.time(|| cfs.read_block(reader, want.id)) {
                            Ok(data)
                                if data.len() == block_bytes
                                    && head_tail(&data) == (want.head, want.tail) => {}
                            // Wrong bytes are not a slow or refused op.
                            Ok(_) => {
                                return Err(format!(
                                    "read of {} at {reader} returned wrong bytes",
                                    want.id
                                ))
                            }
                            Err(e) => failed.note("read_block", e),
                        }
                    }
                    Ok((clock, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "read client panicked".to_string()))
            .collect::<Res<_>>()
    })?;
    out.read_s = t.elapsed().as_secs_f64();
    spans.close(phase);
    let after_read = Mark::take(&cfs);
    out.counters[2] = after_read.since(&after_encode);
    let mut lat_ns = Vec::with_capacity(w.reads);
    for client in read {
        let (clock, failed) = client?;
        lat_ns.extend(clock.finish());
        failed.add_to(&mut out);
    }
    out.attempted += w.reads as u64;
    out.read_lat = Latencies::of(lat_ns);

    // ---- kill + repair: K seeded victims, one after another.
    let victims = SplitMix64::new(derive(seed, 0x4B49_4C4C)).distinct(nodes, w.kills);
    let phase = spans.open("repair");
    let t = Instant::now();
    for v in victims {
        let op = tracer.map_or(NO_PARENT, |tr| tr.open("recover_node", phase, round));
        let tv = Instant::now();
        let rec = ctx("recover_node", recover_node(&cfs, NodeId(v as u32)))?;
        let wall = tv.elapsed().as_secs_f64();
        spans.close(op);
        out.rebuilt_blocks += rec.blocks_recovered;
        out.repair_downloads += rec.blocks_downloaded;
        out.repair_cross_rack_downloads += rec.cross_rack_downloads;
        out.repair_cross_rack_uploads += rec.cross_rack_uploads;
        if rec.blocks_recovered > 0 {
            out.repair_block_ms
                .push(wall * 1e3 / rec.blocks_recovered as f64);
        }
    }
    out.repair_s = t.elapsed().as_secs_f64();
    spans.close(phase);
    out.counters[3] = Mark::take(&cfs).since(&after_read);
    out.attempted += w.kills as u64;
    if out.rebuilt_blocks == 0 {
        return Err("the killed nodes held no block".into());
    }
    check_rack_limit(&cfs, "after repair")?;

    // ---- verify, untimed: every acknowledged block, byte for byte.
    let phase = spans.open("verify");
    verify_all(&cfs, &acked, "after repair")?;
    if w.durable && (sync || round == 0) {
        // Restart gate: a reopened cluster serves every acknowledged block.
        drop(cfs);
        let t = Instant::now();
        let reopened = ctx("MiniCfs::reopen", MiniCfs::reopen(cfg))?;
        out.reopen_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        verify_all(&reopened, &acked, "after reopen")?;
        drop(reopened);
    } else {
        drop(cfs);
    }
    spans.close(phase);
    wipe(dir)?;
    spans.close(root);
    Ok(out)
}

/// Reads every acknowledged block through the client path, at a node that
/// holds it so the read is not paced, and compares all of it with a fresh
/// `make_block(tag)`.
fn verify_all(cfs: &MiniCfs, acked: &[Acked], when: &str) -> Res<()> {
    for a in acked {
        let holder = cfs
            .namenode()
            .locations(a.id)
            .and_then(|l| l.first().copied())
            .ok_or_else(|| format!("{} has no location {when}", a.id))?;
        let got = ctx(
            &format!("read {} {when}", a.id),
            cfs.read_block(holder, a.id),
        )?;
        if got.as_slice() != cfs.make_block(a.tag).as_slice() {
            return Err(format!("{} differs from its payload {when}", a.id));
        }
    }
    Ok(())
}

/// The paper's placement guarantee: no rack holds more than `c` blocks of
/// an encoded stripe.
fn check_rack_limit(cfs: &MiniCfs, when: &str) -> Res<()> {
    let topo = cfs.topology();
    for stripe in cfs.namenode().encoded_stripes() {
        let mut per_rack = vec![0usize; topo.num_racks()];
        for b in stripe.data.iter().chain(&stripe.parity) {
            let locs = cfs.namenode().locations(*b).unwrap_or_default();
            if locs.is_empty() {
                return Err(format!("{b} of {} has no location {when}", stripe.id));
            }
            for n in locs {
                per_rack[topo.rack_of(n).index()] += 1;
            }
        }
        if let Some(worst) = per_rack.iter().max().filter(|&&m| m > C) {
            return Err(format!(
                "{} has {worst} blocks in one rack {when} (c = {C})",
                stripe.id
            ));
        }
    }
    Ok(())
}
