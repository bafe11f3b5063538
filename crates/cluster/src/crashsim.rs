//! Deterministic crash/power-loss simulator (DESIGN.md §13).
//!
//! A script runs real operations on a store opened on a recording
//! [`Dir`], which pushes one [`Event`] per raw write, resize, fsync and
//! rename (`durable.rs`). A kill point cuts that stream, [`materialize`]
//! rebuilds a directory the power cut could have left, and recovery must
//! hold three invariants:
//!
//! 1. **No acknowledged operation is lost.** An operation is acknowledged
//!    once the first fsync after its first write lies before the cut.
//! 2. **Nothing half-done is visible.** Recovery gives the acknowledged
//!    prefix, or that prefix plus the operation the cut lands in; torn
//!    bytes never surface as data.
//! 3. **Recovery is deterministic.** Two reopens from one cut agree.
//!
//! Two scripts share the one runner: [`run_meta_kill`] appends
//! [`wal_script`]'s records to a [`MetaWal`] and checkpoints it at seeded
//! points; [`run_extent_kill`] puts, overwrites and deletes blocks of an
//! [`ExtentStore`].
//!
//! Everything is a pure function of `(seed, kill)` — a failing pair
//! printed by `tests/crash_sim.rs` or the CLI replays bit-identically anywhere
//! (the RNG is `ear-types`' own ChaCha8 stream, not an external crate's).

use crate::durable::{Dir, Event, Recorder};
use crate::extent::ExtentStore;
use crate::wal::{MetaRecord, MetaSnapshot, MetaWal};
use crate::{BlockStore, EncodedStripe, PendingStripe};
use ear_core::{BlockLayout, StripePlan};
use ear_types::crc::crc32c;
use ear_types::rng::ChaCha8;
use ear_types::{Block, BlockId, Error, NodeId, RackId, Result, StripeId};
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of one kill-point run, for smoke-test output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSummary {
    /// Operations in the script.
    pub ops: usize,
    /// Events of the write stream before the cut.
    pub cut: usize,
    /// Operations acknowledged before the cut (all survived recovery).
    pub survivors: usize,
    /// The window of the operation the cut lands in: `append`,
    /// `checkpoint tmp`, `checkpoint renamed` (between the rename and the
    /// compaction), `compaction`, `put` or `delete`; `nothing` for a cut
    /// before the first event.
    pub lands_in: &'static str,
}

static SIM_SEQ: AtomicU64 = AtomicU64::new(0);

fn sim_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ear-crashsim-{}-{}-{}",
        std::process::id(),
        SIM_SEQ.fetch_add(1, Ordering::Relaxed),
        tag
    ))
}

/// Removes a simulation's scratch directory. Already-gone is success;
/// anything else is a real error — a verdict computed while the scratch
/// tree cannot be torn down would leak state into the next scenario.
fn cleanup(dir: &Path) -> Result<()> {
    match fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(Error::Io {
            context: format!("remove {}: {e}", dir.display()),
        }),
    }
}

// ---------------------------------------------------------------------------
// Script generation
// ---------------------------------------------------------------------------

fn random_nodes(rng: &mut ChaCha8, max: u32, count: usize) -> Vec<NodeId> {
    rng.sample_indices(max as usize, count)
        .into_iter()
        .map(|i| NodeId(i as u32))
        .collect()
}

/// A uniformly drawn element of `v`, or `None` when it is empty.
fn pick(rng: &mut ChaCha8, v: &[BlockId]) -> Option<BlockId> {
    v.get(rng.below(v.len() as u64) as usize).copied()
}

fn random_plan(rng: &mut ChaCha8, k: usize) -> StripePlan {
    let layout = |_| BlockLayout::new(random_nodes(rng, 32, 3));
    let layouts = (0..k).map(layout).collect();
    let core_rack = (rng.below(2) == 0).then(|| RackId(rng.below(8) as u32));
    let target_racks = (rng.below(2) == 0)
        .then(|| (0..rng.below(4) as usize).map(|_| RackId(rng.below(8) as u32)).collect());
    let retries = (0..k).map(|_| rng.below(4) as usize).collect();
    StripePlan::new(layouts, core_rack, target_racks, retries)
}

/// Expands `seed` into a deterministic script of ~40 metadata mutations:
/// allocations, location churn, stripe seals, and encode commits, in a
/// dependency-respecting order.
pub fn wal_script(seed: u64) -> Vec<MetaRecord> {
    let mut rng = ChaCha8::from_seed(seed ^ 0x57A1_5C21_D06A_11CE);
    let mut records = Vec::new();
    let mut next_block = 0u64;
    let mut next_stripe = 0u64;
    let mut unsealed: Vec<BlockId> = Vec::new();
    let mut pending: Vec<StripeId> = Vec::new();
    let mut known: Vec<BlockId> = Vec::new();
    for _ in 0..40 {
        match rng.below(10) {
            0..=3 => {
                let block = BlockId(next_block);
                next_block += 1;
                let assigned = rng.below(4) != 0;
                let count = 1 + rng.below(3) as usize;
                records.push(MetaRecord::Allocate {
                    block,
                    locations: random_nodes(&mut rng, 32, count),
                    assigned,
                });
                if assigned {
                    unsealed.push(block);
                }
                known.push(block);
            }
            4..=6 if !known.is_empty() => {
                let block = pick(&mut rng, &known).unwrap_or(BlockId(0));
                let count = 1 + rng.below(3) as usize;
                records.push(MetaRecord::SetLocations {
                    block,
                    nodes: random_nodes(&mut rng, 32, count),
                });
            }
            7 | 8 if unsealed.len() >= 2 => {
                let k = 2 + rng.below((unsealed.len() - 1) as u64) as usize;
                let blocks: Vec<BlockId> = unsealed.drain(..k).collect();
                let id = StripeId(next_stripe);
                next_stripe += 1;
                let plan = random_plan(&mut rng, blocks.len());
                records.push(MetaRecord::SealStripe(PendingStripe { id, blocks, plan }));
                pending.push(id);
            }
            9 if !pending.is_empty() => {
                let id = pending.remove(rng.below(pending.len() as u64) as usize);
                let data = random_nodes(&mut rng, 32, 2)
                    .iter()
                    .map(|n| BlockId(n.0 as u64))
                    .collect();
                let parity = vec![BlockId(next_block), BlockId(next_block + 1)];
                next_block += 2;
                records.push(MetaRecord::EncodeCommit(EncodedStripe { id, data, parity }));
            }
            _ => {
                // The drawn op had no eligible target; fall back to an
                // allocation so the script always reaches its length.
                let block = BlockId(next_block);
                next_block += 1;
                records.push(MetaRecord::Allocate {
                    block,
                    locations: random_nodes(&mut rng, 32, 2),
                    assigned: true,
                });
                unsealed.push(block);
                known.push(block);
            }
        }
    }
    records
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// One operation's events, `start..end` of the run's stream, and `ack`,
/// the first fsync after its first write.
struct Op {
    kind: &'static str,
    start: usize,
    end: usize,
    ack: usize,
}

/// A script's run as recorded: its events, its operations, and
/// `images[i]`, what recovery must give once `ops[..i]` are acknowledged.
struct Tape<I> {
    recorder: Recorder,
    events: Vec<Event>,
    ops: Vec<Op>,
    images: Vec<I>,
}

impl<I> Tape<I> {
    /// Ends the operation just run: takes its events and the image it left.
    fn op(&mut self, kind: &'static str, image: I) {
        let start = self.events.len();
        self.events.append(&mut self.recorder.take());
        let mine = self.events.get(start..).unwrap_or_default();
        let write = mine.iter().position(|e| matches!(e, Event::Write { .. })).unwrap_or(0);
        let fsync = mine.iter().skip(write).position(|e| matches!(e, Event::Sync { .. } | Event::SyncDir));
        let ack = fsync.map_or(start, |p| start + write + p);
        self.ops.push(Op { kind, start, end: self.events.len(), ack });
        self.images.push(image);
    }
}

/// Rebuilds in `out`, through a [`Dir`] with sync off, a directory a power
/// cut after `events` could leave. The creates and renames before the last
/// directory fsync persist, and a seeded prefix of those after it. Each
/// file keeps its bytes as of its last fsync; each write after that is
/// kept, torn (a prefix, then seeded garbage) or lost, and each resize
/// kept or lost, by a seeded fate.
fn materialize(events: &[Event], rng: &mut ChaCha8, out: &Path) -> Result<()> {
    let dir_synced = events.iter().rposition(|e| *e == Event::SyncDir).unwrap_or(0);
    let late = events.iter().skip(dir_synced);
    let late = late.filter(|e| matches!(e, Event::Create { .. } | Event::Rename { .. }));
    let mut kept_late = rng.below(late.count() as u64 + 1);
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut synced: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let (file, name) = match event {
            Event::Create { file, name } | Event::Rename { file, to: name } => (*file, name),
            Event::Sync { file } => {
                synced.insert(*file, i);
                continue;
            }
            _ => continue,
        };
        if i >= dir_synced {
            if kept_late == 0 {
                continue;
            }
            kept_late -= 1;
        }
        names.retain(|_, f| *f != file);
        names.insert(name, file);
    }

    let dir = Dir::create_all(out, false)?;
    for (name, file) in names {
        let f = dir.create(name, OpenOptions::new().write(true))?;
        let synced = synced.get(&file).copied().unwrap_or(0);
        for (i, event) in events.iter().enumerate() {
            match event {
                Event::Write { file: w, off, bytes } if *w == file => {
                    let landed = if i < synced { Some(bytes.clone()) } else { fate(rng, bytes) };
                    if let Some(bytes) = landed {
                        f.write_at(*off, &bytes)?.sync()?;
                    }
                }
                Event::Resize { file: r, len } if *r == file && (i < synced || rng.below(4) > 0) => {
                    f.resize(*len)?.sync()?;
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// What of an unsynced write of `bytes` lands: nothing (lost), a prefix
/// and then seeded garbage (torn), or all of it (kept).
fn fate(rng: &mut ChaCha8, bytes: &[u8]) -> Option<Vec<u8>> {
    match rng.below(4) {
        0 => None,
        1 => {
            let kept = rng.below(bytes.len() as u64 + 1) as usize;
            let garbage = rng.below((bytes.len() - kept) as u64 + 1);
            let mut torn = bytes.get(..kept).unwrap_or_default().to_vec();
            torn.extend((0..garbage).map(|_| rng.next_u32() as u8));
            Some(torn)
        }
        _ => Some(bytes.to_vec()),
    }
}

/// The window of `op` a cut after its events `done` lands in: a
/// checkpoint's tmp write, its rename, then its compaction (the second
/// create and rename) are told apart.
fn window(op: &Op, done: &[Event]) -> &'static str {
    if op.kind != "checkpoint" {
        return op.kind;
    }
    match done.iter().filter(|e| matches!(e, Event::Create { .. } | Event::Rename { .. })).count() {
        0 | 1 => "checkpoint tmp",
        2 => "checkpoint renamed",
        _ => "compaction",
    }
}

/// Runs `script` on a recording directory, cuts its events at `kill`,
/// materializes the cut, and checks that `recover` gives the acknowledged
/// prefix (or that plus the operation in flight), twice over.
fn run<I: PartialEq + Default>(
    surface: &str,
    seed: u64,
    kill: u64,
    script: impl FnOnce(Dir, &mut Tape<I>) -> Result<()>,
    recover: impl Fn(&Path) -> Result<I>,
) -> Result<KillSummary> {
    let (live, crashed) = (sim_dir(surface), sim_dir(surface));
    let verdict = (|| {
        let recorder = Recorder::default();
        let images = vec![I::default()];
        let mut tape = Tape { recorder, events: Vec::new(), ops: Vec::new(), images };
        script(Dir::recording(&live, &tape.recorder)?, &mut tape)?;
        let cut = (kill % (tape.events.len() as u64 + 1)) as usize;
        let done = tape.events.get(..cut).unwrap_or_default();
        let mut rng = ChaCha8::from_seed(seed ^ kill.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        materialize(done, &mut rng, &crashed)?;

        let acked = tape.ops.iter().take_while(|op| op.ack < cut).count();
        let in_flight = tape.ops.get(acked).is_some_and(|op| op.start < cut);
        let at = format!("{surface} kill (seed {seed}, kill {kill}, cut {cut})");
        let recovered = recover(&crashed)?;
        let is = |i: usize| tape.images.get(i) == Some(&recovered);
        if !(is(acked) || in_flight && is(acked + 1)) {
            return Err(Error::Invariant(format!(
                "{at}: recovery is neither the {acked}-op acknowledged prefix nor that prefix \
                 and the op in flight"
            )));
        }
        if recover(&crashed)? != recovered {
            return Err(Error::Invariant(format!("{at}: a second recovery differs from the first")));
        }
        let last = tape.ops.iter().find(|op| op.start < cut && cut <= op.end);
        let lands_in = last.map_or("nothing", |op| {
            window(op, tape.events.get(op.start..cut).unwrap_or_default())
        });
        Ok(KillSummary { ops: tape.ops.len(), cut, survivors: acked, lands_in })
    })();
    let cleaned = cleanup(&live).and(cleanup(&crashed));
    let summary = verdict?;
    cleaned?;
    Ok(summary)
}

// ---------------------------------------------------------------------------
// The two scripts
// ---------------------------------------------------------------------------

/// Appends [`wal_script`]'s records to a [`MetaWal`] and checkpoints it at
/// seeded points, each at a seeded low-water mark no older than the last
/// (so later frames carry over), then cuts and reopens it.
///
/// # Errors
///
/// [`Error::Invariant`] naming `(seed, kill)` and the violated invariant,
/// or the typed error recovery itself failed with.
pub fn run_meta_kill(seed: u64, kill: u64) -> Result<KillSummary> {
    let script = |dir: Dir, tape: &mut Tape<MetaSnapshot>| {
        let (wal, _) = MetaWal::open_on(dir, 1 << 20)?;
        let mut rng = ChaCha8::from_seed(seed ^ 0xC4EC_4901_47A1_5EED);
        let mut by_lsn = vec![MetaSnapshot::default()];
        let mut installed = 0;
        for rec in wal_script(seed) {
            wal.append(&rec)?;
            let mut image = by_lsn.last().cloned().unwrap_or_default();
            image.apply(&rec);
            by_lsn.push(image.clone());
            tape.op("append", image.clone());
            if rng.below(6) == 0 {
                installed += rng.below((by_lsn.len() - installed) as u64) as usize;
                wal.checkpoint(by_lsn.get(installed).unwrap_or(&image), installed as u64)?;
                tape.op("checkpoint", image);
            }
        }
        Ok(())
    };
    let recover = |dir: &Path| MetaWal::open(dir, false, 1 << 20).map(|(_, image)| image);
    run("meta", seed, kill, script, recover)
}

#[derive(Debug, Clone)]
enum ExtOp {
    Put { block: BlockId, data: Vec<u8> },
    Delete { block: BlockId },
}

fn extent_script(seed: u64) -> Vec<ExtOp> {
    let mut rng = ChaCha8::from_seed(seed ^ 0xE47E_0D5A_93B1_77F3);
    let mut live: Vec<BlockId> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..24 {
        let delete = !live.is_empty() && rng.below(5) == 0;
        if delete {
            let block = pick(&mut rng, &live).unwrap_or(BlockId(0));
            live.retain(|&b| b != block);
            ops.push(ExtOp::Delete { block });
        } else {
            let block = BlockId(rng.below(10));
            let len = 1 + rng.below(6000) as usize;
            let mut data = vec![0u8; len];
            for b in data.iter_mut() {
                *b = rng.next_u32() as u8;
            }
            if !live.contains(&block) {
                live.push(block);
            }
            ops.push(ExtOp::Put { block, data });
        }
    }
    ops
}

/// Puts, overwrites and deletes blocks of an [`ExtentStore`] by a seeded
/// script, then cuts and reopens it.
///
/// # Errors
///
/// [`Error::Invariant`] naming `(seed, kill)` and the violated invariant,
/// or the typed error recovery itself failed with.
pub fn run_extent_kill(seed: u64, kill: u64) -> Result<KillSummary> {
    type Image = BTreeMap<BlockId, Vec<u8>>;
    let script = |dir: Dir, tape: &mut Tape<Image>| {
        let store = ExtentStore::open_on(dir)?;
        let mut image = Image::new();
        for op in extent_script(seed) {
            match op {
                ExtOp::Put { block, data } => {
                    store.put(block, Block::from(data.clone()), crc32c(&data))?;
                    image.insert(block, data);
                    tape.op("put", image.clone());
                }
                ExtOp::Delete { block } => {
                    store.delete(block);
                    image.remove(&block);
                    tape.op("delete", image.clone());
                }
            }
        }
        Ok(())
    };
    let recover = |dir: &Path| {
        let store = ExtentStore::open_at(dir, false)?;
        let blocks = (0..10).map(BlockId);
        let stored = blocks.filter_map(|b| Some((b, store.get_with_crc(b)?.0.as_slice().to_vec())));
        Ok(stored.collect::<Image>())
    };
    run("extent", seed, kill, script, recover)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        assert_eq!(wal_script(7), wal_script(7));
        assert_ne!(wal_script(7), wal_script(8));
        let a = format!("{:?}", extent_script(7));
        assert_eq!(a, format!("{:?}", extent_script(7)));
    }

    /// Every cut of one run: each window of a checkpoint is cut, and every
    /// cut recovers clean.
    #[test]
    fn checkpoint_kill_sweep_smoke() {
        let windows: std::collections::BTreeSet<&str> =
            (0..256).map(|kill| run_meta_kill(0, kill).unwrap().lands_in).collect();
        for window in ["append", "checkpoint tmp", "checkpoint renamed", "compaction"] {
            assert!(windows.contains(window), "no cut in {window}: {windows:?}");
        }
    }

    #[test]
    fn meta_kill_sweep_smoke() {
        for seed in 0..3u64 {
            for kill in [0u64, 13, 97, 511, 4093, u64::MAX] {
                run_meta_kill(seed, kill).unwrap();
            }
        }
    }

    #[test]
    fn extent_kill_sweep_smoke() {
        for seed in 0..3u64 {
            for kill in [0u64, 3, 17, 40, 101, u64::MAX] {
                run_extent_kill(seed, kill).unwrap();
            }
        }
    }
}
