//! Deterministic crash/power-loss simulator (DESIGN.md §13).
//!
//! Each runner builds a durable artifact from a seeded script, cuts its
//! write stream at an arbitrary kill point — byte-granular for the WAL and
//! checkpoint, event-granular with seeded write tearing for the extent
//! engine — then recovers and checks the three durability invariants:
//!
//! 1. **No acknowledged write is lost.** Everything whose commit barrier
//!    (full frame on disk / fsync returned) precedes the cut is recovered.
//! 2. **No unacknowledged write is half-visible.** An operation cut before
//!    its barrier either fully happened or fully did not; torn bytes never
//!    surface as data.
//! 3. **Recovery is deterministic.** Reopening twice from the same kill
//!    point yields the identical image.
//!
//! Everything is a pure function of `(seed, kill)` — a failing pair
//! printed by `tests/crash_sim.rs` or the CLI replays bit-identically anywhere
//! (the RNG is `ear-faults`' own ChaCha8 stream, not an external crate's).

use crate::extent::{ExtentStore, WriteEvent};
use crate::wal::{
    encode_checkpoint, encode_frame, MetaRecord, MetaSnapshot, MetaWal, CHECKPOINT_FILE, WAL_FILE,
};
use crate::{BlockStore, EncodedStripe, PendingStripe};
use ear_core::{BlockLayout, StripePlan};
use ear_types::crc::crc32c;
use ear_types::rng::ChaCha8;
use ear_types::{Block, BlockId, Error, NodeId, RackId, Result, StripeId};
use std::collections::BTreeMap;
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of one kill-point run, for smoke-test output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSummary {
    /// Operations (records) in the generated script.
    pub ops: usize,
    /// Where the write stream was cut (bytes or events, per surface).
    pub cut: usize,
    /// Operations that were durable at the cut and survived recovery.
    pub survivors: usize,
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

/// Writes `bytes` to `path` as they are: an image the protocol under test
/// never wrote, forged past durable.rs on purpose.
#[expect(clippy::disallowed_methods, reason = "forges torn images on purpose")]
fn forge(path: &Path, bytes: &[u8], what: &str) -> Result<()> {
    fs::write(path, bytes).map_err(|e| Error::Io {
        context: format!("write {what}: {e}"),
    })
}

fn invariant(msg: String) -> Error {
    Error::Invariant(msg)
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
// Surface 1: WAL replay
// ---------------------------------------------------------------------------

/// Cuts a WAL byte image at `kill` and proves recovery equals the apply of
/// exactly the fully-framed prefix — twice.
///
/// # Errors
///
/// [`Error::Invariant`] describing the first violated recovery invariant,
/// or the underlying typed error if recovery itself fails.
pub fn run_wal_kill(seed: u64, kill: u64) -> Result<KillSummary> {
    let records = wal_script(seed);

    // Frame the full log and remember each record's commit boundary.
    let mut image = Vec::new();
    let mut commit_at = Vec::new(); // byte length at which record i is acked
    for (i, rec) in records.iter().enumerate() {
        image.extend_from_slice(&encode_frame(i as u64 + 1, rec));
        commit_at.push(image.len());
    }
    let cut = (kill % (image.len() as u64 + 1)) as usize;

    // The expected image: every record whose full frame precedes the cut.
    let mut expected = MetaSnapshot::default();
    let mut survivors = 0usize;
    for (rec, &end) in records.iter().zip(&commit_at) {
        if end <= cut {
            expected.apply(rec);
            survivors += 1;
        }
    }

    let dir = sim_dir("wal");
    fs::create_dir_all(&dir).map_err(|e| Error::Io {
        context: format!("create {}: {e}", dir.display()),
    })?;
    let mut torn = image.get(..cut).unwrap_or_default().to_vec();
    // Half the time, smear seeded garbage after the cut — a torn sector
    // carries old bytes, not neat truncation.
    let mut rng = ChaCha8::from_seed(seed ^ kill.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if rng.below(2) == 0 {
        let tail = 1 + rng.below(48) as usize;
        for _ in 0..tail {
            torn.push(rng.next_u32() as u8);
        }
    }
    forge(&dir.join(WAL_FILE), &torn, "torn wal")?;

    let verdict = (|| {
        let (_, recovered) = MetaWal::open(&dir, true, 1 << 20)?;
        if recovered != expected {
            return Err(invariant(format!(
                "wal kill (seed {seed}, cut {cut}): recovered image diverges from the \
                 {survivors}-record prefix"
            )));
        }
        // Determinism: a second open (after the torn tail was truncated)
        // recovers the identical image.
        let (_, again) = MetaWal::open(&dir, true, 1 << 20)?;
        if again != recovered {
            return Err(invariant(format!(
                "wal kill (seed {seed}, cut {cut}): second recovery differs from the first"
            )));
        }
        Ok(())
    })();
    let cleaned = cleanup(&dir);
    verdict?;
    cleaned?;
    Ok(KillSummary {
        ops: records.len(),
        cut,
        survivors,
    })
}

// ---------------------------------------------------------------------------
// Surface 2: checkpoint load
// ---------------------------------------------------------------------------

/// Kills the checkpoint protocol in each of its three crash windows —
/// partial `CHECKPOINT.tmp`, committed checkpoint with an uncompacted log,
/// and a corrupt committed checkpoint — and proves recovery lands on the
/// full image (first two) or a typed [`Error::WalCorrupt`] (third).
///
/// # Errors
///
/// [`Error::Invariant`] describing the violated invariant.
pub fn run_checkpoint_kill(seed: u64, kill: u64) -> Result<KillSummary> {
    let records = wal_script(seed);
    let mid = records.len() / 2;

    let mut full = MetaSnapshot::default();
    let mut at_mid = MetaSnapshot::default();
    let mut image = Vec::new();
    let mut suffix = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        full.apply(rec);
        if i < mid {
            at_mid.apply(rec);
        } else {
            suffix.extend_from_slice(&encode_frame(i as u64 + 1, rec));
        }
        image.extend_from_slice(&encode_frame(i as u64 + 1, rec));
    }
    let ckpt = encode_checkpoint(&at_mid, mid as u64);

    let dir = sim_dir("ckpt");
    let verdict = (|| {
        // (a) Crash mid-checkpoint-write: a partial CHECKPOINT.tmp next to
        // the full log. The tmp is discarded; replay covers everything.
        fs::create_dir_all(&dir).map_err(|e| Error::Io {
            context: format!("create {}: {e}", dir.display()),
        })?;
        let tmp_cut = (kill % (ckpt.len() as u64 + 1)) as usize;
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        forge(&tmp, ckpt.get(..tmp_cut).unwrap_or_default(), "partial checkpoint tmp")?;
        forge(&dir.join(WAL_FILE), &image, "wal")?;
        let (_, recovered) = MetaWal::open(&dir, true, 1 << 20)?;
        if recovered != full {
            return Err(invariant(format!(
                "checkpoint kill (seed {seed}, cut {tmp_cut}): partial tmp leaked into recovery"
            )));
        }

        // (b) Crash after the rename but before compaction: committed
        // checkpoint + full (uncompacted) log. Replay must skip lsn ≤ mid
        // and still land on the full image.
        cleanup(&dir)?;
        fs::create_dir_all(&dir).map_err(|e| Error::Io {
            context: format!("create {}: {e}", dir.display()),
        })?;
        forge(&dir.join(CHECKPOINT_FILE), &ckpt, "checkpoint")?;
        forge(&dir.join(WAL_FILE), &image, "wal")?;
        let (_, recovered) = MetaWal::open(&dir, true, 1 << 20)?;
        if recovered != full {
            return Err(invariant(format!(
                "checkpoint kill (seed {seed}): lsn-skip replay over an uncompacted log diverged"
            )));
        }
        let (_, again) = MetaWal::open(&dir, true, 1 << 20)?;
        if again != recovered {
            return Err(invariant(format!(
                "checkpoint kill (seed {seed}): second recovery differs from the first"
            )));
        }

        // (c) A torn *committed* checkpoint (can only come from real
        // corruption — the rename protocol never exposes one) must surface
        // as a typed error, never a panic or a silent empty image.
        cleanup(&dir)?;
        fs::create_dir_all(&dir).map_err(|e| Error::Io {
            context: format!("create {}: {e}", dir.display()),
        })?;
        let cut = (kill % ckpt.len() as u64) as usize; // strictly short
        let torn = ckpt.get(..cut).unwrap_or_default();
        forge(&dir.join(CHECKPOINT_FILE), torn, "torn checkpoint")?;
        forge(&dir.join(WAL_FILE), &suffix, "wal suffix")?;
        match MetaWal::open(&dir, true, 1 << 20) {
            Err(Error::WalCorrupt { .. }) => Ok(()),
            Err(e) => Err(invariant(format!(
                "checkpoint kill (seed {seed}, cut {cut}): torn checkpoint raised {e} instead of \
                 a corruption error"
            ))),
            Ok(_) => Err(invariant(format!(
                "checkpoint kill (seed {seed}, cut {cut}): torn checkpoint recovered silently"
            ))),
        }
    })();
    let cleaned = cleanup(&dir);
    verdict?;
    cleaned?;
    Ok(KillSummary {
        ops: records.len(),
        cut: (kill % (ckpt.len() as u64 + 1)) as usize,
        survivors: records.len(),
    })
}

// ---------------------------------------------------------------------------
// Surface 3: extent reopen
// ---------------------------------------------------------------------------

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

/// One operation's slice of the journaled write stream.
struct OpSpan {
    start: usize,
    ack: usize,
    end: usize,
}

/// Replays a seeded put/overwrite/delete script through a journaled
/// [`ExtentStore`], materializes the write stream cut (and seeded-torn)
/// at `kill`, reopens, and proves the acked prefix — and nothing torn —
/// is what comes back. Reopens twice for determinism.
///
/// # Errors
///
/// [`Error::Invariant`] describing the violated invariant, or the
/// underlying error if the store itself fails.
pub fn run_extent_kill(seed: u64, kill: u64) -> Result<KillSummary> {
    let ops = extent_script(seed);
    let store = ExtentStore::journaled("sim")?;
    let mut spans: Vec<OpSpan> = Vec::new();
    let mut events: Vec<WriteEvent> = Vec::new();
    // States[i] = expected contents after ops[0..i] all acked.
    let mut states: Vec<BTreeMap<BlockId, Vec<u8>>> = vec![BTreeMap::new()];
    for op in &ops {
        // The journal is drained after every op, so this op's events start
        // at the running count.
        let start = events.len();
        match op {
            ExtOp::Put { block, data } => {
                let crc = crc32c(data);
                store.put(*block, Block::from(data.clone()), crc)?;
            }
            ExtOp::Delete { block } => {
                store.delete(*block);
            }
        }
        let mut chunk = store.take_journal();
        let ack = chunk
            .iter()
            .position(|e| matches!(e, WriteEvent::Barrier))
            .map(|p| start + p)
            .unwrap_or(start);
        events.append(&mut chunk);
        let end = events.len();
        spans.push(OpSpan { start, ack, end });
        let mut next = states.last().cloned().unwrap_or_default();
        match op {
            ExtOp::Put { block, data } => {
                next.insert(*block, data.clone());
            }
            ExtOp::Delete { block } => {
                next.remove(block);
            }
        }
        states.push(next);
    }
    drop(store);

    let cut = (kill % (events.len() as u64 + 1)) as usize;
    // Every op whose ack barrier lies before the cut is durable.
    let acked = spans.iter().take_while(|s| s.ack < cut).count();
    // The op (if any) whose span straddles the cut may atomically be
    // present or absent.
    let straddler = spans
        .iter()
        .enumerate()
        .find(|(_, s)| s.start < cut && cut <= s.end && s.ack >= cut)
        .map(|(i, _)| i);

    // Writes after the last barrier before the cut may be lost, torn, or
    // reordered by the device; every one gets an independent seeded fate.
    let last_barrier = events
        .iter()
        .take(cut)
        .rposition(|e| matches!(e, WriteEvent::Barrier))
        .map(|p| p + 1)
        .unwrap_or(0);

    let dir = sim_dir("extent");
    let verdict = (|| {
        fs::create_dir_all(&dir).map_err(|e| Error::Io {
            context: format!("create {}: {e}", dir.display()),
        })?;
        let mut rng = ChaCha8::from_seed(seed ^ kill.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let mut files: BTreeMap<usize, fs::File> = BTreeMap::new();
        let mut dropped_segs: Vec<usize> = Vec::new();
        for (i, ev) in events.iter().take(cut).enumerate() {
            let in_window = i >= last_barrier;
            match ev {
                WriteEvent::Create { seg, size } => {
                    if in_window && rng.below(4) == 0 {
                        // The file creation itself never became durable.
                        dropped_segs.push(*seg);
                        continue;
                    }
                    let path = dir.join(format!("ext-{seg}.seg"));
                    let f = fs::OpenOptions::new()
                        .create(true)
                        .truncate(false)
                        .read(true)
                        .write(true)
                        .open(&path)
                        .map_err(|e| Error::Io {
                            context: format!("materialize {}: {e}", path.display()),
                        })?;
                    #[expect(clippy::disallowed_methods, reason = "materializes a crash image")]
                    f.set_len(*size).map_err(|e| Error::Io {
                        context: format!("size {}: {e}", path.display()),
                    })?;
                    files.insert(*seg, f);
                }
                WriteEvent::Write { seg, off, data } => {
                    if dropped_segs.contains(seg) {
                        continue;
                    }
                    let keep = if in_window {
                        match rng.below(4) {
                            0 => 0,                                  // lost entirely
                            1 => rng.below(data.len() as u64 + 1) as usize, // torn
                            _ => data.len(),                         // made it
                        }
                    } else {
                        data.len()
                    };
                    if keep == 0 {
                        continue;
                    }
                    if let Some(f) = files.get(seg) {
                        #[expect(clippy::disallowed_methods, reason = "materializes a crash image")]
                        f.write_all_at(data.get(..keep).unwrap_or_default(), *off)
                            .map_err(|e| Error::Io {
                                context: format!("materialize write seg {seg}: {e}"),
                            })?;
                    }
                }
                WriteEvent::Barrier => {}
            }
        }
        drop(files);

        let recovered = ExtentStore::open_at(&dir, true)?;
        let base = states.get(acked).cloned().unwrap_or_default();
        let after = straddler
            .and_then(|i| states.get(i + 1))
            .cloned()
            .unwrap_or_default();
        let straddle_block = straddler.and_then(|i| ops.get(i)).map(|op| match op {
            ExtOp::Put { block, .. } | ExtOp::Delete { block } => *block,
        });

        let mut candidates: Vec<BlockId> = base.keys().copied().collect();
        if let Some(b) = straddle_block {
            if !candidates.contains(&b) {
                candidates.push(b);
            }
        }
        for block in candidates {
            let got = recovered.get_with_crc(block);
            let want_base = base.get(&block);
            if Some(block) == straddle_block {
                let want_after = after.get(&block);
                let matches_base = contents_match(&got, want_base);
                let matches_after = contents_match(&got, want_after);
                if !matches_base && !matches_after {
                    return Err(invariant(format!(
                        "extent kill (seed {seed}, cut {cut}): {block:?} is neither its \
                         pre-crash nor its in-flight image"
                    )));
                }
            } else if !contents_match(&got, want_base) {
                return Err(invariant(format!(
                    "extent kill (seed {seed}, cut {cut}): acked content of {block:?} lost or \
                     altered"
                )));
            }
            // Whatever came back must carry a self-consistent CRC: torn
            // payloads may never surface.
            if let Some((bytes, crc)) = &got {
                if crc32c(bytes) != *crc {
                    return Err(invariant(format!(
                        "extent kill (seed {seed}, cut {cut}): {block:?} surfaced with a \
                         mismatched crc"
                    )));
                }
            }
        }

        // Determinism: a second recovery sees the same image.
        type Image = Vec<(BlockId, Option<(Vec<u8>, u32)>)>;
        fn image_of(store: &ExtentStore) -> Image {
            (0u64..10)
                .map(BlockId)
                .map(|b| {
                    (
                        b,
                        store.get_with_crc(b).map(|(d, c)| (d.as_slice().to_vec(), c)),
                    )
                })
                .collect()
        }
        let first = image_of(&recovered);
        drop(recovered);
        let reopened = ExtentStore::open_at(&dir, true)?;
        let second = image_of(&reopened);
        if first != second {
            return Err(invariant(format!(
                "extent kill (seed {seed}, cut {cut}): second recovery differs from the first"
            )));
        }
        Ok(())
    })();
    let cleaned = cleanup(&dir);
    verdict?;
    cleaned?;
    Ok(KillSummary {
        ops: ops.len(),
        cut,
        survivors: acked,
    })
}

fn contents_match(got: &Option<(Block, u32)>, want: Option<&Vec<u8>>) -> bool {
    match (got, want) {
        (None, None) => true,
        (Some((bytes, _)), Some(w)) => bytes.as_slice() == w.as_slice(),
        _ => false,
    }
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

    #[test]
    fn wal_kill_sweep_smoke() {
        for seed in 0..3u64 {
            for kill in [0u64, 13, 97, 511, 4093, u64::MAX] {
                run_wal_kill(seed, kill).unwrap();
            }
        }
    }

    #[test]
    fn checkpoint_kill_sweep_smoke() {
        for seed in 0..3u64 {
            for kill in [0u64, 13, 97, 511, u64::MAX] {
                run_checkpoint_kill(seed, kill).unwrap();
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
