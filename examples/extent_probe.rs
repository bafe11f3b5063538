//! Times the extent store's operations in the shape of the benchmark's
//! `durable_extent` workload (64 KiB blocks, no fsync, each store in a
//! directory of its own, as a DataNode's is):
//!
//! * `fresh_put` — a put of a block the store does not hold, into free
//!   pages;
//! * `overwrite` — a put of a block the store holds: a fresh extent, then
//!   the old one retired;
//! * `delete` — a tombstone committed, then the put and the tombstone
//!   retired;
//! * `reopen` — `ExtentStore::open_at` over a store of `BLOCKS` blocks, the
//!   whole reopen as one op;
//! * `get` — a `get_with_crc` of a stored block (the store holds no cache);
//! * `synced_put` — `fresh_put` into a store that fsyncs each commit;
//!
//! and from those, encode's store work per (9,6) stripe: its three parity
//! puts (`stripe_parity`, 3 × `fresh_put`) and the deletes of the twelve
//! replicas its six data blocks hold beyond their first (`stripe_deletes`,
//! 12 × `delete`).
//!
//! Prints one line per piece: the median over five repetitions of the
//! microseconds per operation. Uses only public API, so the same file
//! builds against an older checkout for a before/after table.
//!
//! Run with `cargo run --release --example extent_probe`.

use ear::cluster::{BlockStore, ExtentStore};
use ear::types::crc::crc32c;
use ear::types::{Block, BlockId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const REPS: usize = 5;
/// Blocks per store: 16 MiB, two default segments' worth.
const BLOCKS: u64 = 256;
const BLOCK: usize = 64 * 1024;

/// Microseconds per op of `op` run on each of `items`.
#[expect(clippy::disallowed_methods, reason = "a wall-clock probe")]
fn time_each<T>(items: Vec<T>, op: impl Fn(T) -> Result<(), String>) -> Result<f64, String> {
    let n = items.len();
    let start = Instant::now();
    for item in items {
        op(item)?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// Microseconds of one reopen of the store at `dir`, and the store.
#[expect(clippy::disallowed_methods, reason = "a wall-clock probe")]
fn time_reopen(dir: &Path) -> Result<(f64, ExtentStore), String> {
    let start = Instant::now();
    let store = ExtentStore::open_at(dir, false).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64() * 1e6, store))
}

/// One repetition: `[fresh_put, overwrite, delete, reopen, get,
/// synced_put]` in µs; `synced` is a second directory.
fn rep(dir: &Path, synced: &Path) -> Result<[f64; 6], String> {
    // Version `v` of every block, built before the clock starts.
    let blocks = |v: u64| {
        (0..BLOCKS)
            .map(|i| {
                let data: Vec<u8> = (0..BLOCK).map(|j| (j as u64 ^ i ^ v) as u8).collect();
                let crc = crc32c(&data);
                (BlockId(i), Block::from(data), crc)
            })
            .collect::<Vec<_>>()
    };
    let put = |store: &ExtentStore, v: u64| -> Result<f64, String> {
        time_each(blocks(v), |(id, data, crc)| {
            store.put(id, data, crc).map_err(|e| e.to_string())
        })
    };
    let store = ExtentStore::open_at(dir, false).map_err(|e| e.to_string())?;
    let fresh = put(&store, 0)?;
    let overwrite = put(&store, 1)?;
    drop(store);
    let (reopen, store) = time_reopen(dir)?;
    if store.block_count() != BLOCKS as usize {
        return Err(format!("reopen found {} of {BLOCKS} blocks", store.block_count()));
    }
    let ids: Vec<BlockId> = (0..BLOCKS).map(BlockId).collect();
    let get = time_each(ids.clone(), |id| {
        let got = store.get_with_crc(id).ok_or(format!("get missed {id:?}"))?;
        drop(black_box(got));
        Ok(())
    })?;
    let delete =
        time_each(ids, |id| store.delete(id).then_some(()).ok_or(format!("delete missed {id:?}")))?;
    drop(store);
    let store = ExtentStore::open_at(synced, true).map_err(|e| e.to_string())?;
    let synced_put = put(&store, 2)?;
    Ok([fresh, overwrite, delete, reopen, get, synced_put])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("ear-extent-probe-{}", std::process::id()));
    let (dir, synced) = (root.join("store"), root.join("synced"));
    let mut runs = Vec::new();
    for _ in 0..REPS {
        let run = rep(&dir, &synced);
        std::fs::remove_dir_all(&root)?;
        runs.push(run?);
    }
    let [fresh, overwrite, delete, reopen, get, synced_put] = std::array::from_fn(|piece| {
        let mut v: Vec<f64> = runs.iter().map(|r| r[piece]).collect();
        v.sort_by(f64::total_cmp);
        v[REPS / 2]
    });
    println!("piece            us/op");
    for (name, us) in [
        ("fresh_put", fresh),
        ("overwrite", overwrite),
        ("delete", delete),
        ("reopen", reopen),
        ("get", get),
        ("synced_put", synced_put),
        ("stripe_parity", 3.0 * fresh),
        ("stripe_deletes", 12.0 * delete),
    ] {
        println!("{name:<16} {us:>6.1}");
    }
    Ok(())
}
