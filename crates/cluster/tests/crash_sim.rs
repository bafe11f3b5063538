//! Property-based crash/power-loss tests over the durability layer
//! (DESIGN.md §13): for any (seed, kill point), recovery must restore a
//! consistent prefix of acknowledged state. Three surfaces are attacked —
//! WAL replay, checkpoint load, and extent-store reopen — each through its
//! deterministic simulator in `ear_cluster::crashsim`. A violated invariant
//! comes back as `Err`, so every property is simply "the simulator ran
//! clean"; the error text names the seed and kill point to replay.

use ear_cluster::crashsim;
use ear_types::prop::check;

/// A WAL cut anywhere (including mid-frame, with seeded garbage after
/// the cut) recovers exactly the acknowledged prefix, twice over.
#[test]
fn wal_replay_recovers_acked_prefix() {
    check("wal_replay_recovers_acked_prefix", 256, |rng| {
        let r = crashsim::run_wal_kill(rng.next_u64(), rng.next_u64());
        assert!(r.is_ok(), "wal kill failed: {:?}", r.err());
    });
}

/// A crash during checkpoint writing (torn .tmp, uncompacted log, or a
/// torn committed checkpoint) either recovers the full image or fails
/// with a typed corruption error — never a silently wrong image.
#[test]
fn checkpoint_load_is_atomic() {
    check("checkpoint_load_is_atomic", 256, |rng| {
        let r = crashsim::run_checkpoint_kill(rng.next_u64(), rng.next_u64());
        assert!(r.is_ok(), "checkpoint kill failed: {:?}", r.err());
    });
}

/// Cutting the extent store's write stream at any point — with seeded
/// torn/lost writes in the unsynced window — never loses an
/// acknowledged put/delete, never surfaces a torn record, and reopens
/// to the same state twice.
#[test]
fn extent_reopen_never_lies() {
    check("extent_reopen_never_lies", 256, |rng| {
        let r = crashsim::run_extent_kill(rng.next_u64(), rng.next_u64());
        assert!(r.is_ok(), "extent kill failed: {:?}", r.err());
    });
}
