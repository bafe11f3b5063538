//! Property-based crash/power-loss tests over the durability layer
//! (DESIGN.md §13): for any (seed, kill point), recovery must restore a
//! consistent prefix of acknowledged state. Two scripts of the one
//! simulator in `ear_cluster::crashsim` cut the recorded write stream: the
//! metadata log with its checkpoints, and the extent store. A violated
//! invariant comes back as `Err`, so every property is simply "the
//! simulator ran clean"; the error text names the seed and kill point to
//! replay.

use ear_cluster::crashsim;
use ear_types::prop::check;

/// Cutting a `MetaWal`'s appends and checkpoints anywhere (mid-append, in
/// a checkpoint's tmp write, between its rename and the compaction, or in
/// the compaction) recovers the acknowledged record prefix, or that and
/// the record in flight, twice over.
#[test]
fn meta_recovers_acked_prefix() {
    check("meta_recovers_acked_prefix", 256, |rng| {
        let r = crashsim::run_meta_kill(rng.next_u64(), rng.next_u64());
        assert!(r.is_ok(), "meta kill failed: {:?}", r.err());
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
