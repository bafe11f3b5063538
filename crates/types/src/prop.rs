//! The workspace's one property-test engine: [`check`] runs a property over
//! seeded cases, each drawing its inputs from a [`ChaCha8`] keyed by the
//! property's name and the case index. Properties are closures over plain
//! `assert!`s. A failing case panics with `property <name> case <i> seed
//! 0x…`, and [`replay`] with that one `u64` reruns exactly that case's
//! draws on any build. There are no strategies and there is no shrinking.

use crate::rng::{mix64, ChaCha8};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seed of case `case` of property `name`: FNV-1a over the name, XOR
/// the case index, through [`mix64`].
fn case_seed(name: &str, case: u64) -> u64 {
    let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    mix64(hash ^ case)
}

/// Runs `property` on `cases` seeded generators. `name` keys the case seeds
/// and labels a failure: any stable string unique to the property does. The
/// first failing case panics with the name, the case index and the case
/// seed, then the property's own panic message.
pub fn check(name: &str, cases: u64, mut property: impl FnMut(&mut ChaCha8)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let run = AssertUnwindSafe(|| property(&mut ChaCha8::from_seed(seed)));
        if let Err(cause) = catch_unwind(run) {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("panicked");
            panic!("property {name} case {case} seed {seed:#018x}: {why}");
        }
    }
}

/// Reruns one case of a property from the seed [`check`] reported.
pub fn replay(seed: u64, property: impl FnOnce(&mut ChaCha8)) {
    property(&mut ChaCha8::from_seed(seed));
}

/// A uniform value in the inclusive `range` (its start if it is empty).
pub fn range(rng: &mut ChaCha8, range: RangeInclusive<u64>) -> u64 {
    let (lo, hi) = (*range.start(), *range.end());
    match hi.saturating_sub(lo).checked_add(1) {
        Some(width) => lo + rng.below(width),
        None => rng.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws_of(name: &str, cases: u64) -> Vec<[u64; 3]> {
        let mut seen = Vec::new();
        check(name, cases, |rng| {
            seen.push([rng.next_u64(), rng.below(1000), range(rng, 5..=9)]);
        });
        seen
    }

    /// The case-seed format, pinned against an independent model (FNV-1a 64
    /// of the name, XOR case, SplitMix64 finalizer): if one changes, every
    /// seed a past failure printed stops replaying.
    #[test]
    fn case_seeds_are_pinned() {
        let seeds: Vec<u64> = (0..3).map(|i| case_seed("pinned", i)).collect();
        assert_eq!(
            seeds,
            [
                0x71f1_1bda_58a5_2144,
                0x9b4a_79ce_c532_8f51,
                0xaabc_345c_73db_b69f
            ]
        );
    }

    #[test]
    fn two_runs_of_one_property_draw_identical_inputs() {
        let first = draws_of("stable", 16);
        assert_eq!(first.len(), 16);
        assert_eq!(first, draws_of("stable", 16));
        assert_ne!(first, draws_of("another name", 16));
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn a_failing_case_names_the_property_the_case_and_a_seed_that_replays() {
        // Fails on the first case whose draw is odd — not case 0 for this name.
        let odd = |rng: &mut ChaCha8| assert_eq!(rng.next_u64() % 2, 0, "drew an odd word");
        let cause = catch_unwind(|| check("fails on purpose", 64, odd)).unwrap_err();
        let message = cause.downcast_ref::<String>().unwrap();
        let case = (0..64)
            .find(|&i| ChaCha8::from_seed(case_seed("fails on purpose", i)).next_u64() % 2 == 1)
            .unwrap();
        let seed = case_seed("fails on purpose", case);
        assert!(case > 0);
        assert!(
            message.starts_with(&format!(
                "property fails on purpose case {case} seed {seed:#018x}: "
            )),
            "{message}"
        );
        assert!(message.contains("drew an odd word"), "{message}");
        // The printed seed alone fails the same assertion again.
        let again = catch_unwind(|| replay(seed, odd)).unwrap_err();
        let again = again.downcast_ref::<String>().unwrap();
        assert!(again.contains("drew an odd word"), "{again}");
    }

    #[test]
    fn replay_reproduces_a_case_bit_for_bit() {
        let seen = draws_of("replayed", 4);
        for (case, want) in seen.iter().enumerate() {
            replay(case_seed("replayed", case as u64), |rng| {
                assert_eq!([rng.next_u64(), rng.below(1000), range(rng, 5..=9)], *want);
            });
        }
    }

    #[test]
    fn range_is_inclusive_and_reaches_both_ends() {
        let mut rng = ChaCha8::from_seed(1);
        let mut hits = [0usize; 3];
        for _ in 0..3000 {
            hits[(range(&mut rng, 7..=9) - 7) as usize] += 1;
        }
        assert!(hits.iter().all(|h| (800..1200).contains(h)), "{hits:?}");
        // Zero width draws the one value; the full range is the raw word
        // (a width of 2^64 does not fit the multiply-shift's bound).
        assert_eq!(range(&mut rng, 4..=4), 4);
        assert_eq!(range(&mut rng, u64::MAX..=u64::MAX), u64::MAX);
        let mut twin = rng.clone();
        assert_eq!(range(&mut rng, 0..=u64::MAX), twin.next_u64());
        let near_full = range(&mut rng, 1..=u64::MAX);
        assert!(near_full >= 1);
    }
}
