//! Property-based tests for the FIFO network engine: work conservation,
//! time-ordered completions, and capacity limits.

use ear_des::{drain_engine, FifoEngine, SimTime};
use ear_types::prop::{check, range};
use ear_types::rng::ChaCha8;
use ear_types::{Bandwidth, ByteSize};

/// `1..=max_len` transfer sizes in `1..=max_size` bytes.
fn sizes(rng: &mut ChaCha8, max_len: u64, max_size: u64) -> Vec<u64> {
    (0..range(rng, 1..=max_len))
        .map(|_| range(rng, 1..=max_size))
        .collect()
}

/// One shared link: the last completion can never beat the link capacity,
/// and the makespan is total bytes / rate (work conservation).
#[test]
fn single_link_makespan_is_work_conserving() {
    check("single_link_makespan_is_work_conserving", 64, |rng| {
        let sizes = sizes(rng, 19, 9_999_999);
        let rate = 1e6 + rng.unit_f64() * (1e9 - 1e6);
        let total: u64 = sizes.iter().sum();
        let expected = total as f64 / rate;

        let mut engine = FifoEngine::new();
        let link = engine.add_link(Bandwidth::bytes_per_sec(rate));
        for &s in &sizes {
            engine.submit(SimTime::ZERO, &[link], ByteSize::bytes(s));
        }
        let done = drain_engine(&mut engine);
        assert_eq!(done.len(), sizes.len());
        let makespan = done.last().unwrap().0.as_secs();
        assert!(
            (makespan - expected).abs() < expected * 1e-6 + 1e-9,
            "makespan {makespan} != {expected}"
        );
    });
}

/// Completions come out in non-decreasing time order.
#[test]
fn completions_are_time_ordered() {
    check("completions_are_time_ordered", 64, |rng| {
        // (arrival, size, first link, second link)
        let mut jobs: Vec<(u64, u64, usize, usize)> = (0..range(rng, 1..=24))
            .map(|_| {
                (
                    range(rng, 0..=999),
                    range(rng, 1..=999_999),
                    rng.below(4) as usize,
                    rng.below(4) as usize,
                )
            })
            .collect();
        // Sort by arrival time: engines require monotone submission.
        jobs.sort_by_key(|j| j.0);
        let mut engine = FifoEngine::new();
        let links: Vec<_> = (0..4)
            .map(|_| engine.add_link(Bandwidth::bytes_per_sec(1e7)))
            .collect();
        for &(at, size, l1, l2) in &jobs {
            let path = if l1 == l2 {
                vec![links[l1]]
            } else {
                vec![links[l1], links[l2]]
            };
            engine.submit(
                SimTime::from_secs(at as f64 / 100.0),
                &path,
                ByteSize::bytes(size),
            );
        }
        let done = drain_engine(&mut engine);
        assert_eq!(done.len(), jobs.len());
        for w in done.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    });
}

/// A transfer can never finish before its unloaded service time
/// (size / bottleneck bandwidth) after submission.
#[test]
fn no_transfer_beats_its_service_time() {
    check("no_transfer_beats_its_service_time", 64, |rng| {
        let sizes = sizes(rng, 11, 4_999_999);
        let mut engine = FifoEngine::new();
        let rate = 1e6;
        let link = engine.add_link(Bandwidth::bytes_per_sec(rate));
        let mut min_finish = Vec::new();
        for &s in &sizes {
            let id = engine.submit(SimTime::ZERO, &[link], ByteSize::bytes(s));
            min_finish.push((id, s as f64 / rate));
        }
        let done = drain_engine(&mut engine);
        for (t, id) in done {
            let (_, floor) = min_finish.iter().find(|(i, _)| *i == id).unwrap();
            assert!(
                t.as_secs() >= floor - 1e-9,
                "transfer finished at {t} before its service floor {floor}"
            );
        }
    });
}
