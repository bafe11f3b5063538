//! The one worker set of the cluster crate (DESIGN.md §8): encode jobs,
//! repair passes and the MapReduce phases all drain their task lists here.

use ear_faults::FaultInjector;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run` over `tasks` on at most `width` scoped workers that pull
/// tasks off the slice in order, and returns one slot per task, in task
/// order. What a task computes must not depend on which worker runs it or
/// when: each counts its I/Os for `faults` on a clock of its own from the
/// count the drain started at, and the caller's clock moves on by their sum
/// once all are done (DESIGN.md §7), so a crash finds every task at the
/// same operation at any `width`. A task that panics leaves `None` in its
/// slot and stops nothing.
pub(crate) fn drain<T: Sync, R: Send>(
    faults: &FaultInjector,
    tasks: &[T],
    width: usize,
    run: impl Fn(&T) -> R + Sync,
) -> Vec<Option<R>> {
    let (cursor, start) = (AtomicUsize::new(0), faults.now());
    let worker = || {
        let mut done = Vec::new();
        loop {
            let slot = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(slot) else { break };
            // What tasks share sits behind the non-poisoning cluster locks
            // (`crate::sync`), valid at every step.
            let guarded = AssertUnwindSafe(|| run(task));
            let (result, ops) = faults.on_task_clock(start, || catch_unwind(guarded));
            done.push((slot, result.ok(), ops));
        }
        done
    };
    let mut slots: Vec<Option<R>> = tasks.iter().map(|_| None).collect();
    #[expect(clippy::disallowed_methods, reason = "the one worker set")]
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..tasks.len().min(width))
            .map(|_| s.spawn(worker))
            .collect();
        for (slot, result, ops) in workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
        {
            faults.advance(ops);
            if let Some(entry) = slots.get_mut(slot) {
                *entry = result;
            }
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Sync, R: Send>(t: &[T], w: usize, run: impl Fn(&T) -> R + Sync) -> Vec<Option<R>> {
        super::drain(&FaultInjector::disabled(), t, w, run)
    }

    #[test]
    fn results_come_back_in_task_order_at_every_width() {
        let tasks: Vec<u64> = (0..23).collect();
        let want: Vec<Option<u64>> = tasks.iter().map(|t| Some(t * t)).collect();
        for width in [1, 3, 64] {
            assert_eq!(drain(&tasks, width, |t| t * t), want, "width {width}");
        }
        assert!(drain(&[] as &[u64], 4, |t| t * t).is_empty());
    }

    #[test]
    fn exactly_width_tasks_are_in_flight() {
        // Every task waits for two others: fewer than three workers would
        // hang here, more would show in the peak.
        let (tasks, rendezvous) = ([(); 12], std::sync::Barrier::new(3));
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        drain(&tasks, 3, |()| {
            peak.fetch_max(in_flight.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            rendezvous.wait();
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_task_that_panics_empties_only_its_slot() {
        let tasks: Vec<u32> = (0..9).collect();
        for width in [1, 4] {
            let got = drain(&tasks, width, |&t| {
                assert_ne!(t, 5, "task 5 dies");
                t
            });
            let want: Vec<_> = tasks.iter().map(|&t| (t != 5).then_some(t)).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn every_task_counts_from_the_drains_start_and_the_caller_gets_the_sum() {
        use ear_faults::{FaultConfig, FaultPlan};
        use ear_types::{BlockId, ClusterTopology, NodeId};
        let topo = ClusterTopology::uniform(2, 2);
        let faults = FaultInjector::new(FaultPlan::generate(7, &topo, &FaultConfig::light()), topo);
        faults.advance(10);
        let tasks: Vec<u64> = (1..=6).collect();
        for width in [1, 4] {
            let start = faults.now();
            let clocks = super::drain(&faults, &tasks, width, |&ops| {
                for i in 0..ops {
                    let _ = faults.on_read(NodeId(0), BlockId(i), 0);
                }
                faults.now()
            });
            let want: Vec<_> = tasks.iter().map(|ops| Some(start + ops)).collect();
            assert_eq!(clocks, want, "width {width}");
            assert_eq!(faults.now(), start + 21, "width {width}");
        }
    }
}
