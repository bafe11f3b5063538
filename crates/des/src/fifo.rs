//! The FIFO facility network engine (CSIM-style): the paper's simulator
//! "holds the corresponding resources for some duration of the request
//! subject to the specified link bandwidth" (Section V-B).
//!
//! Each link is a single-holder facility. A transfer atomically acquires
//! every link on its path, holds them for `size / min(bandwidth)` seconds,
//! then releases them. Transfers that cannot acquire all their links queue
//! in submission order; whenever links free up, the queue is scanned in
//! order and every transfer whose links are all free starts (later transfers
//! may overtake blocked ones on disjoint links).

use crate::SimTime;
use ear_types::{Bandwidth, ByteSize};
use std::collections::{BTreeMap, VecDeque};

/// Identifier of a link inside a [`FifoEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Identifier of a transfer inside a [`FifoEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

#[derive(Debug)]
struct Pending {
    id: TransferId,
    path: Vec<LinkId>,
    size: ByteSize,
}

#[derive(Debug)]
struct Active {
    path: Vec<LinkId>,
    finish: SimTime,
}

/// FIFO facility engine; see the module docs. The engine owns the link
/// state; the simulation loop owns the clock and asks the engine when the
/// next transfer completes. `pop_completion(t)` may only be called with the
/// `t` returned by [`next_completion`](Self::next_completion), and times
/// passed to [`submit`](Self::submit)/`pop_completion` must be
/// non-decreasing.
///
/// ```
/// use ear_des::{drain_engine, FifoEngine, SimTime};
/// use ear_types::{Bandwidth, ByteSize};
///
/// let mut net = FifoEngine::new();
/// let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
/// let a = net.submit(SimTime::ZERO, &[l], ByteSize::bytes(100)); // 1 s
/// let b = net.submit(SimTime::ZERO, &[l], ByteSize::bytes(200)); // queued, 2 s
/// let done = drain_engine(&mut net);
/// assert_eq!(done[0], (SimTime::from_secs(1.0), a));
/// assert_eq!(done[1], (SimTime::from_secs(3.0), b));
/// ```
#[derive(Debug, Default)]
pub struct FifoEngine {
    bandwidths: Vec<Bandwidth>,
    busy: Vec<bool>,
    pending: VecDeque<Pending>,
    active: BTreeMap<TransferId, Active>,
    next_id: u64,
}

impl FifoEngine {
    /// Creates an engine with no links.
    pub fn new() -> Self {
        Self::default()
    }

    fn links_free(&self, path: &[LinkId]) -> bool {
        path.iter().all(|l| !self.busy[l.0])
    }

    fn start(&mut self, now: SimTime, id: TransferId, path: Vec<LinkId>, size: ByteSize) {
        let min_bw = path
            .iter()
            .map(|l| self.bandwidths[l.0].as_bytes_per_sec())
            .fold(f64::INFINITY, f64::min);
        let duration = if path.is_empty() {
            0.0
        } else {
            size.as_f64() / min_bw
        };
        for l in &path {
            self.busy[l.0] = true;
        }
        self.active.insert(
            id,
            Active {
                path,
                finish: now + duration,
            },
        );
    }

    /// Starts every queued transfer whose links are now free, in FIFO order.
    fn drain_pending(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.links_free(&self.pending[i].path) {
                let p = self.pending.remove(i).expect("index in range");
                self.start(now, p.id, p.path, p.size);
            } else {
                i += 1;
            }
        }
    }

    /// Registers a link with the given bandwidth and returns its id.
    pub fn add_link(&mut self, bandwidth: Bandwidth) -> LinkId {
        self.bandwidths.push(bandwidth);
        self.busy.push(false);
        LinkId(self.bandwidths.len() - 1)
    }

    /// Submits a transfer of `size` bytes crossing `path` (all links held
    /// for the duration). An empty path completes instantaneously (a
    /// node-local copy).
    pub fn submit(&mut self, now: SimTime, path: &[LinkId], size: ByteSize) -> TransferId {
        for l in path {
            assert!(l.0 < self.bandwidths.len(), "unknown link {l:?}");
        }
        let id = TransferId(self.next_id);
        self.next_id += 1;
        if self.links_free(path) {
            self.start(now, id, path.to_vec(), size);
        } else {
            self.pending.push_back(Pending {
                id,
                path: path.to_vec(),
                size,
            });
        }
        id
    }

    /// The time and id of the next transfer to complete, if any transfer is
    /// active or queued.
    pub fn next_completion(&self) -> Option<(SimTime, TransferId)> {
        self.active
            .iter()
            .min_by(|a, b| a.1.finish.cmp(&b.1.finish).then(a.0.cmp(b.0)))
            .map(|(id, a)| (a.finish, *id))
    }

    /// Completes the transfer previously reported by `next_completion`,
    /// advancing internal state to `now`.
    ///
    /// # Panics
    ///
    /// Panics if no completion is due at `now`.
    pub fn pop_completion(&mut self, now: SimTime) -> TransferId {
        let (finish, id) = self
            .next_completion()
            .expect("pop_completion called with no active transfer");
        assert!(
            (finish.as_secs() - now.as_secs()).abs() < 1e-9,
            "pop_completion at {now}, but next completion is {finish}"
        );
        let done = self.active.remove(&id).expect("active");
        for l in &done.path {
            self.busy[l.0] = false;
        }
        self.drain_pending(now);
        id
    }

    /// Transfers currently holding links.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Transfers waiting for links.
    pub fn queued_count(&self) -> usize {
        self.pending.len()
    }
}

/// Drains an engine to completion, returning `(time, id)` pairs — a test and
/// bench helper for running the engine without a surrounding simulation.
pub fn drain_engine(engine: &mut FifoEngine) -> Vec<(SimTime, TransferId)> {
    let mut out = Vec::new();
    while let Some((t, _)) = engine.next_completion() {
        let id = engine.pop_completion(t);
        out.push((t, id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(bytes_per_sec: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(bytes_per_sec)
    }

    #[test]
    fn single_transfer_duration() {
        let mut net = FifoEngine::new();
        let l = net.add_link(bw(50.0));
        net.submit(SimTime::ZERO, &[l], ByteSize::bytes(100));
        let done = drain_engine(&mut net);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn path_is_limited_by_slowest_link() {
        let mut net = FifoEngine::new();
        let fast = net.add_link(bw(1000.0));
        let slow = net.add_link(bw(10.0));
        net.submit(SimTime::ZERO, &[fast, slow], ByteSize::bytes(100));
        let done = drain_engine(&mut net);
        assert!((done[0].0.as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn contention_serializes_fifo() {
        let mut net = FifoEngine::new();
        let l = net.add_link(bw(100.0));
        let a = net.submit(SimTime::ZERO, &[l], ByteSize::bytes(100));
        let b = net.submit(SimTime::ZERO, &[l], ByteSize::bytes(100));
        let c = net.submit(SimTime::ZERO, &[l], ByteSize::bytes(100));
        let done = drain_engine(&mut net);
        assert_eq!(
            done,
            vec![
                (SimTime::from_secs(1.0), a),
                (SimTime::from_secs(2.0), b),
                (SimTime::from_secs(3.0), c),
            ]
        );
    }

    #[test]
    fn disjoint_paths_run_in_parallel() {
        let mut net = FifoEngine::new();
        let l1 = net.add_link(bw(100.0));
        let l2 = net.add_link(bw(100.0));
        net.submit(SimTime::ZERO, &[l1], ByteSize::bytes(100));
        net.submit(SimTime::ZERO, &[l2], ByteSize::bytes(100));
        let done = drain_engine(&mut net);
        assert!((done[0].0.as_secs() - 1.0).abs() < 1e-9);
        assert!((done[1].0.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn later_transfer_overtakes_on_free_links() {
        let mut net = FifoEngine::new();
        let l1 = net.add_link(bw(100.0));
        let l2 = net.add_link(bw(100.0));
        // a holds l1; b needs l1+l2 (queued); c needs only l2 and can start
        // immediately even though it was submitted after b.
        let a = net.submit(SimTime::ZERO, &[l1], ByteSize::bytes(200));
        let b = net.submit(SimTime::ZERO, &[l1, l2], ByteSize::bytes(100));
        let c = net.submit(SimTime::ZERO, &[l2], ByteSize::bytes(100));
        assert_eq!(net.active_count(), 2);
        assert_eq!(net.queued_count(), 1);
        let done = drain_engine(&mut net);
        assert_eq!(done[0], (SimTime::from_secs(1.0), c));
        assert_eq!(done[1], (SimTime::from_secs(2.0), a));
        assert_eq!(done[2], (SimTime::from_secs(3.0), b));
    }

    #[test]
    fn empty_path_completes_instantly() {
        let mut net = FifoEngine::new();
        net.submit(SimTime::from_secs(5.0), &[], ByteSize::mib(64));
        let done = drain_engine(&mut net);
        assert_eq!(done[0].0, SimTime::from_secs(5.0));
    }

    #[test]
    fn zero_size_transfer_is_instant_but_ordered() {
        let mut net = FifoEngine::new();
        let l = net.add_link(bw(100.0));
        let a = net.submit(SimTime::ZERO, &[l], ByteSize::bytes(100));
        let b = net.submit(SimTime::ZERO, &[l], ByteSize::ZERO);
        let done = drain_engine(&mut net);
        // b waits for a to release the link, then completes instantly.
        assert_eq!(done[0], (SimTime::from_secs(1.0), a));
        assert_eq!(done[1], (SimTime::from_secs(1.0), b));
    }

    #[test]
    #[should_panic(expected = "no active transfer")]
    fn pop_on_empty_panics() {
        let mut net = FifoEngine::new();
        net.pop_completion(SimTime::ZERO);
    }
}
