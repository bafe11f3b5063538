//! The emulated CFS network: per-node and per-rack token-bucket links.

use crate::bucket::TokenBucket;
use ear_types::{Bandwidth, ClusterTopology, NodeId, Padded, Striped};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Chunk size for pacing transfers: small enough that concurrent transfers
/// interleave fairly, large enough that bookkeeping stays cheap. Also what a
/// further leg of a [chain](EmulatedNetwork::transfer_chain) adds to its
/// latency.
pub const CHUNK: u64 = 64 * 1024;

/// The emulated network of a CFS: node uplinks/downlinks and rack
/// uplinks/downlinks, mirroring the topology of Fig. 1. Threads emulate data
/// movement by drawing tokens along their transfer's path, chunk by chunk;
/// contention on shared links emerges naturally.
///
/// Cloneable (`Arc` inside) so every emulated component can hold a handle.
#[derive(Debug, Clone)]
pub struct EmulatedNetwork {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    topo: ClusterTopology,
    /// Unthrottled node-link bandwidth, kept so throttle factors compose
    /// idempotently (always relative to the base, not the current rate).
    node_base_rate: f64,
    /// The links, each alone on its cache lines: transfers over different
    /// links never write the same line.
    node_up: Vec<Padded<TokenBucket>>,
    node_down: Vec<Padded<TokenBucket>>,
    rack_up: Vec<Padded<TokenBucket>>,
    rack_down: Vec<Padded<TokenBucket>>,
    /// Bytes moved, one stripe per thread stripe: transfers on different
    /// threads never write the same line.
    traffic: Striped<Traffic>,
}

/// Traffic totals, one thread stripe's share.
#[derive(Debug, Default)]
struct Traffic {
    cross_rack_bytes: AtomicU64,
    intra_rack_bytes: AtomicU64,
}

impl EmulatedNetwork {
    /// Builds the network for `topo` with the given node and rack link
    /// bandwidths.
    pub fn new(topo: &ClusterTopology, node_bw: Bandwidth, rack_bw: Bandwidth) -> Self {
        let inner = Inner {
            topo: topo.clone(),
            node_base_rate: node_bw.as_bytes_per_sec(),
            node_up: (0..topo.num_nodes())
                .map(|_| TokenBucket::new(node_bw.as_bytes_per_sec()).into())
                .collect(),
            node_down: (0..topo.num_nodes())
                .map(|_| TokenBucket::new(node_bw.as_bytes_per_sec()).into())
                .collect(),
            rack_up: (0..topo.num_racks())
                .map(|_| TokenBucket::new(rack_bw.as_bytes_per_sec()).into())
                .collect(),
            rack_down: (0..topo.num_racks())
                .map(|_| TokenBucket::new(rack_bw.as_bytes_per_sec()).into())
                .collect(),
            traffic: Striped::default(),
        };
        EmulatedNetwork {
            inner: Arc::new(inner),
        }
    }

    /// The topology this network spans.
    pub fn topology(&self) -> &ClusterTopology {
        &self.inner.topo
    }

    /// Moves `bytes` from `src` to `dst`, blocking the calling thread for as
    /// long as the transfer would occupy the network: the two-node
    /// [`transfer_chain`](Self::transfer_chain). Local transfers
    /// (`src == dst`) return immediately.
    pub fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        self.transfer_chain(&[src, dst], bytes);
    }

    /// Streams `bytes` down `path`, every node forwarding each chunk as it
    /// arrives: a chunk draws its tokens on every link of every leg before
    /// the next chunk starts, so the chain runs at its slowest link rather
    /// than for the sum of its legs. Bytes are counted per leg, exactly as
    /// one [`transfer`](Self::transfer) per leg would count them;
    /// consecutive equal nodes are a free leg.
    ///
    /// A draw its thread's lease covers reads no clock. The first draw of a
    /// chunk that takes its bucket's locked debit reads the clock, and that
    /// reading is passed through the chunk's later draws, so a chunk reads
    /// it at most once up front and not at all while leases serve it. The
    /// reading serves a debit its bucket covers in full; a debit it does
    /// not cover reads the clock under the bucket's lock, as every draw
    /// once did, and hands that reading on. A bucket refilled since the
    /// reading credits nothing for it and leaves the missed time to its
    /// next draw.
    pub fn transfer_chain(&self, path: &[NodeId], bytes: u64) {
        let i = &self.inner;
        let legs = || {
            path.windows(2).filter_map(|leg| match *leg {
                [src, dst] if src != dst => {
                    Some((src, dst, i.topo.rack_of(src), i.topo.rack_of(dst)))
                }
                _ => None,
            })
        };
        let t = i.traffic.mine();
        for (_, _, sr, dr) in legs() {
            let counter = if sr != dr { &t.cross_rack_bytes } else { &t.intra_rack_bytes };
            counter.fetch_add(bytes, Ordering::Relaxed);
        }
        let mut left = bytes;
        while left > 0 {
            let chunk = left.min(CHUNK);
            let mut now = None;
            for (src, dst, sr, dr) in legs() {
                i.node_up[src.index()].draw(chunk, &mut now);
                if sr != dr {
                    i.rack_up[sr.index()].draw(chunk, &mut now);
                    i.rack_down[dr.index()].draw(chunk, &mut now);
                }
                i.node_down[dst.index()].draw(chunk, &mut now);
            }
            left -= chunk;
        }
    }

    /// Injects load on a node's links without a destination (the Iperf UDP
    /// background traffic of Experiment A.1): draws `bytes` from the node's
    /// uplink and, if `cross_rack`, its rack's uplink.
    pub fn inject_upstream(&self, src: NodeId, bytes: u64, cross_rack: bool) {
        let i = &self.inner;
        let sr = i.topo.rack_of(src);
        let mut left = bytes;
        while left > 0 {
            let chunk = left.min(CHUNK);
            i.node_up[src.index()].acquire(chunk);
            if cross_rack {
                i.rack_up[sr.index()].acquire(chunk);
            }
            left -= chunk;
        }
    }

    /// Throttles (or restores) a node's uplink and downlink to `factor`
    /// times the base node bandwidth — the straggler knob of the fault
    /// layer. Factors are always relative to the construction-time rate, so
    /// `throttle_node(n, 1.0)` restores full speed regardless of history.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn throttle_node(&self, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "throttle factor must be finite and positive"
        );
        let i = &self.inner;
        let rate = i.node_base_rate * factor;
        i.node_up[node.index()].set_rate(rate);
        i.node_down[node.index()].set_rate(rate);
    }

    /// Total bytes moved across racks so far.
    pub fn cross_rack_bytes(&self) -> u64 {
        self.snapshot().cross_rack_bytes
    }

    /// Total bytes moved within racks so far.
    pub fn intra_rack_bytes(&self) -> u64 {
        self.snapshot().intra_rack_bytes
    }

    /// A point-in-time reading of both traffic counters, summed over the
    /// thread stripes. Phases that want per-phase traffic (encode vs
    /// repair, say) take a snapshot at the phase boundary and subtract with
    /// [`TrafficSnapshot::delta`] — no reset, so concurrent readers never
    /// race each other's zeroing. Totals are exact once the transfers they
    /// cover have returned.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let t = &self.inner.traffic;
        TrafficSnapshot {
            cross_rack_bytes: t.total(|s| &s.cross_rack_bytes),
            intra_rack_bytes: t.total(|s| &s.intra_rack_bytes),
        }
    }
}

/// Cumulative traffic counters at one instant (see
/// [`EmulatedNetwork::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// Bytes that crossed a rack boundary.
    pub cross_rack_bytes: u64,
    /// Bytes that stayed within one rack.
    pub intra_rack_bytes: u64,
}

impl TrafficSnapshot {
    /// The traffic accrued since `earlier` — the per-phase reading.
    /// Saturating, so a stale pair of snapshots reads as zero rather than
    /// wrapping.
    pub fn delta(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            cross_rack_bytes: self.cross_rack_bytes.saturating_sub(earlier.cross_rack_bytes),
            intra_rack_bytes: self.intra_rack_bytes.saturating_sub(earlier.intra_rack_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_types::ByteSize;
    use std::time::Instant;

    fn bw(mb: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(mb * 1e6)
    }

    #[test]
    fn local_transfer_is_free() {
        let topo = ClusterTopology::uniform(2, 2);
        let net = EmulatedNetwork::new(&topo, bw(1.0), bw(1.0));
        let start = Instant::now();
        net.transfer(NodeId(0), NodeId(0), ByteSize::mib(100).as_u64());
        assert!(start.elapsed().as_secs_f64() < 0.05);
        assert_eq!(net.cross_rack_bytes(), 0);
        assert_eq!(net.intra_rack_bytes(), 0);
    }

    #[test]
    fn transfer_duration_matches_bandwidth() {
        let topo = ClusterTopology::uniform(2, 1);
        let net = EmulatedNetwork::new(&topo, bw(20.0), bw(20.0));
        let start = Instant::now();
        net.transfer(NodeId(0), NodeId(1), 4_000_000); // 0.2 s at 20 MB/s
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            (0.1..0.8).contains(&elapsed),
            "expected ~0.2 s, got {elapsed}"
        );
        assert_eq!(net.cross_rack_bytes(), 4_000_000);
    }

    #[test]
    fn rack_uplink_is_a_shared_bottleneck() {
        // Two intra-rack-sourced cross-rack transfers from different nodes
        // share the rack uplink: together they take about twice as long as
        // one alone.
        let topo = ClusterTopology::uniform(2, 2);
        let net = EmulatedNetwork::new(&topo, bw(50.0), bw(10.0));
        let start = Instant::now();
        std::thread::scope(|s| {
            let n1 = net.clone();
            let n2 = net.clone();
            s.spawn(move || n1.transfer(NodeId(0), NodeId(2), 1_000_000));
            s.spawn(move || n2.transfer(NodeId(1), NodeId(3), 1_000_000));
        });
        let elapsed = start.elapsed().as_secs_f64();
        // 2 MB over a shared 10 MB/s rack link: ~0.2 s.
        assert!(
            (0.12..0.8).contains(&elapsed),
            "expected ~0.2 s, got {elapsed}"
        );
    }

    #[test]
    fn intra_rack_avoids_rack_links() {
        let topo = ClusterTopology::uniform(1, 2);
        // Rack links are tiny, but intra-rack transfers never touch them.
        let net = EmulatedNetwork::new(&topo, bw(20.0), bw(0.001));
        let start = Instant::now();
        net.transfer(NodeId(0), NodeId(1), 2_000_000);
        assert!(start.elapsed().as_secs_f64() < 0.8);
        assert_eq!(net.intra_rack_bytes(), 2_000_000);
    }

    #[test]
    fn snapshot_delta_separates_phases() {
        let topo = ClusterTopology::uniform(2, 2);
        let net = EmulatedNetwork::new(&topo, bw(50.0), bw(50.0));
        net.transfer(NodeId(0), NodeId(1), 1_000); // intra
        let phase1 = net.snapshot();
        net.transfer(NodeId(0), NodeId(2), 2_000); // cross
        net.transfer(NodeId(2), NodeId(3), 3_000); // intra
        let phase2 = net.snapshot().delta(&phase1);
        assert_eq!(phase1.cross_rack_bytes, 0);
        assert_eq!(phase1.intra_rack_bytes, 1_000);
        assert_eq!(phase2.cross_rack_bytes, 2_000);
        assert_eq!(phase2.intra_rack_bytes, 3_000);
        // Deltas saturate instead of wrapping if snapshots are swapped.
        assert_eq!(phase1.delta(&net.snapshot()).cross_rack_bytes, 0);
    }

    #[test]
    fn throttled_node_slows_and_restores() {
        let topo = ClusterTopology::uniform(2, 1);
        let net = EmulatedNetwork::new(&topo, bw(50.0), bw(50.0));
        net.throttle_node(NodeId(0), 0.04); // 2 MB/s
        let start = Instant::now();
        net.transfer(NodeId(0), NodeId(1), 400_000);
        assert!(start.elapsed().as_secs_f64() > 0.1, "straggler must pace");
        net.throttle_node(NodeId(0), 1.0);
        let start = Instant::now();
        net.transfer(NodeId(0), NodeId(1), 400_000);
        assert!(start.elapsed().as_secs_f64() < 0.1, "restore must unpace");
    }

    /// Seconds `run` takes on a fresh 4-rack × 1-node network with 20 MB/s
    /// links, and the bytes it moved.
    fn timed_on_four_racks(run: impl FnOnce(&EmulatedNetwork)) -> (f64, TrafficSnapshot) {
        let topo = ClusterTopology::uniform(4, 1);
        let net = EmulatedNetwork::new(&topo, bw(20.0), bw(20.0));
        let start = Instant::now();
        run(&net);
        (start.elapsed().as_secs_f64(), net.snapshot())
    }

    #[test]
    fn a_chain_runs_at_its_slowest_link_not_the_sum() {
        // 2 MB over three 20 MB/s legs: ~0.1 s streamed, ~0.3 s store-and-
        // forward, the same bytes on the same links either way.
        let path = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let (chained, chain_bytes) =
            timed_on_four_racks(|net| net.transfer_chain(&path, 2_000_000));
        let (hopped, hop_bytes) = timed_on_four_racks(|net| {
            for leg in path.windows(2) {
                net.transfer(leg[0], leg[1], 2_000_000);
            }
        });
        assert!((0.07..0.2).contains(&chained), "expected ~0.1 s, got {chained}");
        assert!((0.25..0.9).contains(&hopped), "expected ~0.3 s, got {hopped}");
        assert_eq!(chain_bytes, hop_bytes);
        assert_eq!((chain_bytes.cross_rack_bytes, chain_bytes.intra_rack_bytes), (6_000_000, 0));
    }

    #[test]
    fn a_chain_through_a_throttled_node_runs_at_the_throttled_rate() {
        let (elapsed, _) = timed_on_four_racks(|net| {
            net.throttle_node(NodeId(1), 0.1); // 2 MB/s in the middle
            net.transfer_chain(&[NodeId(0), NodeId(1), NodeId(2)], 400_000);
        });
        assert!((0.15..0.8).contains(&elapsed), "expected ~0.2 s, got {elapsed}");
    }

    /// What `run` moves on a fresh 2-rack × 2-node network.
    fn moved(run: impl FnOnce(&EmulatedNetwork)) -> TrafficSnapshot {
        let topo = ClusterTopology::uniform(2, 2);
        let net = EmulatedNetwork::new(&topo, bw(1.0), bw(1.0));
        run(&net);
        net.snapshot()
    }

    #[test]
    fn a_two_node_chain_and_a_transfer_are_the_same_call() {
        let transfers = moved(|net| {
            net.transfer(NodeId(0), NodeId(1), 1_000);
            net.transfer(NodeId(1), NodeId(2), 1_000);
        });
        let chains = moved(|net| {
            net.transfer_chain(&[NodeId(0), NodeId(1)], 1_000);
            net.transfer_chain(&[NodeId(1), NodeId(2)], 1_000);
        });
        assert_eq!(transfers, chains);
        assert_eq!((chains.cross_rack_bytes, chains.intra_rack_bytes), (1_000, 1_000));
    }

    #[test]
    fn consecutive_equal_nodes_in_a_path_are_a_free_leg() {
        // A node listed twice in a row hands the stream to itself.
        let stuttered = [NodeId(0), NodeId(0), NodeId(1), NodeId(1), NodeId(2)];
        let plain = [NodeId(0), NodeId(1), NodeId(2)];
        let bytes = |path: &[NodeId]| moved(|net| net.transfer_chain(path, 1_000));
        assert_eq!(bytes(&stuttered), bytes(&plain));
        let start = Instant::now();
        let local = moved(|net| net.transfer_chain(&[NodeId(3); 2], ByteSize::mib(100).as_u64()));
        assert!(start.elapsed().as_secs_f64() < 0.05);
        assert_eq!(local, TrafficSnapshot::default());
    }

    #[test]
    fn a_chain_shared_by_four_threads_never_beats_its_slowest_link() {
        // 10 MB/s node links, 40 MB/s rack links: the node links are the
        // slowest, and every byte of the chain crosses node 0's uplink. From
        // idle that link banks at most its burst, max(5 ms, 64 KiB) = 64 KiB,
        // so no interleaving of the four senders' single clock reads per
        // chunk may finish before (bytes − burst) / rate.
        const RATE: f64 = 10e6;
        const PER_THREAD: u64 = 300_000;
        let topo = ClusterTopology::uniform(3, 1);
        let net = EmulatedNetwork::new(&topo, Bandwidth::bytes_per_sec(RATE), bw(40.0));
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| net.transfer_chain(&path, PER_THREAD));
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let floor = (4.0 * PER_THREAD as f64 - 64.0 * 1024.0) / RATE;
        assert!(elapsed >= floor, "finished in {elapsed} s, under the {floor} s floor");
        let moved = net.snapshot();
        assert_eq!((moved.cross_rack_bytes, moved.intra_rack_bytes), (8 * PER_THREAD, 0));
    }

    #[test]
    fn inject_upstream_consumes_bandwidth() {
        let topo = ClusterTopology::uniform(2, 1);
        let net = EmulatedNetwork::new(&topo, bw(10.0), bw(10.0));
        let start = Instant::now();
        net.inject_upstream(NodeId(0), 1_000_000, true);
        assert!(start.elapsed().as_secs_f64() > 0.05);
    }
}
