//! The unified data-plane I/O service (DESIGN.md §9).
//!
//! Every block fetch and store in the cluster — client reads/writes, the
//! encoder's stripe downloads and parity uploads, degraded-read
//! reconstruction, healer re-replication, MapReduce shuffle traffic — goes
//! through [`ClusterIo`]. It owns the three seams that used to be spread
//! across per-consumer retry loops:
//!
//! * the **fault injector** (every attempt consults the plan; corruption is
//!   substituted here),
//! * the **emulated network** (every byte is paced through netem's token
//!   buckets),
//! * the **checksum boundary** (readers re-hash received bytes against the
//!   write-time CRC32C).
//!
//! On top of the single-attempt seams it provides the one retry/fallback
//! policy all consumers share: [`ClusterIo::read_with_fallback`] walks an
//! ordered replica list, retrying transient faults with seeded-jitter
//! backoff on the same node, skipping dead nodes (optionally notifying the
//! caller's blacklist), and [`ClusterIo::write_replicated`] /
//! [`ClusterIo::write_with_fallback`] do the same for pipeline and
//! placement writes. Per-op byte and latency counters are aggregated into
//! [`IoStats`].
//!
//! Every call carries an [`OpContext`] from the reliability substrate
//! (DESIGN.md §14): each attempt charges virtual-clock ticks against the
//! op's deadline, retries draw from the op class's shared token bucket,
//! fallback skips breaker-open replicas for one tick instead of paying a
//! timeout, and reads whose seeded straggler delay crosses the hedging
//! threshold race a second replica fetch and keep the virtual winner.

use crate::cache::CacheStats;
use crate::datanode::DataNode;
use crate::reliability::{self, OpContext, Reliability};
use crate::sync::Mutex;
use ear_faults::{FaultInjector, IoFault};
use ear_netem::EmulatedNetwork;
use ear_types::{Block, BlockId, ClusterTopology, Error, NodeId, Padded, Result};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Nodes one multi-block job (a stripe's encode, a shard's rebuild) has
/// found fail-stop dead, shared across the job's reads so each discovery is
/// paid at most once: the blacklist hook and skip predicate of
/// [`read_nearest`](ClusterIo::read_nearest).
#[derive(Debug, Default)]
pub struct DeadNodeSet {
    inner: Mutex<HashSet<NodeId>>,
}

impl DeadNodeSet {
    /// An empty set.
    pub fn new() -> Self {
        DeadNodeSet::default()
    }

    /// Records `node` as discovered dead.
    pub fn insert(&self, node: NodeId) {
        self.inner.lock().insert(node);
    }

    /// Whether `node` has been discovered dead.
    pub fn contains(&self, node: NodeId) -> bool {
        self.inner.lock().contains(&node)
    }

    /// How many nodes have been discovered dead.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// A point-in-time copy, for sort keys that must not hold the lock.
    fn snapshot(&self) -> HashSet<NodeId> {
        self.inner.lock().clone()
    }
}

/// Attempts per replica before a read or write gives up on it.
pub(crate) const IO_ATTEMPTS: u32 = 3;

/// Seeded-backoff hash key of one (replica, block) retry stream.
fn backoff_key(node: NodeId, block: BlockId) -> u64 {
    ((node.index() as u64) << 40) ^ block.index() as u64
}

/// Bytes a read moved without hashing them, for the rack fold's pass to
/// hash while it absorbs them (DESIGN.md §15) and then
/// [`settle`](ClusterIo::settle). The type has no `Deref` and no way to a
/// [`Block`] but `settle`, so nothing can store, cache or hold the bytes
/// before they pass.
#[derive(Debug)]
pub(crate) struct Unverified {
    data: Block,
    /// The write-time CRC32C the bytes must hash to, or `None` when the
    /// source's cache served them already verified.
    owed: Option<u32>,
    block: BlockId,
    node: NodeId,
}

impl Unverified {
    /// Whether the pass must hash these bytes: `false` for a verified cache
    /// hit.
    pub(crate) fn owes_hash(&self) -> bool {
        self.owed.is_some()
    }

    /// The node that served the bytes.
    pub(crate) fn served_by(&self) -> NodeId {
        self.node
    }

    /// The bytes, for the pass that hashes them — and, should they fail, for
    /// taking exactly them back out of what it absorbed.
    pub(crate) fn unchecked(&self) -> &[u8] {
        &self.data
    }
}

/// What a read attempt hands its caller: bytes it hashed at the boundary
/// ([`Block`]), or bytes left for the fold's pass ([`Unverified`]).
pub(crate) trait Landing: Sized {
    /// Takes one attempt's bytes.
    fn land(io: &ClusterIo, read: Unverified) -> Result<Self>;
    /// Their length.
    fn len(&self) -> usize;
}

impl Landing for Block {
    fn land(io: &ClusterIo, read: Unverified) -> Result<Block> {
        let Some(crc) = read.owed else {
            return Ok(read.data);
        };
        // Hash what arrived against the write-time CRC. A pass stamps the
        // handle, so a reader that stores these bytes again (re-replication)
        // does not hash them a second time.
        let corrupt = Error::CorruptBlock { block: read.block, node: read.node };
        let data = read.data.verified(crc).ok_or(corrupt)?;
        io.admit_verified(read.node, read.block, &data, crc);
        Ok(data)
    }

    fn len(&self) -> usize {
        Block::len(self)
    }
}

impl Landing for Unverified {
    fn land(_: &ClusterIo, read: Unverified) -> Result<Unverified> {
        Ok(read)
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

/// Monotonic I/O counters, updated relaxed — totals are exact once the
/// contributing threads have joined, which is how every consumer reads them
/// (after `encode_all`, after a healer round, after a job set).
///
/// One stripe of them per thread: a thread is dealt a stripe at its first
/// count, round robin over [`STRIPES`], and keeps it, so concurrent clients
/// do not write the same cache lines; [`ClusterIo::stats`] sums the
/// stripes.
#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    read_retries: AtomicU64,
    write_retries: AtomicU64,
    failed_reads: AtomicU64,
    failed_writes: AtomicU64,
    read_ticks: AtomicU64,
    write_ticks: AtomicU64,
    transfer_bytes: AtomicU64,
    crc_skipped: AtomicU64,
    crc_bytes_skipped: AtomicU64,
    backoff_rounds: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    breaker_skips: AtomicU64,
}

/// Counter stripes per [`ClusterIo`]: more than the threads that count at
/// once (the clients, the encode and repair workers), so consecutive
/// threads never share one.
const STRIPES: usize = 16;

/// The stripe the next thread to count is dealt.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, dealt at its first count.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The per-thread stripes of [`Counters`].
#[derive(Debug, Default)]
struct Striped([Padded<Counters>; STRIPES]);

impl Striped {
    /// The calling thread's stripe.
    #[expect(clippy::indexing_slicing, reason = "STRIPE is taken modulo STRIPES")]
    fn mine(&self) -> &Counters {
        &self.0[STRIPE.with(|&i| i)]
    }

    /// One counter summed over the stripes.
    fn total(&self, counter: impl Fn(&Counters) -> &AtomicU64) -> u64 {
        self.0.iter().map(|c| counter(c).load(Ordering::Relaxed)).sum()
    }
}

/// A snapshot of the cluster's data-plane I/O accounting.
///
/// Every field — including the latency sums (`*_ticks`, virtual-clock
/// microseconds from the reliability cost model) — is deterministic for a
/// fixed seed and fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoStats {
    /// Successful single-attempt block fetches.
    pub reads: u64,
    /// Successful single-attempt block stores.
    pub writes: u64,
    /// Payload bytes fetched (successful attempts).
    pub bytes_read: u64,
    /// Payload bytes stored (successful attempts).
    pub bytes_written: u64,
    /// Transient read attempts that were retried on the same replica.
    pub read_retries: u64,
    /// Transient write attempts that were retried on the same destination.
    pub write_retries: u64,
    /// Read attempts that failed (any cause, including the retried ones).
    pub failed_reads: u64,
    /// Write attempts that failed (any cause, including the retried ones).
    pub failed_writes: u64,
    /// Virtual-clock ticks (1 tick = 1 µs) charged to successful fetches:
    /// straggler delay plus the transfer cost model, the same numbers
    /// charged against op deadlines.
    pub read_ticks: u64,
    /// Virtual-clock ticks charged to successful stores.
    pub write_ticks: u64,
    /// Bytes moved through accounted raw transfers (shuffle, relocation).
    pub transfer_bytes: u64,
    /// Verified reads served without re-running CRC32C (the verified-once
    /// seam over cache hits; corrupt-fault attempts always re-verify).
    pub crc_skipped: u64,
    /// Payload bytes those skipped verifications covered.
    pub crc_bytes_skipped: u64,
    /// Backoff rounds slept between retries (reads and writes).
    pub backoff_rounds: u64,
    /// Hedged second fetches launched past the straggler threshold.
    pub hedges_launched: u64,
    /// Hedges whose leg won the virtual-clock race.
    pub hedges_won: u64,
    /// Fallback sources skipped for one tick because their breaker was open.
    pub breaker_skips: u64,
    /// Circuit-breaker trips (detector-driven closed → open transitions).
    pub breaker_trips: u64,
    /// Always 0: no operation is shed. Kept for the benchmark harness's
    /// counters until the next rebaseline drops it.
    pub shed_ops: u64,
    /// Operations that blew their virtual-clock deadline.
    pub deadline_misses: u64,
    /// Always 0: no retry is denied; [`IO_ATTEMPTS`] per source is the one
    /// retry bound. Kept beside `shed_ops` until the next rebaseline.
    pub retry_denials: u64,
    /// Aggregated DataNode cache counters (hits/misses/bypasses/evictions
    /// and bytes served from cache instead of the store backend).
    pub cache: CacheStats,
}

/// The unified I/O service: DataNodes + emulated network + fault injector
/// behind one read/write API. One per cluster, shared by every service
/// thread.
#[derive(Debug)]
pub struct ClusterIo {
    topo: ClusterTopology,
    /// One padded entry per node: clients served by different DataNodes
    /// never write the same cache line.
    datanodes: Vec<Padded<DataNode>>,
    net: EmulatedNetwork,
    injector: FaultInjector,
    rel: Arc<Reliability>,
    counters: Striped,
}

impl ClusterIo {
    /// Assembles the service from the cluster's already-built parts. The
    /// reliability substrate is shared with the cluster that admits ops:
    /// the service reads its breaker/hedging policy and folds its counters
    /// into [`IoStats`].
    pub fn new(
        topo: ClusterTopology,
        datanodes: Vec<DataNode>,
        net: EmulatedNetwork,
        injector: FaultInjector,
        rel: Arc<Reliability>,
    ) -> Self {
        ClusterIo {
            topo,
            datanodes: datanodes.into_iter().map(Padded::from).collect(),
            net,
            injector,
            rel,
            counters: Striped::default(),
        }
    }

    /// The reliability substrate in force (deadlines, breakers, hedging).
    pub fn reliability(&self) -> &Arc<Reliability> {
        &self.rel
    }

    /// The topology this service spans.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// The emulated network (for traffic statistics and injection).
    pub fn network(&self) -> &EmulatedNetwork {
        &self.net
    }

    /// The fault injector in force.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Access to a DataNode.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "a test/bench accessor with a documented panic; the data path reads through \
                  fetch_inner/store_inner, which .get() and return NodeDown"
    )]
    pub fn datanode(&self, node: NodeId) -> &DataNode {
        &self.datanodes[node.index()]
    }

    /// Snapshot of the per-op byte and latency accounting.
    pub fn stats(&self) -> IoStats {
        let c = &self.counters;
        let rel = self.rel.stats();
        IoStats {
            reads: c.total(|s| &s.reads),
            writes: c.total(|s| &s.writes),
            bytes_read: c.total(|s| &s.bytes_read),
            bytes_written: c.total(|s| &s.bytes_written),
            read_retries: c.total(|s| &s.read_retries),
            write_retries: c.total(|s| &s.write_retries),
            failed_reads: c.total(|s| &s.failed_reads),
            failed_writes: c.total(|s| &s.failed_writes),
            read_ticks: c.total(|s| &s.read_ticks),
            write_ticks: c.total(|s| &s.write_ticks),
            transfer_bytes: c.total(|s| &s.transfer_bytes),
            crc_skipped: c.total(|s| &s.crc_skipped),
            crc_bytes_skipped: c.total(|s| &s.crc_bytes_skipped),
            backoff_rounds: c.total(|s| &s.backoff_rounds),
            hedges_launched: c.total(|s| &s.hedges_launched),
            hedges_won: c.total(|s| &s.hedges_won),
            breaker_skips: c.total(|s| &s.breaker_skips),
            breaker_trips: rel.breaker_trips,
            shed_ops: 0,
            deadline_misses: rel.deadline_misses,
            retry_denials: 0,
            cache: {
                let mut agg = CacheStats::default();
                for dn in &self.datanodes {
                    agg.add(&dn.cache_stats());
                }
                agg
            },
        }
    }

    /// Reads `block` from the specific replica on `src`, shipping the bytes
    /// to `dst` and verifying their checksum against the write-time CRC32C.
    /// This is the single injection boundary every read goes through:
    /// corruption enters here (the fault layer hands back a copy with
    /// flipped bits) and is caught here (the checksum mismatch becomes
    /// [`Error::CorruptBlock`]).
    ///
    /// The source node's cache sits behind this boundary (verified-once
    /// seam): a hit serves bytes that passed verification when they were
    /// admitted, so CRC32C is not re-run — *unless* the fault plan injects
    /// corruption on this attempt, which always forces a full re-hash. A
    /// miss reads the store, verifies, and admits on a pass. The wire
    /// transfer is paid either way, so network byte accounting is
    /// identical with the cache off or on.
    ///
    /// # Errors
    ///
    /// * [`Error::NodeDown`] / [`Error::TransientIo`] from the fault layer.
    /// * [`Error::BlockUnavailable`] if `src` does not hold the block.
    /// * [`Error::CorruptBlock`] if the received bytes fail verification.
    /// * [`Error::DeadlineExceeded`] if charging the attempt's virtual cost
    ///   blows the op's deadline.
    pub fn fetch_from(
        &self,
        ctx: &OpContext<'_>,
        src: NodeId,
        dst: NodeId,
        block: BlockId,
        attempt: u32,
    ) -> Result<Block> {
        let (out, cost) = self.fetch_costed(src, dst, block, attempt);
        ctx.charge(cost)?;
        out
    }

    /// One fetch attempt plus its virtual-clock cost, *without* charging a
    /// context — the building block [`fetch_from`](Self::fetch_from) and
    /// the hedging race share. The cost is a pure function of the attempt's
    /// identity and outcome: the seeded straggler delay, plus the path
    /// `[src, dst]`'s ticks on success, a timeout penalty on a dead node, or
    /// a flat fault penalty otherwise. `T` says whether the bytes are hashed
    /// here ([`Block`]) or by the fold ([`Unverified`]).
    pub(crate) fn fetch_costed<T: Landing>(
        &self,
        src: NodeId,
        dst: NodeId,
        block: BlockId,
        attempt: u32,
    ) -> (Result<T>, u64) {
        let delay = self.injector.straggler_delay_ticks(
            src,
            block,
            attempt,
            reliability::NOMINAL_SERVICE_TICKS,
        );
        let out = self.fetch_inner(src, dst, block, attempt).and_then(|read| T::land(self, read));
        let cost = delay.saturating_add(match &out {
            Ok(data) => reliability::chain_ticks(&[src, dst], data.len() as u64),
            Err(Error::NodeDown { .. }) => reliability::TIMEOUT_PENALTY_TICKS,
            Err(_) => reliability::FAULT_PENALTY_TICKS,
        });
        match &out {
            Ok(data) => {
                let c = self.counters.mine();
                c.reads.fetch_add(1, Ordering::Relaxed);
                c.bytes_read.fetch_add(data.len() as u64, Ordering::Relaxed);
                c.read_ticks.fetch_add(cost, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.mine().failed_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
        (out, cost)
    }

    /// One attempt's bytes, moved to `dst`. They are hashed here only when
    /// the fault plan corrupted them; otherwise they owe their check to the
    /// caller, unless the source's cache served them verified.
    fn fetch_inner(
        &self,
        src: NodeId,
        dst: NodeId,
        block: BlockId,
        attempt: u32,
    ) -> Result<Unverified> {
        let fault = self.injector.on_read(src, block, attempt);
        match fault {
            Some(IoFault::Corrupt) | None => {}
            Some(f) => return Err(f.to_error(src, block)),
        }
        // A source outside the topology (a stale or corrupt location entry)
        // reads as a dead node, so fallback moves on to the next replica
        // instead of panicking the read path.
        let datanode = self
            .datanodes
            .get(src.index())
            .ok_or(Error::NodeDown { node: src })?;
        let read = datanode
            .cached_read(block)
            .ok_or(Error::BlockUnavailable { block })?;
        if fault == Some(IoFault::Corrupt) {
            // An injected corruption invalidates whatever verification the
            // cached copy carried: the corrupted bytes are what crosses the
            // wire, and they are hashed at this boundary, deferred or not,
            // so a fault the plan injects fails this attempt.
            let bad = Block::from(self.injector.corrupted_copy(src, block, &read.data));
            self.net.transfer(src, dst, bad.len() as u64);
            let data = bad.verified(read.crc).ok_or(Error::CorruptBlock { block, node: src })?;
            return Ok(Unverified { data, owed: None, block, node: src });
        }
        // The bytes cross the wire before the reader can checksum them —
        // cached or not, the transfer is always paid.
        self.net.transfer(src, dst, read.data.len() as u64);
        if read.verified {
            // Verified-once: these exact bytes passed CRC32C when admitted,
            // and the cache is write-invalidated, so re-hashing them can
            // only re-derive the same answer.
            let c = self.counters.mine();
            c.crc_skipped.fetch_add(1, Ordering::Relaxed);
            c.crc_bytes_skipped.fetch_add(read.data.len() as u64, Ordering::Relaxed);
            return Ok(Unverified { data: read.data, owed: None, block, node: src });
        }
        Ok(Unverified { data: read.data, owed: Some(read.crc), block, node: src })
    }

    /// Settles bytes a fold read unverified and hashed to `hashed` in its
    /// pass: on a match (or for bytes the cache served verified) they are
    /// admitted to their source's cache and returned as a [`Block`]; on a
    /// mismatch the read is counted failed and the bytes come back with
    /// [`Error::CorruptBlock`] naming the node that served them, for the
    /// fold to take back out of its rows.
    pub(crate) fn settle(
        &self,
        read: Unverified,
        hashed: u32,
    ) -> std::result::Result<Block, (Unverified, Error)> {
        match read.owed {
            None => Ok(read.data),
            Some(crc) if crc == hashed => {
                self.admit_verified(read.node, read.block, &read.data, crc);
                Ok(read.data)
            }
            Some(_) => {
                self.counters.mine().failed_reads.fetch_add(1, Ordering::Relaxed);
                let e = Error::CorruptBlock { block: read.block, node: read.node };
                Err((read, e))
            }
        }
    }

    /// Admits bytes that just passed their check into `node`'s cache.
    fn admit_verified(&self, node: NodeId, block: BlockId, data: &Block, crc: u32) {
        if let Some(datanode) = self.datanodes.get(node.index()) {
            datanode.admit(block, data, crc);
        }
    }

    /// Writes `block`'s bytes from `src` onto `dst`'s store, through the
    /// fault layer: one attempt of a one-replica pipeline — the attempt is
    /// admitted, the bytes cross the one leg, and they land.
    ///
    /// # Errors
    ///
    /// * [`Error::NodeDown`] / [`Error::TransientIo`] from the fault layer.
    /// * [`Error::Io`] if the destination's storage backend fails.
    /// * [`Error::DeadlineExceeded`] if charging the attempt's virtual cost
    ///   blows the op's deadline.
    pub fn store_at(
        &self,
        ctx: &OpContext<'_>,
        src: NodeId,
        dst: NodeId,
        block: BlockId,
        data: Block,
        attempt: u32,
    ) -> Result<()> {
        let len = data.len() as u64;
        let leg = reliability::chain_ticks(&[src, dst], len);
        let (admitted, cost) = self.admit_attempt(dst, block, attempt, leg);
        let out = admitted.and_then(|()| {
            self.net.transfer(src, dst, len);
            self.land(dst, block, data, cost)
        });
        ctx.charge(cost)?;
        out
    }

    /// The admit half of one write attempt: the fault plan's verdict on
    /// `dst` and the attempt's virtual cost — its straggler delay plus `leg`
    /// ticks when admitted, a timeout on a dead node, a fault penalty
    /// otherwise. Nothing moves and nothing is charged yet.
    fn admit_attempt(
        &self,
        dst: NodeId,
        block: BlockId,
        attempt: u32,
        leg: u64,
    ) -> (Result<()>, u64) {
        let delay = self.injector.straggler_delay_ticks(
            dst,
            block,
            attempt,
            reliability::NOMINAL_SERVICE_TICKS,
        );
        let out = match self.injector.on_write(dst, block, attempt) {
            Some(f) => Err(f.to_error(dst, block)),
            // An out-of-range NodeId (stale or corrupt location entry) reads
            // as a dead node before any wire cost: the network layer indexes
            // racks by node id.
            None if dst.index() >= self.datanodes.len() => Err(Error::NodeDown { node: dst }),
            None => Ok(()),
        };
        let cost = delay.saturating_add(match &out {
            Ok(()) => leg,
            Err(Error::NodeDown { .. }) => reliability::TIMEOUT_PENALTY_TICKS,
            Err(_) => reliability::FAULT_PENALTY_TICKS,
        });
        if out.is_err() {
            self.counters.mine().failed_writes.fetch_add(1, Ordering::Relaxed);
        }
        (out, cost)
    }

    /// Admits `dst` as the next replica of `block`, retrying transient
    /// faults with seeded-jitter backoff up to [`IO_ATTEMPTS`] attempts and
    /// charging every attempt — the one write-side retry loop. Any other
    /// fault is returned at once: a crashed node or dark rack stays that
    /// way. Returns the admitted attempt's cost, for [`land`](Self::land) to
    /// account.
    fn admit(&self, ctx: &OpContext<'_>, dst: NodeId, block: BlockId, leg: u64) -> Result<u64> {
        let mut attempt = 0;
        loop {
            let (out, cost) = self.admit_attempt(dst, block, attempt, leg);
            ctx.charge(cost)?;
            match out {
                Err(Error::TransientIo { .. }) if attempt + 1 < IO_ATTEMPTS => {
                    self.counters.mine().write_retries.fetch_add(1, Ordering::Relaxed);
                    self.back_off(ctx, backoff_key(dst, block), attempt)?;
                    attempt += 1;
                }
                out => return out.map(|()| cost),
            }
        }
    }

    /// Sleeps the seeded backoff before retry `attempt + 1`, charged to the
    /// op first.
    fn back_off(&self, ctx: &OpContext<'_>, key: u64, attempt: u32) -> Result<()> {
        let ticks = ctx.reliability().backoff_ticks(key, attempt);
        self.counters.mine().backoff_rounds.fetch_add(1, Ordering::Relaxed);
        ctx.charge(ticks)?;
        reliability::pace(ticks);
        Ok(())
    }

    /// The land half: stores the arrived bytes on `dst` and accounts a
    /// successful write at the `cost` its admission was charged.
    fn land(&self, dst: NodeId, block: BlockId, data: Block, cost: u64) -> Result<()> {
        let len = data.len() as u64;
        let out = self
            .datanodes
            .get(dst.index())
            .ok_or(Error::NodeDown { node: dst })
            .and_then(|dn| dn.put(block, data));
        if out.is_ok() {
            let c = self.counters.mine();
            c.writes.fetch_add(1, Ordering::Relaxed);
            c.bytes_written.fetch_add(len, Ordering::Relaxed);
            c.write_ticks.fetch_add(cost, Ordering::Relaxed);
        } else {
            self.counters.mine().failed_writes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Reads `block` into `dst` from the first source in `sources` that can
    /// serve it — the shared fallback policy of every resilient reader.
    ///
    /// Sources are tried in the given order. On each one, a transient fault
    /// is retried after seeded-jitter backoff, up to [`IO_ATTEMPTS`]
    /// attempts (the last one backs off no more); a dead node is reported
    /// to `on_dead` (a blacklist hook) and skipped; any other failure
    /// (missing replica, checksum mismatch) falls through to the next
    /// source. A source for which `skip` returns `true`, or
    /// whose circuit breaker is open, is bypassed without an attempt unless
    /// it is the last hope — a breaker skip costs one virtual tick instead
    /// of a timeout.
    ///
    /// When hedging is enabled and an attempt's seeded straggler delay
    /// crosses the threshold, a second fetch races on the next viable
    /// source — one neither skipped nor breaker-open — and the op completes
    /// at the virtual-clock winner's time.
    ///
    /// Returns the bytes and the node that served them.
    ///
    /// # Errors
    ///
    /// * [`Error::BlockUnavailable`] if `sources` is empty.
    /// * [`Error::DeadlineExceeded`] as soon as the op's deadline passes —
    ///   it does not fall through to the next source.
    /// * Otherwise the last per-source error once every source failed.
    pub fn read_with_fallback(
        &self,
        ctx: &OpContext<'_>,
        dst: NodeId,
        block: BlockId,
        sources: &[NodeId],
        on_dead: Option<&dyn Fn(NodeId)>,
        skip: Option<&dyn Fn(NodeId) -> bool>,
    ) -> Result<(Block, NodeId)> {
        self.read_fallback(ctx, dst, block, sources, on_dead, skip)
    }

    /// [`read_with_fallback`](Self::read_with_fallback), landing the bytes
    /// as `T`.
    fn read_fallback<T: Landing>(
        &self,
        ctx: &OpContext<'_>,
        dst: NodeId,
        block: BlockId,
        sources: &[NodeId],
        on_dead: Option<&dyn Fn(NodeId)>,
        skip: Option<&dyn Fn(NodeId) -> bool>,
    ) -> Result<(T, NodeId)> {
        let rel = ctx.reliability();
        let mut last = Error::BlockUnavailable { block };
        for (i, &src) in sources.iter().enumerate() {
            // Skip a known-bad source while other candidates remain; if it
            // is the last one, try it anyway — a stale blacklist entry must
            // not turn a readable block into a failed read.
            if i + 1 < sources.len() && skip.is_some_and(|f| f(src)) {
                last = Error::NodeDown { node: src };
                continue;
            }
            // A breaker-open source is the same decision made by the
            // substrate: the detector already condemned this node, so pay
            // one tick to move on instead of a timeout discovering it.
            if i + 1 < sources.len() && rel.breaker_open(src) {
                self.counters.mine().breaker_skips.fetch_add(1, Ordering::Relaxed);
                ctx.charge(reliability::BREAKER_SKIP_TICKS)?;
                last = Error::NodeDown { node: src };
                continue;
            }
            for attempt in 0..IO_ATTEMPTS {
                let delay = self.injector.straggler_delay_ticks(
                    src,
                    block,
                    attempt,
                    reliability::NOMINAL_SERVICE_TICKS,
                );
                let hedge_to =
                    if rel.hedging_enabled() && delay > reliability::HEDGE_THRESHOLD_TICKS {
                        sources.iter().skip(i + 1).copied().find(|&s| {
                            s != src && !rel.breaker_open(s) && !skip.is_some_and(|f| f(s))
                        })
                    } else {
                        None
                    };
                let outcome = if let Some(alt) = hedge_to {
                    self.hedged_fetch(ctx, src, alt, dst, block, attempt)
                } else {
                    let (out, cost) = self.fetch_costed(src, dst, block, attempt);
                    ctx.charge(cost).and(out).map(|d| (d, src))
                };
                match outcome {
                    Ok(won) => return Ok(won),
                    Err(e @ Error::TransientIo { .. }) if attempt + 1 < IO_ATTEMPTS => {
                        last = e;
                        self.counters.mine().read_retries.fetch_add(1, Ordering::Relaxed);
                        self.back_off(ctx, backoff_key(src, block), attempt)?;
                    }
                    Err(e) if e.stops_the_op() => return Err(e),
                    Err(e @ Error::NodeDown { .. }) => {
                        if let Some(f) = on_dead {
                            f(src);
                        }
                        last = e;
                        break;
                    }
                    Err(e) => {
                        last = e;
                        break;
                    }
                }
            }
        }
        Err(last)
    }

    /// Races a straggling primary fetch against a hedge on `alt`: the hedge
    /// launches at the threshold on the virtual clock, and the op completes
    /// at whichever leg finishes first. Physically both legs run to
    /// completion in sequence (determinism over wall-parallelism); the
    /// loser's virtual cost is discarded.
    fn hedged_fetch<T: Landing>(
        &self,
        ctx: &OpContext<'_>,
        src: NodeId,
        alt: NodeId,
        dst: NodeId,
        block: BlockId,
        attempt: u32,
    ) -> Result<(T, NodeId)> {
        let (primary, primary_cost) = self.fetch_costed(src, dst, block, attempt);
        let (hedge, hedge_cost) = self.fetch_costed(alt, dst, block, attempt);
        // The hedge leg starts once the primary has straggled past the
        // threshold, so its completion sits that far into the op.
        let hedge_total = reliability::HEDGE_THRESHOLD_TICKS.saturating_add(hedge_cost);
        let (data, hedge_won) = self.settle_hedge(ctx, primary, primary_cost, hedge, hedge_total)?;
        Ok((data, if hedge_won { alt } else { src }))
    }

    /// Settles one launched hedge on the virtual clock: `primary` finished
    /// `primary_cost` ticks into the op, `hedge` at `hedge_total`. The op
    /// completes at the earlier successful leg (the loser's cost is
    /// discarded) and is charged that much; the flag says the hedge's bytes
    /// were taken. With both legs failed the op has observed both, so it
    /// completes at the later one and the primary's error drives the
    /// caller's retry policy.
    pub(crate) fn settle_hedge<T>(
        &self,
        ctx: &OpContext<'_>,
        primary: Result<T>,
        primary_cost: u64,
        hedge: Result<T>,
        hedge_total: u64,
    ) -> Result<(T, bool)> {
        self.counters.mine().hedges_launched.fetch_add(1, Ordering::Relaxed);
        let hedge_won = match (&primary, &hedge) {
            (Ok(_), Ok(_)) => hedge_total < primary_cost,
            (Err(_), Ok(_)) => true,
            (Ok(_), Err(_)) => false,
            (Err(_), Err(_)) => {
                ctx.charge(primary_cost.max(hedge_total))?;
                return primary.map(|data| (data, false));
            }
        };
        if hedge_won {
            self.counters.mine().hedges_won.fetch_add(1, Ordering::Relaxed);
            ctx.charge(hedge_total)?;
            hedge.map(|data| (data, true))
        } else {
            ctx.charge(primary_cost)?;
            primary.map(|data| (data, false))
        }
    }

    /// Reads `block` into `dst` from the nearest workable replica: the
    /// preference order of every read of a rack fold. `replicas` is
    /// sorted so that known-dead nodes go last, then `dst` itself (a local
    /// copy pays no wire cost), then `dst`'s rack, ties broken by node index
    /// for determinism — and the sorted list is walked by
    /// [`read_with_fallback`](Self::read_with_fallback) with `dead` wired
    /// in as both the blacklist hook and the skip predicate.
    ///
    /// # Errors
    ///
    /// As [`read_with_fallback`](Self::read_with_fallback).
    pub fn read_nearest(
        &self,
        ctx: &OpContext<'_>,
        dst: NodeId,
        block: BlockId,
        replicas: &[NodeId],
        dead: &DeadNodeSet,
    ) -> Result<(Block, NodeId)> {
        self.nearest(ctx, dst, block, replicas, dead)
    }

    /// [`read_nearest`](Self::read_nearest) for the rack fold: the bytes
    /// arrive [`Unverified`], unless the fault plan corrupted them on the
    /// way, which fails the attempt here as it does for every read.
    pub(crate) fn read_nearest_unverified(
        &self,
        ctx: &OpContext<'_>,
        dst: NodeId,
        block: BlockId,
        replicas: &[NodeId],
        dead: &DeadNodeSet,
    ) -> Result<Unverified> {
        self.nearest(ctx, dst, block, replicas, dead).map(|(read, _)| read)
    }

    fn nearest<T: Landing>(
        &self,
        ctx: &OpContext<'_>,
        dst: NodeId,
        block: BlockId,
        replicas: &[NodeId],
        dead: &DeadNodeSet,
    ) -> Result<(T, NodeId)> {
        let dst_rack = self.topo.rack_of(dst);
        let known_dead = dead.snapshot();
        let mut ordered = replicas.to_vec();
        ordered.sort_by_key(|&n| {
            (
                known_dead.contains(&n),
                n != dst,
                self.topo.rack_of(n) != dst_rack,
                n.index(),
            )
        });
        let on_dead = |n: NodeId| dead.insert(n);
        let skip = |n: NodeId| dead.contains(n);
        self.read_fallback(ctx, dst, block, &ordered, Some(&on_dead), Some(&skip))
    }

    /// Counts a rack fold's chain in [`IoStats`]: the `bytes` its paid legs
    /// moved, and whether a receiver's open breaker stopped it.
    pub(crate) fn count_chain(&self, bytes: u64, breaker_skip: bool) {
        self.counters.mine().transfer_bytes.fetch_add(bytes, Ordering::Relaxed);
        if breaker_skip {
            self.counters.mine().breaker_skips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes one block through the replication pipeline `client` →
    /// `layout[0]` → `layout[1]` → … as one streamed chain: each replica is
    /// admitted in layout order (the plan consulted and transient faults
    /// retried per hop) before anything moves, then the bytes cross
    /// `[client, admitted…]` once and land on each admitted replica in
    /// order, so a pipeline broken at replica `i` pays only the legs before
    /// it. Each replica is charged what its leg adds to the chain's ticks
    /// (DESIGN.md §14).
    ///
    /// Returns the replicas that actually landed and, if the pipeline broke,
    /// the error that stopped it — the caller records the partial location
    /// list honestly either way.
    pub fn write_replicated(
        &self,
        ctx: &OpContext<'_>,
        client: NodeId,
        block: BlockId,
        data: &Block,
        layout: &[NodeId],
    ) -> (Vec<NodeId>, Option<Error>) {
        let len = data.len() as u64;
        let mut path = vec![client];
        let mut costs = Vec::with_capacity(layout.len());
        let mut stop = None;
        for &dst in layout {
            let paid = reliability::chain_ticks(&path, len);
            path.push(dst);
            match self.admit(ctx, dst, block, reliability::chain_ticks(&path, len) - paid) {
                Ok(cost) => costs.push(cost),
                Err(e) => {
                    path.pop();
                    stop = Some(e);
                    break;
                }
            }
        }
        self.net.transfer_chain(&path, len);
        let mut stored = Vec::with_capacity(costs.len());
        for (&dst, cost) in layout.iter().zip(costs) {
            if let Err(e) = self.land(dst, block, data.clone(), cost) {
                return (stored, Some(e));
            }
            stored.push(dst);
        }
        (stored, stop)
    }

    /// Stores `block` on the first workable destination in `candidates` —
    /// the shared fallback policy of placement writes (parity upload,
    /// re-replication). A destination the fault plan already marks down is
    /// skipped without paying a transfer, as is one whose circuit breaker
    /// is open (one virtual tick, unless it is the last candidate); each of
    /// the rest is tried as a one-replica
    /// [`write_replicated`](Self::write_replicated) pipeline.
    ///
    /// Returns the node that took the bytes.
    ///
    /// # Errors
    ///
    /// * [`Error::NoRepairDestination`] if `candidates` is empty.
    /// * [`Error::DeadlineExceeded`] as soon as the op's deadline passes.
    /// * Otherwise the last per-candidate error once every candidate failed.
    pub fn write_with_fallback(
        &self,
        ctx: &OpContext<'_>,
        src: NodeId,
        block: BlockId,
        data: &Block,
        candidates: &[NodeId],
    ) -> Result<NodeId> {
        let rel = ctx.reliability();
        let mut last = Error::NoRepairDestination { block };
        for (i, &dst) in candidates.iter().enumerate() {
            if self.injector.node_down(dst) {
                last = Error::NodeDown { node: dst };
                continue;
            }
            if i + 1 < candidates.len() && rel.breaker_open(dst) {
                self.counters.mine().breaker_skips.fetch_add(1, Ordering::Relaxed);
                ctx.charge(reliability::BREAKER_SKIP_TICKS)?;
                last = Error::NodeDown { node: dst };
                continue;
            }
            match self.write_replicated(ctx, src, block, data, &[dst]).1 {
                None => return Ok(dst),
                Some(e) if e.stops_the_op() => return Err(e),
                Some(e) => last = e,
            }
        }
        Err(last)
    }

    /// Moves raw bytes through the emulated network with accounting — the
    /// path for traffic that is not a block fetch/store against a DataNode
    /// (MapReduce shuffle, trusted relocation transfers).
    pub fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        self.counters.mine().transfer_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.net.transfer(src, dst, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::OpClass;
    use ear_faults::FaultPlan;
    use ear_types::crc::crc32c;

    fn service() -> ClusterIo {
        service_on(ClusterTopology::uniform(2, 2), None)
    }

    /// A service on `topo` with 1 GB/s links, executing `plan` if given.
    fn service_on(topo: ClusterTopology, plan: Option<FaultPlan>) -> ClusterIo {
        let datanodes: Vec<DataNode> = topo.nodes().map(DataNode::new).collect();
        let net = EmulatedNetwork::new(
            &topo,
            ear_types::Bandwidth::bytes_per_sec(1e9),
            ear_types::Bandwidth::bytes_per_sec(1e9),
        );
        let injector =
            plan.map_or_else(FaultInjector::disabled, |p| FaultInjector::new(p, topo.clone()));
        let rel = Arc::new(Reliability::new(false, 0, topo.num_nodes()));
        ClusterIo::new(topo, datanodes, net, injector, rel)
    }

    /// A plan on `topo` with `crashes` nodes down from op 0 and I/O
    /// attempts failing transiently at rate `transient`; nothing else.
    fn plan(seed: u64, topo: &ClusterTopology, crashes: usize, transient: f64) -> FaultPlan {
        let cfg = ear_faults::FaultConfig {
            straggler_delay: ear_faults::DelayModel::Throttle,
            node_crashes: crashes,
            rack_outages: 0,
            stragglers: 0,
            straggler_factor: 1.0,
            transient_error_rate: transient,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 1,
        };
        FaultPlan::generate(seed, topo, &cfg)
    }

    #[test]
    fn fetch_from_out_of_range_source_is_node_down_not_panic() {
        // Pins the stale-location fix: a NodeId past the topology (a corrupt
        // or stale location entry) must surface as a typed error, not an
        // out-of-bounds panic in the data plane.
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let err = io
            .fetch_from(&ctx, NodeId(9999), NodeId(0), BlockId(0), 0)
            .unwrap_err();
        assert!(matches!(err, Error::NodeDown { node } if node == NodeId(9999)));
        // A dead-node discovery costs the timeout penalty on the virtual clock.
        assert_eq!(ctx.elapsed_ticks(), reliability::TIMEOUT_PENALTY_TICKS);
    }

    #[test]
    fn store_at_out_of_range_destination_is_node_down_not_panic() {
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let err = io
            .store_at(&ctx, NodeId(0), NodeId(9999), BlockId(0), Block::from(vec![0u8; 8]), 0)
            .unwrap_err();
        assert!(matches!(err, Error::NodeDown { node } if node == NodeId(9999)));
    }

    #[test]
    fn fallback_read_skips_out_of_range_source_and_serves_from_valid_one() {
        // A stale location entry in the middle of the replica list must not
        // sink the read: fallback treats it like any dead node and moves on.
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let data = Block::from(vec![9u8; 128]);
        io.datanode(NodeId(1)).put(BlockId(3), data.clone()).unwrap();
        let (got, src) = io
            .read_with_fallback(&ctx, NodeId(0), BlockId(3), &[NodeId(9999), NodeId(1)], None, None)
            .unwrap();
        assert_eq!(src, NodeId(1));
        assert_eq!(got.as_slice(), data.as_slice());
    }

    #[test]
    fn fallback_read_serves_from_later_source_and_counts() {
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let data = Block::from(vec![5u8; 256]);
        io.datanode(NodeId(2)).put(BlockId(0), data.clone()).unwrap();
        // NodeId(1) holds nothing: the read falls through to NodeId(2).
        let (got, src) = io
            .read_with_fallback(&ctx, NodeId(0), BlockId(0), &[NodeId(1), NodeId(2)], None, None)
            .unwrap();
        assert_eq!(src, NodeId(2));
        assert_eq!(got.as_slice(), data.as_slice());
        let s = io.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 256);
        assert_eq!(s.failed_reads, 1, "the miss on NodeId(1) is accounted");
        let leg = reliability::chain_ticks(&[NodeId(2), NodeId(0)], 256);
        assert_eq!(
            s.read_ticks, leg,
            "successful-fetch ticks are the deterministic cost model, not wall time"
        );
        // Virtual cost: one fault penalty for the miss, one sized transfer.
        assert_eq!(ctx.elapsed_ticks(), reliability::FAULT_PENALTY_TICKS + leg);
    }

    #[test]
    fn skip_hook_is_ignored_for_the_last_candidate() {
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let data = Block::from(vec![1u8; 64]);
        io.datanode(NodeId(3)).put(BlockId(9), data.clone()).unwrap();
        let skip_all = |_: NodeId| true;
        let (_, src) = io
            .read_with_fallback(
                &ctx,
                NodeId(0),
                BlockId(9),
                &[NodeId(1), NodeId(3)],
                None,
                Some(&skip_all),
            )
            .unwrap();
        assert_eq!(src, NodeId(3), "last candidate must be tried despite skip");
    }

    /// `io` with hedged reads switched on.
    fn hedging(mut io: ClusterIo) -> ClusterIo {
        io.rel = Arc::new(Reliability::new(true, 0, io.topo.num_nodes()));
        io
    }

    #[test]
    fn a_hedge_never_targets_a_node_the_caller_knows_is_dead() {
        // One node crashed from op 0, in the caller's dead set, and one
        // straggling 5 000 ticks on every attempt. The straggler's read
        // crosses the hedging threshold, and the only other source is the
        // crashed node: the read waits for its primary instead of hedging
        // to a node it already knows cannot answer.
        let topo = ClusterTopology::uniform(2, 2);
        let faults = ear_faults::FaultConfig {
            node_crashes: 1,
            rack_outages: 0,
            stragglers: 1,
            straggler_factor: 1.0,
            straggler_delay: ear_faults::DelayModel::Fixed { ticks: 5_000 },
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 1,
        };
        let plan = FaultPlan::generate(1, &topo, &faults);
        let (crashed, straggler) = (plan.crashes()[0].node, plan.stragglers()[0].0);
        let io = hedging(service_on(topo.clone(), Some(plan)));
        let reader = topo.nodes().find(|&n| n != crashed && n != straggler).unwrap();
        let data = Block::from(vec![6u8; 4096]);
        io.datanode(straggler).put(BlockId(2), data.clone()).unwrap();
        let dead = DeadNodeSet::new();
        dead.insert(crashed);
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let (got, src) =
            io.read_nearest(&ctx, reader, BlockId(2), &[crashed, straggler], &dead).unwrap();
        assert_eq!((src, got.as_slice()), (straggler, data.as_slice()));
        let s = io.stats();
        assert_eq!((s.hedges_launched, s.failed_reads), (0, 0), "no hedge to the dead node");
        assert_eq!(
            ctx.elapsed_ticks(),
            5_000 + reliability::chain_ticks(&[straggler, reader], 4096)
        );
    }

    /// A plan on `topo` whose one fault is a straggler delaying every
    /// attempt on it by `ticks`, and that straggler.
    fn straggling(topo: &ClusterTopology, ticks: u64) -> (FaultPlan, NodeId) {
        let faults = ear_faults::FaultConfig {
            node_crashes: 0,
            rack_outages: 0,
            stragglers: 1,
            straggler_factor: 1.0,
            straggler_delay: ear_faults::DelayModel::Fixed { ticks },
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 1,
        };
        let plan = FaultPlan::generate(1, topo, &faults);
        let straggler = plan.stragglers()[0].0;
        (plan, straggler)
    }

    #[test]
    fn a_holder_reading_its_own_block_pays_only_its_straggler_delay() {
        // The bytes never leave the node, so no wire ticks are charged: a
        // straggling holder pays its delay, any other holder nothing. Read
        // by another node, the same block pays one leg on top.
        let topo = ClusterTopology::uniform(2, 2);
        let (plan, straggler) = straggling(&topo, 5_000);
        let io = service_on(topo.clone(), Some(plan));
        let calm = topo.nodes().find(|&n| n != straggler).unwrap();
        let data = Block::from(vec![8u8; 64 << 10]);
        for holder in [straggler, calm] {
            io.datanode(holder).put(BlockId(1), data.clone()).unwrap();
        }
        let rel = io.reliability().clone();
        let read = |src, dst| {
            let ctx = rel.ctx(OpClass::ClientRead).unwrap();
            assert_eq!(io.fetch_from(&ctx, src, dst, BlockId(1), 0).unwrap(), data);
            ctx.elapsed_ticks()
        };
        assert_eq!(read(straggler, straggler), 5_000);
        assert_eq!(read(calm, calm), 0);
        let leg = reliability::chain_ticks(&[calm, straggler], 64 << 10);
        assert_eq!((leg, read(calm, straggler)), (64 + 64, leg));
        let s = io.stats();
        assert_eq!((s.reads, s.read_ticks), (3, 5_000 + leg));
        let moved = io.network().snapshot();
        let wire = moved.cross_rack_bytes + moved.intra_rack_bytes;
        assert_eq!(wire, 64 << 10, "only the last read moved bytes");
    }

    #[test]
    fn a_read_tries_a_source_io_attempts_times_and_backs_off_only_between_tries() {
        let topo = ClusterTopology::uniform(2, 2);
        let io = service_on(topo.clone(), Some(plan(5, &topo, 0, 1.0)));
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let (src, block) = (NodeId(1), BlockId(7));
        io.datanode(src).put(block, Block::from(vec![1u8; 64])).unwrap();
        let err = io.read_with_fallback(&ctx, NodeId(0), block, &[src], None, None).unwrap_err();
        assert_eq!(err, Error::TransientIo { node: src });
        assert_eq!(io.injector().now(), u64::from(IO_ATTEMPTS), "one consultation per attempt");
        let s = io.stats();
        assert_eq!((s.failed_reads, s.read_retries, s.backoff_rounds), (3, 2, 2));
        let backoff = |attempt| rel.backoff_ticks(backoff_key(src, block), attempt);
        assert_eq!(
            ctx.elapsed_ticks(),
            3 * reliability::FAULT_PENALTY_TICKS + backoff(0) + backoff(1)
        );
    }

    #[test]
    fn a_write_tries_a_replica_io_attempts_times_and_backs_off_only_between_tries() {
        let topo = ClusterTopology::uniform(2, 2);
        let io = service_on(topo.clone(), Some(plan(5, &topo, 0, 1.0)));
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let (dst, block) = (NodeId(1), BlockId(7));
        let data = Block::from(vec![1u8; 64]);
        let (stored, err) = io.write_replicated(&ctx, NodeId(0), block, &data, &[dst]);
        assert_eq!((stored, err), (vec![], Some(Error::TransientIo { node: dst })));
        assert_eq!(io.injector().now(), u64::from(IO_ATTEMPTS), "one consultation per attempt");
        let s = io.stats();
        assert_eq!((s.failed_writes, s.write_retries, s.backoff_rounds), (3, 2, 2));
        let backoff = |attempt| rel.backoff_ticks(backoff_key(dst, block), attempt);
        assert_eq!(
            ctx.elapsed_ticks(),
            3 * reliability::FAULT_PENALTY_TICKS + backoff(0) + backoff(1)
        );
    }

    #[test]
    fn write_replicated_pipelines_and_accounts() {
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let data = Block::from(vec![7u8; 128]);
        let layout = [NodeId(0), NodeId(2)];
        let (stored, err) = io.write_replicated(&ctx, NodeId(1), BlockId(4), &data, &layout);
        assert!(err.is_none());
        assert_eq!(stored, layout);
        assert!(io.datanode(NodeId(0)).contains(BlockId(4)));
        assert!(io.datanode(NodeId(2)).contains(BlockId(4)));
        let s = io.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, 256);
    }

    #[test]
    fn a_replicated_write_is_one_chain_charged_one_leg_plus_a_chunk_per_further_replica() {
        // Three replicas on four single-node racks: the block crosses racks
        // once per leg, as a relay would move it, but streamed — so the
        // clock charges one block transfer plus a chunk per further replica.
        let io = service_on(ClusterTopology::uniform(4, 1), None);
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let b = 256 << 10;
        let layout = [NodeId(1), NodeId(2), NodeId(3)];
        let data = Block::from(vec![1u8; b]);
        let (stored, err) = io.write_replicated(&ctx, NodeId(0), BlockId(5), &data, &layout);
        assert_eq!((stored.as_slice(), err), (&layout[..], None));
        let ticks = reliability::chain_ticks(&[&[NodeId(0)][..], &layout].concat(), b as u64);
        let one_leg = |bytes| reliability::chain_ticks(&[NodeId(0), NodeId(1)], bytes);
        assert_eq!(ticks, one_leg(b as u64) + 2 * one_leg(64 << 10));
        assert_eq!(ctx.elapsed_ticks(), ticks, "not the 3 block transfers of a relay");
        let s = io.stats();
        assert_eq!((s.writes, s.bytes_written, s.write_ticks), (3, 3 * b as u64, ticks));
        assert_eq!(io.network().cross_rack_bytes(), 3 * b as u64);
    }

    #[test]
    fn a_client_that_is_its_own_first_replica_pays_one_block_leg_for_the_second() {
        // `[client, r₁ = client, r₂]`: the first leg stays on the node and
        // is free, so the second is the chain's first paid leg, a whole
        // block transfer rather than a chunk.
        let io = service_on(ClusterTopology::uniform(4, 1), None);
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let b = 256 << 10;
        let layout = [NodeId(0), NodeId(1)];
        let data = Block::from(vec![5u8; b]);
        let (stored, err) = io.write_replicated(&ctx, NodeId(0), BlockId(8), &data, &layout);
        assert_eq!((stored.as_slice(), err), (&layout[..], None));
        let leg = reliability::chain_ticks(&layout, b as u64);
        assert_eq!(leg, 64 + 256);
        assert_eq!(ctx.elapsed_ticks(), leg);
        let s = io.stats();
        assert_eq!((s.writes, s.write_ticks), (2, leg));
        assert_eq!(io.network().cross_rack_bytes(), b as u64);
    }

    #[test]
    fn a_replica_down_mid_pipeline_keeps_the_prefix_and_pays_only_its_legs() {
        let topo = ClusterTopology::uniform(4, 1);
        let io = service_on(topo.clone(), Some(plan(7, &topo, 1, 0.0)));
        let down: Vec<NodeId> = topo.nodes().filter(|&n| io.injector().node_down(n)).collect();
        let [dead] = down[..] else { panic!("one node crashed from op 0: {down:?}") };
        let up: Vec<NodeId> = topo.nodes().filter(|&n| n != dead).collect();
        let (client, layout) = (up[0], [up[1], dead, up[2]]);
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let data = Block::from(vec![2u8; 4096]);
        let (stored, err) = io.write_replicated(&ctx, client, BlockId(6), &data, &layout);
        assert_eq!(stored, [layout[0]]);
        assert_eq!(err, Some(Error::NodeDown { node: dead }));
        assert_eq!(io.network().cross_rack_bytes(), 4096, "one leg: client → layout[0]");
        assert!(io.datanode(layout[0]).contains(BlockId(6)));
        assert!(!io.datanode(layout[2]).contains(BlockId(6)));
        assert_eq!(io.injector().now(), 2, "the plan is not asked past the break");
        assert_eq!(
            ctx.elapsed_ticks(),
            reliability::chain_ticks(&[client, layout[0]], 4096)
                + reliability::TIMEOUT_PENALTY_TICKS
        );
    }

    #[test]
    fn a_transient_fault_on_a_later_replica_is_retried_on_its_hop_before_anything_moves() {
        // A twin injector asks the plan what a hop-by-hop pipeline asks, in
        // its order, to find a block whose one fault is layout[1]'s first
        // attempt; the streamed pipeline must ask exactly that.
        let topo = ClusterTopology::uniform(4, 1);
        let faults = plan(3, &topo, 0, 0.5);
        let layout = [NodeId(1), NodeId(2), NodeId(3)];
        let asks = [(layout[0], 0), (layout[1], 0), (layout[1], 1), (layout[2], 0)];
        let verdicts = [None, Some(IoFault::Transient), None, None];
        let twin = FaultInjector::new(faults.clone(), topo.clone());
        let block = (0..)
            .map(BlockId)
            .find(|&b| asks.iter().map(|&(n, a)| twin.on_write(n, b, a)).eq(verdicts))
            .unwrap();
        let io = service_on(topo, Some(faults));
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let b = 256 << 10;
        let data = Block::from(vec![3u8; b]);
        let (stored, err) = io.write_replicated(&ctx, NodeId(0), block, &data, &layout);
        assert_eq!((stored.as_slice(), err), (&layout[..], None));
        assert_eq!(io.injector().now(), asks.len() as u64, "one consultation per attempt");
        let s = io.stats();
        assert_eq!((s.writes, s.failed_writes, s.write_retries, s.backoff_rounds), (3, 1, 1, 1));
        let backoff = rel.backoff_ticks(backoff_key(layout[1], block), 0);
        assert_eq!(
            ctx.elapsed_ticks(),
            reliability::chain_ticks(&[&[NodeId(0)][..], &layout].concat(), b as u64)
                + reliability::FAULT_PENALTY_TICKS
                + backoff
        );
        assert_eq!(io.network().cross_rack_bytes(), 3 * b as u64, "the retry resent nothing");
    }

    #[test]
    fn store_at_is_a_one_leg_pipeline() {
        // One store_at attempt and a one-replica pipeline admit, move and
        // land alike: the same counters, ticks and wire bytes.
        let b = 256 << 10;
        let data = Block::from(vec![4u8; b]);
        let [single, pipeline] = [true, false].map(|single| {
            let io = service();
            let rel = io.reliability().clone();
            let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
            if single {
                io.store_at(&ctx, NodeId(0), NodeId(2), BlockId(1), data.clone(), 0).unwrap();
            } else {
                let out = io.write_replicated(&ctx, NodeId(0), BlockId(1), &data, &[NodeId(2)]);
                assert_eq!(out, (vec![NodeId(2)], None));
            }
            (io.stats(), ctx.elapsed_ticks(), io.network().snapshot())
        });
        assert_eq!(single, pipeline);
        let (s, ticks, moved) = single;
        let leg = reliability::chain_ticks(&[NodeId(0), NodeId(2)], b as u64);
        assert_eq!((s.writes, s.failed_writes), (1, 0));
        assert_eq!((s.bytes_written, s.write_ticks), (b as u64, leg));
        assert_eq!(ticks, leg);
        assert_eq!((moved.cross_rack_bytes, moved.intra_rack_bytes), (b as u64, 0));
    }

    #[test]
    fn write_with_fallback_skips_dead_candidates() {
        let topo = ClusterTopology::uniform(2, 2);
        // A plan whose only fault is one node crashed from op 0.
        let io = service_on(topo.clone(), Some(plan(7, &topo, 1, 0.0)));
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientWrite).unwrap();
        let dead: Vec<NodeId> = topo.nodes().filter(|&n| io.injector().node_down(n)).collect();
        assert_eq!(dead.len(), 1);
        let alive = topo.nodes().find(|&n| !io.injector().node_down(n)).unwrap();
        let data = Block::from(vec![3u8; 32]);
        let dst = io
            .write_with_fallback(&ctx, NodeId(0), BlockId(2), &data, &[dead[0], alive])
            .unwrap();
        assert_eq!(dst, alive);
    }

    #[test]
    fn empty_sources_report_block_unavailable() {
        let io = service();
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let err = io
            .read_with_fallback(&ctx, NodeId(0), BlockId(0), &[], None, None)
            .unwrap_err();
        assert!(matches!(err, Error::BlockUnavailable { .. }));
    }

    /// A service with an explicit cache configuration (independent of the
    /// `EAR_CACHE` environment) and the given injector.
    fn cached_service(cache: ear_types::CacheConfig, injector: FaultInjector) -> ClusterIo {
        let topo = ClusterTopology::uniform(2, 2);
        let datanodes: Vec<DataNode> = topo
            .nodes()
            .map(|n| DataNode::with_backend(n, ear_types::StoreBackend::Memory, cache, 5).unwrap())
            .collect();
        let net = EmulatedNetwork::new(
            &topo,
            ear_types::Bandwidth::bytes_per_sec(1e9),
            ear_types::Bandwidth::bytes_per_sec(1e9),
        );
        ClusterIo::new(topo, datanodes, net, injector, Arc::new(Reliability::new(false, 0, 4)))
    }

    #[test]
    fn cached_fetch_skips_reverification_but_pays_the_wire() {
        let cache = ear_types::CacheConfig::Sized {
            hot_bytes: 1 << 20,
            cold_bytes: 1 << 20,
        };
        let io = cached_service(cache, FaultInjector::disabled());
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let data = Block::from(vec![4u8; 512]);
        io.datanode(NodeId(1)).put(BlockId(8), data.clone()).unwrap();
        for _ in 0..3 {
            let got = io.fetch_from(&ctx, NodeId(1), NodeId(0), BlockId(8), 0).unwrap();
            assert_eq!(got, data);
        }
        let s = io.stats();
        assert_eq!(s.reads, 3);
        // First fetch verifies and admits; the two hits are verified-once.
        assert_eq!(s.crc_skipped, 2);
        assert_eq!(s.crc_bytes_skipped, 2 * 512);
        assert_eq!(s.cache.misses, 1);
        assert_eq!(s.cache.hits(), 2);
        assert_eq!(s.cache.bytes_saved, 2 * 512);
        // The wire cost is identical with or without the cache: every
        // fetch's payload is accounted as read bytes.
        assert_eq!(s.bytes_read, 3 * 512);
    }

    #[test]
    fn corrupt_fault_forces_reverification_even_when_cached() {
        use ear_faults::FaultConfig;
        let topo = ClusterTopology::uniform(2, 2);
        let cfg = FaultConfig {
            straggler_delay: ear_faults::DelayModel::Throttle,
            node_crashes: 0,
            rack_outages: 0,
            stragglers: 0,
            straggler_factor: 1.0,
            transient_error_rate: 0.0,
            corruption_rate: 1.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 1,
        };
        let plan = FaultPlan::generate(13, &topo, &cfg);
        let cache = ear_types::CacheConfig::Sized {
            hot_bytes: 1 << 20,
            cold_bytes: 1 << 20,
        };
        let io = cached_service(cache, FaultInjector::new(plan, topo));
        let data = Block::from(vec![6u8; 256]);
        let dn = io.datanode(NodeId(1));
        dn.put(BlockId(2), data.clone()).unwrap();
        // Force the block into the cache as verified, as a fault-free read
        // would have.
        dn.admit(BlockId(2), &data, crc32c(&data));
        // The injected corruption must override the verified-once fast
        // path: the corrupted copy is re-hashed and rejected.
        let rel = io.reliability().clone();
        let ctx = rel.ctx(OpClass::ClientRead).unwrap();
        let err = io
            .fetch_from(&ctx, NodeId(1), NodeId(0), BlockId(2), 0)
            .unwrap_err();
        assert!(matches!(err, Error::CorruptBlock { block, node }
            if block == BlockId(2) && node == NodeId(1)));
        assert_eq!(io.stats().crc_skipped, 0, "corrupt attempts never skip the hash");
    }
}
