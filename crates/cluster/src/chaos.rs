//! The chaos soak harness: runs one seeded [`FaultPlan`] against a full
//! write → encode → repair → verify cycle and checks the paper's safety
//! argument end to end.
//!
//! Three invariants are asserted for every plan (see [`ChaosReport`]):
//!
//! 1. **No acknowledged block is lost** while failures stay within the
//!    code's tolerance: every acked replicated block with at least one
//!    live, uncorrupted replica reads back bit-identically, and every
//!    acked encoded block whose stripe has at most `n - k` unavailable
//!    shards is reconstructed bit-identically.
//! 2. **EAR stays violation-free**: after encoding under any plan,
//!    [`scan`](crate::scan) reports zero rack-fault-tolerance violations
//!    (RR's violations must be repairable to zero by the BlockMover).
//! 3. **Nothing panics or hangs**: encode jobs, repairs, and recovery
//!    complete or fail with a typed error under every plan.
//!
//! Everything is deterministic in the plan seed, so a failing soak prints
//! one number that reproduces it.

use crate::cluster::{ClusterConfig, ClusterPolicy, MiniCfs};
use crate::healer::{Healer, HealerConfig};
use crate::monitor::{plan_repairs, scan};
use crate::raidnode::RaidNode;
use crate::recovery::recover_node;
use crate::reliability::OpClass;
use ear_faults::{FaultConfig, FaultPlan};
use ear_types::{
    Bandwidth, BlockId, ByteSize, CacheConfig, ClusterTopology, EarConfig, ErasureParams,
    HealStats, NodeId, ReplicationConfig, Result, StoreBackend, StripeId,
};
use std::collections::{BTreeMap, HashSet};

/// Shape of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Placement policy under test.
    pub policy: ClusterPolicy,
    /// Stripes to seal before encoding.
    pub stripes: usize,
    /// Fault mix expanded from each seed.
    pub faults: FaultConfig,
    /// Encode-job parallelism.
    pub map_tasks: usize,
    /// Storage backend the cluster's DataNodes run on.
    pub store: StoreBackend,
    /// Block-cache configuration of the cluster's DataNodes. The soak
    /// reports must be bit-identical whatever this is set to — the cache
    /// only elides redundant CRC work, never changes data-plane outcomes.
    pub cache: CacheConfig,
    /// Whether hedged reads are enabled (DESIGN.md §14). Under a
    /// straggler-free plan the report must be bit-identical either way:
    /// hedges only launch after a straggler delay crosses the threshold.
    pub hedging: bool,
}

impl ChaosConfig {
    /// The default soak shape for `policy`: a light fault mix over a few
    /// stripes — quick enough to run a hundred plans in a test.
    pub fn light(policy: ClusterPolicy) -> Self {
        ChaosConfig {
            policy,
            stripes: 3,
            faults: FaultConfig::light(),
            map_tasks: 4,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            hedging: true,
        }
    }

    /// A hostile mix (crashes, a rack outage, stragglers, lossy I/O).
    pub fn heavy(policy: ClusterPolicy) -> Self {
        ChaosConfig {
            faults: FaultConfig::heavy(),
            ..ChaosConfig::light(policy)
        }
    }

    /// A straggler-dominated mix: no crashes, several nodes with a
    /// heavy-tailed (Pareto) per-attempt delay — the tail-latency scenario
    /// hedged reads exist for. Compare the report's read percentiles with
    /// [`ChaosConfig::hedging`] on and off.
    pub fn straggler_heavy(policy: ClusterPolicy) -> Self {
        ChaosConfig {
            faults: FaultConfig {
                straggler_delay: ear_faults::DelayModel::Pareto {
                    scale_ticks: 400,
                    shape: 1.2,
                    cap_ticks: 200_000,
                },
                node_crashes: 0,
                rack_outages: 0,
                stragglers: 4,
                straggler_factor: 3.0,
                transient_error_rate: 0.01,
                corruption_rate: 0.0,
                heartbeat_loss_rate: 0.0,
                crash_window: 1,
            },
            ..ChaosConfig::light(policy)
        }
    }
}

/// What one chaos run observed. A run *passes* when [`ChaosReport::passed`]
/// — the invariant fields below are all clean.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// The plan seed this report reproduces from.
    pub seed: u64,
    /// Human-readable description of the executed plan.
    pub plan: String,
    /// Blocks whose write was acknowledged.
    pub acked_blocks: usize,
    /// Writes that failed with a typed error (unacknowledged; not a loss).
    pub failed_writes: usize,
    /// Stripes the encode job completed.
    pub encoded_stripes: usize,
    /// Stripes the encode job gave up on and requeued (replicas intact).
    pub requeued_stripes: usize,
    /// Post-encode scan violations after BlockMover repairs (must be 0; for
    /// EAR it must already be 0 *before* repairs — see
    /// [`ChaosReport::pre_repair_violations`]).
    pub violations_after_repair: usize,
    /// Scan violations straight after encoding (always 0 under EAR).
    pub pre_repair_violations: usize,
    /// Encoded stripes verified to decode bit-identically.
    pub stripes_verified: usize,
    /// Encoded stripes with more than `n - k` unavailable shards — outside
    /// the code's tolerance, excluded from the loss invariant.
    pub stripes_beyond_tolerance: usize,
    /// Replicated acked blocks with every replica dead or corrupt — more
    /// simultaneous failures than replication tolerates, excluded from the
    /// loss invariant.
    pub blocks_beyond_tolerance: usize,
    /// Acked blocks that should have been recoverable but were not —
    /// **the loss invariant; must be empty**.
    pub lost_blocks: Vec<BlockId>,
    /// Blocks rebuilt by exercising `recover_node` on a crashed node.
    pub recovered_blocks: usize,
    /// Typed error from the recovery exercise, if it could not complete
    /// (tolerated: recovery may legitimately fail beyond tolerance).
    pub recovery_error: Option<String>,
    /// Acked blocks read back through the real client path in the
    /// tail-latency probe.
    pub read_ops: usize,
    /// Probe reads that failed with a typed error.
    pub read_failures: usize,
    /// Median probe-read latency, virtual-clock ticks.
    pub read_p50_ticks: u64,
    /// 99th-percentile probe-read latency, virtual-clock ticks.
    pub read_p99_ticks: u64,
    /// 99.9th-percentile probe-read latency, virtual-clock ticks.
    pub read_p999_ticks: u64,
    /// Hedged reads launched across the whole run (encode downloads and
    /// probe reads alike).
    pub hedges_launched: u64,
    /// Hedged reads whose hedge leg beat the straggling primary.
    pub hedges_won: u64,
}

impl ChaosReport {
    /// Whether the run upheld the invariants.
    pub fn passed(&self, policy: ClusterPolicy) -> bool {
        self.lost_blocks.is_empty()
            && self.violations_after_repair == 0
            && (policy != ClusterPolicy::Ear || self.pre_repair_violations == 0)
    }
}

/// The cluster shape chaos runs use: 8 racks × 2 nodes, (6,4) RS, 2-way
/// replication, 64 KiB blocks over fast links so a full run takes tens of
/// milliseconds.
fn chaos_cluster(cfg: &ChaosConfig, seed: u64) -> Result<ClusterConfig> {
    let ear = EarConfig::new(
        ErasureParams::new(6, 4)?,
        ReplicationConfig::two_way(),
        1,
    )?;
    Ok(ClusterConfig {
        racks: 8,
        nodes_per_rack: 2,
        block_size: ByteSize::kib(64),
        node_bandwidth: Bandwidth::bytes_per_sec(512e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
        ear,
        policy: cfg.policy,
        seed: seed ^ 0xA11CE,
        store: cfg.store,
        cache: cfg.cache,
        durability: ear_types::DurabilityConfig::default(),
        hedge_reads: cfg.hedging,
    })
}

/// Runs one seeded fault plan through write → encode → repair → verify →
/// recover and reports what happened.
///
/// # Errors
///
/// Returns an error only on harness-level failures (a cluster that cannot
/// boot). Fault-induced failures are *data*, recorded in the report —
/// asserting on them is the caller's job, typically via
/// [`ChaosReport::passed`].
pub fn run_plan(seed: u64, cfg: &ChaosConfig) -> Result<ChaosReport> {
    let cluster_cfg = chaos_cluster(cfg, seed)?;
    let topo = ClusterTopology::uniform(cluster_cfg.racks, cluster_cfg.nodes_per_rack);
    let plan = FaultPlan::generate(seed, &topo, &cfg.faults);
    let mut report = ChaosReport {
        seed,
        plan: plan.to_string(),
        ..ChaosReport::default()
    };
    let cfs = MiniCfs::with_faults(cluster_cfg, plan)?;
    let k = cfs.codec().params().k();
    let nodes = cfs.topology().num_nodes() as u64;

    // Write until enough stripes seal (or a cap, in case the plan makes
    // the cluster too sick to seal more). Remember each acked block's
    // payload tag for bit-exact verification later.
    // BTreeMap: `verify_blocks` walks this map to fill the report's loss
    // lists, so its order must be the key order, not hash order.
    let mut acked: BTreeMap<BlockId, u64> = BTreeMap::new();
    let max_writes = (cfg.stripes * k * 4) as u64;
    let mut tag = 0u64;
    while cfs.namenode().pending_stripe_count() < cfg.stripes && tag < max_writes {
        let client = NodeId((tag % nodes) as u32);
        match cfs.write_block(client, cfs.make_block(tag)) {
            Ok(id) => {
                acked.insert(id, tag);
            }
            Err(_) => report.failed_writes += 1,
        }
        tag += 1;
    }
    report.acked_blocks = acked.len();

    // Encode. Must terminate with a typed account, never panic or hang.
    let (stats, relocations) = RaidNode::encode_all(&cfs, cfg.map_tasks)?;
    report.encoded_stripes = stats.stripes;
    report.requeued_stripes = stats.failed_stripes.len();
    // The BlockMover moves what the encode job queued, then the monitor
    // sweeps until clean (RR needs this; EAR must already be clean).
    // A failed write can leave a stripe with a "phantom" member — location
    // recorded at the planned node but no bytes ever stored there (the
    // write was never acknowledged). The BlockMover cannot move bytes that
    // do not exist, so such stripes are excluded from the placement
    // invariant; their acked members remain covered by the loss invariant.
    let phantom: HashSet<StripeId> = cfs
        .namenode()
        .encoded_stripes()
        .iter()
        .filter(|es| {
            es.data.iter().chain(es.parity.iter()).any(|&b| {
                cfs.namenode()
                    .locations(b)
                    .is_some_and(|locs| locs.iter().any(|&h| !cfs.datanode(h).contains(b)))
            })
        })
        .map(|es| es.id)
        .collect();
    let countable =
        |vs: &[crate::monitor::Violation]| vs.iter().filter(|v| !phantom.contains(&v.stripe)).count();
    let mut relocations = relocations;
    relocations.retain(|&(b, from, _)| cfs.datanode(from).contains(b));
    // Safe to drop: a block that failed to move leaves its stripe violating,
    // and the scan right below counts it.
    let _ = RaidNode::relocate(&cfs, &relocations);
    report.pre_repair_violations = countable(&scan(&cfs));
    for _ in 0..4 {
        let violations: Vec<_> = scan(&cfs)
            .into_iter()
            .filter(|v| !phantom.contains(&v.stripe))
            .collect();
        if violations.is_empty() {
            break;
        }
        let mut repairs = plan_repairs(&cfs, &violations);
        repairs.retain(|&(b, from, _)| cfs.datanode(from).contains(b));
        if repairs.is_empty() || RaidNode::relocate(&cfs, &repairs).is_err() {
            break;
        }
    }
    report.violations_after_repair = countable(&scan(&cfs));

    verify_blocks(&cfs, &acked, k, |_| true, &mut report);

    // Tail-latency probe: read every acked block back through the real
    // client path — breakers, hedging and all — on the virtual
    // clock, and report the percentile profile. Sequential, so the
    // latencies are a pure function of the plan seed.
    if let Some(reader) = cfs.topology().nodes().find(|&n| !cfs.injector().node_down(n)) {
        let mut lat: Vec<u64> = Vec::with_capacity(acked.len());
        for &b in acked.keys() {
            let read = cfs
                .reliability()
                .ctx(OpClass::ClientRead)
                .and_then(|ctx| cfs.read_block_in(&ctx, reader, b).map(|_| ctx.elapsed_ticks()));
            match read {
                Ok(ticks) => lat.push(ticks),
                Err(_) => report.read_failures += 1,
            }
        }
        report.read_ops = lat.len();
        lat.sort_unstable();
        report.read_p50_ticks = percentile(&lat, 500);
        report.read_p99_ticks = percentile(&lat, 990);
        report.read_p999_ticks = percentile(&lat, 999);
    }
    let io = cfs.io().stats();
    report.hedges_launched = io.hedges_launched;
    report.hedges_won = io.hedges_won;

    // Exercise recovery against the plan's first crashed node. It must
    // complete or fail typed — beyond-tolerance failures are tolerated.
    if let Some(crash) = cfs.injector().plan().crashes().first() {
        match recover_node(&cfs, crash.node) {
            Ok(rstats) => report.recovered_blocks = rstats.blocks_recovered,
            Err(e) => report.recovery_error = Some(e.to_string()),
        }
    }
    Ok(report)
}

/// Value at permille `p` of an ascending latency vector (nearest-rank on
/// the scaled index); 0 when the vector is empty.
fn percentile(sorted: &[u64], permille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * permille / 1000;
    sorted.get(idx).copied().unwrap_or(0)
}

/// The bytes of `b` if it is *available*: some recorded holder is alive and
/// its copy reads back clean.
fn clean_copy(cfs: &MiniCfs, b: BlockId) -> Option<Vec<u8>> {
    let inj = cfs.injector();
    let locs = cfs.namenode().locations(b)?;
    locs.iter()
        .find(|&&h| !inj.node_down(h) && !inj.corrupts(h, b))
        .and_then(|&h| cfs.datanode(h).get(b))
        .map(|d| d.to_vec())
}

/// Checks every acked block is still recoverable, filling the report's
/// verification fields. Uses direct state inspection (not the faulty read
/// path) so the check itself is deterministic. A replicated block with no
/// clean copy left is beyond tolerance if `excused` says the faults that hit
/// it were more than replication survives, and lost otherwise.
fn verify_blocks(
    cfs: &MiniCfs,
    acked: &BTreeMap<BlockId, u64>,
    k: usize,
    excused: impl Fn(BlockId) -> bool,
    report: &mut ChaosReport,
) {
    // Replicated (not-yet-encoded) acked blocks: a live clean replica must
    // hold exactly the written bytes.
    for (&b, &tag) in acked {
        if cfs.namenode().stripe_of(b).is_some() {
            continue;
        }
        match clean_copy(cfs, b) {
            Some(bytes) => {
                if bytes != cfs.make_block(tag) {
                    report.lost_blocks.push(b);
                }
            }
            // Every replica dead or corrupt. r-way replication tolerates
            // r - 1 failures; losing all r copies is beyond tolerance, the
            // replicated analogue of > n - k lost shards.
            None if excused(b) => report.blocks_beyond_tolerance += 1,
            None => report.lost_blocks.push(b),
        }
    }

    // Encoded stripes: with at most n - k unavailable shards the stripe
    // must reconstruct every acked data block bit-identically.
    for es in cfs.namenode().encoded_stripes() {
        let shards: Vec<Option<Vec<u8>>> = es.members().map(|b| clean_copy(cfs, b)).collect();
        let available = shards.iter().filter(|s| s.is_some()).count();
        if available < k {
            report.stripes_beyond_tolerance += 1;
            continue;
        }
        let mut work = shards;
        if cfs.codec().reconstruct(&mut work).is_err() {
            // Enough shards but decode failed: every acked member is lost.
            report
                .lost_blocks
                .extend(es.data.iter().filter(|b| acked.contains_key(b)));
            continue;
        }
        let mut clean = true;
        for (i, &b) in es.data.iter().enumerate() {
            let Some(&tag) = acked.get(&b) else { continue };
            match &work[i] {
                Some(bytes) if *bytes == cfs.make_block(tag) => {}
                _ => {
                    report.lost_blocks.push(b);
                    clean = false;
                }
            }
        }
        if clean {
            report.stripes_verified += 1;
        }
    }
    report.lost_blocks.sort_unstable();
    report.lost_blocks.dedup();
}

/// Shape of one heal-soak run: kills land *mid-run* (during the write and
/// encode phases), and the background [`Healer`] — not the one-shot repair
/// loop — is responsible for bringing the cluster back.
#[derive(Debug, Clone)]
pub struct HealSoakConfig {
    /// Stripes to seal before encoding (some written blocks stay
    /// replicated, so re-replication and reconstruction are both exercised).
    pub stripes: usize,
    /// Nodes killed by the plan; clamped to `n - k` so every acknowledged
    /// block stays within the code's tolerance.
    pub kills: usize,
    /// Background noise expanded from each seed (`node_crashes` is
    /// overridden by [`HealSoakConfig::kills`]).
    pub faults: FaultConfig,
    /// Budgets of the healer under test.
    pub healer: HealerConfig,
    /// Storage backend the cluster's DataNodes run on.
    pub store: StoreBackend,
    /// Block-cache configuration of the cluster's DataNodes (the report
    /// must not depend on it — see [`ChaosConfig::cache`]).
    pub cache: CacheConfig,
    /// Encode-job parallelism.
    pub map_tasks: usize,
}

impl Default for HealSoakConfig {
    fn default() -> Self {
        HealSoakConfig {
            stripes: 3,
            kills: 2,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            faults: FaultConfig {
                straggler_delay: ear_faults::DelayModel::Throttle,
                node_crashes: 2,
                rack_outages: 0,
                stragglers: 0,
                straggler_factor: 1.0,
                transient_error_rate: 0.01,
                corruption_rate: 0.01,
                heartbeat_loss_rate: 0.02,
                // Activate kills while the write phase is still running.
                crash_window: 200,
            },
            healer: HealerConfig::default(),
            map_tasks: 4,
        }
    }
}

/// What one heal-soak run observed. Passes when [`HealSoakReport::passed`].
#[derive(Debug, Clone, Default)]
pub struct HealSoakReport {
    /// The plan seed this report reproduces from.
    pub seed: u64,
    /// Human-readable description of the executed plan.
    pub plan: String,
    /// Blocks whose write was acknowledged.
    pub acked_blocks: usize,
    /// Writes that failed with a typed error (unacknowledged; not a loss).
    pub failed_writes: usize,
    /// Stripes the encode job completed.
    pub encoded_stripes: usize,
    /// The healer's accumulated statistics (rounds, MTTR, repair traffic).
    pub heal: HealStats,
    /// Scan violations after the healer converged (must be 0).
    pub violations_after_heal: usize,
    /// Acknowledged blocks still below target redundancy after convergence
    /// (must be 0): a replicated block short of its replica target, or an
    /// encoded stripe member with no live copy.
    pub under_redundant: usize,
    /// Acked blocks that should have been recoverable but were not —
    /// **the loss invariant; must be empty**.
    pub lost_blocks: Vec<BlockId>,
    /// Replicated acked blocks with every copy dead or corrupt (beyond
    /// what replication tolerates; excluded from the loss invariant).
    pub blocks_beyond_tolerance: usize,
    /// Encoded stripes with more than `n - k` shards unavailable.
    pub stripes_beyond_tolerance: usize,
}

impl HealSoakReport {
    /// Whether the healer restored every acknowledged block to target
    /// redundancy, violation-free, without losing data.
    pub fn passed(&self) -> bool {
        self.heal.converged
            && self.lost_blocks.is_empty()
            && self.violations_after_heal == 0
            && self.under_redundant == 0
    }
}

/// The cluster shape heal soaks use: 8 racks × 3 nodes so two kills still
/// leave every rack usable, 3-way replication (HDFS default) so replicated
/// blocks survive two simultaneous failures, (6,4) RS for `n - k = 2`.
fn heal_cluster(cfg: &HealSoakConfig, seed: u64) -> Result<ClusterConfig> {
    let ear = EarConfig::new(
        ErasureParams::new(6, 4)?,
        ReplicationConfig::hdfs_default(),
        1,
    )?;
    Ok(ClusterConfig {
        racks: 8,
        nodes_per_rack: 3,
        block_size: ByteSize::kib(64),
        node_bandwidth: Bandwidth::bytes_per_sec(512e6),
        rack_bandwidth: Bandwidth::bytes_per_sec(512e6),
        ear,
        policy: ClusterPolicy::Ear,
        seed: seed ^ 0x4EA1,
        store: cfg.store,
        cache: cfg.cache,
        durability: ear_types::DurabilityConfig::default(),
        hedge_reads: true,
    })
}

/// Runs one seeded heal soak: write → encode with kills landing mid-run,
/// then hand the degraded cluster to the background [`Healer`] and verify
/// it restores full redundancy within its round budget.
///
/// # Errors
///
/// Returns an error only on harness-level failures (a cluster that cannot
/// boot). A stalled healer is *data*: `heal.converged` stays `false` and
/// [`HealSoakReport::passed`] fails.
pub fn run_heal_plan(seed: u64, cfg: &HealSoakConfig) -> Result<HealSoakReport> {
    let cluster_cfg = heal_cluster(cfg, seed)?;
    let topo = ClusterTopology::uniform(cluster_cfg.racks, cluster_cfg.nodes_per_rack);
    let k = cluster_cfg.ear.erasure().k();
    let n = cluster_cfg.ear.erasure().n();
    let faults = FaultConfig {
        straggler_delay: ear_faults::DelayModel::Throttle,
        node_crashes: cfg.kills.min(n - k),
        ..cfg.faults.clone()
    };
    let plan = FaultPlan::generate(seed, &topo, &faults);
    let mut report = HealSoakReport {
        seed,
        plan: plan.to_string(),
        ..HealSoakReport::default()
    };
    let cfs = MiniCfs::with_faults(cluster_cfg, plan)?;
    let nodes = cfs.topology().num_nodes() as u64;

    // Write until enough stripes seal, plus a handful of extra blocks that
    // stay replicated so the soak exercises re-replication too. BTreeMap:
    // `count_redundancy`/`verify_heal_blocks` walk this map into the report,
    // so its order must be the key order, not hash order. `written` keeps
    // the nodes each acked block's replicas landed on: the faults that hit
    // those copies decide whether losing the block is excused.
    let mut acked: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut written: BTreeMap<BlockId, Vec<NodeId>> = BTreeMap::new();
    let mut write = |t: u64| match cfs.write_block(NodeId((t % nodes) as u32), cfs.make_block(t)) {
        Ok(id) => {
            acked.insert(id, t);
            written.insert(id, cfs.namenode().locations(id).unwrap_or_default());
        }
        Err(_) => report.failed_writes += 1,
    };
    let max_writes = (cfg.stripes * k * 4) as u64;
    let mut tag = 0u64;
    while cfs.namenode().pending_stripe_count() < cfg.stripes && tag < max_writes {
        write(tag);
        tag += 1;
    }
    (tag..tag + 3).for_each(&mut write);
    report.acked_blocks = acked.len();

    let (stats, relocations) = RaidNode::encode_all(&cfs, cfg.map_tasks)?;
    report.encoded_stripes = stats.stripes;
    let mut relocations = relocations;
    relocations.retain(|&(b, from, _)| cfs.datanode(from).contains(b));
    // Safe to drop: a block that failed to move leaves its stripe violating,
    // and the scan after the healer counts it in `violations_after_heal`.
    let _ = RaidNode::relocate(&cfs, &relocations);

    // The healer is now on its own: detect the kills via heartbeats, drain
    // the degraded queues, scrub, converge.
    let mut healer = Healer::with_config(&cfs, cfg.healer.clone());
    report.heal = match healer.run_to_convergence() {
        Ok(stats) => stats,
        // Stalled: keep the partial stats (converged stays false).
        Err(_) => healer.stats().clone(),
    };

    report.violations_after_heal = scan(&cfs).len();
    count_redundancy(&cfs, &acked, &mut report);
    verify_heal_blocks(&cfs, &acked, &written, k, &mut report);
    Ok(report)
}

/// Counts acked blocks still short of target redundancy, judged by the
/// injector's ground truth (not the detector's view): replicated blocks
/// must have their full replica count on live nodes, stripe members at
/// least one live copy. A replicated block with no clean copy left has
/// nothing to re-replicate from — whether that is a loss is
/// [`verify_heal_blocks`]'s call, not a redundancy shortfall.
fn count_redundancy(cfs: &MiniCfs, acked: &BTreeMap<BlockId, u64>, report: &mut HealSoakReport) {
    let inj = cfs.injector();
    let want = cfs.config().ear.replication().replicas();
    let live_copies = |b: BlockId| {
        cfs.namenode()
            .locations(b)
            .map_or(0, |locs| {
                locs.iter()
                    .filter(|&&h| !inj.node_down(h) && cfs.datanode(h).contains(b))
                    .count()
            })
    };
    for es in cfs.namenode().encoded_stripes() {
        report.under_redundant += es.members().filter(|&b| live_copies(b) == 0).count();
    }
    for &b in acked.keys() {
        let replicated = cfs.namenode().stripe_of(b).is_none();
        if replicated && live_copies(b) < want && clean_copy(cfs, b).is_some() {
            report.under_redundant += 1;
        }
    }
}

/// The loss invariant for heal soaks: same direct-inspection check as
/// [`verify_blocks`], against the healed cluster state. A replicated block
/// with no clean copy left is beyond tolerance only if every node in
/// `written` for it — where its replicas landed — was killed or corrupts its
/// copy: as many faults as replicas. With fewer, a clean copy outlived the
/// plan and losing it is the healer's doing.
fn verify_heal_blocks(
    cfs: &MiniCfs,
    acked: &BTreeMap<BlockId, u64>,
    written: &BTreeMap<BlockId, Vec<NodeId>>,
    k: usize,
    report: &mut HealSoakReport,
) {
    let inj = cfs.injector();
    let excused = |b: BlockId| {
        let faulted = |&h: &NodeId| inj.node_down(h) || inj.corrupts(h, b);
        written.get(&b).is_some_and(|copies| copies.iter().all(faulted))
    };
    let mut scratch = ChaosReport::default();
    verify_blocks(cfs, acked, k, excused, &mut scratch);
    report.lost_blocks = scratch.lost_blocks;
    report.blocks_beyond_tolerance = scratch.blocks_beyond_tolerance;
    report.stripes_beyond_tolerance = scratch.stripes_beyond_tolerance;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_is_trivially_clean() {
        // corruption/transient rates of zero and no crashes: everything
        // must verify.
        let cfg = ChaosConfig {
            faults: FaultConfig {
                straggler_delay: ear_faults::DelayModel::Throttle,
                node_crashes: 0,
                rack_outages: 0,
                stragglers: 0,
                transient_error_rate: 0.0,
                corruption_rate: 0.0,
                ..FaultConfig::default()
            },
            ..ChaosConfig::light(ClusterPolicy::Ear)
        };
        let r = run_plan(7, &cfg).unwrap();
        assert!(r.passed(ClusterPolicy::Ear), "{r:?}");
        assert_eq!(r.failed_writes, 0);
        assert_eq!(r.stripes_beyond_tolerance, 0);
        assert!(r.stripes_verified >= 3);
    }

    #[test]
    fn verification_report_is_identical_across_shuffled_insertion_orders() {
        // Pins the HashMap→BTreeMap sweep: assembling the acked-block map in
        // any insertion order must yield a bit-identical verification
        // report. Some entries carry deliberately wrong tags so the
        // order-sensitive fields (lost_blocks) are actually exercised.
        let cfs =
            MiniCfs::new(chaos_cluster(&ChaosConfig::light(ClusterPolicy::Rr), 1).unwrap())
                .unwrap();
        let mut entries: Vec<(BlockId, u64)> = Vec::new();
        for tag in 0..12u64 {
            let id = cfs.write_block(NodeId(0), cfs.make_block(tag)).unwrap();
            // Every third block claims the wrong content tag, so
            // verification reports it lost.
            let claimed = if tag % 3 == 0 { tag + 100 } else { tag };
            entries.push((id, claimed));
        }

        let sorted: BTreeMap<BlockId, u64> = entries.iter().copied().collect();
        // A deterministic shuffle (reversed, then interleaved) of the same
        // entries.
        let mut shuffled_order = entries.clone();
        shuffled_order.reverse();
        shuffled_order.rotate_left(5);
        let shuffled: BTreeMap<BlockId, u64> = shuffled_order.into_iter().collect();

        let k = cfs.codec().params().k() as usize;
        let mut report_a = ChaosReport::default();
        verify_blocks(&cfs, &sorted, k, |_| true, &mut report_a);
        let mut report_b = ChaosReport::default();
        verify_blocks(&cfs, &shuffled, k, |_| true, &mut report_b);
        assert!(!report_a.lost_blocks.is_empty(), "wrong tags must surface");
        assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));

        let mut heal_a = HealSoakReport::default();
        count_redundancy(&cfs, &sorted, &mut heal_a);
        verify_heal_blocks(&cfs, &sorted, &BTreeMap::new(), k, &mut heal_a);
        let mut heal_b = HealSoakReport::default();
        count_redundancy(&cfs, &shuffled, &mut heal_b);
        verify_heal_blocks(&cfs, &shuffled, &BTreeMap::new(), k, &mut heal_b);
        assert_eq!(format!("{heal_a:?}"), format!("{heal_b:?}"));
    }

    #[test]
    fn report_is_deterministic_in_the_seed() {
        let cfg = ChaosConfig::heavy(ClusterPolicy::Ear);
        let a = run_plan(42, &cfg).unwrap();
        let b = run_plan(42, &cfg).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.acked_blocks, b.acked_blocks);
        assert_eq!(a.lost_blocks, b.lost_blocks);
    }

    #[test]
    fn heal_soak_restores_redundancy_after_mid_run_kills() {
        let cfg = HealSoakConfig::default();
        let r = run_heal_plan(11, &cfg).unwrap();
        assert!(r.passed(), "{r:?}");
        assert!(r.acked_blocks > 0);
        assert!(r.heal.converged);
        assert!(r.heal.rounds <= cfg.healer.max_rounds);
    }

    #[test]
    fn a_block_with_every_written_copy_faulted_is_beyond_tolerance_not_under_redundant() {
        // Heal seed 60's shape: a block acked on three nodes, two of them
        // killed and the third copy corrupt — as many faults as replicas,
        // so there was never a clean copy to heal from.
        let cfg = HealSoakConfig::default();
        let faults = FaultConfig {
            corruption_rate: 0.3,
            transient_error_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 1,
            ..cfg.faults.clone()
        };
        let cluster = heal_cluster(&cfg, 60).unwrap();
        let topo = ClusterTopology::uniform(cluster.racks, cluster.nodes_per_rack);
        let cfs = MiniCfs::with_faults(cluster, FaultPlan::generate(60, &topo, &faults)).unwrap();
        let inj = cfs.injector();
        let killed: Vec<NodeId> = inj.plan().crashes().iter().map(|c| c.node).collect();
        assert!(killed.len() == 2 && killed.iter().all(|&n| inj.node_down(n)), "{killed:?}");
        let k = cfs.codec().params().k();
        let judge = |block: BlockId, third: NodeId| {
            let acked = BTreeMap::from([(block, 0)]);
            let written = BTreeMap::from([(block, vec![killed[0], killed[1], third])]);
            let mut report = HealSoakReport::default();
            report.heal.converged = true;
            count_redundancy(&cfs, &acked, &mut report);
            verify_heal_blocks(&cfs, &acked, &written, k, &mut report);
            report
        };

        let block = cfs.namenode().register_block(killed.clone()).unwrap();
        let rotten = topo
            .nodes()
            .find(|&n| !inj.node_down(n) && inj.corrupts(n, block))
            .unwrap();
        cfs.datanode(rotten).put(block, cfs.make_block(0).into()).unwrap();
        cfs.namenode().add_location(block, rotten).unwrap();
        let r = judge(block, rotten);
        assert_eq!((r.under_redundant, r.blocks_beyond_tolerance), (0, 1), "{r:?}");
        assert!(r.passed(), "{r:?}");

        // Had the third copy been clean it would have outlived the plan:
        // a block left without it is the healer's loss, not the plan's.
        let block = cfs.namenode().register_block(killed.clone()).unwrap();
        let clean = topo
            .nodes()
            .find(|&n| !inj.node_down(n) && !inj.corrupts(n, block))
            .unwrap();
        let r = judge(block, clean);
        assert_eq!((r.under_redundant, r.blocks_beyond_tolerance), (0, 0), "{r:?}");
        assert_eq!(r.lost_blocks, [block]);
        assert!(!r.passed(), "{r:?}");
    }

    #[test]
    fn fault_free_heal_soak_records_no_repairs() {
        let cfg = HealSoakConfig {
            kills: 0,
            faults: FaultConfig {
                straggler_delay: ear_faults::DelayModel::Throttle,
                node_crashes: 0,
                rack_outages: 0,
                stragglers: 0,
                straggler_factor: 1.0,
                transient_error_rate: 0.0,
                corruption_rate: 0.0,
                heartbeat_loss_rate: 0.0,
                crash_window: 1,
            },
            ..HealSoakConfig::default()
        };
        let r = run_heal_plan(5, &cfg).unwrap();
        assert!(r.passed(), "{r:?}");
        assert_eq!(r.failed_writes, 0);
        assert_eq!(r.heal.scrub_hits, 0);
        assert!(r.heal.mttr_rounds.is_none(), "nothing ever degraded");
    }
}
