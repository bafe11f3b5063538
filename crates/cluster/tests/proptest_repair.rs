//! Property-based tests of the PlacementMonitor/BlockMover repair loop:
//! for any hostable topology, policy, and write order, iterating
//! `scan → plan_repairs → relocate` converges to zero rack-fault-tolerance
//! violations — and EAR needs zero iterations (Section II-B vs Section III).

// clippy.toml excuses unwrap/expect inside `#[test]` functions only; the
// helpers here are test code too.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ear_cluster::{
    plan_repairs, recover_node, run_plan, scan, ChaosConfig, ClusterConfig, ClusterPolicy, MiniCfs,
    RaidNode,
};
use ear_core::{ChainPlan, Rebuild, RepairPlanner, StripeSpread, Survivor};
use ear_faults::{FaultConfig, FaultPlan};
use ear_types::prop::{check, range};
use ear_types::rng::ChaCha8;
use ear_types::{
    Bandwidth, BlockId, ByteSize, ClusterTopology, EarConfig, ErasureParams, NodeId, RackId,
    ReplicationConfig,
};
use std::collections::BTreeMap;

/// A cluster + workload EAR can host with c = 1.
#[derive(Debug, Clone)]
struct Scenario {
    policy: ClusterPolicy,
    n: usize,
    k: usize,
    racks: usize,
    nodes_per_rack: usize,
    stripes: usize,
    seed: u64,
}

fn scenario(rng: &mut ChaCha8) -> Scenario {
    let policy = [ClusterPolicy::Ear, ClusterPolicy::Rr][rng.below(2) as usize];
    let (n, k) = [(6, 4), (5, 4), (6, 5)][rng.below(3) as usize];
    Scenario {
        policy,
        n,
        k,
        // One to three racks beyond the c = 1 minimum of n.
        racks: n + range(rng, 1..=3) as usize,
        nodes_per_rack: range(rng, 2..=3) as usize,
        stripes: range(rng, 2..=4) as usize,
        seed: rng.next_u64(),
    }
}

fn config(s: &Scenario, c: usize) -> ClusterConfig {
    let ear = EarConfig::new(
        ErasureParams::new(s.n, s.k).expect("valid by construction"),
        ReplicationConfig::two_way(),
        c,
    )
    .expect("valid");
    ClusterConfig {
        racks: s.racks,
        nodes_per_rack: s.nodes_per_rack,
        block_size: ByteSize::kib(16),
        node_bandwidth: Bandwidth::bytes_per_sec(1e9),
        rack_bandwidth: Bandwidth::bytes_per_sec(1e9),
        ear,
        policy: s.policy,
        seed: s.seed,
        store: ear_types::StoreBackend::from_env(),
        cache: ear_types::CacheConfig::from_env(),
        durability: Default::default(),
        hedge_reads: true,
    }
}

fn build(s: &Scenario) -> MiniCfs {
    MiniCfs::new(config(s, 1)).expect("hostable by construction")
}

#[test]
fn repair_loop_converges_to_zero_violations() {
    check("repair_loop_converges_to_zero_violations", 32, |rng| {
        let s = scenario(rng);
        let cfs = build(&s);
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < s.stripes {
            let data = cfs.make_block(i);
            cfs.write_block(NodeId((i % nodes) as u32), data)
                .expect("write");
            i += 1;
            assert!(i < (s.stripes * s.k * 20) as u64, "failed to seal stripes");
        }
        let (stats, relocations) = RaidNode::encode_all(&cfs, 4).expect("encode");
        assert!(
            stats.failed_stripes.is_empty(),
            "fault-free encode lost stripes"
        );
        RaidNode::relocate(&cfs, &relocations).expect("relocate");

        // EAR's layout is valid by construction: zero sweeps needed.
        if s.policy == ClusterPolicy::Ear {
            assert_eq!(scan(&cfs).len(), 0, "EAR produced violations");
        }

        // The repair loop must converge, and each sweep must make progress.
        let mut last = usize::MAX;
        for _sweep in 0..8 {
            let violations = scan(&cfs);
            if violations.is_empty() {
                return;
            }
            assert!(
                violations.len() < last,
                "repair sweep made no progress: {} violations remain",
                violations.len()
            );
            last = violations.len();
            let repairs = plan_repairs(&cfs, &violations);
            assert!(!repairs.is_empty(), "violations but no repairs planned");
            RaidNode::relocate(&cfs, &repairs).expect("repair relocation");
        }
        assert_eq!(
            scan(&cfs).len(),
            0,
            "repair loop did not converge in 8 sweeps"
        );
    });
}

#[test]
fn chaos_invariants_hold_for_arbitrary_seeds() {
    check("chaos_invariants_hold_for_arbitrary_seeds", 32, |rng| {
        // The soak test walks fixed seed ranges; this samples the whole
        // seed space with the light fault mix.
        let seed = rng.next_u64();
        let policy = [ClusterPolicy::Ear, ClusterPolicy::Rr][rng.below(2) as usize];
        let report = run_plan(seed, &ChaosConfig::light(policy)).expect("harness");
        assert!(report.passed(policy), "seed {seed}: {report:?}");
    });
}

/// The one traffic law of a rack fold (DESIGN.md §15): computing `rows`
/// linear combinations of `sources` at a node in `at_rack` moves
/// `Σ min(sᵣ, rows)` blocks across racks, `sᵣ` being the sources whose home
/// — the best of their holders: `at_rack` first, then the lowest rack — is
/// remote rack `r`. `rows = m` is an encode, `rows = 1` a rebuild, and
/// `rows = usize::MAX` what reading every source whole would move.
fn folded_traffic(
    topo: &ClusterTopology,
    at_rack: RackId,
    sources: &[Vec<NodeId>],
    rows: usize,
) -> usize {
    let mut per_rack: BTreeMap<RackId, usize> = BTreeMap::new();
    for holders in sources {
        let home = holders
            .iter()
            .map(|&h| topo.rack_of(h))
            .min_by_key(|&r| (r != at_rack, r))
            .expect("source has a holder");
        if home != at_rack {
            *per_rack.entry(home).or_insert(0) += 1;
        }
    }
    per_rack.values().map(|&s| s.min(rows)).sum()
}

/// What repairing one lost stripe member costs across racks. The recovery
/// rack and the chosen `k` come from the planner `recover_node` consults,
/// fed the same rebuilds in the same order (block order) under the same
/// view: survivors at their first live holder, the spread of every member's
/// first location once the victim's are retired, and any live node trusted.
/// Returns `(folded, shipped, whole, densest)`: the [`folded_traffic`] of the
/// chosen `k` at one row — one partial or lone shard per remote rack — and
/// whether the rebuilt block then crosses racks to its sink; what reading
/// every chosen shard whole would cost; and what the densest-rack rule
/// (recover in the rack with the most survivors, ties to the lowest rack id,
/// sources from there and then densest remote racks first, ship the block
/// out unless a node there may keep it) would cost in all. `None` with fewer
/// than `k` reachable survivors.
fn planned_repair_traffic(
    cfs: &MiniCfs,
    planner: &mut RepairPlanner<'_>,
    (members, lost): (&[BlockId], BlockId),
    victim: NodeId,
    live: &dyn Fn(NodeId) -> bool,
) -> Option<(usize, usize, usize, usize)> {
    let topo = cfs.topology();
    let k = cfs.codec().params().k();
    let mut survivors: Vec<Survivor> = Vec::new();
    let mut placed: Vec<NodeId> = Vec::new();
    let mut stripe = None;
    for (index, &block) in members.iter().enumerate() {
        let locations = cfs.namenode().locations(block).expect("member located");
        let kept: Vec<NodeId> = locations.into_iter().filter(|&h| h != victim).collect();
        placed.extend(kept.first());
        if block == lost {
            stripe = cfs.namenode().stripe_of(block).map(|es| es.id);
        } else if let Some(&holder) = kept.iter().find(|&&h| live(h)) {
            survivors.push(Survivor { index, block, holder });
        }
    }
    let rebuild = Rebuild { stripe: stripe.expect("a stripe member"), survivors, placed };
    let site = planner.site(&rebuild, live, |_| false).expect("a node may keep the block");
    if rebuild.survivors.len() < k {
        return None;
    }
    let chosen: Vec<Vec<NodeId>> = site.sources[..k].iter().map(|s| vec![s.holder]).collect();
    let at_rack = topo.rack_of(site.at);
    let shipped = usize::from(topo.rack_of(site.sink) != at_rack);

    let mut per_rack: BTreeMap<RackId, usize> = BTreeMap::new();
    for s in &rebuild.survivors {
        *per_rack.entry(topo.rack_of(s.holder)).or_insert(0) += 1;
    }
    let (&home, _) = per_rack
        .iter()
        .max_by_key(|&(&r, &count)| (count, std::cmp::Reverse(r)))?;
    let mut densest = rebuild.survivors.clone();
    densest.sort_by_key(|s| {
        let r = topo.rack_of(s.holder);
        (r != home, std::cmp::Reverse(per_rack[&r]), r, s.index)
    });
    let densest: Vec<Vec<NodeId>> = densest[..k].iter().map(|s| vec![s.holder]).collect();
    let spread = StripeSpread::of(topo, cfs.config().ear.c(), rebuild.placed.iter().copied());
    let keeps = topo.nodes_in_rack(home).iter().any(|&nd| spread.admits(nd) && live(nd));
    Some((
        folded_traffic(topo, at_rack, &chosen, 1),
        shipped,
        folded_traffic(topo, at_rack, &chosen, usize::MAX),
        folded_traffic(topo, home, &densest, 1) + usize::from(!keeps),
    ))
}

/// DESIGN.md §15: for any policy, code shape, rack-fault tolerance `c`,
/// topology, and write order, the fold chain seals parity bit-identical
/// to the one-shot `ReedSolomon::encode` over the written blocks and moves
/// exactly `Σ min(sᵣ, m)` block-sized transfers across racks towards the
/// encoding node — `sᵣ` being the sources whose preferred replica (encoding
/// rack first, then lowest rack) sits in remote rack `r` before encoding
/// ([`folded_traffic`] at `rows = m`). Abandoned passes stay counted, so
/// the equality also says no pass was abandoned on a fault-free cluster.
/// Reading every source whole would move `Σ sᵣ`. And a
/// stripe's parity is not only its fold's output but its input: rebuilding
/// each parity member as a one-row fold returns the bytes the encode stored.
#[test]
fn chain_encode_matches_codec_reference_at_the_folded_traffic_count() {
    check("chain_encode_matches_codec_reference", 24, |rng| {
        let s = scenario(rng);
        let c = range(rng, 1..=2) as usize;
        let cfs = MiniCfs::new(config(&s, c)).expect("boot");
        let nodes = cfs.topology().num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < s.stripes {
            cfs.write_block(NodeId((i % nodes) as u32), cfs.make_block(i))
                .expect("write failed");
            i += 1;
            assert!(i < (s.stripes * s.k * 40) as u64, "failed to seal stripes");
        }

        let topo = cfs.topology();
        let m = s.n - s.k;
        let mut folded = 0usize;
        for stripe in cfs.namenode().pending_stripes() {
            let enc = cfs
                .namenode()
                .plan_encoding(&stripe)
                .expect("plan")
                .encoding_node;
            let sources: Vec<Vec<NodeId>> = stripe
                .blocks
                .iter()
                .map(|&b| cfs.namenode().locations(b).expect("written block located"))
                .collect();
            folded += folded_traffic(topo, topo.rack_of(enc), &sources, m);
        }

        // One map task: stripes encode in a fixed order, so the counter is
        // comparable to the sum above.
        let (stats, _) = RaidNode::encode_all(&cfs, 1).expect("encode failed");
        assert!(stats.failed_stripes.is_empty());
        assert_eq!(stats.cross_rack_downloads, folded);

        for es in cfs.namenode().encoded_stripes() {
            let data: Vec<Vec<u8>> = es.data.iter().map(|b| cfs.make_block(b.0)).collect();
            let expected = cfs.codec().encode(&data).expect("reference encode");
            for (&p, want) in es.parity.iter().zip(&expected) {
                let loc = cfs.namenode().locations(p).expect("parity located");
                let got = cfs.datanode(loc[0]).get(p).expect("parity stored");
                assert_eq!(got.as_slice(), want.as_slice(), "parity bytes diverged");
                // Lose the parity block's holder: the repair (folding on)
                // rebuilds it elsewhere from `k` other members.
                recover_node(&cfs, loc[0]).expect("fault-free recovery");
                let moved = cfs.namenode().locations(p).expect("parity located");
                assert_ne!(moved, loc, "parity was not rebuilt");
                let rebuilt = cfs.datanode(moved[0]).get(p).expect("rebuilt parity stored");
                assert_eq!(rebuilt.as_slice(), want.as_slice(), "rebuilt parity diverged");
            }
        }
    });
}

/// DESIGN.md §15 repair: with a node crash plus a whole-rack outage
/// injected from the first operation, recovering the crashed node
/// rebuilds every reachable block byte-for-byte equal to what was
/// written, and pays exactly one cross-rack transfer per remote rack
/// among each rebuild's chosen sources (see
/// [`planned_repair_traffic`]) — never more than the one per remote
/// source that reading every shard whole would cost — and, uploads
/// included, never more than the densest-rack rule would.
#[test]
fn repair_rebuilds_written_bytes_at_one_transfer_per_remote_rack() {
    check("repair_rebuilds_written_bytes", 24, |rng| {
        let seed = rng.next_u64();
        let faults = FaultConfig {
            straggler_delay: ear_faults::DelayModel::Throttle,
            node_crashes: 1,
            rack_outages: 1,
            stragglers: 0,
            straggler_factor: 1.0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            // Crash and outage both active before the first operation.
            crash_window: 1,
        };
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).expect("valid"),
            ReplicationConfig::two_way(),
            2,
        )
        .expect("valid")
        .with_target_racks(3)
        .expect("3 racks host (6,4) at c = 2");
        let cfg = ClusterConfig {
            racks: 8,
            nodes_per_rack: 4,
            block_size: ByteSize::kib(16),
            node_bandwidth: Bandwidth::bytes_per_sec(1e9),
            rack_bandwidth: Bandwidth::bytes_per_sec(1e9),
            ear,
            policy: ClusterPolicy::Ear,
            seed: 11,
            store: ear_types::StoreBackend::from_env(),
            cache: ear_types::CacheConfig::from_env(),
            durability: Default::default(),
            hedge_reads: true,
        };
        let topo = ClusterTopology::uniform(cfg.racks, cfg.nodes_per_rack);
        let plan = FaultPlan::generate(seed, &topo, &faults);
        let cfs = MiniCfs::with_faults(cfg, plan).expect("hostable by construction");
        let nodes = topo.num_nodes() as u64;
        let mut i = 0u64;
        while cfs.namenode().pending_stripe_count() < 2 && i < 600 {
            // Writes that touch the dead node or rack fail typed; the ids
            // they consumed keep `make_block(id)` the written contents.
            let _ = cfs.write_block(NodeId((i % nodes) as u32), cfs.make_block(i));
            i += 1;
        }
        let _ = RaidNode::encode_all(&cfs, 1).expect("encode failed");

        let up = |nd: NodeId| !cfs.injector().node_down(nd);
        let encoded = cfs.namenode().encoded_stripes();
        // Recover the crashed node (it holds only what failed writes left
        // listed there), then a healthy holder of an encoded block — whose
        // stripe may already be short of the dark rack's members.
        let healthy_holder = encoded
            .first()
            .and_then(|es| cfs.namenode().locations(es.data[0]))
            .and_then(|locs| locs.into_iter().find(|&h| up(h)));
        let crashed = cfs.injector().plan().crashes()[0].node;
        for victim in std::iter::once(crashed).chain(healthy_holder) {
            let live = |nd: NodeId| nd != victim && up(nd);

            // What the victim holds, from metadata: replicated blocks (other
            // copies listed) are re-copied, stripe members are rebuilt.
            let mut replicated: Vec<(BlockId, Vec<NodeId>)> = Vec::new();
            let (mut fold_cross, mut upload_cross) = (0usize, 0usize);
            let (mut whole_cross, mut densest_cross) = (0usize, 0usize);
            let mut beyond_tolerance = false;
            let k = cfs.codec().params().k();
            let mut planner = RepairPlanner::new(cfs.topology(), cfs.config().ear.c(), k);
            for b in (0..cfs.namenode().block_count()).map(BlockId) {
                let locs = cfs.namenode().locations(b).expect("allocated block");
                if !locs.contains(&victim) {
                    continue;
                }
                let survivors: Vec<NodeId> = locs.into_iter().filter(|&h| h != victim).collect();
                if !survivors.is_empty() {
                    beyond_tolerance |= !survivors.iter().any(|&h| up(h));
                    replicated.push((b, survivors));
                    continue;
                }
                let es = encoded
                    .iter()
                    .find(|es| es.data.contains(&b) || es.parity.contains(&b))
                    .expect("single-copy block belongs to a stripe");
                let members: Vec<BlockId> =
                    es.data.iter().chain(es.parity.iter()).copied().collect();
                match planned_repair_traffic(&cfs, &mut planner, (&members, b), victim, &live) {
                    Some((racks, shipped, sources, densest)) => {
                        fold_cross += racks;
                        upload_cross += shipped;
                        whole_cross += sources;
                        densest_cross += densest;
                    }
                    None => beyond_tolerance = true,
                }
            }
            assert!(fold_cross <= whole_cross);
            assert!(fold_cross + upload_cross <= densest_cross);

            match recover_node(&cfs, victim) {
                Ok(stats) => {
                    assert!(!beyond_tolerance, "recovered past the code's tolerance");
                    // A re-copied block crosses racks iff its new home is in a
                    // different rack than the first reachable survivor.
                    let copy_cross = replicated
                        .iter()
                        .filter(|(b, survivors)| {
                            let src = survivors.iter().copied().find(|&h| up(h));
                            let dst = cfs
                                .namenode()
                                .locations(*b)
                                .and_then(|l| l.into_iter().find(|h| !survivors.contains(h)));
                            src.map(|h| topo.rack_of(h)) != dst.map(|h| topo.rack_of(h))
                        })
                        .count();
                    assert_eq!(stats.cross_rack_downloads, fold_cross + copy_cross);
                    assert_eq!(stats.cross_rack_uploads, upload_cross);
                    for es in &encoded {
                        for &blk in &es.data {
                            let locs = cfs.namenode().locations(blk).expect("located");
                            let Some(&holder) = locs.first().filter(|&&h| up(h)) else {
                                continue;
                            };
                            let got = cfs.datanode(holder).get(blk).expect("stored copy");
                            let want = cfs.make_block(blk.0);
                            assert_eq!(got.as_slice(), want.as_slice());
                        }
                    }
                }
                // Beyond-tolerance loss must surface typed, never as a panic.
                Err(e) => assert!(beyond_tolerance, "within tolerance yet failed: {e}"),
            }
        }
    });
}

/// DESIGN.md §15, the re-plan rule: RR stripes on a few large racks, so
/// remote racks are often home to `≥ m` sources, and one node that the
/// first pass of some stripe folds at crashes between the writes and the
/// encode. Every stripe whose encoding node is up and whose sources all
/// keep a live replica encodes, with parity equal to the codec's. The
/// stripe folding at the crashed node reaches its parity through an
/// abandoned pass: its chain stops there, the node joins the stripe's dead
/// set and the fold is planned again. What that pass paid stays counted,
/// so in a real share of cases `cross_rack_downloads` exceeds the
/// [`folded_traffic`] the live placement would cost.
#[test]
fn encode_replans_around_a_crashed_aggregator() {
    let (mut exercised, mut replanned) = (0, 0);
    check("encode_replans_around_a_crashed_aggregator", 64, |rng| {
        let s = Scenario {
            policy: ClusterPolicy::Rr,
            n: 6,
            k: 4,
            racks: range(rng, 3..=4) as usize,
            nodes_per_rack: range(rng, 3..=4) as usize,
            stripes: range(rng, 2..=4) as usize,
            seed: rng.next_u64(),
        };
        let m = s.n - s.k;
        // Placement follows the cluster seed, so a fault-free twin written
        // the same way shows every stripe's first plan before the faulty
        // cluster boots.
        let write = |cfs: &MiniCfs, blocks: std::ops::Range<u64>| {
            let nodes = cfs.topology().num_nodes() as u64;
            for i in blocks {
                cfs.write_block(NodeId((i % nodes) as u32), cfs.make_block(i)).expect("write");
            }
        };
        let twin = MiniCfs::new(config(&s, 2)).expect("3 racks host (6,4) at c = 2");
        let mut blocks = 0;
        while twin.namenode().pending_stripe_count() < s.stripes {
            write(&twin, blocks..blocks + 1);
            blocks += 1;
        }
        let topo = twin.topology().clone();
        let pending = twin.namenode().pending_stripes();
        let located = |b: BlockId| twin.namenode().locations(b).expect("written block located");
        let plans: Vec<(NodeId, Vec<Vec<NodeId>>)> = pending
            .iter()
            .map(|stripe| {
                let enc = twin.namenode().plan_encoding(stripe).expect("plan").encoding_node;
                (enc, stripe.blocks.iter().map(|&b| located(b)).collect())
            })
            .collect();
        let victim = pending.iter().zip(&plans).find_map(|(stripe, (enc, holders))| {
            let listed = stripe.blocks.iter().zip(holders).map(|(&b, h)| (b, h.as_slice()));
            let plan = ChainPlan::of(&topo, *enc, *enc, m, listed, |_| false, |_| false).ok()?;
            plan.hops.first().map(|hop| hop.aggregator)
        });
        let Some(victim) = victim.filter(|v| plans.iter().all(|(enc, _)| enc != v)) else {
            return;
        };
        exercised += 1;

        // Crash the victim after the writes (two admissions a block).
        let faults = FaultConfig {
            straggler_delay: ear_faults::DelayModel::Throttle,
            node_crashes: 1,
            rack_outages: 0,
            stragglers: 0,
            straggler_factor: 1.0,
            transient_error_rate: 0.0,
            corruption_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            crash_window: 16 * blocks,
        };
        let crash = (0u64..)
            .map(|seed| FaultPlan::generate(seed, &topo, &faults))
            .find(|p| p.crashes()[0].node == victim && p.crashes()[0].at_op >= 4 * blocks)
            .expect("some seed crashes the victim late");
        let at_op = crash.crashes()[0].at_op;
        let cfs = MiniCfs::with_faults(config(&s, 2), crash).expect("boot");
        write(&cfs, 0..blocks);
        assert_eq!(cfs.namenode().pending_stripes(), pending, "placement follows the seed");
        assert!(!cfs.injector().node_down(victim), "the victim died during the writes");
        cfs.injector().advance(at_op - cfs.injector().now());
        assert!(cfs.injector().node_down(victim));

        let folded: usize = plans
            .iter()
            .map(|(enc, holders)| folded_traffic(&topo, topo.rack_of(*enc), holders, m))
            .sum();
        let (stats, _) = RaidNode::encode_all(&cfs, 1).expect("encode");
        let encoded = cfs.namenode().encoded_stripes();
        for (stripe, (_, holders)) in pending.iter().zip(&plans) {
            if holders.iter().all(|h| h.iter().any(|&n| n != victim)) {
                assert!(encoded.iter().any(|es| es.id == stripe.id), "{}: {stats:?}", stripe.id);
            }
        }
        for es in &encoded {
            let data: Vec<Vec<u8>> = es.data.iter().map(|b| cfs.make_block(b.0)).collect();
            let expected = cfs.codec().encode(&data).expect("reference encode");
            for (&p, want) in es.parity.iter().zip(&expected) {
                let loc = cfs.namenode().locations(p).expect("parity located")[0];
                let got = cfs.datanode(loc).get(p).expect("parity stored");
                assert_eq!(got.as_slice(), want.as_slice(), "parity of {} diverged", es.id);
            }
        }
        replanned += usize::from(stats.cross_rack_downloads > folded);
    });
    assert!(exercised >= 16, "only {exercised} of 64 cases had an aggregator to crash");
    assert!(2 * replanned >= exercised, "only {replanned} of {exercised} cases showed a re-plan");
}
