//! The CFS discrete-event simulator (Fig. 11 of the paper): a
//! PlacementManager (the placement policies of `ear-core`), a Topology (the
//! link model of `ear-des`), and a TrafficManager generating write,
//! encoding, and background traffic streams.

use crate::config::{PolicyKind, SimConfig};
use crate::net::NetTopology;
use crate::report::SimReport;
use ear_core::{
    EncodePlan, EncodingAwareReplication, PlacementPolicy, RandomReplicationPolicy, StripePlan,
};
use ear_des::{exponential, EventQueue, FifoEngine, PoissonProcess, SimTime, TransferId};
use ear_types::rng::ChaCha8;
use ear_types::{ByteSize, ClusterTopology, Error, NodeId, Result};
use std::collections::{HashMap, VecDeque};

/// Scheduled (non-transfer) events.
#[derive(Debug, Clone, Copy)]
enum Event {
    WriteArrival,
    BackgroundArrival,
    EncodeStart,
}

/// Why a transfer was in flight.
#[derive(Debug, Clone, Copy)]
enum TransferCtx {
    WriteHop { req: u64 },
    Background,
    EncodeDownload { proc: usize },
    EncodeUpload { proc: usize },
    EncodeRelocate { proc: usize },
}

#[derive(Debug)]
struct WriteReq {
    arrival: f64,
    /// Remaining pipeline hops `(src, dst)`, front first.
    hops: VecDeque<(NodeId, NodeId)>,
}

#[derive(Debug)]
enum ProcState {
    Idle,
    Downloading { stripe: usize, left: usize },
    Uploading { stripe: usize, left: usize },
    Relocating { stripe: usize, left: usize },
}

/// Runs one simulation to completion and returns its measurements.
///
/// # Errors
///
/// Returns configuration/placement errors (e.g. a topology too small for the
/// erasure parameters) before any simulation work happens.
///
/// ```
/// use ear_sim::{run, PolicyKind, SimConfig};
/// use ear_types::ErasureParams;
///
/// let mut cfg = SimConfig::testbed(PolicyKind::Ear, ErasureParams::new(6, 4).unwrap());
/// cfg.stripes_per_process = 1; // tiny run for the doctest
/// cfg.encode_processes = 2;
/// let report = run(&cfg)?;
/// assert_eq!(report.encode_completions.len(), 2);
/// assert_eq!(report.cross_rack_downloads, 0); // the EAR guarantee
/// # Ok::<(), ear_types::Error>(())
/// ```
pub fn run(config: &SimConfig) -> Result<SimReport> {
    Simulator::new(config)?.run()
}

struct Simulator<'a> {
    config: &'a SimConfig,
    topo: ClusterTopology,
    net: NetTopology,
    engine: FifoEngine,
    queue: EventQueue<Event>,
    rng: ChaCha8,
    policy: Box<dyn PlacementPolicy>,

    stripes: Vec<StripePlan>,
    proc_queues: Vec<VecDeque<usize>>,
    procs: Vec<ProcState>,
    stripes_done: usize,

    transfers: HashMap<TransferId, TransferCtx>,
    pending_plans: HashMap<usize, EncodePlan>,
    writes: HashMap<u64, WriteReq>,
    next_write_id: u64,
    writes_generated: usize,
    write_process: Option<PoissonProcess>,
    background_process: Option<PoissonProcess>,

    report: SimReport,
    all_encoded: bool,
}

impl<'a> Simulator<'a> {
    fn new(config: &'a SimConfig) -> Result<Self> {
        let topo = ClusterTopology::uniform(config.racks, config.nodes_per_rack);
        let ear_cfg = config.ear_config()?;
        let mut rng = ChaCha8::from_seed(config.seed);

        let mut policy: Box<dyn PlacementPolicy> = match config.policy {
            PolicyKind::Rr => Box::new(RandomReplicationPolicy::new(ear_cfg, topo.clone())?),
            PolicyKind::Ear => Box::new(EncodingAwareReplication::new(ear_cfg, topo.clone())),
        };

        // Pre-place the stripes that the encoding processes will transform;
        // their writes happened before the simulated window.
        let total = config.total_stripes();
        let mut stripes = Vec::with_capacity(total);
        let mut guard = 0usize;
        while stripes.len() < total {
            let placed = policy.place_block(&mut rng)?;
            if let Some(plan) = placed.sealed_stripe {
                stripes.push(plan);
            }
            guard += 1;
            if guard > total * config.erasure.k() * 4 + 1000 {
                return Err(Error::Invariant(
                    "pre-placement failed to seal enough stripes".into(),
                ));
            }
        }

        let mut engine = FifoEngine::new();
        let net = NetTopology::build(
            &mut engine,
            &topo,
            config.node_bandwidth,
            config.rack_bandwidth,
        );

        // Assign stripes to encoding processes. Stripes sharing a core rack
        // go to the same process (the paper's Section IV-B scheduling: one
        // map task encodes stripes with a common core rack, serializing them
        // instead of contending on the rack's links); RR stripes have no
        // core rack and round-robin.
        let procs = config.encode_processes.max(1);
        let mut proc_queues = vec![VecDeque::new(); procs];
        let mut rack_proc: HashMap<usize, usize> = HashMap::new();
        let mut next_proc = 0usize;
        for (i, s) in stripes.iter().enumerate() {
            let p = match s.core_rack() {
                Some(rack) => *rack_proc.entry(rack.index()).or_insert_with(|| {
                    let p = next_proc % procs;
                    next_proc += 1;
                    p
                }),
                None => {
                    let p = next_proc % procs;
                    next_proc += 1;
                    p
                }
            };
            proc_queues[p].push_back(i);
        }

        let report = SimReport {
            policy: config.policy.name(),
            write_responses: Vec::new(),
            write_completions: Vec::new(),
            encode_completions: Vec::new(),
            encode_start: config.encode_start,
            encode_end: config.encode_start,
            encoded_bytes: 0,
            write_bytes_each: config.block_size.as_u64(),
            cross_rack_downloads: 0,
            stripes_with_relocation: 0,
            sim_end: 0.0,
        };

        Ok(Simulator {
            config,
            topo,
            net,
            engine,
            queue: EventQueue::new(),
            rng,
            policy,
            stripes,
            proc_queues,
            procs: (0..procs).map(|_| ProcState::Idle).collect(),
            stripes_done: 0,
            transfers: HashMap::new(),
            pending_plans: HashMap::new(),
            writes: HashMap::new(),
            next_write_id: 0,
            writes_generated: 0,
            write_process: (config.write_rate > 0.0)
                .then(|| PoissonProcess::new(config.write_rate)),
            background_process: (config.background_rate > 0.0)
                .then(|| PoissonProcess::new(config.background_rate)),
            report,
            all_encoded: false,
        })
    }

    fn run(mut self) -> Result<SimReport> {
        if self.config.total_stripes() > 0 {
            self.queue.schedule(
                SimTime::from_secs(self.config.encode_start),
                Event::EncodeStart,
            );
        } else {
            self.all_encoded = true;
        }
        if self.write_process.is_some() {
            self.queue.schedule(SimTime::ZERO, Event::WriteArrival);
        }
        if self.background_process.is_some() {
            self.queue.schedule(SimTime::ZERO, Event::BackgroundArrival);
        }

        let mut last = SimTime::ZERO;
        loop {
            let tq = self.queue.peek_time();
            let tn = self.engine.next_completion().map(|(t, _)| t);
            let next = match (tq, tn) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            last = next;
            // Completions first at ties: frees links before new arrivals.
            if tn.is_some_and(|t| t <= next) {
                let id = self.engine.pop_completion(next);
                self.on_transfer_done(next, id)?;
            } else {
                let (t, event) = self.queue.pop().expect("peeked");
                debug_assert_eq!(t, next);
                self.on_event(t, event)?;
            }
        }
        self.report.sim_end = last.as_secs();
        Ok(self.report)
    }

    fn on_event(&mut self, now: SimTime, event: Event) -> Result<()> {
        match event {
            Event::WriteArrival => self.on_write_arrival(now),
            Event::BackgroundArrival => {
                self.on_background_arrival(now);
                Ok(())
            }
            Event::EncodeStart => {
                self.report.encode_start = now.as_secs();
                for p in 0..self.procs.len() {
                    self.start_next_stripe(now, p)?;
                }
                Ok(())
            }
        }
    }

    fn should_generate_writes(&self) -> bool {
        if self.config.total_stripes() > 0 {
            // Writes accompany the whole encoding experiment.
            !self.all_encoded
        } else {
            self.writes_generated < self.config.standalone_writes
        }
    }

    fn on_write_arrival(&mut self, now: SimTime) -> Result<()> {
        if !self.should_generate_writes() {
            return Ok(());
        }
        self.writes_generated += 1;
        let placed = self.policy.place_block(&mut self.rng)?;
        // Replication pipeline: a random client node streams the block to
        // the first replica, which forwards to the second, and so on.
        let all: Vec<NodeId> = self.topo.nodes().collect();
        let client = *self.rng.choose(&all).expect("nodes exist");
        let mut hops = VecDeque::new();
        let mut src = client;
        for &dst in &placed.layout.replicas {
            hops.push_back((src, dst));
            src = dst;
        }
        let id = self.next_write_id;
        self.next_write_id += 1;
        let mut req = WriteReq {
            arrival: now.as_secs(),
            hops,
        };
        let (s, d) = req.hops.pop_front().expect("at least one replica");
        let path = self.net.path(&self.topo, s, d);
        let tid = self.engine.submit(now, &path, self.config.block_size);
        self.transfers
            .insert(tid, TransferCtx::WriteHop { req: id });
        self.writes.insert(id, req);

        if let Some(p) = self.write_process {
            let gap = p.next_gap(&mut self.rng);
            self.queue.schedule(now + gap, Event::WriteArrival);
        }
        Ok(())
    }

    fn on_background_arrival(&mut self, now: SimTime) {
        // Background traffic accompanies the run while work remains.
        if self.all_encoded && !self.should_generate_writes() {
            return;
        }
        let all: Vec<NodeId> = self.topo.nodes().collect();
        let src = *self.rng.choose(&all).expect("nodes exist");
        let cross = self.rng.unit_f64() < self.config.background_cross_fraction;
        let src_rack = self.topo.rack_of(src);
        let candidates: Vec<NodeId> = self
            .topo
            .nodes()
            .filter(|&n| n != src && (self.topo.rack_of(n) == src_rack) != cross)
            .collect();
        let dst = self.rng.choose(&candidates).copied().unwrap_or(src);
        let size = ByteSize::bytes(
            exponential(&mut self.rng, self.config.background_mean_size.as_f64()).round() as u64,
        );
        let path = self.net.path(&self.topo, src, dst);
        let tid = self.engine.submit(now, &path, size);
        self.transfers.insert(tid, TransferCtx::Background);

        if let Some(p) = self.background_process {
            let gap = p.next_gap(&mut self.rng);
            self.queue.schedule(now + gap, Event::BackgroundArrival);
        }
    }

    fn start_next_stripe(&mut self, now: SimTime, proc: usize) -> Result<()> {
        let Some(stripe_idx) = self.proc_queues[proc].pop_front() else {
            self.procs[proc] = ProcState::Idle;
            return Ok(());
        };
        let stripe = &self.stripes[stripe_idx];
        // Plans draw from a per-stripe RNG derived from (seed, stripe) rather
        // than the shared stream, so a stripe's plan does not depend on how
        // encode, write, and relocation events happen to interleave. Two runs
        // that differ only in `simulate_relocation` therefore produce
        // identical plans, and the relocation transfers are the sole
        // difference between them.
        let mut stripe_rng = ChaCha8::from_seed(
            self.config
                .seed
                .rotate_left(17)
                .wrapping_add((stripe_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let plan = self.policy.plan_encoding(stripe, &mut stripe_rng)?;
        self.report.cross_rack_downloads += plan.cross_rack_downloads();
        if plan.violated_rack_fault_tolerance() {
            self.report.stripes_with_relocation += 1;
        }
        let enc = plan.encoding_node;
        let enc_rack = self.topo.rack_of(enc);

        // Download one replica of each data block, preferring an intra-rack
        // source (HDFS reads the nearest replica).
        let k = stripe.num_blocks();
        for layout in stripe.data_layouts() {
            let source = layout
                .replicas
                .iter()
                .copied()
                .find(|&n| self.topo.rack_of(n) == enc_rack)
                .unwrap_or_else(|| {
                    *stripe_rng
                        .choose(&layout.replicas)
                        .expect("non-empty layout")
                });
            let path = self.net.path(&self.topo, source, enc);
            let tid = self.engine.submit(now, &path, self.config.block_size);
            self.transfers
                .insert(tid, TransferCtx::EncodeDownload { proc });
        }
        self.procs[proc] = ProcState::Downloading {
            stripe: stripe_idx,
            left: k,
        };
        // Remember the plan; the upload phase needs the parity destinations.
        self.pending_plans.insert(stripe_idx, plan);
        Ok(())
    }

    fn on_transfer_done(&mut self, now: SimTime, id: TransferId) -> Result<()> {
        let ctx = self
            .transfers
            .remove(&id)
            .expect("unknown transfer completed");
        match ctx {
            TransferCtx::Background => Ok(()),
            TransferCtx::WriteHop { req } => {
                let done = {
                    let r = self.writes.get_mut(&req).expect("write in flight");
                    if let Some((s, d)) = r.hops.pop_front() {
                        let path = self.net.path(&self.topo, s, d);
                        let tid = self.engine.submit(now, &path, self.config.block_size);
                        self.transfers.insert(tid, TransferCtx::WriteHop { req });
                        false
                    } else {
                        true
                    }
                };
                if done {
                    let r = self.writes.remove(&req).expect("write in flight");
                    self.report
                        .write_responses
                        .push((r.arrival, now.as_secs() - r.arrival));
                    self.report.write_completions.push(now.as_secs());
                }
                Ok(())
            }
            TransferCtx::EncodeDownload { proc } => {
                let ProcState::Downloading { stripe, left } = self.procs[proc] else {
                    return Err(Error::Invariant(
                        "download completed while not downloading".into(),
                    ));
                };
                if left > 1 {
                    self.procs[proc] = ProcState::Downloading {
                        stripe,
                        left: left - 1,
                    };
                    return Ok(());
                }
                // All blocks downloaded: upload parity.
                let plan = self
                    .pending_plans
                    .get(&stripe)
                    .expect("plan stored")
                    .clone();
                let m = plan.parity_nodes.len();
                for &parity in &plan.parity_nodes {
                    let path = self.net.path(&self.topo, plan.encoding_node, parity);
                    let tid = self.engine.submit(now, &path, self.config.block_size);
                    self.transfers
                        .insert(tid, TransferCtx::EncodeUpload { proc });
                }
                self.procs[proc] = ProcState::Uploading { stripe, left: m };
                Ok(())
            }
            TransferCtx::EncodeUpload { proc } => {
                let ProcState::Uploading { stripe, left } = self.procs[proc] else {
                    return Err(Error::Invariant(
                        "upload completed while not uploading".into(),
                    ));
                };
                if left > 1 {
                    self.procs[proc] = ProcState::Uploading {
                        stripe,
                        left: left - 1,
                    };
                    return Ok(());
                }
                // Redundant replicas are deleted (no traffic). If the stripe
                // violates rack fault tolerance and relocation is simulated,
                // the BlockMover's transfers happen before the stripe
                // counts as done; the paper skips this step, over-estimating
                // RR (Experiment B.2).
                let plan = self.pending_plans.get(&stripe).expect("plan stored");
                let relocations = plan.relocations.clone();
                if self.config.simulate_relocation && !relocations.is_empty() {
                    let m = relocations.len();
                    for &(_, from, to) in &relocations {
                        let path = self.net.path(&self.topo, from, to);
                        let tid = self.engine.submit(now, &path, self.config.block_size);
                        self.transfers
                            .insert(tid, TransferCtx::EncodeRelocate { proc });
                    }
                    self.procs[proc] = ProcState::Relocating { stripe, left: m };
                    return Ok(());
                }
                self.finish_stripe(now, stripe);
                self.start_next_stripe(now, proc)
            }
            TransferCtx::EncodeRelocate { proc } => {
                let ProcState::Relocating { stripe, left } = self.procs[proc] else {
                    return Err(Error::Invariant(
                        "relocation completed while not relocating".into(),
                    ));
                };
                if left > 1 {
                    self.procs[proc] = ProcState::Relocating {
                        stripe,
                        left: left - 1,
                    };
                    return Ok(());
                }
                self.finish_stripe(now, stripe);
                self.start_next_stripe(now, proc)
            }
        }
    }

    /// Records a stripe as fully encoded (and relocated, if simulated).
    fn finish_stripe(&mut self, now: SimTime, stripe: usize) {
        self.pending_plans.remove(&stripe);
        self.report.encode_completions.push(now.as_secs());
        self.report.encoded_bytes +=
            self.stripes[stripe].num_blocks() as u64 * self.config.block_size.as_u64();
        self.stripes_done += 1;
        if self.stripes_done == self.config.total_stripes() {
            self.all_encoded = true;
            self.report.encode_end = now.as_secs();
        }
    }
}
