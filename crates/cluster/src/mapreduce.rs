//! A miniature MapReduce engine over the mini-CFS, for Experiment A.3:
//! replaying SWIM-like workloads to show that EAR's placement does not hurt
//! pre-encoding MapReduce performance.

use crate::cluster::MiniCfs;
use crate::exec;
use crate::reliability::OpClass;
use crate::sync::{locked, wait_until};
use crate::workloads::MapReduceJob;
use ear_types::rng::ChaCha8;
use ear_types::{BlockId, Error, NodeId, Result};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Outcome of one replayed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job id.
    pub id: usize,
    /// When the job started, seconds from replay start.
    pub start: f64,
    /// When the job finished, seconds from replay start.
    pub finish: f64,
}

/// Counting semaphore limiting concurrent tasks per node (the paper
/// configures 4 map slots per TaskTracker).
#[derive(Debug)]
struct Slots {
    available: Mutex<usize>,
    cv: Condvar,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            available: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a slot frees up, then takes it until the guard drops.
    /// A poisoned slot counter (a task panicked while holding it) surfaces
    /// as a typed error instead of cascading the panic through every
    /// waiting task.
    fn acquire(&self) -> Result<SlotGuard<'_>> {
        let guard = locked(&self.available, "task slots")?;
        let mut a = wait_until(&self.cv, guard, "task slots", |&n| n > 0)?;
        *a -= 1;
        Ok(SlotGuard(self))
    }
}

/// A held task slot, given back on drop — on every way out of a task body,
/// the `?` of a failed read or write included, so a failing task never
/// parks the tasks queued behind it on the same node.
struct SlotGuard<'a>(&'a Slots);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        // A poisoned counter has no waiter left to serve: `acquire` fails
        // typed on it.
        if let Ok(mut a) = self.0.available.lock() {
            *a += 1;
        }
        self.0.cv.notify_one();
    }
}

/// Runs `run` over `tasks` on [`exec::drain`], one worker per task: tasks
/// wait on arrival times and per-node [`Slots`], so a narrower drain would
/// queue them behind each other and change what Fig. A.3 times. Returns the
/// first error in task order; a task that panicked is an invariant
/// violation named after `what`.
fn run_all<T: Sync, R: Send>(
    cfs: &MiniCfs,
    tasks: &[T],
    what: &str,
    run: impl Fn(&T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let died = || Err(Error::Invariant(format!("{what} panicked")));
    let done = exec::drain(cfs.injector(), tasks, tasks.len(), run);
    done.into_iter().map(|slot| slot.unwrap_or_else(died)).collect()
}

/// Writes every job's input blocks into the CFS (the pre-replay setup of
/// Experiment A.3) and returns the block lists per job.
///
/// # Errors
///
/// Propagates write failures.
pub fn prepare_inputs(cfs: &MiniCfs, jobs: &[MapReduceJob]) -> Result<Vec<Vec<BlockId>>> {
    let nodes = cfs.topology().num_nodes() as u32;
    let mut out = Vec::with_capacity(jobs.len());
    let mut tag = 0u64;
    for job in jobs {
        let blocks = job.input_blocks(cfs.config().block_size);
        let mut ids = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let data = cfs.make_block(tag);
            let client = NodeId((tag % nodes as u64) as u32);
            ids.push(cfs.write_block(client, data)?);
            tag += 1;
        }
        out.push(ids);
    }
    Ok(out)
}

/// Replays `jobs` against the CFS with `slots_per_node` concurrent tasks per
/// node, honouring (time-scaled) arrival times. Returns per-job results in
/// completion order.
///
/// `time_scale` compresses the workload's arrival timeline (e.g. 0.01 turns
/// a 500-second trace into 5 seconds) so replays fit in a test budget.
///
/// # Errors
///
/// Propagates read/write failures from task bodies.
#[expect(
    clippy::disallowed_methods,
    reason = "arrivals are replayed and jobs timed in wall time for the job report only; \
              scheduling order is the deterministic slot queue's"
)]
pub fn run_jobs(
    cfs: &MiniCfs,
    jobs: &[MapReduceJob],
    inputs: &[Vec<BlockId>],
    slots_per_node: usize,
    time_scale: f64,
) -> Result<Vec<JobResult>> {
    assert_eq!(jobs.len(), inputs.len(), "one input list per job");
    let slots: Vec<Slots> = (0..cfs.topology().num_nodes())
        .map(|_| Slots::new(slots_per_node.max(1)))
        .collect();
    let start = Instant::now();
    let tasks: Vec<_> = jobs.iter().zip(inputs).collect();
    let mut results = run_all(cfs, &tasks, "job thread", |&(job, input)| {
        // Honour the (scaled) arrival time.
        let arrival = job.arrival * time_scale;
        let since = start.elapsed().as_secs_f64();
        if arrival > since {
            std::thread::sleep(std::time::Duration::from_secs_f64(arrival - since));
        }
        let job_start = start.elapsed().as_secs_f64();
        run_one_job(cfs, job, input, &slots)?;
        Ok(JobResult {
            id: job.id,
            start: job_start,
            finish: start.elapsed().as_secs_f64(),
        })
    })?;
    results.sort_by(|a, b| a.finish.total_cmp(&b.finish));
    Ok(results)
}

/// Executes one job: map tasks read input blocks (nearest replica), the
/// shuffle moves bytes map-node → reduce-node, reducers write output blocks.
fn run_one_job(
    cfs: &MiniCfs,
    job: &MapReduceJob,
    input: &[BlockId],
    slots: &[Slots],
) -> Result<()> {
    // Seeded per (cluster seed, job) so two clusters differing only in seed
    // schedule different (but individually reproducible) reducers and maps.
    let mut rng =
        ChaCha8::from_seed(cfs.config().seed ^ (job.id as u64).wrapping_mul(0x9E37) ^ 0xA53);
    let all_nodes: Vec<NodeId> = cfs.topology().nodes().collect();
    // Reducers: one per input block, capped at 4, chosen at random.
    let reducers: Vec<NodeId> = {
        let n = input.len().clamp(1, 4);
        rng.sample(&all_nodes, n)
    };
    let shuffle_per_pair = if job.shuffle_bytes == 0 || input.is_empty() {
        0
    } else {
        job.shuffle_bytes / (input.len() as u64 * reducers.len() as u64)
    };

    // Map phase: schedule each map task on a replica holder (data-local, as
    // the JobTracker prefers), bounded by that node's slots.
    let place = |&block: &BlockId| -> Result<(BlockId, NodeId)> {
        let locations = cfs
            .namenode()
            .locations(block)
            .ok_or_else(|| Error::Invariant(format!("unknown {block}")))?;
        let map_node = *rng
            .choose(&locations)
            .ok_or(Error::BlockUnavailable { block })?;
        Ok((block, map_node))
    };
    let maps: Vec<(BlockId, NodeId)> = input.iter().map(place).collect::<Result<_>>()?;
    run_all(cfs, &maps, "map task", |&(block, map_node)| {
        let _slot = slots[map_node.index()].acquire()?;
        // Data-local read: the map node holds a replica. Runs as a
        // client-read op, so map tasks are admitted at the highest
        // priority and hedge against stragglers like any client.
        let ctx = cfs.reliability().ctx(OpClass::ClientRead)?;
        let _data = cfs.read_block_in(&ctx, map_node, block)?;
        // Shuffle: stream this map's partitions to every reducer
        // through the accounted I/O path.
        for &r in &reducers {
            if shuffle_per_pair > 0 {
                cfs.io().transfer(map_node, r, shuffle_per_pair);
            }
        }
        Ok(())
    })?;

    // Reduce/output phase: write output blocks through the normal write
    // path (this is where placement policy matters again).
    let outputs: Vec<usize> = (0..job.output_blocks(cfs.config().block_size)).collect();
    run_all(cfs, &outputs, "reduce task", |&i| {
        let node = reducers[i % reducers.len()];
        let _slot = slots[node.index()].acquire()?;
        let data = cfs.make_block((job.id as u64) << 32 | i as u64);
        cfs.write_block(node, data)
    })
    .map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterPolicy};
    use crate::workloads::SwimGenerator;
    use ear_types::{
        Bandwidth, ByteSize, CacheConfig, EarConfig, ErasureParams, ReplicationConfig,
        StoreBackend,
    };

    fn boot(policy: ClusterPolicy) -> MiniCfs {
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        let cfg = ClusterConfig {
            racks: 6,
            nodes_per_rack: 2,
            block_size: ByteSize::kib(64),
            node_bandwidth: Bandwidth::bytes_per_sec(128e6),
            rack_bandwidth: Bandwidth::bytes_per_sec(128e6),
            ear,
            policy,
            seed: 7,
            store: StoreBackend::from_env(),
            cache: CacheConfig::from_env(),
            durability: Default::default(),
            reliability: Default::default(),
        };
        MiniCfs::new(cfg).unwrap()
    }

    fn tiny_jobs(count: usize) -> Vec<MapReduceJob> {
        let mut gen = SwimGenerator::miniature();
        gen.max_bytes = 256 * 1024;
        gen.arrival_rate = 100.0;
        let mut rng = ChaCha8::from_seed(11);
        gen.generate(count, &mut rng)
    }

    #[test]
    fn jobs_complete_and_report_times() {
        let cfs = boot(ClusterPolicy::Ear);
        let jobs = tiny_jobs(6);
        let inputs = prepare_inputs(&cfs, &jobs).unwrap();
        let results = run_jobs(&cfs, &jobs, &inputs, 4, 0.01).unwrap();
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.finish >= r.start);
        }
        // Completion order is sorted.
        for w in results.windows(2) {
            assert!(w[0].finish <= w[1].finish);
        }
    }

    #[test]
    fn both_policies_complete_the_same_workload() {
        let jobs = tiny_jobs(5);
        for policy in [ClusterPolicy::Rr, ClusterPolicy::Ear] {
            let cfs = boot(policy);
            let inputs = prepare_inputs(&cfs, &jobs).unwrap();
            let results = run_jobs(&cfs, &jobs, &inputs, 4, 0.01).unwrap();
            assert_eq!(results.len(), 5, "{policy:?}");
        }
    }

    #[test]
    fn a_failed_map_task_gives_its_slot_back() {
        // One slot on the map node, the first input block unreadable
        // wherever it is listed, the others fine: the failed read must not
        // keep the slot, or every map queued behind it waits forever.
        let cfs = boot(ClusterPolicy::Rr);
        let job = MapReduceJob {
            id: 0,
            arrival: 0.0,
            input_bytes: 4 * 64 * 1024,
            shuffle_bytes: 0,
            output_bytes: 0,
        };
        let inputs = prepare_inputs(&cfs, std::slice::from_ref(&job)).unwrap();
        let map_node = NodeId(3);
        for (i, &block) in inputs[0].iter().enumerate() {
            for holder in cfs.namenode().locations(block).unwrap() {
                cfs.datanode(holder).delete(block);
            }
            if i > 0 {
                let data = ear_types::Block::from(cfs.make_block(i as u64));
                cfs.datanode(map_node).put(block, data).unwrap();
            }
            cfs.namenode().set_locations(block, vec![map_node]).unwrap();
        }
        let err = run_jobs(&cfs, &[job], &inputs, 1, 1.0).unwrap_err();
        match err {
            Error::BlockUnavailable { block } => assert_eq!(block, inputs[0][0]),
            other => panic!("expected BlockUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn prepare_inputs_writes_all_blocks() {
        let cfs = boot(ClusterPolicy::Rr);
        let jobs = tiny_jobs(4);
        let inputs = prepare_inputs(&cfs, &jobs).unwrap();
        let expected: usize = jobs
            .iter()
            .map(|j| j.input_blocks(cfs.config().block_size))
            .sum();
        assert_eq!(inputs.iter().map(Vec::len).sum::<usize>(), expected);
        assert_eq!(cfs.namenode().block_count() as usize, expected);
    }
}
