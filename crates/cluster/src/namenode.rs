//! The NameNode: cluster metadata, the placement policy, and the
//! pre-encoding store (Section IV-B of the paper).
//!
//! Metadata is lock-striped (DESIGN.md §9): block→location records live in
//! [`SHARDS`] reader–writer shards keyed by a block-id hash, so location
//! lookups and single-block updates from concurrent readers, healers, and
//! encode jobs never contend on one global lock. Stripe bookkeeping (the
//! pre-encoding store) is a separate mutex, and block ids come from an
//! atomic counter. Every snapshot the NameNode exports is sorted by id, so
//! downstream consumers see the same order regardless of which shard or
//! thread produced an entry.

use crate::sync::{Mutex, RwLock};
use crate::wal::{BlockRec, EncodedEntry, MetaRecord, MetaSnapshot, MetaWal, PlanRecord, StripeEntry};
use ear_core::{PlacementPolicy, StripePlan};
use ear_types::rng::ChaCha8;
use ear_types::{BlockId, BlockId as Bid, ClusterTopology, NodeId, Result, StripeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of metadata shards. A power of two comfortably above the thread
/// counts we drive, so stripes of the id space map evenly.
const SHARDS: usize = 16;

fn shard_of(block: BlockId) -> usize {
    // Fibonacci hashing spreads the sequential ids real allocations produce.
    (block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
}

/// A stripe registered in the pre-encoding store: the data block ids that
/// will be encoded together and their placement plan.
#[derive(Debug, Clone)]
pub struct PendingStripe {
    /// The stripe's id.
    pub id: StripeId,
    /// The `k` data blocks, in stripe order.
    pub blocks: Vec<BlockId>,
    /// The placement plan (carries the core rack under EAR).
    pub plan: StripePlan,
}

/// A stripe that has been encoded: its data block ids (in generator-matrix
/// order) and the parity block ids appended by the RaidNode.
#[derive(Debug, Clone)]
pub struct EncodedStripe {
    /// The stripe's id.
    pub id: StripeId,
    /// Data block ids in stripe order.
    pub data: Vec<BlockId>,
    /// Parity block ids in generator-row order.
    pub parity: Vec<BlockId>,
}

impl EncodedStripe {
    /// The stripe's `n` blocks in generator order: data, then parity.
    pub fn members(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.data.iter().chain(&self.parity).copied()
    }
}

/// Per-block metadata held in the location shards.
#[derive(Debug, Default, Clone)]
struct BlockMeta {
    /// Current replica locations of the block.
    locations: Vec<NodeId>,
    /// The layout the block was *assigned* at allocation time. Stripe
    /// sealing matches against this, never against `locations`: repair can
    /// move replicas (a healed block's location set diverges from its
    /// placement) without breaking the policy's layout-identity
    /// bookkeeping. `None` for registered (parity) blocks.
    assigned: Option<Vec<NodeId>>,
}

/// The pre-encoding store: stripe state serialized under one mutex.
#[derive(Debug, Default)]
struct StripeState {
    /// Stripes sealed by the policy but not yet encoded.
    pending: Vec<PendingStripe>,
    /// Stripes handed to encode jobs but not yet committed. Not logged:
    /// durably these are still pending — a crash before the encode commit
    /// puts them back in the queue, which is exactly right.
    in_flight: Vec<PendingStripe>,
    /// Stripes that have been encoded.
    encoded: Vec<EncodedStripe>,
    /// Member block → position in `encoded`, the one block → stripe lookup
    /// ([`NameNode::stripe_of`]). `encoded` only grows, so positions hold.
    stripe_index: HashMap<BlockId, usize>,
    /// Blocks of the stripe currently being accumulated, in seal order —
    /// maps each sealed stripe to its member blocks.
    unsealed: Vec<BlockId>,
    next_stripe: u64,
}

impl StripeState {
    /// Appends an encoded stripe and indexes its members.
    fn push_encoded(&mut self, stripe: EncodedStripe) {
        let pos = self.encoded.len();
        self.stripe_index.extend(stripe.members().map(|b| (b, pos)));
        self.encoded.push(stripe);
    }
}

/// The NameNode: owns block locations, drives the placement policy, and
/// groups blocks into stripes for the RaidNode.
///
/// Lock order (coarse→fine, never the reverse): `policy` → `rng` →
/// `stripes` → a location shard → `wal`. Pure metadata ops touch only
/// their one shard (plus the log).
pub struct NameNode {
    topo: ClusterTopology,
    policy: Mutex<Box<dyn PlacementPolicy>>,
    rng: Mutex<ChaCha8>,
    seed: u64,
    shards: Vec<RwLock<HashMap<BlockId, BlockMeta>>>,
    stripes: Mutex<StripeState>,
    next_block: AtomicU64,
    /// The write-ahead log. `None` for the volatile (classic testbed)
    /// NameNode: mutations then skip the append and behave exactly as
    /// before the durability layer existed.
    wal: Option<MetaWal>,
    /// Guards against concurrent checkpoints: the first thread to trip the
    /// threshold writes the snapshot, the rest carry on.
    checkpointing: AtomicBool,
}

impl NameNode {
    /// Creates a volatile NameNode around a placement policy.
    pub fn new(topo: ClusterTopology, policy: Box<dyn PlacementPolicy>, seed: u64) -> Self {
        NameNode {
            topo,
            policy: Mutex::new(policy),
            rng: Mutex::new(ChaCha8::from_seed(seed)),
            seed,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            stripes: Mutex::new(StripeState::default()),
            next_block: AtomicU64::new(0),
            wal: None,
            checkpointing: AtomicBool::new(false),
        }
    }

    /// Creates a durable NameNode over an open write-ahead log, seeding the
    /// in-memory image from the recovered snapshot (what [`MetaWal::open`]
    /// returned). Every subsequent mutation is appended to the log before
    /// it is acknowledged.
    ///
    /// The placement policy restarts fresh: blocks that were unsealed at
    /// the crash stay readable through replication and are matched into a
    /// stripe only if the policy re-produces their layout — the same lazy
    /// rebuild HDFS-RAID applies to its pre-encoding store.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::WalCorrupt`] if a recovered stripe plan fails
    /// validation on rebuild.
    pub fn with_wal(
        topo: ClusterTopology,
        policy: Box<dyn PlacementPolicy>,
        seed: u64,
        wal: MetaWal,
        recovered: &MetaSnapshot,
    ) -> Result<Self> {
        let nn = NameNode {
            topo,
            policy: Mutex::new(policy),
            rng: Mutex::new(ChaCha8::from_seed(seed)),
            seed,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            stripes: Mutex::new(StripeState::default()),
            next_block: AtomicU64::new(recovered.next_block),
            wal: Some(wal),
            checkpointing: AtomicBool::new(false),
        };
        for (id, rec) in &recovered.blocks {
            nn.shard(*id).write().insert(
                *id,
                BlockMeta {
                    locations: rec.locations.clone(),
                    assigned: rec.assigned.clone(),
                },
            );
        }
        {
            let mut stripes = nn.stripes.lock();
            stripes.unsealed = recovered.unsealed.clone();
            for s in &recovered.pending {
                stripes.pending.push(PendingStripe {
                    id: s.id,
                    blocks: s.blocks.clone(),
                    plan: s.plan.to_plan()?,
                });
            }
            for s in &recovered.encoded {
                stripes.push_encoded(EncodedStripe {
                    id: s.id,
                    data: s.data.clone(),
                    parity: s.parity.clone(),
                });
            }
            stripes.next_stripe = recovered.next_stripe;
        }
        Ok(nn)
    }

    /// Appends one mutation to the log (no-op for a volatile NameNode).
    /// Called while the lock guarding the mutated state is held, so log
    /// order equals apply order.
    fn log(&self, rec: &MetaRecord) -> Result<()> {
        match &self.wal {
            Some(w) => w.append(rec).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Whether this NameNode writes a durable log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Makes every later log append fail (see [`MetaWal::fail_appends`]).
    #[cfg(test)]
    pub(crate) fn fail_wal_appends(&self) {
        self.wal.as_ref().expect("durable NameNode").fail_appends();
    }

    /// The complete metadata image, gathered under the stripe mutex and
    /// shard read locks. In-flight stripes are folded back into `pending`:
    /// durably, an encode that has not committed never happened.
    pub fn snapshot(&self) -> MetaSnapshot {
        let mut snap = MetaSnapshot::default();
        {
            let stripes = self.stripes.lock();
            snap.unsealed = stripes.unsealed.clone();
            for s in stripes.pending.iter().chain(stripes.in_flight.iter()) {
                snap.pending.push(StripeEntry {
                    id: s.id,
                    blocks: s.blocks.clone(),
                    plan: PlanRecord::from_plan(&s.plan),
                });
            }
            snap.pending.sort_by_key(|s| s.id);
            for s in &stripes.encoded {
                snap.encoded.push(EncodedEntry {
                    id: s.id,
                    data: s.data.clone(),
                    parity: s.parity.clone(),
                });
            }
            snap.encoded.sort_by_key(|s| s.id);
            snap.next_stripe = stripes.next_stripe;
        }
        for shard in &self.shards {
            for (id, meta) in shard.read().iter() {
                snap.blocks.insert(
                    *id,
                    BlockRec {
                        locations: meta.locations.clone(),
                        assigned: meta.assigned.clone(),
                    },
                );
            }
        }
        snap.next_block = self.next_block.load(Ordering::SeqCst);
        snap
    }

    /// Writes a checkpoint now (no-op for a volatile NameNode): snapshot
    /// the metadata, persist it, compact the log.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::Io`] if the checkpoint cannot be persisted.
    pub fn checkpoint_now(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        // The low-water mark is read *before* gathering: records racing
        // with the gather land in the snapshot *and* stay in the log, and
        // re-apply-safe replay converges them.
        let last_lsn = wal.last_lsn();
        let snap = self.snapshot();
        wal.checkpoint(&snap, last_lsn)
    }

    /// Writes a checkpoint if enough records accumulated since the last
    /// one. At most one thread checkpoints at a time; the others skip.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::Io`] if the checkpoint cannot be persisted.
    pub fn maybe_checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if !wal.should_checkpoint() {
            return Ok(());
        }
        if self.checkpointing.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let result = self.checkpoint_now();
        self.checkpointing.store(false, Ordering::Release);
        result
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    fn shard(&self, block: BlockId) -> &RwLock<HashMap<BlockId, BlockMeta>> {
        &self.shards[shard_of(block)]
    }

    /// Allocates a block id and replica layout for a new write; registers
    /// the block in the pre-encoding store and seals a stripe when the
    /// policy completes one. On a durable NameNode the allocation (and any
    /// seal) is in the log before this returns — the acknowledgment point.
    ///
    /// # Errors
    ///
    /// Propagates placement failures from the policy and log-append
    /// failures from the WAL.
    pub fn allocate_block(&self) -> Result<(BlockId, Vec<NodeId>)> {
        let result = {
            // Placement is inherently sequential (one RNG stream); keep the
            // policy lock across registration so id order, unsealed order,
            // and placement order agree — sealing matches layouts by
            // recency.
            let mut policy = self.policy.lock();
            let mut rng = self.rng.lock();
            let placed = policy.place_block(&mut rng)?;
            let mut stripes = self.stripes.lock();
            let id = Bid(self.next_block.fetch_add(1, Ordering::SeqCst));
            self.shard(id).write().insert(
                id,
                BlockMeta {
                    locations: placed.layout.replicas.clone(),
                    assigned: Some(placed.layout.replicas.clone()),
                },
            );
            stripes.unsealed.push(id);
            self.log(&MetaRecord::Allocate {
                block: id,
                locations: placed.layout.replicas.clone(),
                assigned: true,
            })?;
            if let Some(plan) = placed.sealed_stripe {
                let k = plan.num_blocks();
                debug_assert!(stripes.unsealed.len() >= k);
                // Under RR the last k allocated blocks form the stripe;
                // under EAR the sealed stripe's blocks are the ones whose
                // layouts match the plan — which are exactly the most
                // recent k blocks placed into that core rack. We track
                // them by layout identity.
                let blocks = self.take_stripe_blocks(&mut stripes, &plan)?;
                let sid = StripeId(stripes.next_stripe);
                stripes.next_stripe += 1;
                self.log(&MetaRecord::SealStripe {
                    stripe: sid,
                    blocks: blocks.clone(),
                    plan: PlanRecord::from_plan(&plan),
                })?;
                stripes.pending.push(PendingStripe {
                    id: sid,
                    blocks,
                    plan,
                });
            }
            (id, placed.layout.replicas)
        };
        self.maybe_checkpoint()?;
        Ok(result)
    }

    /// Current replica locations of a block.
    pub fn locations(&self, block: BlockId) -> Option<Vec<NodeId>> {
        self.shard(block)
            .read()
            .get(&block)
            .map(|m| m.locations.clone())
    }

    /// Replaces a block's location set (after encoding deletes replicas or
    /// relocates blocks).
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn set_locations(&self, block: BlockId, nodes: Vec<NodeId>) -> Result<()> {
        let mut shard = self.shard(block).write();
        shard.entry(block).or_default().locations = nodes.clone();
        self.log(&MetaRecord::SetLocations { block, nodes })
    }

    /// Removes one node from a block's location set (a replica declared
    /// lost by the failure detector, or dropped by the scrubber). Returns
    /// whether the node was listed.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn drop_location(&self, block: BlockId, node: NodeId) -> Result<bool> {
        let mut shard = self.shard(block).write();
        match shard.get_mut(&block) {
            Some(meta) => {
                let before = meta.locations.len();
                meta.locations.retain(|&n| n != node);
                if meta.locations.len() < before {
                    self.log(&MetaRecord::DropLocation { block, node })?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            None => Ok(false),
        }
    }

    /// Adds one node to a block's location set (a repaired copy landed).
    /// No-op if the node is already listed.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn add_location(&self, block: BlockId, node: NodeId) -> Result<()> {
        let mut shard = self.shard(block).write();
        let meta = shard.entry(block).or_default();
        if !meta.locations.contains(&node) {
            meta.locations.push(node);
            self.log(&MetaRecord::AddLocation { block, node })?;
        }
        Ok(())
    }

    /// Registers a brand-new block (parity) at fixed locations, returning
    /// its id.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn register_block(&self, nodes: Vec<NodeId>) -> Result<BlockId> {
        let id = Bid(self.next_block.fetch_add(1, Ordering::SeqCst));
        let mut shard = self.shard(id).write();
        shard.insert(
            id,
            BlockMeta {
                locations: nodes.clone(),
                assigned: None,
            },
        );
        self.log(&MetaRecord::Allocate {
            block: id,
            locations: nodes,
            assigned: false,
        })?;
        Ok(id)
    }

    /// Takes every stripe currently sealed for encoding (the RaidNode's
    /// periodic scan), in stripe-id order. Taken stripes move to the
    /// in-flight set: durably they remain pending until the encode
    /// commits, so a crash mid-encode re-queues them on recovery.
    pub fn take_pending_stripes(&self) -> Vec<PendingStripe> {
        let mut stripes = self.stripes.lock();
        let mut taken = std::mem::take(&mut stripes.pending);
        taken.sort_by_key(|s| s.id);
        stripes.in_flight.extend(taken.iter().cloned());
        taken
    }

    /// Returns a stripe to the pre-encoding store after an encode attempt
    /// gave up on it (e.g. too many of its sources are down). The data
    /// blocks keep their replicas, so nothing is lost; a later encoding
    /// round will pick the stripe up again.
    pub fn requeue_stripe(&self, stripe: PendingStripe) {
        let mut stripes = self.stripes.lock();
        stripes.in_flight.retain(|s| s.id != stripe.id);
        stripes.pending.push(stripe);
    }

    /// Number of stripes sealed and awaiting encoding.
    pub fn pending_stripe_count(&self) -> usize {
        self.stripes.lock().pending.len()
    }

    /// A snapshot of the stripes awaiting encoding (without consuming
    /// them), in stripe-id order.
    pub fn pending_stripes(&self) -> Vec<PendingStripe> {
        let mut out = self.stripes.lock().pending.clone();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Records a stripe as encoded (called by the RaidNode after parity is
    /// stored and replicas deleted). The durable encode-commit point: once
    /// the record is in the log, recovery will never re-queue the stripe.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn record_encoded(&self, stripe: EncodedStripe) -> Result<()> {
        {
            let mut stripes = self.stripes.lock();
            self.log(&MetaRecord::EncodeCommit {
                stripe: stripe.id,
                data: stripe.data.clone(),
                parity: stripe.parity.clone(),
            })?;
            stripes.in_flight.retain(|s| s.id != stripe.id);
            stripes.push_encoded(stripe);
        }
        self.maybe_checkpoint()
    }

    /// All stripes encoded so far, in stripe-id order (encode jobs may
    /// finish out of order).
    pub fn encoded_stripes(&self) -> Vec<EncodedStripe> {
        let mut out = self.stripes.lock().encoded.clone();
        out.sort_by_key(|s| s.id);
        out
    }

    /// The encoded stripe `block` is a member of (data or parity), `None`
    /// while the block is still replicated.
    pub fn stripe_of(&self, block: BlockId) -> Option<EncodedStripe> {
        let stripes = self.stripes.lock();
        let pos = *stripes.stripe_index.get(&block)?;
        stripes.encoded.get(pos).cloned()
    }

    /// Plans the encoding of a stripe through the placement policy.
    ///
    /// Planning randomness is derived from (cluster seed, stripe id), so a
    /// stripe's encode plan is the same no matter which map task plans it
    /// or in what order stripes are processed.
    ///
    /// # Errors
    ///
    /// Propagates planning failures (e.g. no room for parity blocks).
    pub fn plan_encoding(&self, stripe: &PendingStripe) -> Result<ear_core::EncodePlan> {
        let policy = self.policy.lock();
        let mut rng =
            ChaCha8::from_seed(self.seed ^ stripe.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        policy.plan_encoding(&stripe.plan, &mut rng)
    }

    /// The policy's name ("rr" or "ear").
    pub fn policy_name(&self) -> &'static str {
        self.policy.lock().name()
    }

    /// Total number of blocks ever allocated.
    pub fn block_count(&self) -> u64 {
        self.next_block.load(Ordering::SeqCst)
    }

    /// Pops the blocks belonging to `plan` off the unsealed list by
    /// matching layouts: the stripe's blocks are those whose assigned
    /// layouts equal the plan's, searched from the most recent. Caller
    /// holds the stripe lock; this only takes shard read locks (lock
    /// order stripes→shard).
    fn take_stripe_blocks(
        &self,
        stripes: &mut StripeState,
        plan: &StripePlan,
    ) -> Result<Vec<BlockId>> {
        let mut blocks = Vec::with_capacity(plan.num_blocks());
        for layout in plan.data_layouts() {
            let pos = stripes
                .unsealed
                .iter()
                .rposition(|&b| {
                    self.shard(b)
                        .read()
                        .get(&b)
                        .and_then(|m| m.assigned.as_deref())
                        == Some(&layout.replicas)
                })
                .ok_or_else(|| {
                    ear_types::Error::Invariant(
                        "sealed stripe's block must be among unsealed blocks".into(),
                    )
                })?;
            blocks.push(stripes.unsealed.remove(pos));
        }
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_core::{EncodingAwareReplication, RandomReplicationPolicy};
    use ear_types::{EarConfig, ErasureParams, ReplicationConfig};

    fn cfg() -> EarConfig {
        EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap()
    }

    fn rr_namenode() -> NameNode {
        let topo = ClusterTopology::uniform(8, 4);
        let policy = RandomReplicationPolicy::new(cfg(), topo.clone()).unwrap();
        NameNode::new(topo, Box::new(policy), 1)
    }

    #[test]
    fn allocation_records_locations() {
        let nn = rr_namenode();
        let (id, layout) = nn.allocate_block().unwrap();
        assert_eq!(layout.len(), 3);
        assert_eq!(nn.locations(id), Some(layout));
        assert_eq!(nn.block_count(), 1);
    }

    #[test]
    fn stripes_seal_every_k_blocks_under_rr() {
        let nn = rr_namenode();
        for _ in 0..8 {
            nn.allocate_block().unwrap();
        }
        assert_eq!(nn.pending_stripe_count(), 2);
        let stripes = nn.take_pending_stripes();
        assert_eq!(stripes.len(), 2);
        assert_eq!(nn.pending_stripe_count(), 0);
        assert_eq!(
            stripes[0].blocks,
            vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)]
        );
        assert_eq!(
            stripes[1].blocks,
            vec![BlockId(4), BlockId(5), BlockId(6), BlockId(7)]
        );
    }

    #[test]
    fn ear_stripe_blocks_match_plan_layouts() {
        let topo = ClusterTopology::uniform(8, 4);
        let policy = EncodingAwareReplication::new(cfg(), topo.clone());
        let nn = NameNode::new(topo.clone(), Box::new(policy), 2);
        let mut sealed = Vec::new();
        for _ in 0..64 {
            nn.allocate_block().unwrap();
            sealed.extend(nn.take_pending_stripes());
        }
        assert!(!sealed.is_empty());
        for stripe in &sealed {
            let core = stripe.plan.core_rack().unwrap();
            for (i, block) in stripe.blocks.iter().enumerate() {
                let locs = nn.locations(*block).unwrap();
                assert_eq!(locs, stripe.plan.data_layouts()[i].replicas);
                assert!(locs.iter().any(|&n| topo.rack_of(n) == core));
            }
        }
    }

    #[test]
    fn drop_and_add_location_round_trip() {
        let nn = rr_namenode();
        let (id, layout) = nn.allocate_block().unwrap();
        let lost = layout[0];
        assert!(nn.drop_location(id, lost).unwrap());
        assert!(!nn.drop_location(id, lost).unwrap(), "second drop is a no-op");
        assert!(!nn.locations(id).unwrap().contains(&lost));
        nn.add_location(id, NodeId(31)).unwrap();
        nn.add_location(id, NodeId(31)).unwrap();
        let locs = nn.locations(id).unwrap();
        assert_eq!(locs.iter().filter(|&&n| n == NodeId(31)).count(), 1);
        assert!(!nn.drop_location(BlockId(999), NodeId(0)).unwrap());
    }

    #[test]
    fn healed_locations_do_not_break_ear_sealing() {
        // Repair moves a replica of a not-yet-sealed block; stripes must
        // still seal afterwards because matching uses assigned layouts,
        // not live locations.
        let topo = ClusterTopology::uniform(8, 4);
        let policy = EncodingAwareReplication::new(cfg(), topo.clone());
        let nn = NameNode::new(topo, Box::new(policy), 5);
        let (first, layout) = nn.allocate_block().unwrap();
        nn.drop_location(first, layout[0]).unwrap();
        nn.add_location(first, NodeId(31)).unwrap();
        let mut sealed = 0usize;
        for _ in 0..64 {
            nn.allocate_block().expect("sealing survives healed layouts");
            sealed += nn.take_pending_stripes().len();
        }
        assert!(sealed > 0, "EAR must keep sealing stripes");
    }

    #[test]
    fn register_and_relocate_blocks() {
        let nn = rr_namenode();
        let parity = nn.register_block(vec![NodeId(5)]).unwrap();
        assert_eq!(nn.locations(parity), Some(vec![NodeId(5)]));
        nn.set_locations(parity, vec![NodeId(9)]).unwrap();
        assert_eq!(nn.locations(parity), Some(vec![NodeId(9)]));
    }

    #[test]
    fn plan_encoding_round_trips() {
        let nn = rr_namenode();
        for _ in 0..4 {
            nn.allocate_block().unwrap();
        }
        let stripe = &nn.take_pending_stripes()[0];
        let plan = nn.plan_encoding(stripe).unwrap();
        assert_eq!(plan.kept_data.len(), 4);
        assert_eq!(plan.parity_nodes.len(), 2);
    }

    #[test]
    fn plan_encoding_is_order_independent() {
        // Planning the same stripe twice — or after planning others —
        // yields the identical plan: randomness is keyed by stripe id,
        // not drawn from a shared stream.
        let nn = rr_namenode();
        for _ in 0..12 {
            nn.allocate_block().unwrap();
        }
        let stripes = nn.take_pending_stripes();
        assert_eq!(stripes.len(), 3);
        let first = nn.plan_encoding(&stripes[0]).unwrap();
        for s in stripes.iter().rev() {
            nn.plan_encoding(s).unwrap();
        }
        let again = nn.plan_encoding(&stripes[0]).unwrap();
        assert_eq!(first.parity_nodes, again.parity_nodes);
        assert_eq!(first.kept_data, again.kept_data);
    }

    #[test]
    fn snapshots_are_sorted_by_stripe_id() {
        let nn = rr_namenode();
        for _ in 0..12 {
            nn.allocate_block().unwrap();
        }
        let stripes = nn.take_pending_stripes();
        // Requeue out of order; every snapshot point re-sorts.
        for s in stripes.iter().rev() {
            nn.requeue_stripe(s.clone());
        }
        let ids: Vec<_> = nn.pending_stripes().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![StripeId(0), StripeId(1), StripeId(2)]);
        for s in stripes.iter().rev() {
            nn.record_encoded(EncodedStripe {
                id: s.id,
                data: s.blocks.clone(),
                parity: vec![],
            })
            .unwrap();
        }
        let ids: Vec<_> = nn.encoded_stripes().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![StripeId(0), StripeId(1), StripeId(2)]);
        // The member index follows the stripe, not the commit order.
        assert_eq!(nn.stripe_of(BlockId(5)).map(|s| s.id), Some(StripeId(1)));
        assert_eq!(nn.stripe_of(BlockId(11)).map(|s| s.id), Some(StripeId(2)));
        assert!(nn.stripe_of(BlockId(12)).is_none());
    }
}
