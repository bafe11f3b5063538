//! The NameNode: cluster metadata, the placement policy, and the
//! pre-encoding store (Section IV-B of the paper).
//!
//! Metadata is one state machine (DESIGN.md §9): the image changes only in
//! `apply`, and every mutator is "check the precondition under the lock,
//! build the [`MetaRecord`], [`NameNode::commit`] it" — append to the log,
//! then the same `apply` that replay runs. The image is lock-striped:
//! block slots live in [`SHARDS`] reader–writer shards keyed by a block-id
//! hash, so location lookups and single-block updates from concurrent
//! readers, healers, and encode jobs never contend on one global lock; the
//! stripe tables and both id counters sit under one mutex. Every snapshot
//! the NameNode exports is sorted by id, so downstream consumers see the
//! same order regardless of which shard or thread produced an entry.

use crate::sync::{level, Held, Mutex, Precedes, RwLock};
use crate::wal::{MetaRecord, MetaSnapshot, MetaWal};
use ear_core::{PlacementPolicy, StripePlan};
use ear_types::rng::ChaCha8;
use ear_types::{BlockId, ClusterTopology, Error, NodeId, Padded, Result, StripeId};
use image::{Shard, StripeTable};

/// Number of metadata shards. A power of two comfortably above the thread
/// counts we drive, so stripes of the id space map evenly.
const SHARDS: usize = 16;

fn shard_of(block: BlockId) -> usize {
    // Fibonacci hashing spreads the sequential ids real allocations produce.
    (block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
}

/// A stripe registered in the pre-encoding store: the data block ids that
/// will be encoded together and their placement plan.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The live image's two tables. Their contents are private to this module,
/// so outside the loaders `apply` is the only code that can change them.
mod image {
    use super::{BlockId, EncodedStripe, MetaRecord, MetaSnapshot, NodeId, StripeId};
    use crate::wal::BlockRec;
    use std::collections::{BTreeSet, HashMap};

    /// One location shard: the slots of the blocks that hash to it.
    #[derive(Default)]
    pub(super) struct Shard(HashMap<BlockId, BlockRec>);

    impl Shard {
        pub(super) fn load(&mut self, block: BlockId, rec: BlockRec) {
            self.0.insert(block, rec);
        }

        pub(super) fn get(&self, block: BlockId) -> Option<&BlockRec> {
            self.0.get(&block)
        }

        /// Whether `block` is known and lists `node` among its locations.
        pub(super) fn lists(&self, block: BlockId, node: NodeId) -> bool {
            self.get(block).is_some_and(|m| m.locations.contains(&node))
        }

        pub(super) fn slots(&self) -> impl Iterator<Item = (BlockId, BlockRec)> + '_ {
            self.0.iter().map(|(id, rec)| (*id, rec.clone()))
        }

        /// [`MetaSnapshot::apply`]'s block half, on this shard's slots.
        pub(super) fn apply(&mut self, rec: &MetaRecord) {
            BlockRec::apply(rec, |block| self.0.entry(block).or_default());
        }
    }

    /// Everything but the block slots — the pre-encoding store, the encoded
    /// stripes and both id counters — held as the [`MetaSnapshot`] that
    /// replay builds, its `blocks` left empty.
    pub(super) struct StripeTable {
        image: MetaSnapshot,
        /// Member block → its encoded stripe, the one block → stripe lookup.
        stripe_index: HashMap<BlockId, StripeId>,
        /// Pending stripes handed to encode jobs and not yet committed or
        /// returned. Not state: durably they are pending and nothing else,
        /// so a crash before the encode commit re-queues them.
        pub(super) in_flight: BTreeSet<StripeId>,
    }

    impl StripeTable {
        pub(super) fn load(image: MetaSnapshot) -> Self {
            let mut stripe_index = HashMap::new();
            for s in &image.encoded {
                stripe_index.extend(s.members().map(|b| (b, s.id)));
            }
            StripeTable {
                image,
                stripe_index,
                in_flight: BTreeSet::new(),
            }
        }

        pub(super) fn image(&self) -> &MetaSnapshot {
            &self.image
        }

        pub(super) fn stripe_of(&self, block: BlockId) -> Option<&EncodedStripe> {
            let id = self.stripe_index.get(&block)?;
            let at = self.image.encoded.binary_search_by_key(id, |s| s.id).ok()?;
            self.image.encoded.get(at)
        }

        pub(super) fn apply(&mut self, rec: &MetaRecord) {
            self.image.apply_stripes(rec);
            if let MetaRecord::EncodeCommit(s) = rec {
                self.stripe_index.extend(s.members().map(|b| (b, s.id)));
                self.in_flight.remove(&s.id);
            }
        }
    }
}

/// The NameNode: owns block locations, drives the placement policy, and
/// groups blocks into stripes for the RaidNode.
///
/// Its locks nest in the order `crate::sync` declares; pure metadata ops
/// touch only their one shard (plus the log).
pub struct NameNode {
    topo: ClusterTopology,
    /// The placement policy and the one RNG stream it places from.
    placement: Mutex<(Box<dyn PlacementPolicy>, ChaCha8), level::Placement>,
    seed: u64,
    /// Block metadata, one padded lock per shard: readers of blocks in
    /// different shards never write the same cache line.
    shards: Vec<Padded<RwLock<Shard, level::Shard>>>,
    stripes: Mutex<StripeTable, level::Stripes>,
    /// The write-ahead log. `None` for the volatile (classic testbed)
    /// NameNode, whose commits skip the append.
    wal: Option<MetaWal>,
}

impl NameNode {
    /// Creates a NameNode around a placement policy, loading `image` — the
    /// empty default, or what [`MetaWal::open`] recovered beside `wal`. With
    /// a log, every mutation is appended to it before it is acknowledged.
    ///
    /// The placement policy starts fresh: blocks that were unsealed at a
    /// crash stay readable through replication and are matched into a
    /// stripe only if the policy re-produces their layout — the same lazy
    /// rebuild HDFS-RAID applies to its pre-encoding store.
    pub fn new(
        topo: ClusterTopology,
        policy: Box<dyn PlacementPolicy>,
        seed: u64,
        wal: Option<MetaWal>,
        mut image: MetaSnapshot,
    ) -> Self {
        let mut shards: Vec<Shard> = (0..SHARDS).map(|_| Shard::default()).collect();
        for (id, rec) in std::mem::take(&mut image.blocks) {
            shards[shard_of(id)].load(id, rec);
        }
        NameNode {
            topo,
            placement: Mutex::new((policy, ChaCha8::from_seed(seed))),
            seed,
            shards: shards.into_iter().map(|s| RwLock::new(s).into()).collect(),
            stripes: Mutex::new(StripeTable::load(image)),
            wal,
        }
    }

    /// The one way metadata changes: `rec` goes to the log (when there is
    /// one), then through `apply` — the same transition replay runs. The
    /// caller holds the lock of each table the record touches (`stripes`
    /// for an allocation, seal or encode commit; the block's shard for
    /// every per-block record), so log order equals apply order, and has
    /// checked the record's precondition under it; `held` is the finest of
    /// those locks. A refused append returns before anything moved.
    fn commit<H: Precedes<level::Wal>>(
        &self,
        held: &mut Held<'_, H>,
        rec: &MetaRecord,
        stripes: Option<&mut StripeTable>,
        shard: Option<&mut Shard>,
    ) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.append_holding(held, rec)?;
        }
        if let Some(stripes) = stripes {
            stripes.apply(rec);
        }
        if let Some(shard) = shard {
            shard.apply(rec);
        }
        Ok(())
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

    /// The complete metadata image: the stripe tables copied under their
    /// mutex, then every shard's slots. Stripes out with an encode job are
    /// in `pending`: durably, an encode that has not committed never
    /// happened.
    pub fn snapshot(&self) -> MetaSnapshot {
        self.snapshot_from(Held::entry())
    }

    /// [`snapshot`](Self::snapshot) for a caller that holds no table lock.
    fn snapshot_from<H>(&self, held: &mut Held<'_, H>) -> MetaSnapshot
    where
        H: Precedes<level::Stripes> + Precedes<level::Shard>,
    {
        let mut snap = self.stripes.lock(held).0.image().clone();
        for shard in &self.shards {
            snap.blocks.extend(shard.read(held).0.slots());
        }
        snap
    }

    /// Writes a checkpoint now (no-op for a volatile NameNode): snapshot
    /// the metadata, persist it, compact the log. A checkpoint already in
    /// flight finishes first; this one then runs, never skipped.
    ///
    /// # Errors
    ///
    /// [`ear_types::Error::Io`] if the checkpoint cannot be persisted.
    pub fn checkpoint_now(&self) -> Result<()> {
        self.checkpoint_from(Held::entry())
    }

    /// [`checkpoint_now`](Self::checkpoint_now) for an entry point that
    /// holds no lock: taking its token keeps a caller from checkpointing
    /// while it holds a table lock ([`Held`]).
    fn checkpoint_from(&self, nothing: &mut Held<'_, level::Unlocked>) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let (_flight, mut flying) = wal.flight.lock(nothing);
        self.checkpoint_flying(wal, &mut flying)
    }

    /// Writes a checkpoint if one is due ([`MetaWal`]'s cadence: the log
    /// has grown to the last checkpoint's size), for a mutator whose locks
    /// are all released — every mutator calls it, so no mix of them grows
    /// the log without bound. It shares the flight of
    /// [`checkpoint_now`](Self::checkpoint_now), but skips while a
    /// checkpoint is in it.
    fn maybe_checkpoint(&self, nothing: &mut Held<'_, level::Unlocked>) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if !wal.should_checkpoint(nothing) {
            return Ok(());
        }
        let Some((_flight, mut flying)) = wal.flight.try_lock(nothing) else {
            return Ok(());
        };
        self.checkpoint_flying(wal, &mut flying)
    }

    /// Gathers, persists and compacts one checkpoint inside the flight, so
    /// checkpoints install in the order of their low-water marks.
    fn checkpoint_flying(
        &self,
        wal: &MetaWal,
        flying: &mut Held<'_, level::Checkpoint>,
    ) -> Result<()> {
        // The low-water mark is read *before* gathering: records racing
        // with the gather land in the snapshot *and* stay in the log, and
        // re-apply-safe replay converges them.
        let last_lsn = wal.last_lsn_holding(flying);
        let snap = self.snapshot_from(flying);
        wal.checkpoint_holding(flying, &snap, last_lsn)
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    fn shard(&self, block: BlockId) -> &RwLock<Shard, level::Shard> {
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
        let nothing = Held::entry();
        let result = {
            // Placement is inherently sequential (one RNG stream); keep the
            // placement lock across registration so id order, unsealed
            // order, and placement order agree — sealing matches layouts by
            // recency.
            let (mut placement, mut held) = self.placement.lock(nothing);
            let (policy, rng) = &mut *placement;
            let placed = policy.place_block(rng)?;
            let (mut stripes, mut held) = self.stripes.lock(&mut held);
            let block = BlockId(stripes.image().next_block);
            let rec = MetaRecord::Allocate {
                block,
                locations: placed.layout.replicas.clone(),
                assigned: true,
            };
            {
                let (mut shard, mut held) = self.shard(block).write(&mut held);
                self.commit(&mut held, &rec, Some(&mut stripes), Some(&mut shard))?;
            }
            if let Some(plan) = placed.sealed_stripe {
                let seal = MetaRecord::SealStripe(PendingStripe {
                    id: StripeId(stripes.image().next_stripe),
                    blocks: self.stripe_blocks(&mut held, &stripes.image().unsealed, &plan)?,
                    plan,
                });
                self.commit(&mut held, &seal, Some(&mut stripes), None)?;
            }
            (block, placed.layout.replicas)
        };
        self.maybe_checkpoint(nothing)?;
        Ok(result)
    }

    /// Current replica locations of a block.
    pub fn locations(&self, block: BlockId) -> Option<Vec<NodeId>> {
        let (shard, _) = self.shard(block).read(Held::entry());
        shard.get(block).map(|m| m.locations.clone())
    }

    /// Replaces a block's location set (after encoding deletes replicas or
    /// relocates blocks).
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn set_locations(&self, block: BlockId, nodes: Vec<NodeId>) -> Result<()> {
        let nothing = Held::entry();
        {
            let (mut shard, mut held) = self.shard(block).write(nothing);
            let rec = MetaRecord::SetLocations { block, nodes };
            self.commit(&mut held, &rec, None, Some(&mut shard))?;
        }
        self.maybe_checkpoint(nothing)
    }

    /// Removes one node from a block's location set (a replica declared
    /// lost by the failure detector, or dropped by the scrubber). Returns
    /// whether the node was listed; when it was not, nothing is logged.
    /// The log gets the whole list that results, as
    /// [`set_locations`](Self::set_locations) logs it: a list record
    /// replays to the same order over any image.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn drop_location(&self, block: BlockId, node: NodeId) -> Result<bool> {
        let nothing = Held::entry();
        let listed = {
            let (mut shard, mut held) = self.shard(block).write(nothing);
            let listed = shard.lists(block, node);
            if listed {
                let mut nodes = shard.get(block).map(|m| m.locations.clone()).unwrap_or_default();
                nodes.retain(|&n| n != node);
                let rec = MetaRecord::SetLocations { block, nodes };
                self.commit(&mut held, &rec, None, Some(&mut shard))?;
            }
            listed
        };
        self.maybe_checkpoint(nothing)?;
        Ok(listed)
    }

    /// Adds one node to a block's location set (a repaired copy landed),
    /// logging the whole list that results as
    /// [`drop_location`](Self::drop_location) does. No-op, and nothing
    /// logged, if the node is already listed.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn add_location(&self, block: BlockId, node: NodeId) -> Result<()> {
        let nothing = Held::entry();
        {
            let (mut shard, mut held) = self.shard(block).write(nothing);
            if shard.lists(block, node) {
                return Ok(());
            }
            let mut nodes = shard.get(block).map(|m| m.locations.clone()).unwrap_or_default();
            nodes.push(node);
            let rec = MetaRecord::SetLocations { block, nodes };
            self.commit(&mut held, &rec, None, Some(&mut shard))?;
        }
        self.maybe_checkpoint(nothing)
    }

    /// Registers a brand-new block (parity) at fixed locations, returning
    /// its id.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn register_block(&self, nodes: Vec<NodeId>) -> Result<BlockId> {
        // Ids are issued under the stripe mutex, so they reach the log in
        // id order — what makes "id below the counter" mean "already
        // applied" at replay.
        let nothing = Held::entry();
        let block = {
            let (mut stripes, mut held) = self.stripes.lock(nothing);
            let block = BlockId(stripes.image().next_block);
            let rec = MetaRecord::Allocate {
                block,
                locations: nodes,
                assigned: false,
            };
            let (mut shard, mut held) = self.shard(block).write(&mut held);
            self.commit(&mut held, &rec, Some(&mut stripes), Some(&mut shard))?;
            block
        };
        self.maybe_checkpoint(nothing)?;
        Ok(block)
    }

    /// Takes every stripe currently sealed for encoding (the RaidNode's
    /// periodic scan), in stripe-id order, and marks it in flight. Nothing
    /// is logged: durably the stripes remain pending until the encode
    /// commits, so a crash mid-encode re-queues them on recovery.
    pub fn take_pending_stripes(&self) -> Vec<PendingStripe> {
        let (mut stripes, _) = self.stripes.lock(Held::entry());
        let taken = Self::queued(&stripes);
        stripes.in_flight.extend(taken.iter().map(|s| s.id));
        taken
    }

    /// Returns a stripe to the pre-encoding store after an encode attempt
    /// gave up on it (e.g. too many of its sources are down). The data
    /// blocks keep their replicas, so nothing is lost; a later encoding
    /// round will pick the stripe up again.
    pub fn requeue_stripe(&self, stripe: PendingStripe) {
        self.stripes.lock(Held::entry()).0.in_flight.remove(&stripe.id);
    }

    /// Number of stripes sealed and awaiting encoding.
    pub fn pending_stripe_count(&self) -> usize {
        let (stripes, _) = self.stripes.lock(Held::entry());
        stripes.image().pending.len() - stripes.in_flight.len()
    }

    /// A snapshot of the stripes awaiting encoding (without consuming
    /// them), in stripe-id order.
    pub fn pending_stripes(&self) -> Vec<PendingStripe> {
        Self::queued(&self.stripes.lock(Held::entry()).0)
    }

    /// The pending stripes no encode job holds. Seals apply in id order and
    /// nothing else adds to `pending`, so they are in stripe-id order.
    fn queued(stripes: &StripeTable) -> Vec<PendingStripe> {
        let pending = &stripes.image().pending;
        let queued = |s: &&PendingStripe| !stripes.in_flight.contains(&s.id);
        pending.iter().filter(queued).cloned().collect()
    }

    /// Records a stripe as encoded (called by the RaidNode after parity is
    /// stored and replicas deleted). The durable encode-commit point: once
    /// the record is in the log, recovery will never re-queue the stripe.
    ///
    /// # Errors
    ///
    /// Propagates log-append failures from the WAL.
    pub fn record_encoded(&self, stripe: EncodedStripe) -> Result<()> {
        let (rec, nothing) = (MetaRecord::EncodeCommit(stripe), Held::entry());
        {
            let (mut stripes, mut held) = self.stripes.lock(nothing);
            self.commit(&mut held, &rec, Some(&mut stripes), None)?;
        }
        self.maybe_checkpoint(nothing)
    }

    /// All stripes encoded so far, in stripe-id order (encode jobs may
    /// finish out of order).
    pub fn encoded_stripes(&self) -> Vec<EncodedStripe> {
        self.stripes.lock(Held::entry()).0.image().encoded.clone()
    }

    /// The encoded stripe `block` is a member of (data or parity), `None`
    /// while the block is still replicated.
    pub fn stripe_of(&self, block: BlockId) -> Option<EncodedStripe> {
        self.stripes.lock(Held::entry()).0.stripe_of(block).cloned()
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
        let (placement, _) = self.placement.lock(Held::entry());
        let mut rng =
            ChaCha8::from_seed(self.seed ^ stripe.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        placement.0.plan_encoding(&stripe.plan, &mut rng)
    }

    /// Total number of blocks ever allocated.
    pub fn block_count(&self) -> u64 {
        self.stripes.lock(Held::entry()).0.image().next_block
    }

    /// The unsealed blocks `plan` seals, in stripe order: for each of the
    /// plan's layouts, the most recent unsealed block that was assigned it
    /// and is not already picked. Caller holds the stripe lock; this only
    /// takes shard read locks.
    fn stripe_blocks(
        &self,
        held: &mut Held<'_, level::Stripes>,
        unsealed: &[BlockId],
        plan: &StripePlan,
    ) -> Result<Vec<BlockId>> {
        let mut blocks = Vec::with_capacity(plan.num_blocks());
        for layout in plan.data_layouts() {
            let mut assigned_it = |b: BlockId| {
                let (shard, _) = self.shard(b).read(held);
                shard.get(b).and_then(|m| m.assigned.as_deref()) == Some(&layout.replicas)
            };
            let block = unsealed
                .iter()
                .rfind(|&&b| !blocks.contains(&b) && assigned_it(b))
                .ok_or_else(|| {
                    Error::Invariant("sealed stripe's block must be among unsealed blocks".into())
                })?;
            blocks.push(*block);
        }
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_core::{BlockLayout, EncodingAwareReplication, RandomReplicationPolicy};
    use crate::wal::{CHECKPOINT_FILE, WAL_FILE};
    use ear_types::prop;
    use ear_types::{EarConfig, ErasureParams, RackId, ReplicationConfig};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> EarConfig {
        EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::hdfs_default(),
            1,
        )
        .unwrap()
    }

    /// A NameNode over the 8 × 4 cluster: volatile, or logging under `dir`
    /// (with what the log there already holds loaded).
    fn namenode(ear: bool, seed: u64, dir: Option<&Path>) -> NameNode {
        let topo = ClusterTopology::uniform(8, 4);
        let policy: Box<dyn PlacementPolicy> = match ear {
            true => Box::new(EncodingAwareReplication::new(cfg(), topo.clone())),
            false => Box::new(RandomReplicationPolicy::new(cfg(), topo.clone()).unwrap()),
        };
        let (wal, image) = match dir {
            Some(dir) => {
                let (wal, image) = MetaWal::open(dir, false, u64::MAX).unwrap();
                (Some(wal), image)
            }
            None => (None, MetaSnapshot::default()),
        };
        NameNode::new(topo, policy, seed, wal, image)
    }

    fn rr_namenode() -> NameNode {
        namenode(false, 1, None)
    }

    fn tmp_dir() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("ear-nn-test-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
        let nn = namenode(true, 2, None);
        let topo = nn.topology().clone();
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
    fn location_churn_replayed_over_any_raced_snapshot_is_the_live_image() {
        // Random adds and drops on two blocks of a durable NameNode; each
        // one changes a list, so it logs one record, and the image after
        // every record is kept. A checkpoint whose gather raced the log
        // pairs a low-water mark with an image at or past it: replaying the
        // log past the mark over that image must rebuild the live image,
        // the order of each location list included.
        prop::check("location_churn_replays_over_any_raced_snapshot", 64, |rng| {
            let dir = tmp_dir();
            let nn = namenode(false, 1, Some(&dir));
            let mut images = vec![nn.snapshot()];
            for _ in 0..prop::range(rng, 1..=10) {
                let (block, node) = (BlockId(rng.below(2)), NodeId(rng.below(3) as u32));
                match nn.locations(block).is_some_and(|l| l.contains(&node)) {
                    true => assert!(nn.drop_location(block, node).unwrap()),
                    false => nn.add_location(block, node).unwrap(),
                }
                images.push(nn.snapshot());
            }
            drop(nn);
            let live = images.last().unwrap();
            for low_water in 0..images.len() {
                for (at, snap) in images.iter().enumerate().skip(low_water) {
                    let raced = tmp_dir();
                    std::fs::create_dir_all(&raced).unwrap();
                    for file in [WAL_FILE, CHECKPOINT_FILE] {
                        if dir.join(file).exists() {
                            std::fs::copy(dir.join(file), raced.join(file)).unwrap();
                        }
                    }
                    let (wal, _) = MetaWal::open(&raced, false, u64::MAX).unwrap();
                    wal.checkpoint(snap, low_water as u64).unwrap();
                    drop(wal);
                    let (_, recovered) = MetaWal::open(&raced, false, u64::MAX).unwrap();
                    assert_eq!(&recovered, live, "low water {low_water}, image {at}");
                    std::fs::remove_dir_all(&raced).unwrap();
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn healed_locations_do_not_break_ear_sealing() {
        // Repair moves a replica of a not-yet-sealed block; stripes must
        // still seal afterwards because matching uses assigned layouts,
        // not live locations.
        let nn = namenode(true, 5, None);
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

    #[test]
    fn a_refused_append_leaves_the_image_as_it_was() {
        // Log before state, for every mutator: the refused record is in
        // neither the live image nor anything a later checkpoint persists.
        type Mutator = fn(&NameNode, BlockId, &PendingStripe) -> bool;
        let mutators: [(&str, Mutator); 6] = [
            ("allocate_block", |nn, _, _| nn.allocate_block().is_err()),
            ("register_block", |nn, _, _| {
                nn.register_block(vec![NodeId(5)]).is_err()
            }),
            ("set_locations", |nn, b, _| {
                nn.set_locations(b, vec![NodeId(9)]).is_err()
            }),
            ("add_location", |nn, b, _| {
                nn.add_location(b, NodeId(31)).is_err()
            }),
            ("drop_location", |nn, b, _| {
                let listed = nn.locations(b).unwrap()[0];
                nn.drop_location(b, listed).is_err()
            }),
            ("record_encoded", |nn, b, s| {
                let (id, data) = (s.id, s.blocks.clone());
                nn.record_encoded(EncodedStripe {
                    id,
                    data,
                    parity: vec![b],
                })
                .is_err()
            }),
        ];
        for (name, mutate) in mutators {
            let dir = tmp_dir();
            let nn = namenode(false, 1, Some(&dir));
            // One stripe out with an encode job, three unsealed blocks (the
            // next allocation seals), one parity block.
            for _ in 0..7 {
                nn.allocate_block().unwrap();
            }
            let parity = nn.register_block(vec![NodeId(4)]).unwrap();
            let stripe = nn.take_pending_stripes().remove(0);
            let before = nn.snapshot();
            assert_eq!((before.pending.len(), before.unsealed.len()), (1, 3));

            nn.fail_wal_appends();
            assert!(
                mutate(&nn, parity, &stripe),
                "{name} must report the refused append"
            );
            assert_eq!(
                nn.snapshot(),
                before,
                "{name} changed state the log never saw"
            );
            nn.checkpoint_now().unwrap();
            drop(nn);
            let (_, recovered) = MetaWal::open(&dir, false, u64::MAX).unwrap();
            assert_eq!(recovered, before, "{name} leaked into the checkpoint");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_replayed_plan_outside_the_topology_is_an_error_not_a_panic() {
        // A `SealStripe` behind a valid CRC whose plan names node 32, core
        // rack 8 or target rack 8 of the 8 × 4 cluster: the log vouches for
        // the bytes, not the ids, so planning the stripe's encode refuses it.
        // Block i on node i (rack 0) and node 4 + i (rack 1), block 3's
        // second replica on `last`.
        let plan = |last: u32, core: Option<u32>, targets: Option<Vec<RackId>>| {
            let second = |i: u32| if i == 3 { last } else { 4 + i };
            let layouts = (0..4).map(|i| BlockLayout::new(vec![NodeId(i), NodeId(second(i))]));
            let retries = vec![0; 4];
            StripePlan::new(layouts.collect(), core.map(RackId), targets, retries)
        };
        let plans = [
            (false, plan(32, None, None)),
            (true, plan(32, Some(0), None)),
            (true, plan(7, Some(8), None)),
            (true, plan(7, Some(0), Some(vec![RackId(0), RackId(8)]))),
        ];
        for (ear, plan) in plans {
            let dir = tmp_dir();
            let (wal, _) = MetaWal::open(&dir, false, u64::MAX).unwrap();
            let blocks = (0..4).map(BlockId).collect();
            let id = StripeId(0);
            wal.append(&MetaRecord::SealStripe(PendingStripe { id, blocks, plan }))
                .unwrap();
            drop(wal);
            let nn = namenode(ear, 1, Some(&dir));
            let stripe = nn.pending_stripes().remove(0);
            let planned = nn.plan_encoding(&stripe);
            assert!(matches!(planned, Err(Error::Invariant(_))), "{planned:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn location_churn_alone_keeps_the_log_bounded() {
        // Repair and heal change only locations: each of those mutators
        // checkpoints when one is due, so the log never outgrows the
        // cadence bound (the floor's records or the last checkpoint's
        // bytes, whichever is larger) by more than the frame just appended.
        // A frame carries the block's whole list, so the bound is taken at
        // the widest frame logged so far.
        const FLOOR: u64 = 16;
        // len | crc | lsn | tag | block | count | nodes
        let frame = |nodes: usize| 4 + 4 + 8 + 1 + 8 + 4 + 4 * nodes as u64;
        let mut widest = 0;
        let dir = tmp_dir();
        let topo = ClusterTopology::uniform(8, 4);
        let policy = Box::new(RandomReplicationPolicy::new(cfg(), topo.clone()).unwrap());
        let (wal, image) = MetaWal::open(&dir, false, FLOOR).unwrap();
        let nn = NameNode::new(topo, policy, 1, Some(wal), image);
        for _ in 0..8 {
            nn.allocate_block().unwrap();
        }
        nn.checkpoint_now().unwrap();
        let bytes = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        let mut rng = ChaCha8::from_seed(3);
        for i in 0..40 * FLOOR {
            let (block, node) = (BlockId(rng.below(8)), NodeId(rng.below(32) as u32));
            match rng.below(2) {
                0 => nn.add_location(block, node).unwrap(),
                _ => drop(nn.drop_location(block, node).unwrap()),
            }
            widest = widest.max(frame(nn.locations(block).map_or(0, |l| l.len())));
            let bound = bytes(CHECKPOINT_FILE).max(FLOOR * widest) + widest;
            assert!(bytes(WAL_FILE) <= bound, "op {i}: log {} > {bound}", bytes(WAL_FILE));
        }
        let live = nn.snapshot();
        drop(nn);
        assert_eq!(MetaWal::open(&dir, false, FLOOR).unwrap().1, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a second thread meets a checkpoint in flight")]
    fn checkpoint_now_waits_for_the_checkpoint_in_flight() {
        // An explicit checkpoint shares the automatic ones' flight: while
        // one is in it, `checkpoint_now` waits, then writes its own. The
        // sleep only gives it time to reach the lock; a skip shows
        // regardless, as a log left uncompacted.
        let dir = tmp_dir();
        let nn = namenode(false, 1, Some(&dir));
        let wal = nn.wal.as_ref().unwrap();
        nn.allocate_block().unwrap();
        let (flight, _) = wal.flight.lock(Held::entry());
        std::thread::scope(|s| {
            let explicit = s.spawn(|| nn.checkpoint_now());
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!explicit.is_finished(), "checkpoint_now skipped the flight");
            drop(flight);
            explicit.join().unwrap().unwrap();
        });
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0, "log compacted");
        let live = nn.snapshot();
        drop(nn);
        let (_, recovered) = MetaWal::open(&dir, false, u64::MAX).unwrap();
        assert_eq!(recovered, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rebuilds_the_live_image() {
        // Seeded random sequences of every public mutator (no-op drops and
        // adds included) with checkpoints at random points: opening the
        // directory afterwards rebuilds the image the live NameNode held.
        prop::check("replay_rebuilds_the_live_image", 48, |rng| {
            let dir = tmp_dir();
            let nn = namenode(rng.below(2) == 0, rng.next_u64(), Some(&dir));
            let node = |rng: &mut ChaCha8| NodeId(rng.below(32) as u32);
            let mut taken: Vec<PendingStripe> = Vec::new();
            for _ in 0..prop::range(rng, 20..=160) {
                // Sometimes an id past every allocation: an unknown block.
                let block = BlockId(rng.below(nn.block_count() + 2));
                match rng.below(12) {
                    0..=4 => drop(nn.allocate_block().unwrap()),
                    5 => drop(nn.register_block(vec![node(rng)]).unwrap()),
                    6 => nn
                        .set_locations(block, vec![node(rng), NodeId(32)])
                        .unwrap(),
                    7 => nn.add_location(block, node(rng)).unwrap(),
                    8 => drop(nn.drop_location(block, node(rng)).unwrap()),
                    9 => taken.extend(nn.take_pending_stripes()),
                    10 => match taken.pop() {
                        Some(s) if rng.below(3) == 0 => nn.requeue_stripe(s),
                        Some(s) => {
                            let parity = vec![nn.register_block(vec![node(rng)]).unwrap()];
                            let (id, data) = (s.id, s.blocks);
                            nn.record_encoded(EncodedStripe { id, data, parity })
                                .unwrap();
                        }
                        None => {}
                    },
                    _ => nn.checkpoint_now().unwrap(),
                }
            }
            let live = nn.snapshot();
            drop(nn);
            let (_, recovered) = MetaWal::open(&dir, false, u64::MAX).unwrap();
            assert_eq!(recovered, live);
            assert_eq!(recovered.encode(), live.encode());
            // The loader and the dump are inverses.
            assert_eq!(namenode(false, 0, Some(&dir)).snapshot(), live);
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }
}
