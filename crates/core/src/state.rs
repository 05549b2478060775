//! Windowed tuple storage with a pluggable index.
//!
//! A *state* (§II) stores the live window of one stream's tuples and answers
//! search requests over its join attribute set. [`StateStore`] owns the
//! tuple arena and the sliding-window expiration queue; the actual lookup
//! acceleration is delegated to a [`StateIndex`] — the bit-address index,
//! the multi-hash baseline, or no index at all — so every experiment runs
//! the identical storage code and differs only in the index, mirroring the
//! paper's controlled comparison.

use crate::bitaddr::IngestStage;
use crate::cost::CostReceipt;
use crate::layout;
use crate::parallel::ShardExecutor;
use crate::tier::{BlockReadError, SpillEntry, SpillOutcome, SpillStats, SpillTier};
use amri_stream::{
    AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualTime, WindowBuffer, WindowSpec,
};

/// Key of a stored tuple within its state's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleKey(pub u32);

/// One shard's private result slot during a sharded search: hits and cost
/// charges accumulate here, then merge into the caller's scratch/receipt in
/// fixed shard order so sharded output is independent of task scheduling.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardSlot {
    /// Matches found inside this shard.
    pub(crate) hits: Vec<TupleKey>,
    /// Costs charged inside this shard.
    pub(crate) receipt: CostReceipt,
}

/// Caller-owned, reusable buffer a search writes its matches into.
///
/// The engine's inner loop serves millions of search requests; allocating a
/// fresh `Vec` per request dominated the index probe itself for selective
/// patterns. One `SearchScratch` per STeM amortizes that to zero: after
/// warm-up the buffer's capacity covers the steady-state match fan-out and
/// [`StateIndex::search_into`] never touches the allocator.
///
/// The scratch also carries the per-shard result slots a sharded index
/// fans out into (private; sized lazily on first sharded probe), so a
/// parallel search recycles the same buffers as a sequential one.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Matches of the most recent `search_into` call.
    pub hits: Vec<TupleKey>,
    /// Per-shard result slots for sharded searches (one per shard);
    /// buffers are reused across calls.
    shard_slots: Vec<ShardSlot>,
}

impl SearchScratch {
    /// New empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the hit buffer (avoids growth during warm-up).
    pub fn with_capacity(cap: usize) -> Self {
        SearchScratch {
            hits: Vec::with_capacity(cap),
            shard_slots: Vec::new(),
        }
    }

    /// Take the shard-slot buffers out (returned via
    /// [`put_shard_slots`](Self::put_shard_slots) so capacity is kept).
    pub(crate) fn take_shard_slots(&mut self) -> Vec<ShardSlot> {
        std::mem::take(&mut self.shard_slots)
    }

    /// Return the shard-slot buffers for reuse by the next sharded search.
    pub(crate) fn put_shard_slots(&mut self, slots: Vec<ShardSlot>) {
        self.shard_slots = slots;
    }
}

/// A pluggable index over one state's tuples.
///
/// Implementations receive the tuple's JAS-aligned values on insert/remove
/// and fill in a [`CostReceipt`] for every primitive action, so the engine
/// charges virtual time faithfully.
///
/// The engine drives every index through the *staged* hooks: the cost
/// charges and shard routing of an insert/remove happen at arrival time,
/// while a sharded index may defer the physical link/unlink work into an
/// [`IngestStage`] and replay it per shard in arrival order — inline or
/// fanned out across a worker pool. Because every operation touches
/// exactly one shard and each shard replays its own subsequence in the
/// original order, the applied structure is byte-identical to eager
/// sequential maintenance regardless of the executor. The hooks default to
/// the eager [`insert`](Self::insert)/[`remove`](Self::remove) primitives,
/// which is all an unsharded index needs: its stage stays empty.
///
/// Contract: the stage must be drained (applied) before any observation
/// of the index — searches, memory accounting, migration, snapshots —
/// and before the index is reconfigured.
pub trait StateIndex {
    /// Index a newly stored tuple, eagerly.
    fn insert(&mut self, key: TupleKey, jas_values: &AttrVec, receipt: &mut CostReceipt);

    /// Remove an expired tuple, eagerly.
    fn remove(&mut self, key: TupleKey, jas_values: &AttrVec, receipt: &mut CostReceipt);

    /// Charge the insertion of `key` now; the physical linking may be
    /// deferred into `stage` until [`apply_stage`](Self::apply_stage).
    fn stage_insert(
        &mut self,
        key: TupleKey,
        jas_values: &AttrVec,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let _ = stage;
        self.insert(key, jas_values, receipt);
    }

    /// Charge the removal of `key` now; the physical unlinking may be
    /// deferred into `stage` until [`apply_stage`](Self::apply_stage).
    fn stage_remove(
        &mut self,
        key: TupleKey,
        jas_values: &AttrVec,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let _ = stage;
        self.remove(key, jas_values, receipt);
    }

    /// Apply every staged operation, fanning the per-shard runs out
    /// through `exec`. Charges nothing — all costs were taken at stage
    /// time. Leaves the stage empty.
    fn apply_stage(&mut self, stage: &mut IngestStage, exec: &dyn ShardExecutor) {
        let _ = (stage, exec);
    }

    /// Find tuples matching `req` (equality on the specified attributes),
    /// writing them into `scratch.hits` (cleared first). A sharded index
    /// fans its per-shard walks out through `exec`; the stage must already
    /// be applied.
    ///
    /// Returns `true` when the index served the request; `false` when it
    /// cannot and the caller must scan the arena. Steady-state calls must
    /// not allocate: results go into the caller's reusable buffer.
    fn search_into(
        &self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) -> bool;

    /// Bytes this index currently occupies under the memory model.
    fn memory_bytes(&self) -> u64;

    /// Number of indexed entries (should equal the state's live tuples,
    /// possibly multiplied by the number of sub-indices).
    fn entries(&self) -> usize;

    /// Human-readable kind for reports.
    fn kind(&self) -> &'static str;
}

/// One arena slot's contents: a fully resident tuple, or the RAM stub of
/// a tuple whose attributes live in a disk spill block. The stub keeps
/// everything index probes, the scan fallback, and expiry need (arrival
/// time + inline JAS values), so only materializing a probe *hit* reads
/// the block.
#[derive(Debug, Clone, Copy)]
enum StoredTuple {
    /// Fully in RAM.
    Resident {
        /// The stored tuple.
        tuple: Tuple,
        /// Its JAS-aligned values, extracted at insert.
        jas_values: AttrVec,
    },
    /// Attributes spilled to disk; only the probe-relevant stub remains.
    Spilled {
        /// Tuple identity (needed to rebuild the tuple on materialize).
        id: TupleId,
        /// Arrival time (window membership).
        ts: VirtualTime,
        /// Inline JAS values (index/scan comparisons without disk).
        jas_values: AttrVec,
        /// Spill block holding the full attributes.
        block: u32,
    },
}

impl StoredTuple {
    #[inline]
    fn jas_values(&self) -> &AttrVec {
        match self {
            StoredTuple::Resident { jas_values, .. } | StoredTuple::Spilled { jas_values, .. } => {
                jas_values
            }
        }
    }

    #[inline]
    fn tuple(&self) -> Option<&Tuple> {
        match self {
            StoredTuple::Resident { tuple, .. } => Some(tuple),
            StoredTuple::Spilled { .. } => None,
        }
    }
}

/// A minimal slab allocator: stable `u32` keys, O(1) insert/remove, dense
/// iteration. (Local implementation per the dependency policy.)
#[derive(Debug, Clone, Default)]
struct Slab {
    slots: Vec<Option<StoredTuple>>,
    free: Vec<u32>,
    len: usize,
}

impl Slab {
    fn insert(&mut self, value: StoredTuple) -> TupleKey {
        self.len += 1;
        if let Some(k) = self.free.pop() {
            self.slots[k as usize] = Some(value);
            TupleKey(k)
        } else {
            self.slots.push(Some(value));
            TupleKey((self.slots.len() - 1) as u32)
        }
    }

    fn remove(&mut self, key: TupleKey) -> Option<StoredTuple> {
        let slot = self.slots.get_mut(key.0 as usize)?;
        let old = slot.take();
        if old.is_some() {
            self.len -= 1;
            self.free.push(key.0);
        }
        old
    }

    fn get(&self, key: TupleKey) -> Option<&StoredTuple> {
        self.slots.get(key.0 as usize)?.as_ref()
    }

    fn get_mut(&mut self, key: TupleKey) -> Option<&mut StoredTuple> {
        self.slots.get_mut(key.0 as usize)?.as_mut()
    }

    fn iter(&self) -> impl Iterator<Item = (TupleKey, &StoredTuple)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (TupleKey(i as u32), t)))
    }
}

/// The windowed, indexed store backing one join state.
#[derive(Debug, Clone)]
pub struct StateStore<I: ?Sized> {
    stream: StreamId,
    /// Schema attribute ids forming the JAS, in JAS-position order.
    jas: Vec<AttrId>,
    arena: Slab,
    window: WindowBuffer<TupleKey>,
    /// Payload bytes per tuple (schema-declared, memory accounting only).
    payload_bytes: u32,
    /// Reusable drain buffer for [`StateStore::expire_staged`] (borrow discipline:
    /// the window queue and the arena/index cannot be borrowed at once).
    expire_buf: Vec<TupleKey>,
    /// The disk spill tier, when enabled for this state.
    tier: Option<SpillTier>,
    /// Live slots currently spill-resident (stub in RAM, attrs on disk).
    spilled: usize,
    /// Reusable read plan of [`StateStore::materialize_batch`]: the
    /// distinct spill blocks behind one batch of hits, and the spilled
    /// hits themselves as `(slot in the batch, key, block)`.
    batch_blocks: Vec<u32>,
    batch_pending: Vec<(usize, TupleKey, u32)>,
    /// The index — the last field, so a `&StateStore<I>` unsizes to
    /// `&StateStore<dyn StateIndex>` wherever the index type is irrelevant.
    index: I,
}

impl<I: StateIndex> StateStore<I> {
    /// Build a state for `stream` whose JAS is `jas`, windowed by `window`,
    /// indexed by `index`.
    pub fn new(stream: StreamId, jas: Vec<AttrId>, window: WindowSpec, index: I) -> Self {
        StateStore {
            stream,
            jas,
            arena: Slab::default(),
            window: WindowBuffer::new(window),
            index,
            payload_bytes: 0,
            expire_buf: Vec::new(),
            tier: None,
            spilled: 0,
            batch_blocks: Vec::new(),
            batch_pending: Vec::new(),
        }
    }

    /// Declare per-tuple payload bytes for memory accounting.
    pub fn with_payload_bytes(mut self, bytes: u32) -> Self {
        self.payload_bytes = bytes;
        self
    }
}

impl<I: StateIndex + ?Sized> StateStore<I> {
    /// The stream this state stores.
    #[inline]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// JAS width.
    #[inline]
    pub fn jas_width(&self) -> usize {
        self.jas.len()
    }

    /// The JAS attribute ids in position order.
    #[inline]
    pub fn jas(&self) -> &[AttrId] {
        &self.jas
    }

    /// Number of live tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len
    }

    /// True iff no tuples are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.len == 0
    }

    /// Borrow the index.
    #[inline]
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Mutably borrow the index (used by migration).
    #[inline]
    pub fn index_mut(&mut self) -> &mut I {
        &mut self.index
    }

    /// Extract the JAS-aligned values from a tuple of this stream.
    pub fn jas_values(&self, tuple: &Tuple) -> AttrVec {
        self.jas.iter().map(|a| tuple.attrs[a.idx()]).collect()
    }

    /// The arena/window half of an arrival: claim a slot, queue the
    /// window entry, charge the base op. Sequential by design — slot
    /// assignment and window order are what every later step keys on.
    ///
    /// # Panics
    /// Panics if the tuple is from a different stream.
    fn admit(&mut self, tuple: Tuple, receipt: &mut CostReceipt) -> (TupleKey, AttrVec) {
        assert_eq!(tuple.stream, self.stream, "tuple from wrong stream");
        let jas_values = self.jas_values(&tuple);
        let key = self
            .arena
            .insert(StoredTuple::Resident { tuple, jas_values });
        self.window.push(tuple.ts, key);
        receipt.base_ops += 1;
        (key, jas_values)
    }

    /// Store an arriving tuple and index it eagerly — the stage-less
    /// convenience over [`insert_staged`](Self::insert_staged).
    ///
    /// # Panics
    /// Panics if the tuple is from a different stream.
    pub fn insert(&mut self, tuple: Tuple, receipt: &mut CostReceipt) -> TupleKey {
        let (key, jas_values) = self.admit(tuple, receipt);
        self.index.insert(key, &jas_values, receipt);
        key
    }

    /// Store an arriving tuple, charging full ingest cost now but staging
    /// the index linking for a later [`apply_staged`](Self::apply_staged).
    ///
    /// # Panics
    /// Panics if the tuple is from a different stream.
    pub fn insert_staged(
        &mut self,
        tuple: Tuple,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) -> TupleKey {
        let (key, jas_values) = self.admit(tuple, receipt);
        self.index.stage_insert(key, &jas_values, receipt, stage);
        key
    }

    /// Free `key`'s arena slot and stage its index removal — the shared
    /// tail of expiry and eviction. A spilled stub releases its block
    /// reference. Returns whether the key was live.
    fn retire(
        &mut self,
        key: TupleKey,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) -> bool {
        let Some(stored) = self.arena.remove(key) else {
            return false;
        };
        if let StoredTuple::Spilled { block, .. } = stored {
            self.spilled -= 1;
            if let Some(tier) = self.tier.as_mut() {
                tier.note_dropped(block);
            }
        }
        receipt.base_ops += 1;
        self.index
            .stage_remove(key, stored.jas_values(), receipt, stage);
        true
    }

    /// Expire every tuple that has slid out of the window at `now`;
    /// returns how many were removed. The window drains and the arena
    /// frees slots immediately (preserving free-list order), while the
    /// unlink work joins the stage *in order* — so a staged removal and a
    /// staged same-key re-insert within one batch replay exactly as they
    /// would have executed eagerly.
    pub fn expire_staged(
        &mut self,
        now: VirtualTime,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) -> usize {
        // Drain the expiration queue into the state-owned reusable buffer
        // (the window queue and the arena/index cannot be borrowed at
        // once). Steady state touches no allocator: the buffer's capacity
        // covers the per-tick expiry batch after warm-up.
        let mut expired = std::mem::take(&mut self.expire_buf);
        expired.clear();
        expired.extend(self.window.expire(now).map(|(_, k)| k));
        let mut removed = 0;
        for &key in &expired {
            removed += usize::from(self.retire(key, receipt, stage));
        }
        self.expire_buf = expired;
        removed
    }

    /// Arrival time of the oldest live tuple, if any — the eviction-order
    /// key a memory-pressure governor compares across states.
    #[inline]
    pub fn oldest_ts(&self) -> Option<VirtualTime> {
        self.window.oldest_ts()
    }

    /// Arrival time of the oldest tuple still fully in RAM — the victim
    /// key the tier policy compares across states when choosing where to
    /// spill next. Skips spill-resident stubs (promotion punches holes in
    /// the spilled prefix, so this walks rather than peeks).
    pub fn oldest_resident_ts(&self) -> Option<VirtualTime> {
        self.window.iter().find_map(|&(ts, key)| {
            matches!(self.arena.get(key), Some(StoredTuple::Resident { .. })).then_some(ts)
        })
    }

    /// Forcibly remove up to `max` of the **oldest** live tuples — the
    /// memory-pressure eviction path. Unlike
    /// [`expire_staged`](Self::expire_staged) this ignores the window:
    /// evicted tuples may still be live, trading recall for survival.
    /// Window pops and arena removals (and thus free-list order) stay
    /// sequential in eviction order; the unlinks join whatever `stage`
    /// already holds and the whole stage is applied through `exec`, so
    /// the index is observable again on return. Returns how many tuples
    /// were evicted.
    pub fn evict_oldest_with(
        &mut self,
        max: usize,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
        exec: &dyn ShardExecutor,
    ) -> usize {
        let mut evicted = 0;
        while evicted < max {
            let Some((_, key)) = self.window.pop_oldest() else {
                break;
            };
            evicted += usize::from(self.retire(key, receipt, stage));
        }
        self.index.apply_stage(stage, exec);
        evicted
    }

    /// Apply every staged index operation through `exec`. Charges nothing.
    pub fn apply_staged(&mut self, stage: &mut IngestStage, exec: &dyn ShardExecutor) {
        self.index.apply_stage(stage, exec);
    }

    /// Serve `req` — the one read entry. The stage must already be
    /// applied ([`apply_staged`](Self::apply_staged)).
    ///
    /// `scratch.hits` is cleared and then filled with the keys of matching
    /// live tuples, in canonical key order when an index served them. A
    /// sharded index fans its per-shard walks out through `exec`. Falls
    /// back to a full arena scan when the index cannot serve the request,
    /// charging two comparisons per live tuple — the §I-A "no suitable
    /// hash index exists" path. With nothing queued on the tier,
    /// steady-state calls do not allocate.
    ///
    /// Any readahead queued by [`schedule_readahead`] runs first, through
    /// the same `exec` ([`SpillTier::run_readahead`]).
    ///
    /// [`schedule_readahead`]: Self::schedule_readahead
    pub fn search(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
        debug_assert_eq!(req.pattern.n_attrs(), self.jas_width());
        if let Some(tier) = self.tier.as_mut() {
            tier.run_readahead(receipt, exec);
        }
        if !self.index.search_into(req, scratch, receipt, exec) {
            self.scan_into(req, &mut scratch.hits, receipt);
        }
    }

    /// The arena-scan fallback: compare every live tuple against `req`.
    fn scan_into(&self, req: &SearchRequest, hits: &mut Vec<TupleKey>, receipt: &mut CostReceipt) {
        hits.clear();
        let bound = req.bound();
        for (key, stored) in self.arena.iter() {
            // A full scan materializes the stored tuple and then
            // compares: twice the work of an in-bucket comparison
            // over inline JAS values (§I-A's "complete scans" are
            // what drown the few-index access modules).
            receipt.comparisons += 2;
            if bound.matches(stored.jas_values()) {
                hits.push(key);
            }
        }
    }

    /// The stored tuple for `key`, if live **and fully in RAM**. A
    /// spill-resident key returns `None`; use
    /// [`materialize`](Self::materialize) to read it back from disk.
    pub fn tuple(&self, key: TupleKey) -> Option<&Tuple> {
        self.arena.get(key).and_then(|s| s.tuple())
    }

    /// The stored JAS values for `key`, if live (spilled stubs included —
    /// JAS values never leave RAM).
    pub fn jas_of(&self, key: TupleKey) -> Option<&AttrVec> {
        self.arena.get(key).map(|s| s.jas_values())
    }

    /// Iterate over `(key, jas_values)` of live tuples (used by index
    /// migration and by tests). Spilled stubs participate: their JAS
    /// values are inline, so migration never touches disk.
    pub fn iter_jas(&self) -> impl Iterator<Item = (TupleKey, &AttrVec)> {
        self.arena.iter().map(|(k, s)| (k, s.jas_values()))
    }

    /// Bytes this state occupies in RAM: resident tuples at full cost
    /// (base + attrs + payload), spilled tuples at stub cost, plus the
    /// index, the window queue, and the tier's metadata table. Spilled
    /// attribute/payload bytes live on disk and are reported by
    /// [`disk_bytes`](Self::disk_bytes) instead.
    pub fn memory_bytes(&self) -> u64 {
        let per_tuple = layout::TUPLE_BASE_BYTES
            + layout::ATTR_BYTES * self.jas.len() as u64
            + self.payload_bytes as u64
            + 16; // window-queue slot
        let resident = (self.arena.len - self.spilled) as u64;
        let stub = layout::spilled_stub_bytes(self.jas.len()) + 16;
        let tier_meta = self.tier.as_ref().map_or(0, |t| t.meta_bytes());
        resident * per_tuple + self.spilled as u64 * stub + self.index.memory_bytes() + tier_meta
    }

    /// Attach a disk spill tier to this state. Call before any tuple is
    /// stored; the runtime enables spilling at engine construction.
    pub fn enable_spill(&mut self, tier: SpillTier) {
        self.tier = Some(tier);
    }

    /// The spill tier, when enabled.
    #[inline]
    pub fn tier(&self) -> Option<&SpillTier> {
        self.tier.as_ref()
    }

    /// The tier's replay-identical operation counters (zeros without a
    /// tier).
    pub fn spill_stats(&self) -> SpillStats {
        self.tier.as_ref().map(|t| *t.stats()).unwrap_or_default()
    }

    /// Live tuples currently spill-resident.
    #[inline]
    pub fn spilled_len(&self) -> usize {
        self.spilled
    }

    /// Fraction of live tuples that are spill-resident, in `[0, 1]` —
    /// what the tuner folds into the storage-aware `C_D`.
    pub fn spilled_frac(&self) -> f64 {
        if self.arena.len == 0 {
            0.0
        } else {
            self.spilled as f64 / self.arena.len as f64
        }
    }

    /// Bytes of live spilled data on disk (informational; not RAM).
    pub fn disk_bytes(&self) -> u64 {
        self.tier.as_ref().map_or(0, |t| t.disk_bytes())
    }

    /// Bytes the decoded-block cache currently holds (the `MemoryReport`
    /// cache column; `0` without a tier or with the cache disabled).
    pub fn cache_used_bytes(&self) -> u64 {
        self.tier.as_ref().map_or(0, SpillTier::cache_used_bytes)
    }

    /// Fraction of demand block fetches served from the cache, in
    /// `[0, 1]` — what the tuner folds into the warm-tier `C_D`.
    pub fn cache_hit_frac(&self) -> f64 {
        self.tier
            .as_ref()
            .map_or(0.0, |t| t.stats().cache_hit_frac())
    }

    /// Queue the expiry-order readahead plan: walk the window oldest
    /// first, collect up to `readahead_blocks` distinct live, uncached
    /// spill blocks, and hand them to the tier, which reads them at the
    /// next [`search`](Self::search). No-op without an enabled cache.
    pub fn schedule_readahead(&mut self) {
        let Some(tier) = self.tier.as_ref() else {
            return;
        };
        if !tier.cache_enabled() {
            return;
        }
        let max = tier.readahead_blocks() as usize;
        if max == 0 {
            return;
        }
        let mut plan: Vec<u32> = Vec::with_capacity(max);
        for &(_, key) in self.window.iter() {
            if plan.len() >= max {
                break;
            }
            if let Some(StoredTuple::Spilled { block, .. }) = self.arena.get(key) {
                if !plan.contains(block) && !tier.cached(*block) {
                    plan.push(*block);
                }
            }
        }
        self.tier
            .as_mut()
            .expect("tier checked above")
            .set_prefetch_plan(plan);
    }

    /// Spill up to `max` of the **oldest resident** tuples into one disk
    /// block, leaving probe-ready stubs behind. Walks the window in
    /// arrival order, skipping tuples that are already spilled. Returns
    /// how many tuples moved; `0` with no tier, nothing resident, or a
    /// persistently torn write (in which case every tuple simply stays
    /// resident — a torn block never loses data).
    pub fn spill_oldest(&mut self, max: usize, receipt: &mut CostReceipt) -> usize {
        if self.tier.is_none() || max == 0 {
            return 0;
        }
        let mut victims: Vec<TupleKey> = Vec::with_capacity(max);
        for &(_, key) in self.window.iter() {
            if victims.len() >= max {
                break;
            }
            if matches!(self.arena.get(key), Some(StoredTuple::Resident { .. })) {
                victims.push(key);
            }
        }
        if victims.is_empty() {
            return 0;
        }
        let mut body = crate::snapshot_io::SectionWriter::new();
        body.put_usize(victims.len());
        for &key in &victims {
            let Some(StoredTuple::Resident { tuple, .. }) = self.arena.get(key) else {
                unreachable!("victim vanished between walk and write");
            };
            body.put_u32(key.0);
            body.put_u64(tuple.id.0);
            body.put_time(tuple.ts);
            body.put_attrs(&tuple.attrs);
        }
        let written = self
            .tier
            .as_mut()
            .expect("tier checked above")
            .append_block(body, victims.len() as u32, receipt);
        match written {
            Ok(block) => {
                for &key in &victims {
                    if let Some(slot) = self.arena.get_mut(key) {
                        if let StoredTuple::Resident { tuple, jas_values } = *slot {
                            *slot = StoredTuple::Spilled {
                                id: tuple.id,
                                ts: tuple.ts,
                                jas_values,
                                block,
                            };
                            self.spilled += 1;
                        }
                    }
                }
                victims.len()
            }
            Err(_) => 0,
        }
    }

    /// Promote the hottest spill block (most materialization reads, at
    /// least `min_reads`) back to RAM, rebuilding full tuples from the
    /// block and retiring it. A block that fails to read is purged
    /// instead: its stubs are removed and counted as lost.
    pub fn promote_hottest(&mut self, min_reads: u32, receipt: &mut CostReceipt) -> SpillOutcome {
        let Some(block) = self.tier.as_ref().and_then(|t| t.hottest_block(min_reads)) else {
            return SpillOutcome::default();
        };
        let fetched = self
            .tier
            .as_mut()
            .expect("tier checked above")
            .fetch_entries(block, receipt);
        let entries: Vec<SpillEntry> = match fetched {
            Ok(entries) => entries.to_vec(),
            Err(BlockReadError::Gone) => return SpillOutcome::default(),
            Err(_) => {
                return SpillOutcome {
                    moved: 0,
                    lost: self.purge_block(block, receipt),
                }
            }
        };
        let promoted = self.rebuild_from_entries(block, &entries);
        let tier = self.tier.as_mut().expect("tier checked above");
        tier.mark_dead(block, false);
        tier.note_promoted(promoted as u64);
        SpillOutcome {
            moved: promoted,
            lost: 0,
        }
    }

    /// Convert a decoded block's still-live stubs back to resident tuples.
    fn rebuild_from_entries(&mut self, block: u32, entries: &[SpillEntry]) -> usize {
        let mut promoted = 0;
        for e in entries {
            if let Some(slot) = self.arena.get_mut(e.key) {
                if let StoredTuple::Spilled {
                    id: sid,
                    jas_values,
                    block: b,
                    ..
                } = *slot
                {
                    if b == block && sid == e.id {
                        *slot = StoredTuple::Resident {
                            tuple: Tuple::new(e.id, self.stream, e.ts, e.attrs),
                            jas_values,
                        };
                        self.spilled -= 1;
                        promoted += 1;
                    }
                }
            }
        }
        promoted
    }

    /// Read the full tuple behind `key`, from RAM or from its spill
    /// block. `Ok(None)` for a dead key.
    ///
    /// # Errors
    /// When the block is lost (double injected read error, checksum
    /// corruption, or a real filesystem failure), every stub of that
    /// block — `key` included — is purged from the state and the number
    /// of tuples lost is returned; the caller converts that into a typed
    /// degradation instead of a panic.
    pub fn materialize(
        &mut self,
        key: TupleKey,
        receipt: &mut CostReceipt,
    ) -> Result<Option<Tuple>, usize> {
        let block = match self.arena.get(key) {
            None => return Ok(None),
            Some(StoredTuple::Resident { tuple, .. }) => return Ok(Some(*tuple)),
            Some(StoredTuple::Spilled { block, .. }) => *block,
        };
        let stream = self.stream;
        let fetched = self
            .tier
            .as_mut()
            .expect("spilled slot requires a tier")
            .fetch_entries(block, receipt);
        let found = match fetched {
            Ok(entries) => entries.iter().find(|e| e.key == key).copied(),
            Err(_) => return Err(self.purge_block(block, receipt)),
        };
        match found {
            Some(e) => Ok(Some(Tuple::new(e.id, stream, e.ts, e.attrs))),
            // The frame verified but does not hold this key: the
            // metadata and the file disagree — treat as corruption.
            None => Err(self.purge_block(block, receipt)),
        }
    }

    /// Materialize a batch of probe hits into `out` (parallel to `keys`),
    /// coalescing the spill reads. With the block cache enabled the keys
    /// are classified once — resident tuples straight into `out`, spilled
    /// ones onto a pending list — and each distinct block behind the
    /// pending keys, in first-occurrence order, is fetched **once**
    /// through [`SpillTier::fetch_batch`] and serves every pending key it
    /// holds from that one fetch. Without a cache this is exactly the
    /// per-key [`materialize`](Self::materialize) sequence — same reads,
    /// same fault-coin stream, same receipts — so cacheless runs stay
    /// byte-identical to the pre-cache engine.
    ///
    /// Returns the number of tuples lost to failed block reads (those
    /// keys' slots in `out` are `None`, as are dead keys').
    pub fn materialize_batch(
        &mut self,
        keys: &[TupleKey],
        out: &mut Vec<Option<Tuple>>,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) -> usize {
        out.clear();
        out.reserve(keys.len());
        let mut lost = 0;
        if !self.tier.as_ref().is_some_and(SpillTier::cache_enabled) {
            // The plain PR 8 read sequence.
            for &key in keys {
                match self.materialize(key, receipt) {
                    Ok(t) => out.push(t),
                    Err(n) => {
                        lost += n;
                        out.push(None);
                    }
                }
            }
            return lost;
        }
        let mut pending = std::mem::take(&mut self.batch_pending);
        let mut blocks = std::mem::take(&mut self.batch_blocks);
        for (slot, &key) in keys.iter().enumerate() {
            out.push(match self.arena.get(key) {
                None => None,
                Some(StoredTuple::Resident { tuple, .. }) => Some(*tuple),
                Some(StoredTuple::Spilled { block, .. }) => {
                    pending.push((slot, key, *block));
                    if !blocks.contains(block) {
                        blocks.push(*block);
                    }
                    None
                }
            });
        }
        if !blocks.is_empty() {
            let stream = self.stream;
            let tier = self.tier.as_mut().expect("cache implies a tier");
            // Hits beyond the first per block are the reads coalescing
            // saved.
            tier.note_coalesced((pending.len() - blocks.len()) as u64);
            // A verified frame that lacks a key its stub points at: the
            // metadata and the file disagree — treat as corruption.
            let mut disagreeing = Vec::new();
            let failed = tier.fetch_batch(&blocks, receipt, exec, &mut |block, entries| {
                let (mut served, mut complete) = (0, true);
                for &(slot, key, _) in pending.iter().filter(|p| p.2 == block) {
                    match entries.iter().find(|e| e.key == key) {
                        Some(e) => {
                            out[slot] = Some(Tuple::new(e.id, stream, e.ts, e.attrs));
                            served += 1;
                        }
                        None => complete = false,
                    }
                }
                if !complete {
                    disagreeing.push(block);
                }
                served
            });
            for block in failed.into_iter().map(|(b, _)| b).chain(disagreeing) {
                lost += self.purge_block(block, receipt);
            }
        }
        pending.clear();
        blocks.clear();
        self.batch_pending = pending;
        self.batch_blocks = blocks;
        lost
    }

    /// Drop every stub referencing `block` — the typed-degradation path
    /// for a lost block. Stubs are unindexed through the normal `remove`
    /// path and pulled from the window queue; the block is marked dead.
    /// Returns how many tuples were lost.
    pub fn purge_block(&mut self, block: u32, receipt: &mut CostReceipt) -> usize {
        let victims: Vec<TupleKey> = self
            .arena
            .iter()
            .filter_map(|(k, s)| match s {
                StoredTuple::Spilled { block: b, .. } if *b == block => Some(k),
                _ => None,
            })
            .collect();
        for &key in &victims {
            if let Some(stored) = self.arena.remove(key) {
                receipt.base_ops += 1;
                self.index.remove(key, stored.jas_values(), receipt);
                self.spilled -= 1;
            }
        }
        if !victims.is_empty() {
            self.window.retain(|key| !victims.contains(key));
        }
        if let Some(tier) = self.tier.as_mut() {
            tier.mark_dead(block, true);
        }
        victims.len()
    }

    /// Serialize the stored contents — arena slots verbatim (holes and
    /// free-list order included, so restored [`TupleKey`]s and future slot
    /// reuse match the original exactly) plus the window queue. The index
    /// is saved separately by its concrete type; construction-time
    /// configuration (stream, JAS, window spec, payload bytes) is not
    /// captured.
    pub fn save_state(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("STATE");
        w.put_usize(self.arena.slots.len());
        for slot in &self.arena.slots {
            // Per-slot tag: 0 empty, 1 resident, 2 spilled stub.
            match slot {
                Some(StoredTuple::Resident { tuple, jas_values }) => {
                    w.put_u8(1);
                    w.put_u64(tuple.id.0);
                    w.put_u16(tuple.stream.0);
                    w.put_time(tuple.ts);
                    w.put_attrs(&tuple.attrs);
                    w.put_attrs(jas_values);
                }
                Some(StoredTuple::Spilled {
                    id,
                    ts,
                    jas_values,
                    block,
                }) => {
                    w.put_u8(2);
                    w.put_u64(id.0);
                    w.put_time(*ts);
                    w.put_attrs(jas_values);
                    w.put_u32(*block);
                }
                None => w.put_u8(0),
            }
        }
        w.put_usize(self.arena.free.len());
        for &k in &self.arena.free {
            w.put_u32(k);
        }
        self.window.save_items(w, |w, key| w.put_u32(key.0));
        // Tier subsection: metadata, coin stream, and live block contents,
        // so a restore rebuilds the block file at exactly this step.
        w.put_bool(self.tier.is_some());
        if let Some(tier) = &self.tier {
            tier.save(w);
        }
    }

    /// Overwrite this state's stored contents from a
    /// [`save_state`](Self::save_state)d section. The receiver must be
    /// freshly constructed with the original configuration; the index is
    /// restored separately.
    pub fn restore_state(
        &mut self,
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<(), crate::snapshot_io::SnapshotError> {
        use crate::snapshot_io::SnapshotError;
        crate::snapshot_io::expect_tag(r, "STATE")?;
        let n_slots = r.get_usize()?;
        let mut arena = Slab::default();
        let mut spilled = 0usize;
        for _ in 0..n_slots {
            match r.get_u8()? {
                1 => {
                    let id = TupleId(r.get_u64()?);
                    let stream = StreamId(r.get_u16()?);
                    let ts = r.get_time()?;
                    let attrs = r.get_attrs()?;
                    let jas_values = r.get_attrs()?;
                    arena.slots.push(Some(StoredTuple::Resident {
                        tuple: Tuple::new(id, stream, ts, attrs),
                        jas_values,
                    }));
                    arena.len += 1;
                }
                2 => {
                    let id = TupleId(r.get_u64()?);
                    let ts = r.get_time()?;
                    let jas_values = r.get_attrs()?;
                    let block = r.get_u32()?;
                    arena.slots.push(Some(StoredTuple::Spilled {
                        id,
                        ts,
                        jas_values,
                        block,
                    }));
                    arena.len += 1;
                    spilled += 1;
                }
                0 => arena.slots.push(None),
                tag => {
                    return Err(SnapshotError::Malformed(format!(
                        "unknown arena slot tag {tag}"
                    )))
                }
            }
        }
        let n_free = r.get_usize()?;
        for _ in 0..n_free {
            let k = r.get_u32()?;
            if k as usize >= n_slots || arena.slots[k as usize].is_some() {
                return Err(SnapshotError::Malformed(format!(
                    "free-list slot {k} is not an empty arena slot"
                )));
            }
            arena.free.push(k);
        }
        if arena.len + arena.free.len() != n_slots {
            return Err(SnapshotError::Malformed(format!(
                "arena {} live + {} free != {n_slots} slots",
                arena.len,
                arena.free.len()
            )));
        }
        let window = amri_stream::WindowBuffer::load_items(self.window.spec(), r, |r| {
            Ok(TupleKey(r.get_u32()?))
        })?;
        let has_tier = r.get_bool()?;
        match (self.tier.as_mut(), has_tier) {
            (Some(tier), true) => tier.restore_from(r)?,
            (None, true) => {
                return Err(SnapshotError::Malformed(
                    "snapshot carries a spill tier but this state has none configured".into(),
                ))
            }
            // A snapshot without a tier restores into a (fresh, empty)
            // tier or into a tierless state unchanged; with no spilled
            // slots there is nothing to reconcile.
            (_, false) => {}
        }
        self.arena = arena;
        self.window = window;
        self.spilled = spilled;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::SequentialExecutor;
    use crate::scan::ScanIndex;
    use amri_stream::{AccessPattern, TupleId};

    fn mk_tuple(id: u64, ts_secs: u64, attrs: &[u64]) -> Tuple {
        Tuple::new(
            TupleId(id),
            StreamId(0),
            VirtualTime::from_secs(ts_secs),
            AttrVec::from_slice(attrs).unwrap(),
        )
    }

    fn store() -> StateStore<ScanIndex> {
        // JAS = schema attrs 0 and 2 (attr 1 is payload-only).
        StateStore::new(
            StreamId(0),
            vec![AttrId(0), AttrId(2)],
            WindowSpec::secs(10),
            ScanIndex::new(),
        )
    }

    // A scan index never defers work, so these helpers hand the store a
    // throwaway stage that stays empty.

    fn search_vec(
        s: &mut StateStore<ScanIndex>,
        req: &SearchRequest,
        r: &mut CostReceipt,
    ) -> Vec<TupleKey> {
        let mut scratch = SearchScratch::new();
        s.search(req, &mut scratch, r, &SequentialExecutor);
        scratch.hits
    }

    fn expire(s: &mut StateStore<ScanIndex>, secs: u64, r: &mut CostReceipt) -> usize {
        s.expire_staged(VirtualTime::from_secs(secs), r, &mut IngestStage::new())
    }

    fn evict(s: &mut StateStore<ScanIndex>, max: usize, r: &mut CostReceipt) -> usize {
        s.evict_oldest_with(max, r, &mut IngestStage::new(), &SequentialExecutor)
    }

    #[test]
    fn insert_search_expire_lifecycle() {
        let mut s = store();
        let mut r = CostReceipt::new();
        let k1 = s.insert(mk_tuple(1, 0, &[5, 99, 7]), &mut r);
        let k2 = s.insert(mk_tuple(2, 1, &[5, 98, 8]), &mut r);
        assert_eq!(s.len(), 2);
        assert!(r.base_ops >= 2);

        // Search on JAS pos 0 (schema attr 0) = 5 → both.
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[0], 2).unwrap(),
            AttrVec::from_slice(&[5, 0]).unwrap(),
        );
        let mut r = CostReceipt::new();
        let hits = search_vec(&mut s, &req, &mut r);
        assert_eq!(hits.len(), 2);
        assert_eq!(r.comparisons, 4, "scan charges two comparisons per tuple");

        // Search on both JAS positions → only the tuple with attr2 == 7.
        let req = SearchRequest::new(
            AccessPattern::full(2),
            AttrVec::from_slice(&[5, 7]).unwrap(),
        );
        let hits = search_vec(&mut s, &req, &mut CostReceipt::new());
        assert_eq!(hits, vec![k1]);

        // Expire: window 10s (half-open); at t=10 only the t=0 tuple is gone.
        let mut r = CostReceipt::new();
        let removed = expire(&mut s, 10, &mut r);
        assert_eq!(removed, 1);
        assert_eq!(s.len(), 1);
        assert!(s.tuple(k1).is_none());
        assert!(s.tuple(k2).is_some());

        // Search no longer sees the expired tuple.
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[0], 2).unwrap(),
            AttrVec::from_slice(&[5, 0]).unwrap(),
        );
        assert_eq!(search_vec(&mut s, &req, &mut CostReceipt::new()).len(), 1);
    }

    #[test]
    fn jas_extraction_picks_declared_attributes() {
        let s = store();
        let t = mk_tuple(1, 0, &[10, 20, 30]);
        let jas = s.jas_values(&t);
        assert_eq!(jas.as_slice(), &[10, 30], "attrs 0 and 2");
    }

    #[test]
    #[should_panic(expected = "wrong stream")]
    fn rejects_foreign_tuples() {
        let mut s = store();
        let t = Tuple::new(
            TupleId(1),
            StreamId(3),
            VirtualTime::ZERO,
            AttrVec::from_slice(&[1, 2, 3]).unwrap(),
        );
        s.insert(t, &mut CostReceipt::new());
    }

    #[test]
    fn slab_reuses_slots() {
        let mut s = store();
        let mut r = CostReceipt::new();
        let k1 = s.insert(mk_tuple(1, 0, &[1, 0, 1]), &mut r);
        expire(&mut s, 20, &mut r);
        let k2 = s.insert(mk_tuple(2, 21, &[2, 0, 2]), &mut r);
        assert_eq!(k1, k2, "freed slot must be reused");
        assert_eq!(s.len(), 1);
        assert_eq!(s.jas_of(k2).unwrap().as_slice(), &[2, 2]);
    }

    #[test]
    fn memory_grows_with_tuples_and_shrinks_on_expiry() {
        let mut s = store().with_payload_bytes(100);
        let empty = s.memory_bytes();
        let mut r = CostReceipt::new();
        for i in 0..10 {
            s.insert(mk_tuple(i, 0, &[i, 0, i]), &mut r);
        }
        let full = s.memory_bytes();
        assert!(full > empty + 10 * 100, "payload must be accounted");
        expire(&mut s, 20, &mut r);
        assert_eq!(s.memory_bytes(), empty);
    }

    #[test]
    fn full_scan_on_empty_pattern_matches_everything() {
        let mut s = store();
        let mut r = CostReceipt::new();
        for i in 0..5 {
            s.insert(mk_tuple(i, 0, &[i, 0, i]), &mut r);
        }
        let req = SearchRequest::new(
            AccessPattern::empty(2),
            AttrVec::from_slice(&[0, 0]).unwrap(),
        );
        assert_eq!(search_vec(&mut s, &req, &mut CostReceipt::new()).len(), 5);
    }

    #[test]
    fn evict_oldest_removes_live_tuples_front_first() {
        let mut s = store();
        let mut r = CostReceipt::new();
        let keys: Vec<TupleKey> = (0..5)
            .map(|i| s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r))
            .collect();
        assert_eq!(s.oldest_ts(), Some(VirtualTime::from_secs(0)));
        // All five are live under the 10 s window; evict the two oldest.
        let mut r = CostReceipt::new();
        assert_eq!(evict(&mut s, 2, &mut r), 2);
        assert!(r.base_ops >= 2, "eviction charges the removal cost");
        assert_eq!(s.len(), 3);
        assert!(s.tuple(keys[0]).is_none());
        assert!(s.tuple(keys[1]).is_none());
        assert!(s.tuple(keys[2]).is_some());
        assert_eq!(s.oldest_ts(), Some(VirtualTime::from_secs(2)));
        // Searches no longer see the evicted tuples.
        let req = SearchRequest::new(
            AccessPattern::empty(2),
            AttrVec::from_slice(&[0, 0]).unwrap(),
        );
        assert_eq!(search_vec(&mut s, &req, &mut CostReceipt::new()).len(), 3);
        // Asking for more than remain drains the state and stops cleanly.
        assert_eq!(evict(&mut s, 100, &mut CostReceipt::new()), 3);
        assert!(s.is_empty());
        assert_eq!(s.oldest_ts(), None);
        assert_eq!(evict(&mut s, 1, &mut CostReceipt::new()), 0);
    }

    fn spill_store(tag: &str, faults: crate::tier::IoFaultConfig) -> StateStore<ScanIndex> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("amri-state-spill-{}-{tag}-{n}", std::process::id()));
        spill_store_in(dir, faults, 0)
    }

    /// A store whose tier keeps its blocks in `dir/s0.blocks`.
    fn spill_store_in(
        dir: std::path::PathBuf,
        faults: crate::tier::IoFaultConfig,
        cache_bytes: u64,
    ) -> StateStore<ScanIndex> {
        let tier = SpillTier::create(&crate::tier::SpillConfig {
            dir,
            file_name: "s0.blocks".into(),
            profile: crate::cost::StorageProfile::default(),
            faults,
            seed: 11,
            cache_bytes,
        })
        .unwrap();
        let mut s = store().with_payload_bytes(64);
        s.enable_spill(tier);
        s
    }

    #[test]
    fn spill_keeps_probes_serving_and_materialize_round_trips() {
        let mut s = spill_store("rt", crate::tier::IoFaultConfig::default());
        let mut r = CostReceipt::new();
        let keys: Vec<TupleKey> = (0..6)
            .map(|i| s.insert(mk_tuple(i, i, &[i % 2, 0, i]), &mut r))
            .collect();
        let full_mem = s.memory_bytes();

        // Spill the three oldest; stubs keep searches working disk-free.
        assert_eq!(s.spill_oldest(3, &mut r), 3);
        assert_eq!(s.spilled_len(), 3);
        assert!((s.spilled_frac() - 0.5).abs() < 1e-12);
        assert!(s.memory_bytes() < full_mem, "spilling must free RAM");
        assert!(s.disk_bytes() > 0);
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[0], 2).unwrap(),
            AttrVec::from_slice(&[0, 0]).unwrap(),
        );
        let hits = search_vec(&mut s, &req, &mut CostReceipt::new());
        assert_eq!(hits.len(), 3, "spilled stubs still match searches");

        // Resident key: tuple() works; spilled key: tuple() is None but
        // materialize reads it back intact.
        assert!(s.tuple(keys[5]).is_some());
        assert!(s.tuple(keys[0]).is_none());
        let t0 = s.materialize(keys[0], &mut r).unwrap().unwrap();
        assert_eq!(t0.id.0, 0);
        assert_eq!(t0.attrs.as_slice(), &[0, 0, 0]);
        assert_eq!(s.spill_stats().blocks_read, 1);

        // Oldest *resident* skips the spilled prefix.
        assert_eq!(s.oldest_ts(), Some(VirtualTime::from_secs(0)));
        assert_eq!(s.oldest_resident_ts(), Some(VirtualTime::from_secs(3)));

        // Promotion brings the hot block home and restores full residency.
        let out = s.promote_hottest(1, &mut r);
        assert_eq!(out, SpillOutcome { moved: 3, lost: 0 });
        assert_eq!(s.spilled_len(), 0);
        // Footprint returns to full residency plus the (permanent) block
        // metadata slot.
        assert_eq!(s.memory_bytes(), full_mem + layout::BLOCK_META_BYTES);
        assert!(s.tuple(keys[0]).is_some());
        assert_eq!(s.tuple(keys[0]).unwrap().attrs.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn spilled_stubs_expire_without_disk_reads() {
        let mut s = spill_store("exp", crate::tier::IoFaultConfig::default());
        let mut r = CostReceipt::new();
        for i in 0..4 {
            s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r);
        }
        assert_eq!(s.spill_oldest(2, &mut r), 2);
        let reads_before = s.spill_stats().blocks_read;
        // Window is 10 s: at t=11 the two spilled (t=0,1) and nothing else
        // expire; expiry of stubs must not read the block.
        assert_eq!(expire(&mut s, 11, &mut r), 2);
        assert_eq!(s.spilled_len(), 0);
        assert_eq!(s.spill_stats().blocks_read, reads_before);
        // The block is now dead and cannot be promoted.
        assert_eq!(s.promote_hottest(0, &mut r), SpillOutcome::default());
    }

    #[test]
    fn lost_block_purges_stubs_as_typed_loss() {
        let faults = crate::tier::IoFaultConfig {
            read_error_prob: 1.0,
            ..Default::default()
        };
        let mut s = spill_store("lost", faults);
        let mut r = CostReceipt::new();
        for i in 0..5 {
            s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r);
        }
        assert_eq!(s.spill_oldest(3, &mut r), 3);
        let victim = TupleKey(0);
        let lost = s.materialize(victim, &mut r).unwrap_err();
        assert_eq!(lost, 3, "the whole block's stubs are purged");
        assert_eq!(s.len(), 2);
        assert_eq!(s.spilled_len(), 0);
        assert_eq!(s.spill_stats().lost_blocks, 1);
        // Window no longer holds the purged keys; searches agree.
        let req = SearchRequest::new(
            AccessPattern::empty(2),
            AttrVec::from_slice(&[0, 0]).unwrap(),
        );
        assert_eq!(search_vec(&mut s, &req, &mut CostReceipt::new()).len(), 2);
        // The purged key is dead now.
        assert_eq!(s.materialize(victim, &mut CostReceipt::new()), Ok(None));
    }

    #[test]
    fn block_corrupted_under_the_open_handle_is_purged() {
        let dir = std::env::temp_dir().join(format!("amri-state-corrupt-{}", std::process::id()));
        let mut s = spill_store_in(dir.clone(), Default::default(), 1 << 20);
        let mut r = CostReceipt::new();
        let keys: Vec<TupleKey> = (0..5)
            .map(|i| s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r))
            .collect();
        assert_eq!(s.spill_oldest(3, &mut r), 3);
        // The tier has held its handle since `create`; flip the block's
        // last byte on disk behind it.
        let file = dir.join("s0.blocks");
        let mut raw = std::fs::read(&file).unwrap();
        *raw.last_mut().unwrap() ^= 0x01;
        std::fs::write(&file, &raw).unwrap();
        let mut out = Vec::new();
        let lost = s.materialize_batch(
            &keys,
            &mut out,
            &mut r,
            &crate::parallel::SequentialExecutor,
        );
        assert_eq!(lost, 3, "the whole block's stubs are purged");
        assert_eq!(s.spill_stats().lost_blocks, 1);
        assert_eq!(s.spilled_len(), 0);
        assert_eq!(s.disk_bytes(), 0);
        assert_eq!(s.cache_used_bytes(), 0, "a corrupt block is never cached");
        assert!(out[..3].iter().all(Option::is_none));
        assert!(out[3..].iter().all(Option::is_some));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_batch_wider_than_the_cache_reads_each_cold_block_once_and_serves_every_key() {
        let tmp = |tag: &str| {
            std::env::temp_dir().join(format!("amri-state-wide-{}-{tag}", std::process::id()))
        };
        // Twelve tuples in four blocks of three; `cache_bytes` of budget.
        let load = |tag: &str, cache_bytes: u64| {
            let mut s = spill_store_in(tmp(tag), Default::default(), cache_bytes);
            let mut r = CostReceipt::new();
            for i in 0..12 {
                s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r);
            }
            for _ in 0..4 {
                assert_eq!(s.spill_oldest(3, &mut r), 3);
            }
            s
        };
        let frame = u64::from(load("probe", 0).tier().unwrap().block(0).unwrap().len);
        let mut cached = load("cached", 2 * frame);
        let mut plain = load("plain", 0);
        // Every key, striped across the four blocks.
        let keys: Vec<TupleKey> = (0..3)
            .flat_map(|k| (0..4).map(move |b| TupleKey(3 * b + k)))
            .collect();
        let exec = &crate::parallel::SequentialExecutor;
        let (mut out, mut want) = (Vec::new(), Vec::new());
        let mut r = CostReceipt::new();
        assert_eq!(plain.materialize_batch(&keys, &mut want, &mut r, exec), 0);
        assert!(want.iter().all(Option::is_some));

        // All four blocks cold, room for two: four device reads, each
        // serving its three keys before a later admission displaces it.
        assert_eq!(cached.materialize_batch(&keys, &mut out, &mut r, exec), 0);
        assert_eq!(
            out, want,
            "cached and cacheless materialize the same tuples"
        );
        let st = cached.spill_stats();
        assert_eq!(
            (st.cache_misses, st.cache_hits, st.cache_evictions),
            (4, 12, 2)
        );
        assert_eq!((st.blocks_read, st.coalesced_reads), (12, 8));
        assert!(cached.cache_used_bytes() <= 2 * frame);

        // Again: blocks 2 and 3 are resident and serve first; only the two
        // cold ones are read. (The parent, whose water marks kept one block
        // of this budget, took sixteen device reads for the first batch —
        // four preloads, then every key a miss — and fifteen for the
        // second: 31 misses, 30 evictions, no hit.)
        assert_eq!(cached.materialize_batch(&keys, &mut out, &mut r, exec), 0);
        assert_eq!(out, want);
        let st = cached.spill_stats();
        assert_eq!(
            (st.cache_misses, st.cache_hits, st.cache_evictions),
            (6, 24, 4)
        );
        assert_eq!(
            st.blocks_read,
            plain.spill_stats().blocks_read * 2,
            "demand counters are cache-invariant"
        );
        for tag in ["probe", "cached", "plain"] {
            let _ = std::fs::remove_dir_all(tmp(tag));
        }
    }

    #[test]
    fn torn_spill_keeps_tuples_resident() {
        let faults = crate::tier::IoFaultConfig {
            torn_write_prob: 1.0,
            ..Default::default()
        };
        let mut s = spill_store("torn", faults);
        let mut r = CostReceipt::new();
        for i in 0..3 {
            s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r);
        }
        assert_eq!(s.spill_oldest(2, &mut r), 0, "torn write aborts the spill");
        assert_eq!(s.spilled_len(), 0);
        assert_eq!(s.len(), 3, "no data lost");
        assert!(s.spill_stats().torn_writes > 0);
    }

    #[test]
    fn snapshot_round_trips_spilled_state() {
        let mut s = spill_store("snap", crate::tier::IoFaultConfig::default());
        let mut r = CostReceipt::new();
        for i in 0..6 {
            s.insert(mk_tuple(i, i, &[i % 2, 0, i]), &mut r);
        }
        assert_eq!(s.spill_oldest(3, &mut r), 3);
        let _ = s.materialize(TupleKey(1), &mut r); // heat + coin draws
        let mut w = crate::snapshot_io::SectionWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut twin = spill_store("snap-twin", crate::tier::IoFaultConfig::default());
        let mut rd = crate::snapshot_io::SectionReader::new(&bytes);
        twin.restore_state(&mut rd).unwrap();
        assert_eq!(twin.len(), s.len());
        assert_eq!(twin.spilled_len(), s.spilled_len());
        assert_eq!(twin.spill_stats(), s.spill_stats());
        assert_eq!(twin.memory_bytes(), s.memory_bytes());
        // The rebuilt block file serves the same data.
        let a = s.materialize(TupleKey(2), &mut CostReceipt::new());
        let b = twin.materialize(TupleKey(2), &mut CostReceipt::new());
        assert_eq!(a, b);
        assert!(matches!(a, Ok(Some(_))));
    }
}
