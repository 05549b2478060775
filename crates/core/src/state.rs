//! Windowed tuple storage with a pluggable index.
//!
//! A *state* (§II) stores the live window of one stream's tuples and answers
//! search requests over its join attribute set. [`StateStore`] owns the
//! tuple arena and the sliding-window expiration queue; the actual lookup
//! acceleration is delegated to a [`StateIndex`] — the bit-address index,
//! the multi-hash baseline, or no index at all — so every experiment runs
//! the identical storage code and differs only in the index, mirroring the
//! paper's controlled comparison.

use crate::config::{value_tag, TagFilter};
use crate::cost::CostReceipt;
use crate::layout;
use crate::parallel::ShardExecutor;
use crate::tier::{
    BlockReadError, BlockWriteError, SpillEntry, SpillOutcome, SpillStats, SpillTier,
};
use amri_stream::{
    AttrId, AttrValue, AttrVec, BoundValues, SearchRequest, StreamId, Tuple, TupleId, VirtualTime,
    WindowBuffer, WindowSpec, MAX_ATTRS,
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
/// charges virtual time faithfully. An insert or remove links or unlinks
/// its entry in the call that charges it, so every later search sees it.
pub trait StateIndex {
    /// Index a newly stored tuple.
    fn insert(&mut self, key: TupleKey, jas_values: &[AttrValue], receipt: &mut CostReceipt);

    /// Remove an expired or evicted tuple.
    fn remove(&mut self, key: TupleKey, jas_values: &[AttrValue], receipt: &mut CostReceipt);

    /// Find tuples matching `req` (equality on the specified attributes),
    /// writing them into `scratch.hits` (cleared first) in any order:
    /// [`StateStore::search`] sorts them. A sharded index fans its
    /// per-shard walks out through `exec`.
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
}

/// Where an arena slot's tuple lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// No tuple: the slot is on the free list.
    Free,
    /// Every value is in the stride.
    Resident,
    /// Only the JAS values are in the stride — what index probes, the
    /// scan fallback and expiry need — and the whole tuple is in this
    /// spill block, read only to materialize a probe *hit*.
    Spilled(u32),
}

/// The fixed part of one arena slot. Its values sit at the slot's
/// position of the arena's value stride.
#[derive(Debug, Clone, Copy)]
struct SlotHead {
    id: TupleId,
    ts: VirtualTime,
    at: Residence,
}

const FREE_HEAD: SlotHead = SlotHead {
    id: TupleId(0),
    ts: VirtualTime::ZERO,
    at: Residence::Free,
};

/// Slots per block of the arena scan's tag test.
const SCAN_BLOCK: usize = 16;

/// The tuple arena: a slab of fixed slot heads with stable `u32` keys and
/// O(1) insert/remove, beside one flat value stride of `order.len()`
/// values per slot and one dense column of value tags. A stored tuple's
/// values are stored once, JAS first, so the JAS values of any slot are a
/// borrowed prefix; its tag is the [`value_tag`] of that prefix, written
/// with it, so the scan tests four bytes per slot before it reads a row.
#[derive(Debug, Clone)]
struct Arena {
    heads: Vec<SlotHead>,
    values: Vec<AttrValue>,
    /// Each slot's [`value_tag`] of its JAS values — stale, with them, in
    /// a freed slot.
    tags: Vec<u32>,
    /// The schema attribute behind each stride position: the JAS in
    /// position order (the first `jas_width`), then — once a tuple has
    /// shown the arity — the other attributes ascending.
    order: Vec<AttrId>,
    jas_width: usize,
    /// Attributes per stored tuple; `None` until the first one arrives.
    arity: Option<usize>,
    free: Vec<u32>,
    len: usize,
}

impl Arena {
    fn new(jas: Vec<AttrId>) -> Self {
        Arena {
            heads: Vec::new(),
            values: Vec::new(),
            tags: Vec::new(),
            jas_width: jas.len(),
            order: jas,
            arity: None,
            free: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.order.len()
    }

    /// Whether tuples of `arity` attributes can live here: the arena's
    /// arity once one is known, else any arity that holds the JAS.
    fn fits(&self, arity: usize) -> bool {
        self.arity.map_or_else(
            || self.order[..self.jas_width].iter().all(|a| a.idx() < arity),
            |known| known == arity,
        )
    }

    /// Fix the stride to tuples of `arity` attributes, widening every slot
    /// the first time; `false`, changing nothing, if they do not
    /// [`fit`](Self::fits).
    fn learn_arity(&mut self, arity: usize) -> bool {
        if !self.fits(arity) {
            return false;
        }
        if self.arity.is_some() {
            return true;
        }
        let old = self.width();
        let jas = &self.order[..self.jas_width];
        let rest: Vec<AttrId> = (0..arity as u8)
            .map(AttrId)
            .filter(|a| !jas.contains(a))
            .collect();
        self.order.extend(rest);
        let new = self.width();
        if new > old {
            let mut values = vec![0; self.heads.len() * new];
            for i in 0..self.heads.len() {
                values[i * new..i * new + old]
                    .copy_from_slice(&self.values[i * old..(i + 1) * old]);
            }
            self.values = values;
        }
        self.arity = Some(arity);
        true
    }

    /// Claim a slot (the free list's last, else a new one) for `head`.
    fn claim(&mut self, head: SlotHead) -> TupleKey {
        self.len += 1;
        if let Some(k) = self.free.pop() {
            self.heads[k as usize] = head;
            TupleKey(k)
        } else {
            self.push(head);
            TupleKey((self.heads.len() - 1) as u32)
        }
    }

    /// Append a slot holding `head`, its values and tag zero.
    fn push(&mut self, head: SlotHead) {
        self.heads.push(head);
        self.values.resize(self.values.len() + self.width(), 0);
        self.tags.push(0);
    }

    /// Store `tuple` resident in a claimed slot.
    ///
    /// # Panics
    /// Panics if the tuple's arity is not the arena's.
    fn insert(&mut self, tuple: &Tuple) -> TupleKey {
        assert!(
            self.learn_arity(tuple.attrs.len()),
            "tuple of arity {} in a state of arity {:?}",
            tuple.attrs.len(),
            self.arity
        );
        let key = self.claim(SlotHead {
            id: tuple.id,
            ts: tuple.ts,
            at: Residence::Resident,
        });
        self.scatter(key, &tuple.attrs);
        key
    }

    /// Write a tuple's attributes into `key`'s stride, JAS first, and tag
    /// the slot.
    fn scatter(&mut self, key: TupleKey, attrs: &[AttrValue]) {
        let w = self.width();
        let at = key.0 as usize * w;
        for (v, a) in self.values[at..at + w].iter_mut().zip(&self.order) {
            *v = attrs[a.idx()];
        }
        self.tags[key.0 as usize] = value_tag(&self.values[at..at + self.jas_width]);
    }

    /// Free `key`'s slot, returning its head. The values stay in the
    /// stride until the slot is claimed again.
    fn remove(&mut self, key: TupleKey) -> Option<SlotHead> {
        let slot = self.heads.get_mut(key.0 as usize)?;
        if slot.at == Residence::Free {
            return None;
        }
        let old = std::mem::replace(slot, FREE_HEAD);
        self.len -= 1;
        self.free.push(key.0);
        Some(old)
    }

    /// Where `key`'s tuple lives (`Free` for a key past the arena).
    #[inline]
    fn at(&self, key: TupleKey) -> Residence {
        self.heads
            .get(key.0 as usize)
            .map_or(Residence::Free, |h| h.at)
    }

    /// `key`'s JAS values, whatever the slot holds.
    #[inline]
    fn jas(&self, key: TupleKey) -> &[AttrValue] {
        let at = key.0 as usize * self.width();
        &self.values[at..at + self.jas_width]
    }

    /// `f` of `key`'s head and attributes in schema order, gathered on the
    /// stack, if the tuple is resident.
    #[inline]
    fn read<R>(&self, key: TupleKey, f: impl FnOnce(&SlotHead, &[AttrValue]) -> R) -> Option<R> {
        if self.at(key) != Residence::Resident {
            return None;
        }
        let head = &self.heads[key.0 as usize];
        let w = self.width();
        let at = key.0 as usize * w;
        let mut attrs = [0; MAX_ATTRS];
        for (&v, a) in self.values[at..at + w].iter().zip(&self.order) {
            attrs[a.idx()] = v;
        }
        let arity = self.arity.expect("a resident tuple fixed the arity");
        Some(f(head, &attrs[..arity]))
    }

    /// The tuple of stream `stream` in `key`'s slot, rebuilt from its head
    /// and stride, if it is resident.
    fn tuple(&self, key: TupleKey, stream: StreamId) -> Option<Tuple> {
        self.read(key, |head, attrs| {
            let attrs = AttrVec::from_slice(attrs).expect("a stored tuple's arity fits");
            Tuple::new(head.id, stream, head.ts, attrs)
        })
    }

    /// Append the live slots whose JAS values agree with `bound` to
    /// `hits`, in key order. `filter` is the request's [`TagFilter`]. The
    /// walk tests the tag column in blocks of [`SCAN_BLOCK`] with one
    /// branch-free "any slot admitted" pass each, and skips a block that
    /// admits none; only an admitted slot has its JAS compared and then
    /// its head checked — a freed slot keeps its stale values and tag. A
    /// request that binds no tagged position admits every slot. Nothing
    /// bound takes every live slot by its head.
    fn scan_into(&self, bound: &BoundValues<'_>, filter: TagFilter, hits: &mut Vec<TupleKey>) {
        if bound.first().is_none() {
            hits.extend(
                (self.heads.iter().enumerate())
                    .filter(|(_, h)| h.at != Residence::Free)
                    .map(|(i, _)| TupleKey(i as u32)),
            );
            return;
        }
        let mut blocks = self.tags.chunks_exact(SCAN_BLOCK);
        for (b, block) in blocks.by_ref().enumerate() {
            if filter.admits_any(block) {
                self.scan_admitted(b * SCAN_BLOCK, block, filter, bound, hits);
            }
        }
        let tail = blocks.remainder();
        self.scan_admitted(self.tags.len() - tail.len(), tail, filter, bound, hits);
    }

    /// Append to `hits` each live slot `base + k` whose tag `tags[k]`
    /// `filter` admits and whose JAS values agree with `bound`.
    #[inline(always)]
    fn scan_admitted(
        &self,
        base: usize,
        tags: &[u32],
        filter: TagFilter,
        bound: &BoundValues<'_>,
        hits: &mut Vec<TupleKey>,
    ) {
        for (k, &tag) in tags.iter().enumerate() {
            let key = TupleKey((base + k) as u32);
            if filter.admits(tag)
                && bound.matches(self.jas(key))
                && self.heads[key.0 as usize].at != Residence::Free
            {
                hits.push(key);
            }
        }
    }

    /// Live slots in key order, each with its JAS values.
    fn iter(&self) -> impl Iterator<Item = (TupleKey, &[AttrValue])> + Clone {
        self.heads
            .iter()
            .enumerate()
            .filter(|(_, h)| h.at != Residence::Free)
            .map(|(i, _)| {
                let key = TupleKey(i as u32);
                (key, self.jas(key))
            })
    }
}

/// The windowed, indexed store backing one join state.
#[derive(Debug, Clone)]
pub struct StateStore<I: ?Sized> {
    stream: StreamId,
    arena: Arena,
    window: WindowBuffer<TupleKey>,
    /// Payload bytes per tuple (schema-declared, memory accounting only).
    payload_bytes: u32,
    /// Reusable drain buffer for [`StateStore::expire`] (borrow discipline:
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
            arena: Arena::new(jas),
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

    /// Replace the index with `fresh`, an empty one, and insert every live
    /// `(key, JAS)` into it in key order, charging nothing. A snapshot
    /// restore rebuilds its index this way from the restored store, so
    /// no image carries an index: how an index lists its entries is
    /// unobservable, because [`search`](Self::search) sorts its hits.
    pub fn reindex(&mut self, fresh: I) {
        self.index = fresh;
        let mut uncharged = CostReceipt::new();
        for (key, jas) in self.arena.iter() {
            self.index.insert(key, jas, &mut uncharged);
        }
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
        self.arena.jas_width
    }

    /// The JAS attribute ids in position order.
    #[inline]
    pub fn jas(&self) -> &[AttrId] {
        &self.arena.order[..self.arena.jas_width]
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

    /// Store an arriving tuple — claim a slot, queue the window entry,
    /// charge the base op — and index it.
    ///
    /// # Panics
    /// Panics if the tuple is from a different stream, or of another
    /// arity than the tuples stored before it.
    pub fn insert(&mut self, tuple: Tuple, receipt: &mut CostReceipt) -> TupleKey {
        assert_eq!(tuple.stream, self.stream, "tuple from wrong stream");
        let key = self.arena.insert(&tuple);
        self.window.push(tuple.ts, key);
        receipt.base_ops += 1;
        self.index.insert(key, self.arena.jas(key), receipt);
        key
    }

    /// Free `key`'s arena slot and unindex it — the shared tail of expiry
    /// and eviction. A spilled stub releases its block reference. Returns
    /// whether the key was live.
    fn retire(&mut self, key: TupleKey, receipt: &mut CostReceipt) -> bool {
        let Some(head) = self.arena.remove(key) else {
            return false;
        };
        if let Residence::Spilled(block) = head.at {
            self.spilled -= 1;
            if let Some(tier) = self.tier.as_mut() {
                tier.note_dropped(block);
            }
        }
        receipt.base_ops += 1;
        self.index.remove(key, self.arena.jas(key), receipt);
        true
    }

    /// Expire every tuple that has slid out of the window at `now`, oldest
    /// first; returns how many were removed.
    pub fn expire(&mut self, now: VirtualTime, receipt: &mut CostReceipt) -> usize {
        // Drain the expiration queue into the state-owned reusable buffer
        // (the window queue and the arena/index cannot be borrowed at
        // once). Steady state touches no allocator: the buffer's capacity
        // covers the per-tick expiry batch after warm-up.
        let mut expired = std::mem::take(&mut self.expire_buf);
        expired.clear();
        expired.extend(self.window.expire(now).map(|(_, k)| k));
        let mut removed = 0;
        for &key in &expired {
            removed += usize::from(self.retire(key, receipt));
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
    /// key the tier balancer compares across states when choosing where to
    /// spill next. Skips spill-resident stubs (promotion punches holes in
    /// the spilled prefix, so this walks rather than peeks).
    pub fn oldest_resident_ts(&self) -> Option<VirtualTime> {
        self.window
            .iter()
            .find_map(|&(ts, key)| (self.arena.at(key) == Residence::Resident).then_some(ts))
    }

    /// Forcibly remove up to `max` of the **oldest** live tuples — the
    /// memory-pressure eviction path. Unlike [`expire`](Self::expire) this
    /// ignores the window: evicted tuples may still be live, trading
    /// recall for survival. Returns how many tuples were evicted.
    pub fn evict_oldest(&mut self, max: usize, receipt: &mut CostReceipt) -> usize {
        let mut evicted = 0;
        while evicted < max {
            let Some((_, key)) = self.window.pop_oldest() else {
                break;
            };
            evicted += usize::from(self.retire(key, receipt));
        }
        evicted
    }

    /// Serve `req` — the one read entry.
    ///
    /// `scratch.hits` is cleared and then filled with the keys of matching
    /// live tuples in ascending key order. A sharded index fans its
    /// per-shard walks out through `exec`. Falls back to a full arena scan
    /// when the index cannot serve the request, charging two comparisons
    /// per live tuple — the §I-A "no suitable hash index exists" path.
    /// With nothing queued on the tier, steady-state calls do not
    /// allocate.
    ///
    /// Key order is the one order every index agrees on, so an index's
    /// hits are sorted here, once (the scan already walks in key order).
    /// An index's own order — a bit-address probe's group or slab order,
    /// which follows the shard partition and each shard's history, or a
    /// hash bucket's entry order, which follows its inserts and removals —
    /// never escapes: routing consumes hits in order, so the job queue and
    /// every adaptive decision fed by it would otherwise observe the shard
    /// count and the index's history, and a checkpoint would have to carry
    /// the index. The sort charges nothing.
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
        if self.index.search_into(req, scratch, receipt, exec) {
            scratch.hits.sort_unstable();
        } else {
            self.scan_into(req, &mut scratch.hits, receipt);
        }
    }

    /// The arena-scan fallback: every live tuple that matches `req`.
    fn scan_into(&self, req: &SearchRequest, hits: &mut Vec<TupleKey>, receipt: &mut CostReceipt) {
        // The model's full scan materializes each stored tuple and then
        // compares: twice the work of an in-bucket comparison over inline
        // JAS values (§I-A's "complete scans" are what drown the
        // few-index access modules). The walk itself reads less.
        receipt.comparisons += 2 * self.arena.len as u64;
        hits.clear();
        let filter = TagFilter::of_request(req.pattern, req.values.as_slice());
        self.arena.scan_into(&req.bound(), filter, hits);
    }

    /// The stored tuple for `key`, if live **and fully in RAM**, rebuilt
    /// from its slot. A spill-resident key returns `None`;
    /// [`materialize_batch`](Self::materialize_batch) reads it from disk.
    pub fn tuple(&self, key: TupleKey) -> Option<Tuple> {
        self.arena.tuple(key, self.stream)
    }

    /// The arrival time of `key`'s tuple, if live and fully in RAM — read
    /// from its slot head alone, so a hit turned away by its time never
    /// loads its values.
    #[inline]
    pub fn resident_ts(&self, key: TupleKey) -> Option<VirtualTime> {
        let head = self.arena.heads.get(key.0 as usize)?;
        (head.at == Residence::Resident).then_some(head.ts)
    }

    /// `f` of the arrival time and attributes (in schema order) of `key`'s
    /// tuple, if live and fully in RAM — gathered on the stack, with no
    /// [`Tuple`] built.
    #[inline]
    pub fn read_resident<R>(
        &self,
        key: TupleKey,
        f: impl FnOnce(VirtualTime, &[AttrValue]) -> R,
    ) -> Option<R> {
        self.arena.read(key, |head, attrs| f(head.ts, attrs))
    }

    /// The stored JAS values for `key`, if live (spilled stubs included —
    /// JAS values never leave RAM).
    pub fn jas_of(&self, key: TupleKey) -> Option<&[AttrValue]> {
        (self.arena.at(key) != Residence::Free).then(|| self.arena.jas(key))
    }

    /// Iterate over `(key, jas_values)` of live tuples in key order.
    /// Spilled stubs participate: their JAS values are inline, so an
    /// index rebuilt from them never touches disk.
    pub fn iter_jas(&self) -> impl Iterator<Item = (TupleKey, &[AttrValue])> + Clone {
        self.arena.iter()
    }

    /// The index, mutably, beside [`iter_jas`](Self::iter_jas): what
    /// rebuilding the index from the stored tuples borrows, with nothing
    /// copied.
    pub fn index_mut_with_jas(
        &mut self,
    ) -> (
        &mut I,
        impl Iterator<Item = (TupleKey, &[AttrValue])> + Clone,
    ) {
        (&mut self.index, self.arena.iter())
    }

    /// Bytes this state occupies in RAM: resident tuples at full cost
    /// (base + attrs + payload), spilled tuples at stub cost, plus the
    /// index, the window queue, and the tier's metadata table. Spilled
    /// attribute/payload bytes live on disk and are reported by
    /// [`disk_bytes`](Self::disk_bytes) instead.
    pub fn memory_bytes(&self) -> u64 {
        let per_tuple = layout::TUPLE_BASE_BYTES
            + layout::ATTR_BYTES * self.jas_width() as u64
            + self.payload_bytes as u64
            + 16; // window-queue slot
        let resident = (self.arena.len - self.spilled) as u64;
        let stub = layout::spilled_stub_bytes(self.jas_width()) + 16;
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
    /// cache column; `0` without a tier or under a zero-byte cache).
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
    /// first, collect up to [`SpillTier::readahead_blocks`] distinct live,
    /// uncached spill blocks, and hand them to the tier, which reads them
    /// at the next [`search`](Self::search). No-op without a tier or
    /// under a zero-byte cache.
    pub fn schedule_readahead(&mut self) {
        let Some(tier) = self.tier.as_ref() else {
            return;
        };
        let max = tier.readahead_blocks() as usize;
        if max == 0 {
            return;
        }
        let mut plan: Vec<u32> = Vec::with_capacity(max);
        for &(_, key) in self.window.iter() {
            if plan.len() >= max {
                break;
            }
            if let Residence::Spilled(block) = self.arena.at(key) {
                if !plan.contains(&block) && !tier.cached(block) {
                    plan.push(block);
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
    /// how many tuples moved, `Ok(0)` with no tier or nothing resident.
    ///
    /// # Errors
    /// The block write's: every tuple then stays resident, and a torn
    /// write ([`BlockWriteError::Torn`]) may be retried with a new coin.
    pub fn spill_oldest(
        &mut self,
        max: usize,
        receipt: &mut CostReceipt,
    ) -> Result<usize, BlockWriteError> {
        if self.tier.is_none() || max == 0 {
            return Ok(0);
        }
        let mut victims: Vec<TupleKey> = Vec::with_capacity(max);
        for &(_, key) in self.window.iter() {
            if victims.len() >= max {
                break;
            }
            if self.arena.at(key) == Residence::Resident {
                victims.push(key);
            }
        }
        if victims.is_empty() {
            return Ok(0);
        }
        let mut body = crate::snapshot_io::SectionWriter::new();
        body.put_usize(victims.len());
        for &key in &victims {
            let tuple = self
                .arena
                .tuple(key, self.stream)
                .expect("victim vanished between walk and write");
            body.put_u32(key.0);
            body.put_u64(tuple.id.0);
            body.put_time(tuple.ts);
            body.put_attrs(&tuple.attrs);
        }
        let block = self
            .tier
            .as_mut()
            .expect("tier checked above")
            .append_block(body, victims.len() as u32, receipt)?;
        for &key in &victims {
            self.arena.heads[key.0 as usize].at = Residence::Spilled(block);
        }
        self.spilled += victims.len();
        Ok(victims.len())
    }

    /// Promote the hottest spill block (most materialization reads, at
    /// least `min_reads`) back to RAM, rebuilding full tuples from the
    /// block and retiring it. A block that fails to read, or whose tuples
    /// are of an arity the arena cannot hold, is purged instead: its stubs
    /// are removed and counted as lost.
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
        let Some(promoted) = self.rebuild_from_entries(block, &entries) else {
            return SpillOutcome {
                moved: 0,
                lost: self.purge_block(block, receipt),
            };
        };
        let tier = self.tier.as_mut().expect("tier checked above");
        tier.mark_dead(block, false);
        tier.note_promoted(promoted as u64);
        SpillOutcome {
            moved: promoted,
            lost: 0,
        }
    }

    /// Convert a decoded block's still-live stubs back to resident tuples,
    /// fixing the arena's arity if only stubs have been stored. `None`,
    /// changing nothing, for a block whose live tuples do not share one
    /// arity the arena can hold — a frame that disagrees with its stubs.
    fn rebuild_from_entries(&mut self, block: u32, entries: &[SpillEntry]) -> Option<usize> {
        let live = |arena: &Arena, e: &SpillEntry| {
            arena.at(e.key) == Residence::Spilled(block) && arena.heads[e.key.0 as usize].id == e.id
        };
        let mut arity = None;
        for e in entries.iter().filter(|e| live(&self.arena, e)) {
            let n = e.attrs.len();
            if !self.arena.fits(n) || *arity.get_or_insert(n) != n {
                return None;
            }
        }
        if let Some(n) = arity {
            self.arena.learn_arity(n);
        }
        let mut promoted = 0;
        for e in entries {
            if live(&self.arena, e) {
                self.arena.scatter(e.key, &e.attrs);
                self.arena.heads[e.key.0 as usize].at = Residence::Resident;
                self.spilled -= 1;
                promoted += 1;
            }
        }
        Some(promoted)
    }

    /// Read the tuples behind a batch of probe hits into `out` (parallel
    /// to `keys`). The keys are classified once — resident tuples straight
    /// into `out`, spilled ones onto a pending list — and each distinct
    /// block behind the pending keys, in first-occurrence order, is
    /// fetched **once** through [`SpillTier::fetch_batch`], at any cache
    /// budget, zero included, and serves every pending key it holds.
    ///
    /// Returns the tuples lost: a block that fails to read, or verifies
    /// without a key its stubs point at, has every stub purged (a typed
    /// degradation, never a panic) and those keys' slots left `None`, as
    /// are dead keys'.
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
        let mut pending = std::mem::take(&mut self.batch_pending);
        let mut blocks = std::mem::take(&mut self.batch_blocks);
        for (slot, &key) in keys.iter().enumerate() {
            out.push(match self.arena.at(key) {
                Residence::Spilled(block) => {
                    pending.push((slot, key, block));
                    if !blocks.contains(&block) {
                        blocks.push(block);
                    }
                    None
                }
                _ => self.arena.tuple(key, self.stream),
            });
        }
        if !blocks.is_empty() {
            let stream = self.stream;
            let tier = self.tier.as_mut().expect("a spilled stub implies a tier");
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
        let victims: Vec<TupleKey> = (self.arena.heads.iter().enumerate())
            .filter(|(_, h)| h.at == Residence::Spilled(block))
            .map(|(i, _)| TupleKey(i as u32))
            .collect();
        for &key in &victims {
            if self.arena.remove(key).is_some() {
                receipt.base_ops += 1;
                self.index.remove(key, self.arena.jas(key), receipt);
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
    /// reuse match the original exactly) plus the window queue. A resident
    /// slot is its id, arrival time and attributes — its JAS values are
    /// their projection — and a spilled stub its id, arrival time, JAS
    /// values (their only copy in RAM) and block. No index is saved: a
    /// restore rebuilds it ([`reindex`](StateStore::reindex)); construction-time
    /// configuration (stream, JAS, window spec, payload bytes) is not
    /// captured.
    pub fn save_state(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("STATE");
        w.put_usize(self.arena.heads.len());
        for (i, head) in self.arena.heads.iter().enumerate() {
            let key = TupleKey(i as u32);
            // Per-slot tag: 0 empty, 1 resident, 2 spilled stub.
            match head.at {
                Residence::Resident => {
                    w.put_u8(1);
                    w.put_u64(head.id.0);
                    w.put_time(head.ts);
                    self.arena.read(key, |_, attrs| w.put_attrs(attrs));
                }
                Residence::Spilled(block) => {
                    w.put_u8(2);
                    w.put_u64(head.id.0);
                    w.put_time(head.ts);
                    w.put_attrs(self.arena.jas(key));
                    w.put_u32(block);
                }
                Residence::Free => w.put_u8(0),
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
    /// rebuilt separately ([`reindex`](StateStore::reindex)).
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`](crate::snapshot_io::SnapshotError)
    /// naming the field, before the tier is touched, for an image whose
    /// arena this state could not run on: a resident slot too narrow for
    /// the JAS or of another arity than an earlier one, a stub of another
    /// JAS width, a free list that is not each empty slot once, a window
    /// that is not each live slot once, or spilled stubs without a tier.
    pub fn restore_state(
        &mut self,
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<(), crate::snapshot_io::SnapshotError> {
        use crate::snapshot_io::SnapshotError;
        crate::snapshot_io::expect_tag(r, "STATE")?;
        let n_slots = r.get_usize()?;
        let mut arena = Arena::new(self.jas().to_vec());
        let mut spilled = 0usize;
        for slot in 0..n_slots {
            let key = TupleKey(slot as u32);
            match r.get_u8()? {
                1 => {
                    let id = TupleId(r.get_u64()?);
                    let ts = r.get_time()?;
                    let attrs = r.get_attrs()?;
                    if !arena.learn_arity(attrs.len()) {
                        return Err(SnapshotError::Malformed(format!(
                            "arena slot {slot} holds {} attributes, {}",
                            attrs.len(),
                            match arena.arity {
                                Some(arity) => format!("an earlier slot {arity}"),
                                None => "too few for the JAS".into(),
                            }
                        )));
                    }
                    arena.claim(SlotHead {
                        id,
                        ts,
                        at: Residence::Resident,
                    });
                    arena.scatter(key, &attrs);
                }
                2 => {
                    let id = TupleId(r.get_u64()?);
                    let ts = r.get_time()?;
                    let jas_values = r.get_attrs()?;
                    let block = r.get_u32()?;
                    if jas_values.len() != self.jas_width() {
                        return Err(SnapshotError::Malformed(format!(
                            "arena slot {slot}'s stub holds {} JAS values, the state's JAS {}",
                            jas_values.len(),
                            self.jas_width()
                        )));
                    }
                    spilled += 1;
                    arena.claim(SlotHead {
                        id,
                        ts,
                        at: Residence::Spilled(block),
                    });
                    let at = slot * arena.width();
                    arena.values[at..at + jas_values.len()].copy_from_slice(&jas_values);
                    arena.tags[slot] = value_tag(&jas_values);
                }
                0 => arena.push(FREE_HEAD),
                tag => {
                    return Err(SnapshotError::Malformed(format!(
                        "unknown arena slot tag {tag}"
                    )))
                }
            }
        }
        // Each empty slot is free exactly once (one named twice would go
        // to two inserts), and the window names each live slot exactly
        // once (its entry is that tuple's expiry).
        let mut named = vec![false; n_slots];
        let mut name_once = |k: u32, live: bool, list: &str| match arena.heads.get(k as usize) {
            Some(head) if (head.at != Residence::Free) == live && !named[k as usize] => {
                named[k as usize] = true;
                Ok(())
            }
            _ => Err(SnapshotError::Malformed(format!(
                "{list} slot {k} is not a {} arena slot, or is named twice",
                if live { "live" } else { "empty" }
            ))),
        };
        let n_free = r.get_usize()?;
        for _ in 0..n_free {
            let k = r.get_u32()?;
            name_once(k, false, "free-list")?;
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
            let k = r.get_u32()?;
            name_once(k, true, "window")?;
            Ok(TupleKey(k))
        })?;
        if window.len() != arena.len {
            return Err(SnapshotError::Malformed(format!(
                "window holds {} of {} live slots",
                window.len(),
                arena.len
            )));
        }
        let has_tier = r.get_bool()?;
        if spilled > 0 && !has_tier {
            return Err(SnapshotError::Malformed(format!(
                "{spilled} spilled arena slots but no spill tier"
            )));
        }
        match (self.tier.as_mut(), has_tier) {
            (Some(tier), true) => tier.restore_from(r)?,
            (None, true) => {
                return Err(SnapshotError::Malformed(
                    "snapshot carries a spill tier but this state has none configured".into(),
                ))
            }
            // A snapshot without a tier (and so without spilled slots)
            // restores into a fresh, empty tier or into a tierless state.
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
    use crate::hash_index::MultiHashIndex;
    use crate::parallel::SequentialExecutor;
    use crate::tier::scratch::{Dir, In};
    use amri_stream::{AccessPattern, TupleId};

    fn mk_tuple(id: u64, ts_secs: u64, attrs: &[u64]) -> Tuple {
        Tuple::new(
            TupleId(id),
            StreamId(0),
            VirtualTime::from_secs(ts_secs),
            AttrVec::from_slice(attrs).unwrap(),
        )
    }

    fn store() -> StateStore<MultiHashIndex> {
        // JAS = schema attrs 0 and 2 (attr 1 is payload-only).
        StateStore::new(
            StreamId(0),
            vec![AttrId(0), AttrId(2)],
            WindowSpec::secs(10),
            MultiHashIndex::new(2, Vec::new()),
        )
    }

    fn search_vec(
        s: &mut StateStore<MultiHashIndex>,
        req: &SearchRequest,
        r: &mut CostReceipt,
    ) -> Vec<TupleKey> {
        let mut scratch = SearchScratch::new();
        s.search(req, &mut scratch, r, &SequentialExecutor);
        scratch.hits
    }

    fn expire(s: &mut StateStore<MultiHashIndex>, secs: u64, r: &mut CostReceipt) -> usize {
        s.expire(VirtualTime::from_secs(secs), r)
    }

    /// `key` alone through `materialize_batch`: its tuple, or the tuples
    /// lost with its block.
    fn materialize_one(
        s: &mut StateStore<MultiHashIndex>,
        key: TupleKey,
        r: &mut CostReceipt,
    ) -> Result<Option<Tuple>, usize> {
        let mut out = Vec::new();
        match s.materialize_batch(&[key], &mut out, r, &SequentialExecutor) {
            0 => Ok(out[0]),
            lost => Err(lost),
        }
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
        let mut s = store();
        let t = mk_tuple(1, 0, &[10, 20, 30]);
        let k = s.insert(t, &mut CostReceipt::new());
        assert_eq!(s.jas_of(k).unwrap(), &[10, 30], "attrs 0 and 2");
        assert_eq!(s.tuple(k), Some(t), "the stride rebuilds the tuple");
        let read = s.read_resident(k, |ts, attrs| (ts, attrs.to_vec()));
        assert_eq!(s.resident_ts(k), Some(t.ts));
        assert_eq!(read, Some((t.ts, vec![10, 20, 30])), "in schema order");
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
        assert_eq!(s.jas_of(k2).unwrap(), &[2, 2]);
    }

    /// The size pins of the layout: a slot is a 24-byte head plus its
    /// tuple's values in the stride, once — `24 + 8·arity` bytes — and no
    /// eight-slot `AttrVec` is stored per slot.
    #[test]
    fn a_slot_costs_its_head_and_its_values() {
        assert_eq!(std::mem::size_of::<SlotHead>(), 24);
        assert!(std::mem::size_of::<SlotHead>() < std::mem::size_of::<AttrVec>());
        let mut s = store();
        let mut r = CostReceipt::new();
        for i in 0..100 {
            s.insert(mk_tuple(i, 0, &[i, 50 + i, 2 * i]), &mut r);
        }
        expire(&mut s, 20, &mut r);
        s.insert(mk_tuple(100, 21, &[7, 8, 9]), &mut r);
        assert_eq!((s.arena.heads.len(), s.arena.values.len()), (100, 300));
        // JAS first: attrs 0 and 2, then the payload-only attr 1.
        assert_eq!(&s.arena.values[297..], &[7, 9, 8]);
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
        assert_eq!(s.evict_oldest(2, &mut r), 2);
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
        assert_eq!(s.evict_oldest(100, &mut CostReceipt::new()), 3);
        assert!(s.is_empty());
        assert_eq!(s.oldest_ts(), None);
        assert_eq!(s.evict_oldest(1, &mut CostReceipt::new()), 0);
    }

    fn spill_store(
        tag: &str,
        faults: crate::tier::IoFaultConfig,
    ) -> In<StateStore<MultiHashIndex>> {
        spill_store_in(Dir::new(&format!("state-spill-{tag}")), faults, 0)
    }

    /// A store whose tier keeps its blocks in `dir/s0.blocks`.
    fn spill_store_in(
        dir: Dir,
        faults: crate::tier::IoFaultConfig,
        cache_bytes: u64,
    ) -> In<StateStore<MultiHashIndex>> {
        let tier = SpillTier::create(&crate::tier::SpillConfig {
            dir: dir.path().to_path_buf(),
            file_name: "s0.blocks".into(),
            profile: crate::cost::StorageProfile::default(),
            faults,
            seed: 11,
            cache_bytes,
        })
        .unwrap();
        let mut s = store().with_payload_bytes(64);
        s.enable_spill(tier);
        In::new(s, dir)
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
        assert_eq!(s.spill_oldest(3, &mut r), Ok(3));
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
        let t0 = materialize_one(&mut s, keys[0], &mut r).unwrap().unwrap();
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
        assert_eq!(s.spill_oldest(2, &mut r), Ok(2));
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
        assert_eq!(s.spill_oldest(3, &mut r), Ok(3));
        let victim = TupleKey(0);
        let lost = materialize_one(&mut s, victim, &mut r).unwrap_err();
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
        assert_eq!(
            materialize_one(&mut s, victim, &mut CostReceipt::new()),
            Ok(None)
        );
    }

    #[test]
    fn block_corrupted_under_the_open_handle_is_purged() {
        let dir = Dir::new("state-corrupt");
        let path = dir.path().to_path_buf();
        let mut s = spill_store_in(dir, Default::default(), 1 << 20);
        let mut r = CostReceipt::new();
        let keys: Vec<TupleKey> = (0..5)
            .map(|i| s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r))
            .collect();
        assert_eq!(s.spill_oldest(3, &mut r), Ok(3));
        // The tier has held its handle since `create`; flip the block's
        // last byte on disk behind it.
        let file = path.join("s0.blocks");
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
    }

    #[test]
    fn a_batch_wider_than_the_cache_reads_each_cold_block_once_and_serves_every_key() {
        // Twelve tuples in four blocks of three; `cache_bytes` of budget.
        let load = |tag: &str, cache_bytes: u64| {
            let dir = Dir::new(&format!("state-wide-{tag}"));
            let mut s = spill_store_in(dir, Default::default(), cache_bytes);
            let mut r = CostReceipt::new();
            for i in 0..12 {
                s.insert(mk_tuple(i, i, &[i, 0, i]), &mut r);
            }
            for _ in 0..4 {
                assert_eq!(s.spill_oldest(3, &mut r), Ok(3));
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
        // A zero-byte cache keeps nothing, yet reads each block once.
        let st = plain.spill_stats();
        assert_eq!(
            (st.cache_misses, st.cache_hits, st.cache_evictions),
            (4, 12, 0)
        );
        assert_eq!(plain.cache_used_bytes(), 0);

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
        assert_eq!(
            s.spill_oldest(2, &mut r),
            Err(BlockWriteError::Torn),
            "a torn write aborts the spill, and says so"
        );
        assert_eq!(s.spilled_len(), 0);
        assert_eq!(s.len(), 3, "no data lost");
        assert!(s.spill_stats().torn_writes > 0);
    }

    /// One arena slot of a hand-built `STATE` image.
    enum Slot {
        Empty,
        Resident(&'static [u64]),
        Spilled(&'static [u64]),
    }

    /// A tierless `STATE` section in `save_state`'s layout, whose window
    /// names `window` in that order at one-second steps.
    fn state_image(slots: &[Slot], free: &[u32], window: &[u32]) -> Vec<u8> {
        let mut w = crate::snapshot_io::SectionWriter::new();
        w.put_str("STATE");
        w.put_usize(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Empty => w.put_u8(0),
                Slot::Resident(attrs) => {
                    w.put_u8(1);
                    w.put_u64(i as u64);
                    w.put_time(VirtualTime::from_secs(i as u64));
                    w.put_attrs(attrs);
                }
                Slot::Spilled(jas) => {
                    w.put_u8(2);
                    w.put_u64(i as u64);
                    w.put_time(VirtualTime::from_secs(i as u64));
                    w.put_attrs(jas);
                    w.put_u32(0);
                }
            }
        }
        w.put_usize(free.len());
        free.iter().for_each(|&k| w.put_u32(k));
        w.put_usize(window.len());
        for (i, &k) in window.iter().enumerate() {
            w.put_time(VirtualTime::from_secs(i as u64));
            w.put_u32(k);
        }
        w.put_bool(false);
        w.into_bytes()
    }

    /// Each image lies about the arena in one way the state could not run
    /// on, and the restore refuses it, naming the field, and leaves the
    /// store as it was. Accepted, each one breaks the run later:
    /// * a free slot named twice hands one key to two inserts, and the
    ///   first tuple's index entry keeps serving the second tuple;
    /// * a window entry on an empty slot expires that slot's next
    ///   occupant early, one named twice expires it twice, and a live
    ///   slot the window omits never expires or spills;
    /// * a spilled stub without a tier panics at its first probe hit;
    /// * a slot too narrow for the JAS has no JAS values to index, and
    ///   JAS values narrower than the JAS panic at expiry;
    /// * a slot wider than the others does not fit the value stride.
    #[test]
    fn restore_refuses_an_arena_it_could_not_run_on() {
        use crate::snapshot_io::{SectionReader, SnapshotError};
        const A: Slot = Slot::Resident(&[1, 9, 3]);
        let lies: [(&str, Vec<u8>, &str); 8] = [
            (
                "a free slot named twice",
                state_image(&[A, Slot::Empty, Slot::Empty, A], &[1, 1], &[0, 3]),
                "free-list slot 1",
            ),
            (
                "a window entry on an empty slot",
                state_image(&[A, Slot::Empty, A], &[1], &[0, 1, 2]),
                "window slot 1",
            ),
            (
                "a window entry named twice",
                state_image(&[A, Slot::Empty, A], &[1], &[0, 0, 2]),
                "window slot 0",
            ),
            (
                "a live slot the window omits",
                state_image(&[A, Slot::Empty, A], &[1], &[0]),
                "window holds 1 of 2",
            ),
            (
                "a spilled stub without a tier",
                state_image(&[A, Slot::Spilled(&[4, 6])], &[], &[0, 1]),
                "no spill tier",
            ),
            (
                "a stub narrower than the JAS",
                state_image(&[A, Slot::Spilled(&[4])], &[], &[0, 1]),
                "holds 1 JAS values",
            ),
            (
                "a resident slot whose arity cannot hold the JAS",
                state_image(&[Slot::Resident(&[1, 9])], &[], &[0]),
                "holds 2 attributes, too few for the JAS",
            ),
            (
                "slots of two arities",
                state_image(&[A, Slot::Resident(&[1, 9, 3, 4])], &[], &[0, 1]),
                "holds 4 attributes",
            ),
        ];
        let honest = state_image(&[A, Slot::Empty, A], &[1], &[0, 2]);
        let mut s = store();
        s.restore_state(&mut SectionReader::new(&honest)).unwrap();
        assert_eq!((s.len(), s.oldest_ts()), (2, Some(VirtualTime::ZERO)));
        let accepted: Vec<&str> = lies
            .iter()
            .filter(
                |(what, image, field)| match s.restore_state(&mut SectionReader::new(image)) {
                    Err(SnapshotError::Malformed(why)) => {
                        assert!(why.contains(field), "{what}: {why}");
                        assert_eq!(s.len(), 2, "{what}: the refused restore changed the store");
                        assert_eq!(s.jas_of(TupleKey(2)).unwrap(), &[1, 3]);
                        false
                    }
                    other => {
                        assert!(other.is_ok(), "{what}: {other:?}");
                        true
                    }
                },
            )
            .map(|(what, ..)| *what)
            .collect();
        assert!(accepted.is_empty(), "restored a lying image: {accepted:?}");
    }

    /// An image of `s` after spilling its three tuples, restored into a
    /// twin that has stored nothing but stubs, its index rebuilt from them.
    fn all_spilled_twin(s: &mut StateStore<MultiHashIndex>) -> In<StateStore<MultiHashIndex>> {
        let mut r = CostReceipt::new();
        for i in 0..3 {
            s.insert(mk_tuple(i, i, &[i, 10 + i, 20 + i]), &mut r);
        }
        assert_eq!(s.spill_oldest(3, &mut r), Ok(3));
        let mut w = crate::snapshot_io::SectionWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut twin = spill_store("twin", crate::tier::IoFaultConfig::default());
        let mut rd = crate::snapshot_io::SectionReader::new(&bytes);
        twin.restore_state(&mut rd).unwrap();
        assert_tags_fresh(&twin);
        let width = twin.jas_width();
        twin.reindex(MultiHashIndex::new(width, s.index().patterns()));
        twin
    }

    fn saved(s: &StateStore<MultiHashIndex>) -> Vec<u8> {
        let mut w = crate::snapshot_io::SectionWriter::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    /// A restored arena whose every slot is a stub has seen no tuple's
    /// arity; the first tuple stored widens every slot, and the stubs keep
    /// their JAS values and their blocks.
    #[test]
    fn an_all_spilled_restore_widens_on_its_first_tuple() {
        let mut s = spill_store("widen", crate::tier::IoFaultConfig::default());
        let mut twin = all_spilled_twin(&mut s);
        let mut r = CostReceipt::new();
        assert_eq!(twin.arena.values.len(), 3 * 2, "JAS values only");
        let k = twin.insert(mk_tuple(3, 3, &[3, 13, 23]), &mut r);
        assert_eq!(twin.arena.values.len(), 4 * 3);
        assert_eq!(twin.tuple(k).unwrap().attrs.as_slice(), &[3, 13, 23]);
        for key in (0..3).map(TupleKey) {
            assert_eq!(twin.jas_of(key), s.jas_of(key));
            assert_eq!(
                materialize_one(&mut twin, key, &mut r),
                materialize_one(&mut s, key, &mut r)
            );
        }
    }

    /// Promoting a block into such an arena fixes the arity from the
    /// block, so the promoted slots read whole before any tuple arrives.
    #[test]
    fn an_all_spilled_restore_promotes_before_its_first_tuple() {
        let mut s = spill_store("promote", crate::tier::IoFaultConfig::default());
        let mut twin = all_spilled_twin(&mut s);
        let mut r = CostReceipt::new();
        assert_eq!(
            twin.resident_ts(TupleKey(1)),
            None,
            "a stub is not resident"
        );
        for st in [&mut s, &mut twin] {
            let _ = materialize_one(st, TupleKey(1), &mut r); // heat
            assert_eq!(st.promote_hottest(0, &mut r).moved, 3);
        }
        assert_eq!(twin.spilled_len(), 0);
        for key in (0..3).map(TupleKey) {
            assert_eq!(twin.tuple(key), s.tuple(key));
            assert_eq!(
                twin.resident_ts(key),
                Some(VirtualTime::from_secs(key.0 as u64))
            );
            let read = |st: &StateStore<MultiHashIndex>| {
                st.read_resident(key, |ts, attrs| (ts, attrs.to_vec()))
            };
            assert_eq!(read(&twin), read(&s));
            assert_eq!(
                read(&twin).unwrap().1,
                vec![key.0 as u64, 10 + key.0 as u64, 20 + key.0 as u64]
            );
        }
        assert_eq!(saved(&twin), saved(&s));
        // A later first insert keeps the promoted tuples whole.
        let k = twin.insert(mk_tuple(3, 3, &[3, 13, 23]), &mut r);
        assert_eq!(twin.tuple(k).unwrap().attrs.as_slice(), &[3, 13, 23]);
        assert_eq!(twin.tuple(TupleKey(2)), s.tuple(TupleKey(2)));
    }

    #[test]
    fn a_block_of_another_arity_is_purged_not_promoted() {
        let mut s = spill_store("arity", crate::tier::IoFaultConfig::default());
        let mut twin = all_spilled_twin(&mut s);
        let mut r = CostReceipt::new();
        twin.insert(mk_tuple(3, 3, &[3, 13, 23, 33]), &mut r);
        let _ = materialize_one(&mut twin, TupleKey(1), &mut r); // heat
        assert_eq!(
            twin.promote_hottest(0, &mut r),
            SpillOutcome { moved: 0, lost: 3 }
        );
        assert_eq!((twin.len(), twin.spilled_len()), (1, 0));
        assert_eq!(
            twin.tuple(TupleKey(3)).unwrap().attrs.as_slice(),
            &[3, 13, 23, 33]
        );
    }

    /// What the column-filtered scan replaced: every live slot
    /// `Arena::iter` yields, compared through `BoundValues::matches`, at
    /// two comparisons a row.
    fn reference_scan(
        s: &StateStore<MultiHashIndex>,
        req: &SearchRequest,
    ) -> (Vec<TupleKey>, CostReceipt) {
        let mut r = CostReceipt::new();
        let bound = req.bound();
        let hits = (s.arena.iter())
            .inspect(|_| r.comparisons += 2)
            .filter(|(_, jas)| bound.matches(jas))
            .map(|(key, _)| key)
            .collect();
        (hits, r)
    }

    /// Every live slot of `s`, resident or stub, carries the tag of its JAS
    /// values, and every slot has a tag.
    fn assert_tags_fresh(s: &StateStore<MultiHashIndex>) {
        assert_eq!(s.arena.tags.len(), s.arena.heads.len());
        for (key, jas) in s.arena.iter() {
            assert_eq!(s.arena.tags[key.0 as usize], value_tag(jas), "slot {key:?}");
        }
    }

    /// `s` scans every pattern of its JAS width over `values` exactly as
    /// the reference does — the same hits in the same order, the same
    /// receipt — and returns how many hits the patterns found in all.
    fn scans_like_the_reference(s: &StateStore<MultiHashIndex>, values: &[u64]) -> usize {
        let values = AttrVec::from_slice(&values[..s.jas_width()]).unwrap();
        let mut found = 0;
        for pattern in AccessPattern::all(s.jas_width()) {
            let req = SearchRequest::new(pattern, values);
            // A stale key in the buffer, which the scan must clear.
            let (mut hits, mut r) = (vec![TupleKey(u32::MAX)], CostReceipt::new());
            s.scan_into(&req, &mut hits, &mut r);
            found += hits.len();
            assert_eq!((hits, r), reference_scan(s, &req), "{pattern}");
        }
        found
    }

    /// Expiry frees a slot and leaves its values in the stride; a request
    /// for exactly those values must not return the freed key, and is
    /// charged for the live tuples only.
    #[test]
    fn a_freed_slot_whose_stale_values_match_is_not_scanned() {
        let mut s = store();
        let mut r = CostReceipt::new();
        let gone = s.insert(mk_tuple(1, 0, &[4, 7, 9]), &mut r);
        let kept = s.insert(mk_tuple(2, 5, &[4, 8, 1]), &mut r);
        assert_eq!(expire(&mut s, 10, &mut r), 1);
        assert_eq!(s.arena.jas(gone), &[4, 9], "the freed slot's values stay");
        for (mask, hits) in [(0b11, vec![]), (0b01, vec![kept]), (0b10, vec![])] {
            let req = SearchRequest::new(
                AccessPattern::new(mask, 2),
                AttrVec::from_slice(&[4, 9]).unwrap(),
            );
            let mut r = CostReceipt::new();
            assert_eq!(search_vec(&mut s, &req, &mut r), hits, "mask {mask:#b}");
            assert_eq!(r.comparisons, 2);
        }
        assert_eq!(scans_like_the_reference(&s, &[4, 9]), 2);
    }

    /// An arena restored from stubs alone has not learned its arity, so
    /// its stride is the JAS width; the scan walks that stride and finds
    /// what the source store finds.
    #[test]
    fn an_all_stub_restore_of_unknown_arity_scans_its_jas_stride() {
        let mut s = spill_store("scan-stubs", crate::tier::IoFaultConfig::default());
        let twin = all_spilled_twin(&mut s);
        assert_eq!((twin.arena.arity, twin.arena.width()), (None, 2));
        for values in [[1, 21], [2, 0], [0, 20], [5, 5]] {
            scans_like_the_reference(&twin, &values);
            for pattern in AccessPattern::all(2) {
                let req = SearchRequest::new(pattern, AttrVec::from_slice(&values).unwrap());
                assert_eq!(reference_scan(&twin, &req), reference_scan(&s, &req));
            }
        }
        assert_eq!(scans_like_the_reference(&twin, &[1, 21]), 1 + 1 + 1 + 3);
    }

    /// Position 4 of a width-5 JAS carries no tag byte: a request binding
    /// it alone fixes no tag, so every slot is admitted and its values
    /// decide — across full blocks of the tag column and the tail.
    #[test]
    fn a_request_binding_only_an_untagged_position_compares_every_slot() {
        let mut s = StateStore::new(
            StreamId(0),
            (0..5).map(AttrId).collect(),
            WindowSpec::secs(10),
            MultiHashIndex::new(5, Vec::new()),
        );
        let mut r = CostReceipt::new();
        let n = 2 * SCAN_BLOCK as u64 + 7;
        for i in 0..n {
            s.insert(mk_tuple(i, 0, &[i, i % 3, 7, i % 5, i % 4]), &mut r);
        }
        let values = [1, 1, 7, 1, 2];
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[4], 5).unwrap(),
            AttrVec::from_slice(&values).unwrap(),
        );
        assert_eq!(
            TagFilter::of_request(req.pattern, req.values.as_slice()),
            TagFilter::default()
        );
        let mut r = CostReceipt::new();
        let want: Vec<TupleKey> = (2..n as u32).step_by(4).map(TupleKey).collect();
        assert_eq!(search_vec(&mut s, &req, &mut r), want);
        assert_eq!(r.comparisons, 2 * n);
        assert!(scans_like_the_reference(&s, &values) > want.len());
    }

    /// Two distinct values whose hashes share a low byte give two slots
    /// one tag: the tag admits both, and the value compare settles which
    /// one a request binds.
    #[test]
    fn a_tag_collision_is_settled_by_the_values() {
        let byte = |x: u64| amri_stream::fx_hash_u64(x) & 0xFF;
        let (a, b) = (2u64, 22u64);
        assert_eq!(byte(a), byte(b), "the pair must collide in its tag byte");
        let mut s = store();
        let mut r = CostReceipt::new();
        let ka = s.insert(mk_tuple(1, 0, &[a, 0, 5]), &mut r);
        let kb = s.insert(mk_tuple(2, 0, &[b, 0, 5]), &mut r);
        assert_eq!(s.arena.tags[ka.0 as usize], s.arena.tags[kb.0 as usize]);
        for (v, want) in [(a, ka), (b, kb)] {
            for mask in [0b01, 0b11] {
                let req = SearchRequest::new(
                    AccessPattern::new(mask, 2),
                    AttrVec::from_slice(&[v, 5]).unwrap(),
                );
                let mut r = CostReceipt::new();
                assert_eq!(
                    search_vec(&mut s, &req, &mut r),
                    vec![want],
                    "mask {mask:#b}"
                );
                assert_eq!(r.comparisons, 4);
            }
        }
    }

    /// A JAS narrower than the arity (attributes 0 and 2 of 3) puts the
    /// other attribute last in the stride; the scan compares the JAS
    /// columns only, even where that attribute holds the requested value.
    #[test]
    fn a_jas_narrower_than_the_arity_scans_its_jas_columns() {
        let mut s = store();
        let mut r = CostReceipt::new();
        let a = s.insert(mk_tuple(1, 0, &[1, 5, 2]), &mut r);
        let b = s.insert(mk_tuple(2, 0, &[5, 1, 5]), &mut r);
        s.insert(mk_tuple(3, 0, &[2, 5, 1]), &mut r);
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[1], 2).unwrap(),
            AttrVec::from_slice(&[0, 5]).unwrap(),
        );
        assert_eq!(search_vec(&mut s, &req, &mut CostReceipt::new()), vec![b]);
        let req = SearchRequest::new(
            AccessPattern::full(2),
            AttrVec::from_slice(&[1, 2]).unwrap(),
        );
        assert_eq!(search_vec(&mut s, &req, &mut CostReceipt::new()), vec![a]);
        for values in [[1, 5], [5, 5], [2, 1], [5, 1]] {
            scans_like_the_reference(&s, &values);
        }
    }

    /// Drive a width-3 scan store — the JAS is attributes 2, 0 and 3 of
    /// 4, with a tier — through `ops`, checking after each one that the
    /// scan of every pattern over the op's values equals the reference.
    /// Op codes: 0 and 1 insert the values, 2 advances time and expires,
    /// 3 evicts, 4 spills, 5 heats a block and promotes the hottest.
    /// Returns the scans' hits, and the freed slots and stubs the scans
    /// ran beside, summed over the ops.
    fn scan_run(ops: &[(u8, Vec<u64>)]) -> [usize; 3] {
        let dir = Dir::new("state-scan");
        let mut s = StateStore::new(
            StreamId(0),
            vec![AttrId(2), AttrId(0), AttrId(3)],
            WindowSpec::secs(10),
            MultiHashIndex::new(3, Vec::new()),
        );
        s.enable_spill(
            SpillTier::create(&crate::tier::SpillConfig {
                dir: dir.path().to_path_buf(),
                file_name: "s0.blocks".into(),
                profile: crate::cost::StorageProfile::default(),
                faults: Default::default(),
                seed: 11,
                cache_bytes: 0,
            })
            .unwrap(),
        );
        let (mut r, mut now, mut id) = (CostReceipt::new(), 0, 0);
        let mut seen = [0; 3];
        for (op, v) in ops {
            match op {
                0 | 1 => {
                    id += 1;
                    s.insert(mk_tuple(id, now, v), &mut r);
                }
                2 => {
                    now += 1 + v[0] * 4;
                    expire(&mut s, now, &mut r);
                }
                3 => {
                    s.evict_oldest(v[0] as usize, &mut r);
                }
                4 => {
                    s.spill_oldest(1 + v[0] as usize, &mut r).unwrap();
                }
                _ => {
                    let key = s.iter_jas().nth(v[0] as usize).map(|(key, _)| key);
                    if let Some(key) = key {
                        let _ = materialize_one(&mut s, key, &mut r);
                    }
                    s.promote_hottest(0, &mut r);
                }
            }
            assert_tags_fresh(&s);
            seen[0] += scans_like_the_reference(&s, &v[..3]);
            seen[1] += s.arena.free.len();
            seen[2] += s.spilled_len();
        }
        seen
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Through any sequence of inserts, expiries, evictions, spills
        /// and promotions, the scan of every width-3 pattern — the empty
        /// one included — returns the reference's hits and receipt. Values
        /// come from a three-value domain, so freed slots' stale values,
        /// spilled stubs and the non-JAS attribute all collide with
        /// requests.
        #[test]
        fn the_scan_equals_the_reference_scan(
            ops in proptest::collection::vec((0u8..6, proptest::collection::vec(0u64..3, 4)), 1..60),
        ) {
            scan_run(&ops);
        }
    }

    /// The fuzzer's driver reaches what it claims to cover: scans that
    /// hit, beside freed slots and beside spilled stubs.
    #[test]
    fn the_scan_run_reaches_hits_freed_slots_and_stubs() {
        let ops: Vec<(u8, Vec<u64>)> = (0..40u64)
            .map(|i| ((i * 7 % 6) as u8, vec![i % 3, i * 5 % 3, i / 3 % 3, i % 2]))
            .collect();
        let [hits, freed, stubs] = scan_run(&ops);
        assert!(hits > 0 && freed > 0 && stubs > 0, "{hits} {freed} {stubs}");
    }

    #[test]
    fn snapshot_round_trips_spilled_state() {
        let mut s = spill_store("snap", crate::tier::IoFaultConfig::default());
        let mut r = CostReceipt::new();
        for i in 0..6 {
            s.insert(mk_tuple(i, i, &[i % 2, 0, i]), &mut r);
        }
        assert_eq!(s.spill_oldest(3, &mut r), Ok(3));
        let _ = materialize_one(&mut s, TupleKey(1), &mut r); // heat + coin draws
        let mut w = crate::snapshot_io::SectionWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut twin = spill_store("snap-twin", crate::tier::IoFaultConfig::default());
        let mut rd = crate::snapshot_io::SectionReader::new(&bytes);
        twin.restore_state(&mut rd).unwrap();
        assert_tags_fresh(&twin);
        assert_eq!(twin.len(), s.len());
        assert_eq!(twin.spilled_len(), s.spilled_len());
        assert_eq!(twin.spill_stats(), s.spill_stats());
        assert_eq!(twin.memory_bytes(), s.memory_bytes());
        // The rebuilt block file serves the same data.
        let a = materialize_one(&mut s, TupleKey(2), &mut CostReceipt::new());
        let b = materialize_one(&mut twin, TupleKey(2), &mut CostReceipt::new());
        assert_eq!(a, b);
        assert!(matches!(a, Ok(Some(_))));
    }
}
