//! The bit-address index (§III) — AMRI's physical design.
//!
//! One index per state. The [`IndexConfig`] maps a tuple's JAS values to a
//! bucket id; buckets are kept *sparsely* because the paper's 64-bit
//! configurations address a `2^64` bucket space that can never be
//! materialized. A search fixes the id bits of its specified attributes and
//! must cover all `2^w` ids over its wildcard bits; the index picks the
//! cheaper of (a) enumerating those ids and (b) filtering the stored
//! entries by mask — so cost is `min(2^w, occupied)` probes plus the tuples
//! compared, preserving the `λ_d·W / 2^{B_ap}` expectation of the cost
//! model.
//!
//! Unlike the multi-hash baseline, **nothing per-tuple is stored beyond the
//! bucket entry itself** — no hash-key links — which is the §III argument
//! for low maintenance cost; and *adapting* the index is a single
//! re-bucketing pass ([`BitAddressIndex::migrate_with`]).
//!
//! ## Physical layout: slab, value stride, directory
//!
//! An entry is as wide as its JAS. A shard stores
//!
//! * a dense **slab** of fixed 24-byte entry heads — cached bucket id, tuple
//!   key, the two chain links, and a four-byte value tag in what was the
//!   head's padding;
//! * the JAS **values** beside it in one flat `Vec<u64>`, `config.width()`
//!   words per entry in slab order (entry `i` owns words
//!   `i·width .. (i+1)·width`), so matching never chases back into the
//!   tuple arena and a three-attribute entry costs 48 bytes, not an
//!   eight-slot inline vector;
//! * a power-of-two **directory** of chain heads (`Vec<u32>`, at least two
//!   slots per entry), addressed by a Fibonacci hash of the bucket id.
//!
//! Every entry whose id hashes to a slot is threaded on that slot's chain,
//! so a candidate id costs one directory load and a chain walk that filters
//! on the cached bucket id; only entries *of that id* are compared and
//! charged. The compare itself starts in the head the walk already loaded:
//! byte `i` of the value tag is the low byte of JAS position `i`'s hash
//! (positions 0–3; the head has no room for more), and the probe plan
//! carries the request's tag bytes for its bound positions, so an entry
//! whose tag disagrees is rejected without a load from the value stride.
//! The model still charges it one comparison, and an entry whose values
//! match always carries the request's tag bytes, so neither hits nor
//! receipts depend on the tag — only the wall time does. The values that
//! are read are compared against the request decoded once per search
//! ([`SearchRequest::bound`]).
//!
//! A chain appends at its tail, which the head's `prev` link names (the
//! links are otherwise an ordinary `NIL`-terminated doubly-linked list),
//! so FIFO expiry meets its victim at the front. The number of
//! distinct ids stored — which prices `bucket_probes`, `memory_bytes` and
//! the narrow/wide choice — is kept incrementally: an insert walks its chain
//! only until it meets its own id, a remove counts same-id entries while it
//! looks for its key, and a directory doubling relinks without recounting.
//!
//! Hits are sorted into key order before anything reads them, so **chain
//! order is unobservable**: receipts and hit sets depend only on which
//! entries are stored, never on the order they were linked. That is what
//! lets a directory doubling, a migration and a snapshot restore all relink
//! in slab order.
//!
//! * **Wide wildcard searches** walk the head slab linearly and test each
//!   cached bucket id against the probe plan's mask, and each tag of an
//!   entry that passes against the plan's tag bytes;
//! * **migration** rebuilds in place: one contiguous pass re-derives every
//!   entry's bucket id from the value stride, then the chains are relinked
//!   through the existing slab — zero per-entry allocation. Tags depend on
//!   the values alone, so a migration keeps them; a snapshot does not save
//!   them, and a restore derives them with the bucket ids.
//!
//! Removal keeps slab and stride dense via `swap_remove` plus a fixup of the
//! moved entry's links, so the linear-walk invariant never degrades.
//!
//! ## Sharding: partitioned arena for multicore execution
//!
//! The arena can be split into `S = 2^s` **shards** keyed by the top `s`
//! bits of the bucket id ([`BitAddressIndex::with_shards`]). Every bucket —
//! and hence every tuple — lives in exactly one shard, so shards are
//! independent sub-indexes that can be probed or filled by concurrent
//! tasks with no synchronization. A probe's candidate-id set splits
//! cleanly by shard ([`ProbePlan::shard_slice`]): each shard either owns a
//! disjoint sub-plan or is skipped outright. Results merge in **fixed
//! shard order**, so a sharded search returns the same hits in the same
//! order whether its shard tasks ran inline or on a worker pool — the
//! determinism contract `tests/pipeline_equivalence.rs` pins. With one
//! shard (the default) every code path below degenerates to the exact
//! pre-sharding behavior, bit for bit, receipt for receipt.

use crate::config::{IndexConfig, ProbePlan};
use crate::cost::CostReceipt;
use crate::layout;
use crate::parallel::{for_each_slot, SequentialExecutor, ShardExecutor, RELINK_NS, WALK_NS};
use crate::state::{SearchScratch, ShardSlot, StateIndex, TupleKey};
use amri_stream::{AttrValue, AttrVec, BoundValues, SearchRequest};
use std::sync::atomic::{AtomicBool, Ordering};

/// Null chain link, and the empty directory slot.
const NIL: u32 = u32::MAX;

/// 2^64 / φ: the Fibonacci-hashing multiplier. Bucket ids are concatenated
/// hash slices that differ mostly in their low bits; the multiply spreads
/// them over the top bits a directory slot is taken from.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fixed-width part of one slab entry: the cached bucket id (so chain
/// walks, wide searches and migration never re-hash), the tuple key, the
/// chain links and the value tag. The entry's JAS values live at the same
/// position of the shard's value stride.
#[derive(Debug, Clone, Copy)]
struct EntryHead {
    bucket: u64,
    key: TupleKey,
    /// Next entry on the directory slot's chain; `NIL` at the tail.
    next: u32,
    /// Previous entry on the chain; the chain's *head* names the tail here.
    prev: u32,
    /// Low hash byte of each of the first four JAS values
    /// ([`IndexConfig::bucket_and_tag`]): a walk reads the value stride
    /// only for an entry whose tag the probe plan admits.
    tag: u32,
}

/// One deferred structural index operation, already routed to its owning
/// shard. Inserts carry the entry in transit (bucket id and tag pre-hashed
/// at stage time); removes carry the chain to walk. Replayed in arrival
/// order per shard, so a remove staged after an insert of the same key
/// unlinks exactly the entry the sequential path would.
#[derive(Debug, Clone, Copy)]
enum StagedOp {
    Insert {
        key: TupleKey,
        bucket: u64,
        tag: u32,
        jas: AttrVec,
    },
    Remove {
        bucket: u64,
        key: TupleKey,
    },
}

/// Per-shard lanes of deferred index maintenance (see the staging hooks
/// of [`StateIndex`]).
/// Cost receipts are charged when an op is *staged* — insert/remove
/// charges are data-independent, so staging is exact — and the physical
/// link/unlink work is replayed later, one task per shard, in arrival
/// order. Lanes are retained across flushes so steady-state ingest does
/// not allocate.
#[derive(Debug, Clone, Default)]
pub struct IngestStage {
    ops: Vec<Vec<StagedOp>>,
    pending: usize,
}

impl IngestStage {
    /// An empty stage (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing is staged — flushing is then free.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Number of staged, not-yet-applied operations.
    pub fn pending_ops(&self) -> usize {
        self.pending
    }

    fn push(&mut self, s_count: usize, s: usize, op: StagedOp) {
        if self.ops.len() < s_count {
            self.ops.resize_with(s_count, Vec::new);
        }
        self.ops[s].push(op);
        self.pending += 1;
    }

    /// Shard `s`'s staged run (empty when nothing was ever routed to it).
    fn lane(&self, s: usize) -> &[StagedOp] {
        self.ops.get(s).map_or(&[], Vec::as_slice)
    }

    fn clear(&mut self) {
        for lane in &mut self.ops {
            lane.clear();
        }
        self.pending = 0;
    }
}

/// Bucket-fill distribution report (see [`BitAddressIndex::fill_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FillStats {
    /// Stored entries.
    pub entries: usize,
    /// Occupied buckets.
    pub occupied: usize,
    /// Largest bucket.
    pub max_fill: usize,
    /// Mean entries per occupied bucket.
    pub mean_fill: f64,
    /// Pearson χ² statistic of the fill distribution against uniform
    /// (degrees of freedom ≈ `addressable − 1`).
    pub chi_squared: f64,
    /// Bucket population the statistic was computed over.
    pub addressable: u64,
}

/// The shard owning `bucket` under a `2^shard_bits`-way split of a
/// `total_bits`-bit id space: the id's top bits. When the partition is
/// wider than the id space, only the low `total_bits` partition bits
/// select; a zero-width space routes everything to shard 0.
#[inline]
fn shard_index(bucket: u64, shard_bits: u32, total_bits: u32) -> usize {
    let effective = shard_bits.min(total_bits);
    if effective == 0 {
        0
    } else {
        (bucket >> (total_bits - effective)) as usize
    }
}

/// Entries per occupied bucket across `shards`, in bucket-id order. The
/// index keeps no per-bucket record, so the diagnostics sort the cached
/// ids and measure the runs.
fn bucket_lens(shards: &[Shard]) -> Vec<u64> {
    let mut ids: Vec<u64> = shards
        .iter()
        .flat_map(|s| s.heads.iter().map(|e| e.bucket))
        .collect();
    ids.sort_unstable();
    ids.chunk_by(|a, b| a == b)
        .map(|run| run.len() as u64)
        .collect()
}

/// Shared fill/chi² computation over the occupied buckets' entry counts
/// (global stats pass every shard's; per-shard stats pass one shard's).
fn fill_from_lens(entries: usize, space: f64, lens: &[u64]) -> FillStats {
    let n = entries as f64;
    let expected = n / space;
    // Accumulate in integers so the statistic is exact whatever order the
    // buckets are visited in (floating-point addition isn't associative):
    // Σ(len−e)²/e = (Σlen² − 2eΣlen + k·e²)/e for k occupied buckets.
    let sum_len: u64 = lens.iter().sum();
    let sum_sq: u64 = lens.iter().map(|len| len * len).sum();
    let e = expected.max(1e-12);
    let k = lens.len() as f64;
    let mut chi2 = (sum_sq as f64 - 2.0 * e * sum_len as f64 + k * e * e) / e;
    // Empty addressable buckets contribute `expected` each.
    chi2 += (space - k).max(0.0) * expected;
    FillStats {
        entries,
        occupied: lens.len(),
        max_fill: lens.iter().copied().max().unwrap_or(0) as usize,
        mean_fill: n / k,
        chi_squared: chi2,
        addressable: space as u64,
    }
}

/// One shard of the arena: a dense slab of entry heads, the value stride
/// beside it, and the directory of chain heads (see the module docs).
/// Every bucket id maps to exactly one shard, so a shard is a
/// self-contained sub-index over its slice of the bucket space that
/// concurrent tasks can fill or probe without synchronization.
#[derive(Debug, Clone)]
struct Shard {
    /// The entry heads: dense, packed, walk-friendly.
    heads: Vec<EntryHead>,
    /// The entries' JAS values, `width` words each, in slab order.
    vals: Vec<AttrValue>,
    /// Words per entry in `vals` — the configuration's JAS width.
    width: usize,
    /// Chain heads by `slot(bucket)`; empty until the first insert, then a
    /// power of two holding at least two slots per entry.
    dir: Vec<u32>,
    /// `64 − log2(dir.len())`: a slot is the top bits of the id's hash.
    shift: u32,
    /// Distinct bucket ids stored, maintained by every insert and remove.
    occupied: usize,
}

impl Shard {
    fn new(width: usize) -> Self {
        Shard {
            heads: Vec::new(),
            vals: Vec::new(),
            width,
            dir: Vec::new(),
            shift: 0,
            occupied: 0,
        }
    }

    /// Forget every entry, keeping the buffers.
    fn clear(&mut self) {
        self.heads.clear();
        self.vals.clear();
        self.dir.fill(NIL);
        self.occupied = 0;
    }

    /// The directory slot of `bucket`. The directory must be non-empty.
    #[inline]
    fn slot(&self, bucket: u64) -> usize {
        (bucket.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The JAS values of the entry at slab position `idx`.
    #[inline]
    fn jas(&self, idx: usize) -> &[AttrValue] {
        &self.vals[idx * self.width..][..self.width]
    }

    /// If the directory is too small for `entries` entries, re-size it to
    /// the next power of two holding two slots per entry and relink what
    /// is stored. Relinking moves entries between chains but adds and
    /// removes no id, so nothing is recounted.
    fn fit_directory(&mut self, entries: usize) {
        if 2 * entries <= self.dir.len() {
            return;
        }
        let len = (2 * entries).next_power_of_two().max(2);
        self.dir.clear();
        self.dir.resize(len, NIL);
        self.shift = 64 - len.trailing_zeros();
        for idx in 0..self.heads.len() as u32 {
            self.link(idx);
        }
    }

    /// True iff some linked entry has bucket id `bucket`. The walk stops at
    /// the first one, so a chain of one id — the zero-bit configuration's
    /// whole state — answers at its head.
    fn holds(&self, bucket: u64) -> bool {
        let mut i = self.dir[self.slot(bucket)];
        while i != NIL {
            let e = &self.heads[i as usize];
            if e.bucket == bucket {
                return true;
            }
            i = e.next;
        }
        false
    }

    /// Append the entry at slab position `idx` to its slot's chain. Its
    /// `bucket` must already be set; its links are overwritten.
    fn link(&mut self, idx: u32) {
        let slot = self.slot(self.heads[idx as usize].bucket);
        let head = self.dir[slot];
        let tail = if head == NIL {
            self.dir[slot] = idx;
            idx
        } else {
            let tail = self.heads[head as usize].prev;
            self.heads[tail as usize].next = idx;
            self.heads[head as usize].prev = idx;
            tail
        };
        let e = &mut self.heads[idx as usize];
        e.next = NIL;
        e.prev = tail;
    }

    /// Re-point whatever names slab position `from` — chain neighbours, the
    /// directory slot, the head's tail link — at `to`, where the entry now
    /// lives.
    fn repoint(&mut self, from: u32, to: u32) {
        let e = self.heads[to as usize];
        let slot = self.slot(e.bucket);
        if self.dir[slot] == from {
            self.dir[slot] = to;
        } else {
            self.heads[e.prev as usize].next = to;
        }
        if e.next != NIL {
            self.heads[e.next as usize].prev = to;
        } else {
            // The tail, named by the head (itself, on a chain of one).
            let head = self.dir[slot];
            self.heads[head as usize].prev = to;
        }
    }

    /// Store a new entry and link it into its bucket's chain.
    fn insert(&mut self, key: TupleKey, bucket: u64, tag: u32, jas: &[AttrValue]) {
        // The stride is only addressable if every entry is `width` wide.
        assert_eq!(jas.len(), self.width, "JAS width differs from the index's");
        self.fit_directory(self.heads.len() + 1);
        if !self.holds(bucket) {
            self.occupied += 1;
        }
        let idx = self.heads.len() as u32;
        self.heads.push(EntryHead {
            bucket,
            key,
            next: NIL,
            prev: NIL,
            tag,
        });
        self.vals.extend_from_slice(jas);
        self.link(idx);
    }

    /// Unlink the entry at slab position `idx` from its chain, then keep
    /// slab and stride dense by moving the last entry into its place.
    fn unlink_and_remove(&mut self, idx: u32) {
        let e = self.heads[idx as usize];
        let slot = self.slot(e.bucket);
        let head = self.dir[slot];
        if head == idx {
            self.dir[slot] = e.next;
            if e.next != NIL {
                // The new head inherits the tail link.
                self.heads[e.next as usize].prev = e.prev;
            }
        } else {
            self.heads[e.prev as usize].next = e.next;
            let after = if e.next != NIL { e.next } else { head };
            self.heads[after as usize].prev = e.prev;
        }
        let last = self.heads.len() - 1;
        let w = self.width;
        self.heads.swap_remove(idx as usize);
        self.vals
            .copy_within(last * w..(last + 1) * w, idx as usize * w);
        self.vals.truncate(last * w);
        if idx as usize != last {
            self.repoint(last as u32, idx);
        }
    }

    /// Remove the entry for `key` from `bucket`, if present (silently a
    /// no-op otherwise, matching [`StateIndex::remove`]). The walk counts
    /// the bucket's entries as it goes — it needs to see a second one to
    /// know the id stays occupied — and stops as soon as it has both.
    fn remove_by_key(&mut self, bucket: u64, key: TupleKey) {
        if self.dir.is_empty() {
            return;
        }
        let mut i = self.dir[self.slot(bucket)];
        let mut found = NIL;
        let mut same_id = 0u32;
        while i != NIL && (found == NIL || same_id < 2) {
            let e = &self.heads[i as usize];
            if e.bucket == bucket {
                same_id += 1;
                if found == NIL && e.key == key {
                    found = i;
                }
            }
            i = e.next;
        }
        if found == NIL {
            return;
        }
        if same_id == 1 {
            self.occupied -= 1;
        }
        self.unlink_and_remove(found);
    }

    /// Drop every chain and link the slab again in slab order, recounting
    /// the distinct ids — the in-place half of a migration, after the
    /// entries' bucket ids changed under them.
    fn relink_all(&mut self) {
        self.dir.fill(NIL);
        self.occupied = 0;
        for idx in 0..self.heads.len() as u32 {
            if !self.holds(self.heads[idx as usize].bucket) {
                self.occupied += 1;
            }
            self.link(idx);
        }
    }

    /// The one link/unlink entry: perform a routed maintenance operation.
    fn apply(&mut self, op: &StagedOp) {
        match op {
            StagedOp::Insert {
                key,
                bucket,
                tag,
                jas,
            } => self.insert(*key, *bucket, *tag, jas.as_slice()),
            StagedOp::Remove { bucket, key } => self.remove_by_key(*bucket, *key),
        }
    }

    /// Replay this shard's staged lane. Ops arrive in the shard's original
    /// arrival order, so the resulting entry set equals eager sequential
    /// maintenance.
    fn replay(&mut self, lane: &[StagedOp]) {
        for op in lane {
            self.apply(op);
        }
    }

    /// Probe this shard under `plan`, appending the entries that match
    /// `bound` to `hits` in walk order and charging `receipt` one
    /// comparison per entry whose bucket is a candidate — whether the walk
    /// compared its values or its tag already ruled it out (the model
    /// charges the comparison, not the load). The narrow (enumerate
    /// candidate ids) vs wide (linear slab walk) decision is made per shard
    /// against this shard's occupied-bucket count — it picks the cheaper
    /// walk without changing the hit *set* or the comparisons; the caller
    /// sorts the merged hits into canonical key order, so the walk-order
    /// difference never escapes. `bucket_probes` are deliberately *not*
    /// charged here: the per-shard `min(candidates, occupied)` would sum to
    /// less than the unsharded charge (min is not additive), making the receipt
    /// depend on the shard count. The caller charges the canonical
    /// `min(candidate_buckets, occupied_buckets)` against global totals
    /// instead, so receipts are shard-count invariant.
    fn probe(
        &self,
        plan: &ProbePlan,
        bound: &BoundValues<'_>,
        hits: &mut Vec<TupleKey>,
        receipt: &mut CostReceipt,
    ) {
        let candidates = plan.candidate_buckets();
        if candidates <= self.occupied as u64 {
            // Narrow search: enumerate the 2^w candidate ids lazily (the
            // carry-propagate submask walk); each is one directory load
            // and a walk of that slot's chain, comparing only the entries
            // that carry the id.
            for id in plan.enumerate() {
                let mut i = self.dir[self.slot(id)];
                while i != NIL {
                    let e = &self.heads[i as usize];
                    if e.bucket == id {
                        receipt.comparisons += 1;
                        if plan.admits_tag(e.tag) && bound.matches(self.jas(i as usize)) {
                            hits.push(e.key);
                        }
                    }
                    i = e.next;
                }
            }
        } else {
            // Wide search: one linear pass over the contiguous heads,
            // filtering on each cached bucket id. Visits exactly the
            // entries the per-bucket formulation would: one comparison
            // per entry in a candidate bucket.
            for (i, e) in self.heads.iter().enumerate() {
                if plan.matches(e.bucket) {
                    receipt.comparisons += 1;
                    if plan.admits_tag(e.tag) && bound.matches(self.jas(i)) {
                        hits.push(e.key);
                    }
                }
            }
        }
    }
}

/// The bit-address index.
#[derive(Debug, Clone)]
pub struct BitAddressIndex {
    config: IndexConfig,
    /// log2 of the shard count.
    shard_bits: u32,
    /// The `2^shard_bits` arena shards, keyed by the top bucket-id bits.
    shards: Vec<Shard>,
}

impl BitAddressIndex {
    /// New empty index under `config` (single shard — the exact
    /// pre-sharding behavior).
    pub fn new(config: IndexConfig) -> Self {
        Self::with_shards(config, 1)
    }

    /// New empty index partitioned into `shard_count` arena shards keyed
    /// by the top bucket-id bits (see the module docs).
    ///
    /// # Panics
    /// Panics unless `shard_count` is a power of two (≥ 1).
    pub fn with_shards(config: IndexConfig, shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        let width = config.width();
        BitAddressIndex {
            config,
            shard_bits: shard_count.trailing_zeros(),
            shards: (0..shard_count).map(|_| Shard::new(width)).collect(),
        }
    }

    /// Number of arena shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Re-partition the arena into `shard_count` shards, redistributing
    /// any existing entries deterministically (gathered shard-major in
    /// slab order). This is structural reconfiguration, not a modeled
    /// index operation, so no costs are charged — the engine applies it at
    /// construction time, before tuples arrive.
    ///
    /// # Panics
    /// Panics unless `shard_count` is a power of two (≥ 1).
    pub fn set_shard_count(&mut self, shard_count: usize) {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        if shard_count != self.shards.len() {
            self.redistribute(shard_count, &SequentialExecutor);
        }
    }

    /// Empty every shard and re-route its entries (bucket ids already
    /// current) over `shard_count` shards: gathered shard-major in slab
    /// order — the deterministic arrival order the replay keeps — staged
    /// per destination, then linked one task per shard.
    fn redistribute(&mut self, shard_count: usize, exec: &dyn ShardExecutor) {
        let shard_bits = shard_count.trailing_zeros();
        let total_bits = self.config.total_bits();
        let mut stage = IngestStage::new();
        for shard in &mut self.shards {
            for (i, e) in shard.heads.iter().enumerate() {
                let jas =
                    AttrVec::from_slice(shard.jas(i)).expect("a stored JAS arrived as an AttrVec");
                stage.push(
                    shard_count,
                    shard_index(e.bucket, shard_bits, total_bits),
                    StagedOp::Insert {
                        key: e.key,
                        bucket: e.bucket,
                        tag: e.tag,
                        jas,
                    },
                );
            }
            shard.clear();
        }
        self.shard_bits = shard_bits;
        let width = self.config.width();
        self.shards.resize_with(shard_count, || Shard::new(width));
        self.apply_stage(&mut stage, exec);
    }

    /// The shard a bucket id routes to — shard 0 of one without summing the
    /// configuration's bits.
    #[inline]
    fn shard_of(&self, bucket: u64) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        shard_index(bucket, self.shard_bits, self.config.total_bits())
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Number of occupied buckets (summed over shards; every bucket lives
    /// in exactly one shard).
    #[inline]
    pub fn occupied_buckets(&self) -> usize {
        self.shards.iter().map(|s| s.occupied).sum()
    }

    /// Size of the largest bucket.
    ///
    /// Diagnostics only (tests, operator reports) — never called on the
    /// search/insert hot path: it sorts every entry's bucket id.
    pub fn max_bucket(&self) -> usize {
        bucket_lens(&self.shards).into_iter().max().unwrap_or(0) as usize
    }

    /// Exhaustively check the arena/chain invariants, returning the first
    /// violation found. Diagnostics only — O(entries log entries), never on
    /// the hot path; tests call it after every mutation to prove
    /// `swap_remove` eviction leaves the structure sound:
    ///
    /// * the value stride holds exactly `width` words per slab entry, and
    ///   the directory is a power of two with two slots per entry;
    /// * every chain is cycle-free, its `next`/`prev` links mirror, and its
    ///   head's `prev` names its tail;
    /// * every entry is chained under the slot its cached `bucket` hashes
    ///   to, and that id and its tag equal re-deriving them from the
    ///   entry's JAS under the active config;
    /// * the chains partition the slab: each entry is reachable exactly
    ///   once (the slab is dense by construction — it's a `Vec`);
    /// * the maintained distinct-id count equals a recount;
    /// * every entry lives in the shard its bucket id routes to.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            let n = shard.heads.len();
            if shard.width != self.config.width() || shard.vals.len() != n * shard.width {
                return Err(format!(
                    "shard {s}: {} value words for {n} entries of width {}",
                    shard.vals.len(),
                    self.config.width()
                ));
            }
            let slots = shard.dir.len();
            let sized = if slots == 0 {
                n == 0
            } else {
                slots.is_power_of_two()
                    && slots >= 2 * n
                    && shard.shift == 64 - slots.trailing_zeros()
            };
            if !sized {
                return Err(format!("shard {s}: directory of {slots} for {n} entries"));
            }
            let mut seen = vec![false; n];
            let mut reached = 0usize;
            for (slot, &head) in shard.dir.iter().enumerate() {
                let mut i = head;
                let mut prev = NIL;
                while i != NIL {
                    if i as usize >= n {
                        return Err(format!("shard {s}: link {i} beyond slab of {n}"));
                    }
                    if seen[i as usize] {
                        return Err(format!("entry {s}/{i} reachable twice"));
                    }
                    seen[i as usize] = true;
                    reached += 1;
                    let e = &shard.heads[i as usize];
                    if prev != NIL && e.prev != prev {
                        return Err(format!(
                            "entry {s}/{i} prev link {} != walk predecessor {prev}",
                            e.prev
                        ));
                    }
                    if shard.slot(e.bucket) != slot {
                        return Err(format!(
                            "entry {s}/{i} cached bucket {:#x} chained under slot {slot}",
                            e.bucket
                        ));
                    }
                    if self.config.bucket_and_tag(shard.jas(i as usize)) != (e.bucket, e.tag) {
                        return Err(format!("entry {s}/{i} bucket or tag stale vs config"));
                    }
                    if self.shard_of(e.bucket) != s {
                        return Err(format!(
                            "bucket {:#x} linked in foreign shard {s}",
                            e.bucket
                        ));
                    }
                    prev = i;
                    i = e.next;
                }
                if head != NIL && shard.heads[head as usize].prev != prev {
                    return Err(format!(
                        "shard {s} slot {slot}: head names tail {}, walk ended at {prev}",
                        shard.heads[head as usize].prev
                    ));
                }
            }
            if reached != n {
                return Err(format!(
                    "shard {s}: {} of {n} slab entries unreachable",
                    n - reached
                ));
            }
            let distinct = bucket_lens(std::slice::from_ref(shard)).len();
            if shard.occupied != distinct {
                return Err(format!(
                    "shard {s}: {} occupied buckets counted, {distinct} stored",
                    shard.occupied
                ));
            }
        }
        Ok(())
    }

    /// Distribution diagnostics over the occupied buckets.
    ///
    /// §III: "The optimal index key map is configured so that no bucket
    /// stores more tuples than any other bucket (i.e. an even distribution
    /// of stored tuples)." This report quantifies how close the current
    /// contents come, so tests (and operators) can verify the hash slices
    /// spread real value distributions.
    ///
    /// Diagnostics only — never called on the search/insert hot path: it
    /// sorts every entry's bucket id to measure the buckets.
    pub fn fill_stats(&self) -> FillStats {
        let lens = bucket_lens(&self.shards);
        if lens.is_empty() {
            return FillStats::default();
        }
        // The addressable space may be astronomically larger than the
        // content; evenness is judged over the *addressable* buckets when
        // small, else over the occupied ones.
        let space = if self.config.total_bits() >= 32 {
            lens.len() as f64
        } else {
            (1u64 << self.config.total_bits()) as f64
        };
        fill_from_lens(self.entries(), space, &lens)
    }

    /// Per-shard fill diagnostics: one [`FillStats`] per arena shard, each
    /// judged over that shard's slice of the addressable bucket space.
    /// This is what degradation/eviction tooling reads to spot a single
    /// overloaded shard that the global [`fill_stats`](Self::fill_stats)
    /// would average away.
    pub fn shard_fill_stats(&self) -> Vec<FillStats> {
        let total_bits = self.config.total_bits();
        let effective = self.shard_bits.min(total_bits);
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let lens = bucket_lens(std::slice::from_ref(shard));
                if lens.is_empty() {
                    return FillStats::default();
                }
                // A shard owns an equal slice of the addressable space iff
                // its id is reachable under the effective partition bits.
                let owns_slice = total_bits < 32 && (s as u64) < (1u64 << effective);
                let space = if owns_slice {
                    (1u64 << (total_bits - effective)) as f64
                } else {
                    lens.len() as f64
                };
                fill_from_lens(shard.heads.len(), space, &lens)
            })
            .collect()
    }

    /// Adapt the index to `new_config`: relocate every entry to the buckets
    /// the new key map defines (§III: "adapting BI requires ... the
    /// relocation of each tuple"). Charges one hash per indexed attribute
    /// per entry plus one move per entry. The rebucket and relink passes
    /// fan out shard-by-shard over `exec` (one task per shard, two
    /// dispatches at most), so tuner reconfiguration does not serialize
    /// the pipeline; the stored entry set and the charges are identical
    /// for any executor:
    ///
    /// 1. **Rebucket** (parallel): each shard re-derives its entries'
    ///    bucket ids from the new key map and records whether any entry now
    ///    belongs to a different shard. Per-shard work is independent and
    ///    order-free.
    /// 2. **Relink** (parallel) when no entry crossed shards (always true
    ///    for a single shard, and whenever the partitioning bits are
    ///    stable across the two configurations): each shard clears its
    ///    directory and relinks its slab in slab order, in place, with no
    ///    per-entry allocation.
    /// 3. **Redistribute** otherwise: entries are gathered shard-major in
    ///    slab order (a deterministic sequential pass fixing arrival
    ///    order), staged per destination shard, and each destination
    ///    links its staged run in one parallel task.
    ///
    /// # Panics
    /// Panics if `new_config` covers a different JAS width: the stored
    /// values could not be read under it.
    pub fn migrate_with(
        &mut self,
        new_config: IndexConfig,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
        assert_eq!(
            new_config.width(),
            self.config.width(),
            "a migration keeps the JAS width"
        );
        self.config = new_config;
        let entries = self.entries() as u64;
        let hashes_per_entry = self.config.indexed_attrs() as u64;
        receipt.hash_ops += hashes_per_entry * entries;
        receipt.moved += entries;
        let (shard_bits, total_bits) = (self.shard_bits, self.config.total_bits());
        let work_ns = entries * RELINK_NS;
        // Only "did any entry cross" is ever read, and only after the
        // dispatch has drained, so one relaxed flag serves every shard.
        let crossed = AtomicBool::new(false);
        let config = &self.config;
        for_each_slot(exec, work_ns, &mut self.shards, |s, shard| {
            let mut left = false;
            let w = shard.width;
            for (i, e) in shard.heads.iter_mut().enumerate() {
                e.bucket = config.bucket_of(&shard.vals[i * w..][..w]);
                left |= shard_index(e.bucket, shard_bits, total_bits) != s;
            }
            if left {
                crossed.store(true, Ordering::Relaxed);
            }
        });
        if !crossed.into_inner() {
            for_each_slot(exec, work_ns, &mut self.shards, |_, shard| {
                shard.relink_all()
            });
        } else {
            self.redistribute(self.shards.len(), exec);
        }
    }

    /// The one probe core: plan once, charge, dispatch one task per shard,
    /// merge hits and costs in fixed shard order, then canonicalize.
    ///
    /// With `S` shards the plan is sliced per shard
    /// ([`ProbePlan::shard_slice`] partitions the candidate-id set; a
    /// shard that owns no candidate id is skipped), each task writes into
    /// its own slot, and the slots are drained `0..S` — so the merged
    /// receipt is independent of which threads ran the tasks and in what
    /// order they finished. The dispatch is sized for the executor's gate
    /// from what the caller already holds: candidate buckets, capped by
    /// the entries there are, at [`WALK_NS`]. A single shard runs inline,
    /// straight into the caller's scratch.
    ///
    /// Shards pick their own walk strategy but never charge probes
    /// themselves: the canonical charge is the cheaper of enumerating
    /// every candidate id and touching every occupied bucket, against the
    /// *global* occupancy, so receipts are shard-count invariant. Hits
    /// are then sorted by [`TupleKey`]: the raw walk order (chain order
    /// for a narrow probe, slab order for a wide one) depends on the shard
    /// partition and on each shard's swap-remove and relink history,
    /// whereas arena keys are assigned by the unsharded state store —
    /// sorting is the only order every shard count can agree on, and what
    /// makes chain order free to change. Downstream routing consumes hits
    /// in order, so without the canonical sort the join-job queue (and
    /// every adaptive decision fed by it) would observe the shard count.
    fn probe_shards(
        &self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
        scratch.hits.clear();
        // Hash the specified-and-indexed attributes once (C_hash,Sr) and
        // decode the request once — per search, not per shard or entry.
        let plan = self.config.probe_plan(req.pattern, req.values.as_slice());
        receipt.hash_ops += u64::from(plan.hashes);
        let bound = req.bound();
        let s_count = self.shards.len();
        if s_count == 1 {
            self.shards[0].probe(&plan, &bound, &mut scratch.hits, receipt);
        } else {
            let total_bits = self.config.total_bits();
            let mut slots = scratch.take_shard_slots();
            slots.resize_with(s_count.max(slots.len()), ShardSlot::default);
            let work_ns = plan.candidate_buckets().min(self.entries() as u64) * WALK_NS;
            for_each_slot(exec, work_ns, &mut slots[..s_count], |s, slot| {
                slot.hits.clear();
                slot.receipt = CostReceipt::new();
                if let Some(slice) = plan.shard_slice(s as u64, self.shard_bits, total_bits) {
                    self.shards[s].probe(&slice, &bound, &mut slot.hits, &mut slot.receipt);
                }
            });
            for slot in &slots[..s_count] {
                scratch.hits.extend_from_slice(&slot.hits);
                receipt.merge(&slot.receipt);
            }
            scratch.put_shard_slots(slots);
        }
        receipt.bucket_probes += plan.candidate_buckets().min(self.occupied_buckets() as u64);
        scratch.hits.sort_unstable();
    }

    /// Charge one maintenance operation — `indexed_attrs` hashes plus one
    /// bucket probe, data-independent, so charging at stage time is exact
    /// — and route an insert: returns the owning shard, the bucket id and
    /// the value tag, hashed together.
    fn route(&self, jas: &AttrVec, receipt: &mut CostReceipt) -> (usize, u64, u32) {
        self.charge(receipt);
        let (bucket, tag) = self.config.bucket_and_tag(jas);
        (self.shard_of(bucket), bucket, tag)
    }

    /// [`route`](Self::route) for a remove, which finds its entry by bucket
    /// id and key and so hashes no tag.
    fn route_remove(&self, jas: &AttrVec, receipt: &mut CostReceipt) -> (usize, u64) {
        self.charge(receipt);
        let bucket = self.config.bucket_of(jas);
        (self.shard_of(bucket), bucket)
    }

    fn charge(&self, receipt: &mut CostReceipt) {
        receipt.hash_ops += self.config.indexed_attrs() as u64;
        receipt.bucket_probes += 1;
    }

    /// Serialize what the index *stores*: the (possibly tuned) active
    /// configuration and each shard's entries — key and JAS values — in
    /// slab order. Bucket ids, value tags, chain links, the directory and
    /// the distinct-id count are all derived from those on restore; chain
    /// order is unobservable (see the module docs), and keeping slab
    /// order makes restore → save reproduce the image byte for byte.
    pub fn save(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("BITADDR");
        let bits = self.config.bits();
        w.put_usize(bits.len());
        for &b in bits {
            w.put_u8(b);
        }
        w.put_u32(self.shard_bits);
        for shard in &self.shards {
            w.put_usize(shard.heads.len());
            for (i, e) in shard.heads.iter().enumerate() {
                w.put_u32(e.key.0);
                w.put_attrs(shard.jas(i));
            }
        }
    }

    /// Rebuild an index from a [`save`](Self::save)d section.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`](crate::snapshot_io::SnapshotError)
    /// naming the field when the image is not one `save` wrote: a count
    /// the remaining bytes cannot hold, a JAS of the wrong width, a key
    /// stored twice, an entry in a shard its bucket does not route to.
    pub fn restore(
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<Self, crate::snapshot_io::SnapshotError> {
        use crate::snapshot_io::SnapshotError;
        let malformed = |what: String| Err(SnapshotError::Malformed(what));
        crate::snapshot_io::expect_tag(r, "BITADDR")?;
        // Every count is checked against the bytes left before it sizes a
        // vector or bounds a loop: one byte per bit count, eight per
        // shard's entry count, a key, a length byte and `width` values per
        // entry.
        let width = r.get_usize()?;
        if width > r.remaining() {
            return malformed(format!("index config of {width} attributes"));
        }
        let bits = (0..width)
            .map(|_| r.get_u8())
            .collect::<Result<Vec<_>, _>>()?;
        let config = IndexConfig::new(bits)
            .map_err(|e| SnapshotError::Malformed(format!("index config: {e}")))?;
        let shard_bits = r.get_u32()?;
        if shard_bits > 16 || (8usize << shard_bits) > r.remaining() {
            return malformed(format!("shard bits {shard_bits} out of range"));
        }
        let mut idx = BitAddressIndex::with_shards(config, 1 << shard_bits);
        let entry_bytes = 4 + 1 + 8 * width;
        let mut keys = Vec::new();
        for s in 0..idx.shards.len() {
            let n = r.get_usize()?;
            if n > r.remaining() / entry_bytes {
                return malformed(format!("shard {s} entry count {n}"));
            }
            for _ in 0..n {
                let key = TupleKey(r.get_u32()?);
                let jas = r.get_attrs()?;
                if jas.len() != width {
                    return malformed(format!(
                        "entry {} JAS of width {}, index of width {width}",
                        key.0,
                        jas.len()
                    ));
                }
                let (bucket, tag) = idx.config.bucket_and_tag(&jas);
                if idx.shard_of(bucket) != s {
                    return malformed(format!(
                        "entry {} stored in shard {s}, bucket {bucket:#x} routes elsewhere",
                        key.0
                    ));
                }
                idx.shards[s].insert(key, bucket, tag, &jas);
                keys.push(key);
            }
        }
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return malformed(format!("key {} indexed twice", dup[0].0));
        }
        Ok(idx)
    }
}

impl StateIndex for BitAddressIndex {
    fn insert(&mut self, key: TupleKey, jas: &AttrVec, receipt: &mut CostReceipt) {
        let (s, bucket, tag) = self.route(jas, receipt);
        self.shards[s].insert(key, bucket, tag, jas);
    }

    fn remove(&mut self, key: TupleKey, jas: &AttrVec, receipt: &mut CostReceipt) {
        let (s, bucket) = self.route_remove(jas, receipt);
        self.shards[s].remove_by_key(bucket, key);
    }

    fn stage_insert(
        &mut self,
        key: TupleKey,
        jas: &AttrVec,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let (s, bucket, tag) = self.route(jas, receipt);
        let op = StagedOp::Insert {
            key,
            bucket,
            tag,
            jas: *jas,
        };
        stage.push(self.shards.len(), s, op);
    }

    fn stage_remove(
        &mut self,
        key: TupleKey,
        jas: &AttrVec,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let (s, bucket) = self.route_remove(jas, receipt);
        stage.push(self.shards.len(), s, StagedOp::Remove { bucket, key });
    }

    fn apply_stage(&mut self, stage: &mut IngestStage, exec: &dyn ShardExecutor) {
        if stage.is_empty() {
            return;
        }
        let work_ns = stage.pending_ops() as u64 * RELINK_NS;
        for_each_slot(exec, work_ns, &mut self.shards, |s, shard| {
            shard.replay(stage.lane(s));
        });
        stage.clear();
    }

    fn search_into(
        &self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) -> bool {
        self.probe_shards(req, scratch, receipt, exec);
        true
    }

    fn memory_bytes(&self) -> u64 {
        self.occupied_buckets() as u64 * layout::BUCKET_BYTES
            + self.entries() as u64 * layout::bucket_entry_bytes(self.config.width())
    }

    fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.heads.len()).sum()
    }

    fn kind(&self) -> &'static str {
        "bit-address"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::AccessPattern;
    use proptest::prelude::*;

    fn jas(vals: &[u64]) -> AttrVec {
        AttrVec::from_slice(vals).unwrap()
    }

    fn req(mask: u32, width: usize, vals: &[u64]) -> SearchRequest {
        SearchRequest::new(AccessPattern::new(mask, width), jas(vals))
    }

    fn populated(config: IndexConfig, n: u64) -> BitAddressIndex {
        let mut idx = BitAddressIndex::new(config);
        let mut r = CostReceipt::new();
        for i in 0..n {
            idx.insert(TupleKey(i as u32), &jas(&[i % 10, i % 7, i % 5]), &mut r);
        }
        idx
    }

    /// The hits of one probe, or `None` if the index deferred to a scan.
    fn search(
        idx: &BitAddressIndex,
        request: &SearchRequest,
        r: &mut CostReceipt,
    ) -> Option<Vec<TupleKey>> {
        let mut scratch = SearchScratch::new();
        idx.search_into(request, &mut scratch, r, &SequentialExecutor)
            .then_some(scratch.hits)
    }

    #[test]
    fn insert_then_exact_search_finds_the_tuple() {
        let mut idx = BitAddressIndex::new(IndexConfig::new(vec![4, 4, 4]).unwrap());
        let mut r = CostReceipt::new();
        idx.insert(TupleKey(1), &jas(&[10, 20, 30]), &mut r);
        idx.insert(TupleKey(2), &jas(&[11, 21, 31]), &mut r);
        assert_eq!(r.hash_ops, 6, "3 indexed attrs hashed per insert");

        let mut r = CostReceipt::new();
        let got = search(&idx, &req(0b111, 3, &[10, 20, 30]), &mut r);
        assert_eq!(got, Some(vec![TupleKey(1)]));
        assert_eq!(r.bucket_probes, 1, "full pattern probes one bucket");
    }

    #[test]
    fn wildcard_search_covers_all_matches() {
        let mut idx = BitAddressIndex::new(IndexConfig::new(vec![3, 3, 3]).unwrap());
        let mut r = CostReceipt::new();
        // Three tuples sharing attribute A=7, different B/C.
        idx.insert(TupleKey(1), &jas(&[7, 1, 1]), &mut r);
        idx.insert(TupleKey(2), &jas(&[7, 2, 2]), &mut r);
        idx.insert(TupleKey(3), &jas(&[8, 1, 1]), &mut r);
        let Some(mut got) = search(&idx, &req(0b001, 3, &[7, 0, 0]), &mut r) else {
            panic!("bit-address never scans");
        };
        got.sort();
        assert_eq!(got, vec![TupleKey(1), TupleKey(2)]);
    }

    #[test]
    fn narrow_vs_wide_probe_strategy() {
        // 12-bit config, pattern specifying only A (4 bits) → 2^8 = 256
        // candidate ids, but only a handful of occupied buckets: the wide
        // path must kick in and probe ≤ occupied buckets.
        let idx = populated(IndexConfig::new(vec![4, 4, 4]).unwrap(), 20);
        let occupied = idx.occupied_buckets() as u64;
        let mut r = CostReceipt::new();
        search(&idx, &req(0b001, 3, &[3, 0, 0]), &mut r);
        assert!(
            r.bucket_probes <= occupied,
            "wide search probed {} > occupied {occupied}",
            r.bucket_probes
        );

        // Pattern specifying all attrs → exactly one probe.
        let mut r = CostReceipt::new();
        search(&idx, &req(0b111, 3, &[3, 3, 3]), &mut r);
        assert_eq!(r.bucket_probes, 1);
    }

    #[test]
    fn remove_unindexes_exactly_one_tuple() {
        let mut idx = BitAddressIndex::new(IndexConfig::new(vec![4, 4, 4]).unwrap());
        let mut r = CostReceipt::new();
        idx.insert(TupleKey(1), &jas(&[5, 5, 5]), &mut r);
        idx.insert(TupleKey(2), &jas(&[5, 5, 5]), &mut r); // same bucket
        idx.remove(TupleKey(1), &jas(&[5, 5, 5]), &mut r);
        assert_eq!(idx.entries(), 1);
        let Some(got) = search(&idx, &req(0b111, 3, &[5, 5, 5]), &mut r) else {
            panic!()
        };
        assert_eq!(got, vec![TupleKey(2)]);
        idx.remove(TupleKey(2), &jas(&[5, 5, 5]), &mut r);
        assert_eq!(idx.occupied_buckets(), 0, "empty buckets are reclaimed");
    }

    #[test]
    fn migration_relocates_every_entry() {
        let mut idx = populated(IndexConfig::new(vec![6, 0, 0]).unwrap(), 50);
        let mut r = CostReceipt::new();
        idx.migrate_with(
            IndexConfig::new(vec![0, 0, 6]).unwrap(),
            &mut r,
            &SequentialExecutor,
        );
        assert_eq!(r.moved, 50);
        assert_eq!(idx.entries(), 50);
        assert_eq!(idx.config().bits(), &[0, 0, 6]);
        // Every tuple still findable under the new configuration.
        let mut rr = CostReceipt::new();
        let Some(got) = search(&idx, &req(0b100, 3, &[0, 0, 3]), &mut rr) else {
            panic!()
        };
        // i % 5 == 3 for i in 0..50 → 10 tuples.
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn migration_to_trivial_config_is_one_bucket() {
        let mut idx = populated(IndexConfig::new(vec![4, 4, 4]).unwrap(), 30);
        let mut r = CostReceipt::new();
        idx.migrate_with(IndexConfig::trivial(3), &mut r, &SequentialExecutor);
        assert_eq!(idx.occupied_buckets(), 1);
        assert_eq!(idx.max_bucket(), 30);
    }

    #[test]
    fn fill_stats_report_evenness_for_sequential_values() {
        // Sequential attribute values must spread evenly through the hash
        // slices: χ² should stay near its expectation (≈ #buckets) rather
        // than explode.
        let mut idx = BitAddressIndex::new(IndexConfig::new(vec![4, 3, 3]).unwrap());
        let mut r = CostReceipt::new();
        let n = 8192u64;
        for i in 0..n {
            idx.insert(TupleKey(i as u32), &jas(&[i, i * 3 + 1, i * 7 + 5]), &mut r);
        }
        let stats = idx.fill_stats();
        assert_eq!(stats.entries, n as usize);
        assert_eq!(stats.addressable, 1 << 10);
        // Expected fill 8 per bucket; χ² for a good hash ≈ df ≈ 1023.
        assert!(
            stats.chi_squared < 2.0 * stats.addressable as f64,
            "uneven distribution: χ² = {}",
            stats.chi_squared
        );
        assert!(stats.max_fill < 8 * 4, "max fill {}", stats.max_fill);
        assert!((stats.mean_fill - 8.0).abs() < 1.0);
    }

    #[test]
    fn fill_stats_expose_degenerate_distributions() {
        // A constant attribute with all the bits → everything in 1 bucket.
        let mut idx = BitAddressIndex::new(IndexConfig::new(vec![10, 0, 0]).unwrap());
        let mut r = CostReceipt::new();
        for i in 0..1000u64 {
            idx.insert(TupleKey(i as u32), &jas(&[42, i, i]), &mut r);
        }
        let stats = idx.fill_stats();
        assert_eq!(stats.occupied, 1);
        assert_eq!(stats.max_fill, 1000);
        assert!(
            stats.chi_squared > 100.0 * stats.addressable as f64,
            "degenerate skew must dominate χ²: {}",
            stats.chi_squared
        );
        // Empty index reports zeros.
        let empty = BitAddressIndex::new(IndexConfig::trivial(3));
        assert_eq!(empty.fill_stats(), FillStats::default());
    }

    #[test]
    fn memory_accounts_buckets_and_entries() {
        let idx = populated(IndexConfig::new(vec![4, 4, 4]).unwrap(), 100);
        let expected = idx.occupied_buckets() as u64 * layout::BUCKET_BYTES
            + 100 * layout::bucket_entry_bytes(3);
        assert_eq!(idx.memory_bytes(), expected);
        assert_eq!(idx.kind(), "bit-address");
    }

    #[test]
    fn search_cost_shrinks_with_more_pattern_bits() {
        // The §III "no clear winner" trade-off, resolved by bits: the more
        // id bits a search's attributes own, the fewer tuples compared.
        let n = 2000;
        let narrow_cfg = IndexConfig::new(vec![8, 2, 2]).unwrap(); // A owns 8 bits
        let wide_cfg = IndexConfig::new(vec![1, 2, 2]).unwrap(); // A owns 1 bit
        let narrow = populated(narrow_cfg, n);
        let wide = populated(wide_cfg, n);
        let r_narrow = {
            let mut r = CostReceipt::new();
            search(&narrow, &req(0b001, 3, &[3, 0, 0]), &mut r);
            r
        };
        let r_wide = {
            let mut r = CostReceipt::new();
            search(&wide, &req(0b001, 3, &[3, 0, 0]), &mut r);
            r
        };
        assert!(
            r_narrow.comparisons < r_wide.comparisons,
            "8-bit A ({}) must compare fewer than 1-bit A ({})",
            r_narrow.comparisons,
            r_wide.comparisons
        );
    }

    #[test]
    fn remove_from_the_middle_of_a_chain_keeps_links_sound() {
        // All tuples share one bucket → one long chain; removing the
        // head, a middle node, and the tail must each leave the rest
        // findable (exercises the swap_remove link fixup).
        let mut idx = BitAddressIndex::new(IndexConfig::trivial(3));
        let mut r = CostReceipt::new();
        for i in 0..8u32 {
            idx.insert(TupleKey(i), &jas(&[1, 2, 3]), &mut r);
        }
        for victim in [0u32, 4, 7] {
            idx.remove(TupleKey(victim), &jas(&[1, 2, 3]), &mut r);
        }
        let Some(mut got) = search(&idx, &req(0b000, 3, &[0, 0, 0]), &mut r) else {
            panic!()
        };
        got.sort();
        assert_eq!(
            got,
            vec![
                TupleKey(1),
                TupleKey(2),
                TupleKey(3),
                TupleKey(5),
                TupleKey(6)
            ]
        );
        assert_eq!(idx.max_bucket(), 5);
    }

    #[test]
    fn scratch_reuse_clears_previous_hits() {
        let mut idx = BitAddressIndex::new(IndexConfig::new(vec![4, 4, 4]).unwrap());
        let mut r = CostReceipt::new();
        idx.insert(TupleKey(1), &jas(&[1, 1, 1]), &mut r);
        idx.insert(TupleKey(2), &jas(&[2, 2, 2]), &mut r);
        let mut scratch = SearchScratch::new();
        assert!(idx.search_into(
            &req(0b111, 3, &[1, 1, 1]),
            &mut scratch,
            &mut r,
            &SequentialExecutor
        ));
        assert_eq!(scratch.hits, vec![TupleKey(1)]);
        // A second request through the same scratch must not leak the
        // first request's hits.
        assert!(idx.search_into(
            &req(0b111, 3, &[2, 2, 2]),
            &mut scratch,
            &mut r,
            &SequentialExecutor
        ));
        assert_eq!(scratch.hits, vec![TupleKey(2)]);
        // ...and a miss leaves it empty.
        assert!(idx.search_into(
            &req(0b111, 3, &[9, 9, 9]),
            &mut scratch,
            &mut r,
            &SequentialExecutor
        ));
        assert!(scratch.hits.is_empty());
    }

    proptest! {
        /// Entries survive arbitrary interleavings of inserts and removes
        /// with the slab kept dense (`swap_remove` fixups).
        #[test]
        fn interleaved_removal_preserves_the_survivor_set(
            tuples in proptest::collection::vec(proptest::collection::vec(0u64..4, 3), 1..40),
            removals in proptest::collection::vec(0usize..40, 0..40),
            mask in 0u32..8,
            probe in proptest::collection::vec(0u64..4, 3),
        ) {
            let mut idx = BitAddressIndex::new(IndexConfig::new(vec![2, 2, 2]).unwrap());
            let mut r = CostReceipt::new();
            for (i, t) in tuples.iter().enumerate() {
                idx.insert(TupleKey(i as u32), &jas(t), &mut r);
            }
            let mut alive: Vec<bool> = vec![true; tuples.len()];
            for pick in removals {
                let i = pick % tuples.len();
                if alive[i] {
                    alive[i] = false;
                    idx.remove(TupleKey(i as u32), &jas(&tuples[i]), &mut r);
                }
            }
            let request = req(mask, 3, &probe);
            let Some(mut got) = search(&idx, &request, &mut r) else {
                panic!()
            };
            got.sort();
            let mut expected: Vec<TupleKey> = tuples
                .iter()
                .enumerate()
                .filter(|(i, t)| alive[*i] && request.matches(t))
                .map(|(i, _)| TupleKey(i as u32))
                .collect();
            expected.sort();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(idx.entries(), alive.iter().filter(|a| **a).count());
        }

        /// Search over the bit-address index returns exactly the tuples a
        /// full scan would — for any configuration and pattern.
        #[test]
        fn search_equals_reference_scan(
            bits in proptest::collection::vec(0u8..5, 3),
            tuples in proptest::collection::vec(proptest::collection::vec(0u64..6, 3), 1..60),
            mask in 0u32..8,
            probe in proptest::collection::vec(0u64..6, 3),
        ) {
            let mut idx = BitAddressIndex::new(IndexConfig::new(bits).unwrap());
            let mut r = CostReceipt::new();
            for (i, t) in tuples.iter().enumerate() {
                idx.insert(TupleKey(i as u32), &jas(t), &mut r);
            }
            let request = req(mask, 3, &probe);
            let Some(mut got) = search(&idx, &request, &mut r) else {
                panic!("bit-address never defers to scan");
            };
            got.sort();
            let mut expected: Vec<TupleKey> = tuples
                .iter()
                .enumerate()
                .filter(|(_, t)| request.matches(t))
                .map(|(i, _)| TupleKey(i as u32))
                .collect();
            expected.sort();
            prop_assert_eq!(got, expected);
        }

        /// Memory-pressure eviction through `StateStore::evict_oldest_with`
        /// interleaved with inserts and searches: after every step the
        /// flat arena stays dense with cycle-free, fully consistent
        /// chains, and `search_into` agrees with a scan oracle over the
        /// model's survivor set. Eviction runs through one reusable
        /// `IngestStage` and charges, per evicted entry, exactly one base
        /// op, `indexed_attrs` hashes and one bucket probe.
        #[test]
        fn eviction_interleavings_keep_the_arena_sound(
            bits in proptest::collection::vec(0u8..4, 3),
            ops in proptest::collection::vec(
                (0u8..8, proptest::collection::vec(0u64..5, 3), 1usize..4),
                1..80,
            ),
            mask in 0u32..8,
            probe in proptest::collection::vec(0u64..5, 3),
        ) {
            use crate::state::StateStore;
            use amri_stream::{AttrId, StreamId, Tuple, TupleId, VirtualTime, WindowSpec};

            let config = IndexConfig::new(bits).unwrap();
            let hashes_per_entry = config.indexed_attrs() as u64;
            let mut store = StateStore::new(
                StreamId(0),
                vec![AttrId(0), AttrId(1), AttrId(2)],
                WindowSpec::secs(1_000_000), // never expires: evictions only
                BitAddressIndex::new(config),
            );
            let mut stage = IngestStage::new();
            // Oracle: arrival-ordered (key, jas) survivors.
            let mut model: Vec<(TupleKey, Vec<u64>)> = Vec::new();
            let mut r = CostReceipt::new();
            let mut scratch = SearchScratch::new();
            let request = req(mask, 3, &probe);
            let mut ts = 0u64;
            for (op, attrs, count) in ops {
                if op < 5 {
                    // Insert (biased: eviction needs content to chew on).
                    let t = Tuple::new(
                        TupleId(ts),
                        StreamId(0),
                        VirtualTime::from_secs(ts),
                        jas(&attrs),
                    );
                    ts += 1;
                    let key = store.insert(t, &mut r);
                    model.push((key, attrs.clone()));
                } else if op < 7 {
                    // Evict the `count` oldest live tuples.
                    let mut charged = CostReceipt::new();
                    let evicted = store.evict_oldest_with(
                        count,
                        &mut charged,
                        &mut stage,
                        &SequentialExecutor,
                    );
                    prop_assert_eq!(evicted, count.min(model.len()));
                    prop_assert!(stage.is_empty(), "eviction must drain the stage it filled");
                    let n = evicted as u64;
                    let mut expected = CostReceipt::new();
                    expected.base_ops = n;
                    expected.hash_ops = n * hashes_per_entry;
                    expected.bucket_probes = n;
                    prop_assert_eq!(charged, expected, "eviction charges diverged");
                    model.drain(..evicted);
                } else {
                    // Search and compare against the oracle scan.
                    prop_assert!(store.index().search_into(&request, &mut scratch, &mut r, &SequentialExecutor));
                    let mut got = scratch.hits.clone();
                    got.sort();
                    let mut expected: Vec<TupleKey> = model
                        .iter()
                        .filter(|(_, t)| request.matches(t))
                        .map(|(k, _)| *k)
                        .collect();
                    expected.sort();
                    prop_assert_eq!(got, expected);
                }
                prop_assert_eq!(store.index().entries(), model.len(), "arena density");
                if let Err(why) = store.index().check_integrity() {
                    prop_assert!(false, "integrity violated: {}", why);
                }
            }
        }

        /// Migration preserves the answer set for arbitrary config pairs.
        #[test]
        fn migration_preserves_answers(
            bits_a in proptest::collection::vec(0u8..5, 3),
            bits_b in proptest::collection::vec(0u8..5, 3),
            tuples in proptest::collection::vec(proptest::collection::vec(0u64..5, 3), 1..40),
            mask in 0u32..8,
            probe in proptest::collection::vec(0u64..5, 3),
        ) {
            let mut idx = BitAddressIndex::new(IndexConfig::new(bits_a).unwrap());
            let mut r = CostReceipt::new();
            for (i, t) in tuples.iter().enumerate() {
                idx.insert(TupleKey(i as u32), &jas(t), &mut r);
            }
            let request = req(mask, 3, &probe);
            let Some(mut before) = search(&idx, &request, &mut r) else {
                panic!()
            };
            idx.migrate_with(IndexConfig::new(bits_b).unwrap(), &mut r, &SequentialExecutor);
            let Some(mut after) = search(&idx, &request, &mut r) else {
                panic!()
            };
            before.sort();
            after.sort();
            prop_assert_eq!(before, after);
        }
    }

    /// The size pins of the layout: an entry is a 24-byte head plus its
    /// JAS words in the stride — `24 + 8·width` bytes of slab — and no
    /// eight-slot `AttrVec` is stored per entry.
    #[test]
    fn an_entry_costs_its_head_and_its_jas_words() {
        assert_eq!(std::mem::size_of::<EntryHead>(), 24);
        assert!(std::mem::size_of::<EntryHead>() < std::mem::size_of::<AttrVec>());
        for width in [0usize, 1, 3, amri_stream::MAX_ATTRS] {
            let mut idx = BitAddressIndex::new(IndexConfig::even(width, 6).unwrap());
            let mut r = CostReceipt::new();
            for i in 0..100u64 {
                let vals: Vec<u64> = (0..width as u64).map(|a| i * 7 + a).collect();
                idx.insert(TupleKey(i as u32), &jas(&vals), &mut r);
            }
            for victim in [0u32, 50, 99] {
                let vals: Vec<u64> = (0..width as u64).map(|a| victim as u64 * 7 + a).collect();
                idx.remove(TupleKey(victim), &jas(&vals), &mut r);
            }
            let shard = &idx.shards[0];
            assert_eq!(shard.heads.len(), 97);
            let slab_bytes =
                std::mem::size_of_val(&shard.heads[..]) + std::mem::size_of_val(&shard.vals[..]);
            assert_eq!(slab_bytes, 97 * (24 + 8 * width), "width {width}");
            idx.check_integrity().unwrap();
        }
    }

    /// What a probe must report, from a model that knows nothing of
    /// slabs, chains or shards: the entries by bucket id under `config`.
    fn expected_probe(
        config: &IndexConfig,
        model: &std::collections::BTreeMap<TupleKey, Vec<u64>>,
        request: &SearchRequest,
    ) -> (Vec<TupleKey>, CostReceipt) {
        let mut buckets: std::collections::BTreeMap<u64, Vec<TupleKey>> = Default::default();
        for (&key, vals) in model {
            buckets.entry(config.bucket_of(vals)).or_default().push(key);
        }
        let plan = config.probe_plan(request.pattern, request.values.as_slice());
        let mut want = CostReceipt::new();
        want.hash_ops = request
            .pattern
            .positions()
            .filter(|&i| config.bits_of(i) > 0)
            .count() as u64;
        want.comparisons = buckets
            .iter()
            .filter(|(&id, _)| plan.matches(id))
            .map(|(_, keys)| keys.len() as u64)
            .sum();
        want.bucket_probes = plan.candidate_buckets().min(buckets.len() as u64);
        let hits = model
            .iter()
            .filter(|(_, vals)| request.matches(vals))
            .map(|(&key, _)| key)
            .collect();
        (hits, want)
    }

    proptest! {
        /// The index against a `BTreeMap` model under every operation that
        /// reshapes it — insert, remove (present and absent keys),
        /// migration, re-sharding, save → restore — at 1, 2 and 4 shards,
        /// starting from the one-bucket (zero-bit) configuration or an
        /// arbitrary one. After every step a probe returns the model's
        /// hits in key order with the model's receipt (`hash_ops`,
        /// `comparisons` = entries in candidate buckets, `bucket_probes` =
        /// min(candidates, occupied)), `occupied_buckets`, `memory_bytes`
        /// and `entries` equal the model's, and the structure is sound;
        /// a restored index saves to the bytes it was restored from.
        #[test]
        fn index_matches_a_bucket_map_model_under_every_reshaping(
            start_trivial in proptest::bool::ANY,
            start_bits in proptest::collection::vec(0u8..4, 3),
            start_shards in 0u32..3,
            ops in proptest::collection::vec(
                (
                    (0u8..12, proptest::collection::vec(0u64..5, 3)),
                    (0usize..64, proptest::collection::vec(0u8..4, 3), 0u32..8),
                ),
                1..60,
            ),
        ) {
            use crate::snapshot_io::{SectionReader, SectionWriter};
            let config = if start_trivial {
                IndexConfig::trivial(3)
            } else {
                IndexConfig::new(start_bits).unwrap()
            };
            let mut idx = BitAddressIndex::with_shards(config, 1 << start_shards);
            let mut model: std::collections::BTreeMap<TupleKey, Vec<u64>> = Default::default();
            let mut next_key = 0u32;
            let mut r = CostReceipt::new();
            for ((op, vals), (pick, bits, mask)) in ops {
                match op {
                    0..=5 => {
                        idx.insert(TupleKey(next_key), &jas(&vals), &mut r);
                        model.insert(TupleKey(next_key), vals.clone());
                        next_key += 1;
                    }
                    6 | 7 if !model.is_empty() => {
                        let key = *model.keys().nth(pick % model.len()).unwrap();
                        let stored = model.remove(&key).unwrap();
                        idx.remove(key, &jas(&stored), &mut r);
                    }
                    // A key that was never stored: a silent no-op.
                    6..=8 => idx.remove(TupleKey(u32::MAX), &jas(&vals), &mut r),
                    9 => {
                        let mut moved = CostReceipt::new();
                        idx.migrate_with(
                            IndexConfig::new(bits).unwrap(),
                            &mut moved,
                            &SequentialExecutor,
                        );
                        prop_assert_eq!(moved.moved, model.len() as u64);
                    }
                    10 => idx.set_shard_count(1 << (pick % 3)),
                    _ => {
                        let mut w = SectionWriter::new();
                        idx.save(&mut w);
                        let image = w.into_bytes();
                        let mut reader = SectionReader::new(&image);
                        idx = BitAddressIndex::restore(&mut reader).unwrap();
                        prop_assert_eq!(reader.remaining(), 0);
                        let mut again = SectionWriter::new();
                        idx.save(&mut again);
                        prop_assert_eq!(again.into_bytes(), image, "restore → save moved bytes");
                    }
                }
                if let Err(why) = idx.check_integrity() {
                    prop_assert!(false, "integrity violated after op {}: {}", op, why);
                }
                let occupied: std::collections::BTreeSet<u64> =
                    model.values().map(|v| idx.config().bucket_of(v)).collect();
                prop_assert_eq!(idx.entries(), model.len());
                prop_assert_eq!(idx.occupied_buckets(), occupied.len());
                prop_assert_eq!(
                    idx.memory_bytes(),
                    occupied.len() as u64 * layout::BUCKET_BYTES
                        + model.len() as u64 * layout::bucket_entry_bytes(3)
                );
                let request = req(mask, 3, &vals);
                let (want_hits, want) = expected_probe(idx.config(), &model, &request);
                let mut got = CostReceipt::new();
                prop_assert_eq!(search(&idx, &request, &mut got), Some(want_hits));
                prop_assert_eq!(got, want);
            }
        }
    }

    /// The value tag lives in what was the head's padding: 20 bytes of
    /// fields (id, key, two links) plus the four-byte tag fill the 24.
    #[test]
    fn the_tag_lives_in_the_heads_padding() {
        assert_eq!(std::mem::size_of::<EntryHead>(), 24);
    }

    /// `v` and a distinct value whose hash shares `v`'s low byte — its tag
    /// byte at every position.
    fn tag_twin(v: u64) -> u64 {
        let byte = |x: u64| amri_stream::fx_hash_u64(x) & 0xFF;
        (v + 1..).find(|&x| byte(x) == byte(v)).unwrap()
    }

    /// A hand-found pair of distinct values with equal tag bytes: a probe
    /// bound to one meets the other in the same bucket (the position owns
    /// no id bits), its tag agrees, and only the value compare turns it
    /// away — charged one comparison like any other entry of the bucket.
    #[test]
    fn a_tag_collision_is_caught_by_the_value_compare() {
        let byte = |x: u64| amri_stream::fx_hash_u64(x) & 0xFF;
        let (a, b) = (2u64, 22u64);
        assert_eq!(byte(a), byte(b), "the pair must collide in its tag byte");
        assert_eq!(tag_twin(a), b);
        for shards in [1usize, 2, 4] {
            let mut idx =
                BitAddressIndex::with_shards(IndexConfig::new(vec![2, 0, 2]).unwrap(), shards);
            let mut r = CostReceipt::new();
            idx.insert(TupleKey(1), &jas(&[7, a, 9]), &mut r);
            idx.insert(TupleKey(2), &jas(&[7, b, 9]), &mut r);
            for mask in [0b010, 0b011, 0b111] {
                let request = req(mask, 3, &[7, a, 9]);
                let mut r = CostReceipt::new();
                assert_eq!(search(&idx, &request, &mut r), Some(vec![TupleKey(1)]));
                assert_eq!(r.comparisons, 2, "{shards} shards, mask {mask:#b}");
            }
        }
    }

    proptest! {
        /// Tags change neither hits nor receipts, even where they collide.
        /// Widths 1–6, so positions 4 and 5 go untagged; values from a
        /// domain of 1 024, where 80 rows share tag bytes by the pigeonhole,
        /// plus twins that differ from a stored row in one value of the
        /// same tag byte. Every pattern probes with a stored row's values —
        /// the full pattern walks a chain, a wildcard over many bits the
        /// slab — at 1, 2 and 4 shards, against a brute-force filter.
        #[test]
        fn colliding_tags_change_no_hit_and_no_receipt(
            width in 1usize..=6,
            bits in proptest::collection::vec(0u8..4, 6),
            rows in proptest::collection::vec(proptest::collection::vec(0u64..1024, 6), 1..80),
            twins in proptest::collection::vec((0usize..80, 0usize..6), 0..20),
            probe_row in 0usize..80,
            shard_bits in 0u32..3,
        ) {
            let config = IndexConfig::new(bits[..width].to_vec()).unwrap();
            let mut idx = BitAddressIndex::with_shards(config.clone(), 1 << shard_bits);
            let mut rows: Vec<Vec<u64>> = rows.into_iter().map(|row| row[..width].to_vec()).collect();
            for (row, pos) in twins {
                let mut twin = rows[row % rows.len()].clone();
                twin[pos % width] = tag_twin(twin[pos % width]);
                rows.push(twin);
            }
            let mut model = std::collections::BTreeMap::new();
            let mut r = CostReceipt::new();
            for (i, row) in rows.iter().enumerate() {
                idx.insert(TupleKey(i as u32), &jas(row), &mut r);
                model.insert(TupleKey(i as u32), row.clone());
            }
            let probe = &rows[probe_row % rows.len()];
            for pattern in AccessPattern::all(width) {
                let request = SearchRequest::new(pattern, jas(probe));
                let (want_hits, want) = expected_probe(&config, &model, &request);
                let mut got = CostReceipt::new();
                prop_assert_eq!(search(&idx, &request, &mut got), Some(want_hits));
                prop_assert_eq!(got, want, "{}", pattern);
            }
        }

        /// Tags are derived state: save → restore reproduces every probe's
        /// hits and receipt, and restore → save reproduces the image.
        #[test]
        fn a_restored_index_answers_every_probe_as_the_saved_one(
            width in 1usize..=6,
            bits in proptest::collection::vec(0u8..4, 6),
            rows in proptest::collection::vec(proptest::collection::vec(0u64..8, 6), 1..60),
            probes in proptest::collection::vec(0usize..60, 1..4),
            shard_bits in 0u32..3,
        ) {
            use crate::snapshot_io::{SectionReader, SectionWriter};
            let config = IndexConfig::new(bits[..width].to_vec()).unwrap();
            let mut idx = BitAddressIndex::with_shards(config, 1 << shard_bits);
            let mut r = CostReceipt::new();
            for (i, row) in rows.iter().enumerate() {
                idx.insert(TupleKey(i as u32), &jas(&row[..width]), &mut r);
            }
            let mut w = SectionWriter::new();
            idx.save(&mut w);
            let image = w.into_bytes();
            let restored = BitAddressIndex::restore(&mut SectionReader::new(&image)).unwrap();
            restored.check_integrity().unwrap();
            for p in probes {
                let probe = &rows[p % rows.len()][..width];
                for pattern in AccessPattern::all(width) {
                    let request = SearchRequest::new(pattern, jas(probe));
                    let (mut before, mut after) = (CostReceipt::new(), CostReceipt::new());
                    prop_assert_eq!(
                        search(&idx, &request, &mut before),
                        search(&restored, &request, &mut after)
                    );
                    prop_assert_eq!(before, after, "{}", pattern);
                }
            }
            let mut again = SectionWriter::new();
            restored.save(&mut again);
            prop_assert_eq!(again.into_bytes(), image);
        }
    }

    /// A `BITADDR` image: `bits`, `shard_bits`, then per shard its
    /// `(key, jas)` entries — hand-built so it can lie.
    fn image(bits: &[u8], shard_bits: u32, shards: &[&[(u32, &[u64])]]) -> Vec<u8> {
        let mut w = crate::snapshot_io::SectionWriter::new();
        w.put_str("BITADDR");
        w.put_usize(bits.len());
        bits.iter().for_each(|&b| w.put_u8(b));
        w.put_u32(shard_bits);
        for entries in shards {
            w.put_usize(entries.len());
            for (key, vals) in *entries {
                w.put_u32(*key);
                w.put_attrs(vals);
            }
        }
        w.into_bytes()
    }

    fn restore_image(image: &[u8]) -> Result<BitAddressIndex, crate::snapshot_io::SnapshotError> {
        BitAddressIndex::restore(&mut crate::snapshot_io::SectionReader::new(image))
    }

    /// Every way an image can lie about itself ends in `Malformed` naming
    /// the field — never a capacity-overflow panic, an allocator abort or
    /// an out-of-bounds index — and a good image still restores afterwards.
    #[test]
    fn restore_refuses_an_image_that_lies() {
        use crate::snapshot_io::{SectionWriter, SnapshotError};
        let good = image(&[2, 2, 2], 0, &[&[(1, &[1, 2, 3]), (2, &[4, 5, 6])]]);
        let refused = |image: &[u8], field: &str| match restore_image(image) {
            Err(SnapshotError::Malformed(why)) => {
                assert!(why.contains(field), "{why:?} does not name {field:?}")
            }
            other => panic!("expected Malformed({field}), got {other:?}"),
        };

        // A bit-vector length no image could hold.
        let mut w = SectionWriter::new();
        w.put_str("BITADDR");
        w.put_usize(usize::MAX);
        refused(&w.into_bytes(), "index config");
        // A shard count the remaining bytes cannot list.
        let mut w = SectionWriter::new();
        w.put_str("BITADDR");
        w.put_usize(1);
        w.put_u8(4);
        w.put_u32(16);
        refused(&w.into_bytes(), "shard bits");
        // An entry count the remaining bytes cannot hold.
        let mut lying = image(&[2, 2, 2], 0, &[&[]]);
        let count_at = lying.len() - 8;
        lying[count_at..].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        refused(&lying, "entry count");
        // A JAS narrower than the configuration (it would misalign the
        // stride and index past the slice in `bucket_of`), its missing
        // word made up by a wider one so the byte count adds up.
        refused(
            &image(&[2, 2, 2], 0, &[&[(1, &[1, 2]), (2, &[4, 5, 6, 7])]]),
            "JAS of width 2",
        );
        // The same key indexed twice, in one shard and across two.
        refused(
            &image(&[2, 2, 2], 0, &[&[(7, &[1, 2, 3]), (7, &[4, 5, 6])]]),
            "key 7 indexed twice",
        );
        let config = IndexConfig::new(vec![2, 2, 2]).unwrap();
        let home = |vals: &[u64]| shard_index(config.bucket_of(vals), 1, 6);
        let (a, b): (&[u64], &[u64]) = (&[1, 2, 3], &[4, 5, 6]);
        let mut lanes: [Vec<(u32, &[u64])>; 2] = Default::default();
        lanes[home(a)].push((7, a));
        lanes[home(b)].push((7, b));
        refused(
            &image(&[2, 2, 2], 1, &[&lanes[0], &lanes[1]]),
            "key 7 indexed twice",
        );
        // An entry listed under a shard its bucket does not route to.
        let mut lanes: [Vec<(u32, &[u64])>; 2] = Default::default();
        lanes[1 - home(a)].push((1, a));
        refused(
            &image(&[2, 2, 2], 1, &[&lanes[0], &lanes[1]]),
            "routes elsewhere",
        );
        // A truncated image is the reader's own typed error.
        assert!(restore_image(&good[..good.len() - 3]).is_err());

        let idx = restore_image(&good).unwrap();
        assert_eq!(idx.entries(), 2);
        idx.check_integrity().unwrap();
        let mut r = CostReceipt::new();
        assert_eq!(
            search(&idx, &req(0b111, 3, &[4, 5, 6]), &mut r),
            Some(vec![TupleKey(2)])
        );
    }

    fn populated_sharded(config: IndexConfig, shards: usize, n: u64) -> BitAddressIndex {
        let mut idx = BitAddressIndex::with_shards(config, shards);
        let mut r = CostReceipt::new();
        for i in 0..n {
            idx.insert(TupleKey(i as u32), &jas(&[i % 10, i % 7, i % 5]), &mut r);
        }
        idx
    }

    #[test]
    fn sharded_index_matches_single_shard_answers() {
        let config = IndexConfig::new(vec![4, 4, 4]).unwrap();
        let one = populated(config.clone(), 200);
        for shards in [2usize, 4, 8] {
            let many = populated_sharded(config.clone(), shards, 200);
            assert_eq!(many.entries(), one.entries());
            assert_eq!(many.memory_bytes(), one.memory_bytes());
            assert_eq!(many.occupied_buckets(), one.occupied_buckets());
            many.check_integrity().unwrap();
            for request in [
                req(0b111, 3, &[3, 3, 3]),
                req(0b001, 3, &[7, 0, 0]),
                req(0b110, 3, &[0, 2, 4]),
                req(0b000, 3, &[0, 0, 0]),
            ] {
                let mut r = CostReceipt::new();
                let Some(mut a) = search(&one, &request, &mut r) else {
                    panic!()
                };
                let Some(mut b) = search(&many, &request, &mut r) else {
                    panic!()
                };
                a.sort();
                b.sort();
                assert_eq!(a, b, "{shards}-shard answer set diverged");
            }
        }
    }

    #[test]
    fn sharded_hit_order_is_deterministic() {
        let idx = populated_sharded(IndexConfig::new(vec![3, 3, 3]).unwrap(), 4, 300);
        let request = req(0b001, 3, &[4, 0, 0]);
        let mut scratch = SearchScratch::new();
        let mut r = CostReceipt::new();
        assert!(idx.search_into(&request, &mut scratch, &mut r, &SequentialExecutor));
        let first = scratch.hits.clone();
        let first_receipt = r;
        let mut r = CostReceipt::new();
        assert!(idx.search_into(&request, &mut scratch, &mut r, &SequentialExecutor));
        assert_eq!(scratch.hits, first, "hit order must be reproducible");
        assert_eq!(r, first_receipt, "receipt must be reproducible");
    }

    #[test]
    fn set_shard_count_redistributes_soundly() {
        let mut idx = populated(IndexConfig::new(vec![4, 4, 4]).unwrap(), 150);
        let request = req(0b010, 3, &[0, 5, 0]);
        let mut r = CostReceipt::new();
        let Some(mut before) = search(&idx, &request, &mut r) else {
            panic!()
        };
        for shards in [8usize, 2, 4, 1] {
            idx.set_shard_count(shards);
            assert_eq!(idx.shard_count(), shards);
            assert_eq!(idx.entries(), 150);
            idx.check_integrity().unwrap();
            let Some(mut after) = search(&idx, &request, &mut r) else {
                panic!()
            };
            before.sort();
            after.sort();
            assert_eq!(before, after, "re-partition to {shards} lost answers");
        }
    }

    #[test]
    fn sharded_migration_crossing_shards_stays_sound() {
        // [6,0,0] → [0,0,6] flips which attribute feeds the top bits, so
        // entries must hop shards: the gather-and-redistribute path.
        let mut idx = populated_sharded(IndexConfig::new(vec![6, 0, 0]).unwrap(), 4, 80);
        let mut r = CostReceipt::new();
        idx.migrate_with(
            IndexConfig::new(vec![0, 0, 6]).unwrap(),
            &mut r,
            &SequentialExecutor,
        );
        assert_eq!(r.moved, 80);
        idx.check_integrity().unwrap();
        let Some(got) = search(&idx, &req(0b100, 3, &[0, 0, 3]), &mut r) else {
            panic!()
        };
        assert_eq!(got.len(), 16, "i % 5 == 3 for i in 0..80");
    }

    #[test]
    fn shard_fill_stats_cover_every_entry() {
        let idx = populated_sharded(IndexConfig::new(vec![4, 4, 4]).unwrap(), 4, 200);
        let per_shard = idx.shard_fill_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(
            per_shard.iter().map(|s| s.entries).sum::<usize>(),
            idx.entries()
        );
        assert_eq!(
            per_shard.iter().map(|s| s.occupied).sum::<usize>(),
            idx.occupied_buckets()
        );
        // Each shard owns a quarter of the 12-bit addressable space.
        for stats in &per_shard {
            assert_eq!(stats.addressable, 1 << 10);
        }
    }
}
