//! The bit-address index (§III) — AMRI's physical design.
//!
//! One index per state. The [`IndexConfig`] maps a tuple's JAS values to a
//! bucket id; buckets live in a *sparse* hash map because the paper's 64-bit
//! configurations address a `2^64` bucket space that can never be
//! materialized. A search fixes the id bits of its specified attributes and
//! must cover all `2^w` ids over its wildcard bits; the index picks the
//! cheaper of (a) enumerating those ids and (b) filtering the occupied
//! buckets by mask — so cost is `min(2^w, occupied)` probes plus the tuples
//! compared, preserving the `λ_d·W / 2^{B_ap}` expectation of the cost
//! model.
//!
//! Unlike the multi-hash baseline, **nothing per-tuple is stored beyond the
//! bucket entry itself** — no hash-key links — which is the §III argument
//! for low maintenance cost; and *adapting* the index is a single
//! re-bucketing pass ([`BitAddressIndex::migrate_with`]).
//!
//! ## Physical layout: flat bucket arena
//!
//! Entries live in one contiguous slab (`Vec<Node>`); buckets are
//! intrusive doubly-linked chains threaded through the slab, with only a
//! `(head, tail, len)` record per occupied bucket in a sparse map. Two hot
//! paths profit directly:
//!
//! * **wide wildcard searches** walk the slab linearly and test each
//!   node's cached bucket id against the probe plan's mask — no hash-map
//!   iteration, no per-bucket `Vec` pointer chasing;
//! * **migration** rebuilds in place: one contiguous pass re-derives every
//!   node's bucket id, then the chains are relinked through the existing
//!   slab — zero per-entry allocation.
//!
//! Removal keeps the slab dense via `swap_remove` plus a doubly-linked
//! fixup of the moved node, so the linear-walk invariant never degrades.
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
use amri_stream::{AttrVec, FxHashMap, SearchRequest};
use std::sync::atomic::{AtomicBool, Ordering};

/// Null link in the intrusive bucket chains.
const NIL: u32 = u32::MAX;

/// One slab entry: the tuple key plus its JAS values kept inline (so
/// matching never chases back into the tuple arena), the cached bucket id
/// (so wide searches and migration never re-hash), and the intrusive
/// chain links.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: TupleKey,
    jas: AttrVec,
    bucket: u64,
    next: u32,
    prev: u32,
}

/// Per-bucket metadata: chain endpoints plus an incrementally maintained
/// length (so fill diagnostics never walk chains). Chains append at the
/// tail so searches yield entries in insertion order, like the bucket
/// `Vec`s this layout replaced.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
}

/// One deferred structural index operation, already routed to its owning
/// shard. Inserts carry the fully built node (bucket id pre-hashed at
/// stage time); removes carry the chain to walk. Replayed in arrival
/// order per shard, so a remove staged after an insert of the same key
/// unlinks exactly the node the sequential path would.
#[derive(Debug, Clone, Copy)]
enum StagedOp {
    Insert(Node),
    Remove { bucket: u64, key: TupleKey },
}

impl StagedOp {
    /// The insertion of `key` into `bucket`, as a not-yet-linked node.
    fn insert(key: TupleKey, jas: &AttrVec, bucket: u64) -> Self {
        StagedOp::Insert(Node {
            key,
            jas: *jas,
            bucket,
            next: NIL,
            prev: NIL,
        })
    }
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

/// Shared fill/chi² computation over a set of maintained bucket lengths
/// (global stats pass every shard's buckets; per-shard stats pass one
/// shard's).
fn fill_from_lens<'a>(
    entries: usize,
    occupied: usize,
    space: f64,
    lens: impl Iterator<Item = &'a Bucket>,
) -> FillStats {
    let n = entries as f64;
    let expected = n / space;
    // Accumulate in integers so the statistic is independent of the
    // bucket-map iteration order (floating-point addition isn't
    // associative): Σ(len−e)²/e = (Σlen² − 2eΣlen + k·e²)/e for k
    // occupied buckets. Restored snapshots rebuild the bucket map with a
    // different insertion history, so order-sensitive float sums here
    // would break resumed-run equivalence.
    let mut sum_len: u64 = 0;
    let mut sum_sq: u64 = 0;
    let mut max = 0usize;
    for bucket in lens {
        let len = bucket.len as usize;
        max = max.max(len);
        sum_len += bucket.len as u64;
        sum_sq += bucket.len as u64 * bucket.len as u64;
    }
    let e = expected.max(1e-12);
    let k = occupied as f64;
    let mut chi2 = (sum_sq as f64 - 2.0 * e * sum_len as f64 + k * e * e) / e;
    // Empty addressable buckets contribute `expected` each.
    chi2 += (space - k).max(0.0) * expected;
    FillStats {
        entries,
        occupied,
        max_fill: max,
        mean_fill: n / occupied as f64,
        chi_squared: chi2,
        addressable: space as u64,
    }
}

/// One shard of the arena: a dense node slab plus its occupied-bucket
/// chains. Every bucket id maps to exactly one shard, so a shard is a
/// self-contained sub-index over its slice of the bucket space that
/// concurrent tasks can fill or probe without synchronization.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// The shard's flat entry arena: dense, packed, walk-friendly.
    nodes: Vec<Node>,
    /// Occupied buckets only: chain head into `nodes` plus entry count.
    heads: FxHashMap<u64, Bucket>,
}

impl Shard {
    /// Link the node at slab position `idx` at the tail of its bucket's
    /// chain (insertion order). The node's `bucket` field must already be
    /// set.
    fn link_at_tail(&mut self, idx: u32) {
        let bucket = self.nodes[idx as usize].bucket;
        let slot = self.heads.entry(bucket).or_insert(Bucket {
            head: NIL,
            tail: NIL,
            len: 0,
        });
        let prev = slot.tail;
        slot.tail = idx;
        slot.len += 1;
        if prev == NIL {
            slot.head = idx;
        } else {
            self.nodes[prev as usize].next = idx;
        }
        self.nodes[idx as usize].next = NIL;
        self.nodes[idx as usize].prev = prev;
    }

    /// Push a node onto the slab and link it into its bucket's chain.
    fn push_and_link(&mut self, node: Node) {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.link_at_tail(idx);
    }

    /// Unlink the node at slab position `idx` from its chain, then keep
    /// the slab dense by `swap_remove`, re-pointing whatever referenced
    /// the moved (formerly last) node.
    fn unlink_and_remove(&mut self, idx: u32) {
        let node = self.nodes[idx as usize];
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        }
        let slot = self
            .heads
            .get_mut(&node.bucket)
            .expect("linked node's bucket exists");
        if slot.head == idx {
            slot.head = node.next;
        }
        if slot.tail == idx {
            slot.tail = node.prev;
        }
        slot.len -= 1;
        if slot.len == 0 {
            self.heads.remove(&node.bucket);
        }
        let last = self.nodes.len() as u32 - 1;
        self.nodes.swap_remove(idx as usize);
        if idx != last {
            // The slab's former last node now lives at `idx`: fix whatever
            // referenced it — chain neighbors and bucket endpoints.
            let moved = self.nodes[idx as usize];
            if moved.prev != NIL {
                self.nodes[moved.prev as usize].next = idx;
            }
            if moved.next != NIL {
                self.nodes[moved.next as usize].prev = idx;
            }
            let slot = self
                .heads
                .get_mut(&moved.bucket)
                .expect("linked node's bucket exists");
            if slot.head == last {
                slot.head = idx;
            }
            if slot.tail == last {
                slot.tail = idx;
            }
        }
    }

    /// Remove the entry for `key` from `bucket`'s chain, if present
    /// (silently a no-op otherwise, matching [`StateIndex::remove`]).
    fn remove_by_key(&mut self, bucket: u64, key: TupleKey) {
        let Some(slot) = self.heads.get(&bucket) else {
            return;
        };
        let mut i = slot.head;
        while i != NIL {
            let node = &self.nodes[i as usize];
            if node.key == key {
                self.unlink_and_remove(i);
                return;
            }
            i = node.next;
        }
    }

    /// The one link/unlink entry: perform a routed maintenance operation.
    fn apply(&mut self, op: StagedOp) {
        match op {
            StagedOp::Insert(node) => self.push_and_link(node),
            StagedOp::Remove { bucket, key } => self.remove_by_key(bucket, key),
        }
    }

    /// Replay this shard's staged lane. Ops arrive in the shard's original
    /// arrival order, so the resulting slab and chain state equal eager
    /// sequential maintenance.
    fn replay(&mut self, lane: &[StagedOp]) {
        for &op in lane {
            self.apply(op);
        }
    }

    /// Probe this shard under `plan`, appending matches to `hits` in walk
    /// order and charging `receipt` one comparison per entry whose
    /// bucket is a candidate. The narrow (enumerate candidate ids) vs wide
    /// (linear slab walk) decision is made per shard against this shard's
    /// occupied-bucket count — it picks the cheaper walk without changing
    /// the hit *set* or the comparisons; the caller sorts the merged hits
    /// into canonical key order, so the walk-order difference never
    /// escapes. `bucket_probes` are deliberately *not* charged
    /// here: the per-shard `min(candidates, occupied)` would sum to less
    /// than the unsharded charge (min is not additive), making the receipt
    /// depend on the shard count. The caller charges the canonical
    /// `min(candidate_buckets, occupied_buckets)` against global totals
    /// instead, so receipts are shard-count invariant.
    fn probe(
        &self,
        plan: &ProbePlan,
        req: &SearchRequest,
        hits: &mut Vec<TupleKey>,
        receipt: &mut CostReceipt,
    ) {
        let candidates = plan.candidate_buckets();
        if candidates <= self.heads.len() as u64 {
            // Narrow search: enumerate the 2^w candidate ids lazily (the
            // carry-propagate submask walk) and follow each occupied
            // bucket's chain through the slab.
            for id in plan.enumerate() {
                if let Some(slot) = self.heads.get(&id) {
                    let mut i = slot.head;
                    while i != NIL {
                        let node = &self.nodes[i as usize];
                        receipt.comparisons += 1;
                        if req.matches(node.jas.as_slice()) {
                            hits.push(node.key);
                        }
                        i = node.next;
                    }
                }
            }
        } else {
            // Wide search: one linear pass over the contiguous slab,
            // filtering on each node's cached bucket id. Visits exactly
            // the entries the per-bucket formulation would: one comparison
            // per entry in a candidate bucket.
            for node in &self.nodes {
                if plan.matches(node.bucket) {
                    receipt.comparisons += 1;
                    if req.matches(node.jas.as_slice()) {
                        hits.push(node.key);
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
        BitAddressIndex {
            config,
            shard_bits: shard_count.trailing_zeros(),
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
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
        if shard_count == self.shards.len() {
            return;
        }
        let all = self.drain_nodes();
        self.shard_bits = shard_count.trailing_zeros();
        self.shards.resize_with(shard_count, Shard::default);
        self.relink(all, &SequentialExecutor);
    }

    /// Empty every shard, returning the nodes gathered shard-major in
    /// slab order — the deterministic arrival order a redistribution
    /// replays.
    fn drain_nodes(&mut self) -> Vec<Node> {
        let mut all: Vec<Node> = Vec::with_capacity(self.entries());
        for shard in &mut self.shards {
            all.append(&mut shard.nodes);
            shard.heads.clear();
        }
        all
    }

    /// Route `nodes` (bucket ids already current) to their owning shards
    /// and link them in order, one task per shard.
    fn relink(&mut self, nodes: Vec<Node>, exec: &dyn ShardExecutor) {
        let mut stage = IngestStage::new();
        for node in nodes {
            stage.push(
                self.shards.len(),
                self.shard_of(node.bucket),
                StagedOp::Insert(node),
            );
        }
        self.apply_stage(&mut stage, exec);
    }

    /// The shard a bucket id routes to.
    #[inline]
    fn shard_of(&self, bucket: u64) -> usize {
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
        self.shards.iter().map(|s| s.heads.len()).sum()
    }

    /// Size of the largest bucket.
    ///
    /// Diagnostics only (tests, operator reports) — never called on the
    /// search/insert hot path. Reads the incrementally maintained
    /// per-bucket lengths, so it is O(occupied buckets) with no chain
    /// walks.
    pub fn max_bucket(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.heads.values())
            .map(|b| b.len as usize)
            .max()
            .unwrap_or(0)
    }

    /// Exhaustively check the arena/chain invariants, returning the first
    /// violation found. Diagnostics only — O(entries), never on the hot
    /// path; tests call it after every mutation to prove `swap_remove`
    /// eviction leaves the structure sound:
    ///
    /// * every chain is cycle-free and its `next`/`prev` links mirror;
    /// * each bucket's maintained `len` equals its walked chain length;
    /// * every node's cached `bucket` matches the chain it is linked into
    ///   and re-deriving it from the node's JAS under the active config;
    /// * the chains partition the slab: each node is reachable exactly
    ///   once (the slab is dense by construction — it's a `Vec`);
    /// * every node lives in the shard its bucket id routes to.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            let n = shard.nodes.len();
            let mut seen = vec![false; n];
            let mut reached = 0usize;
            for (&id, bucket) in &shard.heads {
                if self.shard_of(id) != s {
                    return Err(format!("bucket {id:#x} linked in foreign shard {s}"));
                }
                if bucket.len == 0 {
                    return Err(format!("bucket {id:#x} kept with len 0"));
                }
                let mut i = bucket.head;
                let mut prev = NIL;
                let mut walked = 0u32;
                while i != NIL {
                    if walked > bucket.len {
                        return Err(format!("bucket {id:#x} chain cycles"));
                    }
                    let node = &shard.nodes[i as usize];
                    if node.prev != prev {
                        return Err(format!(
                            "node {s}/{i} prev link {} != walk predecessor {prev}",
                            node.prev
                        ));
                    }
                    if node.bucket != id {
                        return Err(format!(
                            "node {s}/{i} cached bucket {:#x} linked under {id:#x}",
                            node.bucket
                        ));
                    }
                    if self.config.bucket_of(&node.jas) != id {
                        return Err(format!("node {s}/{i} bucket stale vs config"));
                    }
                    if seen[i as usize] {
                        return Err(format!("node {s}/{i} reachable from two chains"));
                    }
                    seen[i as usize] = true;
                    reached += 1;
                    walked += 1;
                    prev = i;
                    i = node.next;
                }
                if walked != bucket.len {
                    return Err(format!(
                        "bucket {id:#x} len {} != walked {walked}",
                        bucket.len
                    ));
                }
                if bucket.tail != prev {
                    return Err(format!("bucket {id:#x} tail {} != {prev}", bucket.tail));
                }
            }
            if reached != n {
                return Err(format!(
                    "shard {s}: {} of {n} slab nodes unreachable",
                    n - reached
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
    /// Diagnostics only — never called on the search/insert hot path. It
    /// reads the incrementally maintained per-bucket lengths, so the cost
    /// is O(occupied buckets) regardless of entry count.
    pub fn fill_stats(&self) -> FillStats {
        let entries = self.entries();
        let occupied = self.occupied_buckets();
        if occupied == 0 {
            return FillStats::default();
        }
        // The addressable space may be astronomically larger than the
        // content; evenness is judged over the *addressable* buckets when
        // small, else over the occupied ones.
        let space = if self.config.total_bits() >= 32 {
            occupied as f64
        } else {
            (1u64 << self.config.total_bits()) as f64
        };
        fill_from_lens(
            entries,
            occupied,
            space,
            self.shards.iter().flat_map(|s| s.heads.values()),
        )
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
                let entries = shard.nodes.len();
                let occupied = shard.heads.len();
                if occupied == 0 {
                    return FillStats::default();
                }
                // A shard owns an equal slice of the addressable space iff
                // its id is reachable under the effective partition bits.
                let owns_slice = total_bits < 32 && (s as u64) < (1u64 << effective);
                let space = if owns_slice {
                    (1u64 << (total_bits - effective)) as f64
                } else {
                    occupied as f64
                };
                fill_from_lens(entries, occupied, space, shard.heads.values())
            })
            .collect()
    }

    /// Adapt the index to `new_config`: relocate every entry to the buckets
    /// the new key map defines (§III: "adapting BI requires ... the
    /// relocation of each tuple"). Charges one hash per indexed attribute
    /// per entry plus one move per entry. The rebucket and relink passes
    /// fan out shard-by-shard over `exec` (one task per shard, two
    /// dispatches at most), so tuner reconfiguration does not serialize
    /// the pipeline; slab order, chain order and charges are identical
    /// for any executor:
    ///
    /// 1. **Rebucket** (parallel): each shard re-derives its nodes' bucket
    ///    ids from the new key map and records whether any entry now
    ///    belongs to a different shard. Per-shard work is independent and
    ///    order-free.
    /// 2. **Relink** (parallel) when no entry crossed shards (always true
    ///    for a single shard, and whenever the partitioning bits are
    ///    stable across the two configurations): each shard clears its
    ///    chains and relinks its slab in slab order, in place, with no
    ///    per-entry allocation.
    /// 3. **Redistribute** otherwise: nodes are gathered shard-major in
    ///    slab order (a deterministic sequential pass fixing arrival
    ///    order), staged per destination shard, and each destination
    ///    relinks its staged run in one parallel task.
    pub fn migrate_with(
        &mut self,
        new_config: IndexConfig,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
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
            for node in &mut shard.nodes {
                node.bucket = config.bucket_of(&node.jas);
                left |= shard_index(node.bucket, shard_bits, total_bits) != s;
            }
            if left {
                crossed.store(true, Ordering::Relaxed);
            }
        });
        if !crossed.into_inner() {
            // In-place relink, one task per shard.
            for_each_slot(exec, work_ns, &mut self.shards, |_, shard| {
                shard.heads.clear();
                for idx in 0..shard.nodes.len() as u32 {
                    shard.link_at_tail(idx);
                }
            });
        } else {
            // Cross-shard relocation: gather deterministically, then
            // re-route and relink per destination shard.
            let all = self.drain_nodes();
            self.relink(all, exec);
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
    /// partition and on each shard's swap-remove history, whereas arena
    /// keys are assigned by the unsharded state store — sorting is the
    /// only order every shard count can agree on. Downstream routing
    /// consumes hits in order, so without the canonical sort the join-job
    /// queue (and every adaptive decision fed by it) would observe the
    /// shard count.
    fn probe_shards(
        &self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
        scratch.hits.clear();
        // Hash the specified-and-indexed attributes once (C_hash,Sr) —
        // planning happens once, not per shard.
        let hashed = req
            .pattern
            .positions()
            .filter(|&i| self.config.bits_of(i) > 0)
            .count() as u64;
        receipt.hash_ops += hashed;
        let plan = self.config.probe_plan(req.pattern, req.values.as_slice());
        let s_count = self.shards.len();
        if s_count == 1 {
            self.shards[0].probe(&plan, req, &mut scratch.hits, receipt);
        } else {
            let total_bits = self.config.total_bits();
            let mut slots = scratch.take_shard_slots();
            slots.resize_with(s_count.max(slots.len()), ShardSlot::default);
            let work_ns = plan.candidate_buckets().min(self.entries() as u64) * WALK_NS;
            for_each_slot(exec, work_ns, &mut slots[..s_count], |s, slot| {
                slot.hits.clear();
                slot.receipt = CostReceipt::new();
                if let Some(slice) = plan.shard_slice(s as u64, self.shard_bits, total_bits) {
                    self.shards[s].probe(&slice, req, &mut slot.hits, &mut slot.receipt);
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
    /// — and route it: returns the owning shard and the bucket id.
    fn route(&self, jas: &AttrVec, receipt: &mut CostReceipt) -> (usize, u64) {
        receipt.hash_ops += self.config.indexed_attrs() as u64;
        receipt.bucket_probes += 1;
        let bucket = self.config.bucket_of(jas);
        (self.shard_of(bucket), bucket)
    }

    /// Serialize the full physical structure — the (possibly tuned)
    /// active configuration, each shard's slab in slab order with chain
    /// links verbatim, and the occupied-bucket records sorted by id — so
    /// a restored index probes, charges, and yields hits in exactly the
    /// original order. Chain order carries insertion history that slab
    /// order does not (swap-remove eviction reorders the slab), which is
    /// why the links are stored rather than re-derived.
    pub fn save(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("BITADDR");
        let bits = self.config.bits();
        w.put_usize(bits.len());
        for &b in bits {
            w.put_u8(b);
        }
        w.put_u32(self.shard_bits);
        for shard in &self.shards {
            w.put_usize(shard.nodes.len());
            for node in &shard.nodes {
                w.put_u32(node.key.0);
                w.put_attrs(&node.jas);
                w.put_u64(node.bucket);
                w.put_u32(node.next);
                w.put_u32(node.prev);
            }
            let mut buckets: Vec<(u64, Bucket)> =
                shard.heads.iter().map(|(&id, &b)| (id, b)).collect();
            buckets.sort_unstable_by_key(|&(id, _)| id);
            w.put_usize(buckets.len());
            for (id, b) in buckets {
                w.put_u64(id);
                w.put_u32(b.head);
                w.put_u32(b.tail);
                w.put_u32(b.len);
            }
        }
    }

    /// Rebuild an index from a [`save`](Self::save)d section.
    pub fn restore(
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<Self, crate::snapshot_io::SnapshotError> {
        use crate::snapshot_io::SnapshotError;
        crate::snapshot_io::expect_tag(r, "BITADDR")?;
        let width = r.get_usize()?;
        let mut bits = Vec::with_capacity(width);
        for _ in 0..width {
            bits.push(r.get_u8()?);
        }
        let config = IndexConfig::new(bits)
            .map_err(|e| SnapshotError::Malformed(format!("index config: {e}")))?;
        let shard_bits = r.get_u32()?;
        if shard_bits > 16 {
            return Err(SnapshotError::Malformed(format!(
                "shard bits {shard_bits} out of range"
            )));
        }
        let shard_count = 1usize << shard_bits;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let n_nodes = r.get_usize()?;
            let mut nodes = Vec::with_capacity(n_nodes);
            for _ in 0..n_nodes {
                let key = TupleKey(r.get_u32()?);
                let jas = r.get_attrs()?;
                let bucket = r.get_u64()?;
                let next = r.get_u32()?;
                let prev = r.get_u32()?;
                for link in [next, prev] {
                    if link != NIL && link as usize >= n_nodes {
                        return Err(SnapshotError::Malformed(format!(
                            "chain link {link} beyond slab of {n_nodes}"
                        )));
                    }
                }
                nodes.push(Node {
                    key,
                    jas,
                    bucket,
                    next,
                    prev,
                });
            }
            let n_buckets = r.get_usize()?;
            let mut heads = FxHashMap::default();
            for _ in 0..n_buckets {
                let id = r.get_u64()?;
                let head = r.get_u32()?;
                let tail = r.get_u32()?;
                let len = r.get_u32()?;
                if head as usize >= n_nodes || tail as usize >= n_nodes {
                    return Err(SnapshotError::Malformed(format!(
                        "bucket {id:#x} endpoints beyond slab of {n_nodes}"
                    )));
                }
                heads.insert(id, Bucket { head, tail, len });
            }
            shards.push(Shard { nodes, heads });
        }
        let idx = BitAddressIndex {
            config,
            shard_bits,
            shards,
        };
        idx.check_integrity().map_err(SnapshotError::Malformed)?;
        Ok(idx)
    }
}

impl StateIndex for BitAddressIndex {
    fn insert(&mut self, key: TupleKey, jas: &AttrVec, receipt: &mut CostReceipt) {
        let (s, bucket) = self.route(jas, receipt);
        self.shards[s].apply(StagedOp::insert(key, jas, bucket));
    }

    fn remove(&mut self, key: TupleKey, jas: &AttrVec, receipt: &mut CostReceipt) {
        let (s, bucket) = self.route(jas, receipt);
        self.shards[s].apply(StagedOp::Remove { bucket, key });
    }

    fn stage_insert(
        &mut self,
        key: TupleKey,
        jas: &AttrVec,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let (s, bucket) = self.route(jas, receipt);
        stage.push(self.shards.len(), s, StagedOp::insert(key, jas, bucket));
    }

    fn stage_remove(
        &mut self,
        key: TupleKey,
        jas: &AttrVec,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let (s, bucket) = self.route(jas, receipt);
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
        self.shards
            .iter()
            .map(|s| {
                s.heads.len() as u64 * layout::BUCKET_BYTES
                    + s.nodes.len() as u64 * layout::bucket_entry_bytes(self.config.width())
            })
            .sum()
    }

    fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.nodes.len()).sum()
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
