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
//! Unlike the multi-hash baseline, **a tuple is stored once, as its bucket
//! entry** — a head, its JAS values and its place in a group of its bucket,
//! no hash-key link per indexed attribute — which is the §III argument for
//! low maintenance cost; and *adapting* the index is a single re-bucketing
//! pass ([`BitAddressIndex::migrate_with`]).
//!
//! ## Physical layout: slab, value stride, groups, directory
//!
//! An entry is as wide as its JAS. A shard stores
//!
//! * a dense **slab** of fixed 24-byte entry heads — cached bucket id, tuple
//!   key, the group that lists the entry and a four-byte value tag;
//! * the JAS **values** beside it in one flat `Vec<u64>`, `config.width()`
//!   words per entry in slab order (entry `i` owns words
//!   `i·width .. (i+1)·width`), so matching never chases back into the
//!   tuple arena and a three-attribute entry costs 48 bytes, not an
//!   eight-slot inline vector;
//! * **groups**: 64-byte, line-aligned records, each listing up to six
//!   entries of one bucket id — the id, a chain link, a length, and the
//!   entries' value tags and slab positions side by side. A bucket of more
//!   than six entries spans several groups; an emptied group goes on a free
//!   list threaded through its link, so the steady state allocates nothing;
//! * a power-of-two **directory** of group chains (`Vec<u32>`, at least two
//!   slots per entry), addressed by a Fibonacci hash of the bucket id.
//!
//! Every group whose id hashes to a slot is chained from that slot, so a
//! candidate id costs one directory load and a walk of the slot's groups
//! that skips the groups of other ids; a group of the id is charged all its
//! entries at once and tag-tested from the line already loaded. Byte `i`
//! of an entry's value tag is the low byte of JAS position `i`'s hash
//! (positions 0–3; a tag is one `u32`), and the probe plan carries the
//! request's tag bytes for its bound positions, so an entry whose tag
//! disagrees is rejected without a load from the value stride. The model
//! still charges it one comparison, and an entry whose values match always
//! carries the request's tag bytes, so neither hits nor receipts depend on
//! the tag — only the wall time does. The values that are read are
//! compared against the request decoded once per search
//! ([`SearchRequest::bound`]).
//!
//! An insert fills a group of its id with room on its chain, or puts a
//! fresh one first on the chain; a remove moves its group's last entry
//! into the hole and frees the group when it empties. The number of
//! distinct ids stored — which prices `bucket_probes`, `memory_bytes` and
//! the narrow/wide choice — is kept incrementally: an insert counts its id
//! if the chain held no group of it, a remove that frees a group looks for
//! another group of the id, and a directory doubling re-chains the groups
//! without recounting.
//!
//! [`StateStore::search`](crate::StateStore::search) sorts hits into key
//! order before anything reads them, so **group, chain and slab order are
//! unobservable**: receipts and hit sets depend only on which entries are
//! stored, never on how they were grouped. That is what lets a directory
//! doubling and a migration regroup in slab order, and a snapshot carry no
//! index at all: a restore rebuilds it from the stored tuples
//! ([`StateStore::reindex`](crate::StateStore::reindex)).
//!
//! * **Wide wildcard searches** walk the head slab linearly, test each
//!   cached bucket id against the probe plan's mask and each tag of an
//!   entry that passes against the plan's tag bytes. Where buckets are
//!   sparse a group lists one entry, so walking the groups would read 64
//!   bytes per entry, and the head again for a hit's key;
//! * **migration** rebuilds in place: one contiguous pass re-derives every
//!   entry's bucket id from the value stride, then the groups are rebuilt
//!   in slab order through the existing buffers — zero per-entry
//!   allocation. Tags depend on the values alone, so a migration keeps
//!   them.
//!
//! Removal keeps slab and stride dense via `swap_remove` plus a fixup of
//! the moved entry's position in its group, so the linear-walk invariant
//! never degrades.
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
//! shard order**, so a sharded search returns the same hits and receipt
//! whether its shard tasks ran inline or on a worker pool — the
//! determinism contract `tests/pipeline_equivalence.rs` pins. With one
//! shard (the default) every code path below degenerates to the exact
//! pre-sharding behavior, bit for bit, receipt for receipt.

use crate::config::{IndexConfig, ProbePlan};
use crate::cost::CostReceipt;
use crate::layout;
use crate::parallel::{for_each_slot, SequentialExecutor, ShardExecutor, RELINK_NS, WALK_NS};
use crate::state::{SearchScratch, ShardSlot, StateIndex, TupleKey};
use amri_stream::{AttrValue, BoundValues, SearchRequest};
use std::sync::atomic::{AtomicBool, Ordering};

/// Null chain link, the empty directory slot and the empty free list.
const NIL: u32 = u32::MAX;

/// 2^64 / φ: the Fibonacci-hashing multiplier. Bucket ids are concatenated
/// hash slices that differ mostly in their low bits; the multiply spreads
/// them over the top bits a directory slot is taken from.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Entries per group: what fits one 64-byte line beside the group's id,
/// link and length.
const GROUP: usize = 6;

/// The fixed-width part of one slab entry: the cached bucket id (so wide
/// searches, migration and the diagnostics never re-hash), the tuple key,
/// the group that lists it and its value tag again — a wide search walks
/// the heads, not the groups. The entry's JAS values live at the same
/// position of the shard's value stride.
#[derive(Debug, Clone, Copy)]
struct EntryHead {
    bucket: u64,
    key: TupleKey,
    /// The group whose `slot` names this entry.
    group: u32,
    /// Low hash byte of each of the first four JAS values
    /// ([`IndexConfig::bucket_and_tag`]): a probe reads the value stride
    /// only for an entry whose tag the probe plan admits.
    tag: u32,
}

/// Up to [`GROUP`] entries of one bucket id on one cache line: their slab
/// positions and their value tags side by side, so a probe charges and
/// tag-tests them from the line the directory or the previous group
/// pointed at.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Group {
    bucket: u64,
    /// Next group on the directory slot's chain, or on the free list;
    /// `NIL` at the end.
    next: u32,
    /// Entries held: `1..=GROUP` on a chain, 0 on the free list.
    len: u32,
    /// The entries' value tags, beside each other so a narrow probe
    /// tests them from the line it already loaded.
    tag: [u32; GROUP],
    /// The entries' slab positions.
    slot: [u32; GROUP],
}

/// What `JoinState::ingest_arrival` and its two flush forwarders take
/// (`amri-engine`): nothing. Every insert and remove links or unlinks its
/// entry in the call that charges it, so there is nothing to stage; the
/// type only keeps the frozen benchmark API compiling, and ROADMAP item 11
/// deletes it.
#[derive(Debug, Clone, Default)]
pub struct IngestStage;

impl IngestStage {
    /// The (empty) stage.
    pub fn new() -> Self {
        Self
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
/// beside it, the groups that list the entries by bucket id and the
/// directory of group chains (see the module docs). Every bucket id maps
/// to exactly one shard, so a shard is a self-contained sub-index over its
/// slice of the bucket space that concurrent tasks can fill or probe
/// without synchronization.
#[derive(Debug, Clone)]
struct Shard {
    /// The entry heads, dense.
    heads: Vec<EntryHead>,
    /// The entries' JAS values, `width` words each, in slab order.
    vals: Vec<AttrValue>,
    /// Words per entry in `vals` — the configuration's JAS width.
    width: usize,
    /// Every group ever taken: the live ones on the directory's chains,
    /// the emptied ones on the free list.
    groups: Vec<Group>,
    /// First group of the free list, or `NIL`.
    free: u32,
    /// First group of each chain by `slot(bucket)`; empty until the first
    /// insert, then a power of two holding at least two slots per entry.
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
            groups: Vec::new(),
            free: NIL,
            dir: Vec::new(),
            shift: 0,
            occupied: 0,
        }
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
    /// the next power of two holding two slots per entry and chain the
    /// live groups again. Groups keep their entries, so nothing is
    /// recounted.
    fn fit_directory(&mut self, entries: usize) {
        if 2 * entries <= self.dir.len() {
            return;
        }
        let len = (2 * entries).next_power_of_two().max(2);
        self.dir.clear();
        self.dir.resize(len, NIL);
        self.shift = 64 - len.trailing_zeros();
        for g in 0..self.groups.len() {
            if self.groups[g].len != 0 {
                let slot = self.slot(self.groups[g].bucket);
                self.groups[g].next = self.dir[slot];
                self.dir[slot] = g as u32;
            }
        }
    }

    /// List the entry at slab position `idx` under its bucket id: in a
    /// group of that id with room on the slot's chain, else in a group
    /// taken from the free list (or pushed) and put first on the chain.
    /// Counts the id if the chain held no group of it.
    fn place(&mut self, idx: u32) {
        let EntryHead { bucket, tag, .. } = self.heads[idx as usize];
        let slot = self.slot(bucket);
        let mut g = self.dir[slot];
        let mut held = false;
        while g != NIL {
            let grp = &self.groups[g as usize];
            if grp.bucket == bucket {
                held = true;
                if (grp.len as usize) < GROUP {
                    break;
                }
            }
            g = grp.next;
        }
        if g == NIL {
            if !held {
                self.occupied += 1;
            }
            let fresh = Group {
                bucket,
                next: self.dir[slot],
                len: 0,
                tag: [0; GROUP],
                slot: [0; GROUP],
            };
            g = if self.free == NIL {
                self.groups.push(fresh);
                (self.groups.len() - 1) as u32
            } else {
                let g = self.free;
                self.free = self.groups[g as usize].next;
                self.groups[g as usize] = fresh;
                g
            };
            self.dir[slot] = g;
        }
        let grp = &mut self.groups[g as usize];
        let k = grp.len as usize;
        grp.tag[k] = tag;
        grp.slot[k] = idx;
        grp.len += 1;
        self.heads[idx as usize].group = g;
    }

    /// Store a new entry and list it in a group of its bucket id.
    fn insert(&mut self, key: TupleKey, bucket: u64, tag: u32, jas: &[AttrValue]) {
        // The stride is only addressable if every entry is `width` wide.
        assert_eq!(jas.len(), self.width, "JAS width differs from the index's");
        self.fit_directory(self.heads.len() + 1);
        let idx = self.heads.len() as u32;
        self.heads.push(EntryHead {
            bucket,
            key,
            group: NIL,
            tag,
        });
        self.vals.extend_from_slice(jas);
        self.place(idx);
    }

    /// Remove the entry for `key` from `bucket`, if present (silently a
    /// no-op otherwise, matching [`StateIndex::remove`]). `tag` is the
    /// entry's value tag: the walk tests it from the group line it already
    /// loaded, so only an entry of that tag loads its head to compare the
    /// key. The group's last entry fills the hole; a group that empties
    /// leaves the chain for the free list, and the id stays counted only
    /// if another group of it is chained. Then the slab's last entry moves
    /// into the freed position and its group's `slot` follows it.
    fn remove_by_key(&mut self, bucket: u64, tag: u32, key: TupleKey) {
        if self.dir.is_empty() {
            return;
        }
        let slot = self.slot(bucket);
        let (mut prev, mut g) = (NIL, self.dir[slot]);
        let k = 'walk: loop {
            if g == NIL {
                return;
            }
            let grp = &self.groups[g as usize];
            if grp.bucket == bucket {
                for k in 0..grp.len as usize {
                    if grp.tag[k] == tag && self.heads[grp.slot[k] as usize].key == key {
                        break 'walk k;
                    }
                }
            }
            (prev, g) = (g, grp.next);
        };
        let grp = &mut self.groups[g as usize];
        let idx = grp.slot[k];
        let last = grp.len as usize - 1;
        grp.tag[k] = grp.tag[last];
        grp.slot[k] = grp.slot[last];
        grp.len -= 1;
        if grp.len == 0 {
            let next = grp.next;
            grp.next = self.free;
            self.free = g;
            if prev == NIL {
                self.dir[slot] = next;
            } else {
                self.groups[prev as usize].next = next;
            }
            let mut g = self.dir[slot];
            while g != NIL && self.groups[g as usize].bucket != bucket {
                g = self.groups[g as usize].next;
            }
            if g == NIL {
                self.occupied -= 1;
            }
        }
        let last = self.heads.len() - 1;
        let w = self.width;
        self.heads.swap_remove(idx as usize);
        self.vals
            .copy_within(last * w..(last + 1) * w, idx as usize * w);
        self.vals.truncate(last * w);
        if idx as usize != last {
            let grp = &mut self.groups[self.heads[idx as usize].group as usize];
            let listed = &mut grp.slot[..grp.len as usize];
            let k = listed.iter().position(|&p| p == last as u32).unwrap();
            listed[k] = idx;
        }
    }

    /// Drop every group and list the slab again in slab order, recounting
    /// the distinct ids — the in-place half of a migration, after the
    /// entries' bucket ids changed under them. Tags depend on the values
    /// alone, so they stay. The group buffer keeps its capacity.
    fn relink_all(&mut self) {
        self.dir.fill(NIL);
        self.groups.clear();
        self.free = NIL;
        self.occupied = 0;
        for idx in 0..self.heads.len() as u32 {
            self.place(idx);
        }
    }

    /// Charge `grp`'s entries one comparison each and append the keys of
    /// those that match to `hits`: a fixed-trip pass builds the mask of
    /// entries whose tag the plan admits, and only those load their values
    /// from the stride.
    #[inline(always)]
    fn scan(
        &self,
        grp: &Group,
        plan: &ProbePlan,
        bound: &BoundValues<'_>,
        hits: &mut Vec<TupleKey>,
        receipt: &mut CostReceipt,
    ) {
        receipt.comparisons += u64::from(grp.len);
        let mut admitted = 0u32;
        for (k, &tag) in grp.tag.iter().enumerate() {
            admitted |= u32::from(plan.tag.admits(tag)) << k;
        }
        admitted &= (1 << grp.len) - 1;
        while admitted != 0 {
            let p = grp.slot[admitted.trailing_zeros() as usize] as usize;
            admitted &= admitted - 1;
            if bound.matches(self.jas(p)) {
                hits.push(self.heads[p].key);
            }
        }
    }

    /// Probe this shard under `plan`, appending the entries that match
    /// `bound` to `hits` in walk order and charging `receipt` one
    /// comparison per entry whose bucket is a candidate — whether the walk
    /// compared its values or its tag already ruled it out (the model
    /// charges the comparison, not the load). The narrow (enumerate
    /// candidate ids) vs wide (linear group walk) decision is made per
    /// shard against this shard's occupied-bucket count — it picks the
    /// cheaper walk without changing the hit *set* or the comparisons; the
    /// state store sorts the merged hits into key order, so the walk-order
    /// difference never escapes. `bucket_probes` are
    /// deliberately *not* charged here: the per-shard `min(candidates,
    /// occupied)` would sum to less than the unsharded charge (min is not
    /// additive), making the receipt depend on the shard count. The caller
    /// charges the canonical `min(candidate_buckets, occupied_buckets)`
    /// against global totals instead, so receipts are shard-count
    /// invariant.
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
            // and a walk of that slot's groups, scanning only the groups
            // that carry the id.
            for id in plan.enumerate() {
                let mut g = self.dir[self.slot(id)];
                while g != NIL {
                    let grp = &self.groups[g as usize];
                    if grp.bucket == id {
                        self.scan(grp, plan, bound, hits, receipt);
                    }
                    g = grp.next;
                }
            }
        } else {
            // Wide search: one linear pass over the contiguous heads,
            // filtering on each cached bucket id. Visits exactly the
            // entries the per-bucket formulation would: one comparison
            // per entry in a candidate bucket. The heads, not the groups:
            // a wide search of sparse buckets meets one entry per group,
            // and would load a group line and the head for its key where
            // the head alone serves.
            for (i, e) in self.heads.iter().enumerate() {
                if plan.matches(e.bucket) {
                    receipt.comparisons += 1;
                    if plan.tag.admits(e.tag) && bound.matches(self.jas(i)) {
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

    /// Re-route every entry (bucket ids already current) over
    /// `shard_count` fresh shards, one task per destination: each walks
    /// the old shards shard-major in slab order and inserts the entries
    /// routed to it, so every destination's slab and groups are the same
    /// for any executor. A destination keeps the
    /// directory buffer of the old shard at its position, emptied.
    fn redistribute(&mut self, shard_count: usize, exec: &dyn ShardExecutor) {
        let mut old = std::mem::take(&mut self.shards);
        let work_ns = old.iter().map(|s| s.heads.len() as u64).sum::<u64>() * RELINK_NS;
        self.shard_bits = shard_count.trailing_zeros();
        let (shard_bits, total_bits) = (self.shard_bits, self.config.total_bits());
        let width = self.config.width();
        self.shards = (0..shard_count)
            .map(|d| {
                let mut fresh = Shard::new(width);
                if let Some(shard) = old.get_mut(d) {
                    fresh.dir = std::mem::take(&mut shard.dir);
                    fresh.dir.fill(NIL);
                    fresh.shift = shard.shift;
                }
                fresh
            })
            .collect();
        let old = &old;
        for_each_slot(exec, work_ns, &mut self.shards, |d, dest| {
            for shard in old {
                for (i, e) in shard.heads.iter().enumerate() {
                    if shard_index(e.bucket, shard_bits, total_bits) == d {
                        dest.insert(e.key, e.bucket, e.tag, shard.jas(i));
                    }
                }
            }
        });
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

    /// Exhaustively check the slab/group invariants, returning the first
    /// violation found. Diagnostics only — O(entries log entries), never on
    /// the hot path; tests call it after every mutation to prove
    /// `swap_remove` and group recycling leave the structure sound:
    ///
    /// * the value stride holds exactly `width` words per slab entry, and
    ///   the directory is a power of two with two slots per entry;
    /// * every chained group is non-empty, cycle-free, holds one id and is
    ///   chained under the slot that id hashes to, in the shard it routes
    ///   to;
    /// * the groups list every slab entry exactly once, each entry's
    ///   `group` names the group that lists it, and its cached id and tag —
    ///   in its head and in its group — equal re-deriving them from its JAS
    ///   under the active config;
    /// * the free list holds only empty groups, has no cycle, and with the
    ///   chains accounts for every group;
    /// * the maintained distinct-id count equals a recount.
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
            let groups = shard.groups.len();
            let mut group_seen = vec![false; groups];
            let mut visit = |g: u32, what: &str| {
                if g as usize >= groups {
                    return Err(format!("shard {s}: {what} names group {g} of {groups}"));
                }
                if std::mem::replace(&mut group_seen[g as usize], true) {
                    return Err(format!("shard {s}: group {g} reached twice ({what})"));
                }
                Ok(&shard.groups[g as usize])
            };
            let mut seen = vec![false; n];
            let mut reached = 0usize;
            for (slot, &first) in shard.dir.iter().enumerate() {
                let mut g = first;
                while g != NIL {
                    let grp = visit(g, "a chain")?;
                    if grp.len == 0 || grp.len as usize > GROUP {
                        return Err(format!("group {s}/{g} on a chain holds {}", grp.len));
                    }
                    if shard.slot(grp.bucket) != slot || self.shard_of(grp.bucket) != s {
                        return Err(format!(
                            "group {s}/{g} of bucket {:#x} chained under slot {slot}",
                            grp.bucket
                        ));
                    }
                    for k in 0..grp.len as usize {
                        let i = grp.slot[k] as usize;
                        if i >= n || std::mem::replace(&mut seen[i], true) {
                            return Err(format!("group {s}/{g} lists entry {i} twice or past {n}"));
                        }
                        reached += 1;
                        let e = &shard.heads[i];
                        if e.group != g {
                            return Err(format!("entry {s}/{i} names group {}, not {g}", e.group));
                        }
                        let derived = self.config.bucket_and_tag(shard.jas(i));
                        if derived != (e.bucket, e.tag)
                            || (e.bucket, e.tag) != (grp.bucket, grp.tag[k])
                        {
                            return Err(format!("entry {s}/{i} bucket or tag stale vs config"));
                        }
                    }
                    g = grp.next;
                }
            }
            if reached != n {
                return Err(format!(
                    "shard {s}: {} of {n} slab entries unlisted",
                    n - reached
                ));
            }
            let mut g = shard.free;
            while g != NIL {
                let grp = visit(g, "the free list")?;
                if grp.len != 0 {
                    return Err(format!("free group {s}/{g} holds {}", grp.len));
                }
                g = grp.next;
            }
            if let Some(lost) = group_seen.iter().position(|&seen| !seen) {
                return Err(format!("group {s}/{lost} on no chain and not free"));
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
    /// 3. **Redistribute** otherwise (parallel): one task per destination
    ///    shard walks the old shards shard-major in slab order and links
    ///    the entries routed to it.
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
    /// merge hits and costs in fixed shard order.
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
    /// *global* occupancy, so receipts are shard-count invariant. The hits
    /// stay in walk order (group order for a narrow probe, slab order for
    /// a wide one); [`StateStore::search`](crate::StateStore::search)
    /// sorts them into the key order every shard count agrees on.
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
    }

    /// Charge one maintenance operation — `indexed_attrs` hashes plus one
    /// bucket probe, data-independent — and route an insert or a remove:
    /// returns the owning shard, the bucket id and the value tag, hashed
    /// together.
    fn route(&self, jas: &[AttrValue], receipt: &mut CostReceipt) -> (usize, u64, u32) {
        receipt.hash_ops += self.config.indexed_attrs() as u64;
        receipt.bucket_probes += 1;
        let (bucket, tag) = self.config.bucket_and_tag(jas);
        (self.shard_of(bucket), bucket, tag)
    }
}

impl StateIndex for BitAddressIndex {
    fn insert(&mut self, key: TupleKey, jas: &[AttrValue], receipt: &mut CostReceipt) {
        let (s, bucket, tag) = self.route(jas, receipt);
        self.shards[s].insert(key, bucket, tag, jas);
    }

    fn remove(&mut self, key: TupleKey, jas: &[AttrValue], receipt: &mut CostReceipt) {
        let (s, bucket, tag) = self.route(jas, receipt);
        self.shards[s].remove_by_key(bucket, tag, key);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::{AccessPattern, AttrVec};
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
            .then(|| {
                // The index answers in walk order; the store sorts.
                scratch.hits.sort_unstable();
                scratch.hits
            })
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
        assert_eq!(idx.fill_stats().max_fill, 30);
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
        assert_eq!(idx.fill_stats().max_fill, 5);
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

        /// Memory-pressure eviction through `StateStore::evict_oldest`
        /// interleaved with inserts and searches: after every step the
        /// flat arena stays dense with cycle-free, fully consistent
        /// chains, and `search_into` agrees with a scan oracle over the
        /// model's survivor set. Eviction charges, per evicted entry,
        /// exactly one base op, `indexed_attrs` hashes and one bucket probe.
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
                    let evicted = store.evict_oldest(count, &mut charged);
                    prop_assert_eq!(evicted, count.min(model.len()));
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
    /// eight-slot `AttrVec` is stored per entry. Its place in a group is
    /// paid per group, not here.
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
        /// migration, re-sharding, a fresh index filled with the stored
        /// `(key, JAS)` pairs in key order (what a snapshot restore does,
        /// [`StateStore::reindex`]) — at 1, 2
        /// and 4 shards,
        /// starting from the one-bucket (zero-bit) configuration or an
        /// arbitrary one, over an even value domain or a skewed one whose
        /// buckets span several groups. After every step a probe returns the model's
        /// hits in key order with the model's receipt (`hash_ops`,
        /// `comparisons` = entries in candidate buckets, `bucket_probes` =
        /// min(candidates, occupied)), `occupied_buckets`, `memory_bytes`
        /// and `entries` equal the model's, and the structure is sound.
        #[test]
        fn index_matches_a_bucket_map_model_under_every_reshaping(
            start_trivial in proptest::bool::ANY,
            skewed in proptest::bool::ANY,
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
                // A skewed domain of mostly zeros: its few buckets overflow
                // a group.
                let vals: Vec<u64> = if skewed {
                    vals.iter().map(|v| v / 4).collect()
                } else {
                    vals
                };
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
                        let config = idx.config().clone();
                        idx = BitAddressIndex::with_shards(config, idx.shard_count());
                        for (&key, vals) in &model {
                            idx.insert(key, &jas(vals), &mut r);
                        }
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

    /// A group is one cache line: id, link and length (16 bytes) plus six
    /// tags and six slab positions fill the 64, aligned to the line so a
    /// narrow probe's load of it touches one. The head's group index takes
    /// the place of the two chain links it drops: id, key, group and tag
    /// are 20 bytes of the 24.
    #[test]
    fn a_group_fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<Group>(), 64);
        assert_eq!(std::mem::align_of::<Group>(), 64);
        assert_eq!(std::mem::size_of::<EntryHead>(), 24);
    }

    /// One bucket of `3·GROUP + 1` entries (the zero-bit configuration puts
    /// every entry in it) spans four groups; removing from the first, a
    /// middle and the last group in every order keeps the structure sound,
    /// every probe charges the bucket's size, and emptying and refilling
    /// the bucket reuses the freed groups.
    #[test]
    fn a_bucket_spanning_groups_survives_removal_in_every_order() {
        let n = 3 * GROUP as u32 + 1;
        let row = |i: u32| jas(&[u64::from(i % 3), 1, u64::from(i)]);
        let victims = [0, GROUP as u32 + 1, n - 1];
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut idx = BitAddressIndex::new(IndexConfig::trivial(3));
            let mut r = CostReceipt::new();
            for i in 0..n {
                idx.insert(TupleKey(i), &row(i), &mut r);
            }
            let groups = idx.shards[0].groups.len();
            assert_eq!(groups, 4, "{n} entries of one id fill four groups");
            let mut alive: Vec<u32> = (0..n).collect();
            let probe = |idx: &BitAddressIndex, alive: &[u32]| {
                idx.check_integrity().unwrap();
                for (mask, vals) in [(0b000, [0, 0, 0]), (0b011, [2, 1, 0])] {
                    let request = req(mask, 3, &vals);
                    let mut r = CostReceipt::new();
                    let want: Vec<TupleKey> = alive
                        .iter()
                        .filter(|&&i| request.matches(&row(i)))
                        .map(|&i| TupleKey(i))
                        .collect();
                    assert_eq!(search(idx, &request, &mut r), Some(want), "{order:?}");
                    assert_eq!(r.comparisons, alive.len() as u64, "{order:?}");
                }
            };
            for &v in &order {
                let key = victims[v];
                idx.remove(TupleKey(key), &row(key), &mut r);
                alive.retain(|&i| i != key);
                probe(&idx, &alive);
            }
            for key in alive.drain(..) {
                idx.remove(TupleKey(key), &row(key), &mut r);
                idx.check_integrity().unwrap();
            }
            assert_eq!(idx.occupied_buckets(), 0);
            for i in 0..n {
                idx.insert(TupleKey(i), &row(i), &mut r);
                alive.push(i);
            }
            probe(&idx, &alive);
            assert_eq!(idx.shards[0].groups.len(), groups, "refill took new groups");
        }
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
