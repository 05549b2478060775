//! The index key map — *index configuration* (§III).
//!
//! An [`IndexConfig`] is the blueprint from a tuple's join-attribute values
//! to the bucket where the tuple is stored: it assigns each JAS attribute a
//! number of bits (possibly zero) of the bucket id. Attribute `i`'s slice is
//! the top `bits[i]` bits of a 64-bit hash of its value, and slices are
//! concatenated in JAS order (attribute 0 occupies the most significant end
//! of the used bit range), exactly mirroring the paper's Figure 3 example
//! where `t.A1 | t.A2 | t.A3 = 00111·11·010` forms bucket `0011111010`.
//!
//! A search that specifies only some attributes fixes that subset of the
//! id's bits and must visit every bucket matching on them — `2^w` ids for
//! `w` wildcard bits. [`IndexConfig::probe_plan`] captures this as a
//! (mask, fixed-bits) pair so the index can choose between enumerating the
//! `2^w` candidate ids and filtering the occupied buckets, whichever is
//! cheaper.
//!
//! The same per-value hashes give every entry a **value tag**: byte `i` of
//! a `u32` is the low byte of JAS position `i`'s hash, for positions 0–3
//! (a fifth would not fit the head's free bytes, so later positions are
//! untagged). A plan carries the tag bytes its bound values fix, and a
//! walk compares an entry's values only when its tag agrees — see
//! [`ProbePlan`].

use crate::error::CoreError;
use amri_stream::{fx_hash_u64, AccessPattern, AttrValue};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hard cap on total bucket-id bits (a bucket id is a `u64`).
pub const MAX_TOTAL_BITS: u32 = 64;

/// Bits-per-JAS-attribute layout of a bit-address index.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexConfig {
    /// `bits[i]` — bucket-id bits assigned to JAS position `i`.
    bits: Vec<u8>,
}

impl IndexConfig {
    /// Build a configuration from per-attribute bit counts.
    ///
    /// # Errors
    /// [`CoreError::TooManyBits`] if the total exceeds 64.
    pub fn new(bits: Vec<u8>) -> Result<Self, CoreError> {
        let total: u32 = bits.iter().map(|&b| b as u32).sum();
        if total > MAX_TOTAL_BITS {
            return Err(CoreError::TooManyBits(total));
        }
        Ok(IndexConfig { bits })
    }

    /// The all-zero configuration over `width` attributes (a single bucket —
    /// equivalent to no index).
    pub fn trivial(width: usize) -> Self {
        IndexConfig {
            bits: vec![0; width],
        }
    }

    /// An even split of `total` bits across all `width` attributes
    /// (remainder to the front), a common starting configuration.
    pub fn even(width: usize, total: u32) -> Result<Self, CoreError> {
        if width == 0 {
            return Self::new(Vec::new());
        }
        let base = total / width as u32;
        let extra = (total % width as u32) as usize;
        let bits = (0..width)
            .map(|i| (base + u32::from(i < extra)) as u8)
            .collect();
        Self::new(bits)
    }

    /// JAS width this configuration covers.
    #[inline]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Bits assigned to JAS position `i`.
    #[inline]
    pub fn bits_of(&self, i: usize) -> u32 {
        self.bits[i] as u32
    }

    /// The per-position bit vector.
    #[inline]
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Total bucket-id bits `B`.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.bits.iter().map(|&b| b as u32).sum()
    }

    /// Number of *indexed* attributes (those with at least one bit) — the
    /// cost model's `N_A`.
    #[inline]
    pub fn indexed_attrs(&self) -> u32 {
        self.bits.iter().filter(|&&b| b > 0).count() as u32
    }

    /// The access pattern formed by the indexed attributes.
    pub fn as_pattern(&self) -> AccessPattern {
        let mut mask = 0u32;
        for (i, &b) in self.bits.iter().enumerate() {
            if b > 0 {
                mask |= 1 << i;
            }
        }
        AccessPattern::new(mask, self.width())
    }

    /// Bits assigned to the attributes a pattern specifies — the cost
    /// model's `B_ap`. Wildcard attributes contribute nothing.
    pub fn pattern_bits(&self, ap: AccessPattern) -> u32 {
        debug_assert_eq!(ap.n_attrs(), self.width());
        ap.positions().map(|i| self.bits_of(i)).sum()
    }

    /// A configuration with one more bit on position `i` (caller checks the
    /// 64-bit budget).
    pub fn with_extra_bit(&self, i: usize) -> Result<Self, CoreError> {
        let mut bits = self.bits.clone();
        bits[i] = bits[i]
            .checked_add(1)
            .ok_or(CoreError::TooManyBits(u32::MAX))?;
        Self::new(bits)
    }

    /// The bucket id a JAS-aligned value vector maps to.
    ///
    /// # Panics
    /// Debug-panics if the value count differs from the width.
    pub fn bucket_of(&self, jas_values: &[AttrValue]) -> u64 {
        debug_assert_eq!(jas_values.len(), self.width());
        let mut id = 0u64;
        for (i, &b) in self.bits.iter().enumerate() {
            let b = b as u32;
            if b > 0 {
                id = (id << b) | (fx_hash_u64(jas_values[i]) >> (64 - b));
            }
        }
        id
    }

    /// The bucket id and the value tag of a JAS-aligned value vector, from
    /// one hash per value: each indexed position's hash gives its bucket-id
    /// slice, and each tagged position's the same hash's low byte. What an
    /// insert stores; [`bucket_of`](Self::bucket_of) is the id alone.
    ///
    /// # Panics
    /// Debug-panics if the value count differs from the width.
    pub fn bucket_and_tag(&self, jas_values: &[AttrValue]) -> (u64, u32) {
        debug_assert_eq!(jas_values.len(), self.width());
        let (tagged, untagged) = self.bits.split_at(self.bits.len().min(TAG_BYTES));
        let mut id = 0u64;
        let mut tag = 0u32;
        for (i, (&b, &v)) in tagged.iter().zip(jas_values).enumerate() {
            let h = fx_hash_u64(v);
            tag |= tag_byte(i, h);
            if b > 0 {
                id = (id << b) | (h >> (64 - b));
            }
        }
        for (&b, &v) in untagged.iter().zip(&jas_values[tagged.len()..]) {
            if b > 0 {
                id = (id << b) | (fx_hash_u64(v) >> (64 - b));
            }
        }
        (id, tag)
    }

    /// Plan a search for `ap`: which bucket-id bits the specified attributes
    /// fix and their values, and which tag bytes they fix and theirs — one
    /// hash per bound value, counted in [`ProbePlan::hashes`].
    pub fn probe_plan(&self, ap: AccessPattern, jas_values: &[AttrValue]) -> ProbePlan {
        debug_assert_eq!(ap.n_attrs(), self.width());
        debug_assert_eq!(jas_values.len(), self.width());
        let mut plan = ProbePlan {
            mask: 0,
            fixed: 0,
            wildcard_bits: 0,
            tag: TagFilter::default(),
            hashes: 0,
        };
        for (i, &b) in self.bits.iter().enumerate() {
            let b = b as u32;
            if b > 0 {
                plan.mask <<= b;
                plan.fixed <<= b;
            }
            if !ap.uses(i) {
                plan.wildcard_bits += b;
                continue;
            }
            if b == 0 && i >= TAG_BYTES {
                continue;
            }
            let h = fx_hash_u64(jas_values[i]);
            if b > 0 {
                plan.mask |= (1u64 << b) - 1;
                plan.fixed |= h >> (64 - b);
                plan.hashes += 1;
            }
            if i < TAG_BYTES {
                plan.tag.bind(i, h);
            }
        }
        plan
    }
}

/// JAS positions that carry a byte of the value tag: one per byte of the
/// `u32` a group keeps per entry. Later positions are untagged.
const TAG_BYTES: usize = std::mem::size_of::<u32>();

/// Byte `i` of a value tag: the low byte of position `i`'s value hash `h`,
/// whose top bits are that position's bucket-id slice.
#[inline]
fn tag_byte(i: usize, h: u64) -> u32 {
    ((h & 0xFF) as u32) << (8 * i)
}

/// The value tag of a JAS-aligned value vector — what the arena keeps per
/// slot. [`IndexConfig::bucket_and_tag`] computes the same tag from the
/// hashes it shares with the bucket id.
pub(crate) fn value_tag(jas_values: &[AttrValue]) -> u32 {
    (jas_values.iter().take(TAG_BYTES).enumerate())
        .fold(0, |tag, (i, &v)| tag | tag_byte(i, fx_hash_u64(v)))
}

/// The value-tag bytes a search's bound values fix.
///
/// A tag byte is the low byte of the same hash whose top bits are the
/// bucket-id slice, so an entry whose bound values equal the request's
/// carries the request's tag bytes: the filter never turns a match away,
/// and an admitted tag still goes on to the full compare. A request that
/// binds no tagged position admits every tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagFilter {
    /// Tag bytes of the bound values at tagged positions (zero elsewhere).
    pub tag: u32,
    /// The tag bytes a matching entry must carry: `0xFF` per bound tagged
    /// position.
    pub mask: u32,
}

impl TagFilter {
    /// The filter of a request binding `ap`'s positions to the
    /// JAS-aligned `jas_values`: one hash per bound tagged position.
    pub(crate) fn of_request(ap: AccessPattern, jas_values: &[AttrValue]) -> Self {
        let mut filter = TagFilter::default();
        for i in ap.positions().filter(|&i| i < TAG_BYTES) {
            filter.bind(i, fx_hash_u64(jas_values[i]));
        }
        filter
    }

    /// Fix byte `i` to that of the value hashing to `h` (`i` tagged).
    #[inline]
    fn bind(&mut self, i: usize, h: u64) {
        self.tag |= tag_byte(i, h);
        self.mask |= tag_byte(i, u64::MAX);
    }

    /// False iff an entry tagged `tag` cannot match the request: it
    /// differs from it in a bound value's tag byte.
    #[inline]
    pub fn admits(self, tag: u32) -> bool {
        (tag ^ self.tag) & self.mask == 0
    }

    /// Whether the filter admits any of `tags`: a branch-free pass the
    /// compiler vectorizes for a block of known length.
    #[inline]
    pub(crate) fn admits_any(self, tags: &[u32]) -> bool {
        let any = tags
            .iter()
            .fold(0, |any, &tag| any | u32::from(self.admits(tag)));
        any != 0
    }
}

impl fmt::Debug for IndexConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IC[")?;
        for (i, b) in self.bits.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{}:{b}", (b'A' + i as u8) as char)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IndexConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The constraint a search imposes on a stored entry's head: which bucket
/// ids it must visit, and which value-tag bytes a matching entry carries.
///
/// The id constraint decides what a search visits and is charged for; the
/// [`TagFilter`] only lets a walk skip the value compare of a visited
/// entry that cannot match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePlan {
    /// Bits of the bucket id fixed by the search's specified attributes.
    pub mask: u64,
    /// Values of those fixed bits (zero elsewhere).
    pub fixed: u64,
    /// Total bits left free by wildcards: the search must cover
    /// `2^wildcard_bits` bucket ids.
    pub wildcard_bits: u32,
    /// The value-tag bytes the search's bound values fix.
    pub tag: TagFilter,
    /// Bound values hashed into the fixed bits — the search's `C_hash`
    /// charge.
    pub hashes: u32,
}

impl ProbePlan {
    /// True iff bucket id `id` is consistent with this plan.
    #[inline]
    pub fn matches(&self, id: u64) -> bool {
        id & self.mask == self.fixed
    }

    /// Number of candidate bucket ids (`2^w`), saturating.
    #[inline]
    pub fn candidate_buckets(&self) -> u64 {
        1u64.checked_shl(self.wildcard_bits).unwrap_or(u64::MAX)
    }

    /// Restrict this plan to one shard of a `2^shard_bits`-way partition of
    /// the `total_bits`-bit bucket space keyed by the id's *top* bits.
    ///
    /// Returns `None` when the shard is incompatible with the plan's fixed
    /// bits (no candidate bucket of this plan lives in that shard), else the
    /// sub-plan whose candidates are exactly the plan's candidates inside
    /// the shard. Summed over all compatible shards the sub-plans partition
    /// the candidate set: `Σ 2^w_s = 2^w`, each global candidate appearing
    /// in exactly one shard — the determinism basis for sharded search.
    ///
    /// When `shard_bits` exceeds `total_bits` only the low `total_bits`
    /// partition bits are meaningful; when the effective partition width is
    /// zero (trivial configuration) shard 0 owns everything.
    pub fn shard_slice(&self, shard: u64, shard_bits: u32, total_bits: u32) -> Option<ProbePlan> {
        let effective = shard_bits.min(total_bits);
        if effective == 0 {
            return (shard == 0).then_some(*self);
        }
        if effective < 64 && shard >= 1u64 << effective {
            // Unreachable shard: no bucket id routes here, so handing it a
            // slice would duplicate a reachable shard's candidates.
            return None;
        }
        let region_shift = total_bits - effective;
        let top_mask = (u64::MAX >> (64 - effective)) << region_shift;
        let shard_fixed = shard << region_shift;
        if (self.fixed ^ shard_fixed) & self.mask & top_mask != 0 {
            return None; // the plan fixes a top bit to the other value
        }
        let free_top = !self.mask & top_mask;
        Some(ProbePlan {
            mask: self.mask | top_mask,
            fixed: (self.fixed & !top_mask) | shard_fixed,
            wildcard_bits: self.wildcard_bits - free_top.count_ones(),
            ..*self
        })
    }

    /// Enumerate all candidate bucket ids.
    ///
    /// The plain ascending submask walk over the plan's free bits
    /// (`c ← (c − free) & free`), each submask OR-ed onto the fixed bits.
    /// `free` also holds the bits above the id range, but an ascending walk
    /// sets a higher bit only after every combination of the lower ones,
    /// so the first [`candidate_buckets`](Self::candidate_buckets) steps
    /// are exactly the ids in range.
    ///
    /// Only call when `candidate_buckets` is small; the index falls back to
    /// filtering occupied buckets otherwise.
    pub fn enumerate(&self) -> impl Iterator<Item = u64> {
        let (free, fixed) = (!self.mask, self.fixed);
        let mut c = 0u64;
        (0..self.candidate_buckets()).map(move |_| {
            let id = fixed | c;
            c = c.wrapping_sub(free) & free;
            id
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ap(mask: u32, w: usize) -> AccessPattern {
        AccessPattern::new(mask, w)
    }

    #[test]
    fn construction_and_accessors() {
        let ic = IndexConfig::new(vec![5, 2, 3]).unwrap();
        assert_eq!(ic.width(), 3);
        assert_eq!(ic.total_bits(), 10);
        assert_eq!(ic.indexed_attrs(), 3);
        assert_eq!(ic.bits_of(1), 2);
        assert_eq!(ic.to_string(), "IC[A:5|B:2|C:3]");
        let ic = IndexConfig::new(vec![0, 4, 0]).unwrap();
        assert_eq!(ic.indexed_attrs(), 1);
        assert_eq!(ic.as_pattern(), ap(0b010, 3));
    }

    #[test]
    fn rejects_over_64_bits() {
        assert!(matches!(
            IndexConfig::new(vec![32, 32, 1]),
            Err(CoreError::TooManyBits(65))
        ));
        assert!(IndexConfig::new(vec![32, 32]).is_ok());
    }

    #[test]
    fn even_split_distributes_remainder_to_front() {
        let ic = IndexConfig::even(3, 10).unwrap();
        assert_eq!(ic.bits(), &[4, 3, 3]);
        assert_eq!(ic.total_bits(), 10);
        let ic = IndexConfig::even(4, 64).unwrap();
        assert_eq!(ic.bits(), &[16, 16, 16, 16]);
        assert_eq!(IndexConfig::even(0, 10).unwrap().width(), 0);
    }

    #[test]
    fn trivial_config_maps_everything_to_bucket_zero() {
        let ic = IndexConfig::trivial(3);
        assert_eq!(ic.total_bits(), 0);
        assert_eq!(ic.bucket_of(&[1, 2, 3]), 0);
        assert_eq!(ic.bucket_of(&[9, 9, 9]), 0);
    }

    #[test]
    fn pattern_bits_sums_only_specified_attrs() {
        let ic = IndexConfig::new(vec![5, 2, 3]).unwrap();
        assert_eq!(ic.pattern_bits(ap(0b101, 3)), 8); // A=5 + C=3
        assert_eq!(ic.pattern_bits(ap(0b010, 3)), 2);
        assert_eq!(ic.pattern_bits(ap(0b000, 3)), 0);
        assert_eq!(ic.pattern_bits(ap(0b111, 3)), 10);
    }

    #[test]
    fn bucket_id_stays_within_total_bits() {
        let ic = IndexConfig::new(vec![5, 2, 3]).unwrap();
        for v in 0..200u64 {
            let id = ic.bucket_of(&[v, v * 3, v * 7]);
            assert!(id < (1 << 10), "bucket {id} out of 10-bit range");
        }
    }

    #[test]
    fn equal_values_map_to_equal_buckets() {
        let ic = IndexConfig::new(vec![4, 4, 4]).unwrap();
        assert_eq!(ic.bucket_of(&[1, 2, 3]), ic.bucket_of(&[1, 2, 3]));
    }

    #[test]
    fn distinct_attr_slices_occupy_distinct_bit_ranges() {
        // Changing an attribute's value must only affect its own slice:
        // with layout [4,4,4], attribute 0 owns the top 4 bits.
        let ic = IndexConfig::new(vec![4, 4, 4]).unwrap();
        let base = ic.bucket_of(&[1, 2, 3]);
        let changed = ic.bucket_of(&[9, 2, 3]);
        assert_eq!(base & 0xFF, changed & 0xFF, "low slices must not move");
    }

    #[test]
    fn full_pattern_probe_fixes_every_bit() {
        let ic = IndexConfig::new(vec![5, 2, 3]).unwrap();
        let vals = [7u64, 8, 9];
        let plan = ic.probe_plan(ap(0b111, 3), &vals);
        assert_eq!(plan.wildcard_bits, 0);
        assert_eq!(plan.candidate_buckets(), 1);
        assert_eq!(plan.fixed, ic.bucket_of(&vals));
        assert!(plan.matches(ic.bucket_of(&vals)));
        let ids: Vec<u64> = plan.enumerate().collect();
        assert_eq!(ids, vec![ic.bucket_of(&vals)]);
    }

    #[test]
    fn wildcard_probe_enumerates_2_pow_w_candidates() {
        // The paper's Figure 3 walk-through: IC = 5|2|3, search specifies A1
        // and A3 → the 2 bits of A2 are wild → 4 candidate buckets.
        let ic = IndexConfig::new(vec![5, 2, 3]).unwrap();
        let vals = [2012u64, 0, 47];
        let plan = ic.probe_plan(ap(0b101, 3), &vals);
        assert_eq!(plan.wildcard_bits, 2);
        assert_eq!(plan.candidate_buckets(), 4);
        let ids: Vec<u64> = plan.enumerate().collect();
        assert_eq!(ids.len(), 4);
        // All candidates agree on the fixed bits and are distinct.
        for &id in &ids {
            assert!(plan.matches(id));
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        // Any tuple matching the search lands in one of the candidates.
        for a2 in 0..50u64 {
            let bucket = ic.bucket_of(&[2012, a2, 47]);
            assert!(ids.contains(&bucket), "bucket {bucket} not covered");
        }
    }

    #[test]
    fn empty_pattern_probe_leaves_all_bits_wild() {
        let ic = IndexConfig::new(vec![3, 3]).unwrap();
        let plan = ic.probe_plan(ap(0b00, 2), &[0, 0]);
        assert_eq!(plan.wildcard_bits, 6);
        assert_eq!(plan.candidate_buckets(), 64);
        assert_eq!(plan.enumerate().count(), 64);
    }

    #[test]
    fn unindexed_attrs_are_free_to_search() {
        // An attribute with zero bits constrains nothing even if specified.
        let ic = IndexConfig::new(vec![4, 0, 4]).unwrap();
        let plan = ic.probe_plan(ap(0b010, 3), &[0, 42, 0]);
        assert_eq!(plan.mask, 0);
        assert_eq!(plan.wildcard_bits, 8);
    }

    #[test]
    fn with_extra_bit_increments_one_position() {
        let ic = IndexConfig::new(vec![1, 2]).unwrap();
        let ic2 = ic.with_extra_bit(1).unwrap();
        assert_eq!(ic2.bits(), &[1, 3]);
        assert_eq!(ic.bits(), &[1, 2], "original untouched");
    }

    #[test]
    fn shard_slice_partitions_wildcard_candidates() {
        // IC = 2|2, search fixes attr 1 only → the top 2 bits (attr 0) are
        // wild → 4 candidates, one per shard of a 4-shard partition.
        let ic = IndexConfig::new(vec![2, 2]).unwrap();
        let plan = ic.probe_plan(ap(0b10, 2), &[0, 7]);
        assert_eq!(plan.wildcard_bits, 2);
        for s in 0..4u64 {
            let slice = plan.shard_slice(s, 2, 4).expect("all shards compatible");
            assert_eq!(slice.wildcard_bits, 0);
            let ids: Vec<u64> = slice.enumerate().collect();
            assert_eq!(ids.len(), 1);
            assert_eq!(ids[0] >> 2, s, "candidate must live in its shard");
            assert!(plan.matches(ids[0]));
        }
    }

    #[test]
    fn shard_slice_rejects_incompatible_shards() {
        // A fully-specified probe fixes the top bits; only the shard owning
        // that prefix is compatible.
        let ic = IndexConfig::new(vec![3, 3]).unwrap();
        let vals = [11u64, 23];
        let plan = ic.probe_plan(ap(0b11, 2), &vals);
        let home = ic.bucket_of(&vals) >> 4; // top 2 of 6 bits
        let compatible: Vec<u64> = (0..4)
            .filter(|&s| plan.shard_slice(s, 2, 6).is_some())
            .collect();
        assert_eq!(compatible, vec![home]);
    }

    #[test]
    fn shard_slice_trivial_partition_routes_everything_to_shard_zero() {
        let ic = IndexConfig::trivial(2);
        let plan = ic.probe_plan(ap(0b01, 2), &[5, 0]);
        assert_eq!(plan.shard_slice(0, 2, 0), Some(plan));
        assert_eq!(plan.shard_slice(1, 2, 0), None);
        // shard_bits == 0 behaves the same way.
        assert_eq!(plan.shard_slice(0, 0, 6), Some(plan));
    }

    proptest! {
        /// Shard slices partition the candidate set: every global candidate
        /// appears in exactly one compatible shard's enumeration, and the
        /// per-shard wildcard widths sum back to the global width.
        #[test]
        fn shard_slices_partition_candidates(
            bits in proptest::collection::vec(0u8..4, 3),
            mask in 0u32..8,
            vals in proptest::collection::vec(0u64..100, 3),
            shard_bits in 0u32..4,
        ) {
            let ic = IndexConfig::new(bits).unwrap();
            let total = ic.total_bits();
            let plan = ic.probe_plan(ap(mask, 3), &vals);
            let effective = shard_bits.min(total);
            let shards = 1u64 << shard_bits;
            let mut seen = std::collections::HashSet::new();
            let mut covered = 0u64;
            for s in 0..shards {
                let Some(slice) = plan.shard_slice(s, shard_bits, total) else {
                    continue;
                };
                covered += slice.candidate_buckets();
                for id in slice.enumerate() {
                    prop_assert!(plan.matches(id), "slice id escapes the plan");
                    if effective > 0 {
                        prop_assert_eq!(id >> (total - effective), s,
                            "candidate in the wrong shard");
                    }
                    prop_assert!(seen.insert(id), "id produced by two shards");
                }
            }
            prop_assert_eq!(covered, plan.candidate_buckets());
            prop_assert_eq!(seen.len() as u64, plan.candidate_buckets());
        }

        /// Every tuple consistent with a search lands in a candidate bucket
        /// — the covering property that makes wildcard search correct.
        #[test]
        fn probe_plan_covers_matching_tuples(
            bits in proptest::collection::vec(0u8..6, 3),
            mask in 0u32..8,
            vals in proptest::collection::vec(0u64..1000, 3),
            others in proptest::collection::vec(0u64..1000, 3),
        ) {
            let ic = IndexConfig::new(bits).unwrap();
            let pattern = ap(mask, 3);
            let plan = ic.probe_plan(pattern, &vals);
            // Build a tuple agreeing with vals on specified positions.
            let mut tuple = others.clone();
            for p in pattern.positions() {
                tuple[p] = vals[p];
            }
            let bucket = ic.bucket_of(&tuple);
            prop_assert!(plan.matches(bucket),
                "tuple bucket {bucket:#b} escapes plan mask={:#b} fixed={:#b}",
                plan.mask, plan.fixed);
        }

        /// One tag everywhere: a stored vector's [`value_tag`] is the tag
        /// [`IndexConfig::bucket_and_tag`] stores, a plan's filter is the
        /// request's [`TagFilter`], and the filter admits every vector that
        /// agrees with the request on the bound positions.
        #[test]
        fn value_tag_and_request_filter_agree(
            bits in proptest::collection::vec(0u8..4, 1..7),
            mask in 0u32..64,
            vals in proptest::collection::vec(0u64..1000, 6),
            others in proptest::collection::vec(0u64..1000, 6),
        ) {
            let ic = IndexConfig::new(bits).unwrap();
            let w = ic.width();
            let pattern = ap(mask & ((1 << w) - 1), w);
            let filter = TagFilter::of_request(pattern, &vals[..w]);
            prop_assert_eq!(ic.probe_plan(pattern, &vals[..w]).tag, filter);
            let mut tuple = others[..w].to_vec();
            for p in pattern.positions() {
                tuple[p] = vals[p];
            }
            let tag = value_tag(&tuple);
            prop_assert_eq!(ic.bucket_and_tag(&tuple).1, tag);
            prop_assert!(filter.admits(tag));
        }

        /// enumerate() yields exactly the ids matching the plan, each once.
        #[test]
        fn enumerate_is_exact(
            bits in proptest::collection::vec(0u8..4, 3),
            mask in 0u32..8,
            vals in proptest::collection::vec(0u64..100, 3),
        ) {
            let ic = IndexConfig::new(bits).unwrap();
            let plan = ic.probe_plan(ap(mask, 3), &vals);
            let ids: Vec<u64> = plan.enumerate().collect();
            prop_assert_eq!(ids.len() as u64, plan.candidate_buckets());
            let mut seen = std::collections::HashSet::new();
            for id in ids {
                prop_assert!(plan.matches(id));
                prop_assert!(seen.insert(id), "duplicate id {id}");
            }
        }

        /// The bucket id never exceeds the 2^B space.
        #[test]
        fn bucket_in_range(
            bits in proptest::collection::vec(0u8..8, 1..6),
            vals in proptest::collection::vec(proptest::num::u64::ANY, 6),
        ) {
            let ic = IndexConfig::new(bits).unwrap();
            let w = ic.width();
            let id = ic.bucket_of(&vals[..w]);
            let total = ic.total_bits();
            if total < 64 {
                prop_assert!(id < (1u64 << total));
            }
        }
    }
}
