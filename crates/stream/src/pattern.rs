//! Access patterns and the search-benefit relation (§II, §IV of the paper).
//!
//! An *access pattern* (`ap`) names the subset of a state's join attribute
//! set (JAS) that a search request specifies. The paper maps each pattern to
//! a unique binary representation `BR(ap)`: bit *i* is 1 iff JAS attribute
//! *i* is used to search. We store exactly that — an [`AccessPattern`] is a
//! `u32` bitmask plus the JAS width it ranges over.
//!
//! Definition 1 (search benefit): `ap₁ ≺ ap₂` iff every attribute of `ap₁`
//! appears in `ap₂`, i.e. `BR(ap₁)` is a submask of `BR(ap₂)`. This relation
//! organizes all patterns into the lattice used by DIA/CDIA: the *top* is the
//! empty pattern (full scan), the *bottom* the pattern naming every join
//! attribute. A node's *parents* (one attribute removed) provide search
//! benefit to it.
//!
//! A [`SearchRequest`] pairs a pattern with the values it binds. Every
//! index flavor compares many stored rows against one request, so a search
//! decodes the request once ([`SearchRequest::bound`]) into a fixed list of
//! `(position, value)` pairs on the stack and compares each row against
//! that list, stopping at the first mismatch; [`SearchRequest::matches`]
//! stays as the reference compare the tests filter with.

use crate::error::StreamError;
use crate::value::{AttrValue, AttrVec, MAX_ATTRS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum JAS width supported (bits of the mask actually used).
///
/// The paper's scenarios use 3 join attributes (7 non-empty patterns);
/// `MAX_ATTRS` leaves generous headroom (255 non-empty patterns at width 8).
pub const MAX_JAS: usize = MAX_ATTRS;

/// A search access pattern: which JAS attributes a request specifies.
///
/// `mask` is the paper's `BR(ap)`; `n_attrs` is the JAS width the mask
/// ranges over (needed to enumerate wildcards and to display `<A, *, C>`
/// notation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AccessPattern {
    mask: u32,
    n_attrs: u8,
}

impl AccessPattern {
    /// Pattern from a raw `BR(ap)` mask over a JAS of width `n_attrs`.
    ///
    /// # Panics
    /// Panics if `n_attrs > MAX_JAS` or the mask has bits outside the width.
    #[inline]
    pub fn new(mask: u32, n_attrs: usize) -> Self {
        assert!(n_attrs <= MAX_JAS, "JAS width {n_attrs} exceeds {MAX_JAS}");
        assert!(
            n_attrs == 32 || mask < (1u32 << n_attrs),
            "mask {mask:#b} out of range for width {n_attrs}"
        );
        AccessPattern {
            mask,
            n_attrs: n_attrs as u8,
        }
    }

    /// The empty pattern (`<*, ..., *>`, a full scan) over `n_attrs`.
    #[inline]
    pub fn empty(n_attrs: usize) -> Self {
        Self::new(0, n_attrs)
    }

    /// The complete pattern naming every JAS attribute.
    #[inline]
    pub fn full(n_attrs: usize) -> Self {
        assert!(n_attrs <= MAX_JAS);
        Self::new(((1u64 << n_attrs) - 1) as u32, n_attrs)
    }

    /// Pattern from the list of JAS positions used to search.
    ///
    /// # Errors
    /// [`StreamError::UnknownAttribute`] if a position is ≥ `n_attrs`.
    pub fn from_positions(positions: &[usize], n_attrs: usize) -> Result<Self, StreamError> {
        let mut mask = 0u32;
        for &p in positions {
            if p >= n_attrs {
                return Err(StreamError::UnknownAttribute {
                    stream: u16::MAX,
                    attr: p as u8,
                });
            }
            mask |= 1 << p;
        }
        Ok(Self::new(mask, n_attrs))
    }

    /// The `BR(ap)` bitmask.
    #[inline]
    pub fn mask(self) -> u32 {
        self.mask
    }

    /// Width of the JAS this pattern ranges over.
    #[inline]
    pub fn n_attrs(self) -> usize {
        self.n_attrs as usize
    }

    /// Number of attributes the pattern specifies (the paper's `N_{A,ap}`).
    #[inline]
    pub fn specified(self) -> u32 {
        self.mask.count_ones()
    }

    /// Number of wildcard positions.
    #[inline]
    pub fn wildcards(self) -> u32 {
        self.n_attrs as u32 - self.specified()
    }

    /// True iff the pattern specifies no attribute (full scan).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// True iff JAS position `i` is specified.
    #[inline]
    pub fn uses(self, i: usize) -> bool {
        debug_assert!(i < self.n_attrs as usize);
        self.mask & (1 << i) != 0
    }

    /// Definition 1: `self ≺ other` — an index built on `self`'s attributes
    /// provides a search benefit to requests with pattern `other`.
    ///
    /// Holds iff `self`'s attributes are a subset of `other`'s. Reflexive.
    #[inline]
    pub fn benefits(self, other: AccessPattern) -> bool {
        debug_assert_eq!(self.n_attrs, other.n_attrs, "patterns from different JAS");
        self.mask & !other.mask == 0
    }

    /// Strict version of [`benefits`](Self::benefits): proper subset.
    #[inline]
    pub fn strictly_benefits(self, other: AccessPattern) -> bool {
        self.mask != other.mask && self.benefits(other)
    }

    /// Lattice level: the paper's lattice has the empty pattern on top
    /// (level 0) and grows one attribute per level, so the level is simply
    /// the number of specified attributes.
    #[inline]
    pub fn level(self) -> u32 {
        self.specified()
    }

    /// Direct parents in the lattice: this pattern with exactly one
    /// specified attribute removed. Parents provide search benefit to
    /// `self`. The empty pattern has no parents.
    pub fn direct_parents(self) -> impl Iterator<Item = AccessPattern> {
        let n = self.n_attrs;
        let mask = self.mask;
        SetBits(mask).map(move |b| AccessPattern {
            mask: mask & !(1 << b),
            n_attrs: n,
        })
    }

    /// Direct children in the lattice: this pattern with exactly one more
    /// attribute specified. The full pattern has no children.
    pub fn direct_children(self) -> impl Iterator<Item = AccessPattern> {
        let n = self.n_attrs;
        let mask = self.mask;
        let unset = (((1u64 << n) - 1) as u32) & !mask;
        SetBits(unset).map(move |b| AccessPattern {
            mask: mask | (1 << b),
            n_attrs: n,
        })
    }

    /// Iterator over the JAS positions the pattern specifies, ascending.
    pub fn positions(self) -> impl Iterator<Item = usize> {
        SetBits(self.mask).map(|b| b as usize)
    }

    /// All `2^n` patterns over a JAS of width `n`, in `BR(ap)` order.
    pub fn all(n_attrs: usize) -> impl Iterator<Item = AccessPattern> {
        assert!(n_attrs <= MAX_JAS);
        (0..(1u64 << n_attrs) as u32).map(move |m| AccessPattern {
            mask: m,
            n_attrs: n_attrs as u8,
        })
    }

    /// All patterns that provide a search benefit to `self` (all submasks,
    /// including `self` and the empty pattern).
    pub fn benefactors(self) -> impl Iterator<Item = AccessPattern> {
        // Standard submask enumeration: descending via (s - 1) & mask.
        SubMasks {
            mask: self.mask,
            next: Some(self.mask),
        }
        .map(move |m| AccessPattern {
            mask: m,
            n_attrs: self.n_attrs,
        })
    }
}

/// Iterator over the set-bit indices of a mask, ascending.
struct SetBits(u32);

impl Iterator for SetBits {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            let b = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(b)
        }
    }
}

/// Iterator over all submasks of a mask (including the mask itself and 0).
struct SubMasks {
    mask: u32,
    next: Option<u32>,
}

impl Iterator for SubMasks {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        let cur = self.next?;
        self.next = if cur == 0 {
            None
        } else {
            Some((cur - 1) & self.mask)
        };
        Some(cur)
    }
}

/// Shared `<A, *, C>`-style formatter for Debug and Display.
macro_rules! fmt_pattern {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "<")?;
            for i in 0..self.n_attrs as usize {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if self.uses(i) {
                    // Name attributes A, B, C... like the paper's examples.
                    write!(f, "{}", (b'A' + i as u8) as char)?;
                } else {
                    write!(f, "*")?;
                }
            }
            write!(f, ">")
        }
    };
}

impl fmt::Debug for AccessPattern {
    fmt_pattern!();
}

impl fmt::Display for AccessPattern {
    fmt_pattern!();
}

/// A search request arriving at a state: the pattern plus the attribute
/// values to match on.
///
/// `values` is aligned with the state's JAS: `values[i]` is meaningful iff
/// `pattern.uses(i)`; wildcard positions are ignored (by convention zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchRequest {
    /// Which JAS attributes the request specifies.
    pub pattern: AccessPattern,
    /// Values for the specified attributes, JAS-aligned.
    pub values: AttrVec,
}

impl SearchRequest {
    /// Build a request; wildcard positions of `values` are zeroed so that
    /// logically-equal requests compare equal.
    pub fn new(pattern: AccessPattern, mut values: AttrVec) -> Self {
        assert_eq!(
            values.len(),
            pattern.n_attrs(),
            "values must be JAS-aligned"
        );
        for i in 0..values.len() {
            if !pattern.uses(i) {
                values.set(i, 0);
            }
        }
        SearchRequest { pattern, values }
    }

    /// Value for JAS position `i` if the request specifies it.
    #[inline]
    pub fn value_at(&self, i: usize) -> Option<AttrValue> {
        if self.pattern.uses(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// True iff a JAS-aligned tuple attribute slice satisfies this request
    /// under equality semantics — the reference compare. It decodes the
    /// pattern's mask on every call; a loop comparing many rows against
    /// one request decodes it once instead, through [`bound`](Self::bound).
    #[inline]
    pub fn matches(&self, jas_values: &[AttrValue]) -> bool {
        debug_assert_eq!(jas_values.len(), self.pattern.n_attrs());
        self.pattern
            .positions()
            .all(|i| jas_values[i] == self.values[i])
    }

    /// The request's bound `(position, value)` pairs, decoded once: a
    /// fixed list on the stack whose [`BoundValues::matches`] answers
    /// exactly what [`matches`](Self::matches) does. Decoding is one
    /// table load, so even a search that compares one row gains.
    #[inline]
    pub fn bound(&self) -> BoundValues<'_> {
        BoundValues {
            positions: PACKED_POSITIONS[self.pattern.mask as usize],
            len: self.pattern.specified(),
            values: self.values.as_slice(),
        }
    }
}

/// Byte `k` of entry `m` is the `k`-th set bit of the mask `m`: every
/// pattern's bound positions, ascending, packed one per byte.
static PACKED_POSITIONS: [u64; 1 << MAX_JAS] = {
    let mut table = [0u64; 1 << MAX_JAS];
    let mut mask = 0;
    while mask < table.len() {
        let (mut packed, mut k, mut i) = (0u64, 0, 0);
        while i < MAX_JAS {
            if mask & (1 << i) != 0 {
                packed |= (i as u64) << (8 * k);
                k += 1;
            }
            i += 1;
        }
        table[mask] = packed;
        mask += 1;
    }
    table
};

/// A search request's bound `(position, value)` pairs in ascending position
/// order ([`SearchRequest::bound`]) — what every search loop compares a
/// stored JAS against, so no row pays for walking the pattern's mask: the
/// positions packed one per byte, the values read from the request.
#[derive(Debug, Clone, Copy)]
pub struct BoundValues<'a> {
    positions: u64,
    len: u32,
    values: &'a [AttrValue],
}

impl BoundValues<'_> {
    /// True iff the JAS-aligned `jas_values` agree with every bound pair;
    /// the compare stops at the first mismatch.
    #[inline]
    pub fn matches(&self, jas_values: &[AttrValue]) -> bool {
        let mut positions = self.positions;
        for _ in 0..self.len {
            let i = (positions & 0xFF) as usize;
            if jas_values[i] != self.values[i] {
                return false;
            }
            positions >>= 8;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn br_mapping_matches_paper_examples() {
        // §IV-C1: with JAS {A,B,C}, <A,*,*> → 100 (4), <*,B,C> → 011 (3).
        let a_only = AccessPattern::from_positions(&[0], 3).unwrap();
        let bc = AccessPattern::from_positions(&[1, 2], 3).unwrap();
        // The paper writes BR left-to-right with A as the most significant
        // bit; we store A as bit 0, so the *value* differs but uniqueness
        // and subset structure are identical. Check subset structure:
        assert_eq!(a_only.specified(), 1);
        assert_eq!(bc.specified(), 2);
        assert!(!a_only.benefits(bc));
        assert!(!bc.benefits(a_only));
    }

    #[test]
    fn display_uses_wildcard_notation() {
        let p = AccessPattern::from_positions(&[0, 2], 3).unwrap();
        assert_eq!(p.to_string(), "<A, *, C>");
        assert_eq!(AccessPattern::empty(3).to_string(), "<*, *, *>");
        assert_eq!(AccessPattern::full(3).to_string(), "<A, B, C>");
    }

    #[test]
    fn benefit_relation_is_subset() {
        let a = AccessPattern::from_positions(&[0], 3).unwrap();
        let ab = AccessPattern::from_positions(&[0, 1], 3).unwrap();
        let abc = AccessPattern::full(3);
        assert!(a.benefits(ab));
        assert!(a.benefits(abc));
        assert!(ab.benefits(abc));
        assert!(!ab.benefits(a));
        assert!(AccessPattern::empty(3).benefits(a));
        // Reflexive but not strict:
        assert!(ab.benefits(ab));
        assert!(!ab.strictly_benefits(ab));
        assert!(a.strictly_benefits(ab));
    }

    #[test]
    fn parents_and_children_step_one_level() {
        let ab = AccessPattern::from_positions(&[0, 1], 3).unwrap();
        let parents: Vec<_> = ab.direct_parents().collect();
        assert_eq!(parents.len(), 2);
        for p in &parents {
            assert_eq!(p.level(), 1);
            assert!(p.strictly_benefits(ab));
        }
        let children: Vec<_> = ab.direct_children().collect();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0], AccessPattern::full(3));
        assert!(AccessPattern::empty(3).direct_parents().next().is_none());
        assert!(AccessPattern::full(3).direct_children().next().is_none());
    }

    #[test]
    fn all_enumerates_the_powerset() {
        let all: Vec<_> = AccessPattern::all(3).collect();
        assert_eq!(all.len(), 8);
        // 7 non-empty patterns — the paper's "7 possible access patterns"
        // for 3 join attributes.
        assert_eq!(all.iter().filter(|p| !p.is_empty()).count(), 7);
    }

    #[test]
    fn benefactors_are_exactly_the_submasks() {
        let p = AccessPattern::from_positions(&[0, 2], 3).unwrap();
        let mut b: Vec<u32> = p.benefactors().map(|q| q.mask()).collect();
        b.sort_unstable();
        assert_eq!(b, vec![0b000, 0b001, 0b100, 0b101]);
    }

    #[test]
    fn positions_round_trip() {
        let p = AccessPattern::from_positions(&[1, 2], 4).unwrap();
        let pos: Vec<_> = p.positions().collect();
        assert_eq!(pos, vec![1, 2]);
        assert_eq!(p.wildcards(), 2);
        assert!(p.uses(1));
        assert!(!p.uses(0));
    }

    #[test]
    fn from_positions_rejects_out_of_range() {
        assert!(AccessPattern::from_positions(&[3], 3).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_wide_masks() {
        let _ = AccessPattern::new(0b1000, 3);
    }

    #[test]
    fn search_request_zeroes_wildcards_and_matches() {
        let p = AccessPattern::from_positions(&[0, 2], 3).unwrap();
        let sr = SearchRequest::new(p, AttrVec::from_slice(&[7, 99, 5]).unwrap());
        // Wildcard slot must be zeroed for canonical equality.
        assert_eq!(sr.values[1], 0);
        assert_eq!(sr.value_at(0), Some(7));
        assert_eq!(sr.value_at(1), None);
        assert!(sr.matches(&[7, 123, 5]));
        assert!(!sr.matches(&[7, 123, 6]));
        assert!(!sr.matches(&[8, 123, 5]));
        // Full-scan request matches everything.
        let scan = SearchRequest::new(
            AccessPattern::empty(3),
            AttrVec::from_slice(&[0, 0, 0]).unwrap(),
        );
        assert!(scan.matches(&[1, 2, 3]));
    }

    proptest! {
        #[test]
        fn benefit_is_a_partial_order(a in 0u32..16, b in 0u32..16, c in 0u32..16) {
            let pa = AccessPattern::new(a, 4);
            let pb = AccessPattern::new(b, 4);
            let pc = AccessPattern::new(c, 4);
            // reflexivity
            prop_assert!(pa.benefits(pa));
            // antisymmetry
            if pa.benefits(pb) && pb.benefits(pa) {
                prop_assert_eq!(pa, pb);
            }
            // transitivity
            if pa.benefits(pb) && pb.benefits(pc) {
                prop_assert!(pa.benefits(pc));
            }
        }

        #[test]
        fn parents_partition_one_bit_down(mask in 0u32..256) {
            let p = AccessPattern::new(mask, 8);
            let parents: Vec<_> = p.direct_parents().collect();
            prop_assert_eq!(parents.len() as u32, p.specified());
            for q in parents {
                prop_assert_eq!(q.level() + 1, p.level());
                prop_assert!(q.strictly_benefits(p));
            }
        }

        #[test]
        fn children_are_inverse_of_parents(mask in 0u32..256) {
            let p = AccessPattern::new(mask, 8);
            for c in p.direct_children() {
                prop_assert!(c.direct_parents().any(|q| q == p));
            }
        }

        /// The decoded-once compare answers exactly what the reference
        /// compare does, for every pattern at every width up to `MAX_JAS`.
        /// Values come from a three-value domain so rows agree on some
        /// positions and not others.
        #[test]
        fn bound_values_match_exactly_what_the_request_matches(
            probe in proptest::collection::vec(0u64..3, MAX_JAS),
            rows in proptest::collection::vec(proptest::collection::vec(0u64..3, MAX_JAS), 1..8),
        ) {
            for width in 0..=MAX_JAS {
                let values = AttrVec::from_slice(&probe[..width]).unwrap();
                for pattern in AccessPattern::all(width) {
                    let request = SearchRequest::new(pattern, values);
                    let bound = request.bound();
                    for row in &rows {
                        let row = &row[..width];
                        prop_assert_eq!(bound.matches(row), request.matches(row),
                            "{} over {:?} vs {:?}", pattern, request.values, row);
                    }
                }
            }
        }

        #[test]
        fn benefactor_count_is_two_pow_specified(mask in 0u32..256) {
            let p = AccessPattern::new(mask, 8);
            let n = p.benefactors().count();
            prop_assert_eq!(n as u32, 1 << p.specified());
        }
    }
}
