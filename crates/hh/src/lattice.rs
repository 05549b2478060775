//! Storage and navigation for the access-pattern lattice (§IV-D).
//!
//! The search-benefit relation `ap₁ ≺ ap₂` (subset of attributes) organizes
//! the `2^n` access patterns of a state into a lattice: the empty pattern on
//! top (level 0), one attribute added per level, the full pattern at the
//! bottom. DIA/CDIA materialize only the patterns actually observed — a
//! *partial* lattice — and need to walk it: find stored parents of a node,
//! find the current leaves, sweep levels bottom-up.
//!
//! `PatternLattice<V>` is that partial lattice: an access-pattern-keyed map
//! plus the navigation queries, generic in the per-node payload `V`.

use amri_stream::{AccessPattern, FxHashMap, MAX_ATTRS};

/// A partial lattice of access patterns with per-node payloads.
#[derive(Debug, Clone)]
pub struct PatternLattice<V> {
    nodes: FxHashMap<AccessPattern, V>,
    /// JAS width all stored patterns share.
    width: usize,
}

impl<V> PatternLattice<V> {
    /// New empty lattice over a JAS of `width` attributes, with room for
    /// twice the `2^width` patterns there are: CDIA folds and re-inserts
    /// nodes inside a probe step, and a table that is never more than half
    /// full reclaims its tombstones in place instead of reallocating.
    pub fn new(width: usize) -> Self {
        PatternLattice {
            nodes: FxHashMap::with_capacity_and_hasher(
                2 << width.min(MAX_ATTRS),
                Default::default(),
            ),
            width,
        }
    }

    /// JAS width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no node is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of levels the full lattice has (the paper's `h` in the CDIA
    /// space bound): `width + 1`.
    #[inline]
    pub fn height(&self) -> usize {
        self.width + 1
    }

    /// Payload of `ap`, if stored.
    #[inline]
    pub fn get(&self, ap: AccessPattern) -> Option<&V> {
        self.nodes.get(&ap)
    }

    /// Mutable payload of `ap`, if stored.
    #[inline]
    pub fn get_mut(&mut self, ap: AccessPattern) -> Option<&mut V> {
        self.nodes.get_mut(&ap)
    }

    /// Insert or replace the node for `ap`, returning the old payload.
    ///
    /// # Panics
    /// Panics if the pattern's width differs from the lattice's.
    pub fn insert(&mut self, ap: AccessPattern, v: V) -> Option<V> {
        assert_eq!(ap.n_attrs(), self.width, "pattern width mismatch");
        self.nodes.insert(ap, v)
    }

    /// Payload of `ap`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, ap: AccessPattern, default: impl FnOnce() -> V) -> &mut V {
        assert_eq!(ap.n_attrs(), self.width, "pattern width mismatch");
        self.nodes.entry(ap).or_insert_with(default)
    }

    /// Remove the node for `ap`, returning its payload.
    pub fn remove(&mut self, ap: AccessPattern) -> Option<V> {
        self.nodes.remove(&ap)
    }

    /// Iterate over stored `(pattern, payload)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (AccessPattern, &V)> {
        self.nodes.iter().map(|(&k, v)| (k, v))
    }

    /// Direct parents of `ap` (one attribute removed) that are stored.
    pub fn stored_parents(&self, ap: AccessPattern) -> Vec<AccessPattern> {
        ap.direct_parents()
            .filter(|p| self.nodes.contains_key(p))
            .collect()
    }

    /// True iff some stored node lies strictly below `ap` (i.e. `ap`
    /// provides search benefit to a stored node other than itself).
    pub fn has_stored_descendant(&self, ap: AccessPattern) -> bool {
        self.nodes.keys().any(|k| ap.strictly_benefits(*k))
    }

    /// The current leaves: stored nodes with no stored strict descendant
    /// (the paper's "node that does not provide a search benefit to any
    /// other node"). Ordered deepest level first, then by mask, so callers
    /// process deterministically.
    pub fn leaves(&self) -> Vec<AccessPattern> {
        let mut out: Vec<AccessPattern> = self
            .nodes
            .keys()
            .copied()
            .filter(|&ap| !self.has_stored_descendant(ap))
            .collect();
        out.sort_by_key(|ap| (std::cmp::Reverse(ap.level()), ap.mask()));
        out
    }

    /// All stored patterns, deepest level first, then by mask — the
    /// bottom-up sweep order of CDIA's compression — replacing the
    /// contents of `out`, a buffer the caller reuses: the sweep runs inside
    /// a probe step every 1/ε requests and must not allocate. (The sort
    /// key is unique per pattern, so the unstable sort — the one that
    /// needs no merge buffer — yields the one possible order.)
    pub fn by_level_desc(&self, out: &mut Vec<AccessPattern>) {
        out.clear();
        out.extend(self.nodes.keys().copied());
        out.sort_unstable_by_key(|ap| (std::cmp::Reverse(ap.level()), ap.mask()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        assert!(l.is_empty());
        assert_eq!(l.height(), 4);
        l.insert(ap(0b101), 7);
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(ap(0b101)), Some(&7));
        *l.get_mut(ap(0b101)).unwrap() += 1;
        assert_eq!(l.remove(ap(0b101)), Some(8));
        assert!(l.get(ap(0b101)).is_none());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        l.insert(AccessPattern::new(0b1, 2), 1);
    }

    #[test]
    fn get_or_insert_with_defaults_once() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        *l.get_or_insert_with(ap(0b001), || 10) += 1;
        *l.get_or_insert_with(ap(0b001), || 10) += 1;
        assert_eq!(l.get(ap(0b001)), Some(&12));
    }

    #[test]
    fn stored_parents_filters_to_present_nodes() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        l.insert(ap(0b011), 1);
        l.insert(ap(0b001), 1);
        // 0b011's direct parents are 0b010 and 0b001; only 0b001 stored.
        assert_eq!(l.stored_parents(ap(0b011)), vec![ap(0b001)]);
        assert!(l.stored_parents(ap(0b000)).is_empty());
    }

    #[test]
    fn leaves_are_nodes_without_stored_descendants() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        l.insert(ap(0b001), 1); // benefits 0b011 → not a leaf
        l.insert(ap(0b011), 1); // no stored superset → leaf
        l.insert(ap(0b100), 1); // no stored superset → leaf
        let leaves = l.leaves();
        assert_eq!(leaves, vec![ap(0b011), ap(0b100)]);
        assert!(l.has_stored_descendant(ap(0b001)));
        assert!(!l.has_stored_descendant(ap(0b011)));
    }

    #[test]
    fn level_sweep_is_bottom_up_and_deterministic() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        for m in [0b000, 0b010, 0b110, 0b111, 0b001] {
            l.insert(ap(m), 0);
        }
        let mut sweep = vec![ap(0b101)]; // replaced, never appended to
        l.by_level_desc(&mut sweep);
        assert_eq!(
            sweep,
            vec![ap(0b111), ap(0b110), ap(0b001), ap(0b010), ap(0b000)]
        );
    }

    #[test]
    fn empty_pattern_can_be_a_leaf() {
        let mut l: PatternLattice<u64> = PatternLattice::new(3);
        l.insert(ap(0b000), 5);
        assert_eq!(l.leaves(), vec![ap(0b000)]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn build(masks: &[u32]) -> PatternLattice<u64> {
            let mut l = PatternLattice::new(4);
            for &m in masks {
                l.insert(AccessPattern::new(m & 0xF, 4), 1);
            }
            l
        }

        proptest! {
            /// Every stored node is either a leaf or has a stored strict
            /// descendant — and never both.
            #[test]
            fn leaves_partition_stored_nodes(masks in proptest::collection::vec(0u32..16, 1..12)) {
                let l = build(&masks);
                let leaves = l.leaves();
                for (p, _) in l.iter() {
                    let is_leaf = leaves.contains(&p);
                    let has_desc = l.has_stored_descendant(p);
                    prop_assert_eq!(is_leaf, !has_desc, "node {}", p);
                }
            }

            /// by_level_desc never places a node before its stored strict
            /// descendants (bottom-up safety for the CDIA sweeps).
            #[test]
            fn sweep_respects_levels(masks in proptest::collection::vec(0u32..16, 1..12)) {
                let l = build(&masks);
                let mut order = Vec::new();
                l.by_level_desc(&mut order);
                for (i, a) in order.iter().enumerate() {
                    for b in &order[i + 1..] {
                        prop_assert!(
                            a.level() >= b.level(),
                            "{a} (level {}) before {b} (level {})",
                            a.level(),
                            b.level()
                        );
                    }
                }
            }

            /// stored_parents returns exactly the stored direct parents.
            #[test]
            fn stored_parents_sound_and_complete(masks in proptest::collection::vec(0u32..16, 1..12), probe in 0u32..16) {
                let l = build(&masks);
                let p = AccessPattern::new(probe, 4);
                let got = l.stored_parents(p);
                for q in &got {
                    prop_assert!(l.get(*q).is_some());
                    prop_assert_eq!(q.level() + 1, p.level());
                }
                let expected = p
                    .direct_parents()
                    .filter(|q| l.get(*q).is_some())
                    .count();
                prop_assert_eq!(got.len(), expected);
            }
        }
    }
}
