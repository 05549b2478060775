//! Hierarchical heavy hitters over the access-pattern lattice — the
//! algorithm behind CDIA (§IV-D2), modeled on Cormode et al. (VLDB 2003).
//!
//! Like lossy counting, the stream is processed in `⌈1/ε⌉`-item segments and
//! every node carries `(count, Δ)`. The difference is **compression**: when
//! a leaf's `count + Δ ≤ s_id`, its count is *folded into a parent* (one
//! attribute removed) instead of being deleted — the search-benefit relation
//! guarantees an index serving the parent also serves the leaf, so the mass
//! stays meaningful for index selection. Two fold strategies from the paper:
//! pick a parent at random, or the stored parent with the highest count.
//!
//! Only the lattice top (the empty pattern — a full scan, which no index
//! configuration can help) has no parent; mass folded off the top is
//! dropped and tracked in [`HierarchicalHeavyHitters::dropped`].

use crate::lattice::PatternLattice;
use crate::lossy::LossyEntry;
use amri_stream::AccessPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How an infrequent leaf's count is folded into the level above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineStrategy {
    /// Fold into a uniformly random direct parent (stored or new).
    Random,
    /// Fold into the stored direct parent with the highest count so far;
    /// if no parent is stored, into the deterministic first parent.
    /// Intuition (§IV-D2): the biggest parent is likeliest to cross θ.
    HighestCount,
}

/// Configuration of a hierarchical heavy-hitter summary.
#[derive(Debug, Clone, Copy)]
pub struct HhhConfig {
    /// Error rate ε (segment width is `⌈1/ε⌉`).
    pub epsilon: f64,
    /// Fold strategy.
    pub strategy: CombineStrategy,
    /// RNG seed (only used by [`CombineStrategy::Random`]).
    pub seed: u64,
}

impl Default for HhhConfig {
    fn default() -> Self {
        HhhConfig {
            epsilon: 0.001,
            strategy: CombineStrategy::HighestCount,
            seed: 0x5eed,
        }
    }
}

/// The hierarchical heavy-hitter summary over access patterns.
#[derive(Debug, Clone)]
pub struct HierarchicalHeavyHitters {
    lattice: PatternLattice<LossyEntry>,
    config: HhhConfig,
    segment: u64,
    n: u64,
    rng: StdRng,
    peak_entries: usize,
    /// Mass folded off the lattice top (full-scan pattern) and discarded.
    dropped: u64,
    /// Scratch for [`compress`](Self::compress)'s sweep order, kept so a
    /// segment boundary allocates nothing. Not state: refilled every use.
    sweep: Vec<AccessPattern>,
}

impl HierarchicalHeavyHitters {
    /// New summary over a JAS of `width` attributes.
    ///
    /// # Panics
    /// Panics on ε outside (0,1).
    pub fn new(width: usize, config: HhhConfig) -> Self {
        assert!(
            config.epsilon > 0.0 && config.epsilon < 1.0,
            "epsilon must be in (0,1), got {}",
            config.epsilon
        );
        HierarchicalHeavyHitters {
            lattice: PatternLattice::new(width),
            segment: (1.0 / config.epsilon).ceil() as u64,
            config,
            n: 0,
            rng: StdRng::seed_from_u64(config.seed),
            peak_entries: 0,
            dropped: 0,
            sweep: Vec::new(),
        }
    }

    /// JAS width.
    #[inline]
    pub fn width(&self) -> usize {
        self.lattice.width()
    }

    /// Observations so far.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Stored lattice nodes (memory proxy).
    #[inline]
    pub fn entries(&self) -> usize {
        self.lattice.len()
    }

    /// High-water mark of stored nodes.
    #[inline]
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Mass discarded off the lattice top.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current segment id `⌈n / ⌈1/ε⌉⌉` (see
    /// [`LossyCounter::segment_id`](crate::lossy::LossyCounter::segment_id)
    /// for why the ceiling form is used).
    #[inline]
    pub fn segment_id(&self) -> u64 {
        self.n.div_ceil(self.segment)
    }

    /// The node payload for `ap`, if stored.
    pub fn entry(&self, ap: AccessPattern) -> Option<LossyEntry> {
        self.lattice.get(ap).copied()
    }

    /// Read-only view of the underlying partial lattice.
    pub fn lattice(&self) -> &PatternLattice<LossyEntry> {
        &self.lattice
    }

    /// The Cormode et al. space bound for the current stream length:
    /// `(h/ε)·log(ε·n)` entries, `h` = lattice height.
    pub fn space_bound(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        let en = (self.config.epsilon * self.n as f64).max(std::f64::consts::E);
        ((self.lattice.height() as f64 / self.config.epsilon) * en.ln()).ceil() as usize
    }

    /// Record one observation of `ap` (insertion phase), compressing at
    /// segment boundaries.
    pub fn observe(&mut self, ap: AccessPattern) {
        assert_eq!(ap.n_attrs(), self.width(), "pattern width mismatch");
        self.n += 1;
        let sid = self.segment_id();
        match self.lattice.get_mut(ap) {
            Some(e) => e.count += 1,
            None => {
                self.lattice.insert(
                    ap,
                    LossyEntry {
                        count: 1,
                        delta: sid.saturating_sub(1),
                    },
                );
            }
        }
        self.peak_entries = self.peak_entries.max(self.lattice.len());
        if self.n % self.segment == 0 {
            self.compress();
        }
    }

    /// Choose the parent to fold `leaf` into, per the configured strategy.
    fn choose_parent(
        lattice: &PatternLattice<LossyEntry>,
        rng: &mut StdRng,
        strategy: CombineStrategy,
        leaf: AccessPattern,
    ) -> Option<AccessPattern> {
        // Read off the parent iterator, never collected: this runs inside
        // a probe step. The lattice top has no parent (and draws no coin).
        match strategy {
            CombineStrategy::Random => {
                let parents = leaf.direct_parents().count();
                if parents == 0 {
                    return None;
                }
                leaf.direct_parents().nth(rng.gen_range(0..parents))
            }
            CombineStrategy::HighestCount => leaf
                .direct_parents()
                .max_by_key(|p| (lattice.get(*p).map(|e| e.count).unwrap_or(0), p.mask())),
        }
    }

    /// Segment-boundary compression (§IV-D2): fold every infrequent node
    /// (`count + Δ ≤ s_id`) into a parent and delete it.
    ///
    /// Deviation from the paper's letter, documented in DESIGN.md: the
    /// paper restricts compression to *leaves* ("no node below it has a
    /// count > 0"), but in a subset lattice any stored bottom pattern (e.g.
    /// the always-hot `<A,B,C>`) is below every other node, which would
    /// block all compression forever — degenerating CDIA to DIA and
    /// contradicting the paper's own memory results. We therefore fold any
    /// infrequent node, sweeping deepest level first so folds cascade
    /// upward within one boundary. Mass conservation and the heavy-hitter
    /// cover guarantee are unaffected (property-tested below); leaves are
    /// simply the common case.
    fn compress(&mut self) {
        let sid = self.segment_id();
        let mut sweep = std::mem::take(&mut self.sweep);
        self.lattice.by_level_desc(&mut sweep);
        for &node in &sweep {
            let Some(e) = self.lattice.get(node).copied() else {
                continue;
            };
            if e.count + e.delta > sid {
                continue;
            }
            self.lattice.remove(node);
            match Self::choose_parent(&self.lattice, &mut self.rng, self.config.strategy, node) {
                None => self.dropped += e.count, // top of the lattice
                Some(parent) => match self.lattice.get_mut(parent) {
                    Some(p) => p.count += e.count,
                    None => {
                        self.lattice.insert(
                            parent,
                            LossyEntry {
                                count: e.count,
                                delta: sid.saturating_sub(1),
                            },
                        );
                    }
                },
            }
        }
        self.sweep = sweep;
    }

    /// Final-results pass (§IV-D2): bottom-up, roll any node whose rolled
    /// frequency misses the `θ − ε` cut into a parent; report the rest.
    ///
    /// Non-destructive: operates on a clone of the lattice so assessment can
    /// continue. Returned frequencies are the *rolled-up* counts over `n`,
    /// sorted descending (ties by mask).
    pub fn frequent(&self, theta: f64) -> Vec<(AccessPattern, f64)> {
        if self.n == 0 {
            return Vec::new();
        }
        let mut lattice = self.lattice.clone();
        let mut rng = self.rng.clone();
        let n = self.n as f64;
        let cut = (theta - self.config.epsilon) * n;
        let mut out: Vec<(AccessPattern, f64)> = Vec::new();
        // Sweep strictly level by level (deepest first), recomputing each
        // level's membership: a parent that only comes into existence by
        // absorbing folded children is still visited when its level is
        // reached.
        for level in (0..=self.width() as u32).rev() {
            let mut nodes: Vec<AccessPattern> = lattice
                .iter()
                .map(|(p, _)| p)
                .filter(|p| p.level() == level)
                .collect();
            nodes.sort_by_key(|p| p.mask());
            for ap in nodes {
                let e = *lattice.get(ap).expect("node collected this level");
                if (e.count + e.delta) as f64 >= cut {
                    out.push((ap, e.count as f64 / n));
                    continue;
                }
                lattice.remove(ap);
                if let Some(parent) =
                    Self::choose_parent(&lattice, &mut rng, self.config.strategy, ap)
                {
                    match lattice.get_mut(parent) {
                        Some(p) => p.count += e.count,
                        None => {
                            lattice.insert(
                                parent,
                                LossyEntry {
                                    count: e.count,
                                    delta: e.delta,
                                },
                            );
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap()
                .then_with(|| a.0.mask().cmp(&b.0.mask()))
        });
        out
    }

    /// Total mass currently stored in the lattice plus the dropped mass —
    /// must always equal `n` (checked by property tests).
    pub fn total_mass(&self) -> u64 {
        self.lattice.iter().map(|(_, e)| e.count).sum::<u64>() + self.dropped
    }

    /// Drop all state (the configuration is kept).
    pub fn clear(&mut self) {
        self.lattice = PatternLattice::new(self.lattice.width());
        self.n = 0;
        self.rng = StdRng::seed_from_u64(self.config.seed);
        self.peak_entries = 0;
        self.dropped = 0;
    }

    /// The summary's configuration.
    #[inline]
    pub fn config(&self) -> HhhConfig {
        self.config
    }

    /// Raw RNG state words, for checkpointing (paired with
    /// [`from_parts`](Self::from_parts) the fold stream continues exactly
    /// where it left off).
    #[inline]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild a summary from checkpointed state: constructor arguments
    /// plus the mutable state captured from a live summary (`n()`,
    /// `rng_state()`, `peak_entries()`, `dropped()`, and the stored
    /// lattice nodes). Node order is immaterial — every query path sorts.
    ///
    /// # Panics
    /// Panics on ε outside (0,1) (like [`new`](Self::new)).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        width: usize,
        config: HhhConfig,
        n: u64,
        rng_state: [u64; 4],
        peak_entries: usize,
        dropped: u64,
        nodes: impl IntoIterator<Item = (AccessPattern, LossyEntry)>,
    ) -> Self {
        let mut h = HierarchicalHeavyHitters::new(width, config);
        h.n = n;
        h.rng = StdRng::from_state(rng_state);
        h.peak_entries = peak_entries;
        h.dropped = dropped;
        for (ap, e) in nodes {
            h.lattice.insert(ap, e);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    fn cfg(eps: f64, strategy: CombineStrategy) -> HhhConfig {
        HhhConfig {
            epsilon: eps,
            strategy,
            seed: 42,
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn rejects_bad_epsilon() {
        let _ = HierarchicalHeavyHitters::new(3, cfg(1.5, CombineStrategy::Random));
    }

    #[test]
    fn exact_counts_before_any_boundary() {
        let mut h = HierarchicalHeavyHitters::new(3, cfg(0.001, CombineStrategy::HighestCount));
        for _ in 0..5 {
            h.observe(ap(0b011));
        }
        h.observe(ap(0b111));
        assert_eq!(h.entry(ap(0b011)).unwrap().count, 5);
        assert_eq!(h.entry(ap(0b111)).unwrap().count, 1);
        assert_eq!(h.n(), 6);
        assert_eq!(h.total_mass(), 6);
    }

    #[test]
    fn folding_preserves_mass() {
        let mut h = HierarchicalHeavyHitters::new(3, cfg(0.05, CombineStrategy::HighestCount));
        // A skewed stream with many one-off patterns that must get folded.
        for i in 0..2000u32 {
            let m = match i % 20 {
                0..=11 => 0b111,
                12..=15 => 0b011,
                _ => (i % 8).max(1),
            };
            h.observe(ap(m));
        }
        assert_eq!(h.total_mass(), 2000);
        assert!(h.entries() <= h.space_bound());
    }

    #[test]
    fn fold_goes_to_highest_count_parent() {
        let mut h = HierarchicalHeavyHitters::new(3, cfg(0.25, CombineStrategy::HighestCount));
        // Segment width 4. Build a big parent <A,*,*> and a tiny leaf <A,B,*>.
        for _ in 0..3 {
            h.observe(ap(0b001)); // parent A
        }
        h.observe(ap(0b011)); // leaf AB — boundary hits at n=4
                              // At the boundary s_id=1: leaf AB has count+delta = 1 ≤ 1 → folded.
                              // Its parents are A (count 3) and B (absent): A must receive it.
        assert!(h.entry(ap(0b011)).is_none(), "leaf folded away");
        assert_eq!(h.entry(ap(0b001)).unwrap().count, 4);
        assert_eq!(h.total_mass(), 4);
    }

    #[test]
    fn top_absorbs_folded_mass_and_never_drops() {
        // The lattice top can only become a leaf once it is the sole stored
        // node, and by mass conservation its count then equals n — which can
        // never satisfy the fold condition. So folding cascades all starved
        // mass *into* the top, and `dropped` stays a defensive counter.
        let mut h = HierarchicalHeavyHitters::new(1, cfg(0.5, CombineStrategy::HighestCount));
        let top = AccessPattern::empty(1);
        let leaf = AccessPattern::full(1);
        for _ in 0..2 {
            h.observe(leaf);
            h.observe(top);
        }
        assert_eq!(h.entries(), 1, "everything folded into the top");
        assert_eq!(h.entry(top).unwrap().count, 4);
        assert_eq!(h.dropped(), 0);
        assert_eq!(h.total_mass(), 4);
    }

    #[test]
    fn frequent_rolls_up_and_reports_ancestors() {
        // The Table II shape: <A,*,*> at 4% and <A,B,*> at 4% individually
        // miss θ=5% but roll up to 8% on <A,*,*>.
        let mut h = HierarchicalHeavyHitters::new(3, cfg(0.001, CombineStrategy::HighestCount));
        for _ in 0..4 {
            h.observe(ap(0b001)); // <A,*,*>
        }
        for _ in 0..4 {
            h.observe(ap(0b011)); // <A,B,*>
        }
        for _ in 0..92 {
            h.observe(ap(0b111)); // <A,B,C> keeps them both below 5%
        }
        let q = h.frequent(0.05);
        let pats: Vec<u32> = q.iter().map(|(p, _)| p.mask()).collect();
        assert!(pats.contains(&0b111));
        assert!(
            pats.contains(&0b001),
            "<A,*,*> must appear with rolled-up mass, got {q:?}"
        );
        let a = q.iter().find(|(p, _)| p.mask() == 0b001).unwrap();
        assert!(
            (a.1 - 0.08).abs() < 1e-9,
            "rolled frequency 8%, got {}",
            a.1
        );
        // <A,B,*> itself was rolled away.
        assert!(!pats.contains(&0b011));
    }

    #[test]
    fn frequent_is_non_destructive_and_deterministic() {
        let mut h = HierarchicalHeavyHitters::new(3, cfg(0.01, CombineStrategy::Random));
        for i in 0..500u32 {
            h.observe(ap(i % 7 + 1));
        }
        let a = h.frequent(0.1);
        let b = h.frequent(0.1);
        assert_eq!(a, b, "query must not mutate state");
        assert_eq!(h.total_mass(), 500);
    }

    #[test]
    fn random_strategy_with_same_seed_reproduces() {
        let run = || {
            let mut h = HierarchicalHeavyHitters::new(3, cfg(0.02, CombineStrategy::Random));
            for i in 0..2000u32 {
                h.observe(ap(i * 31 % 8));
            }
            h.frequent(0.05)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_resets_all_state() {
        let mut h = HierarchicalHeavyHitters::new(3, cfg(0.5, CombineStrategy::Random));
        for _ in 0..10 {
            h.observe(ap(0b101));
        }
        h.clear();
        assert_eq!(h.n(), 0);
        assert_eq!(h.entries(), 0);
        assert_eq!(h.dropped(), 0);
        assert!(h.frequent(0.0).is_empty());
    }

    fn arbitrary_stream() -> impl Strategy<Value = Vec<u32>> {
        // Skewed pattern streams over a width-3 JAS (masks 0..8).
        proptest::collection::vec(0u32..8, 200..1500)
    }

    proptest! {
        /// Mass conservation: stored + dropped == n, under both strategies.
        #[test]
        fn mass_is_conserved(stream in arbitrary_stream(), highest in proptest::bool::ANY) {
            let strategy = if highest { CombineStrategy::HighestCount } else { CombineStrategy::Random };
            let mut h = HierarchicalHeavyHitters::new(3, cfg(0.05, strategy));
            for &m in &stream {
                h.observe(ap(m));
            }
            prop_assert_eq!(h.total_mass(), stream.len() as u64);
        }

        /// CDIA guarantee: any pattern whose exact frequency ≥ θ is covered
        /// by the output — itself or an ancestor (benefactor) is reported.
        #[test]
        fn heavy_patterns_are_covered(stream in arbitrary_stream(), highest in proptest::bool::ANY) {
            let theta = 0.15;
            let strategy = if highest { CombineStrategy::HighestCount } else { CombineStrategy::Random };
            let mut h = HierarchicalHeavyHitters::new(3, cfg(0.01, strategy));
            let mut exact = amri_stream::FxHashMap::default();
            for &m in &stream {
                h.observe(ap(m));
                *exact.entry(m).or_insert(0u64) += 1;
            }
            let q = h.frequent(theta);
            for (&m, &c) in &exact {
                if c as f64 / stream.len() as f64 >= theta {
                    let covered = q.iter().any(|(p, _)| p.benefits(ap(m)));
                    prop_assert!(covered, "heavy pattern {m:#b} (count {c}) not covered by {q:?}");
                }
            }
        }

        /// Space bound: stored nodes never exceed (h/ε)·log(εn) + slack.
        #[test]
        fn space_within_bound(stream in arbitrary_stream()) {
            let mut h = HierarchicalHeavyHitters::new(3, cfg(0.02, CombineStrategy::HighestCount));
            for &m in &stream {
                h.observe(ap(m));
            }
            // Width-3 lattices have only 8 nodes; also check the formula holds.
            prop_assert!(h.entries() <= 8);
            prop_assert!(h.entries() <= h.space_bound().max(8));
        }

        /// Reported rolled-up frequency never exceeds the exact rolled-up
        /// frequency f*(ap) = Σ_{ap ≺ k} f_k (plus ε slack for re-insertion).
        #[test]
        fn rolled_frequency_is_bounded(stream in arbitrary_stream()) {
            let mut h = HierarchicalHeavyHitters::new(3, cfg(0.02, CombineStrategy::HighestCount));
            let mut exact = amri_stream::FxHashMap::default();
            for &m in &stream {
                h.observe(ap(m));
                *exact.entry(m).or_insert(0u64) += 1;
            }
            let n = stream.len() as f64;
            for (p, f) in h.frequent(0.05) {
                let f_star: u64 = exact
                    .iter()
                    .filter(|(&m, _)| p.benefits(ap(m)))
                    .map(|(_, &c)| c)
                    .sum();
                prop_assert!(f <= f_star as f64 / n + 1e-9,
                    "pattern {p} reported {f} > f* {}", f_star as f64 / n);
            }
        }
    }
}
