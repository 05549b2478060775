//! CDIA — Compact DIA (§IV-D2): hierarchical heavy hitters over the
//! search-benefit lattice, modeled on Cormode et al. (VLDB 2003).
//!
//! CDIA shares lossy counting's insertion phase with CSRIA ([`Lossy`]).
//! The difference is **compression**: when a pattern's `count + Δ ≤ s_id`,
//! its count is *folded into a parent* (one attribute removed) instead of
//! being deleted. The search-benefit relation guarantees an index serving
//! the parent also serves the pattern, so the tuner still sees the
//! combined weight of pattern families whose members are individually
//! rare, and recovers configurations CSRIA misses (the Table II example,
//! asserted below). Two fold strategies from the paper: pick a parent at
//! random, or the stored parent with the highest count.
//!
//! Only the lattice top (the empty pattern — a full scan, which no index
//! configuration can help) has no parent; mass folded off the top is
//! dropped and counted, so stored counts plus the dropped mass always
//! equal `n`.

use crate::lossy::{Entry, Lossy};
use crate::{check_mass, sort_desc, Table};
use crate::{Assessor, AssessorKind, CombineStrategy};
use amri_stream::{expect_tag, AccessPattern, SectionReader, SectionWriter, SnapshotError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The compact dependent assessment method.
#[derive(Debug, Clone)]
pub struct Cdia {
    lossy: Lossy,
    strategy: CombineStrategy,
    seed: u64,
    rng: StdRng,
    /// Mass folded off the lattice top (full-scan pattern) and discarded.
    dropped: u64,
    /// Scratch for [`compress`](Self::compress)'s sweep order, kept so a
    /// segment boundary allocates nothing. Not state: refilled every use.
    sweep: Vec<AccessPattern>,
}

impl Cdia {
    /// New CDIA for a JAS of `width` attributes with error rate `epsilon`
    /// and the given combination strategy. `seed` drives the random
    /// strategy deterministically.
    ///
    /// # Panics
    /// Panics on ε outside (0,1).
    pub fn new(width: usize, epsilon: f64, strategy: CombineStrategy, seed: u64) -> Self {
        Cdia {
            lossy: Lossy::new(width, epsilon),
            strategy,
            seed,
            rng: StdRng::seed_from_u64(seed),
            dropped: 0,
            sweep: Vec::new(),
        }
    }

    /// Choose the parent to fold `leaf` into, per the configured strategy.
    fn choose_parent(
        nodes: &Table<Entry>,
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
                .max_by_key(|p| (nodes.get(p).map(|e| e.count).unwrap_or(0), p.mask())),
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
        let sid = self.lossy.segment_id();
        let nodes = &mut self.lossy.entries;
        // Deepest level first, then by mask. The key is unique per
        // pattern, so the unstable sort — the one that needs no merge
        // buffer — yields the one possible order.
        let sweep = &mut self.sweep;
        sweep.clear();
        sweep.extend(nodes.keys().copied());
        sweep.sort_unstable_by_key(|ap| (std::cmp::Reverse(ap.level()), ap.mask()));
        for &node in sweep.iter() {
            let Some(e) = nodes.get(&node).copied() else {
                continue;
            };
            if e.count + e.delta > sid {
                continue;
            }
            nodes.remove(&node);
            match Self::choose_parent(nodes, &mut self.rng, self.strategy, node) {
                None => self.dropped += e.count, // top of the lattice
                Some(parent) => match nodes.get_mut(&parent) {
                    Some(p) => p.count += e.count,
                    None => {
                        nodes.insert(
                            parent,
                            Entry {
                                count: e.count,
                                delta: sid.saturating_sub(1),
                            },
                        );
                    }
                },
            }
        }
    }
}

impl Assessor for Cdia {
    fn record(&mut self, ap: AccessPattern) {
        if self.lossy.insert(ap) {
            self.compress();
        }
    }

    /// Final-results pass (§IV-D2): bottom-up, roll any node whose rolled
    /// frequency misses the `θ − ε` cut into a parent; report the rest.
    ///
    /// Non-destructive: operates on a clone of the nodes and of the RNG so
    /// assessment can continue. Returned frequencies are the *rolled-up*
    /// counts over `n`.
    fn frequent(&self, theta: f64) -> Vec<(AccessPattern, f64)> {
        if self.lossy.n == 0 {
            return Vec::new();
        }
        let mut nodes = self.lossy.entries.clone();
        let mut rng = self.rng.clone();
        let n = self.lossy.n as f64;
        let cut = self.lossy.cut(theta);
        let mut out: Vec<(AccessPattern, f64)> = Vec::new();
        // Sweep strictly level by level (deepest first), recomputing each
        // level's membership: a parent that only comes into existence by
        // absorbing folded children is still visited when its level is
        // reached.
        for level in (0..=self.lossy.width as u32).rev() {
            let mut at_level: Vec<AccessPattern> = nodes
                .keys()
                .copied()
                .filter(|p| p.level() == level)
                .collect();
            at_level.sort_by_key(|p| p.mask());
            for ap in at_level {
                let e = nodes[&ap];
                if (e.count + e.delta) as f64 >= cut {
                    out.push((ap, e.count as f64 / n));
                    continue;
                }
                nodes.remove(&ap);
                if let Some(parent) = Self::choose_parent(&nodes, &mut rng, self.strategy, ap) {
                    nodes
                        .entry(parent)
                        .and_modify(|p| p.count += e.count)
                        .or_insert(e);
                }
            }
        }
        sort_desc(&mut out);
        out
    }

    fn n(&self) -> u64 {
        self.lossy.n
    }

    fn entries(&self) -> usize {
        self.lossy.entries.len()
    }

    fn peak_entries(&self) -> usize {
        self.lossy.peak
    }

    fn reset(&mut self) {
        self.lossy.reset();
        self.rng = StdRng::seed_from_u64(self.seed);
        self.dropped = 0;
    }

    fn kind(&self) -> AssessorKind {
        AssessorKind::Cdia(self.strategy)
    }

    fn save(&self, w: &mut SectionWriter) {
        w.put_str("CDIA");
        w.put_u64(self.lossy.n);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_usize(self.lossy.peak);
        w.put_u64(self.dropped);
        self.lossy.save_entries(w);
    }

    fn load(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        expect_tag(r, "CDIA")?;
        let n = r.get_u64()?;
        let mut rng_state = [0u64; 4];
        for word in rng_state.iter_mut() {
            *word = r.get_u64()?;
        }
        let peak = r.get_usize()?;
        let dropped = r.get_u64()?;
        let entries = self.lossy.load_entries(r, "CDIA", n, peak)?;
        check_mass(
            "CDIA",
            &entries,
            |e| e.count,
            |sum| sum.checked_add(dropped) == Some(n),
        )?;
        self.lossy.entries = entries;
        self.lossy.n = n;
        self.lossy.peak = peak;
        self.rng = StdRng::from_state(rng_state);
        self.dropped = dropped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{feed_table_ii, Sria};
    use proptest::prelude::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    fn cdia(eps: f64, strategy: CombineStrategy) -> Cdia {
        Cdia::new(3, eps, strategy, 42)
    }

    /// Stored counts plus the dropped mass — always `n`.
    fn total_mass(c: &Cdia) -> u64 {
        c.lossy.entries.values().map(|e| e.count).sum::<u64>() + c.dropped
    }

    /// The stored node for `ap`, if any.
    fn entry(c: &Cdia, ap: AccessPattern) -> Option<Entry> {
        c.lossy.entries.get(&ap).copied()
    }

    /// The Cormode et al. space bound: `(h/ε)·log(ε·n)` nodes, `h` the
    /// lattice height `width + 1`.
    fn space_bound(c: &Cdia) -> usize {
        let en = (c.lossy.epsilon * c.lossy.n as f64).max(std::f64::consts::E);
        (((c.lossy.width + 1) as f64 / c.lossy.epsilon) * en.ln()).ceil() as usize
    }

    /// An image claiming more nodes than its bytes hold is `Malformed`,
    /// not an allocation abort.
    #[test]
    fn load_refuses_a_node_count_the_section_cannot_hold() {
        let fresh = || cdia(0.01, CombineStrategy::HighestCount);
        let mut w = SectionWriter::new();
        fresh().save(&mut w);
        let mut image = w.into_bytes();
        // An empty lattice ends in its node count.
        let at = image.len() - 8;
        image[at..].copy_from_slice(&(1u64 << 40).to_le_bytes());
        match fresh().load(&mut SectionReader::new(&image)) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("entry count"), "{why}"),
            other => panic!("expected Malformed(entry count), got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn rejects_bad_epsilon() {
        let _ = cdia(1.5, CombineStrategy::Random);
    }

    #[test]
    fn exact_counts_before_any_boundary() {
        let mut h = cdia(0.001, CombineStrategy::HighestCount);
        for _ in 0..5 {
            h.record(ap(0b011));
        }
        h.record(ap(0b111));
        assert_eq!(entry(&h, ap(0b011)).unwrap().count, 5);
        assert_eq!(entry(&h, ap(0b111)).unwrap().count, 1);
        assert_eq!(h.n(), 6);
        assert_eq!(total_mass(&h), 6);
    }

    #[test]
    fn folding_preserves_mass() {
        let mut h = cdia(0.05, CombineStrategy::HighestCount);
        // A skewed stream with many one-off patterns that must get folded.
        for i in 0..2000u32 {
            let m = match i % 20 {
                0..=11 => 0b111,
                12..=15 => 0b011,
                _ => (i % 8).max(1),
            };
            h.record(ap(m));
        }
        assert_eq!(total_mass(&h), 2000);
        assert!(h.entries() <= space_bound(&h));
    }

    #[test]
    fn fold_goes_to_highest_count_parent() {
        let mut h = cdia(0.25, CombineStrategy::HighestCount);
        // Segment width 4. Build a big parent <A,*,*> and a tiny leaf <A,B,*>.
        for _ in 0..3 {
            h.record(ap(0b001)); // parent A
        }
        // Leaf AB — the boundary hits at n=4. At s_id=1 its count+delta
        // = 1 ≤ 1, so it is folded; of its parents A (count 3) and B
        // (absent), A must receive it.
        h.record(ap(0b011));
        assert!(entry(&h, ap(0b011)).is_none(), "leaf folded away");
        assert_eq!(entry(&h, ap(0b001)).unwrap().count, 4);
        assert_eq!(total_mass(&h), 4);
    }

    #[test]
    fn top_absorbs_folded_mass_and_never_drops() {
        // The lattice top can only become a leaf once it is the sole stored
        // node, and by mass conservation its count then equals n — which can
        // never satisfy the fold condition. So folding cascades all starved
        // mass *into* the top, and `dropped` stays a defensive counter.
        let mut h = Cdia::new(1, 0.5, CombineStrategy::HighestCount, 42);
        let top = AccessPattern::empty(1);
        let leaf = AccessPattern::full(1);
        for _ in 0..2 {
            h.record(leaf);
            h.record(top);
        }
        assert_eq!(h.entries(), 1, "everything folded into the top");
        assert_eq!(entry(&h, top).unwrap().count, 4);
        assert_eq!(h.dropped, 0);
        assert_eq!(total_mass(&h), 4);
    }

    #[test]
    fn frequent_rolls_up_and_reports_ancestors() {
        // The Table II shape: <A,*,*> at 4% and <A,B,*> at 4% individually
        // miss θ=5% but roll up to 8% on <A,*,*>.
        let mut h = cdia(0.001, CombineStrategy::HighestCount);
        for _ in 0..4 {
            h.record(ap(0b001)); // <A,*,*>
        }
        for _ in 0..4 {
            h.record(ap(0b011)); // <A,B,*>
        }
        for _ in 0..92 {
            h.record(ap(0b111)); // <A,B,C> keeps them both below 5%
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
        let mut h = cdia(0.01, CombineStrategy::Random);
        for i in 0..500u32 {
            h.record(ap(i % 7 + 1));
        }
        let a = h.frequent(0.1);
        let b = h.frequent(0.1);
        assert_eq!(a, b, "query must not mutate state");
        assert_eq!(total_mass(&h), 500);
    }

    #[test]
    fn random_strategy_with_same_seed_reproduces() {
        let run = || {
            let mut h = cdia(0.02, CombineStrategy::Random);
            for i in 0..2000u32 {
                h.record(ap(i * 31 % 8));
            }
            h.frequent(0.05)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_resets_all_state() {
        let mut h = cdia(0.5, CombineStrategy::Random);
        for _ in 0..10 {
            h.record(ap(0b101));
        }
        h.reset();
        assert_eq!(h.n(), 0);
        assert_eq!(h.entries(), 0);
        assert_eq!(h.dropped, 0);
        assert!(h.frequent(0.0).is_empty());
    }

    #[test]
    fn random_combination_can_recover_the_table_ii_family() {
        // §IV-D2: with θ=5%, ε=0.1% and the Table II distribution, CDIA
        // using *random combination* folds <A,B,*> (4%) into <A,*,*> (4%),
        // whose combined 8% clears θ — so the tuner can still give the A
        // attribute index bits. Each fold is a coin flip between the two
        // parents, so we check that it happens for some seed (and that the
        // alternative outcome is the B roll-up, never a lost family).
        let mut recovered_a = false;
        for seed in 0..16 {
            let mut c = Cdia::new(3, 0.001, CombineStrategy::Random, seed);
            feed_table_ii(&mut c);
            let hh = c.frequent(0.05);
            let a = hh.iter().find(|(p, _)| p.mask() == 0b001);
            let b = hh.iter().find(|(p, _)| p.mask() == 0b010);
            if let Some(&(_, f)) = a {
                assert!((f - 0.08).abs() < 0.01, "A family rolls to 8%, got {f}");
                recovered_a = true;
            } else {
                // The flip went to B: its roll-up must carry the mass.
                let f = b.expect("mass must go to A or B").1;
                assert!(f >= 0.13, "B roll-up must be ≈14%, got {f}");
            }
        }
        assert!(recovered_a, "no seed out of 16 recovered <A,*,*> — broken");
    }

    #[test]
    fn highest_count_folds_into_the_heaviest_parent() {
        // With highest-count combination, <A,B,*> (4%) folds into <*,B,*>
        // (10% — the heavier parent), so B is reported with ≈14% and the
        // A family stays hidden. This is precisely the strategy contrast
        // the ablation experiment measures.
        let mut c = cdia(0.001, CombineStrategy::HighestCount);
        feed_table_ii(&mut c);
        let hh = c.frequent(0.05);
        let b = hh
            .iter()
            .find(|(p, _)| p.mask() == 0b010)
            .expect("B reported");
        assert!((b.1 - 0.14).abs() < 0.01, "B rolls to 14%, got {}", b.1);
        assert!(
            !hh.iter().any(|(p, _)| p.mask() == 0b001),
            "A stays hidden under highest-count: {hh:?}"
        );
        // The big five still reported.
        for m in [0b010, 0b100, 0b101, 0b110, 0b111] {
            assert!(
                hh.iter().any(|(p, _)| p.mask() == m),
                "missing {m:#b}: {hh:?}"
            );
        }
    }

    fn arbitrary_stream() -> impl Strategy<Value = Vec<u32>> {
        // Skewed pattern streams over a width-3 JAS (masks 0..8).
        proptest::collection::vec(0u32..8, 200..1500)
    }

    fn strategy(highest: bool) -> CombineStrategy {
        if highest {
            CombineStrategy::HighestCount
        } else {
            CombineStrategy::Random
        }
    }

    /// Feed `stream` to a CDIA and to the exact reference.
    fn both(stream: &[u32], eps: f64, strategy: CombineStrategy) -> (Cdia, Sria) {
        let mut h = cdia(eps, strategy);
        let mut exact = Sria::new(3);
        for &m in stream {
            h.record(ap(m));
            exact.record(ap(m));
        }
        (h, exact)
    }

    proptest! {
        /// Mass conservation: stored + dropped == n, under both strategies.
        #[test]
        fn mass_is_conserved(stream in arbitrary_stream(), highest in proptest::bool::ANY) {
            let (h, _) = both(&stream, 0.05, strategy(highest));
            prop_assert_eq!(total_mass(&h), stream.len() as u64);
        }

        /// CDIA guarantee: any pattern whose exact frequency ≥ θ is covered
        /// by the output — itself or an ancestor (benefactor) is reported.
        #[test]
        fn heavy_patterns_are_covered(stream in arbitrary_stream(), highest in proptest::bool::ANY) {
            let theta = 0.15;
            let (h, exact) = both(&stream, 0.01, strategy(highest));
            let q = h.frequent(theta);
            for (p, f) in exact.frequent(theta) {
                let covered = q.iter().any(|(c, _)| c.benefits(p));
                prop_assert!(covered, "heavy pattern {p} (freq {f}) not covered by {q:?}");
            }
        }

        /// Space bound: stored nodes never exceed (h/ε)·log(εn) + slack.
        #[test]
        fn space_within_bound(stream in arbitrary_stream()) {
            let (h, _) = both(&stream, 0.02, CombineStrategy::HighestCount);
            // Width-3 lattices have only 8 nodes; also check the formula holds.
            prop_assert!(h.entries() <= 8);
            prop_assert!(h.entries() <= space_bound(&h).max(8));
        }

        /// Reported rolled-up frequency never exceeds the exact rolled-up
        /// frequency f*(ap) = Σ_{ap ≺ k} f_k (plus ε slack for re-insertion).
        #[test]
        fn rolled_frequency_is_bounded(stream in arbitrary_stream()) {
            let (h, exact) = both(&stream, 0.02, CombineStrategy::HighestCount);
            let n = stream.len() as f64;
            for (p, f) in h.frequent(0.05) {
                let f_star: u64 = exact
                    .counts
                    .iter()
                    .filter(|(&k, _)| p.benefits(k))
                    .map(|(_, &c)| c)
                    .sum();
                prop_assert!(f <= f_star as f64 / n + 1e-9,
                    "pattern {p} reported {f} > f* {}", f_star as f64 / n);
            }
        }
    }
}
