//! Lossy counting (Manku & Motwani, VLDB 2002) and CSRIA, the assessor
//! built on it (§IV-C2).
//!
//! The stream is processed in *segments* of `⌈1/ε⌉` requests. Each tracked
//! pattern carries its observed count `f` and the maximum undercount `Δ`
//! it may have suffered before being (re-)inserted — `Δ = s_id − 1` where
//! `s_id` is the segment id at insertion. That insertion phase is
//! [`Lossy`], which CSRIA and CDIA share. They differ in what happens at a
//! segment boundary. CSRIA *deletes* every entry with `f + Δ ≤ s_id`:
//! cheap, but blind to the search-benefit relation. The Table II example
//! (two 4% children of a common 8% ancestor) is exactly what it gets
//! wrong, and what CDIA's folding fixes. Querying with threshold `θ`
//! returns the entries with `f + Δ ≥ (θ − ε)·n`.
//!
//! Guarantees (property-tested below, with [`Sria`](crate::Sria) as the
//! exact reference):
//! 1. every pattern with true frequency ≥ θ is reported;
//! 2. no pattern with true frequency < θ − ε is reported;
//! 3. estimated counts undercount by at most ε·n;
//! 4. at most `(1/ε)·log(ε·n)` entries are live (Manku–Motwani Thm. 4.2).

use crate::{check_mass, load_table, save_table, sort_desc, table, Table};
use crate::{Assessor, AssessorKind};
use amri_stream::{expect_tag, AccessPattern, SectionReader, SectionWriter, SnapshotError};

/// A tracked pattern's state: observed count and maximum prior undercount.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Occurrences observed since (re-)insertion (the paper's `A_ap`).
    pub(crate) count: u64,
    /// Maximum possible undercount at insertion time (the paper's `δ`).
    pub(crate) delta: u64,
}

/// Lossy counting's table and insertion phase, which CSRIA and CDIA share;
/// each owner compresses at the segment boundaries
/// [`insert`](Self::insert) reports.
#[derive(Debug, Clone)]
pub(crate) struct Lossy {
    pub(crate) entries: Table<Entry>,
    /// Error rate ε.
    pub(crate) epsilon: f64,
    /// Segment width `⌈1/ε⌉`.
    segment: u64,
    /// Requests observed since the last reset (the paper's λ_r).
    pub(crate) n: u64,
    /// High-water mark of live entries (memory-bound verification).
    pub(crate) peak: usize,
    pub(crate) width: usize,
}

impl Lossy {
    /// New table for a JAS of `width` attributes with error rate `epsilon`.
    ///
    /// # Panics
    /// Panics on ε outside (0,1).
    pub(crate) fn new(width: usize, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        Lossy {
            entries: table(width),
            epsilon,
            segment: (1.0 / epsilon).ceil() as u64,
            n: 0,
            peak: 0,
            width,
        }
    }

    /// Current segment id: `⌈n / ⌈1/ε⌉⌉` (Manku–Motwani's `b_current`; the
    /// paper writes `⌊ε·λ_r⌋`, which agrees at segment boundaries — but the
    /// ceiling form is required between boundaries so that the per-entry
    /// `Δ = s_id − 1` keeps the `true ≤ f + Δ` invariant right after a
    /// compression sweep).
    #[inline]
    pub(crate) fn segment_id(&self) -> u64 {
        self.n.div_ceil(self.segment)
    }

    /// Count one request for `ap`; true when it ends a segment, where the
    /// owner compresses.
    pub(crate) fn insert(&mut self, ap: AccessPattern) -> bool {
        debug_assert_eq!(ap.n_attrs(), self.width);
        self.n += 1;
        let sid = self.segment_id();
        match self.entries.get_mut(&ap) {
            Some(e) => e.count += 1,
            None => {
                self.entries.insert(
                    ap,
                    Entry {
                        count: 1,
                        delta: sid.saturating_sub(1),
                    },
                );
            }
        }
        self.peak = self.peak.max(self.entries.len());
        self.n % self.segment == 0
    }

    /// The final-results cut for threshold `theta`: `(θ − ε)·n`.
    pub(crate) fn cut(&self, theta: f64) -> f64 {
        (theta - self.epsilon) * self.n as f64
    }

    /// Forget every request (the configuration is kept).
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.n = 0;
        self.peak = 0;
    }

    /// Write the entries, each as `(mask, count, Δ)`.
    pub(crate) fn save_entries(&self, w: &mut SectionWriter) {
        save_table(w, &self.entries, |w, e| {
            w.put_u64(e.count);
            w.put_u64(e.delta);
        });
    }

    /// Read what [`save_entries`](Self::save_entries) wrote, for a `tag`
    /// section of `n` requests whose high-water mark is `peak`. An entry's
    /// Δ is one less than a segment id it was inserted in, so a Δ at or
    /// past the current segment id is refused.
    pub(crate) fn load_entries(
        &self,
        r: &mut SectionReader<'_>,
        tag: &str,
        n: u64,
        peak: usize,
    ) -> Result<Table<Entry>, SnapshotError> {
        let sid = n.div_ceil(self.segment);
        load_table(r, tag, self.width, peak, 16, |r| {
            let e = Entry {
                count: r.get_u64()?,
                delta: r.get_u64()?,
            };
            if e.delta >= sid {
                return Err(SnapshotError::Malformed(format!(
                    "{tag} entry Δ {} is not below segment {sid}",
                    e.delta
                )));
            }
            Ok(e)
        })
    }
}

/// CSRIA — Compact SRIA (§IV-C2): SRIA's counts under lossy counting.
#[derive(Debug, Clone)]
pub struct Csria {
    lossy: Lossy,
}

impl Csria {
    /// New CSRIA table for a JAS of `width` attributes with error rate
    /// `epsilon`.
    ///
    /// # Panics
    /// Panics on ε outside (0,1).
    pub fn new(width: usize, epsilon: f64) -> Self {
        Csria {
            lossy: Lossy::new(width, epsilon),
        }
    }
}

impl Assessor for Csria {
    fn record(&mut self, ap: AccessPattern) {
        if self.lossy.insert(ap) {
            let sid = self.lossy.segment_id();
            self.lossy.entries.retain(|_, e| e.count + e.delta > sid);
        }
    }

    /// Final-results rule: report patterns with `f + Δ ≥ (θ − ε)·n`.
    fn frequent(&self, theta: f64) -> Vec<(AccessPattern, f64)> {
        if self.lossy.n == 0 {
            return Vec::new();
        }
        let n = self.lossy.n as f64;
        let cut = self.lossy.cut(theta);
        let mut out: Vec<(AccessPattern, f64)> = self
            .lossy
            .entries
            .iter()
            .filter(|(_, e)| (e.count + e.delta) as f64 >= cut)
            .map(|(&p, e)| (p, e.count as f64 / n))
            .collect();
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
    }

    fn kind(&self) -> AssessorKind {
        AssessorKind::Csria
    }

    fn save(&self, w: &mut SectionWriter) {
        w.put_str("CSRIA");
        w.put_u64(self.lossy.n);
        w.put_usize(self.lossy.peak);
        self.lossy.save_entries(w);
    }

    fn load(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        expect_tag(r, "CSRIA")?;
        let n = r.get_u64()?;
        let peak = r.get_usize()?;
        let entries = self.lossy.load_entries(r, "CSRIA", n, peak)?;
        check_mass("CSRIA", &entries, |e| e.count, |sum| sum <= n)?;
        self.lossy.entries = entries;
        self.lossy.n = n;
        self.lossy.peak = peak;
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

    /// The Manku–Motwani space bound for `n` requests at error rate
    /// `epsilon`: `(1/ε)·log(ε·n)` entries.
    fn space_bound(epsilon: f64, n: u64) -> usize {
        let en = (epsilon * n as f64).max(std::f64::consts::E);
        ((1.0 / epsilon) * en.ln()).ceil() as usize
    }

    /// Feed `stream` (width-8 masks) to a CSRIA at `epsilon` and to the
    /// exact reference.
    fn both(stream: &[u32], epsilon: f64) -> (Csria, Sria) {
        let mut lossy = Csria::new(8, epsilon);
        let mut exact = Sria::new(8);
        for &m in stream {
            lossy.record(AccessPattern::new(m, 8));
            exact.record(AccessPattern::new(m, 8));
        }
        (lossy, exact)
    }

    /// The estimated count of `ap` (0 if not tracked).
    fn estimate(c: &Csria, ap: AccessPattern) -> u64 {
        c.lossy.entries.get(&ap).map_or(0, |e| e.count)
    }

    /// An image claiming more entries than its bytes hold is `Malformed`,
    /// not an allocation abort.
    #[test]
    fn load_refuses_an_entry_count_the_section_cannot_hold() {
        let mut w = SectionWriter::new();
        Csria::new(3, 0.01).save(&mut w);
        let mut image = w.into_bytes();
        // An empty table ends in its entry count.
        let at = image.len() - 8;
        image[at..].copy_from_slice(&(1u64 << 40).to_le_bytes());
        match Csria::new(3, 0.01).load(&mut SectionReader::new(&image)) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("entry count"), "{why}"),
            other => panic!("expected Malformed(entry count), got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn rejects_bad_epsilon() {
        let _ = Csria::new(3, 0.0);
    }

    #[test]
    fn segments_advance_with_n() {
        let mut c = Csria::new(3, 0.1); // segment width 10
        assert_eq!(c.lossy.segment, 10);
        for i in 0..25 {
            c.record(ap(i % 8));
        }
        // b_current = ⌈25/10⌉ — the third segment is in progress.
        assert_eq!(c.lossy.segment_id(), 3);
    }

    #[test]
    fn infrequent_items_are_compressed_away() {
        let mut c = Csria::new(8, 0.1);
        // One heavy pattern; the rest cycle through 200 others, each seen
        // about once per boundary and dropped there.
        for i in 0..400u32 {
            c.record(AccessPattern::new(
                if i % 2 == 0 { 0 } else { 1 + i % 200 },
                8,
            ));
        }
        assert!(c.entries() < 20, "entries = {}", c.entries());
        assert!(estimate(&c, AccessPattern::new(0, 8)) >= 190);
    }

    #[test]
    fn frequent_applies_theta_minus_epsilon_rule() {
        let mut c = Csria::new(3, 0.01);
        for _ in 0..60 {
            c.record(ap(1));
        }
        for _ in 0..39 {
            c.record(ap(2));
        }
        c.record(ap(3));
        let hh = c.frequent(0.5);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].0, ap(1));
        assert!((hh[0].1 - 0.6).abs() < 1e-9);
        let hh = c.frequent(0.3);
        assert_eq!(hh.len(), 2);
    }

    #[test]
    fn delta_records_insertion_uncertainty() {
        let mut c = Csria::new(3, 0.1);
        for i in 0..30u32 {
            c.record(ap(i % 3)); // keep three patterns alive
        }
        // A brand-new pattern inserted now gets delta = s_id − 1.
        c.record(ap(7));
        let e = c.lossy.entries[&ap(7)];
        assert_eq!(e.count, 1);
        assert_eq!(e.delta, c.lossy.segment_id() - 1);
    }

    #[test]
    fn clear_resets() {
        let mut c = Csria::new(3, 0.1);
        c.record(ap(1));
        c.reset();
        assert_eq!(c.n(), 0);
        assert_eq!(c.entries(), 0);
        assert_eq!(c.peak_entries(), 0);
        assert!(c.frequent(0.0).is_empty());
    }

    #[test]
    fn deletes_table_ii_siblings_below_theta() {
        // §IV-C2: with θ=5% and ε=0.1%, CSRIA drops <A,*,*> (4%) and
        // <A,B,*> (4%) even though together they carry 8%.
        let mut c = Csria::new(3, 0.001);
        feed_table_ii(&mut c);
        let hh = c.frequent(0.05);
        let masks: Vec<u32> = hh.iter().map(|(p, _)| p.mask()).collect();
        assert!(!masks.contains(&0b001), "CSRIA must drop <A,*,*>: {hh:?}");
        assert!(!masks.contains(&0b011), "CSRIA must drop <A,B,*>: {hh:?}");
        // The five ≥5% patterns survive.
        for m in [0b010, 0b100, 0b101, 0b110, 0b111] {
            assert!(masks.contains(&m), "missing {m:#b} in {hh:?}");
        }
    }

    proptest! {
        /// Guarantee 1: every pattern with true frequency ≥ θ is reported.
        #[test]
        fn no_false_negatives(stream in proptest::collection::vec(0u32..20, 200..800)) {
            let theta = 0.1;
            let (lossy, exact) = both(&stream, 0.01);
            let reported: Vec<AccessPattern> =
                lossy.frequent(theta).into_iter().map(|(p, _)| p).collect();
            for (p, f) in exact.frequent(theta) {
                prop_assert!(reported.contains(&p), "pattern {p} with true freq {f} missing");
            }
        }

        /// Guarantee 2: nothing with true frequency < θ − ε is reported.
        #[test]
        fn no_gross_false_positives(stream in proptest::collection::vec(0u32..50, 300..900)) {
            let theta = 0.2;
            let eps = 0.05;
            let (lossy, exact) = both(&stream, eps);
            for (p, _) in lossy.frequent(theta) {
                let f = exact.counts.get(&p).copied().unwrap_or(0) as f64 / stream.len() as f64;
                // Reported patterns must clear θ − 2ε (θ−ε from the output
                // rule plus ε undercount slack on the estimate used in it).
                prop_assert!(f >= theta - 2.0 * eps,
                    "pattern {p} reported with true freq {f}");
            }
        }

        /// Guarantee 3: estimates undercount by at most ε·n.
        #[test]
        fn bounded_undercount(stream in proptest::collection::vec(0u32..10, 100..600)) {
            let eps = 0.02;
            let (lossy, exact) = both(&stream, eps);
            for (&p, &true_count) in &exact.counts {
                let est = estimate(&lossy, p);
                prop_assert!(est <= true_count, "overcount on {p}");
                let slack = (eps * stream.len() as f64).ceil() as u64;
                prop_assert!(est + slack >= true_count,
                    "undercount beyond εn on {p}: est={est} true={true_count}");
            }
        }

        /// Guarantee 4: live entries stay within the Manku–Motwani bound.
        /// At ε = 0.05 the bound plus its `1/ε` slack is at most
        /// 20·ln(150) + 20 ≈ 121 entries, below the 256 width-8 patterns
        /// the stream draws from, so the bound is what holds it.
        #[test]
        fn space_within_bound(stream in proptest::collection::vec(0u32..256, 1000..3000)) {
            let eps = 0.05;
            let (lossy, _) = both(&stream, eps);
            let bound = space_bound(eps, lossy.n());
            prop_assert!(lossy.entries() <= bound + (1.0 / eps) as usize,
                "entries {} exceed bound {bound}", lossy.entries());
        }
    }
}
