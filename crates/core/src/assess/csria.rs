//! CSRIA — Compact SRIA (§IV-C2): SRIA with lossy-counting compression.
//!
//! A thin specialization of [`amri_hh::LossyCounter`] to access patterns.
//! Statistics whose frequency falls under the error rate ε are *deleted* at
//! segment boundaries — cheap, but blind to the search-benefit relation:
//! the Table II example (two 4% children of a common 8% ancestor) is
//! exactly what it gets wrong, and what CDIA fixes.

use super::{check_tag, Assessor, AssessorKind};
use crate::assess::cdia::sort_desc;
use amri_hh::{FrequencyEstimator, LossyCounter, LossyEntry};
use amri_stream::{AccessPattern, SectionReader, SectionWriter, SnapshotError};

/// The compact SRIA table.
#[derive(Debug, Clone)]
pub struct Csria {
    counter: LossyCounter<AccessPattern>,
    width: usize,
}

impl Csria {
    /// New CSRIA table for a JAS of `width` attributes with error rate
    /// `epsilon`.
    pub fn new(width: usize, epsilon: f64) -> Self {
        Csria {
            counter: LossyCounter::new(epsilon),
            width,
        }
    }

    /// The error rate ε.
    pub fn epsilon(&self) -> f64 {
        self.counter.epsilon()
    }
}

impl Assessor for Csria {
    fn record(&mut self, ap: AccessPattern) {
        debug_assert_eq!(ap.n_attrs(), self.width);
        self.counter.observe(ap);
    }

    fn frequent(&self, theta: f64) -> Vec<(AccessPattern, f64)> {
        let mut out = self.counter.frequent(theta);
        sort_desc(&mut out);
        out
    }

    fn n(&self) -> u64 {
        self.counter.n()
    }

    fn entries(&self) -> usize {
        self.counter.entries()
    }

    fn peak_entries(&self) -> usize {
        self.counter.peak_entries()
    }

    fn reset(&mut self) {
        self.counter.clear();
    }

    fn kind(&self) -> AssessorKind {
        AssessorKind::Csria
    }

    fn save(&self, w: &mut SectionWriter) {
        w.put_str("CSRIA");
        w.put_u64(self.counter.n());
        w.put_usize(self.counter.peak_entries());
        let mut entries: Vec<(u32, LossyEntry)> =
            self.counter.iter().map(|(p, &e)| (p.mask(), e)).collect();
        entries.sort_unstable_by_key(|(mask, _)| *mask);
        w.put_usize(entries.len());
        for (mask, e) in entries {
            w.put_u32(mask);
            w.put_u64(e.count);
            w.put_u64(e.delta);
        }
    }

    fn load(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        check_tag(r, "CSRIA")?;
        let n = r.get_u64()?;
        let peak = r.get_usize()?;
        let n_entries = r.get_count(4 + 8 + 8, "CSRIA entry count")?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let mask = r.get_u32()?;
            let count = r.get_u64()?;
            let delta = r.get_u64()?;
            entries.push((
                AccessPattern::new(mask, self.width),
                LossyEntry { count, delta },
            ));
        }
        self.counter = LossyCounter::from_parts(self.counter.epsilon(), n, peak, entries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::assess::feed_table_ii;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
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
    fn epsilon_is_exposed() {
        let c = Csria::new(3, 0.02);
        assert!((c.epsilon() - 0.02).abs() < 1e-12);
        assert_eq!(c.kind(), AssessorKind::Csria);
    }

    #[test]
    fn heavy_pattern_estimate_tracks_truth() {
        let mut c = Csria::new(3, 0.01);
        for i in 0..1000u32 {
            c.record(ap(if i % 2 == 0 { 0b111 } else { i % 8 }));
        }
        let hh = c.frequent(0.4);
        assert_eq!(hh[0].0.mask(), 0b111);
        assert!(hh[0].1 >= 0.45, "estimate {} too low", hh[0].1);
    }
}
