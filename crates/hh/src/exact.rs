//! SRIA and DIA (§IV-C1, §IV-D1): exact per-pattern counts.
//!
//! SRIA keeps one count per observed pattern, keyed by `BR(ap)`. The
//! counts are "self reliant": each is independent of every other, and the
//! table can grow to all `2^n` patterns. DIA keeps the same counts as the
//! nodes of the search-benefit lattice, and the paper says of the two:
//! "both approaches share the same code base, use the same SRIA table, and
//! do not reduce any nodes". So they are one table here, and their
//! `frequent` answers are identical. They differ only in their section:
//! SRIA leaves the request count implicit (the sum of its counts), while
//! DIA writes it.

use crate::{check_mass, load_table, save_table, sort_desc, table, Table};
use crate::{Assessor, AssessorKind};
use amri_stream::{expect_tag, AccessPattern, SectionReader, SectionWriter, SnapshotError};

/// The exact count table: [`Sria`] when `DEPENDENT` is false, [`Dia`] when
/// it is true.
#[derive(Debug, Clone)]
pub struct Exact<const DEPENDENT: bool> {
    pub(crate) counts: Table<u64>,
    n: u64,
    peak: usize,
    width: usize,
}

/// SRIA — Self Reliant Index Assessment (§IV-C1).
pub type Sria = Exact<false>;

/// DIA — Dependent Index Assessment (§IV-D1).
pub type Dia = Exact<true>;

impl<const DEPENDENT: bool> Exact<DEPENDENT> {
    const TAG: &'static str = if DEPENDENT { "DIA" } else { "SRIA" };

    /// New empty table for a JAS of `width` attributes.
    pub fn new(width: usize) -> Self {
        Exact {
            counts: table(width),
            n: 0,
            peak: 0,
            width,
        }
    }
}

impl<const DEPENDENT: bool> Assessor for Exact<DEPENDENT> {
    fn record(&mut self, ap: AccessPattern) {
        debug_assert_eq!(ap.n_attrs(), self.width);
        *self.counts.entry(ap).or_insert(0) += 1;
        self.n += 1;
        self.peak = self.peak.max(self.counts.len());
    }

    fn frequent(&self, theta: f64) -> Vec<(AccessPattern, f64)> {
        if self.n == 0 {
            return Vec::new();
        }
        let n = self.n as f64;
        let mut out: Vec<(AccessPattern, f64)> = self
            .counts
            .iter()
            .map(|(&p, &c)| (p, c as f64 / n))
            .filter(|&(_, f)| f >= theta)
            .collect();
        sort_desc(&mut out);
        out
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn entries(&self) -> usize {
        self.counts.len()
    }

    fn peak_entries(&self) -> usize {
        self.peak
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.n = 0;
        self.peak = 0;
    }

    fn kind(&self) -> AssessorKind {
        if DEPENDENT {
            AssessorKind::Dia
        } else {
            AssessorKind::Sria
        }
    }

    fn save(&self, w: &mut SectionWriter) {
        w.put_str(Self::TAG);
        if DEPENDENT {
            w.put_u64(self.n);
        }
        w.put_usize(self.peak);
        save_table(w, &self.counts, |w, &c| w.put_u64(c));
    }

    fn load(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        expect_tag(r, Self::TAG)?;
        let n = if DEPENDENT { Some(r.get_u64()?) } else { None };
        let peak = r.get_usize()?;
        let counts = load_table(r, Self::TAG, self.width, peak, 8, |r| r.get_u64())?;
        let sum = check_mass(Self::TAG, &counts, |&c| c, |sum| n.is_none_or(|n| sum == n))?;
        self.counts = counts;
        self.n = sum;
        self.peak = peak;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    /// Record `mask` `times` times.
    fn record_n(s: &mut Sria, mask: u32, times: u64) {
        for _ in 0..times {
            s.record(ap(mask));
        }
    }

    #[test]
    fn counts_and_frequencies() {
        let mut s = Sria::new(3);
        record_n(&mut s, 0b001, 6);
        record_n(&mut s, 0b010, 3);
        record_n(&mut s, 0b100, 1);
        assert_eq!(s.n(), 10);
        assert_eq!(s.entries(), 3);
        assert_eq!(s.peak_entries(), 3);
        assert_eq!(
            s.frequent(0.0),
            vec![(ap(0b001), 0.6), (ap(0b010), 0.3), (ap(0b100), 0.1)]
        );
    }

    #[test]
    fn frequent_filters_and_sorts() {
        let mut s = Sria::new(3);
        record_n(&mut s, 0b101, 50);
        record_n(&mut s, 0b010, 30);
        record_n(&mut s, 0b011, 20);
        let hh = s.frequent(0.25);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].0, ap(0b101));
        assert_eq!(hh[1].0, ap(0b010));
        assert_eq!(s.frequent(0.0).len(), 3);
        assert!(s.frequent(0.51).is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = Sria::new(3);
        s.record(ap(0b001));
        s.reset();
        assert_eq!(s.n(), 0);
        assert_eq!(s.entries(), 0);
        assert!(s.frequent(0.0).is_empty());
    }

    #[test]
    fn tracks_peak_entries() {
        let mut s = Sria::new(3);
        for m in 0..8u32 {
            s.record(ap(m));
        }
        assert_eq!(s.entries(), 8);
        assert_eq!(s.peak_entries(), 8);
        s.reset();
        assert_eq!(s.peak_entries(), 0);
        assert_eq!(s.width, 3);
    }

    #[test]
    fn empty_counter_is_sane() {
        for a in [&Sria::new(3) as &dyn Assessor, &Dia::new(3)] {
            assert_eq!(a.n(), 0);
            assert!(a.frequent(0.0).is_empty());
        }
    }

    #[test]
    fn ties_break_deterministically() {
        let mut s = Sria::new(3);
        record_n(&mut s, 0b111, 10);
        record_n(&mut s, 0b011, 10);
        let hh = s.frequent(0.1);
        assert_eq!(hh[0].0, ap(0b011), "equal counts order by mask");
    }
}
