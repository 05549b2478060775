//! Index assessment (§IV): the four methods — SRIA, CSRIA, DIA, CDIA —
//! behind one trait. They live in `amri-hh`; this module re-exports them
//! so the tuner and the callers name them as `amri_core::assess::…`.

pub use amri_hh::{feed_table_ii, Assessor, AssessorKind, Cdia, CombineStrategy, Csria, Dia, Sria};

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::{AccessPattern, SectionReader, SectionWriter, SnapshotError};

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    /// Drive every method over the same stream.
    fn drive(kind: AssessorKind, stream: &[u32]) -> Box<dyn Assessor> {
        let mut a = kind.build(3, 0.001, 7);
        for &m in stream {
            a.record(ap(m));
        }
        a
    }

    #[test]
    fn labels_and_lineup() {
        assert_eq!(AssessorKind::Sria.label(), "SRIA");
        assert_eq!(
            AssessorKind::Cdia(CombineStrategy::HighestCount).label(),
            "CDIA-highest"
        );
        assert_eq!(AssessorKind::figure6_lineup().len(), 5);
    }

    #[test]
    fn dia_equals_sria_without_compression() {
        // §V: "DIA's and SRIA's results are equal".
        let stream: Vec<u32> = (0..500).map(|i| [1u32, 3, 7, 7, 5][i % 5]).collect();
        let sria = drive(AssessorKind::Sria, &stream);
        let dia = drive(AssessorKind::Dia, &stream);
        for theta in [0.05, 0.1, 0.2, 0.5] {
            assert_eq!(sria.frequent(theta), dia.frequent(theta), "theta {theta}");
        }
        assert_eq!(sria.n(), dia.n());
    }

    #[test]
    fn all_methods_find_a_dominant_pattern() {
        let stream: Vec<u32> = (0..1000)
            .map(|i| if i % 10 < 8 { 0b111 } else { 0b001 })
            .collect();
        for kind in AssessorKind::figure6_lineup() {
            let a = drive(kind, &stream);
            let hh = a.frequent(0.5);
            assert!(
                hh.iter().any(|(p, _)| p.mask() == 0b111),
                "{} missed the 80% pattern",
                kind.label()
            );
            assert_eq!(a.n(), 1000);
        }
    }

    #[test]
    fn compact_methods_use_fewer_entries_on_heavy_tails() {
        // Many rare patterns: exact methods keep them all, compact ones
        // compress. Width 8 → up to 256 patterns.
        let mut stream = Vec::new();
        for i in 0u32..4000 {
            stream.push(if i % 4 == 0 { 0b1111_1111 } else { i % 256 });
        }
        let mut sria = AssessorKind::Sria.build(8, 0.01, 7);
        let mut csria = AssessorKind::Csria.build(8, 0.01, 7);
        let mut cdia = AssessorKind::Cdia(CombineStrategy::HighestCount).build(8, 0.01, 7);
        for &m in &stream {
            let p = AccessPattern::new(m, 8);
            sria.record(p);
            csria.record(p);
            cdia.record(p);
        }
        assert!(
            csria.entries() < sria.entries() / 2,
            "CSRIA {} vs SRIA {}",
            csria.entries(),
            sria.entries()
        );
        assert!(
            cdia.entries() < sria.entries(),
            "CDIA {} vs SRIA {}",
            cdia.entries(),
            sria.entries()
        );
    }

    #[test]
    fn save_load_roundtrips_every_method() {
        let stream: Vec<u32> = (0..2000)
            .map(|i| [1u32, 3, 7, 7, 5, 2, 6, 7][(i * 7 % 13) as usize % 8])
            .collect();
        for kind in AssessorKind::figure6_lineup() {
            let a = drive(kind, &stream);
            let mut w = SectionWriter::new();
            a.save(&mut w);
            let bytes = w.into_bytes();
            // Restore into a fresh collector built from the same config.
            let mut b = kind.build(3, 0.001, 7);
            let mut r = SectionReader::new(&bytes);
            b.load(&mut r).expect("load");
            assert_eq!(r.remaining(), 0, "{}: trailing bytes", kind.label());
            assert_eq!(a.n(), b.n(), "{}", kind.label());
            assert_eq!(a.entries(), b.entries(), "{}", kind.label());
            assert_eq!(a.peak_entries(), b.peak_entries(), "{}", kind.label());
            for theta in [0.0, 0.05, 0.2, 0.5] {
                assert_eq!(a.frequent(theta), b.frequent(theta), "{}", kind.label());
            }
            // Saving again must produce identical bytes (determinism).
            let mut w2 = SectionWriter::new();
            b.save(&mut w2);
            assert_eq!(bytes, w2.into_bytes(), "{}", kind.label());
        }
    }

    #[test]
    fn load_rejects_wrong_method_tag() {
        let sria = drive(AssessorKind::Sria, &[1, 2, 3]);
        let mut w = SectionWriter::new();
        sria.save(&mut w);
        let bytes = w.into_bytes();
        let mut dia = AssessorKind::Dia.build(3, 0.001, 7);
        let err = dia.load(&mut SectionReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn reset_clears_every_method() {
        for kind in AssessorKind::figure6_lineup() {
            let mut a = drive(kind, &[1, 2, 3, 1, 1]);
            a.reset();
            assert_eq!(a.n(), 0, "{}", kind.label());
            assert_eq!(a.entries(), 0, "{}", kind.label());
            assert!(a.frequent(0.0).is_empty(), "{}", kind.label());
        }
    }
}
