//! Byte pins for the five lineup assessors' snapshot sections.
//!
//! A section is what a checkpoint writes and a restore reads back, so its
//! bytes are part of the snapshot format (`SNAPSHOT_VERSION`). Each
//! assessor's section is digested twice: after the Table II stream at
//! width 3, and after a seeded, skewed width-8 stream at ε = 0.01 that
//! crosses 30 segment boundaries, so CSRIA deletes, CDIA folds and
//! CDIA-random draws parents. A digest that moves means a saved image no
//! longer reads back as it did, or a fold or draw changed.

use amri_core::assess::{feed_table_ii, Assessor, AssessorKind};
use amri_stream::{AccessPattern, SectionWriter};

/// FNV-1a over the section bytes.
fn digest(a: &dyn Assessor) -> u64 {
    let mut w = SectionWriter::new();
    a.save(&mut w);
    w.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 3 000 width-8 requests: 40 % the full pattern, 20 % `0x0F`, 10 %
/// `0xF0`, the rest uniform over all 256 masks.
fn skewed_width8(kind: AssessorKind) -> Box<dyn Assessor> {
    let mut a = kind.build(8, 0.01, 7);
    let mut x = 42u64;
    for _ in 0..3000 {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let mask = match z % 100 {
            0..=39 => 0xFF,
            40..=59 => 0x0F,
            60..=69 => 0xF0,
            _ => ((z >> 8) & 0xFF) as u32,
        };
        a.record(AccessPattern::new(mask, 8));
    }
    a
}

#[test]
fn lineup_sections_are_byte_pinned() {
    let pinned: [(&str, u64, u64); 5] = [
        ("SRIA", 0x9492507d7a61593e, 0xf9f92852231529d9),
        ("CSRIA", 0x3b0f9cb6c1829c97, 0x79e40e92386af20b),
        ("DIA", 0xbd1d345504c18725, 0x2f7d8cd2a2233052),
        ("CDIA-random", 0xd2fd28c0aa2b453a, 0x406b0d6a5713c4d1),
        ("CDIA-highest", 0xd2fd28c0aa2b453a, 0x5656cea0298deedc),
    ];
    let mut got = Vec::new();
    for kind in AssessorKind::figure6_lineup() {
        let mut t2 = kind.build(3, 0.001, 7);
        feed_table_ii(t2.as_mut());
        let w8 = skewed_width8(kind);
        assert_eq!(w8.n(), 3000, "{}", kind.label());
        got.push((kind.label(), digest(t2.as_ref()), digest(w8.as_ref())));
    }
    assert_eq!(got, pinned, "section bytes moved");
}

#[test]
fn the_width8_stream_compresses() {
    let sria = skewed_width8(AssessorKind::Sria);
    for kind in AssessorKind::figure6_lineup() {
        let a = skewed_width8(kind);
        match kind {
            AssessorKind::Sria | AssessorKind::Dia => assert_eq!(a.entries(), sria.entries()),
            _ => assert!(
                a.entries() < sria.entries() / 2,
                "{}: {} entries vs SRIA's {}",
                kind.label(),
                a.entries(),
                sria.entries()
            ),
        }
    }
}

/// The width-8 stream's `frequent(0.05)` reports, digested: CDIA's
/// final-results pass rolls up a clone of its lattice and draws from a
/// clone of its RNG, which the section alone does not show.
#[test]
fn lineup_reports_are_pinned() {
    let pinned: [(&str, u64); 5] = [
        ("SRIA", 0xa03ced92f2914eeb),
        ("CSRIA", 0xa03ced92f2914eeb),
        ("DIA", 0xa03ced92f2914eeb),
        ("CDIA-random", 0x84ce31f9fe85a6d5),
        ("CDIA-highest", 0xb37c848165f98363),
    ];
    let mut got = Vec::new();
    for kind in AssessorKind::figure6_lineup() {
        let report = skewed_width8(kind).frequent(0.05);
        let h = report.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (p, f)| {
            let h = (h ^ u64::from(p.mask())).wrapping_mul(0x0000_0100_0000_01b3);
            (h ^ f.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        got.push((kind.label(), h));
    }
    assert_eq!(got, pinned, "reports moved");
}
