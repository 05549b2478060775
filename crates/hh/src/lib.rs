//! # amri-hh — index assessment for AMRI
//!
//! §IV of the paper decides which access patterns a state's index should
//! serve by summarising the stream of patterns its search requests carry.
//! Each of the four methods is one summary behind [`Assessor`], so the
//! tuner and the experiments are generic over them. `amri-core` re-exports
//! this crate as `amri_core::assess`.
//!
//! | Method | Summary | At each `⌈1/ε⌉`-request segment boundary |
//! |---|---|---|
//! | [`Sria`]  | exact count per pattern, keyed by `BR(ap)` | nothing |
//! | [`Csria`] | lossy counting (Manku & Motwani, VLDB 2002) | delete each infrequent pattern |
//! | [`Dia`]   | the same exact counts | nothing |
//! | [`Cdia`]  | hierarchical heavy hitters (Cormode et al., VLDB 2003) | fold each infrequent pattern into a parent |
//!
//! The paper notes DIA and SRIA "share the same code base, use the same
//! SRIA table, and do not reduce any nodes": here they are one table, and
//! their `frequent` answers are identical. CSRIA and CDIA share lossy
//! counting's insertion phase and differ only in compression and in the
//! final-results pass. The accuracy and space guarantees are
//! property-tested in the `lossy` and `hhh` modules' tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod exact;
mod hhh;
mod lossy;

pub use exact::{Dia, Exact, Sria};
pub use hhh::Cdia;
pub use lossy::Csria;

use amri_stream::{
    AccessPattern, FxHashMap, SectionReader, SectionWriter, SnapshotError, MAX_ATTRS,
};

/// A statistics collector over the stream of access patterns hitting one
/// state.
pub trait Assessor: Send {
    /// Record one search request's access pattern.
    fn record(&mut self, ap: AccessPattern);

    /// The access patterns whose (possibly rolled-up) frequency clears
    /// `theta`, with frequency estimates, sorted descending.
    fn frequent(&self, theta: f64) -> Vec<(AccessPattern, f64)>;

    /// Requests recorded since the last reset.
    fn n(&self) -> u64;

    /// Statistics entries currently materialized (memory proxy).
    fn entries(&self) -> usize;

    /// High-water mark of materialized entries.
    fn peak_entries(&self) -> usize;

    /// Drop all statistics (called after each tuning decision so the next
    /// assessment window sees fresh data).
    fn reset(&mut self);

    /// Which method this is.
    fn kind(&self) -> AssessorKind;

    /// Serialize the collected statistics into a snapshot section. The
    /// constructor-time configuration (width, ε, strategy, seed) is not
    /// captured — restore rebuilds the collector from configuration and
    /// then [`load`](Assessor::load)s the statistics into it. Entries are
    /// written in ascending `BR(ap)` order so the section bytes are
    /// deterministic.
    fn save(&self, w: &mut SectionWriter);

    /// Overwrite this collector's statistics from a section written by
    /// [`save`](Assessor::save) on a collector of the same kind. On an
    /// error the collector is left as it was.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`] when the section was written by a
    /// different method, or its entries lie: a mask outside the JAS width,
    /// masks not strictly ascending, more entries than the peak, or counts
    /// that do not add up to the request count; decode errors pass through.
    fn load(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError>;
}

/// How an infrequent pattern's count is folded into the level above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineStrategy {
    /// Fold into a uniformly random direct parent (stored or new).
    Random,
    /// Fold into the stored direct parent with the highest count so far;
    /// if no parent is stored, into the deterministic first parent.
    /// Intuition (§IV-D2): the biggest parent is likeliest to cross θ.
    HighestCount,
}

/// The four assessment methods (plus the CDIA strategy choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssessorKind {
    /// Self-reliant, exact (§IV-C1).
    Sria,
    /// Self-reliant, compact via lossy counting (§IV-C2).
    Csria,
    /// Dependent (lattice), exact (§IV-D1).
    Dia,
    /// Dependent, compact via hierarchical heavy hitters (§IV-D2).
    Cdia(CombineStrategy),
}

impl AssessorKind {
    /// Instantiate the method for a JAS of `width` attributes.
    ///
    /// `epsilon` is the error rate of the compact methods (ignored by
    /// SRIA/DIA); `seed` feeds CDIA's random-combination strategy.
    pub fn build(self, width: usize, epsilon: f64, seed: u64) -> Box<dyn Assessor> {
        match self {
            AssessorKind::Sria => Box::new(Sria::new(width)),
            AssessorKind::Csria => Box::new(Csria::new(width, epsilon)),
            AssessorKind::Dia => Box::new(Dia::new(width)),
            AssessorKind::Cdia(strategy) => Box::new(Cdia::new(width, epsilon, strategy, seed)),
        }
    }

    /// Short label for reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            AssessorKind::Sria => "SRIA",
            AssessorKind::Csria => "CSRIA",
            AssessorKind::Dia => "DIA",
            AssessorKind::Cdia(CombineStrategy::Random) => "CDIA-random",
            AssessorKind::Cdia(CombineStrategy::HighestCount) => "CDIA-highest",
        }
    }

    /// All five configurations evaluated in the paper's Figure 6.
    pub fn figure6_lineup() -> [AssessorKind; 5] {
        [
            AssessorKind::Sria,
            AssessorKind::Csria,
            AssessorKind::Dia,
            AssessorKind::Cdia(CombineStrategy::Random),
            AssessorKind::Cdia(CombineStrategy::HighestCount),
        ]
    }
}

/// Feed the Table II distribution to an assessor: the §IV-C2 / §IV-D2
/// worked example — <A,*,*>=4%, <*,B,*>=10%, <*,*,C>=10%, <A,B,*>=4%,
/// <A,*,C>=16%, <*,B,C>=10%, <A,B,C>=46% — as 10 000 requests interleaved
/// so compression sees a steady mixture. Used by the per-method tests here
/// and by the Table II reproduction experiment.
pub fn feed_table_ii(a: &mut dyn Assessor) {
    let weights: [(u32, u32); 7] = [
        (0b001, 40),
        (0b010, 100),
        (0b100, 100),
        (0b011, 40),
        (0b101, 160),
        (0b110, 100),
        (0b111, 460),
    ];
    // Deterministic interleaving: fill a 1000-slot schedule by always
    // picking the pattern whose accumulated share lags its target most.
    let mut schedule = Vec::with_capacity(1000);
    let mut acc = [0u32; 7];
    for slot in 0..1000i64 {
        let (best, _) = weights
            .iter()
            .enumerate()
            .map(|(i, &(_, w))| (i, acc[i] as i64 * 1000 - w as i64 * slot))
            .min_by_key(|&(i, lag)| (lag, i))
            .unwrap();
        acc[best] += 1;
        schedule.push(weights[best].0);
    }
    for _ in 0..10 {
        for &m in &schedule {
            a.record(AccessPattern::new(m, 3));
        }
    }
}

/// Sort (pattern, frequency) pairs descending by frequency, ties by mask —
/// the deterministic report order of every assessor.
fn sort_desc(out: &mut [(AccessPattern, f64)]) {
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap()
            .then_with(|| a.0.mask().cmp(&b.0.mask()))
    });
}

/// One stored value per observed pattern: every assessor's table.
type Table<V> = FxHashMap<AccessPattern, V>;

/// An empty table over a JAS of `width` attributes, with room for twice
/// the `2^width` patterns there are: CDIA folds and re-inserts patterns
/// inside a probe step, and a table that is never more than half full
/// reclaims its tombstones in place instead of reallocating.
fn table<V>(width: usize) -> Table<V> {
    FxHashMap::with_capacity_and_hasher(2 << width.min(MAX_ATTRS), Default::default())
}

/// Write `table`'s length, then each entry in ascending `BR(ap)` order: its
/// mask, then `put`'s encoding of its value.
fn save_table<V>(w: &mut SectionWriter, table: &Table<V>, put: impl Fn(&mut SectionWriter, &V)) {
    let mut entries: Vec<(u32, &V)> = table.iter().map(|(p, v)| (p.mask(), v)).collect();
    entries.sort_unstable_by_key(|&(mask, _)| mask);
    w.put_usize(entries.len());
    for (mask, v) in entries {
        w.put_u32(mask);
        put(w, v);
    }
}

/// Read what [`save_table`] wrote for a `tag` assessor over `width`
/// attributes whose high-water mark is `peak`; each value is
/// `value_bytes` long and read by `get`.
///
/// # Errors
/// [`SnapshotError::Malformed`] for more entries than the bytes left can
/// hold or than `peak`, a mask outside the width, or masks not strictly
/// ascending; decode errors pass through.
fn load_table<V>(
    r: &mut SectionReader<'_>,
    tag: &str,
    width: usize,
    peak: usize,
    value_bytes: usize,
    get: impl Fn(&mut SectionReader<'_>) -> Result<V, SnapshotError>,
) -> Result<Table<V>, SnapshotError> {
    let len = r.get_count(4 + value_bytes, &format!("{tag} entry count"))?;
    if len > peak {
        return Err(SnapshotError::Malformed(format!(
            "{tag} holds {len} entries, above its peak of {peak}"
        )));
    }
    let mut out = table(width);
    let mut last = None;
    for _ in 0..len {
        let mask = r.get_u32()?;
        if u64::from(mask) >= 1 << width || last >= Some(mask) {
            return Err(SnapshotError::Malformed(format!(
                "{tag} mask {mask:#b} is outside width {width} or out of order"
            )));
        }
        last = Some(mask);
        out.insert(AccessPattern::new(mask, width), get(r)?);
    }
    Ok(out)
}

/// The sum of `table`'s counts, if it does not overflow and passes `ok`.
///
/// # Errors
/// [`SnapshotError::Malformed`] naming `tag` otherwise.
fn check_mass<V>(
    tag: &str,
    table: &Table<V>,
    count: impl Fn(&V) -> u64,
    ok: impl Fn(u64) -> bool,
) -> Result<u64, SnapshotError> {
    table
        .values()
        .try_fold(0u64, |sum, v| sum.checked_add(count(v)))
        .filter(|&sum| ok(sum))
        .ok_or_else(|| {
            SnapshotError::Malformed(format!("{tag} counts do not add up to its request count"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built width-3 section for `kind`: request count `n`, high-water
    /// mark `peak`, a claimed entry count `len`, then `(mask, count, Δ)`
    /// entries (Δ only where the method keeps one; nothing dropped).
    fn section(
        kind: AssessorKind,
        n: u64,
        peak: usize,
        len: u64,
        entries: &[(u32, u64, u64)],
    ) -> Vec<u8> {
        let lossy = matches!(kind, AssessorKind::Csria | AssessorKind::Cdia(_));
        let mut w = SectionWriter::new();
        match kind {
            AssessorKind::Sria => w.put_str("SRIA"),
            AssessorKind::Dia => w.put_str("DIA"),
            AssessorKind::Csria => w.put_str("CSRIA"),
            AssessorKind::Cdia(_) => w.put_str("CDIA"),
        }
        if kind != AssessorKind::Sria {
            w.put_u64(n);
        }
        if let AssessorKind::Cdia(_) = kind {
            for word in [1, 2, 3, 4] {
                w.put_u64(word);
            }
        }
        w.put_usize(peak);
        if let AssessorKind::Cdia(_) = kind {
            w.put_u64(0);
        }
        w.put_u64(len);
        for &(mask, count, delta) in entries {
            w.put_u32(mask);
            w.put_u64(count);
            if lossy {
                w.put_u64(delta);
            }
        }
        w.into_bytes()
    }

    /// A collector of `kind` that has seen a few requests, and its section.
    fn seen(kind: AssessorKind) -> (Box<dyn Assessor>, Vec<u8>) {
        let mut a = kind.build(3, 0.1, 7);
        for m in [1, 3, 3, 7] {
            a.record(AccessPattern::new(m, 3));
        }
        let mut w = SectionWriter::new();
        a.save(&mut w);
        (a, w.into_bytes())
    }

    /// A lie: its name, the image's `n`, `peak` and `(mask, count, Δ)`
    /// entries, and the methods to which the image tells the truth.
    type Lie = (
        &'static str,
        u64,
        usize,
        &'static [(u32, u64, u64)],
        &'static [&'static str],
    );

    /// Each image lies to every method but those it names; a lie is
    /// refused as `Malformed` and leaves the collector as it was, while
    /// the same image is believed where it tells the truth.
    #[test]
    fn load_refuses_a_lying_image() {
        #[rustfmt::skip]
        let lies: [Lie; 9] = [
            ("none", 10, 2, &[(0b001, 4, 0), (0b011, 6, 0)], &["SRIA", "CSRIA", "DIA", "CDIA-random", "CDIA-highest"]),
            ("a mask outside the width", 10, 2, &[(0b001, 4, 0), (0b1000, 6, 0)], &[]),
            ("masks out of order", 10, 2, &[(0b011, 6, 0), (0b001, 4, 0)], &[]),
            ("a duplicated mask", 10, 2, &[(0b011, 4, 0), (0b011, 6, 0)], &[]),
            ("counts that overflow", 10, 2, &[(0b001, u64::MAX, 0), (0b011, 1, 0)], &[]),
            ("n below the counts", 5, 2, &[(0b001, 4, 0), (0b011, 6, 0)], &["SRIA"]),
            ("n above the counts", 20, 2, &[(0b001, 4, 0), (0b011, 6, 0)], &["SRIA", "CSRIA"]),
            ("a peak below the entries", 10, 1, &[(0b001, 4, 0), (0b011, 6, 0)], &[]),
            ("a Δ past its segment", 10, 2, &[(0b001, 4, 0), (0b011, 6, u64::MAX)], &["SRIA", "DIA"]),
        ];
        for kind in AssessorKind::figure6_lineup() {
            for &(lie, n, peak, entries, honest_to) in &lies {
                let image = section(kind, n, peak, entries.len() as u64, entries);
                let (mut a, before) = seen(kind);
                let got = a.load(&mut SectionReader::new(&image));
                let label = kind.label();
                if honest_to.contains(&label) {
                    assert!(got.is_ok(), "{label}, {lie}: {got:?}");
                    continue;
                }
                assert!(
                    matches!(got, Err(SnapshotError::Malformed(_))),
                    "{label}, {lie}: {got:?}"
                );
                let mut after = SectionWriter::new();
                a.save(&mut after);
                assert_eq!(
                    after.into_bytes(),
                    before,
                    "{label}, {lie}: collector changed"
                );
            }
        }
    }

    /// An image claiming more entries than its bytes hold is `Malformed`,
    /// not an allocation abort.
    #[test]
    fn load_refuses_an_entry_count_the_section_cannot_hold() {
        for kind in AssessorKind::figure6_lineup() {
            let image = section(kind, 0, 0, 1 << 40, &[]);
            match kind.build(3, 0.01, 1).load(&mut SectionReader::new(&image)) {
                Err(SnapshotError::Malformed(why)) => assert!(why.contains("entry count"), "{why}"),
                other => panic!(
                    "{}: expected Malformed(entry count), got {other:?}",
                    kind.label()
                ),
            }
        }
    }
}
