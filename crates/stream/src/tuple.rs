//! Stream tuples and partial (intermediate) join tuples.
//!
//! The router moves two kinds of objects: base tuples freshly arrived from a
//! stream, and *partial tuples* — concatenations of base tuples from several
//! streams produced by intermediate joins. Which streams a partial tuple
//! already covers determines the access pattern of its next probe (§I of the
//! paper: a tuple routed `A⋈B` first probes `C` with *both* join attributes;
//! one routed directly probes with one) — this coupling between routing and
//! access patterns is the entire motivation for AMRI.
//!
//! A partial tuple has two representations and this module owns both: the
//! fixed-size [`PartialTuple`] value, and the **packed words** a backlog
//! stores it as — header, `min_ts`, covered values only. `pack_parts` is
//! the one writer of that layout and `read_parts` the one reader;
//! [`PackedPartial`] is a borrowed view over the words that answers what
//! the struct answers ([`Parts`] is what the two have in common), so a
//! queued job is probed, filtered and extended into its follow-up without
//! ever being decoded.

use crate::schema::StreamId;
use crate::time::VirtualTime;
use crate::value::{AttrValue, AttrVec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of streams a single query may join.
///
/// The paper's evaluation uses 4-way joins; 6 gives headroom for extension
/// experiments while keeping [`PartialTuple`] a fixed-size value type.
pub const MAX_STREAMS: usize = 6;

/// Unique identifier of a base tuple within one run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TupleId(pub u64);

/// A base tuple arriving on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// Run-unique id.
    pub id: TupleId,
    /// Originating stream.
    pub stream: StreamId,
    /// Arrival instant (drives sliding-window expiration).
    pub ts: VirtualTime,
    /// Attribute values, aligned with the stream's schema.
    pub attrs: AttrVec,
}

impl Tuple {
    /// Construct a tuple.
    pub fn new(id: TupleId, stream: StreamId, ts: VirtualTime, attrs: AttrVec) -> Self {
        Tuple {
            id,
            stream,
            ts,
            attrs,
        }
    }
}

/// Bitmask of streams covered by a partial tuple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct StreamMask(pub u16);

impl StreamMask {
    /// The empty mask.
    pub const EMPTY: StreamMask = StreamMask(0);

    /// Mask covering only `s`.
    #[inline]
    pub fn only(s: StreamId) -> Self {
        StreamMask(1 << s.0)
    }

    /// Mask covering all of the first `n` streams.
    ///
    /// # Panics
    /// Panics if `n > MAX_STREAMS`.
    #[inline]
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_STREAMS);
        StreamMask(((1u32 << n) - 1) as u16)
    }

    /// True iff `s` is covered.
    #[inline]
    pub fn covers(self, s: StreamId) -> bool {
        self.0 & (1 << s.0) != 0
    }

    /// Union with another mask.
    #[inline]
    pub fn union(self, other: StreamMask) -> StreamMask {
        StreamMask(self.0 | other.0)
    }

    /// Add one stream.
    #[inline]
    pub fn with(self, s: StreamId) -> StreamMask {
        StreamMask(self.0 | (1 << s.0))
    }

    /// Number of covered streams.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True iff nothing is covered.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterator over covered stream ids, ascending.
    pub fn streams(self) -> impl Iterator<Item = StreamId> {
        let mut m = self.0;
        std::iter::from_fn(move || {
            if m == 0 {
                None
            } else {
                let b = m.trailing_zeros() as u16;
                m &= m - 1;
                Some(StreamId(b))
            }
        })
    }
}

impl fmt::Debug for StreamMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for s in self.streams() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// A (possibly partial) join result flowing through the router.
///
/// Holds, per covered stream, the base tuple's attribute values; a partial
/// tuple covering all query streams is a final join result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialTuple {
    /// Which streams' tuples this partial result already contains.
    pub covered: StreamMask,
    /// Earliest arrival instant among the constituent base tuples — used for
    /// window checks when probing further states.
    pub min_ts: VirtualTime,
    /// Per-stream attribute values; slot `i` is valid iff `covered` has
    /// stream `i`.
    parts: [AttrVec; MAX_STREAMS],
}

impl PartialTuple {
    /// Wrap a single base tuple.
    ///
    /// # Panics
    /// Panics if the tuple's stream id is ≥ [`MAX_STREAMS`].
    pub fn from_base(t: &Tuple) -> Self {
        assert!((t.stream.idx()) < MAX_STREAMS, "stream id out of range");
        let mut parts = [AttrVec::new(); MAX_STREAMS];
        parts[t.stream.idx()] = t.attrs;
        PartialTuple {
            covered: StreamMask::only(t.stream),
            min_ts: t.ts,
            parts,
        }
    }

    /// Attribute values of the covered stream `s`, or `None` if `s` is not
    /// covered.
    #[inline]
    pub fn part(&self, s: StreamId) -> Option<&AttrVec> {
        if self.covered.covers(s) {
            Some(&self.parts[s.idx()])
        } else {
            None
        }
    }

    /// Join this partial tuple with a base tuple's attributes from stream
    /// `s` (predicate satisfaction is the caller's responsibility).
    ///
    /// # Panics
    /// Panics if `s` is already covered.
    pub fn extend(&self, s: StreamId, attrs: AttrVec, ts: VirtualTime) -> PartialTuple {
        assert!(!self.covered.covers(s), "stream {s} already joined");
        let mut out = *self;
        out.covered = out.covered.with(s);
        out.parts[s.idx()] = attrs;
        if ts < out.min_ts {
            out.min_ts = ts;
        }
        out
    }

    /// True iff this partial tuple covers every stream of an `n`-way query
    /// (i.e. it is a final join result).
    #[inline]
    pub fn is_complete(&self, n_streams: usize) -> bool {
        self.covered == StreamMask::all(n_streams)
    }

    /// Rebuild a partial tuple from its covered parts (checkpoint
    /// restore). `parts` supplies the attribute values for `covered`'s
    /// streams in ascending stream order; uncovered slots are zeroed
    /// exactly as [`from_base`](Self::from_base)/[`extend`](Self::extend)
    /// leave them, so the restored value is `==` the captured one.
    ///
    /// # Panics
    /// Panics if `parts` does not supply exactly one entry per covered
    /// stream.
    pub fn from_parts(
        covered: StreamMask,
        min_ts: VirtualTime,
        parts: impl IntoIterator<Item = AttrVec>,
    ) -> Self {
        let mut slots = [AttrVec::new(); MAX_STREAMS];
        let mut streams = covered.streams();
        let mut n = 0u32;
        for attrs in parts {
            let s = streams.next().expect("more parts than covered streams");
            slots[s.idx()] = attrs;
            n += 1;
        }
        assert_eq!(n, covered.count(), "fewer parts than covered streams");
        PartialTuple {
            covered,
            min_ts,
            parts: slots,
        }
    }

    /// Append this partial tuple as packed words: one header word (the
    /// covered mask in bits 0..16, then a 4-bit value count per covered
    /// stream, ascending), `min_ts`, and only the covered streams' values
    /// — `2 + Σ arity` words where the fixed-size struct is 56.
    /// [`PackedPartial`] reads them back in place.
    pub fn pack(&self, out: &mut Vec<u64>) {
        pack_parts(self.covered, self.min_ts, |s| &self.parts[s.idx()], out);
    }

    /// Rebuild the partial tuple [`pack`](Self::pack) wrote as exactly
    /// `words`; `==` the packed one (uncovered slots zeroed, as
    /// [`from_parts`](Self::from_parts) leaves them).
    ///
    /// # Panics
    /// Panics if `words` is not one packed partial tuple.
    pub fn unpack(words: &[u64]) -> Self {
        let mut parts = [AttrVec::new(); MAX_STREAMS];
        let (covered, min_ts) = read_parts(words, |s, at, n| {
            parts[s.idx()] = AttrVec::from_slice(&words[at..at + n])
                .expect("a packed part length is an AttrVec length");
        });
        PartialTuple {
            covered,
            min_ts,
            parts,
        }
    }
}

/// What a probe reads of a partial tuple — which streams it covers and
/// each covered stream's values — whether the tuple is a decoded
/// [`PartialTuple`] or still lies packed in a queue ([`PackedPartial`]).
pub trait Parts {
    /// Which streams' tuples the partial result contains.
    fn covered(&self) -> StreamMask;

    /// Attribute values of the covered stream `s`, or `None` if `s` is not
    /// covered.
    fn part(&self, s: StreamId) -> Option<&[AttrValue]>;
}

impl Parts for PartialTuple {
    fn covered(&self) -> StreamMask {
        self.covered
    }

    fn part(&self, s: StreamId) -> Option<&[AttrValue]> {
        PartialTuple::part(self, s).map(AttrVec::as_slice)
    }
}

/// A partial tuple read where it lies: a borrowed view of the words
/// [`PartialTuple::pack`] wrote, exposing what the decoded struct does
/// without copying a value. Building one parses the header word only — a
/// handful of shifts — and checks the length exactly as
/// [`PartialTuple::unpack`] does.
#[derive(Debug, Clone, Copy)]
pub struct PackedPartial<'a> {
    covered: StreamMask,
    min_ts: VirtualTime,
    words: &'a [u64],
    /// Per stream id, where its values start in `words` and how many there
    /// are (zero for an uncovered stream).
    spans: [(u8, u8); MAX_STREAMS],
}

impl<'a> PackedPartial<'a> {
    /// View `words` as the partial tuple packed into exactly them.
    ///
    /// # Panics
    /// Panics if `words` is not one packed partial tuple.
    pub fn new(words: &'a [u64]) -> Self {
        let mut spans = [(0u8, 0u8); MAX_STREAMS];
        let (covered, min_ts) = read_parts(words, |s, at, n| spans[s.idx()] = (at as u8, n as u8));
        PackedPartial {
            covered,
            min_ts,
            words,
            spans,
        }
    }

    /// Which streams' tuples this partial result already contains.
    #[inline]
    pub fn covered(&self) -> StreamMask {
        self.covered
    }

    /// Earliest arrival instant among the constituent base tuples.
    #[inline]
    pub fn min_ts(&self) -> VirtualTime {
        self.min_ts
    }

    /// The words stream `s`'s span names (empty for an uncovered stream).
    #[inline]
    fn span(&self, s: StreamId) -> &'a [AttrValue] {
        let (at, n) = self.spans[s.idx()];
        &self.words[at as usize..][..n as usize]
    }

    /// Attribute values of the covered stream `s`, or `None` if `s` is not
    /// covered.
    #[inline]
    pub fn part(&self, s: StreamId) -> Option<&'a [AttrValue]> {
        self.covered.covers(s).then(|| self.span(s))
    }

    /// Append the words [`PartialTuple::pack`] would write for this
    /// partial tuple extended by stream `s`'s `attrs` arriving at `ts`
    /// ([`PartialTuple::extend`]), without building that value: a
    /// follow-up job is encoded from its parent's words plus the matched
    /// tuple.
    ///
    /// # Panics
    /// Panics if `s` is already covered.
    pub fn pack_extended(
        &self,
        s: StreamId,
        attrs: &[AttrValue],
        ts: VirtualTime,
        out: &mut Vec<u64>,
    ) {
        assert!(!self.covered.covers(s), "stream {s} already joined");
        pack_parts(
            self.covered.with(s),
            self.min_ts.min(ts),
            |x| if x == s { attrs } else { self.span(x) },
            out,
        );
    }
}

impl Parts for PackedPartial<'_> {
    fn covered(&self) -> StreamMask {
        self.covered
    }

    fn part(&self, s: StreamId) -> Option<&[AttrValue]> {
        PackedPartial::part(self, s)
    }
}

/// Bit position of the first per-part value count in a packed header word
/// (above the 16-bit covered mask).
const PART_LEN_SHIFT: usize = 16;
/// Bits per value count: 4, so a count of 0..=[`MAX_ATTRS`] must stay below
/// 16 — the bound `SpjQuery::new` enforces on every schema's arity and
/// `AttrVec` on every value vector.
const PART_LEN_BITS: usize = 4;
const PART_LEN_MASK: usize = (1 << PART_LEN_BITS) - 1;
const _: () = assert!(crate::value::MAX_ATTRS <= PART_LEN_MASK);
const _: () = assert!(PART_LEN_SHIFT + PART_LEN_BITS * MAX_STREAMS <= 64);
// A span's start is a `u8`: the longest packed partial tuple must fit.
const _: () = assert!(2 + MAX_STREAMS * crate::value::MAX_ATTRS <= u8::MAX as usize);

/// The one reader of the packed layout, behind [`PackedPartial::new`] and
/// [`PartialTuple::unpack`]: the covered mask and `min_ts` of the partial
/// tuple packed into exactly `words`, after handing `each` every covered
/// stream, ascending, with where its values start in `words` and how many
/// there are.
///
/// # Panics
/// Panics if `words` is not one packed partial tuple: the part lengths of
/// its header must add up to its length.
fn read_parts(
    words: &[u64],
    mut each: impl FnMut(StreamId, usize, usize),
) -> (StreamMask, VirtualTime) {
    let header = words[0];
    let covered = StreamMask(header as u16);
    let mut at = 2;
    for (k, s) in covered.streams().enumerate() {
        let n = (header >> (PART_LEN_SHIFT + PART_LEN_BITS * k)) as usize & PART_LEN_MASK;
        each(s, at, n);
        at += n;
    }
    assert_eq!(at, words.len(), "packed partial tuple length mismatch");
    (covered, VirtualTime(words[1]))
}

/// The one writer of the packed layout, behind [`PartialTuple::pack`] and
/// [`PackedPartial::pack_extended`]: `part_of` supplies each covered
/// stream's values.
fn pack_parts<'a>(
    covered: StreamMask,
    min_ts: VirtualTime,
    part_of: impl Fn(StreamId) -> &'a [AttrValue],
    out: &mut Vec<u64>,
) {
    let header_at = out.len();
    out.push(0);
    out.push(min_ts.0);
    let mut header = u64::from(covered.0);
    for (k, s) in covered.streams().enumerate() {
        let part = part_of(s);
        header |= (part.len() as u64) << (PART_LEN_SHIFT + PART_LEN_BITS * k);
        out.extend_from_slice(part);
    }
    out[header_at] = header;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrVec;

    fn t(stream: u16, attrs: &[u64], secs: u64) -> Tuple {
        Tuple::new(
            TupleId(stream as u64 * 1000),
            StreamId(stream),
            VirtualTime::from_secs(secs),
            AttrVec::from_slice(attrs).unwrap(),
        )
    }

    #[test]
    fn mask_operations() {
        let m = StreamMask::only(StreamId(1)).with(StreamId(3));
        assert!(m.covers(StreamId(1)));
        assert!(m.covers(StreamId(3)));
        assert!(!m.covers(StreamId(0)));
        assert_eq!(m.count(), 2);
        assert_eq!(
            m.streams().collect::<Vec<_>>(),
            vec![StreamId(1), StreamId(3)]
        );
        assert_eq!(m.union(StreamMask::only(StreamId(0))).count(), 3);
        assert_eq!(StreamMask::all(4).count(), 4);
        assert!(StreamMask::EMPTY.is_empty());
        assert_eq!(format!("{m:?}"), "{S1,S3}");
    }

    #[test]
    fn base_tuple_wraps_into_partial() {
        let base = t(2, &[10, 20, 30], 5);
        let p = PartialTuple::from_base(&base);
        assert_eq!(p.covered, StreamMask::only(StreamId(2)));
        assert_eq!(p.min_ts, VirtualTime::from_secs(5));
        assert_eq!(p.part(StreamId(2)).unwrap().as_slice(), &[10, 20, 30]);
        assert!(p.part(StreamId(0)).is_none());
        assert!(!p.is_complete(4));
    }

    #[test]
    fn extend_joins_streams_and_tracks_min_ts() {
        let p = PartialTuple::from_base(&t(0, &[1, 2, 3], 10));
        let q = p.extend(
            StreamId(1),
            AttrVec::from_slice(&[4, 5, 6]).unwrap(),
            VirtualTime::from_secs(3),
        );
        assert_eq!(q.covered.count(), 2);
        assert_eq!(q.min_ts, VirtualTime::from_secs(3)); // earlier constituent
        assert_eq!(q.part(StreamId(0)).unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(q.part(StreamId(1)).unwrap().as_slice(), &[4, 5, 6]);
        // Original untouched (value semantics).
        assert_eq!(p.covered.count(), 1);

        let r = q
            .extend(
                StreamId(2),
                AttrVec::from_slice(&[7]).unwrap(),
                VirtualTime::from_secs(20),
            )
            .extend(
                StreamId(3),
                AttrVec::from_slice(&[8]).unwrap(),
                VirtualTime::from_secs(20),
            );
        assert!(r.is_complete(4));
        assert_eq!(r.min_ts, VirtualTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "already joined")]
    fn extending_with_covered_stream_panics() {
        let p = PartialTuple::from_base(&t(0, &[1], 0));
        let _ = p.extend(StreamId(0), AttrVec::new(), VirtualTime::ZERO);
    }

    #[test]
    fn pack_round_trips_and_carries_only_covered_values() {
        let base = PartialTuple::from_base(&t(2, &[10, 20, 30], 5));
        let mut words = Vec::new();
        base.pack(&mut words);
        assert_eq!(words.len(), 2 + 3, "header, min_ts, three values");
        assert_eq!(PartialTuple::unpack(&words), base);

        // Arity 0 and arity MAX_ATTRS parts, highest stream id.
        let wide = AttrVec::from_slice(&[u64::MAX; crate::value::MAX_ATTRS]).unwrap();
        let pt = PartialTuple::from_parts(
            StreamMask::only(StreamId(0)).with(StreamId(5)),
            VirtualTime::from_secs(9),
            [AttrVec::new(), wide],
        );
        words.clear();
        pt.pack(&mut words);
        assert_eq!(words.len(), 2 + crate::value::MAX_ATTRS);
        assert_eq!(PartialTuple::unpack(&words), pt);
    }

    #[test]
    fn pack_extended_writes_what_extend_then_pack_writes() {
        let parent = PartialTuple::from_base(&t(1, &[1, 2, 3], 10));
        let mut packed = Vec::new();
        parent.pack(&mut packed);
        let view = PackedPartial::new(&packed);
        for (s, secs) in [(0u16, 3u64), (3, 20)] {
            let attrs = AttrVec::from_slice(&[7, 8]).unwrap();
            let ts = VirtualTime::from_secs(secs);
            let mut direct = vec![99]; // appends, never overwrites
            view.pack_extended(StreamId(s), &attrs, ts, &mut direct);
            let mut via_extend = vec![99];
            parent.extend(StreamId(s), attrs, ts).pack(&mut via_extend);
            assert_eq!(direct, via_extend);
        }
    }

    #[test]
    fn a_packed_view_reads_what_unpack_decodes_and_rejects_what_it_rejects() {
        let pt = PartialTuple::from_parts(
            StreamMask::only(StreamId(0))
                .with(StreamId(2))
                .with(StreamId(5)),
            VirtualTime::from_secs(9),
            [
                AttrVec::new(),
                AttrVec::from_slice(&[4, 5, 6]).unwrap(),
                AttrVec::from_slice(&[u64::MAX; crate::value::MAX_ATTRS]).unwrap(),
            ],
        );
        let mut words = Vec::new();
        pt.pack(&mut words);
        let view = PackedPartial::new(&words);
        assert_eq!(view.covered(), pt.covered);
        assert_eq!(view.min_ts(), pt.min_ts);
        for s in (0..MAX_STREAMS as u16).map(StreamId) {
            assert_eq!(view.part(s), pt.part(s).map(AttrVec::as_slice), "{s}");
        }
        // One word short and one word long are both refused, by the view
        // and by the decode built on it.
        let mut long = words.clone();
        long.push(0);
        for bad in [&words[..words.len() - 1], &long[..]] {
            assert!(std::panic::catch_unwind(|| PackedPartial::new(bad)).is_err());
            assert!(std::panic::catch_unwind(|| PartialTuple::unpack(bad)).is_err());
        }
    }

    #[test]
    fn complete_requires_exact_prefix_mask() {
        let p = PartialTuple::from_base(&t(0, &[1], 0)).extend(
            StreamId(2),
            AttrVec::new(),
            VirtualTime::ZERO,
        );
        // Covers {0,2} — not complete for a 3-way query over {0,1,2}.
        assert!(!p.is_complete(3));
    }
}
