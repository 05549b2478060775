//! The state-of-the-art baseline: multiple hash indices per state
//! ("access modules", Raman et al. \[5\]; §I-A).
//!
//! Each sub-index serves one attribute combination: it hashes those
//! attributes' values to a key and stores, per stored tuple, a key→entry
//! link. A search picks the *most suitable* sub-index — the one with the
//! largest attribute set that is a subset of the request's pattern — and
//! falls back to a full scan when none qualifies (§I-A's `sr₂`). The costs
//! the paper attacks are modeled faithfully:
//!
//! * maintenance — every insert/delete touches **every** sub-index (k hash
//!   key computations + k link writes);
//! * memory — each sub-index stores a per-tuple link
//!   ([`layout::hash_link_bytes`]), so bytes scale with `k × tuples`.

use crate::cost::CostReceipt;
use crate::layout;
use crate::parallel::ShardExecutor;
use crate::state::{SearchScratch, StateIndex, TupleKey};
use amri_stream::{fx_hash_u64, AccessPattern, AttrVec, FxHashMap, SearchRequest, MAX_JAS};

/// One hash sub-index over a fixed attribute combination.
#[derive(Debug, Clone)]
struct SubIndex {
    /// The attribute combination this sub-index accelerates.
    pattern: AccessPattern,
    /// Hash key → entries. Entries carry JAS values for collision/residual
    /// filtering.
    map: FxHashMap<u64, Vec<(TupleKey, AttrVec)>>,
}

impl SubIndex {
    /// Combined hash key of the pattern's attributes in `jas`.
    fn key_of(&self, jas: &AttrVec) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in self.pattern.positions() {
            h = fx_hash_u64(h ^ jas[i]);
        }
        h
    }
}

/// The multi-hash-index access module.
#[derive(Debug, Clone)]
pub struct MultiHashIndex {
    subs: Vec<SubIndex>,
    jas_width: usize,
    n_tuples: usize,
}

impl MultiHashIndex {
    /// Build an access module with one hash sub-index per given pattern.
    ///
    /// # Panics
    /// Panics if patterns disagree on JAS width, a pattern is empty, or
    /// `patterns` is empty.
    pub fn new(patterns: Vec<AccessPattern>) -> Self {
        assert!(!patterns.is_empty(), "need at least one hash index");
        let width = patterns[0].n_attrs();
        for p in &patterns {
            assert_eq!(p.n_attrs(), width, "pattern width mismatch");
            assert!(!p.is_empty(), "a hash index needs at least one attribute");
        }
        MultiHashIndex {
            subs: patterns
                .into_iter()
                .map(|pattern| SubIndex {
                    pattern,
                    map: FxHashMap::default(),
                })
                .collect(),
            jas_width: width,
            n_tuples: 0,
        }
    }

    /// The attribute combinations currently indexed.
    pub fn patterns(&self) -> Vec<AccessPattern> {
        self.subs.iter().map(|s| s.pattern).collect()
    }

    /// Number of hash sub-indices.
    #[inline]
    pub fn n_indices(&self) -> usize {
        self.subs.len()
    }

    /// Pick the most suitable sub-index for a request (§I-A): the largest
    /// attribute set that is a subset of the request's — and no attributes
    /// outside it. Ties break toward the lower pattern mask.
    fn best_sub(&self, req_pattern: AccessPattern) -> Option<usize> {
        self.subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pattern.benefits(req_pattern))
            .max_by_key(|(_, s)| (s.pattern.specified(), std::cmp::Reverse(s.pattern.mask())))
            .map(|(i, _)| i)
    }

    /// Replace the indexed attribute combinations (adaptive re-selection):
    /// drops sub-indices not in `new_patterns`, builds new ones from the
    /// supplied live entries, charging hash + move costs per rebuilt link.
    pub fn retarget<'a>(
        &mut self,
        new_patterns: Vec<AccessPattern>,
        live: impl Iterator<Item = (TupleKey, &'a AttrVec)> + Clone,
        receipt: &mut CostReceipt,
    ) {
        assert!(!new_patterns.is_empty(), "need at least one hash index");
        let kept: Vec<SubIndex> = self
            .subs
            .drain(..)
            .filter(|s| new_patterns.contains(&s.pattern))
            .collect();
        let mut subs = kept;
        for p in new_patterns {
            if subs.iter().any(|s| s.pattern == p) {
                continue;
            }
            let mut sub = SubIndex {
                pattern: p,
                map: FxHashMap::default(),
            };
            for (key, jas) in live.clone() {
                receipt.hash_ops += p.specified() as u64;
                receipt.moved += 1;
                let k = sub.key_of(jas);
                sub.map.entry(k).or_default().push((key, *jas));
            }
            subs.push(sub);
        }
        self.subs = subs;
    }

    /// Serialize the module: each sub-index's pattern plus its buckets
    /// sorted by hash key, entries in stored order (search yields hits in
    /// bucket order, so the order is part of the observable state).
    pub fn save(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("MULTIHASH");
        w.put_usize(self.jas_width);
        w.put_usize(self.n_tuples);
        w.put_usize(self.subs.len());
        for sub in &self.subs {
            w.put_u32(sub.pattern.mask());
            let mut buckets: Vec<(u64, &Vec<(TupleKey, AttrVec)>)> =
                sub.map.iter().map(|(&k, v)| (k, v)).collect();
            buckets.sort_unstable_by_key(|&(k, _)| k);
            w.put_usize(buckets.len());
            for (k, entries) in buckets {
                w.put_u64(k);
                w.put_usize(entries.len());
                for (key, jas) in entries {
                    w.put_u32(key.0);
                    w.put_attrs(jas);
                }
            }
        }
    }

    /// Rebuild a module from a [`save`](Self::save)d section.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`](crate::snapshot_io::SnapshotError)
    /// naming the field when the image is not one `save` wrote: a width
    /// above `MAX_JAS`, a count the remaining bytes cannot hold, an empty
    /// pattern or one with a bit outside the width, an empty bucket, an
    /// entry JAS of the wrong width, or a sub-index that does not hold
    /// exactly the module's tuple count.
    pub fn restore(
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<Self, crate::snapshot_io::SnapshotError> {
        use crate::snapshot_io::SnapshotError;
        let malformed = |what: String| Err(SnapshotError::Malformed(what));
        crate::snapshot_io::expect_tag(r, "MULTIHASH")?;
        let jas_width = r.get_usize()?;
        if jas_width > MAX_JAS {
            return malformed(format!("multi-hash JAS width {jas_width}"));
        }
        let n_tuples = r.get_usize()?;
        // Every count is checked against the bytes left before it sizes a
        // vector or bounds a loop: a mask and a bucket count per
        // sub-index, a hash key and an entry count per bucket, a key, a
        // length byte and `jas_width` values per entry.
        let n_subs = r.get_usize()?;
        if n_subs == 0 || n_subs > r.remaining() / (4 + 8) {
            return malformed(format!("multi-hash sub-index count {n_subs}"));
        }
        let entry_bytes = 4 + 1 + 8 * jas_width;
        let mut subs = Vec::with_capacity(n_subs);
        for s in 0..n_subs {
            let mask = r.get_u32()?;
            if mask == 0 || mask >> jas_width != 0 {
                return malformed(format!(
                    "sub-index {s} pattern {mask:#b} over width {jas_width}"
                ));
            }
            let pattern = AccessPattern::new(mask, jas_width);
            let n_buckets = r.get_usize()?;
            if n_buckets > r.remaining() / (8 + 8) {
                return malformed(format!("sub-index {s} bucket count {n_buckets}"));
            }
            let mut map = FxHashMap::default();
            let mut held = 0usize;
            for _ in 0..n_buckets {
                let k = r.get_u64()?;
                let n_entries = r.get_usize()?;
                if n_entries == 0 || n_entries > r.remaining() / entry_bytes {
                    return malformed(format!("sub-index {s} bucket entry count {n_entries}"));
                }
                let mut entries = Vec::with_capacity(n_entries);
                for _ in 0..n_entries {
                    let key = TupleKey(r.get_u32()?);
                    let jas = r.get_attrs()?;
                    if jas.len() != jas_width {
                        return malformed(format!(
                            "sub-index {s} entry {} JAS of width {}, module of width {jas_width}",
                            key.0,
                            jas.len()
                        ));
                    }
                    entries.push((key, jas));
                }
                held += n_entries;
                map.insert(k, entries);
            }
            if held != n_tuples {
                return malformed(format!(
                    "sub-index {s} holds {held} entries, module of {n_tuples} tuples"
                ));
            }
            subs.push(SubIndex { pattern, map });
        }
        Ok(MultiHashIndex {
            subs,
            jas_width,
            n_tuples,
        })
    }
}

impl StateIndex for MultiHashIndex {
    fn insert(&mut self, key: TupleKey, jas: &AttrVec, receipt: &mut CostReceipt) {
        debug_assert_eq!(jas.len(), self.jas_width);
        for sub in &mut self.subs {
            receipt.hash_ops += sub.pattern.specified() as u64;
            receipt.bucket_probes += 1;
            let k = sub.key_of(jas);
            sub.map.entry(k).or_default().push((key, *jas));
        }
        self.n_tuples += 1;
    }

    fn remove(&mut self, key: TupleKey, jas: &AttrVec, receipt: &mut CostReceipt) {
        for sub in &mut self.subs {
            receipt.hash_ops += sub.pattern.specified() as u64;
            receipt.bucket_probes += 1;
            let k = sub.key_of(jas);
            if let Some(entries) = sub.map.get_mut(&k) {
                if let Some(pos) = entries.iter().position(|(t, _)| *t == key) {
                    entries.swap_remove(pos);
                    if entries.is_empty() {
                        sub.map.remove(&k);
                    }
                }
            }
        }
        self.n_tuples -= 1;
    }

    fn search_into(
        &self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        _exec: &dyn ShardExecutor,
    ) -> bool {
        scratch.hits.clear();
        let Some(i) = self.best_sub(req.pattern) else {
            return false;
        };
        let sub = &self.subs[i];
        receipt.hash_ops += sub.pattern.specified() as u64;
        receipt.bucket_probes += 1;
        let k = sub.key_of(&req.values);
        if let Some(entries) = sub.map.get(&k) {
            let bound = req.bound();
            for (key, jas) in entries {
                receipt.comparisons += 1;
                if bound.matches(jas.as_slice()) {
                    scratch.hits.push(*key);
                }
            }
        }
        true
    }

    fn memory_bytes(&self) -> u64 {
        let links =
            self.n_tuples as u64 * self.subs.len() as u64 * layout::hash_link_bytes(self.jas_width);
        let buckets: u64 = self
            .subs
            .iter()
            .map(|s| s.map.len() as u64 * layout::BUCKET_BYTES)
            .sum();
        links + buckets
    }

    fn entries(&self) -> usize {
        self.n_tuples * self.subs.len()
    }

    fn kind(&self) -> &'static str {
        "multi-hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    fn jas(vals: &[u64]) -> AttrVec {
        AttrVec::from_slice(vals).unwrap()
    }

    /// The hits of one probe, or `None` if the module deferred to a scan.
    fn search(
        m: &MultiHashIndex,
        request: &SearchRequest,
        r: &mut CostReceipt,
    ) -> Option<Vec<TupleKey>> {
        let mut scratch = SearchScratch::new();
        m.search_into(request, &mut scratch, r, &crate::SequentialExecutor)
            .then_some(scratch.hits)
    }

    fn req(mask: u32, vals: &[u64]) -> SearchRequest {
        SearchRequest::new(ap(mask), jas(vals))
    }

    /// The paper's §I-A module: indices on A1, A1&A2, A2&A3.
    fn paper_module() -> MultiHashIndex {
        MultiHashIndex::new(vec![ap(0b001), ap(0b011), ap(0b110)])
    }

    #[test]
    #[should_panic(expected = "at least one hash index")]
    fn rejects_empty_module() {
        let _ = MultiHashIndex::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn rejects_empty_pattern_index() {
        let _ = MultiHashIndex::new(vec![AccessPattern::empty(3)]);
    }

    #[test]
    fn insert_links_every_sub_index() {
        let mut m = paper_module();
        let mut r = CostReceipt::new();
        m.insert(TupleKey(1), &jas(&[1, 2, 3]), &mut r);
        // Hash ops: |A1|=1 + |A1A2|=2 + |A2A3|=2 = 5.
        assert_eq!(r.hash_ops, 5);
        assert_eq!(m.entries(), 3, "one link per sub-index");
        assert_eq!(m.n_indices(), 3);
    }

    #[test]
    fn sr1_uses_the_a1_index() {
        // §I-A: sr₁ = {A1=2012, A3=47}. Most suitable: index on A1 (subset,
        // largest without foreign attributes).
        let mut m = paper_module();
        let mut r = CostReceipt::new();
        m.insert(TupleKey(1), &jas(&[2012, 5, 47]), &mut r);
        m.insert(TupleKey(2), &jas(&[2012, 6, 99]), &mut r);
        m.insert(TupleKey(3), &jas(&[7, 5, 47]), &mut r);
        let mut r = CostReceipt::new();
        let out = search(&m, &req(0b101, &[2012, 0, 47]), &mut r);
        assert_eq!(out, Some(vec![TupleKey(1)]));
        // One lookup on the 1-attribute index: 1 hash op.
        assert_eq!(r.hash_ops, 1);
        // Both A1=2012 tuples hit the bucket; both compared.
        assert_eq!(r.comparisons, 2);
    }

    #[test]
    fn sr2_has_no_suitable_index_and_scans() {
        // §I-A: sr₂ = {A3=47}. No index is a subset of {A3} → full scan.
        let m = paper_module();
        let mut r = CostReceipt::new();
        assert_eq!(search(&m, &req(0b100, &[0, 0, 47]), &mut r), None);
    }

    #[test]
    fn best_sub_prefers_the_largest_subset() {
        let m = paper_module();
        // Request {A1,A2}: both A1 and A1&A2 qualify; A1&A2 is larger.
        assert_eq!(m.best_sub(ap(0b011)), Some(1));
        // Request {A1}: only the A1 index qualifies.
        assert_eq!(m.best_sub(ap(0b001)), Some(0));
        // Request {A1,A2,A3}: A2&A3 (2 attrs) ties A1&A2 → lower mask wins.
        assert_eq!(m.best_sub(ap(0b111)), Some(1));
    }

    #[test]
    fn remove_unlinks_everywhere() {
        let mut m = paper_module();
        let mut r = CostReceipt::new();
        m.insert(TupleKey(1), &jas(&[1, 2, 3]), &mut r);
        m.insert(TupleKey(2), &jas(&[1, 2, 3]), &mut r);
        m.remove(TupleKey(1), &jas(&[1, 2, 3]), &mut r);
        assert_eq!(m.entries(), 3);
        let Some(got) = search(&m, &req(0b011, &[1, 2, 0]), &mut r) else {
            panic!()
        };
        assert_eq!(got, vec![TupleKey(2)]);
    }

    #[test]
    fn memory_scales_with_index_count() {
        let mk = |patterns: Vec<AccessPattern>| {
            let mut m = MultiHashIndex::new(patterns);
            let mut r = CostReceipt::new();
            for i in 0..100u32 {
                m.insert(TupleKey(i), &jas(&[i as u64, 1, 2]), &mut r);
            }
            m.memory_bytes()
        };
        let one = mk(vec![ap(0b001)]);
        let three = mk(vec![ap(0b001), ap(0b011), ap(0b110)]);
        assert!(
            three > one * 2,
            "3 indices ({three}B) must cost far more than 1 ({one}B)"
        );
    }

    #[test]
    fn retarget_swaps_attribute_combinations() {
        let mut m = MultiHashIndex::new(vec![ap(0b001)]);
        let mut r = CostReceipt::new();
        let tuples: Vec<(TupleKey, AttrVec)> = (0..10u32)
            .map(|i| (TupleKey(i), jas(&[i as u64 % 2, i as u64 % 3, i as u64])))
            .collect();
        for (k, v) in &tuples {
            m.insert(*k, v, &mut r);
        }
        let mut r = CostReceipt::new();
        m.retarget(
            vec![ap(0b001), ap(0b010)],
            tuples.iter().map(|(k, v)| (*k, v)),
            &mut r,
        );
        assert_eq!(m.n_indices(), 2);
        assert_eq!(r.moved, 10, "only the new sub-index is rebuilt");
        // New index serves B-only requests now.
        let Some(got) = search(&m, &req(0b010, &[0, 1, 0]), &mut r) else {
            panic!()
        };
        assert_eq!(got.len(), tuples.iter().filter(|(_, v)| v[1] == 1).count());
    }

    /// One bucket of a hand-built image: its hash key and `(key, jas)`
    /// entries.
    type ImageBucket<'a> = (u64, &'a [(u32, &'a [u64])]);

    /// A `MULTIHASH` image: width, tuple count, then per sub-index its
    /// mask and buckets — hand-built so it can lie.
    fn image(width: usize, n_tuples: usize, subs: &[(u32, &[ImageBucket<'_>])]) -> Vec<u8> {
        let mut w = crate::snapshot_io::SectionWriter::new();
        w.put_str("MULTIHASH");
        w.put_usize(width);
        w.put_usize(n_tuples);
        w.put_usize(subs.len());
        for (mask, buckets) in subs {
            w.put_u32(*mask);
            w.put_usize(buckets.len());
            for (k, entries) in *buckets {
                w.put_u64(*k);
                w.put_usize(entries.len());
                for (key, vals) in *entries {
                    w.put_u32(*key);
                    w.put_attrs(vals);
                }
            }
        }
        w.into_bytes()
    }

    /// Every way an image can lie about itself ends in `Malformed` naming
    /// the field — never an `AccessPattern` assertion, a capacity-overflow
    /// panic or an allocator abort — and a good image still restores
    /// afterwards.
    #[test]
    fn restore_refuses_an_image_that_lies() {
        use crate::snapshot_io::{SectionReader, SnapshotError};
        let restore = |image: &[u8]| MultiHashIndex::restore(&mut SectionReader::new(image));
        let refused = |image: &[u8], field: &str| match restore(image) {
            Err(SnapshotError::Malformed(why)) => {
                assert!(why.contains(field), "{why:?} does not name {field:?}")
            }
            other => panic!("expected Malformed({field}), got {other:?}"),
        };
        let mut saved = MultiHashIndex::new(vec![ap(0b001), ap(0b011)]);
        let mut r = CostReceipt::new();
        saved.insert(TupleKey(1), &jas(&[1, 2, 3]), &mut r);
        saved.insert(TupleKey(2), &jas(&[1, 5, 6]), &mut r);
        let mut w = crate::snapshot_io::SectionWriter::new();
        saved.save(&mut w);
        let good = w.into_bytes();

        // A width no access pattern can range over.
        refused(&image(9, 0, &[(0b1, &[])]), "JAS width 9");
        // No sub-index, or more than the remaining bytes can list.
        refused(&image(3, 0, &[]), "sub-index count 0");
        let mut lying = image(3, 0, &[]);
        let count_at = lying.len() - 8;
        lying[count_at..].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        refused(&lying, "sub-index count");
        // An empty pattern, and a mask bit outside the width.
        refused(&image(3, 0, &[(0, &[])]), "pattern 0b0 over width 3");
        refused(
            &image(3, 0, &[(0b1000, &[])]),
            "pattern 0b1000 over width 3",
        );
        // A bucket count, and an entry count, the bytes left cannot hold.
        let mut lying = image(3, 0, &[(0b001, &[])]);
        let count_at = lying.len() - 8;
        lying[count_at..].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        refused(&lying, "bucket count");
        let mut lying = image(3, 0, &[(0b001, &[(10, &[])])]);
        let count_at = lying.len() - 8;
        lying[count_at..].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        refused(&lying, "bucket entry count");
        // An empty bucket, which `save` never writes.
        refused(
            &image(3, 0, &[(0b001, &[(10, &[])])]),
            "bucket entry count 0",
        );
        // An entry JAS narrower than the module, its missing word made up
        // by a wider one so the byte count adds up.
        refused(
            &image(
                3,
                2,
                &[(0b001, &[(10, &[(1, &[1, 2]), (2, &[4, 5, 6, 7])])])],
            ),
            "entry 1 JAS of width 2",
        );
        // A sub-index holding fewer entries than the module's tuple count.
        let both: &[(u32, &[u64])] = &[(1, &[1, 2, 3]), (2, &[1, 5, 6])];
        let one: &[(u32, &[u64])] = &[(1, &[1, 2, 3])];
        refused(
            &image(3, 2, &[(0b001, &[(10, both)]), (0b011, &[(20, one)])]),
            "sub-index 1 holds 1 entries, module of 2 tuples",
        );
        // A truncated image is the reader's own typed error.
        assert!(restore(&good[..good.len() - 3]).is_err());

        let back = restore(&good).unwrap();
        assert_eq!(back.entries(), saved.entries());
        assert_eq!(back.patterns(), saved.patterns());
        for request in [req(0b001, &[1, 0, 0]), req(0b011, &[1, 5, 0])] {
            let (mut r1, mut r2) = (CostReceipt::new(), CostReceipt::new());
            assert_eq!(
                search(&back, &request, &mut r1),
                search(&saved, &request, &mut r2)
            );
            assert_eq!(r1, r2);
        }
    }

    proptest! {
        /// Whatever sub-index is chosen, results equal a reference scan.
        #[test]
        fn search_equals_reference_scan(
            patterns in proptest::collection::hash_set(1u32..8, 1..4),
            tuples in proptest::collection::vec(proptest::collection::vec(0u64..5, 3), 1..50),
            mask in 0u32..8,
            probe in proptest::collection::vec(0u64..5, 3),
        ) {
            let mut m = MultiHashIndex::new(patterns.into_iter().map(ap).collect());
            let mut r = CostReceipt::new();
            for (i, t) in tuples.iter().enumerate() {
                m.insert(TupleKey(i as u32), &jas(t), &mut r);
            }
            let request = req(mask, &probe);
            match search(&m, &request, &mut r) {
                None => {
                    // Legal only when no sub-index is a subset of the request.
                    for p in m.patterns() {
                        prop_assert!(!p.benefits(request.pattern));
                    }
                }
                Some(mut got) => {
                    got.sort();
                    let mut expected: Vec<TupleKey> = tuples
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| request.matches(t))
                        .map(|(i, _)| TupleKey(i as u32))
                        .collect();
                    expected.sort();
                    prop_assert_eq!(got, expected);
                }
            }
        }
    }
}
