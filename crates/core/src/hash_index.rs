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
use amri_stream::{fx_hash_u64, AccessPattern, AttrVec, FxHashMap, SearchRequest};

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
    pub fn restore(
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<Self, crate::snapshot_io::SnapshotError> {
        use crate::snapshot_io::SnapshotError;
        crate::snapshot_io::expect_tag(r, "MULTIHASH")?;
        let jas_width = r.get_usize()?;
        let n_tuples = r.get_usize()?;
        let n_subs = r.get_usize()?;
        if n_subs == 0 {
            return Err(SnapshotError::Malformed(
                "multi-hash module with no sub-indices".into(),
            ));
        }
        let mut subs = Vec::with_capacity(n_subs);
        for _ in 0..n_subs {
            let pattern = AccessPattern::new(r.get_u32()?, jas_width);
            let n_buckets = r.get_usize()?;
            let mut map = FxHashMap::default();
            for _ in 0..n_buckets {
                let k = r.get_u64()?;
                let n_entries = r.get_usize()?;
                let mut entries = Vec::with_capacity(n_entries);
                for _ in 0..n_entries {
                    let key = TupleKey(r.get_u32()?);
                    let jas = r.get_attrs()?;
                    entries.push((key, jas));
                }
                map.insert(k, entries);
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
            for (key, jas) in entries {
                receipt.comparisons += 1;
                if req.matches(jas.as_slice()) {
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
