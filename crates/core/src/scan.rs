//! The no-index baseline: every search is a full state scan.
//!
//! This is what a state degenerates to when no suitable index exists
//! (§I-A's `sr₂` example) — and the reference point the paper's static
//! "non-adapting" comparisons start from.

use crate::cost::CostReceipt;
use crate::parallel::ShardExecutor;
use crate::state::{SearchScratch, StateIndex, TupleKey};
use amri_stream::{AttrVec, SearchRequest};

/// An index that indexes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanIndex {
    entries: usize,
}

impl ScanIndex {
    /// New scan "index".
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialize the (single-counter) state.
    pub fn save(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("SCAN");
        w.put_usize(self.entries);
    }

    /// Rebuild from a [`save`](Self::save)d section.
    pub fn restore(
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<Self, crate::snapshot_io::SnapshotError> {
        crate::snapshot_io::expect_tag(r, "SCAN")?;
        Ok(ScanIndex {
            entries: r.get_usize()?,
        })
    }
}

impl StateIndex for ScanIndex {
    fn insert(&mut self, _key: TupleKey, _jas: &AttrVec, _receipt: &mut CostReceipt) {
        self.entries += 1;
    }

    fn remove(&mut self, _key: TupleKey, _jas: &AttrVec, _receipt: &mut CostReceipt) {
        self.entries -= 1;
    }

    fn search_into(
        &self,
        _req: &SearchRequest,
        scratch: &mut SearchScratch,
        _receipt: &mut CostReceipt,
        _exec: &dyn ShardExecutor,
    ) -> bool {
        scratch.hits.clear();
        false
    }

    fn memory_bytes(&self) -> u64 {
        0
    }

    fn entries(&self) -> usize {
        self.entries
    }

    fn kind(&self) -> &'static str {
        "scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::AccessPattern;

    #[test]
    fn always_defers_to_scan() {
        let mut idx = ScanIndex::new();
        let mut r = CostReceipt::new();
        idx.insert(TupleKey(0), &AttrVec::from_slice(&[1]).unwrap(), &mut r);
        assert_eq!(idx.entries(), 1);
        assert_eq!(idx.memory_bytes(), 0);
        assert_eq!(idx.kind(), "scan");
        let req = SearchRequest::new(AccessPattern::full(1), AttrVec::from_slice(&[1]).unwrap());
        let mut scratch = crate::state::SearchScratch::new();
        assert!(
            !idx.search_into(&req, &mut scratch, &mut r, &crate::SequentialExecutor),
            "scan index always defers: search_into must return false"
        );
        assert_eq!(r.total_actions(), 0, "scan index itself charges nothing");
        idx.remove(TupleKey(0), &AttrVec::from_slice(&[1]).unwrap(), &mut r);
        assert_eq!(idx.entries(), 0);
    }
}
