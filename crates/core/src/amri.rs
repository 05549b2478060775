//! [`AmriState`] — the assembled Adaptive Multi-Route Index: a windowed
//! state backed by a bit-address index whose configuration is tuned online.
//!
//! This is the unit an AMR engine instantiates per stream. Every search
//! request feeds the assessor; [`AmriState::maybe_retune`] periodically
//! turns the statistics into a configuration decision and, when warranted,
//! migrates the physical index — charging the migration to the caller's
//! cost receipt like any other work.

use crate::assess::AssessorKind;
use crate::bitaddr::BitAddressIndex;
use crate::config::IndexConfig;
use crate::cost::{CostParams, CostReceipt};
use crate::error::CoreError;
use crate::parallel::{SequentialExecutor, ShardExecutor};
use crate::state::{SearchScratch, StateStore, TupleKey};
use crate::tuner::{Tuner, TunerConfig, TunerEvent, TunerKind};
use amri_stream::{AttrId, SearchRequest, StreamId, Tuple, VirtualTime, WindowSpec};

/// A tuned, bit-address-indexed join state.
pub struct AmriState {
    store: StateStore<BitAddressIndex>,
    tuner: Tuner,
}

/// Outcome of a tuning opportunity, surfaced to the engine's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneReport {
    /// The configuration migrated to.
    pub config: IndexConfig,
    /// Entries relocated by the migration.
    pub moved: u64,
    /// Predicted cost before/after (from the tuner's decision).
    pub predicted_gain: f64,
}

impl AmriState {
    /// Build an AMRI state.
    ///
    /// * `stream`, `jas`, `window` — the state's identity (from the query).
    /// * `kind` — which assessment method tunes it.
    /// * `initial` — the starting index configuration (the paper seeds it
    ///   from quasi-training statistics; [`IndexConfig::even`] works too).
    /// * `tuner_kind` — the tuning policy: the paper's greedy tuner, the
    ///   safe bandit, or the pinned static seed IC (see [`TunerKind`]).
    ///
    /// # Errors
    /// Propagates tuner parameter validation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        kind: AssessorKind,
        initial: IndexConfig,
        tuner_config: TunerConfig,
        params: CostParams,
        tuner_kind: TunerKind,
    ) -> Result<Self, CoreError> {
        let width = jas.len();
        let tuner = Tuner::new(
            tuner_kind,
            kind,
            width,
            initial.clone(),
            tuner_config,
            params,
        )?;
        Ok(AmriState {
            store: StateStore::new(stream, jas, window, BitAddressIndex::new(initial)),
            tuner,
        })
    }

    /// Declare per-tuple payload bytes for memory accounting.
    pub fn with_payload_bytes(mut self, bytes: u32) -> Self {
        self.store = self.store.with_payload_bytes(bytes);
        self
    }

    /// The underlying store: every index-agnostic operation (expiry,
    /// eviction, spilling, materialization, accounting) is called on it
    /// directly.
    pub fn store(&self) -> &StateStore<BitAddressIndex> {
        &self.store
    }

    /// Mutable access to the underlying store. Searches should go through
    /// [`search`](Self::search) so the assessor sees their patterns.
    pub fn store_mut(&mut self) -> &mut StateStore<BitAddressIndex> {
        &mut self.store
    }

    /// The tuner (read access for metrics).
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Current index configuration.
    pub fn config(&self) -> &IndexConfig {
        self.store.index().config()
    }

    /// Bytes occupied (store + index + assessor entries at
    /// [`crate::layout::ASSESS_ENTRY_BYTES`] each).
    pub fn memory_bytes(&self) -> u64 {
        self.store.memory_bytes()
            + self.tuner.assessor_entries() as u64 * crate::layout::ASSESS_ENTRY_BYTES
    }

    /// Insert an arriving tuple, eagerly (see [`StateStore::insert`]).
    pub fn insert(&mut self, tuple: Tuple, receipt: &mut CostReceipt) -> TupleKey {
        self.store.insert(tuple, receipt)
    }

    /// Serve `req` (see [`StateStore::search`]), feeding the request's
    /// pattern to the assessor. The zero-allocation hot path.
    pub fn search(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
        self.tuner.record(req.pattern);
        self.store.search(req, scratch, receipt, exec);
    }

    /// [`search`](Self::search), inline.
    pub fn search_into(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
    ) {
        self.search(req, scratch, receipt, &SequentialExecutor);
    }

    /// [`maybe_retune_with`](Self::maybe_retune_with), inline.
    pub fn maybe_retune(
        &mut self,
        now: VirtualTime,
        lambda_d: f64,
        lambda_r: f64,
        window_secs: f64,
        receipt: &mut CostReceipt,
    ) -> Option<RetuneReport> {
        let exec = &SequentialExecutor;
        self.maybe_retune_with(now, lambda_d, lambda_r, window_secs, receipt, exec)
    }

    /// Take a tuning decision if due; migrates the physical index on
    /// [`TunerEvent::Retune`] — rebucket and relink passes fanned out
    /// shard-by-shard through `exec` (see
    /// [`BitAddressIndex::migrate_with`]) — and reports what happened.
    /// Decision, outcome, and charges are identical for any executor.
    pub fn maybe_retune_with(
        &mut self,
        now: VirtualTime,
        lambda_d: f64,
        lambda_r: f64,
        window_secs: f64,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) -> Option<RetuneReport> {
        let spilled_frac = self.store.spilled_frac();
        let cache_hit_frac = self.store.cache_hit_frac();
        match self.tuner.maybe_retune(
            now,
            lambda_d,
            lambda_r,
            window_secs,
            spilled_frac,
            cache_hit_frac,
        ) {
            TunerEvent::Retune {
                config,
                current_cd,
                candidate_cd,
                ..
            } => {
                let before = receipt.moved;
                self.store
                    .index_mut()
                    .migrate_with(config.clone(), receipt, exec);
                Some(RetuneReport {
                    config,
                    moved: receipt.moved - before,
                    predicted_gain: current_cd - candidate_cd,
                })
            }
            _ => None,
        }
    }

    /// Serialize the full mutable state: stored tuples and window, the
    /// physical bit-address index (with its tuned configuration), and the
    /// tuner (decision clock, counters, assessor statistics).
    pub fn save(&self, w: &mut crate::snapshot_io::SectionWriter) {
        w.put_str("AMRI");
        self.store.save_state(w);
        self.store.index().save(w);
        self.tuner.save(w);
    }

    /// Overwrite this state from a [`save`](Self::save)d section. The
    /// receiver must be freshly constructed with the original
    /// configuration (stream, JAS, window spec, assessment method, tuner
    /// parameters); shard count is restored from the section.
    pub fn restore_from(
        &mut self,
        r: &mut crate::snapshot_io::SectionReader<'_>,
    ) -> Result<(), crate::snapshot_io::SnapshotError> {
        crate::snapshot_io::expect_tag(r, "AMRI")?;
        self.store.restore_state(r)?;
        *self.store.index_mut() = BitAddressIndex::restore(r)?;
        self.tuner.restore_from(r)
    }
}

impl std::fmt::Debug for AmriState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmriState")
            .field("stream", &self.store.stream())
            .field("tuples", &self.store.len())
            .field("config", self.config())
            .field("tuner", &self.tuner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_hh::CombineStrategy;
    use amri_stream::{AccessPattern, AttrVec, TupleId, VirtualDuration};

    fn mk_state(kind: AssessorKind) -> AmriState {
        AmriState::new(
            StreamId(0),
            vec![AttrId(0), AttrId(1), AttrId(2)],
            WindowSpec::secs(30),
            kind,
            IndexConfig::even(3, 12).unwrap(),
            TunerConfig {
                assess_period: VirtualDuration::from_secs(10),
                min_requests: 50,
                total_bits: 12,
                ..TunerConfig::default()
            },
            CostParams::default(),
            TunerKind::Paper,
        )
        .unwrap()
    }

    fn tuple(id: u64, secs: u64, attrs: &[u64]) -> Tuple {
        Tuple::new(
            TupleId(id),
            StreamId(0),
            VirtualTime::from_secs(secs),
            AttrVec::from_slice(attrs).unwrap(),
        )
    }

    fn req(mask: u32, vals: &[u64]) -> SearchRequest {
        SearchRequest::new(
            AccessPattern::new(mask, 3),
            AttrVec::from_slice(vals).unwrap(),
        )
    }

    fn search(s: &mut AmriState, req: &SearchRequest, r: &mut CostReceipt) -> Vec<TupleKey> {
        let mut scratch = SearchScratch::new();
        s.search_into(req, &mut scratch, r);
        scratch.hits
    }

    #[test]
    fn search_finds_inserted_tuples_and_records_patterns() {
        let mut s = mk_state(AssessorKind::Cdia(CombineStrategy::HighestCount));
        let mut r = CostReceipt::new();
        let k = s.insert(tuple(1, 0, &[7, 8, 9]), &mut r);
        s.insert(tuple(2, 0, &[7, 0, 1]), &mut r);
        let hits = search(&mut s, &req(0b111, &[7, 8, 9]), &mut r);
        assert_eq!(hits, vec![k]);
        assert_eq!(s.store().tuple(k).unwrap().id, TupleId(1));
        assert_eq!(s.tuner().window_requests(), 1);
        assert_eq!(s.store().len(), 2);
        assert!(!s.store().is_empty());
    }

    #[test]
    fn retune_migrates_the_live_index() {
        let mut s = mk_state(AssessorKind::Cdia(CombineStrategy::HighestCount));
        let mut r = CostReceipt::new();
        for i in 0..200 {
            s.insert(tuple(i, 0, &[i % 16, i % 8, i % 4]), &mut r);
        }
        // Workload exclusively on attribute A.
        for i in 0..300 {
            search(&mut s, &req(0b001, &[i % 16, 0, 0]), &mut r);
        }
        let mut mig = CostReceipt::new();
        let report = s
            .maybe_retune(VirtualTime::from_secs(10), 1000.0, 500.0, 30.0, &mut mig)
            .expect("must retune toward A");
        assert_eq!(report.moved, 200, "every live tuple relocated");
        assert!(report.predicted_gain > 0.0);
        assert!(report.config.bits_of(0) >= 10, "{}", report.config);
        assert_eq!(s.config(), &report.config);
        // Searches still correct after migration.
        let hits = search(&mut s, &req(0b001, &[3, 0, 0]), &mut r);
        assert_eq!(
            hits.len(),
            200 / 16 + usize::from(3 < 200 % 16),
            "all A==3 tuples found"
        );
    }

    #[test]
    fn expiry_keeps_index_consistent() {
        let mut s = mk_state(AssessorKind::Sria);
        let mut r = CostReceipt::new();
        s.insert(tuple(1, 0, &[1, 1, 1]), &mut r);
        s.insert(tuple(2, 40, &[1, 1, 1]), &mut r);
        let mut stage = crate::IngestStage::new();
        let removed = s
            .store_mut()
            .expire_staged(VirtualTime::from_secs(35), &mut r, &mut stage);
        assert_eq!(removed, 1);
        s.store_mut().apply_staged(&mut stage, &SequentialExecutor);
        let hits = search(&mut s, &req(0b111, &[1, 1, 1]), &mut r);
        assert_eq!(hits.len(), 1);
        assert_eq!(s.store().tuple(hits[0]).unwrap().id, TupleId(2));
    }

    #[test]
    fn memory_includes_assessor_entries() {
        let mut s = mk_state(AssessorKind::Sria);
        let base = s.memory_bytes();
        let mut r = CostReceipt::new();
        for m in 1..8u32 {
            search(&mut s, &req(m, &[0, 0, 0]), &mut r);
        }
        assert!(
            s.memory_bytes() >= base + 7 * crate::layout::ASSESS_ENTRY_BYTES,
            "assessor table must be charged"
        );
    }
}
