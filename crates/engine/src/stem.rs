//! STeM operators — one windowed, indexed join state per stream, in the
//! four flavors the paper compares.
//!
//! | Flavor | Index | Tuning |
//! |---|---|---|
//! | [`JoinState::Amri`] | bit-address | online (SRIA/CSRIA/DIA/CDIA) |
//! | [`JoinState::MultiHash`] | k hash indices (access modules) | optional: CDIA statistics + conventional selection (re-target the k indices at the k most frequent patterns) |
//! | [`JoinState::StaticBitmap`] | bit-address | none (the §V "non-adapting bitmap index") |
//! | [`JoinState::Scan`] | none | none |
//!
//! All flavors run the identical [`StateStore`] storage code; only the
//! index and the tuning differ — the controlled comparison of §V.

use amri_core::assess::{Assessor, AssessorKind};
use amri_core::{
    AmriState, BitAddressIndex, CostParams, CostReceipt, IndexConfig, IngestStage, MultiHashIndex,
    ScanIndex, SearchScratch, SequentialExecutor, ShardExecutor, StateIndex, StateStore,
    TuneLedger, TunerConfig, TunerKind, TupleKey,
};
use amri_stream::{
    AccessPattern, AttrId, SearchRequest, StreamId, Tuple, VirtualDuration, VirtualTime, WindowSpec,
};

/// Conventional index selection for the multi-hash baseline: keep the `k`
/// hash indices pointed at the `k` most frequent access patterns
/// (§V: "adaptive hash indices that utilize highest count compression CDIA
/// index tuning and conventional index selection").
pub struct HashTuner {
    assessor: Box<dyn Assessor>,
    /// Number of hash indices the module maintains.
    k: usize,
    theta: f64,
    period: VirtualDuration,
    min_requests: u64,
    last_decision: VirtualTime,
}

impl HashTuner {
    /// Build a hash tuner keeping `k` indices, assessed by `kind`.
    pub fn new(kind: AssessorKind, width: usize, k: usize, tuner: TunerConfig) -> Self {
        HashTuner {
            assessor: kind.build(width, tuner.epsilon, tuner.seed),
            k,
            theta: tuner.theta,
            period: tuner.assess_period,
            min_requests: tuner.min_requests,
            last_decision: VirtualTime::ZERO,
        }
    }

    /// Record a request pattern.
    pub fn record(&mut self, ap: AccessPattern) {
        self.assessor.record(ap);
    }

    /// Statistics entries currently held (memory accounting).
    pub fn entries(&self) -> usize {
        self.assessor.entries()
    }

    /// Serialize the mutable tuning state (decision clock + assessor
    /// statistics); `k`, θ, period, and volume floor are construction-time
    /// configuration.
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        w.put_str("HASHTUNER");
        w.put_time(self.last_decision);
        self.assessor.save(w);
    }

    /// Overwrite the mutable tuning state from a [`save`](Self::save)d
    /// section.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        amri_core::snapshot_io::expect_tag(r, "HASHTUNER")?;
        self.last_decision = r.get_time()?;
        self.assessor.load(r)
    }

    /// If a decision is due, return the `k` patterns the indices should
    /// serve (most frequent first, empty patterns excluded).
    pub fn maybe_select(&mut self, now: VirtualTime) -> Option<Vec<AccessPattern>> {
        if now.since(self.last_decision) < self.period || self.assessor.n() < self.min_requests {
            return None;
        }
        self.last_decision = now;
        let frequent = self.assessor.frequent(self.theta);
        self.assessor.reset();
        let picks: Vec<AccessPattern> = frequent
            .into_iter()
            .map(|(p, _)| p)
            .filter(|p| !p.is_empty())
            .take(self.k)
            .collect();
        if picks.is_empty() {
            None
        } else {
            Some(picks)
        }
    }
}

impl std::fmt::Debug for HashTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashTuner")
            .field("k", &self.k)
            .field("kind", &self.assessor.kind().label())
            .finish()
    }
}

/// A join state in one of the paper's four index flavors.
// Amri is the common case in every experiment; boxing it to shrink the
// rare variants would put a deref on the probe hot path.
#[allow(clippy::large_enum_variant)]
pub enum JoinState {
    /// AMRI: tuned bit-address index (the contribution).
    Amri(AmriState),
    /// State-of-the-art baseline: k hash indices, optionally re-targeted.
    MultiHash {
        /// The underlying store.
        store: StateStore<MultiHashIndex>,
        /// Conventional re-selection of the indexed patterns, if adaptive.
        tuner: Option<HashTuner>,
    },
    /// Non-adapting bit-address index (the §V bitmap baseline).
    StaticBitmap(StateStore<BitAddressIndex>),
    /// No index at all.
    Scan(StateStore<ScanIndex>),
}

/// What a retune did (surfaced to run metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct StemRetune {
    /// Human-readable description of the new index target.
    pub description: String,
    /// Entries relocated/rebuilt.
    pub moved: u64,
}

/// The flavor's backing store with its index type erased — the four arms
/// every index-agnostic operation shares, written once. `$store` picks
/// [`AmriState::store`] or [`AmriState::store_mut`] to match `$state`'s
/// mutability.
macro_rules! erased_store {
    ($state:expr, $store:ident) => {
        match $state {
            JoinState::Amri(s) => s.$store(),
            JoinState::MultiHash { store, .. } => store,
            JoinState::StaticBitmap(s) => s,
            JoinState::Scan(s) => s,
        }
    };
}

impl JoinState {
    /// The backing store, whatever its index: every index-agnostic read
    /// (window ages, spill and cache accounting, stored tuples) is called
    /// on it directly.
    pub fn store(&self) -> &StateStore<dyn StateIndex> {
        erased_store!(self, store)
    }

    /// The backing store, mutably: eviction, spilling, promotion and
    /// readahead are called on it directly. Searches go through
    /// [`flush_ingest_then_search`](Self::flush_ingest_then_search) so the
    /// flavor's tuner sees their patterns.
    pub fn store_mut(&mut self) -> &mut StateStore<dyn StateIndex> {
        erased_store!(self, store_mut)
    }

    /// Live tuples in the state.
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// True iff the state holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live tuples currently spill-resident.
    pub fn spilled_len(&self) -> usize {
        self.store().spilled_len()
    }

    /// Flavor label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            JoinState::Amri(_) => "amri",
            JoinState::MultiHash { tuner: Some(_), .. } => "multi-hash-adaptive",
            JoinState::MultiHash { tuner: None, .. } => "multi-hash-static",
            JoinState::StaticBitmap(_) => "static-bitmap",
            JoinState::Scan(_) => "scan",
        }
    }

    /// The AMRI tuner's cumulative decision ledger (retunes, predicted /
    /// realized retune benefit, regret vs the static seed IC). Zero for
    /// the non-AMRI flavors, whose tuning has no what-if accounting.
    pub fn tune_ledger(&self) -> TuneLedger {
        if let JoinState::Amri(s) = self {
            s.tuner().ledger()
        } else {
            TuneLedger::default()
        }
    }

    /// Accounted bytes (store + index + the flavor's tuning statistics).
    pub fn memory_bytes(&self) -> u64 {
        let stat_entries = match self {
            JoinState::Amri(s) => s.tuner().assessor_entries(),
            JoinState::MultiHash { tuner: Some(t), .. } => t.entries(),
            _ => 0,
        };
        self.store().memory_bytes() + stat_entries as u64 * amri_core::layout::ASSESS_ENTRY_BYTES
    }

    /// Re-partition the flavor's bit-address arena into `shard_count`
    /// shards (construction-time plumbing; charges nothing). The hash and
    /// scan flavors have no bit-address arena and ignore the call.
    ///
    /// # Panics
    /// Panics unless `shard_count` is a power of two (≥ 1).
    pub fn set_shards(&mut self, shard_count: usize) {
        match self {
            JoinState::Amri(s) => s.store_mut().index_mut().set_shard_count(shard_count),
            JoinState::StaticBitmap(s) => s.index_mut().set_shard_count(shard_count),
            JoinState::MultiHash { .. } | JoinState::Scan(_) => {}
        }
    }

    /// Attach a disk spill tier to the flavor's backing store — cold
    /// tuples can then leave RAM as probe-ready stubs.
    pub fn enable_spill(&mut self, tier: amri_core::SpillTier) {
        self.store_mut().enable_spill(tier);
    }

    /// Spill up to `max` of the oldest resident tuples into one disk
    /// block (see [`StateStore::spill_oldest`]).
    pub fn spill_oldest(&mut self, max: usize, receipt: &mut CostReceipt) -> usize {
        self.store_mut().spill_oldest(max, receipt)
    }

    /// Ingest one arrival: expire out-of-window tuples, then store the
    /// tuple. Every cost is charged now; a sharded index defers its
    /// physical link/unlink work into `stage` (replayed per shard by
    /// [`flush_ingest`](Self::flush_ingest) /
    /// [`flush_ingest_then_search`](Self::flush_ingest_then_search)), an
    /// unsharded one applies it immediately and leaves the stage empty.
    pub fn ingest_arrival(
        &mut self,
        tuple: Tuple,
        now: VirtualTime,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
    ) {
        let store = self.store_mut();
        store.expire_staged(now, receipt, stage);
        store.insert_staged(tuple, receipt, stage);
    }

    /// Flush every staged ingest operation through `exec` (no charges —
    /// costs were taken at ingest time). Must run before any observation
    /// of the state: memory accounting, retuning, eviction, snapshots.
    pub fn flush_ingest(&mut self, stage: &mut IngestStage, exec: &dyn ShardExecutor) {
        self.store_mut().apply_staged(stage, exec);
    }

    /// Flush the stage, then serve `req` into the caller's scratch,
    /// recording the pattern into the flavor's tuner statistics if it has
    /// one. The zero-allocation hot path — the engine reuses one scratch
    /// per STeM ([`Stem::scratch`]) — so each flavor's store is searched
    /// by its concrete type.
    pub fn flush_ingest_then_search(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        stage: &mut IngestStage,
        exec: &dyn ShardExecutor,
    ) {
        self.flush_ingest(stage, exec);
        match self {
            JoinState::Amri(s) => s.search(req, scratch, receipt, exec),
            JoinState::MultiHash { store, tuner } => {
                if let Some(t) = tuner {
                    t.record(req.pattern);
                }
                store.search(req, scratch, receipt, exec)
            }
            JoinState::StaticBitmap(s) => s.search(req, scratch, receipt, exec),
            JoinState::Scan(s) => s.search(req, scratch, receipt, exec),
        }
    }

    /// Materialize a whole batch of search hits into `out` (see
    /// [`StateStore::materialize_batch`]). Returns tuples lost to
    /// unrecoverable blocks.
    pub fn materialize_batch(
        &mut self,
        keys: &[TupleKey],
        out: &mut Vec<Option<Tuple>>,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) -> usize {
        self.store_mut().materialize_batch(keys, out, receipt, exec)
    }

    /// Insert an arriving tuple, eagerly (see [`StateStore::insert`]).
    pub fn insert(&mut self, tuple: Tuple, receipt: &mut CostReceipt) -> TupleKey {
        self.store_mut().insert(tuple, receipt)
    }

    /// Expire out-of-window tuples with nothing left staged: the stage-less
    /// convenience over [`StateStore::expire_staged`].
    pub fn expire(&mut self, now: VirtualTime, receipt: &mut CostReceipt) -> usize {
        let mut stage = IngestStage::new();
        let removed = self.store_mut().expire_staged(now, receipt, &mut stage);
        self.flush_ingest(&mut stage, &SequentialExecutor);
        removed
    }

    /// [`flush_ingest_then_search`](Self::flush_ingest_then_search) with
    /// nothing staged, inline.
    pub fn search_into(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
    ) {
        let mut stage = IngestStage::new();
        self.flush_ingest_then_search(req, scratch, receipt, &mut stage, &SequentialExecutor);
    }

    /// [`maybe_retune_with`](Self::maybe_retune_with), inline.
    pub fn maybe_retune(
        &mut self,
        now: VirtualTime,
        lambda_d: f64,
        lambda_r: f64,
        window_secs: f64,
        receipt: &mut CostReceipt,
    ) -> Option<StemRetune> {
        let exec = &SequentialExecutor;
        self.maybe_retune_with(now, lambda_d, lambda_r, window_secs, receipt, exec)
    }

    /// Take a tuning decision if this flavor tunes and one is due. AMRI's
    /// index migration fans out shard-by-shard through `exec` (see
    /// [`AmriState::maybe_retune_with`]); the hash flavor's retarget has
    /// no sharded arena and stays sequential. Decisions, outcomes, and
    /// charges are identical for any executor.
    pub fn maybe_retune_with(
        &mut self,
        now: VirtualTime,
        lambda_d: f64,
        lambda_r: f64,
        window_secs: f64,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) -> Option<StemRetune> {
        match self {
            JoinState::Amri(s) => s
                .maybe_retune_with(now, lambda_d, lambda_r, window_secs, receipt, exec)
                .map(|r| StemRetune {
                    description: r.config.to_string(),
                    moved: r.moved,
                }),
            JoinState::MultiHash { store, tuner } => {
                let picks = tuner.as_mut()?.maybe_select(now)?;
                if picks == store.index().patterns() {
                    return None;
                }
                let before = receipt.moved;
                // Split borrows: retarget needs the live entries and the
                // index mutably; clone the (key, jas) pairs first.
                let live: Vec<(TupleKey, amri_stream::AttrVec)> =
                    store.iter_jas().map(|(k, v)| (k, *v)).collect();
                let description = format!("hash{:?}", &picks);
                store
                    .index_mut()
                    .retarget(picks, live.iter().map(|(k, v)| (*k, v)), receipt);
                Some(StemRetune {
                    description,
                    moved: receipt.moved - before,
                })
            }
            JoinState::StaticBitmap(_) | JoinState::Scan(_) => None,
        }
    }

    /// Serialize the flavor's full mutable state (stored tuples, index
    /// structure, tuner statistics) behind a flavor tag.
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        match self {
            JoinState::Amri(s) => {
                w.put_str("amri");
                s.save(w);
            }
            JoinState::MultiHash { store, tuner } => {
                w.put_str("multi-hash");
                store.save_state(w);
                store.index().save(w);
                match tuner {
                    Some(t) => {
                        w.put_bool(true);
                        t.save(w);
                    }
                    None => w.put_bool(false),
                }
            }
            JoinState::StaticBitmap(s) => {
                w.put_str("static-bitmap");
                s.save_state(w);
                s.index().save(w);
            }
            JoinState::Scan(s) => {
                w.put_str("scan");
                s.save_state(w);
                s.index().save(w);
            }
        }
    }

    /// Overwrite this state from a [`save`](Self::save)d section. The
    /// receiver must be the same flavor, freshly constructed with the
    /// original configuration.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        use amri_core::snapshot_io::SnapshotError;
        let tag = r.get_str()?;
        match (self, tag.as_str()) {
            (JoinState::Amri(s), "amri") => s.restore_from(r),
            (JoinState::MultiHash { store, tuner }, "multi-hash") => {
                store.restore_state(r)?;
                let index = MultiHashIndex::restore(r)?;
                indexes_the_store(
                    "multi-hash",
                    index.entries() / index.n_indices(),
                    store.len(),
                )?;
                *store.index_mut() = index;
                let saved_tuner = r.get_bool()?;
                match (tuner, saved_tuner) {
                    (Some(t), true) => t.restore_from(r),
                    (None, false) => Ok(()),
                    _ => Err(SnapshotError::Malformed(
                        "hash-tuner presence mismatch".into(),
                    )),
                }
            }
            (JoinState::StaticBitmap(s), "static-bitmap") => {
                s.restore_state(r)?;
                *s.index_mut() = amri_core::BitAddressIndex::restore(r)?;
                Ok(())
            }
            (JoinState::Scan(s), "scan") => {
                s.restore_state(r)?;
                let index = ScanIndex::restore(r)?;
                indexes_the_store("scan", index.entries(), s.len())?;
                *s.index_mut() = index;
                Ok(())
            }
            (state, _) => Err(SnapshotError::Malformed(format!(
                "state section holds {tag}, expected {}",
                state.kind()
            ))),
        }
    }
}

/// A restored index must count exactly the live tuples of the store
/// restored just before it: one that counts more underflows at the next
/// expiry, one that counts fewer misses tuples.
fn indexes_the_store(
    kind: &str,
    indexed: usize,
    live: usize,
) -> Result<(), amri_core::snapshot_io::SnapshotError> {
    if indexed == live {
        Ok(())
    } else {
        Err(amri_core::snapshot_io::SnapshotError::Malformed(format!(
            "{kind} index counts {indexed} tuples, its store holds {live}"
        )))
    }
}

impl std::fmt::Debug for JoinState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JoinState::{}(len={})", self.kind(), self.len())
    }
}

/// A STeM operator: a join state plus its identity within the query.
#[derive(Debug)]
pub struct Stem {
    /// The stream this STeM stores.
    pub stream: StreamId,
    /// The state.
    pub state: JoinState,
    /// Reusable search buffer: one per STeM, so the executor's inner loop
    /// never allocates per request
    /// ([`JoinState::flush_ingest_then_search`]).
    pub scratch: SearchScratch,
    /// Reusable staged-ingest lanes ([`JoinState::ingest_arrival`]).
    /// Transient like `scratch` — always drained before any observation
    /// (and therefore before every snapshot), so it is never captured.
    pub ingest_stage: IngestStage,
    /// Reusable batch-materialization buffer, parallel to
    /// `scratch.hits` ([`JoinState::materialize_batch`]). Transient.
    pub mat_buf: Vec<Option<Tuple>>,
    /// Requests served (for λ_r estimation).
    pub requests_served: u64,
    /// Matches returned (for selectivity statistics).
    pub matches_returned: u64,
}

impl Stem {
    /// Wrap a join state.
    pub fn new(stream: StreamId, state: JoinState) -> Self {
        Stem {
            stream,
            state,
            scratch: SearchScratch::new(),
            ingest_stage: IngestStage::new(),
            mat_buf: Vec::new(),
            requests_served: 0,
            matches_returned: 0,
        }
    }

    /// Observed matches-per-request (1.0 until data exists).
    pub fn observed_fanout(&self) -> f64 {
        if self.requests_served == 0 {
            1.0
        } else {
            self.matches_returned as f64 / self.requests_served as f64
        }
    }

    /// Serialize the STeM: its join state plus the served/matched counters
    /// that feed λ_r and selectivity estimation. The search scratch is
    /// transient and not captured.
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        w.put_u64(self.requests_served);
        w.put_u64(self.matches_returned);
        self.state.save(w);
    }

    /// Overwrite this STeM from a [`save`](Self::save)d section.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        self.requests_served = r.get_u64()?;
        self.matches_returned = r.get_u64()?;
        self.state.restore_from(r)
    }
}

/// Convenience constructors for the four flavors.
impl JoinState {
    /// An AMRI state (see [`AmriState::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn amri(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        kind: AssessorKind,
        initial: IndexConfig,
        tuner: TunerConfig,
        params: CostParams,
        payload_bytes: u32,
        tuner_kind: TunerKind,
    ) -> Result<Self, amri_core::CoreError> {
        let s = AmriState::new(
            stream, jas, window, kind, initial, tuner, params, tuner_kind,
        )?
        .with_payload_bytes(payload_bytes);
        Ok(JoinState::Amri(s))
    }

    /// A multi-hash (access module) state over `patterns`, optionally with
    /// conventional adaptive re-selection.
    pub fn multi_hash(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        patterns: Vec<AccessPattern>,
        tuner: Option<HashTuner>,
        payload_bytes: u32,
    ) -> Self {
        let store = StateStore::new(stream, jas, window, MultiHashIndex::new(patterns))
            .with_payload_bytes(payload_bytes);
        JoinState::MultiHash { store, tuner }
    }

    /// A non-adapting bit-address state.
    pub fn static_bitmap(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        config: IndexConfig,
        payload_bytes: u32,
    ) -> Self {
        JoinState::StaticBitmap(
            StateStore::new(stream, jas, window, BitAddressIndex::new(config))
                .with_payload_bytes(payload_bytes),
        )
    }

    /// A scan-only state.
    pub fn scan(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        payload_bytes: u32,
    ) -> Self {
        JoinState::Scan(
            StateStore::new(stream, jas, window, ScanIndex::new())
                .with_payload_bytes(payload_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_hh::CombineStrategy;
    use amri_stream::{AttrVec, TupleId};

    fn jas3() -> Vec<AttrId> {
        vec![AttrId(0), AttrId(1), AttrId(2)]
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

    fn search(
        state: &mut JoinState,
        request: &SearchRequest,
        r: &mut CostReceipt,
    ) -> Vec<TupleKey> {
        let mut scratch = SearchScratch::new();
        state.search_into(request, &mut scratch, r);
        scratch.hits
    }

    fn all_flavors() -> Vec<JoinState> {
        let w = WindowSpec::secs(30);
        vec![
            JoinState::amri(
                StreamId(0),
                jas3(),
                w,
                AssessorKind::Cdia(CombineStrategy::HighestCount),
                IndexConfig::even(3, 12).unwrap(),
                TunerConfig {
                    total_bits: 12,
                    ..TunerConfig::default()
                },
                CostParams::default(),
                100,
                TunerKind::Paper,
            )
            .unwrap(),
            JoinState::multi_hash(
                StreamId(0),
                jas3(),
                w,
                vec![AccessPattern::new(0b001, 3)],
                Some(HashTuner::new(
                    AssessorKind::Cdia(CombineStrategy::HighestCount),
                    3,
                    1,
                    TunerConfig::default(),
                )),
                100,
            ),
            JoinState::static_bitmap(
                StreamId(0),
                jas3(),
                w,
                IndexConfig::even(3, 12).unwrap(),
                100,
            ),
            JoinState::scan(StreamId(0), jas3(), w, 100),
        ]
    }

    #[test]
    fn every_flavor_agrees_on_search_results() {
        let mut receipts = Vec::new();
        for mut state in all_flavors() {
            let mut r = CostReceipt::new();
            for i in 0..50u64 {
                state.insert(tuple(i, 0, &[i % 5, i % 3, i % 7]), &mut r);
            }
            let mut r = CostReceipt::new();
            let mut hits = search(&mut state, &req(0b001, &[2, 0, 0]), &mut r);
            hits.sort();
            assert_eq!(hits.len(), 10, "{}: A==2 count", state.kind());
            // Resolve a hit back to its tuple.
            let t = state.store().tuple(hits[0]).unwrap();
            assert_eq!(t.attrs[0], 2);
            receipts.push((state.kind(), r));
        }
        // The scan flavor must pay the most comparisons.
        let scan_cmp = receipts.iter().find(|(k, _)| *k == "scan").unwrap().1;
        let amri_cmp = receipts.iter().find(|(k, _)| *k == "amri").unwrap().1;
        assert!(
            scan_cmp.comparisons > amri_cmp.comparisons,
            "scan {} vs amri {}",
            scan_cmp.comparisons,
            amri_cmp.comparisons
        );
    }

    #[test]
    fn expiry_works_across_flavors() {
        for mut state in all_flavors() {
            let mut r = CostReceipt::new();
            state.insert(tuple(1, 0, &[1, 1, 1]), &mut r);
            state.insert(tuple(2, 50, &[1, 1, 1]), &mut r);
            assert_eq!(state.expire(VirtualTime::from_secs(40), &mut r), 1);
            assert_eq!(state.len(), 1, "{}", state.kind());
            assert!(!state.is_empty());
        }
    }

    #[test]
    fn hash_tuner_retargets_to_frequent_patterns() {
        let mut state = JoinState::multi_hash(
            StreamId(0),
            jas3(),
            WindowSpec::secs(30),
            vec![AccessPattern::new(0b001, 3)],
            Some(HashTuner::new(
                AssessorKind::Cdia(CombineStrategy::HighestCount),
                3,
                1,
                TunerConfig {
                    min_requests: 50,
                    assess_period: VirtualDuration::from_secs(5),
                    ..TunerConfig::default()
                },
            )),
            0,
        );
        let mut r = CostReceipt::new();
        for i in 0..40u64 {
            state.insert(tuple(i, 0, &[i % 4, i % 5, i % 6]), &mut r);
        }
        // The workload only ever searches pattern C.
        for i in 0..100u64 {
            search(&mut state, &req(0b100, &[0, 0, i % 6]), &mut r);
        }
        let retune = state
            .maybe_retune(VirtualTime::from_secs(10), 100.0, 100.0, 30.0, &mut r)
            .expect("hash module must re-target");
        assert!(retune.description.contains("C"), "{retune:?}");
        assert_eq!(retune.moved, 40, "one rebuilt index over 40 tuples");
        // Now the C-pattern search uses a hash index (few comparisons).
        let mut r2 = CostReceipt::new();
        let hits = search(&mut state, &req(0b100, &[0, 0, 3]), &mut r2);
        assert!(!hits.is_empty());
        assert!(
            r2.comparisons < 40,
            "C search must no longer scan: {}",
            r2.comparisons
        );
    }

    #[test]
    fn static_flavors_never_retune() {
        for mut state in all_flavors() {
            if matches!(state, JoinState::StaticBitmap(_) | JoinState::Scan(_)) {
                let mut r = CostReceipt::new();
                for i in 0..200u64 {
                    search(&mut state, &req(0b001, &[i, 0, 0]), &mut r);
                }
                assert!(state
                    .maybe_retune(VirtualTime::from_secs(100), 100.0, 100.0, 30.0, &mut r)
                    .is_none());
            }
        }
    }

    /// A restored multi-hash or scan index must count the live tuples of
    /// the store restored just before it. An image whose index counts
    /// more (the next expiry would underflow) or fewer is refused with
    /// `Malformed` naming both counts, and a good image still restores —
    /// and expires — afterwards.
    #[test]
    fn restore_refuses_an_index_that_miscounts_its_store() {
        use amri_core::snapshot_io::{SectionReader, SectionWriter, SnapshotError};
        let w = WindowSpec::secs(30);
        let fresh = |hash: bool| {
            if hash {
                JoinState::multi_hash(
                    StreamId(0),
                    jas3(),
                    w,
                    vec![AccessPattern::new(0b001, 3)],
                    None,
                    0,
                )
            } else {
                JoinState::scan(StreamId(0), jas3(), w, 0)
            }
        };
        let filled = |hash: bool, n: u64| {
            let mut state = fresh(hash);
            let mut r = CostReceipt::new();
            for i in 0..n {
                state.insert(tuple(i, i, &[i, 1, 2]), &mut r);
            }
            state
        };
        // The store of `store_of`, then the index of `index_of`.
        let spliced = |store_of: &JoinState, index_of: &JoinState| {
            let mut w = SectionWriter::new();
            match (store_of, index_of) {
                (JoinState::MultiHash { store, .. }, JoinState::MultiHash { store: other, .. }) => {
                    w.put_str("multi-hash");
                    store.save_state(&mut w);
                    other.index().save(&mut w);
                    w.put_bool(false);
                }
                (JoinState::Scan(store), JoinState::Scan(other)) => {
                    w.put_str("scan");
                    store.save_state(&mut w);
                    other.index().save(&mut w);
                }
                _ => unreachable!("the test splices like flavors"),
            }
            w.into_bytes()
        };
        for hash in [true, false] {
            let kind = if hash { "multi-hash" } else { "scan" };
            let (two, three) = (filled(hash, 2), filled(hash, 3));
            for (store_of, index_of, counts) in [(&two, &three, "3"), (&three, &two, "2")] {
                let holds = store_of.len();
                match fresh(hash)
                    .restore_from(&mut SectionReader::new(&spliced(store_of, index_of)))
                {
                    Err(SnapshotError::Malformed(why)) => assert_eq!(
                        why,
                        format!("{kind} index counts {counts} tuples, its store holds {holds}")
                    ),
                    other => panic!("{kind}: expected Malformed, got {other:?}"),
                }
            }
            let mut state = fresh(hash);
            state
                .restore_from(&mut SectionReader::new(&spliced(&two, &two)))
                .unwrap();
            assert_eq!(state.len(), 2);
            let mut r = CostReceipt::new();
            assert_eq!(
                state.expire(VirtualTime::from_secs(100), &mut r),
                2,
                "{kind}"
            );
        }
    }

    #[test]
    fn stem_tracks_fanout() {
        let mut stem = Stem::new(StreamId(0), all_flavors().pop().unwrap());
        assert_eq!(stem.observed_fanout(), 1.0);
        stem.requests_served = 10;
        stem.matches_returned = 25;
        assert!((stem.observed_fanout() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn memory_ranks_flavors_as_the_paper_argues() {
        // With several hash indices, the access-module state must cost more
        // bytes than AMRI's single bit-address index.
        let w = WindowSpec::secs(1000);
        let mut hash = JoinState::multi_hash(
            StreamId(0),
            jas3(),
            w,
            (1u32..8).map(|m| AccessPattern::new(m, 3)).collect(),
            None,
            100,
        );
        let mut amri = JoinState::amri(
            StreamId(0),
            jas3(),
            w,
            AssessorKind::Sria,
            IndexConfig::even(3, 12).unwrap(),
            TunerConfig {
                total_bits: 12,
                ..TunerConfig::default()
            },
            CostParams::default(),
            100,
            TunerKind::Paper,
        )
        .unwrap();
        let mut r = CostReceipt::new();
        for i in 0..500u64 {
            hash.insert(tuple(i, 0, &[i % 5, i % 3, i % 7]), &mut r);
            amri.insert(tuple(i, 0, &[i % 5, i % 3, i % 7]), &mut r);
        }
        assert!(
            hash.memory_bytes() > amri.memory_bytes() * 2,
            "7 hash indices ({}) must dwarf AMRI ({})",
            hash.memory_bytes(),
            amri.memory_bytes()
        );
    }
}
