//! STeM operators — one windowed, indexed join state per stream, in the
//! four flavors the paper compares, built from two index structures.
//!
//! | Flavor | State | Tuning |
//! |---|---|---|
//! | [`JoinState::amri`] | [`JoinState::Amri`]: bit-address | online (SRIA/CSRIA/DIA/CDIA) |
//! | [`JoinState::multi_hash`] | [`JoinState::MultiHash`]: k hash indices (access modules) | optional: CDIA statistics + conventional selection (re-target the k indices at the k most frequent patterns) |
//! | [`JoinState::static_bitmap`] | [`JoinState::Amri`] under [`TunerKind::Static`] | none (the §V "non-adapting bitmap index") |
//! | [`JoinState::scan`] | [`JoinState::MultiHash`] with no index | none: every search scans |
//!
//! All flavors run the identical [`StateStore`] storage code; only the
//! index and the tuning differ — the controlled comparison of §V.

use amri_core::assess::{Assessor, AssessorKind};
use amri_core::{
    BitAddressIndex, CostParams, CostReceipt, IndexConfig, IngestStage, MultiHashIndex,
    SearchScratch, ShardExecutor, StateIndex, StateStore, TuneLedger, Tuner, TunerConfig,
    TunerEvent, TunerKind, TupleKey,
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

/// A join state in one of the paper's four index flavors: a store plus
/// what tunes it.
// Amri is the common case in every experiment; boxing it to shrink the
// hash variant would put a deref on the probe hot path.
#[allow(clippy::large_enum_variant)]
pub enum JoinState {
    /// AMRI: tuned bit-address index (the contribution); under
    /// [`TunerKind::Static`], the non-adapting bitmap.
    Amri {
        /// The underlying store.
        store: StateStore<BitAddressIndex>,
        /// Assessment and retune decisions for the index configuration.
        tuner: Tuner,
    },
    /// State-of-the-art baseline: k hash indices, optionally re-targeted;
    /// with no index and no tuner, the scan flavor.
    MultiHash {
        /// The underlying store.
        store: StateStore<MultiHashIndex>,
        /// Conventional re-selection of the indexed patterns, if adaptive.
        tuner: Option<HashTuner>,
    },
}

/// What a retune did (surfaced to run metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct StemRetune {
    /// Human-readable description of the new index target.
    pub description: String,
    /// Entries relocated/rebuilt.
    pub moved: u64,
}

impl JoinState {
    /// The backing store, whatever its index: every index-agnostic read
    /// (window ages, spill and cache accounting, stored tuples) is called
    /// on it directly.
    pub fn store(&self) -> &StateStore<dyn StateIndex> {
        match self {
            JoinState::Amri { store, .. } => store,
            JoinState::MultiHash { store, .. } => store,
        }
    }

    /// The backing store, mutably: eviction, spilling, promotion and
    /// readahead are called on it directly. Searches go through
    /// [`search`](Self::search) so the flavor's tuner sees their patterns.
    pub fn store_mut(&mut self) -> &mut StateStore<dyn StateIndex> {
        match self {
            JoinState::Amri { store, .. } => store,
            JoinState::MultiHash { store, .. } => store,
        }
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
            JoinState::Amri { tuner, .. } if tuner.kind() == TunerKind::Static => "static-bitmap",
            JoinState::Amri { .. } => "amri",
            JoinState::MultiHash { tuner: Some(_), .. } => "multi-hash-adaptive",
            JoinState::MultiHash { store, .. } if store.index().n_indices() == 0 => "scan",
            JoinState::MultiHash { .. } => "multi-hash-static",
        }
    }

    /// The AMRI tuner's cumulative decision ledger (retunes, predicted /
    /// realized retune benefit, regret vs the static seed IC). Zero for
    /// the hash flavors, whose tuning has no what-if accounting.
    pub fn tune_ledger(&self) -> TuneLedger {
        match self {
            JoinState::Amri { tuner, .. } => tuner.ledger(),
            JoinState::MultiHash { .. } => TuneLedger::default(),
        }
    }

    /// Accounted bytes (store + index + the flavor's tuning statistics).
    pub fn memory_bytes(&self) -> u64 {
        let stat_entries = match self {
            JoinState::Amri { tuner, .. } => tuner.assessor_entries(),
            JoinState::MultiHash { tuner, .. } => tuner.as_ref().map_or(0, HashTuner::entries),
        };
        self.store().memory_bytes() + stat_entries as u64 * amri_core::layout::ASSESS_ENTRY_BYTES
    }

    /// Re-partition the flavor's bit-address arena into `shard_count`
    /// shards (construction-time plumbing; charges nothing). The hash
    /// flavors have no bit-address arena and ignore the call.
    ///
    /// # Panics
    /// Panics unless `shard_count` is a power of two (≥ 1).
    pub fn set_shards(&mut self, shard_count: usize) {
        if let JoinState::Amri { store, .. } = self {
            store.index_mut().set_shard_count(shard_count);
        }
    }

    /// Attach a disk spill tier to the flavor's backing store — cold
    /// tuples can then leave RAM as probe-ready stubs.
    pub fn enable_spill(&mut self, tier: amri_core::SpillTier) {
        self.store_mut().enable_spill(tier);
    }

    /// Spill up to `max` of the oldest resident tuples into one disk
    /// block (see [`StateStore::spill_oldest`]); 0 if none moved.
    pub fn spill_oldest(&mut self, max: usize, receipt: &mut CostReceipt) -> usize {
        self.store_mut().spill_oldest(max, receipt).unwrap_or(0)
    }

    /// Ingest one arrival: expire out-of-window tuples, then store and
    /// index the tuple.
    pub fn ingest(&mut self, tuple: Tuple, now: VirtualTime, receipt: &mut CostReceipt) {
        let store = self.store_mut();
        store.expire(now, receipt);
        store.insert(tuple, receipt);
    }

    /// Serve `req` into the caller's scratch, recording the pattern into
    /// the flavor's tuner statistics if it has one. The zero-allocation
    /// hot path — the engine reuses one scratch per STeM
    /// ([`Stem::scratch`]) — so each flavor's store is searched by its
    /// concrete type.
    pub fn search(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        exec: &dyn ShardExecutor,
    ) {
        match self {
            JoinState::Amri { store, tuner } => {
                tuner.record(req.pattern);
                store.search(req, scratch, receipt, exec)
            }
            JoinState::MultiHash { store, tuner } => {
                if let Some(t) = tuner {
                    t.record(req.pattern);
                }
                store.search(req, scratch, receipt, exec)
            }
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

    /// Take a tuning decision if this flavor tunes and one is due. AMRI
    /// migrates its index on [`TunerEvent::Retune`] — rebucket and relink
    /// passes fanned out shard-by-shard through `exec` (see
    /// [`BitAddressIndex::migrate_with`]); the hash flavor's retarget has
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
        let before = receipt.moved;
        let description = match self {
            JoinState::Amri { store, tuner } => {
                let (spilled, hits) = (store.spilled_frac(), store.cache_hit_frac());
                let event = tuner.maybe_retune(now, lambda_d, lambda_r, window_secs, spilled, hits);
                let TunerEvent::Retune { config, .. } = event else {
                    return None;
                };
                let description = config.to_string();
                store.index_mut().migrate_with(config, receipt, exec);
                description
            }
            JoinState::MultiHash { store, tuner } => {
                let picks = tuner.as_mut()?.maybe_select(now)?;
                if picks == store.index().patterns() {
                    return None;
                }
                let description = format!("hash{:?}", &picks);
                let (index, live) = store.index_mut_with_jas();
                index.retarget(picks, live, receipt);
                description
            }
        };
        Some(StemRetune {
            description,
            moved: receipt.moved - before,
        })
    }

    /// Serialize the flavor's mutable state behind a flavor tag: the
    /// stored tuples and window, then (AMRI) the tuner, whose endorsed
    /// configuration is the index's, or (hash) the sub-indices' masks and
    /// the tuner, if any. No index is saved: each is derived from the
    /// store and its configuration, and answers in key order whatever
    /// order it was built in ([`StateStore::search`]).
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        match self {
            JoinState::Amri { store, tuner } => {
                w.put_str("amri");
                store.save_state(w);
                tuner.save(w);
            }
            JoinState::MultiHash { store, tuner } => {
                w.put_str("multi-hash");
                store.save_state(w);
                w.put_str("MULTIHASH");
                let patterns = store.index().patterns();
                w.put_usize(patterns.len());
                for p in patterns {
                    w.put_u32(p.mask());
                }
                w.put_bool(tuner.is_some());
                if let Some(t) = tuner {
                    t.save(w);
                }
            }
        }
    }

    /// Overwrite this state from a [`save`](Self::save)d section. The
    /// receiver must be the same flavor, freshly constructed with the
    /// original configuration, shard count included. Either flavor
    /// rebuilds its index from the restored store ([`StateStore::reindex`]):
    /// AMRI under the restored tuner's configuration, a hash state over
    /// the saved masks.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`](amri_core::snapshot_io::SnapshotError)
    /// for another flavor's section, for a sub-index count the bytes left
    /// cannot hold, an empty mask or one wider than the JAS, for an image
    /// with no hash index when the state has one or the reverse, for a
    /// tuner present in only one of the two, and for whatever the store or
    /// tuner refuses.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        use amri_core::snapshot_io::SnapshotError;
        let malformed = |why: String| Err(SnapshotError::Malformed(why));
        let tag = r.get_str()?;
        match (self, tag.as_str()) {
            (JoinState::Amri { store, tuner }, "amri") => {
                store.restore_state(r)?;
                tuner.restore_from(r)?;
                let shards = store.index().shard_count();
                store.reindex(BitAddressIndex::with_shards(
                    tuner.current().clone(),
                    shards,
                ));
                Ok(())
            }
            (JoinState::MultiHash { store, tuner }, "multi-hash") => {
                store.restore_state(r)?;
                amri_core::snapshot_io::expect_tag(r, "MULTIHASH")?;
                let width = store.jas_width();
                let saved = r.get_count(4, "multi-hash sub-index count")?;
                let mut patterns = Vec::with_capacity(saved);
                for s in 0..saved {
                    let mask = r.get_u32()?;
                    if mask == 0 || u64::from(mask) >> width != 0 {
                        return malformed(format!(
                            "sub-index {s} pattern {mask:#b} over width {width}"
                        ));
                    }
                    patterns.push(AccessPattern::new(mask, width));
                }
                let fresh = store.index().n_indices();
                if (saved == 0) != (fresh == 0) {
                    return malformed(format!(
                        "multi-hash image holds {saved} indices, the state {fresh}"
                    ));
                }
                store.reindex(MultiHashIndex::new(width, patterns));
                match (tuner, r.get_bool()?) {
                    (Some(t), true) => t.restore_from(r),
                    (None, false) => Ok(()),
                    _ => malformed("hash-tuner presence mismatch".into()),
                }
            }
            (state, _) => malformed(format!(
                "state section holds {tag}, expected {}",
                state.kind()
            )),
        }
    }
}

/// The staged-ingest entry points the benchmark package calls, kept as
/// forwarders: the index links at arrival, so there is no stage to flush.
/// ROADMAP item 11 deletes them with [`IngestStage`].
impl JoinState {
    /// [`ingest`](Self::ingest); the stage is unused.
    pub fn ingest_arrival(
        &mut self,
        tuple: Tuple,
        now: VirtualTime,
        receipt: &mut CostReceipt,
        _stage: &mut IngestStage,
    ) {
        self.ingest(tuple, now, receipt)
    }

    /// Nothing: every arrival was linked when it was ingested.
    pub fn flush_ingest(&mut self, _stage: &mut IngestStage, _exec: &dyn ShardExecutor) {}

    /// [`search`](Self::search); the stage is unused.
    pub fn flush_ingest_then_search(
        &mut self,
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        receipt: &mut CostReceipt,
        _stage: &mut IngestStage,
        exec: &dyn ShardExecutor,
    ) {
        self.search(req, scratch, receipt, exec)
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
    /// never allocates per request ([`JoinState::search`]).
    pub scratch: SearchScratch,
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
            mat_buf: Vec::new(),
            requests_served: 0,
            matches_returned: 0,
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
    /// An AMRI state.
    ///
    /// * `stream`, `jas`, `window` — the state's identity (from the query).
    /// * `kind` — which assessment method tunes it.
    /// * `initial` — the starting index configuration (the paper seeds it
    ///   from quasi-training statistics; [`IndexConfig::even`] works too).
    /// * `payload_bytes` — per-tuple payload, for memory accounting.
    /// * `tuner_kind` — the tuning policy: the paper's greedy tuner, the
    ///   safe bandit, or the pinned static seed IC (see [`TunerKind`]).
    ///
    /// # Errors
    /// Propagates tuner parameter validation, including a configuration
    /// not as wide as the JAS.
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
        let tuner = Tuner::new(tuner_kind, kind, jas.len(), initial.clone(), tuner, params)?;
        let store = StateStore::new(stream, jas, window, BitAddressIndex::new(initial))
            .with_payload_bytes(payload_bytes);
        Ok(JoinState::Amri { store, tuner })
    }

    /// A multi-hash (access module) state over `patterns`, optionally with
    /// conventional adaptive re-selection.
    ///
    /// # Panics
    /// Panics unless every pattern is non-empty and as wide as the JAS.
    pub fn multi_hash(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        patterns: Vec<AccessPattern>,
        tuner: Option<HashTuner>,
        payload_bytes: u32,
    ) -> Self {
        let index = MultiHashIndex::new(jas.len(), patterns);
        let store = StateStore::new(stream, jas, window, index).with_payload_bytes(payload_bytes);
        JoinState::MultiHash { store, tuner }
    }

    /// A non-adapting bit-address state: AMRI under [`TunerKind::Static`],
    /// which builds no assessor (the method is moot) and never decides.
    /// Panics unless `config` is as wide as the JAS.
    pub fn static_bitmap(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        config: IndexConfig,
        payload_bytes: u32,
    ) -> Self {
        let (kind, fixed) = (AssessorKind::Sria, TunerKind::Static);
        let (tuner, params) = (TunerConfig::default(), CostParams::default());
        Self::amri(
            stream,
            jas,
            window,
            kind,
            config,
            tuner,
            params,
            payload_bytes,
            fixed,
        )
        .expect("a configuration as wide as the JAS")
    }

    /// A scan-only state: an access module with no index and no tuner.
    pub fn scan(
        stream: StreamId,
        jas: Vec<AttrId>,
        window: WindowSpec,
        payload_bytes: u32,
    ) -> Self {
        Self::multi_hash(stream, jas, window, Vec::new(), None, payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_core::snapshot_io::{SectionReader, SectionWriter, SnapshotError};
    use amri_core::SequentialExecutor;
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
        state.search(request, &mut scratch, r, &SequentialExecutor);
        scratch.hits
    }

    fn retune(
        state: &mut JoinState,
        secs: u64,
        (lambda_d, lambda_r, window_secs): (f64, f64, f64),
        r: &mut CostReceipt,
    ) -> Option<StemRetune> {
        let now = VirtualTime::from_secs(secs);
        state.maybe_retune_with(now, lambda_d, lambda_r, window_secs, r, &SequentialExecutor)
    }

    /// An AMRI state over a 3-attribute JAS, 12 bits, deciding every 10 s
    /// once 50 requests were seen.
    fn amri(kind: AssessorKind) -> JoinState {
        JoinState::amri(
            StreamId(0),
            jas3(),
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
            0,
            TunerKind::Paper,
        )
        .unwrap()
    }

    /// The index configuration of an AMRI state.
    fn config(state: &JoinState) -> &IndexConfig {
        match state {
            JoinState::Amri { store, .. } => store.index().config(),
            JoinState::MultiHash { .. } => unreachable!("only AMRI states have a configuration"),
        }
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
                state
                    .store_mut()
                    .insert(tuple(i, 0, &[i % 5, i % 3, i % 7]), &mut r);
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

    /// The scan flavor is a hash module with no index, and charges what a
    /// state with no index always charged: no hash op or bucket probe on
    /// insert or expiry, 2 comparisons per live tuple on a search, and no
    /// index bytes.
    #[test]
    fn scan_receipts_are_a_full_scan() {
        let mut scan = JoinState::scan(StreamId(0), jas3(), WindowSpec::secs(30), 0);
        assert_eq!(scan.kind(), "scan");
        let bare = scan.memory_bytes();
        let mut r = CostReceipt::new();
        for i in 0..40u64 {
            scan.store_mut()
                .insert(tuple(i, i, &[i % 4, i % 5, i % 6]), &mut r);
        }
        assert_eq!(
            scan.store_mut().expire(VirtualTime::from_secs(39), &mut r),
            10
        );
        assert_eq!((r.hash_ops, r.bucket_probes), (0, 0));
        assert_eq!(scan.len(), 30);
        for mask in 1..8u32 {
            let mut r = CostReceipt::new();
            search(&mut scan, &req(mask, &[1, 1, 1]), &mut r);
            assert_eq!((r.hash_ops, r.bucket_probes), (0, 0), "mask {mask:#b}");
            assert_eq!(r.comparisons, 2 * scan.len() as u64, "mask {mask:#b}");
        }
        let JoinState::MultiHash { store, tuner: None } = &scan else {
            panic!("the scan flavor is a hash module with no tuner")
        };
        assert_eq!(store.index().n_indices(), 0);
        assert_eq!(store.index().memory_bytes(), 0);
        assert!(scan.memory_bytes() > bare);
    }

    #[test]
    fn expiry_works_across_flavors() {
        for mut state in all_flavors() {
            let mut r = CostReceipt::new();
            state.store_mut().insert(tuple(1, 0, &[1, 1, 1]), &mut r);
            state.store_mut().insert(tuple(2, 50, &[1, 1, 1]), &mut r);
            assert_eq!(
                state.store_mut().expire(VirtualTime::from_secs(40), &mut r),
                1
            );
            assert_eq!(state.len(), 1, "{}", state.kind());
            assert!(!state.is_empty());
        }
    }

    #[test]
    fn search_finds_inserted_tuples_and_records_patterns() {
        let mut s = amri(AssessorKind::Cdia(CombineStrategy::HighestCount));
        let mut r = CostReceipt::new();
        let k = s.store_mut().insert(tuple(1, 0, &[7, 8, 9]), &mut r);
        s.store_mut().insert(tuple(2, 0, &[7, 0, 1]), &mut r);
        let hits = search(&mut s, &req(0b111, &[7, 8, 9]), &mut r);
        assert_eq!(hits, vec![k]);
        assert_eq!(s.store().tuple(k).unwrap().id, TupleId(1));
        let JoinState::Amri { tuner, .. } = &s else {
            unreachable!()
        };
        assert_eq!(tuner.window_requests(), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn retune_migrates_the_live_index() {
        let mut s = amri(AssessorKind::Cdia(CombineStrategy::HighestCount));
        let mut r = CostReceipt::new();
        for i in 0..200 {
            s.store_mut()
                .insert(tuple(i, 0, &[i % 16, i % 8, i % 4]), &mut r);
        }
        // Workload exclusively on attribute A.
        for i in 0..300 {
            search(&mut s, &req(0b001, &[i % 16, 0, 0]), &mut r);
        }
        let mut mig = CostReceipt::new();
        let report =
            retune(&mut s, 10, (1000.0, 500.0, 30.0), &mut mig).expect("must retune toward A");
        assert_eq!(report.moved, 200, "every live tuple relocated");
        assert_eq!(s.tune_ledger().retunes, 1);
        assert!(config(&s).bits_of(0) >= 10, "{}", config(&s));
        assert_eq!(report.description, config(&s).to_string());
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
        let mut s = amri(AssessorKind::Sria);
        let mut r = CostReceipt::new();
        s.store_mut().insert(tuple(1, 0, &[1, 1, 1]), &mut r);
        s.store_mut().insert(tuple(2, 40, &[1, 1, 1]), &mut r);
        assert_eq!(s.store_mut().expire(VirtualTime::from_secs(35), &mut r), 1);
        let hits = search(&mut s, &req(0b111, &[1, 1, 1]), &mut r);
        assert_eq!(hits.len(), 1);
        assert_eq!(s.store().tuple(hits[0]).unwrap().id, TupleId(2));
    }

    #[test]
    fn memory_includes_assessor_entries() {
        let mut s = amri(AssessorKind::Sria);
        let base = s.memory_bytes();
        let mut r = CostReceipt::new();
        for m in 1..8u32 {
            search(&mut s, &req(m, &[0, 0, 0]), &mut r);
        }
        assert!(
            s.memory_bytes() >= base + 7 * amri_core::layout::ASSESS_ENTRY_BYTES,
            "assessor table must be charged"
        );
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
            state
                .store_mut()
                .insert(tuple(i, 0, &[i % 4, i % 5, i % 6]), &mut r);
        }
        // The workload only ever searches pattern C.
        for i in 0..100u64 {
            search(&mut state, &req(0b100, &[0, 0, i % 6]), &mut r);
        }
        let retune = retune(&mut state, 10, (100.0, 100.0, 30.0), &mut r)
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
            if matches!(state.kind(), "static-bitmap" | "scan") {
                let mut r = CostReceipt::new();
                for i in 0..200u64 {
                    search(&mut state, &req(0b001, &[i, 0, 0]), &mut r);
                }
                assert!(retune(&mut state, 100, (100.0, 100.0, 30.0), &mut r).is_none());
            }
        }
    }

    /// A hash state over the A index (`indexed`) or the scan flavor.
    fn hash_state(indexed: bool) -> JoinState {
        let patterns = if indexed {
            vec![AccessPattern::new(0b001, 3)]
        } else {
            Vec::new()
        };
        JoinState::multi_hash(StreamId(0), jas3(), WindowSpec::secs(30), patterns, None, 0)
    }

    /// A hash state holding `n` tuples.
    fn filled(indexed: bool, n: u64) -> JoinState {
        let mut state = hash_state(indexed);
        let mut r = CostReceipt::new();
        for i in 0..n {
            state.store_mut().insert(tuple(i, i, &[i, 1, 2]), &mut r);
        }
        state
    }

    /// A hash-state section holding the store of `filled(true, 3)`, then a
    /// `MULTIHASH` section naming `count` sub-indices and listing `masks`,
    /// with no tuner — hand-built so it can lie.
    fn with_masks(count: u64, masks: &[u32]) -> Vec<u8> {
        let JoinState::MultiHash { store, .. } = filled(true, 3) else {
            unreachable!("a hash state")
        };
        let mut w = SectionWriter::new();
        w.put_str("multi-hash");
        store.save_state(&mut w);
        w.put_str("MULTIHASH");
        w.put_u64(count);
        masks.iter().for_each(|&m| w.put_u32(m));
        w.put_bool(false);
        w.into_bytes()
    }

    /// A `MULTIHASH` section is its masks alone, so every way it can lie
    /// is refused with `Malformed` naming the field — a count the bytes
    /// left cannot hold, an empty mask, a mask wider than the JAS — never
    /// an `AccessPattern` assertion or an allocator abort. A good image
    /// indexes exactly the store restored before it, under its own masks.
    #[test]
    fn restore_refuses_a_mask_it_could_not_index() {
        for (image, field) in [
            (with_masks(u64::MAX / 2, &[]), "multi-hash sub-index count"),
            (
                with_masks(2, &[0b001]),
                "multi-hash sub-index count 2 exceeds",
            ),
            (with_masks(1, &[0]), "sub-index 0 pattern 0b0 over width 3"),
            (
                with_masks(2, &[0b001, 0b1000]),
                "sub-index 1 pattern 0b1000 over width 3",
            ),
        ] {
            match hash_state(true).restore_from(&mut SectionReader::new(&image)) {
                Err(SnapshotError::Malformed(why)) => {
                    assert!(why.contains(field), "{why:?} does not name {field:?}")
                }
                other => panic!("expected Malformed({field}), got {other:?}"),
            }
        }
        let mut state = hash_state(true);
        let image = with_masks(2, &[0b110, 0b001]);
        let mut r = SectionReader::new(&image);
        state.restore_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        let JoinState::MultiHash { store, .. } = &state else {
            unreachable!()
        };
        let masks: Vec<u32> = store.index().patterns().iter().map(|p| p.mask()).collect();
        assert_eq!(masks, [0b110, 0b001]);
        assert_eq!((store.index().n_tuples(), store.index().entries()), (3, 6));
        let mut r = CostReceipt::new();
        let hits = search(&mut state, &req(0b110, &[0, 1, 2]), &mut r);
        assert_eq!(
            (hits, r.hash_ops),
            (vec![TupleKey(0), TupleKey(1), TupleKey(2)], 2)
        );
        assert_eq!(saved(&state), image);
        let now = VirtualTime::from_secs(100);
        assert_eq!(state.store_mut().expire(now, &mut r), 3);
    }

    /// A hash bucket lists its entries in the order of the inserts and
    /// removals that made it: here slots freed by expiry are reused after
    /// younger keys, and a retarget keeps one sub-index and builds
    /// another that churns again. `JoinState::search` still answers every
    /// probe with its hits in ascending key order — the order a state
    /// rebuilt from a checkpoint answers in.
    #[test]
    fn a_hash_state_answers_in_key_order_whatever_its_history() {
        let mut state = hash_state(true);
        let mut r = CostReceipt::new();
        let ingest = |state: &mut JoinState, ids: std::ops::Range<u64>, t0: u64| {
            for (i, id) in ids.enumerate() {
                let t = t0 + i as u64;
                let now = VirtualTime::from_secs(t);
                let mut r = CostReceipt::new();
                state.ingest(tuple(id, t, &[1, id % 2, id % 3]), now, &mut r);
            }
        };
        // Keys 0–2 expire at t = 40 and their slots go to ids 6–8, which
        // the bucket lists after keys 3–5.
        ingest(&mut state, 0..3, 0);
        ingest(&mut state, 3..6, 20);
        ingest(&mut state, 6..9, 40);
        let JoinState::MultiHash { store, .. } = &mut state else {
            unreachable!()
        };
        let (index, live) = store.index_mut_with_jas();
        let (a, b) = (AccessPattern::new(0b001, 3), AccessPattern::new(0b010, 3));
        index.retarget(vec![a, b], live, &mut r);
        // Keys 3–5 expire at t = 60 and their slots go to ids 9–11.
        ingest(&mut state, 9..12, 60);
        let mut served = 0;
        for mask in 0..8u32 {
            for v in 0..6u64 {
                let request = req(mask, &[1, v % 2, v % 3]);
                let hits = search(&mut state, &request, &mut r);
                let mut want: Vec<TupleKey> = state
                    .store()
                    .iter_jas()
                    .filter(|(_, jas)| request.matches(jas))
                    .map(|(key, _)| key)
                    .collect();
                want.sort_unstable();
                assert_eq!(hits, want, "{mask:#b} {v}");
                served += usize::from(hits.len() > 1);
            }
        }
        assert!(served > 0, "no probe had two hits to order");
    }

    /// A no-index image restored into an indexed hash state would leave it
    /// scanning, and the reverse would leave the scan flavor indexed:
    /// either is refused with `Malformed` naming both index counts.
    #[test]
    fn restore_refuses_an_image_of_the_other_index_count() {
        for (image_indexed, why) in [
            (false, "multi-hash image holds 0 indices, the state 1"),
            (true, "multi-hash image holds 1 indices, the state 0"),
        ] {
            let image = filled(image_indexed, 2);
            let mut w = SectionWriter::new();
            image.save(&mut w);
            let bytes = w.into_bytes();
            match hash_state(!image_indexed).restore_from(&mut SectionReader::new(&bytes)) {
                Err(SnapshotError::Malformed(got)) => assert_eq!(got, why),
                other => panic!("expected Malformed({why}), got {other:?}"),
            }
            let mut same = hash_state(image_indexed);
            same.restore_from(&mut SectionReader::new(&bytes)).unwrap();
            assert_eq!((same.len(), same.kind()), (2, image.kind()));
        }
    }

    /// Round-trip flavor `flavor` — AMRI at 1, 2 and 4 shards (0–2), a
    /// hash module re-targeting k = 1 or 2 indices (3, 4) — with a spill
    /// tier of its own, deciding every 5 s once 5 requests were seen.
    fn round_trip_state(flavor: usize) -> (JoinState, std::path::PathBuf) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let tuning = TunerConfig {
            assess_period: VirtualDuration::from_secs(5),
            min_requests: 5,
            total_bits: 12,
            ..TunerConfig::default()
        };
        let (w, kind) = (WindowSpec::secs(30), AssessorKind::Sria);
        let mut state = if flavor < 3 {
            let initial = IndexConfig::even(3, 12).unwrap();
            let params = CostParams::default();
            let paper = TunerKind::Paper;
            let mut s = JoinState::amri(
                StreamId(0),
                jas3(),
                w,
                kind,
                initial,
                tuning,
                params,
                0,
                paper,
            )
            .unwrap();
            s.set_shards(1 << flavor);
            s
        } else {
            let k = flavor - 2;
            let patterns = [0b001, 0b110][..k]
                .iter()
                .map(|&m| AccessPattern::new(m, 3))
                .collect();
            let tuner = HashTuner::new(kind, 3, k, tuning);
            JoinState::multi_hash(StreamId(0), jas3(), w, patterns, Some(tuner), 0)
        };
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("amri-stem-rt-{}-{n}", std::process::id()));
        let tier = amri_core::SpillTier::create(&amri_core::SpillConfig {
            dir: dir.clone(),
            file_name: "s.blocks".into(),
            profile: amri_core::StorageProfile::default(),
            faults: amri_core::IoFaultConfig::default(),
            seed: 5,
            cache_bytes: 1 << 12,
        })
        .unwrap();
        state.enable_spill(tier);
        (state, dir)
    }

    /// Step `t` of a round-trip script: by `op`, ingest `vals`, expire,
    /// evict, spill, promote, search `(mask, vals)` or retune. Returns the
    /// step's receipt, hits and retune.
    fn round_trip_step(
        state: &mut JoinState,
        t: u64,
        (op, vals, mask): (u8, [u64; 3], u32),
    ) -> (CostReceipt, Vec<TupleKey>, Option<StemRetune>) {
        let now = VirtualTime::from_secs(t);
        let mut r = CostReceipt::new();
        let (mut hits, mut retuned) = (Vec::new(), None);
        match op {
            0..=3 => state.ingest(tuple(t, t, &vals), now, &mut r),
            4 => {
                state.store_mut().expire(now, &mut r);
            }
            5 => {
                let max = mask as usize % 3 + 1;
                state.store_mut().evict_oldest(max, &mut r);
            }
            6 => {
                state.spill_oldest(mask as usize % 4 + 1, &mut r);
            }
            7 => {
                state.store_mut().promote_hottest(0, &mut r);
            }
            8..=10 => hits = search(state, &req(mask, &vals), &mut r),
            _ => retuned = retune(state, t, (10.0, 10.0, 30.0), &mut r),
        }
        (r, hits, retuned)
    }

    /// `a` and `b` answer every width-3 pattern over values 0–2 with the
    /// same hits, in the same order, and the same receipt.
    fn answers_alike(a: &mut JoinState, b: &mut JoinState) {
        for mask in 0..8u32 {
            for v in 0..27u64 {
                let request = req(mask, &[v % 3, v / 3 % 3, v / 9]);
                let (mut ra, mut rb) = (CostReceipt::new(), CostReceipt::new());
                let hits = search(a, &request, &mut ra);
                assert_eq!(search(b, &request, &mut rb), hits, "{mask:#b} {v}");
                assert_eq!(ra, rb, "{mask:#b} {v}");
            }
        }
    }

    fn saved(state: &JoinState) -> Vec<u8> {
        let mut w = SectionWriter::new();
        state.save(&mut w);
        w.into_bytes()
    }

    fn sound(state: &JoinState) {
        if let JoinState::Amri { store, tuner } = state {
            store.index().check_integrity().unwrap();
            assert_eq!(store.index().config(), tuner.current());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A state saved after any script of ingest, expiry, eviction,
        /// spill, promotion, search and retune restores into a fresh state
        /// of its configuration that answers every probe alike — hits,
        /// their order, receipts — is sound, saves to the same bytes, and
        /// stays alike while the script goes on.
        #[test]
        fn a_restored_state_answers_and_continues_as_the_saved_one(
            ops in proptest::collection::vec(
                (0u8..12, proptest::array::uniform3(0u64..3), 0u32..8),
                1..80,
            ),
            tail in proptest::collection::vec(
                (0u8..12, proptest::array::uniform3(0u64..3), 0u32..8),
                1..30,
            ),
        ) {
            for flavor in 0..5 {
                let (mut a, dir_a) = round_trip_state(flavor);
                for (t, &op) in ops.iter().enumerate() {
                    round_trip_step(&mut a, t as u64, op);
                }
                let image = saved(&a);
                let (mut b, dir_b) = round_trip_state(flavor);
                let mut r = SectionReader::new(&image);
                b.restore_from(&mut r).unwrap();
                proptest::prop_assert_eq!(r.remaining(), 0);
                proptest::prop_assert_eq!(saved(&b), image, "flavor {}", flavor);
                sound(&b);
                answers_alike(&mut a, &mut b);
                for (t, &op) in tail.iter().enumerate() {
                    let t = (ops.len() + t) as u64;
                    proptest::prop_assert_eq!(
                        round_trip_step(&mut a, t, op),
                        round_trip_step(&mut b, t, op),
                        "flavor {} step {}", flavor, t
                    );
                }
                sound(&b);
                answers_alike(&mut a, &mut b);
                proptest::prop_assert_eq!(saved(&a), saved(&b));
                for dir in [dir_a, dir_b] {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
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
            hash.store_mut()
                .insert(tuple(i, 0, &[i % 5, i % 3, i % 7]), &mut r);
            amri.store_mut()
                .insert(tuple(i, 0, &[i % 5, i % 3, i % 7]), &mut r);
        }
        assert!(
            hash.memory_bytes() > amri.memory_bytes() * 2,
            "7 hash indices ({}) must dwarf AMRI ({})",
            hash.memory_bytes(),
            amri.memory_bytes()
        );
    }
}
