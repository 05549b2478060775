//! The simulation harness: single-core, cost-accounted, memory-budgeted.
//!
//! Tuples arrive on each stream at rate `λ_d`; every arrival is stored in
//! its own state and becomes a routing job. The router sends each partial
//! tuple to one unvisited state after another; every probe's hashes,
//! bucket visits and comparisons advance the virtual clock. When the clock
//! falls behind the arrival schedule a **backlog** builds up, pinning
//! memory — the §V failure mode that kills the hash and static-bitmap
//! baselines. Samples are taken on a fixed grid; tuning decisions run at
//! every sampling step.
//!
//! [`Executor`] is a *thin harness*: it owns flavor construction
//! ([`IndexingMode`]), seeding and the public
//! [`EngineConfig`]/[`RunResult`] API, assembles the
//! [`RunContext`] and hands the step loop to the
//! [`runtime`](crate::runtime) layer's
//! [`Pipeline`] on a `VirtualClock`.

use crate::error::EngineError;
use crate::memory::MemoryBudget;
use crate::metrics::ThroughputSeries;
use crate::router::{PolicyKind, Router};
use crate::runtime::{
    DegradationPolicy, FaultPlan, FaultState, Governor, MaintenanceStats, Pipeline, RunContext,
    WorkerPool,
};
use crate::stem::{HashTuner, JoinState, Stem};
use amri_core::assess::AssessorKind;
use amri_core::{
    CostParams, IndexConfig, SpillConfig, SpillTier, StorageProfile, TunerConfig, TunerKind,
};
use amri_stream::{
    AccessPattern, Clock, JobQueue, SpjQuery, StreamId, VirtualClock, VirtualDuration, VirtualTime,
};

// Source-compatible re-exports: these types moved into the runtime layer.
pub use crate::runtime::{RunOutcome, RunResult, StreamWorkload};

/// Which index flavor every state runs (the §V lineup).
#[derive(Debug, Clone)]
pub enum IndexingMode {
    /// AMRI with the given assessment method; `initial` configurations per
    /// state (even 64-bit split when `None`).
    Amri {
        /// Assessment method tuning each state.
        assessor: AssessorKind,
        /// Starting configuration per state.
        initial: Option<Vec<IndexConfig>>,
    },
    /// Access modules with `n_indices` hash indices per state, re-targeted
    /// by CDIA-highest statistics (the paper's adaptive hash baseline).
    AdaptiveHash {
        /// Hash indices per state (the paper sweeps 1..=7).
        n_indices: usize,
        /// Starting patterns per state (defaults: the `n` lowest non-empty
        /// patterns).
        initial: Option<Vec<Vec<AccessPattern>>>,
    },
    /// Non-adapting bit-address index (the §V bitmap baseline): AMRI under
    /// [`TunerKind::Static`], whatever [`EngineConfig::tuner_kind`] says.
    StaticBitmap {
        /// Fixed configuration per state (even 64-bit split when `None`).
        configs: Option<Vec<IndexConfig>>,
    },
    /// No indices: every probe scans.
    Scan,
}

impl IndexingMode {
    /// Label used in figures and reports.
    pub fn label(&self) -> String {
        match self {
            IndexingMode::Amri { assessor, .. } => format!("AMRI-{}", assessor.label()),
            IndexingMode::AdaptiveHash { n_indices, .. } => format!("hash-{n_indices}"),
            IndexingMode::StaticBitmap { .. } => "static-bitmap".to_string(),
            IndexingMode::Scan => "scan".to_string(),
        }
    }
}

/// Disk spill tier settings for a run: where the per-state block files
/// live, what the disk costs, and how much decoded-block cache each state
/// keeps. When tuples spill or promote, and how many a block holds, are
/// constants of [`amri_core::tier`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpillSettings {
    /// Directory holding the per-state block files (created if absent;
    /// files are named `state-<i>.blocks`).
    pub dir: std::path::PathBuf,
    /// Per-tier latency profile — also folded into
    /// [`CostParams::storage`](amri_core::CostParams) so the tuner prices
    /// probes that touch spill-resident tuples. The all-zero
    /// [`StorageProfile::default`] makes the tier behaviorally invisible
    /// (byte-identical outputs to an all-RAM run that never dies).
    pub profile: StorageProfile,
    /// Byte budget of each state's decoded-block cache. `0` keeps nothing
    /// and plans no readahead, yet each batch still reads each of its
    /// blocks once. Under the identity profile every budget gives a
    /// byte-identical run (the cache's own counters aside).
    pub cache_bytes: u64,
}

impl SpillSettings {
    /// Settings with the all-zero (identity) storage profile and a
    /// zero-byte block cache.
    pub fn in_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        SpillSettings {
            dir: dir.into(),
            profile: StorageProfile::default(),
            cache_bytes: 0,
        }
    }

    /// The same settings with a decoded-block cache of `bytes` per state.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// Engine-level run parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Virtual run length.
    pub duration: VirtualDuration,
    /// Sampling grid (also the cadence of tuning/memory checks).
    pub sample_interval: VirtualDuration,
    /// Arrivals per virtual second, per stream (`λ_d`) at t = 0.
    pub lambda_d: f64,
    /// Linear arrival-rate growth per virtual second: the effective rate is
    /// `λ_d · (1 + ramp · t)`. Models the paper's fluctuating environments
    /// (§I): a slowly rising load exposes each index design's headroom —
    /// the §V baselines die when the rate outgrows them. Zero = constant.
    pub lambda_ramp: f64,
    /// Memory budget.
    pub budget: MemoryBudget,
    /// Routing policy.
    pub policy: PolicyKind,
    /// Master seed (router and workload derive from it).
    pub seed: u64,
    /// Tuner parameters shared by all tuning flavors.
    pub tuner: TunerConfig,
    /// Which AMRI tuning policy drives retunes: the paper's greedy tuner,
    /// the safe bandit tuner, or the pinned static seed IC. Only the AMRI
    /// flavor consults this; the baselines tune (or don't) as before.
    pub tuner_kind: TunerKind,
    /// Unit costs.
    pub params: CostParams,
    /// Overload governor: shed load / evict state instead of dying when
    /// the budget is breached. `None` keeps the paper's hard-death
    /// semantics (and the byte-identical legacy execution path).
    pub degradation: Option<DegradationPolicy>,
    /// Deterministic fault injection between workload and ingest. `None`
    /// leaves the arrival stream untouched.
    pub faults: Option<FaultPlan>,
    /// Disk spill tier: cold buckets leave RAM for a checksummed block
    /// store instead of being evicted or killing the run. `None` keeps
    /// the all-RAM engine.
    pub spill: Option<SpillSettings>,
    /// Arena shards per bit-address index (must be a power of two). The
    /// partitioning changes nothing observable at a fixed shard count —
    /// probes merge in fixed shard order — but different shard counts
    /// produce different (equivalent) hit orders, so this is a separate
    /// knob from `parallelism`: 1 is the pre-sharding layout.
    pub shards: usize,
    /// Threads executing sharded index work (the probe fan-out). With the
    /// same `shards`, every value of `parallelism` produces byte-identical
    /// results; 1 runs everything inline on the caller.
    pub parallelism: std::num::NonZeroUsize,
    /// Most drained chunk buffers the backlog queue retains for reuse
    /// ([`amri_stream::JobQueue::with_caps`]). Spare buffers are working
    /// storage — never observable in results, never snapshotted — so this
    /// only trades steady-state allocation against resident memory. A
    /// multi-tenant host lowers it to cap aggregate spare-buffer memory
    /// across co-resident tenants.
    pub spare_buffer_cap: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            duration: VirtualDuration::from_mins(5),
            sample_interval: VirtualDuration::from_secs(1),
            lambda_d: 200.0,
            lambda_ramp: 0.0,
            budget: MemoryBudget::default(),
            policy: PolicyKind::default(),
            seed: 0xE0_0D,
            tuner: TunerConfig::default(),
            tuner_kind: TunerKind::default(),
            params: CostParams::default(),
            degradation: None,
            faults: None,
            spill: None,
            shards: 1,
            parallelism: std::num::NonZeroUsize::MIN,
            spare_buffer_cap: amri_stream::DEFAULT_MAX_SPARE_BUFFERS,
        }
    }
}

/// The engine harness: builds the states and the router for one run, then
/// hands them to the runtime [`Pipeline`].
pub struct Executor<W> {
    query: SpjQuery,
    workload: W,
    stems: Vec<Stem>,
    router: Router,
    config: EngineConfig,
    mode_label: String,
    /// Always-on exact per-state pattern observers (run reporting + the
    /// quasi-training path; independent of the flavors' own assessment).
    observers: Vec<amri_core::assess::Sria>,
}

impl<W: StreamWorkload> Executor<W> {
    /// The engine configuration this run was built with. A host uses it
    /// for admission control: `config().budget.bytes` is the tenant's
    /// memory reservation against the global budget.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mode label for this run (e.g. `AMRI-CDIA-highest`), as it will
    /// appear in the [`RunResult`].
    pub fn mode_label(&self) -> &str {
        &self.mode_label
    }

    /// Build an engine run, surfacing configuration problems as
    /// [`EngineError`] instead of panicking.
    ///
    /// # Errors
    /// * [`EngineError::InvalidConfig`] when a mode's per-state vector
    ///   length disagrees with the query's stream count, a static bitmap
    ///   config is not as wide as its JAS, a hash state would have no
    ///   index or an index pattern that is empty or not as wide as its
    ///   JAS, the degradation policy or fault plan fails its `validate`,
    ///   `shards` is not a power of two, `lambda_d` is not finite and
    ///   positive, `lambda_ramp` is not finite, `sample_interval` is
    ///   zero, or the routing policy's exploration rate is not a
    ///   probability.
    /// * [`EngineError::Core`] when an index or tuner configuration is
    ///   invalid (too many bits, bad parameters).
    pub fn try_new(
        query: &SpjQuery,
        workload: W,
        mode: IndexingMode,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let n = query.n_streams();
        let check_len = |what: &str, len: usize| {
            if len != n {
                Err(EngineError::InvalidConfig(format!(
                    "{what} supplies {len} per-state entries for {n} streams"
                )))
            } else {
                Ok(())
            }
        };
        match &mode {
            IndexingMode::Amri {
                initial: Some(v), ..
            } => check_len("Amri initial configs", v.len())?,
            IndexingMode::AdaptiveHash {
                initial: Some(v), ..
            } => check_len("AdaptiveHash initial patterns", v.len())?,
            IndexingMode::StaticBitmap { configs: Some(v) } => {
                check_len("StaticBitmap configs", v.len())?
            }
            _ => {}
        }
        if let Some(policy) = &config.degradation {
            policy.validate()?;
        }
        if let Some(plan) = &config.faults {
            plan.validate()?;
        }
        // Scalars the run would otherwise assert on: the arena splits by
        // the shard count, the arrival schedule divides by the rate, the
        // series divides time by the grid.
        if !config.shards.is_power_of_two() {
            return Err(EngineError::InvalidConfig(format!(
                "shards must be a power of two (≥ 1), got {}",
                config.shards
            )));
        }
        if !(config.lambda_d.is_finite() && config.lambda_d > 0.0) {
            return Err(EngineError::InvalidConfig(format!(
                "lambda_d must be finite and positive, got {}",
                config.lambda_d
            )));
        }
        if !config.lambda_ramp.is_finite() {
            return Err(EngineError::InvalidConfig(format!(
                "lambda_ramp must be finite, got {}",
                config.lambda_ramp
            )));
        }
        if config.sample_interval.is_zero() {
            return Err(EngineError::InvalidConfig(
                "sample_interval must be positive".into(),
            ));
        }
        if let PolicyKind::SelectivityGreedy { exploration } | PolicyKind::Lottery { exploration } =
            config.policy
        {
            if !(0.0..=1.0).contains(&exploration) {
                return Err(EngineError::InvalidConfig(format!(
                    "routing exploration must be a probability, got {exploration}"
                )));
            }
        }
        let mut config = config;
        if let Some(spill) = &config.spill {
            // The tuner must price probes knowing what the disk costs:
            // fold the tier's latency profile into the cost model every
            // flavor is constructed with.
            config.params.storage = spill.profile;
        }
        let mode_label = mode.label();
        let mut stems = Vec::with_capacity(n);
        for i in 0..n {
            let sid = StreamId(i as u16);
            let jas = query.jas(sid);
            let width = jas.len();
            let window = query.windows[i];
            let payload = query.schemas[i].payload_bytes;
            let state = match &mode {
                IndexingMode::Amri { assessor, initial } => {
                    let init = match initial.as_ref() {
                        Some(v) => v[i].clone(),
                        None => IndexConfig::even(width, config.tuner.total_bits)?,
                    };
                    JoinState::amri(
                        sid,
                        jas,
                        window,
                        *assessor,
                        init,
                        config.tuner,
                        config.params,
                        payload,
                        config.tuner_kind,
                    )?
                }
                IndexingMode::AdaptiveHash { n_indices, initial } => {
                    let patterns = initial.as_ref().map(|v| v[i].clone()).unwrap_or_else(|| {
                        AccessPattern::all(width)
                            .filter(|p| !p.is_empty())
                            .take(*n_indices)
                            .collect()
                    });
                    if *n_indices == 0 || patterns.is_empty() {
                        return Err(EngineError::InvalidConfig(format!(
                            "AdaptiveHash state {i}: needs a hash index, got n_indices \
                             {n_indices} and {} patterns",
                            patterns.len()
                        )));
                    }
                    if let Some(p) = patterns
                        .iter()
                        .find(|p| p.is_empty() || p.n_attrs() != width)
                    {
                        return Err(EngineError::InvalidConfig(format!(
                            "AdaptiveHash state {i}: pattern {p} is empty or not {width} \
                             attributes wide"
                        )));
                    }
                    let tuner = HashTuner::new(
                        AssessorKind::Cdia(amri_hh::CombineStrategy::HighestCount),
                        width,
                        *n_indices,
                        config.tuner,
                    );
                    JoinState::multi_hash(sid, jas, window, patterns, Some(tuner), payload)
                }
                IndexingMode::StaticBitmap { configs } => {
                    let init = match configs.as_ref() {
                        Some(v) => v[i].clone(),
                        None => IndexConfig::even(width, config.tuner.total_bits)?,
                    };
                    if init.width() != width {
                        return Err(EngineError::InvalidConfig(format!(
                            "StaticBitmap state {i}: config {init} is {} attributes wide, \
                             its JAS {width}",
                            init.width()
                        )));
                    }
                    JoinState::static_bitmap(sid, jas, window, init, payload)
                }
                IndexingMode::Scan => JoinState::scan(sid, jas, window, payload),
            };
            let mut state = state;
            if config.shards > 1 {
                state.set_shards(config.shards);
            }
            if let Some(spill) = &config.spill {
                // One block store per state. The injection seed derives
                // from the fault plan's seed when one is armed (same plan
                // → replay-identical disk faults), else the master seed.
                let io_seed = config.faults.as_ref().map_or(config.seed, |f| f.seed);
                let tier = SpillTier::create(&SpillConfig {
                    dir: spill.dir.clone(),
                    file_name: format!("state-{i}.blocks"),
                    profile: spill.profile,
                    faults: config.faults.as_ref().map(|f| f.io).unwrap_or_default(),
                    seed: io_seed ^ 0xD15C_B10C ^ i as u64,
                    cache_bytes: spill.cache_bytes,
                })
                .map_err(|e| {
                    EngineError::Spill(format!(
                        "cannot create block store for state {i} in {}: {e}",
                        spill.dir.display()
                    ))
                })?;
                state.enable_spill(tier);
            }
            stems.push(Stem::new(sid, state));
        }
        let observers = (0..n)
            .map(|i| amri_core::assess::Sria::new(query.jas(StreamId(i as u16)).len()))
            .collect();
        Ok(Executor {
            query: query.clone(),
            workload,
            stems,
            router: Router::new(config.policy, n, config.seed ^ 0x5EED_0001),
            config,
            mode_label,
            observers,
        })
    }

    /// Decompose this harness into the runtime pipeline it drives, on a
    /// fresh deterministic `VirtualClock`. Useful when the caller wants to
    /// own the step loop or inspect the run context.
    pub fn into_pipeline(self) -> Pipeline<W, VirtualClock> {
        self.into_pipeline_with_clock(VirtualClock::new())
    }

    /// Decompose this harness into a pipeline on an explicit clock — e.g.
    /// [`SkewedClock`](crate::runtime::SkewedClock) to inject clock-skew
    /// faults on top of the simulation's `VirtualClock`.
    pub fn into_pipeline_with_clock<C: Clock>(self, clock: C) -> Pipeline<W, C> {
        let config = self.config;
        let n = self.query.n_streams();
        // Stagger first arrivals so streams interleave deterministically.
        let base_gap = VirtualDuration::from_secs_f64(1.0 / config.lambda_d);
        let next_arrival = (0..n)
            .map(|i| VirtualTime(base_gap.0 * i as u64 / n as u64))
            .collect();
        let window_secs = self
            .query
            .windows
            .iter()
            .map(|w| w.length.as_secs_f64())
            .collect();
        let ctx = RunContext {
            clock,
            graph: self.query.join_graph(),
            query: self.query,
            stems: self.stems,
            router: self.router,
            observers: self.observers,
            backlog: JobQueue::with_caps(
                amri_stream::DEFAULT_BATCH_CAPACITY,
                config.spare_buffer_cap,
            ),
            job_words: Vec::new(),
            series: ThroughputSeries::new(config.sample_interval),
            retunes: Vec::new(),
            next_arrival,
            outputs: 0,
            tuple_seq: 0,
            sojourn_ticks: 0,
            jobs_processed: 0,
            step: 0,
            outcome: RunOutcome::Completed,
            deadline: VirtualTime::ZERO + config.duration,
            grid_due: VirtualTime::ZERO,
            window_secs,
            governor: config.degradation.map(Governor::new),
            fault: config.faults.clone().map(|p| FaultState::new(p, n)),
            pool: WorkerPool::new(config.parallelism),
            maint: MaintenanceStats::default(),
            output_digest: 0,
            output_set: 0,
            spill_lost: 0,
            spill_first_at: None,
            config,
        };
        Pipeline::from_parts(ctx, self.workload, self.mode_label)
    }

    /// Run to completion (or death) and return the results.
    pub fn run(self) -> RunResult {
        self.into_pipeline().run()
    }

    /// A fingerprint of everything that shapes this run besides its
    /// mutable state: the query, the index flavor, and the full engine
    /// configuration. Snapshots are stamped with it at write time and
    /// restore refuses a mismatch ([`amri_stream::SnapshotError::ConfigMismatch`])
    /// — resuming under a different configuration would silently diverge.
    ///
    /// Derived from the `Debug` renderings, which cover every field of
    /// the participating types; any configuration change therefore
    /// changes the fingerprint.
    pub fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = amri_stream::fxhash::FxHasher::default();
        h.write(format!("{:?}", self.query).as_bytes());
        h.write(self.mode_label.as_bytes());
        h.write(format!("{:?}", self.config).as_bytes());
        h.finish()
    }

    /// Rebuild the pipeline of a crashed run from a parsed snapshot: the
    /// harness constructs the engine exactly as [`try_new`](Self::try_new)
    /// built the original, then overwrites its mutable state with the
    /// snapshot's. Driving the returned pipeline produces results
    /// byte-identical to the uninterrupted run.
    ///
    /// # Errors
    /// * [`EngineError::Snapshot`] with
    ///   [`SnapshotError::ConfigMismatch`](amri_stream::SnapshotError::ConfigMismatch)
    ///   when the snapshot was taken under a different configuration.
    /// * [`EngineError::Snapshot`] when a section is missing, malformed,
    ///   or structurally incompatible.
    pub fn resume_from(
        self,
        snap: &amri_stream::SnapshotReader,
    ) -> Result<Pipeline<W, VirtualClock>, EngineError> {
        let expected = self.config_fingerprint();
        if snap.fingerprint() != expected {
            return Err(amri_stream::SnapshotError::ConfigMismatch {
                found: snap.fingerprint(),
                expected,
            }
            .into());
        }
        let mut pipeline = self.into_pipeline();
        pipeline.restore_from(snap)?;
        Ok(pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_hh::CombineStrategy;
    use amri_stream::{AttrDomain, AttrSpec, JoinPredicate, StreamSchema, WindowSpec};
    use amri_stream::{AttrId, AttrVec, VirtualTime};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two-stream equality join with controllable match probability.
    struct PairWorkload {
        rng: StdRng,
        cardinality: u64,
    }

    impl StreamWorkload for PairWorkload {
        fn attrs_for(&mut self, _stream: StreamId, _now: VirtualTime) -> AttrVec {
            AttrVec::from_slice(&[self.rng.gen_range(0..self.cardinality)]).unwrap()
        }
    }

    fn two_way_query() -> SpjQuery {
        let schema = |n: &str| {
            StreamSchema::new(
                n,
                vec![AttrSpec::new("k", AttrDomain::with_cardinality(64))],
                50,
            )
        };
        SpjQuery::new(
            "pair",
            vec![schema("L"), schema("R")],
            vec![JoinPredicate::eq(
                StreamId(0),
                AttrId(0),
                StreamId(1),
                AttrId(0),
            )],
            vec![WindowSpec::secs(5); 2],
        )
        .unwrap()
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            duration: VirtualDuration::from_secs(20),
            sample_interval: VirtualDuration::from_secs(1),
            lambda_d: 50.0,
            lambda_ramp: 0.0,
            budget: MemoryBudget::unlimited(),
            policy: PolicyKind::RoundRobin,
            seed: 11,
            tuner: TunerConfig {
                assess_period: VirtualDuration::from_secs(5),
                min_requests: 20,
                total_bits: 16,
                ..TunerConfig::default()
            },
            tuner_kind: TunerKind::default(),
            params: CostParams::default(),
            degradation: None,
            faults: None,
            spill: None,
            shards: 1,
            parallelism: std::num::NonZeroUsize::MIN,
            spare_buffer_cap: amri_stream::DEFAULT_MAX_SPARE_BUFFERS,
        }
    }

    fn run_mode(mode: IndexingMode) -> RunResult {
        let query = two_way_query();
        let workload = PairWorkload {
            rng: StdRng::seed_from_u64(3),
            cardinality: 64,
        };
        Executor::try_new(&query, workload, mode, small_config())
            .expect("valid engine configuration")
            .run()
    }

    #[test]
    fn two_way_join_produces_plausible_output_volume() {
        let result = run_mode(IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: None,
        });
        assert_eq!(result.outcome, RunOutcome::Completed);
        // Expected joins: each arrival probes the ~250-tuple window of the
        // other stream at 1/64 match rate ≈ 3.9 per probe; ~1000 arrivals
        // per stream → tens of thousands of outputs. Sanity-bound it.
        assert!(
            result.outputs > 1000,
            "implausibly few outputs: {}",
            result.outputs
        );
        assert!(
            result.outputs < 200_000,
            "implausibly many outputs: {}",
            result.outputs
        );
        // Both states served requests.
        assert!(
            result.requests.iter().all(|&r| r > 100),
            "{:?}",
            result.requests
        );
        // The series is monotone.
        let s = result.series.samples();
        assert!(s.windows(2).all(|w| w[0].outputs <= w[1].outputs));
        assert_eq!(result.label, "AMRI-CDIA-highest");
    }

    #[test]
    fn all_modes_complete_and_agree_on_magnitude() {
        let amri = run_mode(IndexingMode::Amri {
            assessor: AssessorKind::Sria,
            initial: None,
        });
        let hash = run_mode(IndexingMode::AdaptiveHash {
            n_indices: 1,
            initial: None,
        });
        let bitmap = run_mode(IndexingMode::StaticBitmap { configs: None });
        let scan = run_mode(IndexingMode::Scan);
        // A two-way equality join: every mode computes the same join, so
        // outputs-per-elapsed-time may differ, but whoever ran to
        // completion saw the same arrival schedule. All complete here.
        for r in [&amri, &hash, &bitmap, &scan] {
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", r.label);
            assert!(r.outputs > 0, "{}", r.label);
        }
        // Scan pays more CPU per probe, so it cannot beat AMRI.
        assert!(
            scan.outputs <= amri.outputs,
            "scan {} vs amri {}",
            scan.outputs,
            amri.outputs
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = run_mode(IndexingMode::Amri {
            assessor: AssessorKind::Csria,
            initial: None,
        });
        let b = run_mode(IndexingMode::Amri {
            assessor: AssessorKind::Csria,
            initial: None,
        });
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.series, b.series);
        assert_eq!(a.final_time, b.final_time);
    }

    #[test]
    fn tiny_budget_dies_with_oom() {
        let query = two_way_query();
        let workload = PairWorkload {
            rng: StdRng::seed_from_u64(3),
            cardinality: 64,
        };
        let mut cfg = small_config();
        cfg.budget = MemoryBudget { bytes: 20_000 };
        let result = Executor::try_new(
            &query,
            workload,
            IndexingMode::StaticBitmap { configs: None },
            cfg,
        )
        .expect("valid engine configuration")
        .run();
        let RunOutcome::OutOfMemory { at } = result.outcome else {
            panic!("a 20 kB budget must die, got {:?}", result.outcome);
        };
        assert!(at <= result.final_time + VirtualDuration::from_secs(1));
        assert_eq!(result.death_time(), Some(at));
    }

    #[test]
    fn pattern_observers_capture_probe_patterns() {
        let result = run_mode(IndexingMode::Scan);
        // Two-way join: every probe of either state uses its full 1-attr
        // pattern.
        for stats in &result.pattern_stats {
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].0.specified(), 1);
            assert!((stats[0].1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lambda_ramp_increases_arrivals_and_outputs() {
        let query = two_way_query();
        let run = |ramp: f64| {
            let mut cfg = small_config();
            cfg.lambda_ramp = ramp;
            Executor::try_new(
                &query,
                PairWorkload {
                    rng: StdRng::seed_from_u64(3),
                    cardinality: 64,
                },
                IndexingMode::StaticBitmap { configs: None },
                cfg,
            )
            .expect("valid engine configuration")
            .run()
        };
        let flat = run(0.0);
        let ramped = run(0.1); // triples the rate by t=20s
        assert!(
            ramped.requests.iter().sum::<u64>() > flat.requests.iter().sum::<u64>() * 3 / 2,
            "ramp must raise the probe volume: {:?} vs {:?}",
            ramped.requests,
            flat.requests
        );
        assert!(ramped.outputs > flat.outputs);
    }

    #[test]
    fn overload_shows_up_as_job_latency() {
        let query = two_way_query();
        let run = |c_c: f64| {
            let mut cfg = small_config();
            cfg.params.c_c = c_c;
            Executor::try_new(
                &query,
                PairWorkload {
                    rng: StdRng::seed_from_u64(3),
                    cardinality: 64,
                },
                IndexingMode::Scan,
                cfg,
            )
            .expect("valid engine configuration")
            .run()
        };
        let light = run(0.01);
        let heavy = run(30.0); // 15k-tick scans vs 10k-tick arrival gap: overload
        assert!(
            heavy.mean_job_latency_ticks > (light.mean_job_latency_ticks + 1.0) * 10.0,
            "overload must blow up sojourn times: {} vs {}",
            heavy.mean_job_latency_ticks,
            light.mean_job_latency_ticks
        );
        assert!(heavy.series.peak_backlog() > light.series.peak_backlog());
    }

    #[test]
    fn selections_drop_tuples_at_ingest() {
        let query = two_way_query()
            .with_selections(vec![amri_stream::Selection {
                stream: StreamId(0),
                attr: AttrId(0),
                op: amri_stream::JoinOp::Lt,
                value: 8, // keep only 1/8 of the left stream
            }])
            .unwrap();
        let run = |q: &amri_stream::SpjQuery| {
            Executor::try_new(
                q,
                PairWorkload {
                    rng: StdRng::seed_from_u64(3),
                    cardinality: 64,
                },
                IndexingMode::Scan,
                small_config(),
            )
            .expect("valid engine configuration")
            .run()
        };
        let base = run(&two_way_query());
        let filtered = run(&query);
        assert!(
            filtered.outputs < base.outputs / 4,
            "selection must cut the join volume: {} vs {}",
            filtered.outputs,
            base.outputs
        );
        assert!(filtered.outputs > 0, "but not to zero");
    }

    #[test]
    fn try_new_surfaces_configuration_errors() {
        use crate::{DegradationPolicy, EngineError, FaultPlan};
        let query = two_way_query();
        let workload = || PairWorkload {
            rng: StdRng::seed_from_u64(3),
            cardinality: 64,
        };
        // Per-state vector length disagrees with the query.
        let err = Executor::try_new(
            &query,
            workload(),
            IndexingMode::StaticBitmap {
                configs: Some(vec![IndexConfig::even(1, 16).unwrap()]),
            },
            small_config(),
        )
        .err()
        .expect("1 config for 2 streams must be rejected");
        assert!(
            matches!(&err, EngineError::InvalidConfig(msg) if msg.contains("StaticBitmap")),
            "{err}"
        );
        // An out-of-range policy, plan, rate or grid, named by field.
        type Edit = fn(&mut EngineConfig);
        let bad: [(&str, Edit); 8] = [
            ("high_water", |c| {
                c.degradation = Some(DegradationPolicy {
                    high_water: 2.0,
                    ..DegradationPolicy::default()
                })
            }),
            ("drop_prob", |c| {
                c.faults = Some(FaultPlan {
                    drop_prob: 7.0,
                    ..FaultPlan::default()
                })
            }),
            ("shards", |c| c.shards = 3),
            ("lambda_d", |c| c.lambda_d = 0.0),
            ("lambda_d", |c| c.lambda_d = -3.0),
            ("lambda_d", |c| c.lambda_d = f64::NAN),
            ("lambda_ramp", |c| c.lambda_ramp = f64::NAN),
            ("sample_interval", |c| {
                c.sample_interval = VirtualDuration(0)
            }),
        ];
        for (field, edit) in bad {
            let mut cfg = small_config();
            edit(&mut cfg);
            let err = Executor::try_new(&query, workload(), IndexingMode::Scan, cfg)
                .err()
                .unwrap_or_else(|| panic!("a bad {field} must be rejected"));
            assert!(
                matches!(&err, EngineError::InvalidConfig(msg) if msg.contains(field)),
                "{field}: {err}"
            );
        }
        // And a valid config still builds.
        assert!(Executor::try_new(&query, workload(), IndexingMode::Scan, small_config()).is_ok());
    }

    /// An exploration rate outside `[0, 1]` is a typed refusal naming
    /// the rate, for both exploring policies — not the router's panic.
    #[test]
    fn try_new_refuses_a_routing_exploration_rate_that_is_no_probability() {
        for rate in [1.5, f64::NAN, -0.1] {
            for policy in [
                PolicyKind::SelectivityGreedy { exploration: rate },
                PolicyKind::Lottery { exploration: rate },
            ] {
                let workload = PairWorkload {
                    rng: StdRng::seed_from_u64(3),
                    cardinality: 64,
                };
                let config = EngineConfig {
                    policy,
                    ..small_config()
                };
                match Executor::try_new(&two_way_query(), workload, IndexingMode::Scan, config) {
                    Err(crate::EngineError::InvalidConfig(msg)) => {
                        assert!(msg.contains(&rate.to_string()), "{policy:?}: {msg}")
                    }
                    Err(other) => panic!("{policy:?}: expected InvalidConfig, got {other}"),
                    Ok(_) => panic!("{policy:?} must be refused"),
                }
            }
        }
    }

    /// `try_new` refuses `mode` with an `InvalidConfig` whose message
    /// contains `names` (the state and what is wrong with it).
    fn refused(mode: IndexingMode, names: &str) {
        let workload = PairWorkload {
            rng: StdRng::seed_from_u64(3),
            cardinality: 64,
        };
        match Executor::try_new(&two_way_query(), workload, mode, small_config()) {
            Err(crate::EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains(names), "{msg:?} does not name {names:?}")
            }
            Err(other) => panic!("expected InvalidConfig naming {names:?}, got {other}"),
            Ok(_) => panic!("a mode that would panic mid-run must be refused: {names}"),
        }
    }

    #[test]
    fn static_bitmap_config_of_another_width_is_refused() {
        let two_wide = IndexConfig::even(2, 16).unwrap();
        refused(
            IndexingMode::StaticBitmap {
                configs: Some(vec![two_wide; 2]),
            },
            "StaticBitmap state 0: config IC[A:8|B:8] is 2 attributes wide, its JAS 1",
        );
    }

    #[test]
    fn hash_mode_of_no_index_is_refused() {
        refused(
            IndexingMode::AdaptiveHash {
                n_indices: 0,
                initial: None,
            },
            "AdaptiveHash state 0: needs a hash index, got n_indices 0 and 0 patterns",
        );
    }

    #[test]
    fn hash_mode_of_no_initial_pattern_is_refused() {
        refused(
            IndexingMode::AdaptiveHash {
                n_indices: 1,
                initial: Some(vec![vec![]; 2]),
            },
            "AdaptiveHash state 0: needs a hash index, got n_indices 1 and 0 patterns",
        );
    }

    #[test]
    fn hash_pattern_wider_than_the_jas_or_empty_is_refused() {
        for (pattern, shown) in [
            (AccessPattern::new(0b10, 2), "<*, B>"),
            (AccessPattern::empty(1), "<*>"),
        ] {
            refused(
                IndexingMode::AdaptiveHash {
                    n_indices: 1,
                    initial: Some(vec![vec![pattern]; 2]),
                },
                &format!("AdaptiveHash state 0: pattern {shown} is empty or not 1 attributes wide"),
            );
        }
    }
}
