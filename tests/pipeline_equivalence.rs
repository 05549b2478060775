//! Behavior pin for the runtime split: the batch-first `Pipeline` must
//! produce **byte-identical** results to the pre-refactor monolithic
//! executor loop.
//!
//! `reference_run` below is a frozen copy of the original
//! `Executor::run()` (commit d32ca61, before the operator/pipeline
//! split): single `VecDeque<Job>` backlog, inlined sampling/tuning on the
//! grid, inlined ingest and one-job probe. It must **never** be edited to
//! track runtime changes — it *is* the baseline. Each test drives the
//! frozen loop and `Executor::run()` (which now builds the operator
//! pipeline) on identical scenarios and compares the full-precision
//! `Debug` rendering of the two `RunResult`s, which covers every field —
//! series samples, cost-derived final times, retune records, f64 latency
//! and pattern frequencies — so any drift in ordering, cost accounting or
//! clock advancement fails the assert.

use amri_core::assess::{Assessor, AssessorKind, Sria};
use amri_core::{layout, CostReceipt, IndexConfig, SequentialExecutor};
use amri_engine::{
    EngineConfig, Executor, HashTuner, IndexingMode, JoinState, MemoryBudget, MemoryReport,
    RetuneRecord, Router, RunOutcome, RunResult, Stem, StreamWorkload, ThroughputSeries,
};
use amri_hh::CombineStrategy;
use amri_stream::{
    AccessPattern, PartialTuple, SearchRequest, SpjQuery, StreamId, Tuple, TupleId, VirtualClock,
    VirtualDuration, VirtualTime,
};
use amri_synth::scenario::{paper_scenario, Scale};
use std::collections::VecDeque;

/// Mirror of the runtime's output-digest fold — a pure observer over the
/// completed-output stream, so it cannot perturb the frozen loop's
/// behavior; it only lets the baseline fill `RunResult::output_digest`
/// and `RunResult::output_set`.
fn digest_fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The seed the runtime folds each output's words from for
/// `RunResult::output_set`.
const OUTPUT_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One routing job, as the pre-refactor loop represented it.
#[derive(Debug, Clone, Copy)]
struct Job {
    pt: PartialTuple,
    origin_ts: VirtualTime,
    enqueued: VirtualTime,
}

/// Frozen copy of the pre-refactor `Executor` state and construction.
struct Reference<W> {
    query: SpjQuery,
    graph: amri_stream::JoinGraph,
    workload: W,
    stems: Vec<Stem>,
    router: Router,
    config: EngineConfig,
    mode_label: String,
    observers: Vec<Sria>,
}

impl<W: StreamWorkload> Reference<W> {
    fn new(query: &SpjQuery, workload: W, mode: IndexingMode, config: EngineConfig) -> Self {
        let graph = query.join_graph();
        let n = query.n_streams();
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
                    let init = initial.as_ref().map(|v| v[i].clone()).unwrap_or_else(|| {
                        IndexConfig::even(width, config.tuner.total_bits).expect("≤64 bits")
                    });
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
                    )
                    .expect("valid tuner parameters")
                }
                IndexingMode::AdaptiveHash { n_indices, initial } => {
                    let patterns = initial.as_ref().map(|v| v[i].clone()).unwrap_or_else(|| {
                        AccessPattern::all(width)
                            .filter(|p| !p.is_empty())
                            .take(*n_indices)
                            .collect()
                    });
                    let tuner = HashTuner::new(
                        AssessorKind::Cdia(CombineStrategy::HighestCount),
                        width,
                        *n_indices,
                        config.tuner,
                    );
                    JoinState::multi_hash(sid, jas, window, patterns, Some(tuner), payload)
                }
                IndexingMode::StaticBitmap { configs } => {
                    let init = configs.as_ref().map(|v| v[i].clone()).unwrap_or_else(|| {
                        IndexConfig::even(width, config.tuner.total_bits).expect("≤64 bits")
                    });
                    JoinState::static_bitmap(sid, jas, window, init, payload)
                }
                IndexingMode::Scan => JoinState::scan(sid, jas, window, payload),
            };
            stems.push(Stem::new(sid, state));
        }
        let observers = (0..n)
            .map(|i| Sria::new(query.jas(StreamId(i as u16)).len()))
            .collect();
        Reference {
            query: query.clone(),
            graph,
            workload,
            stems,
            router: Router::new(config.policy, n, config.seed ^ 0x5EED_0001),
            config,
            mode_label,
            observers,
        }
    }

    fn lambda_at(&self, t: VirtualTime) -> f64 {
        self.config.lambda_d * (1.0 + self.config.lambda_ramp * t.as_secs_f64())
    }

    fn memory_report(&self, backlog_len: usize) -> MemoryReport {
        let states: u64 = self.stems.iter().map(|s| s.state.memory_bytes()).sum();
        let arity = self
            .query
            .schemas
            .iter()
            .map(|s| s.arity())
            .max()
            .unwrap_or(0);
        MemoryReport {
            states,
            backlog: backlog_len as u64
                * layout::queued_request_bytes(self.query.n_streams(), arity),
            phantom: 0,
            spilled: 0,
            cache: 0,
        }
    }

    /// The pre-refactor run loop, verbatim.
    fn run(mut self) -> RunResult {
        let n = self.query.n_streams();
        let deadline = VirtualTime::ZERO + self.config.duration;
        let mut clock = VirtualClock::new();
        let mut series = ThroughputSeries::new(self.config.sample_interval);
        let mut retunes: Vec<RetuneRecord> = Vec::new();
        let mut backlog: VecDeque<Job> = VecDeque::new();
        let base_gap = VirtualDuration::from_secs_f64(1.0 / self.config.lambda_d);
        let mut next_arrival: Vec<VirtualTime> = (0..n)
            .map(|i| VirtualTime(base_gap.0 * i as u64 / n as u64))
            .collect();
        let mut outputs: u64 = 0;
        let mut output_digest: u64 = 0;
        let mut output_set: u64 = 0;
        let mut tuple_seq: u64 = 0;
        let mut sojourn_ticks: u64 = 0;
        let mut jobs_processed: u64 = 0;
        let mut outcome = RunOutcome::Completed;
        let window_secs: Vec<f64> = self
            .query
            .windows
            .iter()
            .map(|w| w.length.as_secs_f64())
            .collect();

        'run: loop {
            let now = clock.now();
            while series.next_due() <= now {
                let due = series.next_due();
                let report = self.memory_report(backlog.len());
                series.record_until(due, outputs, report.total(), backlog.len() as u64);
                if report.over(self.config.budget) {
                    outcome = RunOutcome::OutOfMemory { at: due };
                    break 'run;
                }
                let elapsed = due.as_secs_f64().max(1.0);
                let lambda_now =
                    self.config.lambda_d * (1.0 + self.config.lambda_ramp * due.as_secs_f64());
                for (i, stem) in self.stems.iter_mut().enumerate() {
                    let lambda_r = stem.requests_served as f64 / elapsed;
                    let mut receipt = CostReceipt::new();
                    if let Some(r) = stem.state.maybe_retune_with(
                        due,
                        lambda_now,
                        lambda_r,
                        window_secs[i],
                        &mut receipt,
                        &SequentialExecutor,
                    ) {
                        retunes.push(RetuneRecord {
                            t: due,
                            state: i as u16,
                            config: r.description,
                            moved: r.moved,
                        });
                    }
                    clock.advance(self.config.params.ticks(&receipt));
                }
            }
            if clock.now() >= deadline {
                break 'run;
            }

            let now = clock.now();
            let mut ingested = false;
            #[allow(clippy::needless_range_loop)]
            for s in 0..n {
                while next_arrival[s] <= now {
                    ingested = true;
                    let ts = next_arrival[s];
                    let gap = VirtualDuration::from_secs_f64(1.0 / self.lambda_at(ts).max(1e-9));
                    next_arrival[s] = ts + gap;
                    let sid = StreamId(s as u16);
                    let attrs = self.workload.attrs_for(sid, ts);
                    if !self.query.passes_selections(sid, attrs.as_slice()) {
                        continue;
                    }
                    let tuple = Tuple::new(TupleId(tuple_seq), sid, ts, attrs);
                    tuple_seq += 1;
                    let mut receipt = CostReceipt::new();
                    let store = self.stems[s].state.store_mut();
                    store.expire(now, &mut receipt);
                    store.insert(tuple, &mut receipt);
                    clock.advance(self.config.params.ticks(&receipt));
                    backlog.push_back(Job {
                        pt: PartialTuple::from_base(&tuple),
                        origin_ts: ts,
                        enqueued: now,
                    });
                }
            }

            if let Some(job) = backlog.pop_front() {
                let pt = job.pt;
                sojourn_ticks += clock.now().since(job.enqueued).0;
                jobs_processed += 1;
                let target = self.router.choose_next(pt.covered);
                let (pattern, values, residual) = self.graph.probe_values(&pt, target);
                let req = SearchRequest::new(pattern, values);
                self.observers[target.idx()].record(pattern);
                let mut receipt = CostReceipt::new();
                let stem = &mut self.stems[target.idx()];
                stem.state
                    .search(&req, &mut stem.scratch, &mut receipt, &SequentialExecutor);
                stem.requests_served += 1;
                let window = self.query.windows[target.idx()];
                let now = clock.now();
                let mut matches = 0usize;
                for &key in &stem.scratch.hits {
                    let Some(t) = stem.state.store().tuple(key) else {
                        continue;
                    };
                    if !window.live(t.ts, now) {
                        continue;
                    }
                    if t.ts >= job.origin_ts {
                        continue;
                    }
                    let ok = residual.iter().all(|b| {
                        let lhs = t.attrs[self.graph.jas(target)[b.jas_pos].idx()];
                        let rhs = pt.part(b.src_stream).expect("covered")[b.src_attr.idx()];
                        b.op.eval(lhs, rhs)
                    });
                    if !ok {
                        continue;
                    }
                    matches += 1;
                    let extended = pt.extend(target, t.attrs, t.ts);
                    if extended.is_complete(n) {
                        outputs += 1;
                        let mut h = digest_fold(output_digest, job.origin_ts.0);
                        let mut o = digest_fold(OUTPUT_HASH_SEED, job.origin_ts.0);
                        for s in 0..n {
                            if let Some(part) = extended.part(StreamId(s as u16)) {
                                for &v in part.as_slice() {
                                    h = digest_fold(h, v);
                                    o = digest_fold(o, v);
                                }
                            }
                        }
                        output_digest = h;
                        output_set = output_set.wrapping_add(o);
                    } else {
                        backlog.push_back(Job {
                            pt: extended,
                            origin_ts: job.origin_ts,
                            enqueued: now,
                        });
                    }
                }
                stem.matches_returned += matches as u64;
                let ticks = self.config.params.ticks(&receipt);
                self.router.observe(target, matches, ticks.0);
                clock.advance(ticks);
            } else if !ingested {
                let next = next_arrival
                    .iter()
                    .min()
                    .copied()
                    .expect("at least one stream");
                clock.advance_to(next.min(deadline));
                if clock.now() >= deadline {
                    let report = self.memory_report(backlog.len());
                    series.record_until(deadline, outputs, report.total(), backlog.len() as u64);
                    break 'run;
                }
            }
        }

        let pattern_stats = self.observers.iter().map(|o| o.frequent(0.0)).collect();
        RunResult {
            label: self.mode_label,
            mean_job_latency_ticks: if jobs_processed == 0 {
                0.0
            } else {
                sojourn_ticks as f64 / jobs_processed as f64
            },
            final_time: clock.now().min(deadline),
            series,
            outcome,
            outputs,
            retunes,
            pattern_stats,
            requests: self.stems.iter().map(|s| s.requests_served).collect(),
            degradation: Default::default(),
            faults: Default::default(),
            spill: Default::default(),
            output_digest,
            output_set,
            maint: Default::default(),
        }
    }
}

/// The pipeline's run with its maintenance totals cleared: the frozen
/// loop predates them and reports none.
fn run_without_maint<W: StreamWorkload>(exec: Executor<W>) -> RunResult {
    let maint = Default::default();
    RunResult {
        maint,
        ..exec.run()
    }
}

/// Run a scenario through both loops and require byte-identical results.
fn assert_equivalent(mode: IndexingMode, scale: Scale, seed: u64, truncate: Option<u64>) {
    let mut sc = paper_scenario(scale, seed);
    if let Some(secs) = truncate {
        sc.engine.duration = VirtualDuration::from_secs(secs);
    }
    let old = Reference::new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone()).run();
    let new = run_without_maint(
        Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone())
            .expect("valid engine configuration"),
    );
    assert_eq!(
        format!("{old:#?}"),
        format!("{new:#?}"),
        "pipeline diverged from the frozen reference ({}, {scale:?}, seed {seed})",
        mode.label()
    );
}

#[test]
fn paper_scale_amri_is_byte_identical() {
    // The §V configuration (28 virtual minutes) truncated to its first two
    // minutes — long enough to cross 120 sampling grid points, retunes and
    // the first drift phases, short enough for a test.
    assert_equivalent(
        IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: None,
        },
        Scale::Paper,
        42,
        Some(120),
    );
}

#[test]
fn quick_scale_all_four_modes_are_byte_identical() {
    for mode in [
        IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: None,
        },
        IndexingMode::AdaptiveHash {
            n_indices: 3,
            initial: None,
        },
        IndexingMode::StaticBitmap { configs: None },
        IndexingMode::Scan,
    ] {
        assert_equivalent(mode, Scale::Quick, 7, None);
    }
}

/// Run one scenario at `shards = 4` with `parallelism` 1 and 4 and
/// require byte-identical results: the deterministic shard-then-slot
/// merge makes thread count an implementation detail, not an observable.
/// Returns `(dispatches, jobs)` of the `parallelism = 4` run: how many
/// dispatches its pool handed to the worker threads, over how many probes.
fn assert_parallelism_invariant(
    mode: IndexingMode,
    scale: Scale,
    seed: u64,
    truncate: Option<u64>,
) -> (u64, u64) {
    let mut sc = paper_scenario(scale, seed);
    if let Some(secs) = truncate {
        sc.engine.duration = VirtualDuration::from_secs(secs);
    }
    sc.engine.shards = 4;
    sc.engine.parallelism = std::num::NonZeroUsize::MIN;
    let seq = Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone())
        .expect("valid engine configuration")
        .run();
    sc.engine.parallelism = std::num::NonZeroUsize::new(4).unwrap();
    let mut par = Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone())
        .expect("valid engine configuration")
        .into_pipeline();
    while par.step_once() != amri_engine::SessionStatus::Finished {}
    let ctx = par.context();
    let counts = (ctx.pool.epochs(), ctx.jobs_processed);
    let par = par.into_result();
    assert_eq!(
        format!("{seq:#?}"),
        format!("{par:#?}"),
        "parallelism=4 diverged from parallelism=1 ({}, {scale:?}, seed {seed})",
        mode.label()
    );
    counts
}

#[test]
fn paper_scale_parallelism_is_byte_identical() {
    // The §V configuration truncated exactly like the frozen-reference
    // pin above: 120 grid points, retunes, the first drift phases.
    let (dispatches, jobs) = assert_parallelism_invariant(
        IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: None,
        },
        Scale::Paper,
        42,
        Some(120),
    );
    // The work-size gate: a probe step finds about one match among
    // ~1500 entries, nowhere near a hand-off's worth of work, so the pool
    // must not be paying one per probe (before the gate: one per probe
    // plus one per flush). Only a retune's migration passes may qualify —
    // at most a few dozen in this run.
    assert!(jobs > 100_000, "the run must probe: {jobs} jobs");
    assert!(
        dispatches < 100,
        "{dispatches} pooled dispatches over {jobs} probes"
    );
}

#[test]
fn quick_scale_parallelism_is_byte_identical_in_all_four_modes() {
    for mode in [
        IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: None,
        },
        IndexingMode::AdaptiveHash {
            n_indices: 3,
            initial: None,
        },
        IndexingMode::StaticBitmap { configs: None },
        IndexingMode::Scan,
    ] {
        assert_parallelism_invariant(mode, Scale::Quick, 7, None);
    }
}

#[test]
fn governed_degradation_parallelism_is_byte_identical() {
    // Sharded + threaded execution must not perturb the governor: shed
    // and eviction decisions hang off memory reports and backlog lengths,
    // both of which the deterministic merge keeps identical.
    let mut sc = paper_scenario(Scale::Quick, 42);
    sc.engine.budget = MemoryBudget { bytes: 150_000 };
    sc.engine.degradation = Some(amri_engine::DegradationPolicy {
        high_water: 0.9,
        low_water: 0.7,
        max_backlog: 512,
        shedding: amri_engine::SheddingPolicy::DropOldest,
        seed: 1,
    });
    sc.engine.shards = 4;
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
        initial: None,
    };
    sc.engine.parallelism = std::num::NonZeroUsize::MIN;
    let seq = Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone())
        .expect("valid engine configuration")
        .run();
    sc.engine.parallelism = std::num::NonZeroUsize::new(4).unwrap();
    let par = Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
        .expect("valid engine configuration")
        .run();
    assert!(
        matches!(seq.outcome, RunOutcome::Degraded { .. }),
        "the tight budget must force governed degradation: {:?}",
        seq.outcome
    );
    assert_eq!(format!("{seq:#?}"), format!("{par:#?}"));
}

#[test]
fn oom_death_is_byte_identical() {
    // A budget tight enough to kill hash-7 mid-run: the death instant and
    // the truncated series must match exactly through the new pipeline.
    let mut sc = paper_scenario(Scale::Quick, 42);
    sc.engine.budget = MemoryBudget { bytes: 300_000 };
    let mode = IndexingMode::AdaptiveHash {
        n_indices: 7,
        initial: None,
    };
    let old = Reference::new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone()).run();
    let new = run_without_maint(
        Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
            .expect("valid engine configuration"),
    );
    assert!(
        matches!(old.outcome, RunOutcome::OutOfMemory { .. }),
        "the tight budget must kill the reference run: {:?}",
        old.outcome
    );
    assert_eq!(format!("{old:#?}"), format!("{new:#?}"));
}
