//! Behavioral tests for the runtime layer that the equivalence pin does
//! not cover directly: backlog sojourn stamps surviving the batch-queue
//! refactor, multi-grid-point sampling, router ordering invariants, and
//! the budget-exhaustion path driven through the explicit [`Pipeline`]
//! API (mirroring `baseline_oom.rs`, which goes through `Executor::run`).

use amri_core::assess::AssessorKind;
use amri_engine::{
    EngineConfig, Executor, IndexingMode, Job, MemoryBudget, MemoryReport, PolicyKind, Router,
    RunOutcome, Session, SessionStatus, StreamWorkload, ThroughputSeries,
};
use amri_hh::CombineStrategy;
use amri_stream::{
    AttrVec, JobQueue, PartialTuple, StreamId, StreamMask, Tuple, TupleId, VirtualDuration,
    VirtualTime,
};
use amri_synth::scenario::{paper_scenario, Scale};

fn job_at(secs: u64) -> Job {
    let t = Tuple::new(
        TupleId(secs),
        StreamId(0),
        VirtualTime::from_secs(secs),
        AttrVec::from_slice(&[secs]).unwrap(),
    );
    Job {
        pt: PartialTuple::from_base(&t),
        origin_ts: VirtualTime::from_secs(secs),
        enqueued: VirtualTime::from_secs(secs),
    }
}

/// S2: the `enqueued` stamp — the input to the sojourn-time metric — must
/// ride through the batch-granular queue unchanged and in FIFO order,
/// including across sealed-batch boundaries and interleaved pops.
#[test]
fn job_enqueued_stamps_survive_the_batch_queue_fifo() {
    let mut q: JobQueue<Job> = JobQueue::new();
    let total = 3 * q.batch_capacity() + 7; // span several sealed batches
    let mut expect = std::collections::VecDeque::new();
    for i in 0..total as u64 {
        q.push(job_at(i));
        expect.push_back(i);
        if i % 5 == 4 {
            let job = q.pop().expect("queue is non-empty");
            let want = expect.pop_front().unwrap();
            assert_eq!(job.enqueued, VirtualTime::from_secs(want));
        }
    }
    while let Some(job) = q.pop() {
        let want = expect.pop_front().expect("no phantom jobs");
        assert_eq!(job.enqueued, VirtualTime::from_secs(want), "FIFO order");
        assert_eq!(job.origin_ts, VirtualTime::from_secs(want));
    }
    assert!(expect.is_empty(), "every pushed job must come back out");
}

/// S2: `record_until` must stamp one sample per crossed grid point when a
/// single slow step jumps the clock over several of them.
#[test]
fn slow_step_stamps_every_crossed_grid_sample() {
    let interval = VirtualDuration::from_secs(1);
    let mut series = ThroughputSeries::new(interval);
    // One call, four crossed grid points (t = 0, 1, 2, 3 s).
    let now = VirtualTime::from_secs(3);
    while series.next_due() <= now {
        let due = series.next_due();
        series.record_until(due, 10, 100, 2);
    }
    let samples = series.samples();
    assert_eq!(samples.len(), 4, "grid points 0..=3 s");
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.t, VirtualTime::from_secs(i as u64), "on-grid stamp");
        assert_eq!((s.outputs, s.memory, s.backlog), (10, 100, 2));
    }
    assert_eq!(series.next_due(), VirtualTime::from_secs(4));
}

/// S2, end to end: however slow individual steps are, the recorded series
/// is always the full gap-free sampling grid.
#[test]
fn pipeline_series_has_no_grid_gaps() {
    let mut sc = paper_scenario(Scale::Quick, 13);
    // Inflate unit costs so single probes routinely cross grid points.
    sc.engine.params.c_base *= 50.0;
    sc.engine.params.c_c *= 50.0;
    let r = Executor::try_new(
        &sc.query,
        sc.workload(),
        IndexingMode::Scan,
        sc.engine.clone(),
    )
    .expect("valid engine configuration")
    .run();
    let interval = sc.engine.sample_interval;
    for (i, s) in r.series.samples().iter().enumerate() {
        assert_eq!(
            s.t,
            VirtualTime(interval.0 * i as u64),
            "sample {i} must sit on the grid"
        );
    }
    assert!(
        r.mean_job_latency_ticks > 0.0,
        "inflated costs must show up as backlog sojourn time"
    );
}

/// S3: no policy ever routes a partial tuple to a state it has already
/// visited, for any non-full visited mask — the invariant the probe
/// step's `expect("covered")` relies on.
#[test]
fn router_never_chooses_a_visited_state() {
    let n = 4usize;
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::SelectivityGreedy { exploration: 0.3 },
        PolicyKind::Lottery { exploration: 0.3 },
    ] {
        let mut router = Router::new(policy, n, 99);
        // Bias the statistics so greedy policies have a favorite…
        for _ in 0..50 {
            router.observe(StreamId(1), 40, 10);
            router.observe(StreamId(3), 0, 10);
        }
        // …then check every non-full mask, repeatedly (exploration rolls).
        for mask_bits in 0u16..(1 << n) - 1 {
            let mut visited = StreamMask::EMPTY;
            for s in 0..n as u16 {
                if mask_bits & (1 << s) != 0 {
                    visited = visited.with(StreamId(s));
                }
            }
            for _ in 0..20 {
                let choice = router.choose_next(visited);
                assert!(
                    !visited.covers(choice),
                    "{policy:?} routed to visited state {choice:?} (mask {mask_bits:#06b})"
                );
                assert!((choice.0 as usize) < n, "in-range state");
            }
        }
    }
}

/// S3: round-robin ordering is the lowest-id unvisited state, exactly.
#[test]
fn round_robin_picks_lowest_unvisited() {
    let mut router = Router::new(PolicyKind::RoundRobin, 4, 5);
    let cases = [
        (StreamMask::EMPTY, 0u16),
        (StreamMask::only(StreamId(0)), 1),
        (StreamMask::only(StreamId(1)), 0),
        (StreamMask::only(StreamId(0)).with(StreamId(1)), 2),
        (StreamMask::all(3), 3),
    ];
    for (visited, want) in cases {
        assert_eq!(router.choose_next(visited), StreamId(want));
    }
}

/// S3: budget-exhaustion edge cases around the comparison the sample
/// step makes every grid point.
#[test]
fn budget_exhaustion_boundaries() {
    let budget = MemoryBudget { bytes: 1000 };
    let exactly = MemoryReport {
        states: 600,
        backlog: 400,
        phantom: 0,
        spilled: 0,
        cache: 0,
    };
    assert!(!exactly.over(budget), "spending the whole budget is fine");
    let one_more = MemoryReport {
        states: 600,
        backlog: 401,
        phantom: 0,
        spilled: 0,
        cache: 0,
    };
    assert!(one_more.over(budget), "one byte past the budget kills");
    let huge = MemoryReport {
        states: u64::MAX,
        backlog: 0,
        phantom: 0,
        spilled: 0,
        cache: 0,
    };
    assert!(
        !huge.over(MemoryBudget::unlimited()),
        "unlimited never breaches"
    );
    assert!(huge.over(MemoryBudget::default()));
}

/// S3: the OOM path of `baseline_oom.rs`, driven through the explicit
/// [`Pipeline`](amri_engine::Pipeline) API rather than `Executor::run`:
/// the run dies on a sampling grid point, the series is truncated at the
/// death sample, and that sample shows the breach.
#[test]
fn oom_through_the_explicit_pipeline_mirrors_the_baseline() {
    let mut sc = paper_scenario(Scale::Quick, 42);
    sc.engine.budget = MemoryBudget { bytes: 300_000 };
    let executor = Executor::try_new(
        &sc.query,
        sc.workload(),
        IndexingMode::AdaptiveHash {
            n_indices: 7,
            initial: None,
        },
        sc.engine.clone(),
    )
    .expect("valid engine configuration");
    let pipeline = executor.into_pipeline();
    assert_eq!(pipeline.context().outcome, RunOutcome::Completed);
    let r = pipeline.run();
    let RunOutcome::OutOfMemory { at } = r.outcome else {
        panic!("a 300 kB budget must kill hash-7: {:?}", r.outcome);
    };
    assert_eq!(
        at.0 % sc.engine.sample_interval.0,
        0,
        "death is detected on the sampling grid"
    );
    let last = r.series.samples().last().unwrap();
    assert_eq!(last.t, at, "series is truncated at the death sample");
    assert!(last.memory > 300_000, "the death sample shows the breach");
    assert!(r.final_time >= at);
}

/// The harness and the pipeline expose the same run: the `Pipeline`
/// `into_pipeline` assembles, driven by the caller, equals `Executor::run`.
#[test]
fn into_pipeline_run_equals_executor_run() {
    let sc = paper_scenario(Scale::Quick, 3);
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
        initial: None,
    };
    let build = || {
        Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone())
            .expect("valid engine configuration")
    };
    let direct = build().run();
    let via_pipeline = build().into_pipeline().run();
    assert_eq!(format!("{direct:#?}"), format!("{via_pipeline:#?}"));
}

/// One latch: "finished" is the pipeline's own flag. Stepping a finished
/// `Session` moves nothing, its result is the harness's own, and a
/// `Session` wrapped around an already-finished pipeline says so.
#[test]
fn a_finished_session_is_latched_by_its_pipeline() {
    let sc = paper_scenario(Scale::Quick, 3);
    let build = || {
        Executor::try_new(
            &sc.query,
            sc.workload(),
            IndexingMode::Scan,
            sc.engine.clone(),
        )
        .expect("valid engine configuration")
    };
    let mut session = Session::new(build().into_pipeline());
    assert!(!session.is_finished());
    while session.run_quantum(64) != SessionStatus::Finished {}
    assert!(session.is_finished());

    let at_rest = |s: &Session<_>| {
        let ctx = s.context();
        (ctx.step, ctx.tuple_seq, ctx.jobs_processed, s.now())
    };
    let before = at_rest(&session);
    assert!(before.2 > 0, "the run must have probed something");
    assert_eq!(session.step(), SessionStatus::Finished);
    assert_eq!(session.run_quantum(64), SessionStatus::Finished);
    assert_eq!(session.run_quantum(0), SessionStatus::Finished);
    assert_eq!(at_rest(&session), before);
    assert_eq!(
        format!("{:#?}", session.finish().0),
        format!("{:#?}", build().run())
    );

    let mut pipeline = build().into_pipeline();
    while pipeline.step_once() != SessionStatus::Finished {}
    assert!(Session::new(pipeline).is_finished());
}

/// `EngineConfig` stays the source-compatible front door: a config built
/// with struct-update syntax over `Default` still drives a full run.
#[test]
fn engine_config_defaults_remain_source_compatible() {
    struct ConstWorkload;
    impl StreamWorkload for ConstWorkload {
        fn attrs_for(&mut self, _stream: StreamId, now: VirtualTime) -> AttrVec {
            AttrVec::from_slice(&[now.0 % 8, now.0 % 5, now.0 % 3]).unwrap()
        }
    }
    let sc = paper_scenario(Scale::Quick, 1);
    let config = EngineConfig {
        duration: VirtualDuration::from_secs(5),
        lambda_d: 20.0,
        ..sc.engine.clone()
    };
    let r = Executor::try_new(&sc.query, ConstWorkload, IndexingMode::Scan, config)
        .expect("valid engine configuration")
        .run();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.label, "scan");
}
