//! The four step functions of the engine's loop — sample, tune, ingest,
//! probe — and the [`StreamWorkload`] seam that feeds ingest.
//!
//! Each function advances one facet of the run against the shared
//! [`RunContext`];
//! [`Pipeline::step_once`](crate::runtime::Pipeline::step_once) is the one
//! place that calls them and owns their order. Every cost a step incurs is
//! charged to the context's clock through a [`CostReceipt`], exactly as
//! the frozen d32ca61 loop in `tests/pipeline_equivalence.rs` does — that
//! test pins the two byte-identical.

use crate::metrics::RetuneRecord;
use crate::runtime::context::{digest_fold, FollowUp, Job, JobView, RunContext, RunOutcome};
use crate::runtime::degrade::push_governed;
use crate::runtime::fault::ArrivalFate;
use amri_core::assess::Assessor;
use amri_core::CostReceipt;
use amri_stream::{
    AttrVec, Clock, PartialTuple, SearchRequest, StreamId, StreamMask, Tuple, TupleId,
    VirtualDuration, VirtualTime,
};

/// Supplies attribute values for arriving tuples — implemented by
/// `amri-synth`'s drifting generators.
pub trait StreamWorkload {
    /// Attribute values for the next tuple of `stream` arriving at `now`.
    fn attrs_for(&mut self, stream: StreamId, now: VirtualTime) -> AttrVec;

    /// Serialize the workload's mutable state (typically its RNG stream)
    /// into a checkpoint section. Stateless workloads keep the default
    /// no-op; stateful ones must override **both** this and
    /// [`load_state`](Self::load_state) or resumed runs diverge.
    fn save_state(&self, _w: &mut amri_core::snapshot_io::SectionWriter) {}

    /// Restore the state captured by [`save_state`](Self::save_state).
    ///
    /// # Errors
    /// Implementations propagate decode failures as
    /// [`SnapshotError`](amri_core::snapshot_io::SnapshotError).
    fn load_state(
        &mut self,
        _r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        Ok(())
    }
}

/// Records the sample row at the next due grid point and checks the
/// memory budget; `false` when the breach killed the run.
///
/// One call handles exactly one grid point, so a slow simulation step
/// that crossed several grid points gets a fresh memory report (and its
/// own budget check and tuning pass) at every crossed point. The stepped
/// grid instant is published as [`RunContext::grid_due`] for
/// [`tune_step`].
pub(crate) fn sample_step<C: Clock>(ctx: &mut RunContext<C>) -> bool {
    let due = ctx.series.next_due();
    // Tier balancing runs *before* the governor: cold tuples move to
    // disk first, so eviction (which destroys state) only fires if
    // spilling could not clear the pressure.
    ctx.tier_balance(due);
    // With a governor, shed/evict *before* the budget check — the
    // breach only kills the run if governance couldn't clear it.
    // Without one this is exactly the pre-governor report.
    let report = if ctx.governor.is_some() {
        ctx.govern(due)
    } else {
        ctx.memory_report()
    };
    ctx.series
        .record_until(due, ctx.outputs, report.total(), ctx.backlog.len() as u64);
    ctx.grid_due = due;
    if report.over(ctx.config.budget) {
        ctx.outcome = RunOutcome::OutOfMemory { at: due };
        return false;
    }
    true
}

/// Record the final sample row at the deadline (the run completed idle).
pub(crate) fn close_series<C: Clock>(ctx: &mut RunContext<C>) {
    let report = ctx.memory_report();
    let deadline = ctx.deadline;
    ctx.series.record_until(
        deadline,
        ctx.outputs,
        report.total(),
        ctx.backlog.len() as u64,
    );
}

/// Gives every STeM a tuning opportunity at the grid instant
/// [`sample_step`] just recorded ([`RunContext::grid_due`]); migration
/// costs advance the clock.
pub(crate) fn tune_step<C: Clock>(ctx: &mut RunContext<C>) {
    let due = ctx.grid_due;
    let elapsed = due.as_secs_f64().max(1.0);
    let lambda_now = ctx.lambda_at(due);
    let RunContext {
        stems,
        retunes,
        clock,
        window_secs,
        config,
        pool,
        maint,
        backlog,
        ..
    } = ctx;
    for (i, stem) in stems.iter_mut().enumerate() {
        let lambda_r = stem.requests_served as f64 / elapsed;
        let mut receipt = CostReceipt::new();
        // Migration work is split shard by shard; the run's worker
        // pool takes it when the state is large enough to repay the
        // hand-off (see `WorkerPool::run_sized`), else it runs inline.
        let retuned = stem.state.maybe_retune_with(
            due,
            lambda_now,
            lambda_r,
            window_secs[i],
            &mut receipt,
            pool,
        );
        let ticks = config.params.ticks(&receipt);
        if let Some(r) = retuned {
            retunes.push(RetuneRecord {
                t: due,
                state: i as u16,
                config: r.description,
                moved: r.moved,
            });
            maint.migrate_ns += config.params.nanos(&receipt);
            // A reconfiguration that fires with jobs queued stalls
            // the pipeline for its whole duration.
            if !backlog.is_empty() {
                maint.migrate_stalls += 1;
            }
        }
        clock.advance(ticks);
    }
    // Refresh the run-level tuner-ledger totals from the states'
    // cumulative ledgers (overwrite, not accumulate: each state's
    // ledger is already a running sum that rides its snapshot).
    maint.retune_benefit_predicted_ns = 0;
    maint.retune_benefit_realized_ns = 0;
    maint.regret_vs_static_ns = 0;
    for stem in stems.iter() {
        let ledger = stem.state.tune_ledger();
        maint.retune_benefit_predicted_ns += ledger.predicted_benefit_ns;
        maint.retune_benefit_realized_ns += ledger.realized_benefit_ns;
        maint.regret_vs_static_ns += ledger.regret_vs_static_ns;
    }
}

/// Pulls every due arrival off the schedule: generates the tuple, filters
/// it through the query's local selections, stores it in its stream's
/// STeM and enqueues the routing job. `true` when anything arrived.
pub(crate) fn ingest_step<W: StreamWorkload, C: Clock>(
    ctx: &mut RunContext<C>,
    workload: &mut W,
) -> bool {
    let n = ctx.query.n_streams();
    let now = ctx.clock.now();
    let mut ingested = false;
    #[allow(clippy::needless_range_loop)] // s indexes two arrays
    for s in 0..n {
        while ctx.next_arrival[s] <= now {
            ingested = true;
            let ts = ctx.next_arrival[s];
            // Gap shrinks as the ramp raises the arrival rate.
            let gap = VirtualDuration::from_secs_f64(1.0 / ctx.lambda_at(ts).max(1e-9));
            ctx.next_arrival[s] = ts + gap;
            let sid = StreamId(s as u16);
            let attrs = workload.attrs_for(sid, ts);
            // Fault fate is decided *after* the workload generated the
            // attributes, so the workload's RNG stream is identical
            // with and without a plan.
            let copies = match ctx.fault.as_mut().map(|f| f.arrival_fate()) {
                None | Some(ArrivalFate::Deliver) => 1,
                Some(ArrivalFate::Duplicate) => 2,
                Some(ArrivalFate::Drop) => continue,
                Some(ArrivalFate::Late) => {
                    if let Some(f) = ctx.fault.as_mut() {
                        f.defer(s, ts, attrs);
                    }
                    continue;
                }
            };
            // Local selections (the S of SPJ) filter at ingest.
            if !ctx.query.passes_selections(sid, attrs.as_slice()) {
                continue;
            }
            for _ in 0..copies {
                deliver(ctx, s, ts, attrs, now);
            }
        }
    }
    // Held-back late arrivals release *after* the step's regular
    // arrivals, stamped with the release instant — window pushes stay
    // monotone.
    for s in 0..n {
        while let Some(attrs) = ctx.fault.as_mut().and_then(|f| f.release_due(s, now)) {
            ingested = true;
            let sid = StreamId(s as u16);
            if !ctx.query.passes_selections(sid, attrs.as_slice()) {
                continue;
            }
            deliver(ctx, s, now, attrs, now);
        }
    }
    ingested
}

/// Store one arriving tuple in its stream's STeM and enqueue its routing
/// job — the ingest tail shared by regular, duplicated and late-released
/// arrivals.
///
/// Expiry and insertion charge eagerly (arena slot, window order, and
/// receipts are exactly the sequential path's), but the physical index
/// link/unlink work is *staged* per shard; the same iteration's probe
/// step replays it, one task per shard, before it probes. The stage is
/// always drained before anything observes the index.
fn deliver<C: Clock>(
    ctx: &mut RunContext<C>,
    s: usize,
    ts: VirtualTime,
    attrs: AttrVec,
    now: VirtualTime,
) {
    let tuple = Tuple::new(TupleId(ctx.tuple_seq), StreamId(s as u16), ts, attrs);
    ctx.tuple_seq += 1;
    let mut receipt = CostReceipt::new();
    let stem = &mut ctx.stems[s];
    stem.state
        .ingest_arrival(tuple, now, &mut receipt, &mut stem.ingest_stage);
    ctx.maint.ingest_ns += ctx.config.params.nanos(&receipt);
    ctx.clock.advance(ctx.config.params.ticks(&receipt));
    push_governed(
        &mut ctx.governor,
        &mut ctx.backlog,
        &Job {
            pt: PartialTuple::from_base(&tuple),
            origin_ts: ts,
            enqueued: now,
        },
        now,
    );
}

/// Pops one routing job, probes the router-chosen STeM through the
/// reusable per-STeM scratch, applies window, MJoin-dedup and residual
/// predicates, and emits outputs or follow-up jobs.
///
/// One job per step: draining the backlog a job at a time preserves the
/// pre-refactor interleaving with sampling and ingest (and therefore
/// byte-identical results). The step never decodes its job: the packed
/// words are popped into the context's one buffer and read through a
/// [`JobView`] — probe values, residual operands, the output digest and
/// each surviving hit's [`FollowUp`] encode all read the 9–15 words the
/// queue held — and it allocates nothing in steady state. `false` when
/// the backlog was empty.
pub(crate) fn probe_step<C: Clock>(ctx: &mut RunContext<C>) -> bool {
    // Reorder fault: service the newest job instead of the oldest
    // with the plan's probability. The coin is only drawn when a job
    // is actually there to divert.
    let popped = !ctx.backlog.is_empty() && {
        let reorder = ctx.fault.as_mut().is_some_and(|f| f.reorder_next());
        if reorder {
            ctx.backlog.pop_newest_words(&mut ctx.job_words)
        } else {
            ctx.backlog.pop_words(&mut ctx.job_words)
        }
    };
    if !popped {
        // No job to probe for: drain every STeM's staged ingest work
        // before reporting idle — the pipeline observes memory (and
        // may checkpoint) at the loop boundary, and the visibility
        // contract requires an applied index by then.
        let RunContext { stems, pool, .. } = ctx;
        for stem in stems.iter_mut() {
            stem.state.flush_ingest(&mut stem.ingest_stage, pool);
        }
        return false;
    }
    let RunContext {
        clock,
        query,
        graph,
        stems,
        router,
        observers,
        backlog,
        job_words,
        outputs,
        sojourn_ticks,
        jobs_processed,
        config,
        governor,
        pool,
        output_digest,
        spill_lost,
        spill_first_at,
        ..
    } = ctx;
    let n = query.n_streams();
    let job = &JobView::new(job_words);
    let pt = &job.pt;
    *sojourn_ticks += clock.now().since(job.enqueued).0;
    *jobs_processed += 1;
    let target = router.choose_next(pt.covered());
    let (pattern, values, residual) = graph.probe_values(pt, target);
    let req = SearchRequest::new(pattern, values);
    observers[target.idx()].record(pattern);
    let mut receipt = CostReceipt::new();
    // Drain the staged ingest work of every *other* STeM first (almost
    // always none: only the arrivals since the last probe staged any);
    // the probe target's stage is flushed by its own read call below.
    for (i, stem) in stems.iter_mut().enumerate() {
        if i != target.idx() && !stem.ingest_stage.is_empty() {
            stem.state.flush_ingest(&mut stem.ingest_stage, pool);
        }
    }
    let stem = &mut stems[target.idx()];
    // Scratch-buffered search: the per-STeM buffer is reused across
    // requests, so steady state never allocates here. Apply, then
    // probe: two sized dispatches. A probe step is a few staged ops
    // and about one match, far below a hand-off's worth of work, so
    // the pool runs both on this thread at any parallelism; only a
    // dispatch sized above the pool's threshold, or the tier's block
    // reads, crosses threads.
    stem.state.flush_ingest_then_search(
        &req,
        &mut stem.scratch,
        &mut receipt,
        &mut stem.ingest_stage,
        pool,
    );
    stem.requests_served += 1;
    let window = query.windows[target.idx()];
    let now = clock.now();
    let target_jas = graph.jas(target);
    let completes = pt.covered().with(target) == StreamMask::all(n);
    let mut matches = 0usize;
    let mut on_hit = |t: &Tuple| {
        // Lazy expiry: skip tuples that slid out of the window.
        if !window.live(t.ts, now) {
            return;
        }
        // MJoin dedup: only match tuples older than the job's origin
        // arrival.
        if t.ts >= job.origin_ts {
            return;
        }
        // Residual (non-equality) predicates.
        let ok = residual.iter().all(|b| {
            let lhs = t.attrs[target_jas[b.jas_pos].idx()];
            let rhs = pt
                .part(b.src_stream)
                .expect("graph only emits residuals whose source stream the partial covers")
                [b.src_attr.idx()];
            b.op.eval(lhs, rhs)
        });
        if !ok {
            return;
        }
        matches += 1;
        if completes {
            *outputs += 1;
            // Fold the completed output into the order-sensitive run
            // digest — the identity witness the lattice's spill group pins:
            // origin, then every stream's part ascending, the target's
            // being the matched tuple.
            let mut h = digest_fold(*output_digest, job.origin_ts.0);
            for s in (0..n as u16).map(StreamId) {
                let part = if s == target {
                    t.attrs.as_slice()
                } else {
                    pt.part(s)
                        .expect("a completing probe's parent covers every other stream")
                };
                for &v in part {
                    h = digest_fold(h, v);
                }
            }
            *output_digest = h;
        } else {
            let follow_up = FollowUp {
                parent: job,
                matched: t,
                enqueued: now,
            };
            push_governed(governor, backlog, &follow_up, now);
        }
    };
    if stem.state.spilled_len() == 0 {
        // Every hit is RAM-resident: read it where it lives.
        let store = stem.state.store();
        for &key in &stem.scratch.hits {
            if let Some(t) = store.tuple(key) {
                on_hit(t);
            }
        }
    } else {
        // Some of the state is on disk: materialize every hit up
        // front, one batch call. The tier's block cache (when enabled)
        // groups hits by block and reads each distinct block once —
        // cacheless, this is exactly the per-hit read sequence. A lost
        // block — double read error or real corruption — purges its
        // stubs and counts as typed degradation, never a panic; its
        // hits come back `None`.
        let mut mat = std::mem::take(&mut stem.mat_buf);
        let lost = stem
            .state
            .materialize_batch(&stem.scratch.hits, &mut mat, &mut receipt, pool);
        if lost > 0 {
            *spill_lost += lost as u64;
            spill_first_at.get_or_insert(now);
        }
        mat.iter().flatten().for_each(&mut on_hit);
        stem.mat_buf = mat;
    }
    stem.matches_returned += matches as u64;
    let ticks = config.params.ticks(&receipt);
    router.observe(target, matches, ticks.0);
    clock.advance(ticks);
    true
}
