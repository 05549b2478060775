//! The [`Pipeline`]: the engine's one step loop
//! ([`step_once`](Pipeline::step_once)), its checkpoint image, and the
//! assembly of the [`RunResult`].

use crate::error::EngineError;
use crate::metrics::{RetuneRecord, ThroughputSeries};
use crate::runtime::checkpoint::Checkpointer;
use crate::runtime::context::{Job, MaintenanceStats, RunContext, RunOutcome};
use crate::runtime::degrade::DegradationReport;
use crate::runtime::fault::FaultReport;
use crate::runtime::operators::{
    close_series, ingest_step, probe_step, sample_step, tune_step, StreamWorkload,
};
use crate::runtime::session::SessionStatus;
use amri_core::assess::Assessor;
use amri_stream::snapshot::{SectionWriter, SnapshotError, SnapshotReader, SnapshotWriter};
use amri_stream::{
    AccessPattern, Clock, JobQueue, PartialTuple, StreamMask, VirtualClock, VirtualTime,
};
use serde::{Deserialize, Serialize};

/// Everything a run produced: its answer, how it ended, and what it cost.
/// The `Debug` render is the byte-identity witness the lattice, the
/// recovery tests and the benchmark's fingerprint compare, so every field
/// — the maintenance totals included — is a function of the seed and the
/// configuration alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Mode label (e.g. `AMRI-CDIA-highest`, `hash-3`).
    pub label: String,
    /// The cumulative-throughput series.
    pub series: ThroughputSeries,
    /// Completion or death.
    pub outcome: RunOutcome,
    /// Total output tuples produced.
    pub outputs: u64,
    /// Index migrations, time-ordered.
    pub retunes: Vec<RetuneRecord>,
    /// Per-state observed access-pattern frequencies (exact, whole run).
    pub pattern_stats: Vec<Vec<(AccessPattern, f64)>>,
    /// Per-state search requests served.
    pub requests: Vec<u64>,
    /// Virtual instant the run stopped.
    pub final_time: VirtualTime,
    /// Mean virtual time a routing job waited in the backlog before being
    /// processed — the latency face of overload (ticks).
    pub mean_job_latency_ticks: f64,
    /// What the overload governor did (all zeros/empty without a
    /// [`DegradationPolicy`](crate::DegradationPolicy)).
    pub degradation: DegradationReport,
    /// What the fault plan injected (all zeros without a
    /// [`FaultPlan`](crate::FaultPlan)).
    pub faults: FaultReport,
    /// What the spill tier did (all zeros without a tier), summed over
    /// every STeM's block store.
    #[serde(default)]
    pub spill: amri_core::SpillStats,
    /// Order-sensitive digest over every completed join output — the
    /// byte-identity witness compared across budget/crash/thread variants.
    #[serde(default)]
    pub output_digest: u64,
    /// Virtual ns spent on ingest and migration, and the tuner's predicted
    /// and realized retune benefit and regret.
    #[serde(default)]
    pub maint: MaintenanceStats,
}

impl RunResult {
    /// Time the run died, if it did. A [`RunOutcome::Degraded`] run
    /// survived to its deadline, so it has no death time.
    pub fn death_time(&self) -> Option<VirtualTime> {
        match self.outcome {
            RunOutcome::OutOfMemory { at } => Some(at),
            RunOutcome::Completed | RunOutcome::Degraded { .. } => None,
        }
    }
}

/// The engine's step loop over one [`RunContext`].
///
/// Each iteration ([`step_once`](Self::step_once)): every due grid point
/// gets a sample row (memory check) and a tuning pass, then ingest pulls
/// due arrivals, then probe processes one routing job. When both ingest
/// and probe are idle the clock jumps to the next arrival (or the
/// deadline, closing the series with a final row).
///
/// Built by [`Executor::into_pipeline`](crate::Executor::into_pipeline)
/// (or [`resume_from`](crate::Executor::resume_from)), which owns flavor
/// construction and seeding.
pub struct Pipeline<W, C: Clock = VirtualClock> {
    ctx: RunContext<C>,
    /// Attribute source for arriving tuples.
    workload: W,
    mode_label: String,
    /// Latched once the run reached its end (deadline or death), so
    /// [`step_once`](Self::step_once) is safely re-invocable.
    done: bool,
}

impl<W: StreamWorkload, C: Clock> Pipeline<W, C> {
    /// A pipeline at step 0 of the run `ctx` was assembled for.
    pub(crate) fn from_parts(ctx: RunContext<C>, workload: W, mode_label: String) -> Self {
        Pipeline {
            ctx,
            workload,
            mode_label,
            done: false,
        }
    }

    /// The run state (for harness introspection and tests).
    pub fn context(&self) -> &RunContext<C> {
        &self.ctx
    }

    /// Run to completion (or death) and return the results.
    pub fn run(self) -> RunResult {
        self.run_with(None, 0)
            .expect("a run without a checkpointer has no crash or I/O path")
    }

    /// Run to completion (or death), taking checkpoints through `ckpt`
    /// when one is supplied. `fingerprint` stamps each snapshot with the
    /// configuration that produced it (see
    /// [`Executor::config_fingerprint`](crate::Executor::config_fingerprint)).
    ///
    /// Checkpointing is a pure observer — no clock charges, no RNG draws
    /// — so the result is byte-identical with and without it.
    ///
    /// # Errors
    /// * [`EngineError::InjectedCrash`] when an armed
    ///   [`FaultKind::CrashAt`](crate::FaultKind::CrashAt) kills the run.
    /// * [`EngineError::Snapshot`] when a checkpoint write fails.
    pub fn run_with(
        mut self,
        mut ckpt: Option<&mut Checkpointer>,
        fingerprint: u64,
    ) -> Result<RunResult, EngineError> {
        loop {
            if let Some(c) = ckpt.as_deref_mut() {
                let step = self.ctx.step;
                if c.should_crash(step) {
                    return Err(EngineError::InjectedCrash { step });
                }
                let budget = self.ctx.config.budget.bytes;
                let utilization = if budget == 0 {
                    0.0
                } else {
                    self.ctx.memory_report().total() as f64 / budget as f64
                };
                if c.due(step, utilization) {
                    c.write(self.snapshot_image(fingerprint))?;
                }
            }
            if self.step_once() == SessionStatus::Finished {
                break;
            }
        }
        Ok(self.into_result())
    }

    /// One iteration of the run loop: every due grid point gets a sample
    /// row (memory check) and a tuning pass, then ingest pulls due
    /// arrivals and probe processes one routing job; when both are idle
    /// the clock jumps to the next arrival (or the deadline, closing the
    /// series with a final row).
    ///
    /// Returns [`SessionStatus::Finished`] once the run is over — the
    /// deadline was reached or the budget check killed it — after which
    /// further calls are no-ops. This is the scheduling granule a host
    /// interleaves: the iteration boundary is exactly where
    /// [`run_with`](Self::run_with) checkpoints, so a pipeline may be
    /// [snapshotted](Self::snapshot_image) between any two calls (all
    /// staged ingest work is flushed within each iteration).
    pub fn step_once(&mut self) -> SessionStatus {
        if self.done {
            return SessionStatus::Finished;
        }
        let ctx = &mut self.ctx;
        // Sampling / tuning / memory checks on the grid. `now` is
        // captured once: grid points falling due *while tuning* are
        // handled on the next pipeline iteration.
        let now = ctx.clock.now();
        while ctx.series.next_due() <= now {
            if !sample_step(ctx) {
                self.done = true; // out of memory
                return SessionStatus::Finished;
            }
            tune_step(ctx);
        }
        if ctx.clock.now() >= ctx.deadline {
            self.done = true;
            return SessionStatus::Finished;
        }

        let ingested = ingest_step(ctx, &mut self.workload);
        let probed = probe_step(ctx);
        if !probed && !ingested {
            // Idle: jump to the next arrival.
            let next = ctx
                .next_arrival
                .iter()
                .min()
                .copied()
                .expect("SpjQuery validation guarantees at least one stream");
            let deadline = ctx.deadline;
            ctx.clock.advance_to(next.min(deadline));
            if ctx.clock.now() >= deadline {
                // Final sample row, then stop.
                close_series(ctx);
                self.done = true;
                return SessionStatus::Finished;
            }
        }
        ctx.step += 1;
        SessionStatus::Ready
    }

    /// True once [`step_once`](Self::step_once) has returned
    /// [`SessionStatus::Finished`].
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Capture the complete mutable run state as a snapshot file image.
    ///
    /// Everything a resumed run needs is serialized: the clock, arrival
    /// schedule, counters, metrics series, retune log, router statistics
    /// and RNG, the backlog (live jobs only — spare-pool buffers are
    /// working storage, re-warmed lazily after restore), every STeM's
    /// state store, index and tuner, the exact pattern observers, the
    /// governor and fault state when configured, and the workload's own
    /// state. Construction-time configuration (query, policy kinds, cost
    /// params) is *not* captured; it is pinned by `fingerprint` instead.
    pub fn snapshot_image(&self, fingerprint: u64) -> Vec<u8> {
        let ctx = &self.ctx;
        let mut snap = SnapshotWriter::new(fingerprint, ctx.step);

        let mut w = SectionWriter::new();
        w.put_time(ctx.clock.now());
        w.put_usize(ctx.next_arrival.len());
        for &t in &ctx.next_arrival {
            w.put_time(t);
        }
        w.put_u64(ctx.outputs);
        w.put_u64(ctx.tuple_seq);
        w.put_u64(ctx.sojourn_ticks);
        w.put_u64(ctx.jobs_processed);
        w.put_time(ctx.grid_due);
        w.put_u64(ctx.output_digest);
        w.put_u64(ctx.spill_lost);
        match ctx.spill_first_at {
            Some(t) => {
                w.put_bool(true);
                w.put_time(t);
            }
            None => w.put_bool(false),
        }
        snap.add("runtime", w);

        let mut w = SectionWriter::new();
        ctx.series.save(&mut w);
        snap.add("series", w);

        let mut w = SectionWriter::new();
        w.put_usize(ctx.retunes.len());
        for r in &ctx.retunes {
            w.put_time(r.t);
            w.put_u16(r.state);
            w.put_str(&r.config);
            w.put_u64(r.moved);
        }
        snap.add("retunes", w);

        let mut w = SectionWriter::new();
        ctx.router.save(&mut w);
        snap.add("router", w);

        let mut w = SectionWriter::new();
        ctx.backlog.save_jobs(&mut w, |w, job| {
            w.put_u16(job.pt.covered.0);
            w.put_time(job.pt.min_ts);
            for s in job.pt.covered.streams() {
                w.put_attrs(job.pt.part(s).expect("covered stream has a part"));
            }
            w.put_time(job.origin_ts);
            w.put_time(job.enqueued);
        });
        snap.add("backlog", w);

        let mut w = SectionWriter::new();
        w.put_usize(ctx.stems.len());
        for stem in &ctx.stems {
            stem.save(&mut w);
        }
        snap.add("stems", w);

        let mut w = SectionWriter::new();
        w.put_usize(ctx.observers.len());
        for o in &ctx.observers {
            o.save(&mut w);
        }
        snap.add("observers", w);

        if let Some(gov) = &ctx.governor {
            let mut w = SectionWriter::new();
            gov.save(&mut w);
            snap.add("governor", w);
        }
        if let Some(fault) = &ctx.fault {
            let mut w = SectionWriter::new();
            fault.save(&mut w);
            snap.add("fault", w);
        }

        let mut w = SectionWriter::new();
        w.put_u64(ctx.maint.ingest_ns);
        w.put_u64(ctx.maint.migrate_ns);
        w.put_u64(ctx.maint.migrate_stalls);
        snap.add("maint", w);

        let mut w = SectionWriter::new();
        self.workload.save_state(&mut w);
        snap.add("workload", w);

        snap.finish()
    }

    /// Overwrite this freshly constructed pipeline's mutable state from a
    /// parsed snapshot, so the subsequent [`run_with`](Self::run_with)
    /// continues the captured run exactly. The pipeline must have been
    /// built from the same configuration that produced the snapshot
    /// (callers enforce this via the fingerprint; see
    /// [`Executor::resume_from`](crate::Executor::resume_from)).
    ///
    /// # Errors
    /// [`EngineError::Snapshot`] when a section is missing, malformed, or
    /// structurally incompatible with this pipeline (stream counts,
    /// flavor tags, sampling grid).
    pub fn restore_from(&mut self, snap: &SnapshotReader) -> Result<(), EngineError> {
        let mut r = snap.section("runtime")?;
        let now = r.get_time()?;
        let n = r.get_usize()?;
        if n != self.ctx.next_arrival.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot covers {n} streams, this run has {}",
                self.ctx.next_arrival.len()
            ))
            .into());
        }
        for slot in &mut self.ctx.next_arrival {
            *slot = r.get_time()?;
        }
        self.ctx.outputs = r.get_u64()?;
        self.ctx.tuple_seq = r.get_u64()?;
        self.ctx.sojourn_ticks = r.get_u64()?;
        self.ctx.jobs_processed = r.get_u64()?;
        self.ctx.grid_due = r.get_time()?;
        self.ctx.output_digest = r.get_u64()?;
        self.ctx.spill_lost = r.get_u64()?;
        self.ctx.spill_first_at = if r.get_bool()? {
            Some(r.get_time()?)
        } else {
            None
        };
        self.ctx.step = snap.step();
        self.ctx.clock.advance_to(now);

        self.ctx.series.restore_from(&mut snap.section("series")?)?;

        let mut r = snap.section("retunes")?;
        // Time, state, an empty config string's length, moved.
        let n = r.get_count(8 + 2 + 8 + 8, "retune count")?;
        let mut retunes = Vec::with_capacity(n);
        for _ in 0..n {
            retunes.push(RetuneRecord {
                t: r.get_time()?,
                state: r.get_u16()?,
                config: r.get_str()?,
                moved: r.get_u64()?,
            });
        }
        self.ctx.retunes = retunes;

        self.ctx.router.restore_from(&mut snap.section("router")?)?;

        let schemas = &self.ctx.query.schemas;
        let n_streams = schemas.len();
        self.ctx.backlog = JobQueue::load_jobs(&mut snap.section("backlog")?, |r| {
            let covered = StreamMask(r.get_u16()?);
            if covered.is_empty() || covered.streams().any(|s| s.idx() >= n_streams) {
                return Err(SnapshotError::Malformed(format!(
                    "backlog job covers streams {covered:?} outside this {n_streams}-way query"
                )));
            }
            let min_ts = r.get_time()?;
            let mut parts = Vec::with_capacity(covered.count() as usize);
            for s in covered.streams() {
                let part = r.get_attrs()?;
                // The job's probes read every join attribute of each part.
                let arity = schemas[s.idx()].arity();
                if part.len() < arity {
                    return Err(SnapshotError::Malformed(format!(
                        "backlog job's part of stream {} has {} values, its schema {arity}",
                        s.idx(),
                        part.len()
                    )));
                }
                parts.push(part);
            }
            Ok(Job {
                pt: PartialTuple::from_parts(covered, min_ts, parts),
                origin_ts: r.get_time()?,
                enqueued: r.get_time()?,
            })
        })?;
        // Spare buffers are working storage, not snapshot state: re-apply
        // this run's configured cap to the restored queue.
        self.ctx
            .backlog
            .set_spare_cap(self.ctx.config.spare_buffer_cap);

        let mut r = snap.section("stems")?;
        let n = r.get_usize()?;
        if n != self.ctx.stems.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot holds {n} STeMs, this run has {}",
                self.ctx.stems.len()
            ))
            .into());
        }
        for stem in &mut self.ctx.stems {
            stem.restore_from(&mut r)?;
        }

        let mut r = snap.section("observers")?;
        let n = r.get_usize()?;
        if n != self.ctx.observers.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot holds {n} observers, this run has {}",
                self.ctx.observers.len()
            ))
            .into());
        }
        for o in &mut self.ctx.observers {
            o.load(&mut r)?;
        }

        match (&mut self.ctx.governor, snap.section("governor")) {
            (Some(gov), Ok(mut r)) => gov.restore_from(&mut r)?,
            (None, Err(_)) => {}
            (Some(_), Err(e)) => return Err(e.into()),
            (None, Ok(_)) => {
                return Err(SnapshotError::Malformed(
                    "snapshot carries governor state but this run has no degradation policy".into(),
                )
                .into())
            }
        }
        match (&mut self.ctx.fault, snap.section("fault")) {
            (Some(fault), Ok(mut r)) => fault.restore_from(&mut r, &self.ctx.query.schemas)?,
            (None, Err(_)) => {}
            (Some(_), Err(e)) => return Err(e.into()),
            (None, Ok(_)) => {
                return Err(SnapshotError::Malformed(
                    "snapshot carries fault state but this run has no fault plan".into(),
                )
                .into())
            }
        }

        let mut r = snap.section("maint")?;
        self.ctx.maint = MaintenanceStats {
            ingest_ns: r.get_u64()?,
            migrate_ns: r.get_u64()?,
            migrate_stalls: r.get_u64()?,
            ..MaintenanceStats::default()
        };

        self.workload.load_state(&mut snap.section("workload")?)?;
        Ok(())
    }

    /// Consume the pipeline into its results. The terminal step for
    /// callers driving the loop themselves; the `run*` drivers all end
    /// here. Calling this before the run finished yields the partial
    /// result as of the last step.
    pub fn into_result(self) -> RunResult {
        let ctx = self.ctx;
        let pattern_stats = ctx.observers.iter().map(|o| o.frequent(0.0)).collect();
        let mut spill = amri_core::SpillStats::default();
        for s in &ctx.stems {
            spill.merge(&s.state.store().spill_stats());
        }
        let mut degradation = ctx.governor.map(|g| g.report).unwrap_or_default();
        // Tuples lost to unrecoverable spill blocks are degradation too,
        // even in runs without an overload governor.
        degradation.lost_tuples += ctx.spill_lost;
        degradation.first_at = match (degradation.first_at, ctx.spill_first_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let faults = ctx.fault.map(|f| f.report).unwrap_or_default();
        // The tuner-ledger totals are summed once, here: each state's
        // ledger is the running record, and rides its snapshot.
        let mut maint = ctx.maint;
        for s in &ctx.stems {
            let ledger = s.state.tune_ledger();
            maint.retune_benefit_predicted_ns += ledger.predicted_benefit_ns;
            maint.retune_benefit_realized_ns += ledger.realized_benefit_ns;
            maint.regret_vs_static_ns += ledger.regret_vs_static_ns;
        }
        // A run that completed only by shedding/evicting/losing is
        // Degraded.
        let outcome = match ctx.outcome {
            RunOutcome::Completed if degradation.degraded() => RunOutcome::Degraded {
                first_at: degradation
                    .first_at
                    .expect("degraded() implies a first event was recorded"),
                shed_jobs: degradation.shed_jobs,
                evicted_tuples: degradation.evicted_tuples,
                lost_tuples: degradation.lost_tuples,
            },
            other => other,
        };
        RunResult {
            label: self.mode_label,
            mean_job_latency_ticks: if ctx.jobs_processed == 0 {
                0.0
            } else {
                ctx.sojourn_ticks as f64 / ctx.jobs_processed as f64
            },
            final_time: ctx.clock.now().min(ctx.deadline),
            series: ctx.series,
            outcome,
            outputs: ctx.outputs,
            retunes: ctx.retunes,
            pattern_stats,
            requests: ctx.stems.iter().map(|s| s.requests_served).collect(),
            degradation,
            faults,
            spill,
            output_digest: ctx.output_digest,
            maint,
        }
    }
}
