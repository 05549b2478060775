//! [`Session`]: a pipeline as a resumable unit of scheduling.
//!
//! [`Pipeline::run`](crate::Pipeline::run) drives the step loop to
//! completion in one call — fine for one query per process, useless for a
//! host that wants to interleave many. A `Session` wraps a pipeline and
//! exposes the loop one iteration ([`step`](Session::step)) or one bounded
//! quantum ([`run_quantum`](Session::run_quantum)) at a time. It keeps no
//! state of its own: "finished" is the pipeline's own latch
//! ([`Pipeline::is_done`]).
//!
//! Cooperative interleaving is *invisible* to the run: each session owns
//! its pipeline outright — clock, RNG streams, backlog, states — and a
//! step only touches that pipeline, so any schedule over a set of sessions
//! executes each one's exact solo step sequence. That is the whole
//! isolation argument, and the tenant-isolation suite pins it
//! byte-for-byte.
//!
//! Step boundaries are also snapshot boundaries: staged ingest work is
//! flushed within every iteration and checkpoints are taken between
//! iterations, so [`snapshot_image`](Session::snapshot_image) at any step
//! is a valid suspend point (the PR 5 crash-recovery guarantee carries
//! over verbatim).

use crate::runtime::context::{MaintenanceStats, RunContext};
use crate::runtime::operators::StreamWorkload;
use crate::runtime::pipeline::{Pipeline, RunResult};
use amri_stream::{Clock, VirtualClock, VirtualTime};

/// What stepping a [`Session`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// More work remains; the session can be scheduled again.
    Ready,
    /// The run is over (deadline reached, or the budget check killed it);
    /// [`Session::finish`] yields the result. Latched: stepping a
    /// finished session is a no-op.
    Finished,
}

/// A [`Pipeline`] wrapped as a schedulable, suspendable unit.
pub struct Session<W, C: Clock = VirtualClock> {
    pipeline: Pipeline<W, C>,
}

impl<W: StreamWorkload, C: Clock> Session<W, C> {
    /// Wrap a pipeline (fresh, or restored from a snapshot) for
    /// step-granular driving.
    pub fn new(pipeline: Pipeline<W, C>) -> Self {
        Session { pipeline }
    }

    /// True once the run is over.
    pub fn is_finished(&self) -> bool {
        self.pipeline.is_done()
    }

    /// Execute one pipeline iteration (see
    /// [`Pipeline::step_once`](Pipeline::step_once)).
    pub fn step(&mut self) -> SessionStatus {
        self.pipeline.step_once()
    }

    /// Execute up to `steps` iterations, stopping early when the run
    /// finishes. The scheduling granule of the tenant host: coarse enough
    /// to amortize dispatch, fine enough for fair interleaving.
    pub fn run_quantum(&mut self, steps: u64) -> SessionStatus {
        for _ in 0..steps {
            if self.step() == SessionStatus::Finished {
                break;
            }
        }
        if self.is_finished() {
            SessionStatus::Finished
        } else {
            SessionStatus::Ready
        }
    }

    /// This run's private virtual "now" — the scheduler's virtual-time
    /// coordinate for fair-share accounting.
    pub fn now(&self) -> VirtualTime {
        self.pipeline.context().clock.now()
    }

    /// The wrapped pipeline's run state (introspection: memory reports,
    /// step counts).
    pub fn context(&self) -> &RunContext<C> {
        self.pipeline.context()
    }

    /// Snapshot the complete run state for suspend-to-disk (see
    /// [`Pipeline::snapshot_image`]). Valid at any step boundary.
    pub fn snapshot_image(&self, fingerprint: u64) -> Vec<u8> {
        self.pipeline.snapshot_image(fingerprint)
    }

    /// Consume the session into its results (see
    /// [`Pipeline::into_result`]). Meaningful after
    /// [`is_finished`](Self::is_finished); on a live session it yields
    /// the partial result as of the last step.
    ///
    /// The second element is the result's own
    /// [`maint`](RunResult::maint): the pair stays because the
    /// benchmark package, whose engine API is frozen, destructures it.
    pub fn finish(self) -> (RunResult, MaintenanceStats) {
        let result = self.pipeline.into_result();
        let maint = result.maint;
        (result, maint)
    }
}
