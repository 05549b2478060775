//! The batch-first runtime layer: operator graph + pluggable clock.
//!
//! The original engine was one monolithic loop hard-wired to virtual time
//! and one-tuple-at-a-time routing. This layer splits it into composable
//! pieces so the same execution semantics can later be sharded, batched
//! wider, or run against real time:
//!
//! * [`context`] — [`RunContext`]: everything one run mutates (clock,
//!   backlog, states, router, metrics) plus the scalar knobs
//!   ([`RunParams`]) the operators read.
//! * [`operators`] — the [`Operator`] trait and the four concrete
//!   operators: [`SampleOperator`] (grid samples + memory checks),
//!   [`TuneOperator`] (index retuning), [`IngestOperator`] (arrivals),
//!   [`ProbeOperator`] (routing jobs through STeMs).
//! * [`pipeline`] — the [`Pipeline`] driver that owns the step loop and
//!   assembles the [`RunResult`].
//! * [`session`] — [`Session`]: the pipeline as a resumable unit of
//!   scheduling (one iteration or one bounded quantum per call), the
//!   granule a multi-tenant host interleaves.
//! * [`clock`] — [`WallClock`], the real-time counterpart of the
//!   simulation's `VirtualClock` (both implement
//!   [`amri_stream::time::Clock`]).
//! * [`degrade`] — the overload governor: bounded-backlog load shedding
//!   and oldest-first state eviction behind a [`DegradationPolicy`],
//!   turning budget breaches into [`RunOutcome::Degraded`] instead of
//!   death.
//! * [`fault`] — the deterministic fault-injection harness: a seeded
//!   [`FaultPlan`] of tuple drop/duplicate/reorder/late faults and
//!   allocation pressure, plus the [`SkewedClock`] clock-skew wrapper and
//!   the checkpoint-layer [`FaultKind`] crash/torn-write faults.
//! * [`checkpoint`] — [`Checkpointer`]: versioned, checksummed snapshots
//!   of the whole run state taken inside the step loop
//!   ([`CheckpointPolicy`]: every N steps and/or on memory pressure),
//!   with bounded retention and checksum-verified fallback recovery
//!   ([`checkpoint::load_latest`]). A crashed run resumed from its latest
//!   good snapshot is byte-identical to an uninterrupted one.
//! * [`pool`] — [`WorkerPool`]: the persistent shard-task worker pool
//!   behind `parallelism > 1` runs; it implements
//!   `amri_core::ShardExecutor`, so sharded index probes fan out across
//!   its threads and still merge deterministically.
//!
//! Partial tuples flow between ingest and probe through a
//! [`amri_stream::JobQueue`] as packed words; the probe operator
//! drains it strictly FIFO, one job per step, which keeps every run
//! byte-identical to the pre-refactor executor (the equivalence test pins
//! this). The MJoin exactly-once rule (`ts < origin_ts`) lives in
//! [`ProbeOperator`] unchanged.

pub mod checkpoint;
pub mod clock;
pub mod context;
pub mod degrade;
pub mod fault;
pub mod operators;
pub mod pipeline;
pub mod pool;
pub mod session;

pub use checkpoint::{
    load_latest, CheckpointPolicy, Checkpointer, RestoreReport, SkippedCheckpoint,
};
pub use clock::WallClock;
pub use context::{Job, MaintenanceStats, RunContext, RunOutcome, RunParams};
pub use degrade::{
    DegradationPolicy, DegradationReport, DegradationSample, Governor, SheddingPolicy, TierPolicy,
};
pub use fault::{
    io_faults_fired, ArrivalFate, FaultKind, FaultPlan, FaultReport, FaultState, IoFaultKind,
    PressureWindow, SkewedClock, TornMode,
};
pub use operators::{
    IngestOperator, Operator, ProbeOperator, SampleOperator, StepStatus, StreamWorkload,
    TuneOperator,
};
pub use pipeline::{EngineSetup, Pipeline, RunResult};
pub use pool::WorkerPool;
pub use session::{Session, SessionStatus};
