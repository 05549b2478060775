//! The runtime layer: one step loop over one run context, on a pluggable
//! clock.
//!
//! * [`context`] — [`RunContext`]: everything one run mutates (clock,
//!   backlog, states, router, metrics) plus the
//!   [`EngineConfig`](crate::EngineConfig) it was built with.
//! * [`operators`] — the four step functions the loop calls (sample: grid
//!   row + memory check; tune: index retuning; ingest: arrivals; probe:
//!   one routing job through a STeM) and the [`StreamWorkload`] seam that
//!   feeds ingest.
//! * [`pipeline`] — the [`Pipeline`]: [`Pipeline::step_once`] is the loop,
//!   beside its checkpoint image and the assembly of the [`RunResult`].
//! * [`session`] — [`Session`]: the pipeline as a resumable unit of
//!   scheduling (one iteration or one bounded quantum per call), the
//!   granule a multi-tenant host interleaves.
//! * [`degrade`] — the overload governor: bounded-backlog load shedding
//!   and oldest-first state eviction behind a [`DegradationPolicy`],
//!   turning budget breaches into [`RunOutcome::Degraded`] instead of
//!   death.
//! * [`fault`] — the deterministic fault-injection harness: a seeded
//!   [`FaultPlan`] of tuple drop/duplicate/reorder/late faults and
//!   allocation pressure, plus the [`SkewedClock`] clock-skew wrapper (the
//!   fake substituted through the [`amri_stream::time::Clock`] seam) and
//!   the checkpoint-layer [`FaultKind`] crash/torn-write faults.
//! * [`checkpoint`] — [`Checkpointer`]: versioned, checksummed snapshots
//!   of the whole run state taken inside the step loop
//!   ([`CheckpointPolicy`]: every N steps and/or on memory pressure),
//!   with bounded retention and checksum-verified fallback recovery
//!   ([`checkpoint::load_latest`]). A crashed run resumed from its latest
//!   good snapshot is byte-identical to an uninterrupted one.
//! * [`pool`] — [`WorkerPool`]: the shard-task executor behind
//!   `parallelism > 1` runs; it implements `amri_core::ShardExecutor`, so
//!   a sharded dispatch large enough to repay it fans out across scoped
//!   threads and still merges deterministically.
//!
//! Partial tuples flow between ingest and probe through a
//! [`amri_stream::JobQueue`] as packed words; the probe step drains it
//! strictly FIFO, one job per step, which keeps every run byte-identical
//! to the frozen d32ca61 loop (`tests/pipeline_equivalence.rs` pins
//! this). The MJoin exactly-once rule (`ts < origin_ts`) lives in the
//! probe step.

pub mod checkpoint;
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
pub use context::{Job, MaintenanceStats, RunContext, RunOutcome};
pub use degrade::{
    DegradationPolicy, DegradationReport, DegradationSample, Governor, SheddingPolicy,
};
pub use fault::{
    ArrivalFate, FaultKind, FaultPlan, FaultReport, FaultState, PressureWindow, SkewedClock,
    TornMode,
};
pub use operators::StreamWorkload;
pub use pipeline::{Pipeline, RunResult};
pub use pool::WorkerPool;
pub use session::{Session, SessionStatus};
