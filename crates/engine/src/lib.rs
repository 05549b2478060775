//! # amri-engine — a simulated adaptive multi-route stream engine
//!
//! The substrate the AMRI paper evaluates in (the CAPE engine on real
//! hardware) rebuilt as a **deterministic simulation**: a single-core
//! executor that charges every hash, comparison, bucket probe and tuple
//! move to a virtual clock, and accounts every byte against a memory
//! budget. All of the paper's results are *relative* (throughput curves,
//! out-of-memory times), which this preserves while making runs exactly
//! reproducible.
//!
//! * [`stem`] — the STeM join operator: one windowed, indexed state per
//!   stream, in four flavors (AMRI, adaptive multi-hash, static bitmap,
//!   scan) matching the paper's comparison lineup.
//! * [`router`] — routing of partial tuples through the unvisited states
//!   under an Eddy policy: selectivity-greedy with exploration, lottery
//!   scheduling, round-robin.
//! * [`memory`] — the byte budget and the out-of-memory failure mode.
//! * [`metrics`] — cumulative-throughput time series (the paper's y-axis).
//! * [`runtime`] — the runtime layer: the `Pipeline` and its one step
//!   loop (sample → tune → ingest → probe one job) over a `RunContext`,
//!   the `Clock` seam it is generic over (the deterministic `VirtualClock`
//!   simulation, or `SkewedClock` wrapping it to inject skew), the
//!   overload governor (`DegradationPolicy`) and the deterministic
//!   fault-injection harness (`FaultPlan`).
//! * [`error`] — the typed [`EngineError`] layer for fallible
//!   construction and validation paths.
//! * [`executor`] — the thin simulation harness on top: flavor
//!   construction, seeding, and the stable `EngineConfig`/`RunResult` API.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod executor;
pub mod memory;
pub mod metrics;
pub mod router;
pub mod runtime;
pub mod stem;

pub use error::EngineError;
pub use executor::{
    EngineConfig, Executor, IndexingMode, RunOutcome, RunResult, SpillSettings, StreamWorkload,
};
pub use memory::{MemoryBudget, MemoryReport};
pub use metrics::{RetuneRecord, Sample, ThroughputSeries};
pub use router::{PolicyKind, Router};
pub use runtime::{
    load_latest, CheckpointPolicy, Checkpointer, DegradationPolicy, DegradationReport,
    DegradationSample, FaultKind, FaultPlan, FaultReport, Job, MaintenanceStats, Pipeline,
    PressureWindow, RestoreReport, RunContext, Session, SessionStatus, SheddingPolicy, SkewedClock,
    SkippedCheckpoint, TornMode, WorkerPool,
};
pub use stem::{HashTuner, JoinState, Stem};
