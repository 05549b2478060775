//! Tenant identity, lifecycle states, and the per-tenant report.

use amri_engine::{MaintenanceStats, RunResult};
use std::fmt;

/// Host-scoped tenant identity, assigned in admission order. Admission
/// order is part of the deterministic replay contract: the same sequence
/// of host calls yields the same ids, the same schedule, the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:04}", self.0)
    }
}

/// Where a tenant is in its lifecycle.
///
/// ```text
///            reservation fits            run ends
///  admit ──────────────────▶ Running ──────────────▶ Completed
///    │                        ▲   │
///    │ budget full            │   │ suspend_to (.snap, budget released)
///    ▼                        │   ▼
///  Queued ────────────────────┘  Suspended ──▶ resume (same or fresh host)
///        budget freed             │
///                                 └──▶ evict ──▶ Evicted   (also from
///                                                Queued / Running)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Admitted but waiting for its reservation to fit the global budget.
    Queued,
    /// Holding its reservation, schedulable (or already past its
    /// deadline and about to be finalized).
    Running,
    /// Serialized to a `.snap`; reservation released; resumable.
    Suspended,
    /// Ran to its end; results are ready.
    Completed,
    /// Removed by the host; reservation released, results discarded.
    Evicted,
}

/// Everything the host knows about one tenant, in admission (id) order
/// from [`TenantHost::into_reports`](crate::TenantHost::into_reports).
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant.
    pub id: TenantId,
    /// Caller-supplied display label.
    pub label: String,
    /// Fair-share weight.
    pub weight: u32,
    /// Bytes carved from the global budget while running.
    pub reservation: u64,
    /// Final lifecycle state.
    pub state: TenantState,
    /// Scheduling quanta this tenant received.
    pub quanta: u64,
    /// The run's results — present iff `state == Completed`. Identical,
    /// byte for byte, to the same configuration run solo (the isolation
    /// suite pins this).
    pub result: Option<RunResult>,
    /// The completed run's maintenance totals: always `result`'s own
    /// [`maint`](RunResult::maint). The copy stays because the benchmark
    /// package, whose engine API is frozen, reads it from here.
    pub maint: Option<MaintenanceStats>,
}
