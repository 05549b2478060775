//! The fleet-sweep orchestrator: a parameter sweep as N tenants in one
//! process.
//!
//! The bench bins historically ran one configuration per process (or per
//! sequential loop iteration); a fleet runs every cell as a tenant of one
//! [`TenantHost`] and merges per-tenant results in deterministic cell
//! order. Because co-residency preserves solo semantics, the merged
//! summary is byte-identical to running every cell alone — CI pins
//! exactly that.

use crate::error::ServeError;
use crate::host::{HostConfig, TenantHost};
use crate::tenant::TenantState;
use amri_engine::{EngineError, Executor, RunResult, StreamWorkload};
use std::path::Path;

/// One sweep cell: a label, a fair-share weight, and a builder that can
/// construct the cell's engine run from scratch. A *builder* rather than
/// an executor because migration needs to rebuild the harness (snapshots
/// capture mutable state only; construction-time configuration is
/// rebuilt and fingerprint-checked).
pub struct FleetCell<W> {
    /// Display label; becomes the tenant label.
    pub label: String,
    /// Fair-share weight (>= 1).
    pub weight: u32,
    build: Box<dyn Fn() -> Result<Executor<W>, EngineError>>,
}

impl<W> FleetCell<W> {
    /// A cell from its builder closure.
    pub fn new(
        label: impl Into<String>,
        weight: u32,
        build: impl Fn() -> Result<Executor<W>, EngineError> + 'static,
    ) -> Self {
        FleetCell {
            label: label.into(),
            weight,
            build: Box::new(build),
        }
    }

    /// Build the cell's engine run — the exact construction the fleet
    /// drivers admit. Public so a solo baseline can run the identical
    /// cell outside any host.
    pub fn executor(&self) -> Result<Executor<W>, ServeError> {
        (self.build)().map_err(ServeError::from)
    }
}

/// One cell's results, in cell order from the fleet drivers.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The cell's label.
    pub label: String,
    /// The run's results — byte-identical to the cell run solo.
    pub result: RunResult,
    /// Scheduling quanta the tenant received in the host that completed
    /// its run.
    pub quanta: u64,
}

/// Run every cell as a tenant of one host and return outcomes in cell
/// order. Cells whose reservations don't fit at admission time queue and
/// are activated as earlier tenants finish.
///
/// # Errors
/// Admission errors (zero weight, a reservation larger than the whole
/// global budget) and engine construction errors. A cell left queued
/// forever is impossible given admissible reservations: tenants complete,
/// budget frees, `activate_queued` runs.
pub fn run_fleet<W: StreamWorkload>(
    cells: &[FleetCell<W>],
    cfg: HostConfig,
) -> Result<Vec<FleetOutcome>, ServeError> {
    let mut host = TenantHost::new(cfg);
    for cell in cells {
        host.admit(&cell.label, cell.weight, cell.executor()?)?;
    }
    host.drive();
    collect(host, cells, Vec::new())
}

/// [`run_fleet`], interrupted: after `suspend_after` quanta every running
/// tenant is suspended to a `.snap` under `dir`, a *fresh* host is built,
/// suspended tenants resume into it (rebuilt via their cell builders and
/// fingerprint-checked), never-started tenants are admitted fresh, and
/// the fleet runs to completion. Outcomes are byte-identical to
/// [`run_fleet`] — the suspend/resume cycle is invisible in every
/// tenant's results (CI diffs the two summary CSVs).
///
/// # Errors
/// As [`run_fleet`], plus snapshot read/write failures.
pub fn run_fleet_migrated<W: StreamWorkload>(
    cells: &[FleetCell<W>],
    cfg: HostConfig,
    suspend_after: u64,
    dir: &Path,
) -> Result<Vec<FleetOutcome>, ServeError> {
    let mut first = TenantHost::new(cfg.clone());
    for cell in cells {
        first.admit(&cell.label, cell.weight, cell.executor()?)?;
    }
    for _ in 0..suspend_after {
        if first.run_quantum().is_none() {
            break;
        }
    }
    // Whole-host teardown: queued tenants must stay queued (they're
    // re-admitted fresh below), not be activated into the budget each
    // suspension frees.
    first.suspend_all_running(dir)?;
    let first_reports = first.into_reports();

    let mut second = TenantHost::new(cfg);
    // Map cell index -> where its result will come from: the first host
    // (already completed) or the second (resumed / admitted fresh).
    let mut carried: Vec<Option<FleetOutcome>> = Vec::with_capacity(cells.len());
    for (cell, report) in cells.iter().zip(first_reports) {
        match report.state {
            TenantState::Completed => {
                carried.push(Some(FleetOutcome {
                    label: cell.label.clone(),
                    result: report.result.expect("Completed tenants carry results"),
                    quanta: report.quanta,
                }));
            }
            TenantState::Suspended => {
                let snap = dir.join(format!("tenant-{:04}.snap", report.id.0));
                second.admit_resumed(&cell.label, cell.weight, cell.executor()?, &snap)?;
                carried.push(None);
            }
            TenantState::Queued => {
                second.admit(&cell.label, cell.weight, cell.executor()?)?;
                carried.push(None);
            }
            other => unreachable!("fleet tenants are never {other:?} at the migration point"),
        }
    }
    second.drive();
    collect(second, cells, carried)
}

/// Assemble outcomes in cell order from a driven host. `carried[i]`
/// non-None means cell `i` finished elsewhere (the pre-migration host)
/// and this host holds no tenant for it.
fn collect<W: StreamWorkload>(
    host: TenantHost<W>,
    cells: &[FleetCell<W>],
    mut carried: Vec<Option<FleetOutcome>>,
) -> Result<Vec<FleetOutcome>, ServeError> {
    let mut reports = host.into_reports().into_iter();
    let mut outcomes = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        if let Some(done) = carried.get_mut(i).and_then(Option::take) {
            outcomes.push(done);
            continue;
        }
        let report = reports
            .next()
            .expect("one host tenant per non-carried cell, admitted in cell order");
        debug_assert_eq!(report.label, cell.label);
        if report.state != TenantState::Completed {
            unreachable!(
                "driven fleet tenant {} ended {:?}, not Completed",
                report.label, report.state
            );
        }
        outcomes.push(FleetOutcome {
            label: cell.label.clone(),
            result: report.result.expect("Completed tenants carry results"),
            quanta: report.quanta,
        });
    }
    Ok(outcomes)
}
