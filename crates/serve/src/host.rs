//! [`TenantHost`]: many engine runs, one process, one global budget.

use crate::budget::BudgetLedger;
use crate::error::ServeError;
use crate::scheduler::{FairScheduler, ScheduleKey};
use crate::tenant::{TenantId, TenantReport, TenantState};
use amri_engine::{Executor, MemoryBudget, RunResult, Session, SessionStatus, StreamWorkload};
use amri_stream::SnapshotReader;
use std::path::{Path, PathBuf};

/// Host-level knobs. All deterministic: two hosts built from the same
/// config and fed the same call sequence replay byte-for-byte.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The global memory budget tenant reservations are carved from.
    /// [`MemoryBudget::unlimited`] disables admission control.
    pub budget: MemoryBudget,
    /// Pipeline iterations per scheduling quantum. Coarse enough to
    /// amortize dispatch, fine enough that co-resident tenants interleave
    /// fairly; the value never affects any tenant's output, only the
    /// order work happens in.
    pub quantum: u64,
    /// Salt for the scheduler's tie-breaks.
    pub seed: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            budget: MemoryBudget::unlimited(),
            quantum: 64,
            seed: 0x5EED_F1EE,
        }
    }
}

/// What [`TenantHost::admit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Reservation carved; the tenant is schedulable immediately.
    Admitted(TenantId),
    /// The reservation does not fit right now; the tenant waits (FIFO by
    /// id) and is activated as budget frees up.
    Queued(TenantId),
}

impl Admission {
    /// The id either way.
    pub fn id(&self) -> TenantId {
        match *self {
            Admission::Admitted(id) | Admission::Queued(id) => id,
        }
    }
}

/// A tenant's runtime position (boxed large variants keep the enum small).
enum Runtime<W> {
    Queued(Box<Executor<W>>),
    Running(Box<Session<W>>),
    Suspended { snap: PathBuf },
    Completed(Box<RunResult>),
    Evicted,
}

impl<W> Runtime<W> {
    fn state(&self) -> TenantState {
        match self {
            Runtime::Queued(_) => TenantState::Queued,
            Runtime::Running(_) => TenantState::Running,
            Runtime::Suspended { .. } => TenantState::Suspended,
            Runtime::Completed(_) => TenantState::Completed,
            Runtime::Evicted => TenantState::Evicted,
        }
    }
}

struct Slot<W> {
    id: TenantId,
    label: String,
    weight: u32,
    /// Bytes carved while Running (the tenant's own engine budget).
    reservation: u64,
    /// Pins the construction-time configuration across suspend/resume.
    fingerprint: u64,
    quanta: u64,
    runtime: Runtime<W>,
}

/// A multi-tenant host over step-granular engine [`Session`]s.
///
/// One generic workload type per host: the host is monomorphic like the
/// engine itself, so a fleet mixes *configurations* (indexing modes,
/// budgets, fault plans, weights), not workload types.
///
/// Everything the host does is deterministic — admission ids, budget
/// carving, the fair-share schedule, suspend/resume — and none of it is
/// observable by any tenant: each session owns its clock, RNG streams,
/// states and backlog outright, so a tenant's results under any
/// co-residency equal its solo run byte for byte.
pub struct TenantHost<W> {
    cfg: HostConfig,
    ledger: BudgetLedger,
    sched: FairScheduler,
    slots: Vec<Slot<W>>,
    trace: Vec<TenantId>,
}

impl<W: StreamWorkload> TenantHost<W> {
    /// An empty host.
    pub fn new(cfg: HostConfig) -> Self {
        let ledger = BudgetLedger::new(cfg.budget);
        let sched = FairScheduler::new(cfg.seed);
        TenantHost {
            cfg,
            ledger,
            sched,
            slots: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Bytes currently committed to running tenants' reservations.
    pub fn committed_bytes(&self) -> u64 {
        self.ledger.committed()
    }

    /// Admit a tenant: carve its reservation from the global budget and
    /// make it schedulable, or queue it until the reservation fits. Ids
    /// are assigned in admission order.
    ///
    /// The reservation is normally the tenant's own engine
    /// `MemoryBudget`; a tenant configured with a disk spill tier only
    /// reserves its tier's high-water carve
    /// ([`BudgetLedger::effective_reservation`]) — spill is an admission
    /// alternative, letting a tenant that would otherwise queue run
    /// within a smaller RAM slice by keeping cold state on disk.
    ///
    /// # Errors
    /// * [`ServeError::ZeroWeight`] — the scheduler divides by weight.
    /// * [`ServeError::ReservationExceedsGlobal`] — the tenant could
    ///   never fit; queueing it would hang forever.
    pub fn admit(
        &mut self,
        label: &str,
        weight: u32,
        exec: Executor<W>,
    ) -> Result<Admission, ServeError> {
        if weight == 0 {
            return Err(ServeError::ZeroWeight);
        }
        let reservation = Self::reservation_for(&exec);
        if !self.ledger.admissible(reservation) {
            return Err(ServeError::ReservationExceedsGlobal {
                reservation,
                global: self.ledger.global(),
            });
        }
        let id = TenantId(self.slots.len() as u32);
        let fingerprint = exec.config_fingerprint();
        let admitted = self.ledger.reserve(reservation);
        let runtime = if admitted {
            Runtime::Running(Box::new(Session::new(exec.into_pipeline())))
        } else {
            Runtime::Queued(Box::new(exec))
        };
        self.slots.push(Slot {
            id,
            label: label.to_string(),
            weight,
            reservation,
            fingerprint,
            quanta: 0,
            runtime,
        });
        Ok(if admitted {
            Admission::Admitted(id)
        } else {
            Admission::Queued(id)
        })
    }

    /// Admit a previously suspended tenant into this (possibly fresh)
    /// host: `exec` must be built from the configuration that produced
    /// the snapshot (checked via the config fingerprint), and the
    /// reservation must fit immediately — resumes do not queue, because
    /// the caller chose the resume moment.
    ///
    /// # Errors
    /// * Admission errors as [`admit`](Self::admit), plus
    ///   [`ServeError::InsufficientBudget`] when the reservation does
    ///   not fit right now.
    /// * [`ServeError::Snapshot`] / [`ServeError::Engine`] when the file
    ///   is unreadable, corrupt, or from a different configuration.
    pub fn admit_resumed(
        &mut self,
        label: &str,
        weight: u32,
        exec: Executor<W>,
        snap: &Path,
    ) -> Result<TenantId, ServeError> {
        if weight == 0 {
            return Err(ServeError::ZeroWeight);
        }
        let reservation = Self::reservation_for(&exec);
        if !self.ledger.admissible(reservation) {
            return Err(ServeError::ReservationExceedsGlobal {
                reservation,
                global: self.ledger.global(),
            });
        }
        let fingerprint = exec.config_fingerprint();
        let bytes = std::fs::read(snap)?;
        let reader = SnapshotReader::parse(&bytes)?;
        let pipeline = exec.resume_from(&reader)?;
        if !self.ledger.reserve(reservation) {
            return Err(ServeError::InsufficientBudget {
                reservation,
                available: self.ledger.available(),
            });
        }
        let id = TenantId(self.slots.len() as u32);
        self.slots.push(Slot {
            id,
            label: label.to_string(),
            weight,
            reservation,
            fingerprint,
            quanta: 0,
            runtime: Runtime::Running(Box::new(Session::new(pipeline))),
        });
        Ok(id)
    }

    /// Resume a tenant this host itself suspended, using its recorded
    /// `.snap` path. `exec` must be built from the original
    /// configuration (fingerprint-checked).
    ///
    /// # Errors
    /// As [`admit_resumed`](Self::admit_resumed), plus
    /// [`ServeError::UnknownTenant`] / [`ServeError::WrongState`].
    pub fn resume(&mut self, id: TenantId, exec: Executor<W>) -> Result<(), ServeError> {
        let slot = self.slot(id)?;
        let Runtime::Suspended { snap } = &slot.runtime else {
            return Err(ServeError::WrongState {
                id,
                expected: "Suspended",
                actual: slot.runtime.state(),
            });
        };
        let snap = snap.clone();
        let reservation = Self::reservation_for(&exec);
        let bytes = std::fs::read(&snap)?;
        let reader = SnapshotReader::parse(&bytes)?;
        let pipeline = exec.resume_from(&reader)?;
        if !self.ledger.reserve(reservation) {
            return Err(ServeError::InsufficientBudget {
                reservation,
                available: self.ledger.available(),
            });
        }
        let slot = &mut self.slots[id.0 as usize];
        slot.reservation = reservation;
        slot.runtime = Runtime::Running(Box::new(Session::new(pipeline)));
        Ok(())
    }

    /// Suspend a running tenant: serialize its complete run state to
    /// `dir/tenant-NNNN.snap` and release its reservation (activating
    /// queued tenants that now fit). Step boundaries are snapshot
    /// boundaries, so any moment between quanta is a valid suspend
    /// point; the resumed tenant finishes byte-identical to one that was
    /// never suspended.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`], [`ServeError::WrongState`] (only
    /// Running tenants suspend), or the file write failing.
    pub fn suspend_to(&mut self, id: TenantId, dir: &Path) -> Result<PathBuf, ServeError> {
        let path = self.suspend_inner(id, dir)?;
        self.activate_queued();
        Ok(path)
    }

    /// Suspend every Running tenant to `dir` *without* activating the
    /// admission queue in between — whole-host teardown, as used by
    /// fleet migration. A per-tenant [`suspend_to`](Self::suspend_to)
    /// sweep would hand each freed reservation straight to a queued
    /// tenant, starting (and then having to suspend) work the caller
    /// means to move elsewhere; here queued tenants stay queued and can
    /// be re-admitted in the destination host instead. Returns the
    /// suspended ids in id order.
    ///
    /// # Errors
    /// The snapshot write failing; earlier suspensions stick.
    pub fn suspend_all_running(&mut self, dir: &Path) -> Result<Vec<TenantId>, ServeError> {
        let running: Vec<TenantId> = self
            .slots
            .iter()
            .filter(|s| matches!(s.runtime, Runtime::Running(_)))
            .map(|s| s.id)
            .collect();
        for &id in &running {
            self.suspend_inner(id, dir)?;
        }
        Ok(running)
    }

    /// The suspend mechanics shared by [`suspend_to`](Self::suspend_to)
    /// and [`suspend_all_running`](Self::suspend_all_running): write the
    /// snapshot, flip the slot to Suspended, release the reservation —
    /// but leave queue activation to the caller.
    fn suspend_inner(&mut self, id: TenantId, dir: &Path) -> Result<PathBuf, ServeError> {
        let slot = self.slot(id)?;
        let Runtime::Running(session) = &slot.runtime else {
            return Err(ServeError::WrongState {
                id,
                expected: "Running",
                actual: slot.runtime.state(),
            });
        };
        let image = session.snapshot_image(slot.fingerprint);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("tenant-{:04}.snap", id.0));
        std::fs::write(&path, image)?;
        let reservation = slot.reservation;
        self.slots[id.0 as usize].runtime = Runtime::Suspended { snap: path.clone() };
        self.ledger.release(reservation);
        Ok(path)
    }

    /// Remove a tenant outright. Queued, Running and Suspended tenants
    /// evict (releasing any held reservation and discarding run state);
    /// Completed/Evicted tenants don't.
    ///
    /// # Errors
    /// [`ServeError::UnknownTenant`] / [`ServeError::WrongState`].
    pub fn evict(&mut self, id: TenantId) -> Result<(), ServeError> {
        let slot = self.slot(id)?;
        let state = slot.runtime.state();
        let reservation = slot.reservation;
        match state {
            TenantState::Queued | TenantState::Suspended => {
                self.slots[id.0 as usize].runtime = Runtime::Evicted;
                Ok(())
            }
            TenantState::Running => {
                self.slots[id.0 as usize].runtime = Runtime::Evicted;
                self.ledger.release(reservation);
                self.activate_queued();
                Ok(())
            }
            TenantState::Completed | TenantState::Evicted => Err(ServeError::WrongState {
                id,
                expected: "Queued, Running or Suspended",
                actual: state,
            }),
        }
    }

    /// Run one scheduling quantum: pick the ready tenant whose weighted
    /// virtual clock is furthest behind, step it `cfg.quantum` pipeline
    /// iterations (finalizing it if the run ends), and return its id.
    /// `None` when no tenant is ready — everything is completed,
    /// suspended, evicted, or queued behind a budget that never frees.
    pub fn run_quantum(&mut self) -> Option<TenantId> {
        let ready = self.slots.iter().filter_map(|s| match &s.runtime {
            Runtime::Running(session) => Some(ScheduleKey {
                id: s.id,
                weight: s.weight,
                vnow: session.now(),
            }),
            _ => None,
        });
        let id = self.sched.pick(ready)?;
        let quantum = self.cfg.quantum;
        let slot = &mut self.slots[id.0 as usize];
        let Runtime::Running(session) = &mut slot.runtime else {
            unreachable!("picked id came from the Running set");
        };
        slot.quanta += 1;
        let finished = session.run_quantum(quantum) == SessionStatus::Finished;
        self.trace.push(id);
        if finished {
            let Runtime::Running(session) = std::mem::replace(&mut slot.runtime, Runtime::Evicted)
            else {
                unreachable!("just matched Running");
            };
            let (result, _) = session.finish();
            let reservation = slot.reservation;
            slot.runtime = Runtime::Completed(Box::new(result));
            self.ledger.release(reservation);
            self.activate_queued();
        }
        Some(id)
    }

    /// Drive until no tenant is ready; returns the number of quanta run.
    pub fn drive(&mut self) -> u64 {
        let mut n = 0;
        while self.run_quantum().is_some() {
            n += 1;
        }
        n
    }

    /// Activate queued tenants whose reservations now fit, in admission
    /// (id) order. Deliberately *not* strict FIFO head-blocking: a large
    /// queued tenant does not starve smaller ones behind it, and the
    /// scan order keeps activation deterministic.
    fn activate_queued(&mut self) {
        for i in 0..self.slots.len() {
            if matches!(self.slots[i].runtime, Runtime::Queued(_))
                && self.ledger.reserve(self.slots[i].reservation)
            {
                let Runtime::Queued(exec) =
                    std::mem::replace(&mut self.slots[i].runtime, Runtime::Evicted)
                else {
                    unreachable!("just matched Queued");
                };
                self.slots[i].runtime =
                    Runtime::Running(Box::new(Session::new(exec.into_pipeline())));
            }
        }
    }

    /// A tenant's current lifecycle state.
    pub fn state(&self, id: TenantId) -> Result<TenantState, ServeError> {
        Ok(self.slot(id)?.runtime.state())
    }

    /// A running tenant's private virtual "now" (`None` in any other
    /// state). The coordinate the fair-share scheduler equalizes:
    /// co-live tenants' clocks advance in proportion to their weights.
    pub fn virtual_now(
        &self,
        id: TenantId,
    ) -> Result<Option<amri_stream::VirtualTime>, ServeError> {
        Ok(match &self.slot(id)?.runtime {
            Runtime::Running(session) => Some(session.now()),
            _ => None,
        })
    }

    /// The scheduling history: which tenant each quantum ran. Two hosts
    /// fed the same call sequence produce identical traces (the replay
    /// test pins this).
    pub fn schedule_trace(&self) -> &[TenantId] {
        &self.trace
    }

    /// Consume the host into per-tenant reports, in admission (id) order
    /// — the deterministic merge order for fleet summaries.
    pub fn into_reports(self) -> Vec<TenantReport> {
        self.slots
            .into_iter()
            .map(|slot| {
                let state = slot.runtime.state();
                let result = match slot.runtime {
                    Runtime::Completed(result) => Some(*result),
                    _ => None,
                };
                TenantReport {
                    id: slot.id,
                    label: slot.label,
                    weight: slot.weight,
                    reservation: slot.reservation,
                    state,
                    quanta: slot.quanta,
                    maint: result.as_ref().map(|r| r.maint),
                    result,
                }
            })
            .collect()
    }

    /// The RAM bytes this tenant's admission must carve: its engine
    /// budget, shrunk to the spill tier's high-water carve when one is
    /// configured (the tier keeps the resident set under that mark),
    /// plus the tier's block-cache budget — cache RAM lives outside the
    /// engine's window budget and must be reserved here.
    fn reservation_for(exec: &Executor<W>) -> u64 {
        let cfg = exec.config();
        BudgetLedger::effective_reservation(
            cfg.budget.bytes,
            cfg.spill
                .as_ref()
                .map(|s| (s.policy.high_water, s.cache_bytes)),
        )
    }

    fn slot(&self, id: TenantId) -> Result<&Slot<W>, ServeError> {
        self.slots
            .get(id.0 as usize)
            .ok_or(ServeError::UnknownTenant(id))
    }
}
