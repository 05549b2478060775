//! Timed passes: set a workload up, drive its step loop one scheduling
//! quantum at a time with every quantum timed from outside, and collect
//! what the finished run reports about itself.

use crate::workloads::{fleet_host_config, Cell, Plan, Trained, Workload, QUANTUM_STEPS};
use amri_engine::{
    CheckpointPolicy, Checkpointer, MaintenanceStats, RunResult, Session, SessionStatus,
};
use amri_serve::{Admission, TenantHost, TenantState};
use amri_synth::DriftingWorkload;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A scratch directory under `benchmark/out/work/`, private to this
/// process and removed when dropped: spill block files and checkpoints
/// live here, inside the checkout.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Create `benchmark/out/work/<pid>/`.
    ///
    /// # Errors
    /// The directory cannot be created.
    pub fn create() -> std::io::Result<Self> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("work")
            .join(std::process::id().to_string());
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// A sub-directory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk under out/.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The engine's own counters at the end of a run, read through
/// `Session::context()` (they are not part of `RunResult`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Arrivals ingested (`RunContext::tuple_seq`).
    pub tuples: u64,
    /// Routing jobs processed.
    pub jobs: u64,
    /// Pipeline iterations.
    pub steps: u64,
    /// Matches returned by all STeMs.
    pub matches: u64,
}

impl Counters {
    /// Read the counters of a (finished) session.
    pub fn of(session: &Session<DriftingWorkload>) -> Self {
        let ctx = session.context();
        Counters {
            tuples: ctx.tuple_seq,
            jobs: ctx.jobs_processed,
            steps: ctx.step,
            matches: ctx.stems.iter().map(|s| s.matches_returned).sum(),
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            tuples: self.tuples + other.tuples,
            jobs: self.jobs + other.jobs,
            steps: self.steps + other.steps,
            matches: self.matches + other.matches,
        }
    }
}

/// One finished engine run.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// What the run produced.
    pub result: RunResult,
    /// Virtual-time maintenance totals.
    pub maint: MaintenanceStats,
    /// The engine's counters (absent for hosted tenants: the host owns
    /// their sessions; the solo reference runs supply them).
    pub counters: Option<Counters>,
}

/// What the in-loop checkpoints of one pass cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCost {
    /// Checkpoints written.
    pub count: u64,
    /// Wall ns inside `Session::snapshot_image`, summed.
    pub snapshot_ns: u64,
    /// Wall ns inside `Checkpointer::write`, summed.
    pub write_ns: u64,
    /// Size of the last image.
    pub bytes: u64,
}

/// Sorted copy of `quanta_ns`, for [`quantile`].
pub fn sorted(quanta_ns: &[u64]) -> Vec<u64> {
    let mut v = quanta_ns.to_vec();
    v.sort_unstable();
    v
}

/// Quanta per chunk of [`denoised`]: 7 ms of `paper_amri`'s loop, 40 ms
/// of `sharded_mt`'s.
const CHUNK_QUANTA: usize = 256;

/// The step loop's per-quantum wall times with outside interference
/// filtered out.
///
/// Every pass of a run executes the bit-identical sequence of quanta, and
/// interference from outside the process — on the reference host,
/// neighbours contending for the shared cache and memory in bursts of
/// tens of milliseconds, during phases that last minutes — only ever adds
/// to a measurement. The loop is therefore cut into chunks of
/// [`CHUNK_QUANTA`] quanta and each chunk taken from the pass that ran it
/// fastest: short enough to dodge a burst, and long enough that a chunk
/// of a parallel engine averages over its cross-thread hand-offs, whose
/// latency flips between a fast and a slow regime from one quantum to the
/// next (that is cost, not interference, and a finer minimum would
/// assemble a loop of lucky hand-offs only). The sum is what one loop
/// costs on a quiet machine; the quantiles are those of its quanta.
pub fn denoised(passes: &[Pass]) -> Vec<u64> {
    let mut best = passes[0].quanta_ns.clone();
    for pass in &passes[1..] {
        // A pass of another length broke repetition ≡ repetition (verify
        // reports it) and has no chunk-by-chunk counterpart.
        if pass.quanta_ns.len() != best.len() {
            continue;
        }
        for (b, t) in best
            .chunks_mut(CHUNK_QUANTA)
            .zip(pass.quanta_ns.chunks(CHUNK_QUANTA))
        {
            if t.iter().sum::<u64>() < b.iter().sum::<u64>() {
                b.copy_from_slice(t);
            }
        }
    }
    best
}

/// One timed pass of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Set-up wall seconds: scenario → training → executor(s) →
    /// session/host, up to the first step.
    pub setup_s: f64,
    /// Wall seconds of the step loop.
    pub loop_s: f64,
    /// Wall ns of every quantum, in order.
    pub quanta_ns: Vec<u64>,
    /// `VmHWM` of the process when this pass ended, MiB.
    pub peak_rss_mib: f64,
    /// The finished run(s): one, or the four tenants in admission order.
    pub runs: Vec<EngineRun>,
    /// In-loop checkpoint cost (`spill_ckpt` only).
    pub ckpt: CheckpointCost,
    /// Tenants queued at admission (`fleet_lineup` only).
    pub queued_tenants: u64,
    /// The trained configuration(s) this pass ran — what the reference
    /// runs of verification are derived from.
    pub trained: Trained,
    /// Where this pass kept its spill block files, if it spilled.
    pub spill_dir: Option<PathBuf>,
    /// Where this pass wrote its checkpoints, if it did.
    pub ckpt_dir: Option<PathBuf>,
}

/// A never-due policy: the benchmark decides when to checkpoint (every
/// fixed number of quanta), the `Checkpointer` only writes and retains.
pub fn manual_policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_steps: 0,
        on_memory_pressure: None,
        keep: 3,
    }
}

/// Drive `session` to completion in `QUANTUM_STEPS`-step quanta, timing
/// each `run_quantum` call; `between` runs inside the timed quantum it
/// follows (a checkpoint stalls the loop, so the stall belongs to it).
pub fn drive_quanta(
    session: &mut Session<DriftingWorkload>,
    quanta_ns: &mut Vec<u64>,
    mut between: impl FnMut(&Session<DriftingWorkload>, u64),
) -> f64 {
    let loop_start = Instant::now();
    let mut n = 0u64;
    loop {
        let t = Instant::now();
        let status = session.run_quantum(QUANTUM_STEPS);
        n += 1;
        between(session, n);
        quanta_ns.push(t.elapsed().as_nanos() as u64);
        if status == SessionStatus::Finished {
            break;
        }
    }
    loop_start.elapsed().as_secs_f64()
}

/// Finish a session into an [`EngineRun`] with its counters.
pub fn finish(session: Session<DriftingWorkload>) -> EngineRun {
    let counters = Counters::of(&session);
    let (result, maint) = session.finish();
    EngineRun {
        result,
        maint,
        counters: Some(counters),
    }
}

/// Run `cell` alone, untimed-per-quantum but through the same
/// `run_quantum` loop; returns the run and its loop wall seconds.
pub fn run_solo(cell: &Cell) -> (EngineRun, f64) {
    let mut session = Session::new(cell.executor().into_pipeline());
    let _pinned = cell.pin_workers();
    let mut quanta = Vec::new();
    let loop_s = drive_quanta(&mut session, &mut quanta, |_, _| {});
    (finish(session), loop_s)
}

/// One full pass of `plan`: set-up, then the timed step loop.
/// `since` is when set-up began — process start for the first pass.
pub fn pass(plan: &Plan, work: &WorkDir, index: usize, since: Instant) -> Pass {
    let spill_dir = work.sub(&format!("spill-{index}"));
    let trained = plan.train(&spill_dir);
    let mut pass = match plan.workload {
        Workload::FleetLineup => fleet_pass(plan, trained, since),
        _ => solo_pass(plan, work, index, spill_dir, trained, since),
    };
    pass.peak_rss_mib = crate::host::peak_rss_mib();
    pass
}

fn solo_pass(
    plan: &Plan,
    work: &WorkDir,
    index: usize,
    spill_dir: PathBuf,
    trained: Trained,
    since: Instant,
) -> Pass {
    let cell = &trained.cells[0];
    let exec = cell.executor();
    let fingerprint = exec.config_fingerprint();
    let (mut ckpt, ckpt_dir) = if plan.workload == Workload::SpillCkpt {
        let dir = work.sub(&format!("ckpt-{index}"));
        let c = Checkpointer::new(&dir, manual_policy())
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        (Some(c), Some(dir))
    } else {
        (None, None)
    };
    let mut session = Session::new(exec.into_pipeline());
    let _pinned = cell.pin_workers();
    let setup_s = since.elapsed().as_secs_f64();

    let every = plan.checkpoint_every();
    let mut cost = CheckpointCost::default();
    let mut quanta_ns = Vec::new();
    let loop_s = drive_quanta(&mut session, &mut quanta_ns, |session, n| {
        if let Some(c) = ckpt.as_mut() {
            if n % every == 0 {
                let t = Instant::now();
                let image = session.snapshot_image(fingerprint);
                cost.snapshot_ns += t.elapsed().as_nanos() as u64;
                cost.bytes = image.len() as u64;
                let t = Instant::now();
                c.write(image)
                    .expect("checkpoint write inside the checkout");
                cost.write_ns += t.elapsed().as_nanos() as u64;
                cost.count += 1;
            }
        }
    });
    let run = finish(session);
    Pass {
        setup_s,
        loop_s,
        quanta_ns,
        peak_rss_mib: 0.0,
        runs: vec![run],
        ckpt: cost,
        queued_tenants: 0,
        trained,
        spill_dir: ckpt_dir.is_some().then_some(spill_dir),
        ckpt_dir,
    }
}

fn fleet_pass(plan: &Plan, trained: Trained, since: Instant) -> Pass {
    let mut host = TenantHost::new(fleet_host_config(plan.seed));
    let mut queued_tenants = 0;
    for cell in &trained.cells {
        match host
            .admit(cell.label, cell.weight, cell.executor())
            .unwrap_or_else(|e| panic!("admitting {}: {e}", cell.label))
        {
            Admission::Admitted(_) => {}
            Admission::Queued(_) => queued_tenants += 1,
        }
    }
    let setup_s = since.elapsed().as_secs_f64();

    let mut quanta_ns = Vec::new();
    let loop_start = Instant::now();
    loop {
        let t = Instant::now();
        let ran = host.run_quantum();
        if ran.is_none() {
            break;
        }
        quanta_ns.push(t.elapsed().as_nanos() as u64);
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    let runs = host
        .into_reports()
        .into_iter()
        .map(|report| {
            assert_eq!(
                report.state,
                TenantState::Completed,
                "tenant {} ended {:?}",
                report.label,
                report.state
            );
            EngineRun {
                result: report.result.expect("Completed tenants carry results"),
                maint: report.maint.expect("Completed tenants carry stats"),
                counters: None,
            }
        })
        .collect();
    Pass {
        setup_s,
        loop_s,
        quanta_ns,
        peak_rss_mib: 0.0,
        runs,
        ckpt: CheckpointCost::default(),
        queued_tenants,
        trained,
        spill_dir: None,
        ckpt_dir: None,
    }
}

/// Repeat whole passes until `seconds` of wall time are spent (set-up
/// included), at least `min_passes` of them. A pass that would overshoot
/// the budget by more than half its own length is not started.
pub fn timed_passes(
    plan: &Plan,
    work: &WorkDir,
    seconds: f64,
    min_passes: usize,
    process_start: Instant,
) -> Vec<Pass> {
    let begin = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let since = if passes.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let started = Instant::now();
        let done = pass(plan, work, passes.len(), since);
        eprintln!(
            "pass {}: setup {:.4} s, loop {:.4} s",
            passes.len(),
            done.setup_s,
            done.loop_s
        );
        passes.push(done);
        let last = started.elapsed().as_secs_f64();
        let spent = begin.elapsed().as_secs_f64();
        if passes.len() >= min_passes && spent + last / 2.0 >= seconds {
            return passes;
        }
        // Keep only the newest pass's directories: the last checkpoint is
        // restored by verification, older ones are dead weight.
        let done = passes.len() - 1;
        std::fs::remove_dir_all(work.sub(&format!("spill-{done}"))).ok();
        std::fs::remove_dir_all(work.sub(&format!("ckpt-{done}"))).ok();
    }
}

/// The `p`-quantile (0..=1) of `sorted`, nearest-rank on the upper side.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).ceil() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
