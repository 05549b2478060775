//! Output verification without frozen goldens: a later tuner change may
//! legitimately move every digest, so correctness is checked as
//! *identities between runs of the same code* — repetition ≡ repetition,
//! threads 2 ≡ threads 1, spilled ≡ all-RAM, checkpoint-resumed ≡
//! uninterrupted, hosted ≡ solo — plus "every run completed, nothing was
//! shed, evicted or lost".

use crate::run::{finish, run_solo, EngineRun, Pass};
use crate::workloads::{Plan, Workload};
use amri_engine::{load_latest, MemoryBudget, RunOutcome, RunResult, Session};
use std::hash::Hasher;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Everything a run's answer consists of, hashed: the `Debug` rendering
/// of the whole `RunResult` (outputs, digest, series, retunes, pattern
/// statistics, requests, spill counters) and its maintenance totals.
pub fn fingerprint(run: &EngineRun) -> u64 {
    let mut h = amri_stream::fxhash::FxHasher::default();
    h.write(format!("{:?}", run.result).as_bytes());
    h.write(format!("{:?}", run.maint).as_bytes());
    h.finish()
}

/// The configuration-independent part of an answer: what must agree
/// between a spilled run and its all-RAM twin.
fn answer(r: &RunResult) -> (u64, u64) {
    (r.outputs, r.output_digest)
}

/// `"<what>: N outputs digest X vs M outputs digest Y"` — how every broken
/// identity between two runs is reported.
fn differs(what: &str, got: &RunResult, want: &RunResult) -> String {
    format!(
        "{what}: {} outputs digest {:016x} vs {} outputs digest {:016x}",
        got.outputs, got.output_digest, want.outputs, want.output_digest
    )
}

/// Tuples a run failed to carry through: shed, evicted or lost ones, or
/// every offered tuple when the run died.
pub fn failed_tuples(run: &EngineRun, offered: u64) -> u64 {
    match run.result.outcome {
        RunOutcome::Completed => 0,
        RunOutcome::OutOfMemory { .. } => offered,
        RunOutcome::Degraded { .. } => {
            let d = &run.result.degradation;
            (d.shed_jobs + d.evicted_tuples + d.lost_tuples).min(offered)
        }
    }
}

/// What verification found, plus the reference runs it made (their
/// timings feed per-layer metrics, so they are not thrown away).
#[derive(Debug, Default)]
pub struct Verified {
    /// One line per broken identity; empty means the outputs are correct.
    pub violations: Vec<String>,
    /// The reference runs with their loop wall seconds: the threads = 1
    /// twin (`sharded_mt`), the all-RAM twin (`spill_ckpt`), each cell
    /// solo (`fleet_lineup`); empty otherwise.
    pub references: Vec<(EngineRun, f64)>,
    /// Wall ms of `load_latest` + `Executor::resume_from` (`spill_ckpt`).
    pub restore_ms: f64,
}

/// Check every identity that applies to `plan` over its timed `passes`.
pub fn verify(plan: &Plan, passes: &[Pass]) -> Verified {
    let mut v = Verified::default();
    let last = passes.last().expect("at least one pass ran");

    for (i, pass) in passes.iter().enumerate() {
        for (run, cell) in pass.runs.iter().zip(&pass.trained.cells) {
            if run.result.outcome != RunOutcome::Completed {
                v.violations.push(format!(
                    "pass {i} {}: outcome {:?}, expected Completed",
                    cell.label, run.result.outcome
                ));
            }
        }
    }
    // Repetition ≡ repetition.
    let first: Vec<u64> = passes[0].runs.iter().map(fingerprint).collect();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.quanta_ns.len() != passes[0].quanta_ns.len() {
            v.violations.push(format!(
                "pass {i} ran {} quanta, pass 0 ran {}",
                pass.quanta_ns.len(),
                passes[0].quanta_ns.len()
            ));
        }
        for (k, (a, b)) in passes[0].runs.iter().zip(&pass.runs).enumerate() {
            if first[k] != fingerprint(b) {
                v.violations.push(differs(
                    &format!("pass {i} run {k} differs from pass 0"),
                    &b.result,
                    &a.result,
                ));
            }
        }
    }

    match plan.workload {
        Workload::PaperAmri | Workload::IngestSparse => {}
        Workload::ShardedMt => {
            let t1 = last.trained.cells[0].with_engine(|e| e.parallelism = NonZeroUsize::MIN);
            let (reference, loop_s) = run_solo(&t1);
            if fingerprint(&reference) != fingerprint(&last.runs[0]) {
                v.violations.push(differs(
                    "threads 2 differs from threads 1",
                    &last.runs[0].result,
                    &reference.result,
                ));
            }
            v.references.push((reference, loop_s));
        }
        Workload::SpillCkpt => {
            let spilled = &last.runs[0];
            if spilled.result.spill.lost_blocks != 0 {
                v.violations.push(format!(
                    "{} spill blocks lost",
                    spilled.result.spill.lost_blocks
                ));
            }
            if !plan.smoke && spilled.result.spill.spilled_tuples == 0 {
                v.violations
                    .push("the tier never spilled: the budget no longer binds".to_string());
            }
            let all_ram = last.trained.cells[0].with_engine(|e| {
                e.spill = None;
                e.budget = MemoryBudget::unlimited();
            });
            let (reference, loop_s) = run_solo(&all_ram);
            if reference.result.outcome != RunOutcome::Completed
                || answer(&reference.result) != answer(&spilled.result)
            {
                v.violations.push(differs(
                    "spilled differs from all-RAM",
                    &spilled.result,
                    &reference.result,
                ));
            }
            v.references.push((reference, loop_s));

            // The last checkpoint must restore, and the resumed run must
            // land where the uninterrupted one did. Same cell, so same
            // spill directory: the fingerprint covers the path, and
            // restore rebuilds the block files from the snapshot.
            let dir = last.ckpt_dir.as_ref().expect("spill_ckpt checkpoints");
            if last.ckpt.count == 0 {
                v.violations.push("no checkpoint was taken".to_string());
            } else {
                let t = Instant::now();
                let restored = load_latest(dir)
                    .map_err(|e| e.to_string())
                    .and_then(|(snap, _)| {
                        last.trained.cells[0]
                            .executor()
                            .resume_from(&snap)
                            .map_err(|e| e.to_string())
                    });
                v.restore_ms = t.elapsed().as_secs_f64() * 1e3;
                match restored {
                    Err(e) => v
                        .violations
                        .push(format!("last checkpoint does not restore: {e}")),
                    Ok(pipeline) => {
                        let mut session = Session::new(pipeline);
                        while !session.is_finished() {
                            session.run_quantum(crate::workloads::QUANTUM_STEPS);
                        }
                        let resumed = finish(session);
                        if fingerprint(&resumed) != fingerprint(spilled) {
                            v.violations.push(differs(
                                "resumed run differs from the uninterrupted one",
                                &resumed.result,
                                &spilled.result,
                            ));
                        }
                    }
                }
            }
        }
        Workload::FleetLineup => {
            if last.queued_tenants == 0 {
                v.violations.push(
                    "no tenant queued at admission: the global budget no longer binds".to_string(),
                );
            }
            for (cell, hosted) in last.trained.cells.iter().zip(&last.runs) {
                let (solo, loop_s) = run_solo(cell);
                if fingerprint(&solo) != fingerprint(hosted) {
                    v.violations.push(differs(
                        &format!("{} hosted differs from solo", cell.label),
                        &hosted.result,
                        &solo.result,
                    ));
                }
                v.references.push((solo, loop_s));
            }
        }
    }
    v
}
