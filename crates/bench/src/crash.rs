//! The crash/recovery drives of the identity lattice
//! ([`lattice`](crate::lattice)) — the one crash→resume sequence under
//! `crates/bench/`.
//!
//! The engine side (`amri_engine::runtime::checkpoint`) owns the snapshot
//! mechanics; this module packages the three moves a harness needs —
//! run-while-checkpointing, run-until-injected-crash, and
//! resume-from-latest-good-snapshot — and reports the bench-side
//! [`CheckpointNote`] bookkeeping that
//! [`write_summary_csv`](crate::report::write_summary_csv) emits. The
//! `RunResult` itself never mentions checkpointing: it is the
//! byte-identity oracle the recovery checks diff, so the counters ride
//! alongside it instead.

use crate::report::CheckpointNote;
use amri_engine::{
    load_latest, CheckpointPolicy, Checkpointer, EngineError, Executor, FaultKind,
    MaintenanceStats, RestoreReport, RunResult, StreamWorkload,
};
use std::path::Path;

/// Run to completion while snapshotting every `every` steps into `dir`.
///
/// Checkpointing is a pure observer, so the returned [`RunResult`] is
/// byte-identical to what `exec.run()` would have produced. The
/// [`MaintenanceStats`] ride along for the summary CSV's maintenance
/// columns; they are part of the snapshot image, so a resumed run reports
/// the same final ticks as an uninterrupted one.
///
/// # Errors
/// [`EngineError::Snapshot`] on checkpoint I/O failures.
pub fn run_checkpointed<W: StreamWorkload>(
    exec: Executor<W>,
    dir: &Path,
    every: u64,
) -> Result<(RunResult, CheckpointNote, MaintenanceStats), EngineError> {
    let fingerprint = exec.config_fingerprint();
    let mut ckpt = Checkpointer::new(dir, CheckpointPolicy::every(every))?;
    let (result, maint) = exec
        .into_pipeline()
        .run_with_stats_ckpt(Some(&mut ckpt), fingerprint)?;
    Ok((
        result,
        CheckpointNote {
            checkpoints_taken: ckpt.checkpoints_taken(),
            resumed_from_step: None,
            restore_notes: String::new(),
        },
        maint,
    ))
}

/// Run with checkpointing and the given checkpoint-layer `faults` armed;
/// the run is expected to die on an injected crash. Returns the step it
/// died at and how many snapshots were written first.
///
/// # Errors
/// [`EngineError::Snapshot`] on checkpoint I/O failures, or
/// `Malformed` (as a snapshot error) if the run survives — an armed
/// crash that never fires means the crash step was past the run's end.
pub fn run_until_crash<W: StreamWorkload>(
    exec: Executor<W>,
    dir: &Path,
    every: u64,
    faults: Vec<FaultKind>,
) -> Result<(u64, u64), EngineError> {
    let fingerprint = exec.config_fingerprint();
    let mut ckpt = Checkpointer::new(dir, CheckpointPolicy::every(every))?.with_faults(faults);
    match exec.into_pipeline().run_with(Some(&mut ckpt), fingerprint) {
        Err(EngineError::InjectedCrash { step }) => Ok((step, ckpt.checkpoints_taken())),
        Err(e) => Err(e),
        Ok(_) => Err(amri_stream::SnapshotError::Malformed(
            "the armed crash never fired — crash step past the run's end".into(),
        )
        .into()),
    }
}

/// What [`resume_latest`] recovered and then finished.
#[derive(Debug)]
pub struct Resumed {
    /// The finished run.
    pub result: RunResult,
    /// Maintenance ticks, restored from the snapshot and accumulated to
    /// the end — identical to an uninterrupted run's.
    pub maint: MaintenanceStats,
    /// The resume step and, in `restore_notes`, any corrupt snapshots
    /// recovery skipped, with reasons.
    pub note: CheckpointNote,
    /// The full restore report.
    pub report: RestoreReport,
    /// Retunes already in the restored image's log: zero means the
    /// snapshot carried a tuner that had not yet decided anything.
    pub retunes_restored: usize,
}

/// Resume `exec` from the latest good snapshot in `dir` and run it to
/// completion.
///
/// # Errors
/// Any [`EngineError::Snapshot`] from loading (no usable snapshot,
/// configuration mismatch) or from the restore itself.
pub fn resume_latest<W: StreamWorkload>(
    exec: Executor<W>,
    dir: &Path,
) -> Result<Resumed, EngineError> {
    let (snap, report) = load_latest(dir)?;
    let step = snap.step();
    let pipeline = exec.resume_from(&snap)?;
    let retunes_restored = pipeline.context().retunes.len();
    let (result, maint) = pipeline.run_with_stats_ckpt(None, 0)?;
    Ok(Resumed {
        result,
        maint,
        note: CheckpointNote {
            checkpoints_taken: 0,
            resumed_from_step: Some(step),
            restore_notes: report.notes(),
        },
        report,
        retunes_restored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_engine::{IndexingMode, TornMode};
    use amri_stream::VirtualDuration;
    use amri_synth::scenario::{paper_scenario, Scale};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amri-bench-crash-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn quick_exec(seed: u64) -> Executor<amri_synth::DriftingWorkload> {
        let mut sc = paper_scenario(Scale::Quick, seed);
        sc.engine.duration = VirtualDuration::from_secs(6);
        Executor::try_new(
            &sc.query,
            sc.workload(),
            IndexingMode::Scan,
            sc.engine.clone(),
        )
        .expect("valid engine configuration")
    }

    #[test]
    fn crash_resume_round_trip_matches_the_straight_run() {
        let (baseline, base_maint) = quick_exec(8).run_with_stats();
        let dir = tmpdir("roundtrip");
        let (step, taken) = run_until_crash(
            quick_exec(8),
            &dir,
            40,
            vec![FaultKind::CrashAt { step: 150 }],
        )
        .unwrap();
        assert_eq!(step, 150);
        assert!(taken >= 3);
        let resumed = resume_latest(quick_exec(8), &dir).unwrap();
        assert!(resumed.report.skipped.is_empty());
        assert_eq!(resumed.note.restore_notes, "");
        assert_eq!(resumed.note.resumed_from_step, Some(120));
        assert_eq!(format!("{baseline:#?}"), format!("{:#?}", resumed.result));
        // Maintenance ticks are snapshotted, so the resumed run's final
        // tally must match the uninterrupted run's.
        assert_eq!(base_maint, resumed.maint);
        assert!(resumed.maint.ingest_ns > 0, "{:?}", resumed.maint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observer_run_reports_its_checkpoints() {
        let dir = tmpdir("observer");
        let (baseline, base_maint) = quick_exec(3).run_with_stats();
        let (result, note, maint) = run_checkpointed(quick_exec(3), &dir, 100).unwrap();
        assert!(note.checkpoints_taken > 0);
        assert_eq!(note.resumed_from_step, None);
        assert_eq!(format!("{baseline:#?}"), format!("{result:#?}"));
        assert_eq!(base_maint, maint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_latest_snapshot_is_skipped_on_resume() {
        let dir = tmpdir("torn");
        let baseline = quick_exec(4).run();
        // Checkpoints at 40/80/120 (seqs 0/1/2); seq 2 is torn.
        let (_, taken) = run_until_crash(
            quick_exec(4),
            &dir,
            40,
            vec![
                FaultKind::TornWrite {
                    snapshot: 2,
                    mode: TornMode::Truncate,
                },
                FaultKind::CrashAt { step: 130 },
            ],
        )
        .unwrap();
        assert_eq!(taken, 3);
        let resumed = resume_latest(quick_exec(4), &dir).unwrap();
        assert_eq!(
            resumed.report.skipped.len(),
            1,
            "the torn image must be skipped by checksum"
        );
        assert!(
            resumed
                .note
                .restore_notes
                .contains("checkpoint-000002.snap"),
            "the skipped file must be named in the note: {}",
            resumed.note.restore_notes
        );
        assert_eq!(resumed.note.resumed_from_step, Some(80));
        assert_eq!(format!("{baseline:#?}"), format!("{:#?}", resumed.result));
        std::fs::remove_dir_all(&dir).ok();
    }
}
