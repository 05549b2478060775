//! Checkpoint/restore with crash-injection recovery, end to end: a run
//! killed at an injected crash step and resumed from its latest good
//! snapshot produces a `RunResult` byte-identical (down to the Debug
//! rendering) to the same run left uninterrupted — across shard counts,
//! parallelism levels, every indexing mode, and with the degradation
//! governor and fault-injection plan active. Torn snapshot writes are
//! detected by checksum and recovery falls back to the previous good
//! image; mismatched configurations are refused before any state moves.

use amri_bench::lattice::lineup;
use amri_core::assess::AssessorKind;
use amri_engine::{
    load_latest, CheckpointPolicy, Checkpointer, DegradationPolicy, EngineError, Executor,
    FaultKind, FaultPlan, IndexingMode, RunResult, TornMode,
};
use amri_stream::VirtualDuration;
use amri_synth::scenario::{paper_scenario, PaperScenario, Scale};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amri-crash-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A short but non-trivial scenario: long enough to retune and to cross
/// the crash step, short enough that the full matrix stays fast.
fn scenario(seed: u64) -> PaperScenario {
    let mut sc = paper_scenario(Scale::Quick, seed);
    sc.engine.duration = VirtualDuration::from_secs(8);
    sc
}

fn executor(sc: &PaperScenario, mode: IndexingMode) -> Executor<amri_synth::DriftingWorkload> {
    Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
        .expect("valid engine configuration")
}

/// Run uninterrupted; then crash an identical run at `crash_step` with
/// checkpoints every `every` steps; then resume from the latest good
/// snapshot and finish. Returns (baseline, resumed).
fn crash_and_resume(
    sc: &PaperScenario,
    mode: IndexingMode,
    dir: &PathBuf,
    every: u64,
    crash_step: u64,
) -> (RunResult, RunResult) {
    let baseline = executor(sc, mode.clone()).run();

    let exec = executor(sc, mode.clone());
    let fingerprint = exec.config_fingerprint();
    let mut ckpt = Checkpointer::new(dir, CheckpointPolicy::every(every))
        .unwrap()
        .with_faults(vec![FaultKind::CrashAt { step: crash_step }]);
    let died = exec
        .into_pipeline()
        .run_with(Some(&mut ckpt), fingerprint)
        .expect_err("the armed crash must kill the run");
    assert!(
        matches!(died, EngineError::InjectedCrash { step } if step == crash_step),
        "unexpected death: {died}"
    );
    assert!(
        ckpt.checkpoints_taken() > 0,
        "at least one checkpoint must precede the crash"
    );

    let (snap, report) = load_latest(dir).expect("a good snapshot must be recoverable");
    assert!(
        report.skipped.is_empty(),
        "no snapshot was corrupted in this scenario"
    );
    let resumed = executor(sc, mode)
        .resume_from(&snap)
        .expect("an identically-configured executor must accept the snapshot")
        .run_with(None, 0)
        .expect("a resumed run without a checkpointer cannot fail");
    (baseline, resumed)
}

fn assert_byte_identical(baseline: &RunResult, resumed: &RunResult, label: &str) {
    assert_eq!(
        format!("{baseline:#?}"),
        format!("{resumed:#?}"),
        "{label}: resumed run must be byte-identical to the uninterrupted one"
    );
}

/// The headline guarantee: crash + resume is invisible in the result, for
/// every indexing mode.
#[test]
fn resumed_runs_are_byte_identical_across_modes() {
    let sc = scenario(42);
    for (label, mode) in lineup() {
        let dir = tmpdir(&format!("modes-{label}"));
        let (baseline, resumed) = crash_and_resume(&sc, mode, &dir, 60, 200);
        assert_byte_identical(&baseline, &resumed, label);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Sharded arenas and parallel probe workers recover identically: the
/// snapshot captures the logical state, so shard layout and thread count
/// survive restore untouched.
#[test]
fn resumed_runs_are_byte_identical_across_shards_and_parallelism() {
    for shards in [1usize, 4] {
        for parallelism in [1usize, 4] {
            let mut sc = scenario(17);
            sc.engine.shards = shards;
            sc.engine.parallelism = std::num::NonZeroUsize::new(parallelism).unwrap();
            let mode = IndexingMode::Amri {
                assessor: AssessorKind::Csria,
                initial: None,
            };
            let dir = tmpdir(&format!("grid-s{shards}-p{parallelism}"));
            let (baseline, resumed) = crash_and_resume(&sc, mode, &dir, 60, 200);
            assert_byte_identical(
                &baseline,
                &resumed,
                &format!("shards={shards} parallelism={parallelism}"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Recovery restores the governor's and the fault injector's RNG streams
/// and pending queues, so even a degraded, fault-perturbed run replays
/// byte-identically through a crash.
#[test]
fn degraded_and_faulted_runs_recover_byte_identically() {
    let mut sc = scenario(9);
    sc.engine.degradation = Some(DegradationPolicy::default());
    sc.engine.faults = Some(FaultPlan {
        seed: 77,
        drop_prob: 0.05,
        duplicate_prob: 0.05,
        reorder_prob: 0.15,
        late_prob: 0.1,
        late_by: VirtualDuration::from_secs(2),
        ..FaultPlan::default()
    });
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Csria,
        initial: None,
    };
    let dir = tmpdir("degraded-faulted");
    let (baseline, resumed) = crash_and_resume(&sc, mode, &dir, 60, 250);
    assert!(
        baseline.faults.total() > 0,
        "the plan must actually perturb the run"
    );
    assert_byte_identical(&baseline, &resumed, "degraded+faulted");
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn final write is caught by the file checksum; recovery falls back
/// to the previous good snapshot and the resumed run is still identical.
#[test]
fn torn_final_snapshot_falls_back_to_previous_good_image() {
    for mode in [TornMode::Truncate, TornMode::FlipByte] {
        let sc = scenario(5);
        let index_mode = IndexingMode::Scan;
        let baseline = executor(&sc, index_mode.clone()).run();

        let dir = tmpdir(&format!("torn-{mode:?}"));
        let exec = executor(&sc, index_mode.clone());
        let fingerprint = exec.config_fingerprint();
        // Checkpoints land at steps 60, 120, 180 (seqs 0, 1, 2); the crash
        // at 200 makes seq 2 the latest — and the torn write corrupts it.
        let mut ckpt = Checkpointer::new(&dir, CheckpointPolicy::every(60))
            .unwrap()
            .with_faults(vec![
                FaultKind::TornWrite { snapshot: 2, mode },
                FaultKind::CrashAt { step: 200 },
            ]);
        exec.into_pipeline()
            .run_with(Some(&mut ckpt), fingerprint)
            .expect_err("the armed crash must kill the run");
        assert_eq!(ckpt.checkpoints_taken(), 3);

        let (snap, report) = load_latest(&dir).expect("fallback must find seq 1");
        assert_eq!(
            report.skipped.len(),
            1,
            "exactly the torn file is skipped ({mode:?})"
        );
        assert_eq!(report.skipped[0].file, "checkpoint-000002.snap");
        assert!(
            report
                .path
                .to_string_lossy()
                .ends_with("checkpoint-000001.snap"),
            "fallback must pick the previous image, got {:?}",
            report.path
        );
        let resumed = executor(&sc, index_mode)
            .resume_from(&snap)
            .unwrap()
            .run_with(None, 0)
            .unwrap();
        assert_byte_identical(&baseline, &resumed, &format!("torn:{mode:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot from one configuration must not restore into another: the
/// fingerprint check refuses before any state is touched.
#[test]
fn mismatched_configuration_is_refused() {
    let sc = scenario(3);
    let dir = tmpdir("mismatch");
    let exec = executor(&sc, IndexingMode::Scan);
    let fingerprint = exec.config_fingerprint();
    let mut ckpt = Checkpointer::new(&dir, CheckpointPolicy::every(50))
        .unwrap()
        .with_faults(vec![FaultKind::CrashAt { step: 120 }]);
    exec.into_pipeline()
        .run_with(Some(&mut ckpt), fingerprint)
        .expect_err("the armed crash must kill the run");
    let (snap, _report) = load_latest(&dir).unwrap();

    // Different seed → different workload and router streams → refused.
    let mut other = scenario(3);
    other.engine.seed ^= 1;
    let err = match executor(&other, IndexingMode::Scan).resume_from(&snap) {
        Err(e) => e,
        Ok(_) => panic!("a different configuration must be refused"),
    };
    assert!(
        matches!(
            err,
            EngineError::Snapshot(amri_stream::SnapshotError::ConfigMismatch { .. })
        ),
        "wrong error: {err}"
    );
    // A different mode is refused too.
    let err = match executor(&sc, IndexingMode::StaticBitmap { configs: None }).resume_from(&snap) {
        Err(e) => e,
        Ok(_) => panic!("a different indexing mode must be refused"),
    };
    assert!(
        matches!(err, EngineError::Snapshot(_)),
        "wrong error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The maintenance totals are part of the v2 layout: an image without
/// its `maint` section, or with the section cut to the three words an
/// older layout wrote, is refused with the typed error — never resumed
/// with the counters restarted at zero.
#[test]
fn an_image_without_its_maintenance_totals_is_refused() {
    use amri_stream::{SectionWriter, SnapshotError, SnapshotReader, SnapshotWriter};
    let sc = scenario(3);
    let exec = executor(&sc, IndexingMode::Scan);
    let fingerprint = exec.config_fingerprint();
    let mut pipeline = exec.into_pipeline();
    for _ in 0..120 {
        pipeline.step_once();
    }
    let taken = SnapshotReader::parse(&pipeline.snapshot_image(fingerprint)).unwrap();
    // Hand-build a v2 image from the taken one's sections, keeping
    // `maint_words` eight-byte words of `maint` (`None` drops it).
    let rebuilt = |maint_words: Option<usize>| {
        let mut image = SnapshotWriter::new(fingerprint, taken.step());
        for name in [
            "runtime",
            "series",
            "retunes",
            "router",
            "backlog",
            "stems",
            "observers",
            "maint",
            "workload",
        ] {
            let body = taken.section(name).unwrap().rest();
            let body = match (name, maint_words) {
                ("maint", None) => continue,
                ("maint", Some(words)) => &body[..8 * words],
                _ => body,
            };
            let mut w = SectionWriter::new();
            body.iter().for_each(|&b| w.put_u8(b));
            image.add(name, w);
        }
        let snap = SnapshotReader::parse(&image.finish()).expect("a well-formed v2 image");
        executor(&sc, IndexingMode::Scan)
            .resume_from(&snap)
            .map(|_| ())
    };
    assert_eq!(rebuilt(Some(6)), Ok(()), "the full section resumes");
    assert_eq!(
        rebuilt(None),
        Err(SnapshotError::MissingSection("maint".into()).into())
    );
    assert_eq!(rebuilt(Some(3)), Err(SnapshotError::Truncated.into()));
}

/// The parallel write path end to end: shards=4/parallelism=4 routes
/// every insert/expire through the staged per-shard ingest seam and
/// overlaps it with the probe, while the degradation governor and a
/// fault plan perturb the stream. A checkpoint taken between a parallel
/// ingest burst and the probe that flushes it must capture the logical
/// state exactly, so crash + resume stays invisible even with every
/// concurrent subsystem engaged at once.
#[test]
fn parallel_ingest_with_degradation_and_faults_recovers_byte_identically() {
    let mut sc = scenario(9);
    sc.engine.shards = 4;
    sc.engine.parallelism = std::num::NonZeroUsize::new(4).unwrap();
    sc.engine.degradation = Some(DegradationPolicy::default());
    sc.engine.faults = Some(FaultPlan {
        seed: 77,
        drop_prob: 0.05,
        duplicate_prob: 0.05,
        reorder_prob: 0.15,
        late_prob: 0.1,
        late_by: VirtualDuration::from_secs(2),
        ..FaultPlan::default()
    });
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Csria,
        initial: None,
    };
    let dir = tmpdir("parallel-degraded-faulted");
    let (baseline, resumed) = crash_and_resume(&sc, mode, &dir, 60, 250);
    assert!(
        baseline.faults.total() > 0,
        "the plan must actually perturb the run"
    );
    assert_byte_identical(&baseline, &resumed, "parallel degraded+faulted");
    std::fs::remove_dir_all(&dir).ok();
}

/// Dense checkpoints bracket every migration: with a snapshot at *every*
/// step, some snapshot lands on the exact step of each retune, so the
/// resume replays from immediately before/after a sharded migration
/// rather than a quiet stretch. The run must actually retune for the
/// test to mean anything, and recovery must still be byte-identical.
#[test]
fn dense_checkpoints_resume_mid_migration_byte_identically() {
    let mut sc = scenario(42);
    // The 8s quick run ends before the assessor's first verdict; 12s is
    // the shortest duration where this workload migrates (4 retunes).
    sc.engine.duration = VirtualDuration::from_secs(12);
    sc.engine.shards = 4;
    sc.engine.parallelism = std::num::NonZeroUsize::new(4).unwrap();
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Csria,
        initial: None,
    };
    let dir = tmpdir("dense-mid-migration");
    let (baseline, resumed) = crash_and_resume(&sc, mode, &dir, 1, 300);
    assert!(
        !baseline.retunes.is_empty(),
        "the scenario must migrate at least once for the dense bracket to bite"
    );
    assert_byte_identical(&baseline, &resumed, "dense mid-migration");
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpointing is a pure observer: a run that takes snapshots is
/// byte-identical to one that never does.
#[test]
fn checkpointing_does_not_perturb_the_run() {
    let sc = scenario(21);
    let mode = IndexingMode::AdaptiveHash {
        n_indices: 2,
        initial: None,
    };
    let plain = executor(&sc, mode.clone()).run();

    let dir = tmpdir("observer");
    let exec = executor(&sc, mode);
    let fingerprint = exec.config_fingerprint();
    let mut ckpt = Checkpointer::new(&dir, CheckpointPolicy::every(75)).unwrap();
    let observed = exec
        .into_pipeline()
        .run_with(Some(&mut ckpt), fingerprint)
        .unwrap();
    assert!(ckpt.checkpoints_taken() > 0);
    assert_byte_identical(&plain, &observed, "observer");
    std::fs::remove_dir_all(&dir).ok();
}
