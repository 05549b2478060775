//! End-to-end acceptance for the disk spill tier: a memory budget that
//! kills the all-RAM engine completes under spill with outputs identical
//! to the unconstrained run (the all-zero [`StorageProfile`] makes the
//! tier behaviorally invisible); crash + resume with the tier active is
//! byte-identical to the uninterrupted spilled run; and every injected
//! disk fault ends in recovery or a typed degraded outcome — never a
//! panic — with same-seed replays byte-identical.

use amri_bench::lattice::{forcing_budget, lineup};
use amri_core::assess::AssessorKind;
use amri_engine::{
    load_latest, CheckpointPolicy, Checkpointer, EngineError, Executor, FaultKind, FaultPlan,
    IndexingMode, MemoryBudget, RunOutcome, SpillSettings,
};
use amri_stream::VirtualDuration;
use amri_synth::scenario::{paper_scenario, PaperScenario, Scale};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amri-spill-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A short but non-trivial scenario: long enough to fill windows past any
/// interesting budget, short enough that the mode matrix stays fast.
fn scenario(seed: u64) -> PaperScenario {
    let mut sc = paper_scenario(Scale::Quick, seed);
    sc.engine.duration = VirtualDuration::from_secs(8);
    sc.engine.budget = MemoryBudget::unlimited();
    sc
}

fn executor(sc: &PaperScenario, mode: IndexingMode) -> Executor<amri_synth::DriftingWorkload> {
    Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
        .expect("valid engine configuration")
}

/// The headline guarantee, per indexing mode: a budget below the
/// unconstrained run's peak kills the all-RAM engine, but the same budget
/// with a spill tier completes — and because the identity (all-zero)
/// storage profile charges nothing, the outputs and the order-sensitive
/// output digest are *equal* to the unconstrained run's. Beyond-RAM
/// windows change where state lives, not what the join computes.
#[test]
fn oom_budget_completes_under_spill_with_identical_outputs() {
    let sc = scenario(42);
    for (label, mode) in lineup() {
        let baseline = executor(&sc, mode.clone()).run();
        assert_eq!(
            baseline.outcome,
            RunOutcome::Completed,
            "{label}: unconstrained baseline must complete"
        );
        assert!(baseline.outputs > 0, "{label}: baseline must produce joins");

        // Any budget under the observed peak kills the all-RAM run —
        // the constrained run walks the identical trajectory up to the
        // breach — while leaving the spill tier room to hold the
        // resident set (stubs are smaller than tuples, but not free).
        let budget = forcing_budget(&mode, baseline.series.peak_memory());
        let mut constrained = sc.clone();
        constrained.engine.budget = MemoryBudget { bytes: budget };
        let dead = executor(&constrained, mode.clone()).run();
        assert!(
            matches!(dead.outcome, RunOutcome::OutOfMemory { .. }),
            "{label}: a {budget}-byte budget must kill the all-RAM run, got {:?}",
            dead.outcome
        );

        let dir = tmpdir(&format!("oom-{label}"));
        let mut spilled = constrained.clone();
        spilled.engine.spill = Some(SpillSettings::in_dir(&dir));
        let r = executor(&spilled, mode).run();
        assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "{label}: the same budget must complete under spill"
        );
        assert!(
            r.spill.spilled_tuples > 0,
            "{label}: the tier must actually have spilled"
        );
        assert_eq!(
            (r.outputs, r.output_digest),
            (baseline.outputs, baseline.output_digest),
            "{label}: spill must not change the join answer"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Spilled state participates in checkpoint/restore: a run crashed at an
/// injected step while the tier is active, resumed from the latest good
/// snapshot, is byte-identical (down to the Debug rendering, spill
/// counters included) to the same spilled run left uninterrupted. All
/// three executors share one spill directory — the directory is part of
/// the configuration fingerprint, and restore rewrites the block files
/// from the snapshot's frames.
#[test]
fn crash_and_resume_with_spill_is_byte_identical() {
    let dir = tmpdir("crash");
    for (label, mode) in lineup() {
        let base = scenario(17);
        let peak = executor(&base, mode.clone()).run().series.peak_memory();
        let budget = forcing_budget(&mode, peak);
        let mut sc = base;
        sc.engine.budget = MemoryBudget { bytes: budget };
        sc.engine.spill = Some(SpillSettings::in_dir(dir.join(label)));

        let baseline = executor(&sc, mode.clone()).run();
        assert!(
            baseline.spill.spilled_tuples > 0,
            "{label}: the tier must be active for the crash to mean anything"
        );

        let ckpt_dir = dir.join(format!("{label}-ckpt"));
        let exec = executor(&sc, mode.clone());
        let fingerprint = exec.config_fingerprint();
        let mut ckpt = Checkpointer::new(&ckpt_dir, CheckpointPolicy::every(60))
            .unwrap()
            .with_faults(vec![FaultKind::CrashAt { step: 200 }]);
        let died = exec
            .into_pipeline()
            .run_with(Some(&mut ckpt), fingerprint)
            .expect_err("the armed crash must kill the run");
        assert!(
            matches!(died, EngineError::InjectedCrash { step: 200 }),
            "unexpected death: {died}"
        );
        assert!(ckpt.checkpoints_taken() > 0);

        let (snap, report) = load_latest(&ckpt_dir).expect("a good snapshot must exist");
        assert!(report.skipped.is_empty());
        let resumed = executor(&sc, mode)
            .resume_from(&snap)
            .expect("same configuration, same spill dir: snapshot must be accepted")
            .run_with(None, 0)
            .expect("a resumed run without a checkpointer cannot fail");
        assert_eq!(
            format!("{baseline:#?}"),
            format!("{resumed:#?}"),
            "{label}: crash + resume with spill active must be invisible"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A spilled run under an injected torn-write storm: every tear is caught
/// by write-verify and retried, the run still completes with the right
/// answer (tears cost virtual time only when the profile charges any —
/// here it charges none), and a same-seed replay is byte-identical.
#[test]
fn torn_block_writes_are_caught_and_replay_identically() {
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Csria,
        initial: None,
    };
    let base = scenario(7);
    let baseline = executor(&base, mode.clone()).run();
    let budget = forcing_budget(&mode, baseline.series.peak_memory());
    let dir = tmpdir("torn");
    let mut sc = base;
    sc.engine.budget = MemoryBudget { bytes: budget };
    sc.engine.spill = Some(SpillSettings::in_dir(&dir));
    sc.engine.faults = Some(FaultPlan {
        seed: 77,
        io: amri_core::IoFaultConfig {
            torn_write_prob: 0.25,
            ..Default::default()
        },
        ..FaultPlan::default()
    });

    let run = || executor(&sc, mode.clone()).run();
    let r = run();
    assert!(
        r.spill.torn_writes > 0,
        "the storm must actually tear writes: {:?}",
        r.spill
    );
    assert!(r.spill.spilled_tuples > 0, "the tier must be active");
    // Write-verify + retry absorbs every tear here: nothing is lost, so
    // the run completes un-degraded with the unconstrained answer.
    assert_eq!(r.outcome, RunOutcome::Completed, "tears must be absorbed");
    assert_eq!(
        (r.outputs, r.output_digest),
        (baseline.outputs, baseline.output_digest),
        "caught tears must not change the join answer"
    );
    let replay = run();
    assert_eq!(
        format!("{r:#?}"),
        format!("{replay:#?}"),
        "same seed, same tears: replay must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A spilled run under injected read errors and latency spikes: a block
/// whose read fails twice is lost, which surfaces as a typed
/// [`RunOutcome::Degraded`] carrying `lost_tuples` — never a panic, never
/// a wrong silent answer — and the whole perturbed run replays
/// byte-identically under the same seed.
#[test]
fn lost_blocks_degrade_typed_and_replay_identically() {
    let mode = IndexingMode::Amri {
        assessor: AssessorKind::Csria,
        initial: None,
    };
    let base = scenario(11);
    let peak = executor(&base, mode.clone()).run().series.peak_memory();
    let budget = forcing_budget(&mode, peak);
    let dir = tmpdir("read-err");
    let mut sc = base;
    sc.engine.budget = MemoryBudget { bytes: budget };
    sc.engine.spill = Some(SpillSettings::in_dir(&dir));
    sc.engine.faults = Some(FaultPlan {
        seed: 13,
        io: amri_core::IoFaultConfig {
            read_error_prob: 0.6,
            latency_spike_prob: 0.3,
            spike_ns: 50_000,
            ..Default::default()
        },
        ..FaultPlan::default()
    });

    let run = || executor(&sc, mode.clone()).run();
    let r = run();
    assert!(r.spill.spilled_tuples > 0, "the tier must be active");
    assert!(
        r.spill.read_errors > 0,
        "the storm must actually fail reads: {:?}",
        r.spill
    );
    match r.outcome {
        RunOutcome::Completed => assert_eq!(
            r.spill.lost_blocks, 0,
            "a completed run must not have lost anything"
        ),
        RunOutcome::Degraded { lost_tuples, .. } => {
            assert!(r.spill.lost_blocks > 0, "degradation implies lost blocks");
            assert!(
                lost_tuples > 0,
                "spill loss must surface in the typed outcome"
            );
        }
        other => panic!("disk faults must never turn into {other:?}"),
    }
    let replay = run();
    assert_eq!(
        format!("{r:#?}"),
        format!("{replay:#?}"),
        "same seed, same faults: replay must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The identity contract stated on [`SpillSettings::in_dir`]: with an
/// *unlimited* budget the tier never engages at all, and the run —
/// counters included — is indistinguishable from an engine without one
/// except for the tier's own metadata accounting.
#[test]
fn spill_tier_is_inert_under_an_unlimited_budget() {
    let sc = scenario(3);
    let mode = IndexingMode::Scan;
    let plain = executor(&sc, mode.clone()).run();
    let dir = tmpdir("inert");
    let mut spilled_sc = sc.clone();
    spilled_sc.engine.spill = Some(SpillSettings::in_dir(&dir));
    let r = executor(&spilled_sc, mode).run();
    assert_eq!(r.spill, amri_core::SpillStats::default(), "nothing spills");
    assert_eq!(
        (r.outputs, r.output_digest, r.outcome),
        (plain.outputs, plain.output_digest, plain.outcome),
        "an idle tier is invisible"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `RunResult::death_time` and the spill counters agree with the series:
/// a spilled run records its peak *resident* memory under the budget even
/// though the logical window is bigger than RAM.
#[test]
fn spilled_runs_sample_resident_memory_under_the_budget() {
    let mode = IndexingMode::Scan;
    let base = scenario(5);
    let baseline = executor(&base, mode.clone()).run();
    let budget = forcing_budget(&mode, baseline.series.peak_memory());
    let dir = tmpdir("resident");
    let mut sc = base;
    sc.engine.budget = MemoryBudget { bytes: budget };
    sc.engine.spill = Some(SpillSettings::in_dir(&dir));
    let r = executor(&sc, mode).run();
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert!(
        r.series.peak_memory() <= budget,
        "resident peak {} must respect the {budget}-byte budget",
        r.series.peak_memory()
    );
    assert!(
        r.spill.blocks_written >= 1 && r.spill.spilled_tuples > 0,
        "the overflow must be on disk: {:?}",
        r.spill
    );
    std::fs::remove_dir_all(&dir).ok();
}
