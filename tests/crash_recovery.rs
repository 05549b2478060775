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

/// Resume a scan run of `sc` from an image rebuilt, and re-sealed, out of
/// the sections of one taken at step 120: `edit` maps each section's name
/// and body to the body to write (`None` drops the section), so the image
/// can lie only where `edit` makes it.
fn resume_rebuilt(
    sc: &PaperScenario,
    edit: impl Fn(&str, &[u8]) -> Option<Vec<u8>>,
) -> Result<(), EngineError> {
    use amri_stream::{SectionWriter, SnapshotReader, SnapshotWriter};
    let exec = executor(sc, IndexingMode::Scan);
    let fingerprint = exec.config_fingerprint();
    let mut pipeline = exec.into_pipeline();
    for _ in 0..120 {
        pipeline.step_once();
    }
    let taken = SnapshotReader::parse(&pipeline.snapshot_image(fingerprint)).unwrap();
    let mut image = SnapshotWriter::new(fingerprint, taken.step());
    for name in [
        "runtime",
        "series",
        "retunes",
        "router",
        "backlog",
        "stems",
        "observers",
        "governor",
        "fault",
        "maint",
        "workload",
    ] {
        // Only a run with a degradation policy has a `governor` section,
        // and only one with a fault plan a `fault` section.
        let Ok(section) = taken.section(name) else {
            continue;
        };
        let Some(body) = edit(name, section.rest()) else {
            continue;
        };
        let mut w = SectionWriter::new();
        body.iter().for_each(|&b| w.put_u8(b));
        image.add(name, w);
    }
    let snap = SnapshotReader::parse(&image.finish()).expect("a well-formed image");
    executor(sc, IndexingMode::Scan)
        .resume_from(&snap)
        .map(|_| ())
}

/// A revision-5 image — its router, tuner and `maint` sections carried
/// counters this revision no longer writes — is refused for its version
/// before any section is read, never misread into a panic.
#[test]
fn a_revision_5_image_is_refused_for_its_version() {
    use amri_stream::fxhash::FxHasher;
    use amri_stream::{SnapshotError, SnapshotReader, SNAPSHOT_VERSION};
    use std::hash::Hasher;
    for (label, mode) in lineup() {
        let exec = executor(&scenario(3), mode);
        let fingerprint = exec.config_fingerprint();
        let mut pipeline = exec.into_pipeline();
        for _ in 0..120 {
            pipeline.step_once();
        }
        let mut image = pipeline.snapshot_image(fingerprint);
        assert!(SnapshotReader::parse(&image).is_ok(), "{label}");
        // The version follows the 8-byte magic; re-seal the file checksum.
        image[8..12].copy_from_slice(&5u32.to_le_bytes());
        let sealed = image.len() - 8;
        let mut sum = FxHasher::default();
        sum.write(&image[..sealed]);
        image[sealed..].copy_from_slice(&sum.finish().to_le_bytes());
        assert_eq!(
            SnapshotReader::parse(&image).unwrap_err(),
            SnapshotError::Version {
                found: 5,
                expected: SNAPSHOT_VERSION
            },
            "{label}"
        );
    }
}

/// The maintenance totals are part of the layout: an image without its
/// `maint` section, or with the section cut short of its three words, is
/// refused with the typed error — never resumed with the counters
/// restarted at zero.
#[test]
fn an_image_without_its_maintenance_totals_is_refused() {
    use amri_stream::SnapshotError;
    // Keep `words` eight-byte words of `maint` (`None` drops it).
    let rebuilt = |words: Option<usize>| {
        resume_rebuilt(&scenario(3), |name, body| match (name, words) {
            ("maint", None) => None,
            ("maint", Some(words)) => Some(body[..8 * words].to_vec()),
            _ => Some(body.to_vec()),
        })
    };
    assert_eq!(rebuilt(Some(3)), Ok(()), "the full section resumes");
    assert_eq!(
        rebuilt(None),
        Err(SnapshotError::MissingSection("maint".into()).into())
    );
    assert_eq!(rebuilt(Some(2)), Err(SnapshotError::Truncated.into()));
}

/// A `router` section built for another stream count is refused as
/// `Malformed` naming both counts; the same section built for this run's
/// streams resumes.
#[test]
fn an_image_whose_router_covers_another_stream_count_is_refused() {
    use amri_stream::SnapshotError;
    let sc = scenario(3);
    let n = sc.query.n_streams();
    // The section ends in its state count and one fan-out word per state;
    // keep the tag and RNG words before them, and cover `states` states.
    let router = |states: usize| {
        resume_rebuilt(&sc, |name, body| {
            if name != "router" {
                return Some(body.to_vec());
            }
            let mut bytes = body[..body.len() - 8 * (n + 1)].to_vec();
            bytes.extend_from_slice(&(states as u64).to_le_bytes());
            (0..states).for_each(|_| bytes.extend_from_slice(&1.0f64.to_le_bytes()));
            Some(bytes)
        })
    };
    assert_eq!(router(n), Ok(()), "this run's stream count resumes");
    for states in [n - 1, n + 1] {
        match router(states) {
            Err(EngineError::Snapshot(SnapshotError::Malformed(why))) => {
                assert!(
                    why.contains(&format!("router covers {states} states, this run has {n}")),
                    "{why}"
                )
            }
            other => panic!("{states} states: expected Malformed, got {other:?}"),
        }
    }
}

/// An image whose retune log claims more records than its bytes hold is
/// refused as `Malformed`, not sized into an allocation abort.
#[test]
fn an_image_that_lies_about_its_retune_count_is_refused() {
    use amri_stream::SnapshotError;
    let refused = resume_rebuilt(&scenario(3), |name, body| match name {
        "retunes" => Some((1u64 << 40).to_le_bytes().to_vec()),
        _ => Some(body.to_vec()),
    });
    match refused {
        Err(EngineError::Snapshot(SnapshotError::Malformed(why))) => {
            assert!(why.contains("retune count"), "{why}")
        }
        other => panic!("expected Malformed(retune count), got {other:?}"),
    }
}

/// The governor samples at every grid point the series does, and restore
/// puts governor sample *i* at series sample *i*'s instant: an image whose
/// `governor` section holds one sample more or fewer than its `series` is
/// refused as `Malformed`, never resumed with a report off its grid.
#[test]
fn an_image_whose_governor_disagrees_with_its_series_is_refused() {
    use amri_stream::SnapshotError;
    let mut sc = scenario(3);
    sc.engine.degradation = Some(DegradationPolicy::default());
    // The section is its tag, coin word, first-degradation flag (and
    // instant), two totals, the sample count and the samples: keep the
    // head, and write `n + delta` samples by dropping the last or
    // repeating it.
    let resume = |delta: i64| {
        resume_rebuilt(&sc, |name, body| {
            if name != "governor" {
                return Some(body.to_vec());
            }
            let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
            let at = 8 + 8 + 8 + 1 + 8 * usize::from(body[24]) + 8 + 8;
            let n = word(at) as usize;
            let width = (body.len() - at - 8) / n;
            let kept = (n as i64 + delta) as usize;
            let mut bytes = body[..at].to_vec();
            bytes.extend_from_slice(&(kept as u64).to_le_bytes());
            for i in 0..kept {
                let i = i.min(n - 1);
                bytes.extend_from_slice(&body[at + 8 + i * width..][..width]);
            }
            Some(bytes)
        })
    };
    assert_eq!(resume(0), Ok(()), "as many samples as the series resumes");
    for delta in [-1, 1] {
        match resume(delta) {
            Err(EngineError::Snapshot(SnapshotError::Malformed(why))) => {
                assert!(why.contains("governor holds"), "{why}")
            }
            other => panic!("{delta:+} samples: expected Malformed, got {other:?}"),
        }
    }
}

/// Resume `scenario(3)`, under a fault plan that perturbs nothing, from
/// an image whose `section` is `image` built around stream 0 values as
/// wide as its schema, then one value narrower. The first resumes; the
/// second is refused as `Malformed` naming the stream.
fn narrower_than_the_stream_is_refused(
    section: &str,
    image: impl Fn(&amri_stream::AttrVec, usize) -> Vec<u8>,
) {
    use amri_stream::{AttrVec, SnapshotError};
    let mut sc = scenario(3);
    sc.engine.faults = Some(FaultPlan::default());
    let (arity, n_streams) = (sc.query.schemas[0].arity(), sc.query.n_streams());
    let resume = |width: usize| {
        let body = image(&AttrVec::from_slice(&vec![1; width]).unwrap(), n_streams);
        resume_rebuilt(&sc, |name, taken| {
            Some(if name == section {
                body.clone()
            } else {
                taken.to_vec()
            })
        })
    };
    assert_eq!(
        resume(arity),
        Ok(()),
        "{section}: the full-width image resumes"
    );
    match resume(arity - 1) {
        Err(EngineError::Snapshot(SnapshotError::Malformed(why))) => {
            assert!(why.contains("stream 0"), "{section}: {why}")
        }
        other => panic!("{section}: expected Malformed(stream 0), got {other:?}"),
    }
}

/// A queued job whose part is narrower than its stream's schema would
/// panic at the first probe that reads the part past its end: a probe
/// reads it by join attribute.
#[test]
fn an_image_with_a_job_narrower_than_its_stream_is_refused() {
    use amri_stream::{SectionWriter, VirtualTime};
    narrower_than_the_stream_is_refused("backlog", |part, _| {
        let mut w = SectionWriter::new();
        w.put_usize(1);
        w.put_u16(0b1); // covers stream 0
        w.put_time(VirtualTime::from_secs(1));
        w.put_attrs(part);
        w.put_time(VirtualTime::from_secs(1));
        w.put_time(VirtualTime::from_secs(1));
        w.into_bytes()
    });
}

/// A held-back late arrival narrower than its stream's schema would panic
/// when it is released, at 1 s, and its JAS values are read.
#[test]
fn an_image_with_a_late_arrival_narrower_than_its_stream_is_refused() {
    use amri_stream::{SectionWriter, VirtualTime};
    narrower_than_the_stream_is_refused("fault", |held, n_streams| {
        let mut w = SectionWriter::new();
        w.put_str("FAULT");
        w.put_u64(0);
        w.put_usize(n_streams);
        w.put_usize(1);
        w.put_time(VirtualTime::from_secs(1));
        w.put_attrs(held);
        (1..n_streams).for_each(|_| w.put_usize(0));
        (0..4).for_each(|_| w.put_u64(0));
        w.into_bytes()
    });
}

/// The sharded write path end to end: shards=4/parallelism=4 links every
/// insert and unlinks every expiry in its shard at arrival, while the
/// degradation governor and a fault plan perturb the stream. A checkpoint
/// taken between an ingest burst and the next probe must capture the
/// logical state exactly, so crash + resume stays invisible even with
/// every concurrent subsystem engaged at once.
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
