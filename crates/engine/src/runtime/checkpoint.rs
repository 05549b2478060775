//! Checkpointing: periodic durable snapshots of a running pipeline, and
//! the recovery path that reloads the latest good one after a crash.
//!
//! A [`Checkpointer`] is handed to
//! [`Pipeline::run_with`](crate::runtime::Pipeline::run_with) and decides,
//! at the top of every pipeline step, whether to capture a snapshot
//! ([`CheckpointPolicy`]: every N steps, and/or when memory utilization
//! crosses a threshold). Snapshots are written as numbered files in one
//! directory; a bounded retention window keeps the last few so a torn
//! final write can fall back to an older image.
//!
//! Checkpointing is a **pure observer**: capturing a snapshot draws no
//! RNG values and charges no clock ticks, so a checkpointed run is
//! byte-identical to an uncheckpointed one, and a crashed-and-resumed run
//! is byte-identical to both (pinned by `tests/crash_recovery.rs`).
//!
//! Crash injection lives here too: the checkpointer carries
//! [`FaultKind`] values — [`FaultKind::CrashAt`] kills the run at a
//! chosen step (surfacing as
//! [`EngineError::InjectedCrash`](crate::EngineError::InjectedCrash)),
//! and [`FaultKind::TornWrite`] corrupts a chosen snapshot file as it is
//! written, exercising the checksum-verified fallback in
//! [`load_latest`].

use crate::runtime::fault::{FaultKind, TornMode};
use amri_stream::snapshot::{SnapshotError, SnapshotReader};
use std::path::{Path, PathBuf};

/// When the pipeline takes a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Take a checkpoint every `every_steps` pipeline steps (0 disables
    /// the periodic trigger).
    pub every_steps: u64,
    /// Also checkpoint when memory utilization (accounted bytes over
    /// budget) first crosses this fraction; re-arms once utilization
    /// falls back below. `None` disables the pressure trigger.
    pub on_memory_pressure: Option<f64>,
    /// Snapshot files retained on disk (older ones are deleted). At
    /// least 2 so a torn latest write can fall back to its predecessor.
    pub keep: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_steps: 10_000,
            on_memory_pressure: Some(0.9),
            keep: 3,
        }
    }
}

impl CheckpointPolicy {
    /// A purely periodic policy: every `every_steps` steps, keep 3.
    pub fn every(every_steps: u64) -> Self {
        CheckpointPolicy {
            every_steps,
            on_memory_pressure: None,
            keep: 3,
        }
    }
}

/// Drives checkpoint writes for one pipeline run: owns the policy, the
/// target directory, retention, the injected checkpoint-layer faults,
/// and the bookkeeping counters.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    policy: CheckpointPolicy,
    faults: Vec<FaultKind>,
    /// Snapshot files written so far (also the 0-based sequence number
    /// the next write gets — the coordinate `TornWrite` addresses).
    taken: u64,
    /// Retained snapshot paths, oldest first.
    written: Vec<PathBuf>,
    /// Pressure-trigger latch: set when a pressure checkpoint fires,
    /// cleared when utilization falls back under the threshold.
    pressure_latched: bool,
}

impl Checkpointer {
    /// A checkpointer writing numbered snapshots into `dir` (created if
    /// missing) under `policy`.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, policy: CheckpointPolicy) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Checkpointer {
            dir,
            policy,
            faults: Vec::new(),
            taken: 0,
            written: Vec::new(),
            pressure_latched: false,
        })
    }

    /// Arm checkpoint-layer faults (crashes, torn writes) for this run.
    pub fn with_faults(mut self, faults: Vec<FaultKind>) -> Self {
        self.faults = faults;
        self
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot files written so far.
    pub fn checkpoints_taken(&self) -> u64 {
        self.taken
    }

    /// Does an armed [`FaultKind::CrashAt`] kill the run at `step`?
    pub fn should_crash(&self, step: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, FaultKind::CrashAt { step: s } if *s == step))
    }

    /// Is a checkpoint due at `step` with the given memory utilization?
    /// Mutates only the pressure latch — calling this is observationally
    /// free for the run itself.
    pub fn due(&mut self, step: u64, utilization: f64) -> bool {
        let periodic =
            self.policy.every_steps > 0 && step > 0 && step % self.policy.every_steps == 0;
        let pressure = match self.policy.on_memory_pressure {
            Some(threshold) if utilization >= threshold => {
                let fire = !self.pressure_latched;
                self.pressure_latched = true;
                fire
            }
            Some(_) => {
                self.pressure_latched = false;
                false
            }
            None => false,
        };
        periodic || pressure
    }

    /// Write one snapshot image as the next numbered file, applying any
    /// armed [`FaultKind::TornWrite`] addressed at this sequence number,
    /// then enforce retention.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failure.
    pub fn write(&mut self, mut image: Vec<u8>) -> Result<(), SnapshotError> {
        let seq = self.taken;
        for f in &self.faults {
            if let FaultKind::TornWrite { snapshot, mode } = f {
                if *snapshot == seq {
                    match mode {
                        TornMode::Truncate => image.truncate(image.len() / 2),
                        TornMode::FlipByte => {
                            let mid = image.len() / 2;
                            image[mid] ^= 0x40;
                        }
                    }
                }
            }
        }
        let path = self.dir.join(format!("checkpoint-{seq:06}.snap"));
        std::fs::write(&path, &image)?;
        self.taken += 1;
        self.written.push(path);
        while self.written.len() > self.policy.keep.max(1) {
            let old = self.written.remove(0);
            // Retention is best-effort; a leftover file only costs disk.
            let _ = std::fs::remove_file(old);
        }
        Ok(())
    }
}

/// A checkpoint file [`load_latest`] could not parse and had to skip on
/// its way down to an older good snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCheckpoint {
    /// File name of the corrupt snapshot (`checkpoint-NNNNNN.snap`).
    pub file: String,
    /// Why the parse failed (checksum mismatch, truncation, bad magic…).
    pub reason: String,
}

/// What [`load_latest`] found: which file was restored and every newer
/// corrupt file it skipped to get there, with the parse-failure reason,
/// so a silent fallback leaves a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Path of the snapshot that parsed and was restored.
    pub path: PathBuf,
    /// Newer files that failed to parse, newest first.
    pub skipped: Vec<SkippedCheckpoint>,
}

/// Load the newest snapshot in `dir` that parses and verifies, falling
/// back through older ones past any corrupt (torn, bit-flipped,
/// truncated) files. Returns the parsed snapshot plus a [`RestoreReport`]
/// naming the restored file and every newer corrupt file skipped.
///
/// # Errors
/// [`SnapshotError::Io`] when the directory holds no snapshot files at
/// all, or the last parse error when every candidate is corrupt.
pub fn load_latest(
    dir: impl AsRef<Path>,
) -> Result<(SnapshotReader, RestoreReport), SnapshotError> {
    let dir = dir.as_ref();
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".snap"))
        })
        .collect();
    if candidates.is_empty() {
        return Err(SnapshotError::Io(format!(
            "no snapshot files in {}",
            dir.display()
        )));
    }
    candidates.sort();
    let mut skipped = Vec::new();
    let mut last_err = None;
    for path in candidates.into_iter().rev() {
        let bytes = std::fs::read(&path)?;
        match SnapshotReader::parse(&bytes) {
            Ok(snap) => return Ok((snap, RestoreReport { path, skipped })),
            Err(e) => {
                skipped.push(SkippedCheckpoint {
                    file: path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("<non-utf8>")
                        .to_string(),
                    reason: e.to_string(),
                });
                last_err = Some(e);
            }
        }
    }
    Err(last_err.expect("non-empty candidate list either returns or records an error"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::snapshot::{SectionWriter, SnapshotWriter};

    fn image(step: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(0xF00D, step);
        let mut s = SectionWriter::new();
        s.put_u64(step * 7);
        w.add("payload", s);
        w.finish()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amri-ckpt-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn periodic_policy_fires_on_multiples() {
        let mut c = Checkpointer::new(tmpdir("periodic"), CheckpointPolicy::every(100)).unwrap();
        assert!(
            !c.due(0, 0.0),
            "step 0 is the initial state, not a checkpoint"
        );
        assert!(!c.due(99, 0.0));
        assert!(c.due(100, 0.0));
        assert!(c.due(200, 0.0));
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn pressure_trigger_latches_until_relief() {
        let policy = CheckpointPolicy {
            every_steps: 0,
            on_memory_pressure: Some(0.8),
            keep: 2,
        };
        let mut c = Checkpointer::new(tmpdir("pressure"), policy).unwrap();
        assert!(!c.due(1, 0.5));
        assert!(c.due(2, 0.85), "first crossing fires");
        assert!(!c.due(3, 0.9), "latched while pressure persists");
        assert!(!c.due(4, 0.5), "relief re-arms without firing");
        assert!(c.due(5, 0.95), "next crossing fires again");
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn retention_keeps_only_the_newest() {
        let policy = CheckpointPolicy {
            every_steps: 1,
            on_memory_pressure: None,
            keep: 2,
        };
        let mut c = Checkpointer::new(tmpdir("retention"), policy).unwrap();
        for step in 0..5 {
            c.write(image(step)).unwrap();
        }
        assert_eq!(c.checkpoints_taken(), 5);
        let files: Vec<_> = std::fs::read_dir(c.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 2, "{files:?}");
        let (snap, report) = load_latest(c.dir()).unwrap();
        assert_eq!(snap.step(), 4);
        assert!(report.skipped.is_empty());
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn torn_write_falls_back_to_previous_good_snapshot() {
        for mode in [TornMode::Truncate, TornMode::FlipByte] {
            let policy = CheckpointPolicy {
                every_steps: 1,
                on_memory_pressure: None,
                keep: 3,
            };
            let dir = tmpdir(&format!("torn-{mode:?}"));
            let mut c = Checkpointer::new(&dir, policy)
                .unwrap()
                .with_faults(vec![FaultKind::TornWrite { snapshot: 2, mode }]);
            for step in 0..3 {
                c.write(image(step * 10)).unwrap();
            }
            let (snap, report) = load_latest(&dir).unwrap();
            assert_eq!(snap.step(), 10, "latest (torn) skipped, previous used");
            assert_eq!(report.skipped.len(), 1, "exactly the torn file skipped");
            assert_eq!(report.skipped[0].file, "checkpoint-000002.snap");
            assert!(
                !report.skipped[0].reason.is_empty(),
                "skip carries the parse-failure reason"
            );
            assert!(report.path.to_str().unwrap().contains("checkpoint-000001"));
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn crash_fault_addresses_one_step() {
        let c = Checkpointer::new(tmpdir("crash"), CheckpointPolicy::every(10))
            .unwrap()
            .with_faults(vec![FaultKind::CrashAt { step: 42 }]);
        assert!(!c.should_crash(41));
        assert!(c.should_crash(42));
        assert!(!c.should_crash(43));
        let _ = std::fs::remove_dir_all(c.dir());
    }

    #[test]
    fn empty_directory_is_a_typed_error() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load_latest(&dir), Err(SnapshotError::Io(_))));
        let _ = std::fs::remove_dir_all(dir);
    }
}
