//! The traced pass: the same step loop as an untraced pass, but driven
//! one `Session::step` at a time with an in-memory span around every
//! call. Spans nest `run → quantum → step`; each step is classified
//! afterwards from the deltas of counters the engine already keeps
//! (`tuple_seq`, `jobs_processed`, recorded sample rows), so the engine
//! needs no timers of its own. Spans live in memory until the pass ends.

use crate::run::{finish, quantile, CheckpointCost, EngineRun};
use crate::workloads::{Cell, QUANTUM_STEPS};
use amri_engine::{Checkpointer, Session, SessionStatus};
use amri_synth::DriftingWorkload;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a step did, most specific first: a step that crossed a grid
/// point also ingested and probed, but the grid work dominates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StepKind {
    /// Crossed ≥ 1 sampling-grid point: sample + tier balance + tune.
    Grid,
    /// Ingested ≥ 1 arrival (and probed one job).
    Ingest,
    /// Probed one routing job, nothing else.
    Probe,
    /// Nothing was due: the clock jumped to the next arrival.
    Idle,
    /// Not an engine step: a checkpoint taken between two steps.
    Checkpoint,
}

impl StepKind {
    fn name(self) -> &'static str {
        match self {
            StepKind::Grid => "step.grid",
            StepKind::Ingest => "step.ingest",
            StepKind::Probe => "step.probe",
            StepKind::Idle => "step.idle",
            StepKind::Checkpoint => "checkpoint",
        }
    }
}

/// One step span, 16 bytes: start relative to the run span, duration,
/// kind. Its parent is the quantum whose interval contains it.
#[derive(Debug, Clone, Copy)]
pub struct StepSpan {
    /// Start, ns since the run span began.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u32,
    /// Classification.
    pub kind: StepKind,
}

/// The spans of one traced engine run.
#[derive(Debug)]
pub struct Trace {
    /// Label of the run span (the cell label).
    pub label: &'static str,
    /// Duration of the run span — the traced step loop's wall time.
    pub wall_s: f64,
    /// `(start_ns, end_ns)` of every quantum span, in order.
    pub quanta: Vec<(u64, u64)>,
    /// Every step span, in order.
    pub steps: Vec<StepSpan>,
}

/// The counters a step is classified by.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Deltas {
    tuples: u64,
    jobs: u64,
    samples: usize,
}

impl Deltas {
    fn of(session: &Session<DriftingWorkload>) -> Self {
        let ctx = session.context();
        Deltas {
            tuples: ctx.tuple_seq,
            jobs: ctx.jobs_processed,
            samples: ctx.series.samples().len(),
        }
    }

    fn classify(self, after: Deltas) -> StepKind {
        if after.samples != self.samples {
            StepKind::Grid
        } else if after.tuples != self.tuples {
            StepKind::Ingest
        } else if after.jobs != self.jobs {
            StepKind::Probe
        } else {
            StepKind::Idle
        }
    }
}

/// How the traced loop takes `spill_ckpt`'s checkpoints.
pub struct TracedCheckpoints<'a> {
    /// Writes and retains the images.
    pub checkpointer: &'a mut Checkpointer,
    /// Configuration fingerprint stamped into each image.
    pub fingerprint: u64,
    /// Quanta between checkpoints.
    pub every: u64,
}

/// Run `cell` to completion under tracing.
pub fn traced_run(
    cell: &Cell,
    mut ckpt: Option<TracedCheckpoints<'_>>,
) -> (Trace, EngineRun, CheckpointCost) {
    let mut session = Session::new(cell.executor().into_pipeline());
    let _pinned = cell.pin_workers();
    let mut steps: Vec<StepSpan> = Vec::new();
    let mut quanta: Vec<(u64, u64)> = Vec::new();
    let mut cost = CheckpointCost::default();
    let origin = Instant::now();
    let since = |t: Instant| t.duration_since(origin).as_nanos() as u64;

    let mut before = Deltas::of(&session);
    let mut status = SessionStatus::Ready;
    // One clock read per step: a step's end is the next step's start, so
    // reading the counters is charged to the step it classifies.
    let mut mark = Instant::now();
    while status != SessionStatus::Finished {
        let quantum_start = since(mark);
        for _ in 0..QUANTUM_STEPS {
            status = session.step();
            let after = Deltas::of(&session);
            let end = Instant::now();
            steps.push(StepSpan {
                start_ns: since(mark),
                dur_ns: end.duration_since(mark).as_nanos() as u32,
                kind: before.classify(after),
            });
            before = after;
            mark = end;
            if status == SessionStatus::Finished {
                break;
            }
        }
        if let Some(c) = ckpt.as_mut() {
            if (quanta.len() as u64 + 1) % c.every == 0 {
                let image = session.snapshot_image(c.fingerprint);
                let encoded = Instant::now();
                cost.snapshot_ns += encoded.duration_since(mark).as_nanos() as u64;
                cost.bytes = image.len() as u64;
                c.checkpointer
                    .write(image)
                    .expect("checkpoint write inside the checkout");
                let end = Instant::now();
                cost.write_ns += end.duration_since(encoded).as_nanos() as u64;
                cost.count += 1;
                steps.push(StepSpan {
                    start_ns: since(mark),
                    dur_ns: end.duration_since(mark).as_nanos() as u32,
                    kind: StepKind::Checkpoint,
                });
                mark = end;
            }
        }
        quanta.push((quantum_start, since(mark)));
    }
    let wall_s = origin.elapsed().as_secs_f64();
    (
        Trace {
            label: cell.label,
            wall_s,
            quanta,
            steps,
        },
        finish(session),
        cost,
    )
}

/// Step statistics pooled over one or more traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Median pure-probe step, ns.
    pub probe_ns_p50: f64,
    /// Median ingesting step, ns.
    pub ingest_ns_p50: f64,
    /// Median grid-crossing step, µs.
    pub grid_us_p50: f64,
    /// 99th-percentile grid-crossing step, µs.
    pub grid_us_p99: f64,
    /// Idle clock jumps.
    pub idle_jumps: u64,
}

/// Pool the step spans of `traces` by kind.
pub fn step_stats(traces: &[Trace]) -> StepStats {
    let of_kind = |kind: StepKind| {
        let mut v: Vec<u64> = traces
            .iter()
            .flat_map(|t| &t.steps)
            .filter(|s| s.kind == kind)
            .map(|s| u64::from(s.dur_ns))
            .collect();
        v.sort_unstable();
        v
    };
    let probe = of_kind(StepKind::Probe);
    let ingest = of_kind(StepKind::Ingest);
    let grid = of_kind(StepKind::Grid);
    StepStats {
        probe_ns_p50: quantile(&probe, 0.5),
        ingest_ns_p50: quantile(&ingest, 0.5),
        grid_us_p50: quantile(&grid, 0.5) / 1e3,
        grid_us_p99: quantile(&grid, 0.99) / 1e3,
        idle_jumps: of_kind(StepKind::Idle).len() as u64,
    }
}

/// Write the spans as tab-separated text:
/// `id  parent  name  start_ns  end_ns  steps`.
///
/// Every run, quantum, grid, ingest and checkpoint span is written as
/// itself. Pure probe steps and idle clock jumps — > 95 % of all spans, a
/// hundred megabytes as text — are folded per quantum into one
/// `step.probe` and one `step.idle` row spanning first-start to last-end,
/// with `steps` the number folded.
///
/// # Errors
/// The file cannot be written.
pub fn write_spans(traces: &[Trace], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tsteps")?;
    let mut next_id = 0u64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    for trace in traces {
        let run_id = id();
        let run_end = (trace.wall_s * 1e9) as u64;
        writeln!(
            out,
            "{run_id}\t0\trun:{}\t0\t{run_end}\t{}",
            trace.label,
            trace.steps.len()
        )?;
        let mut steps = trace.steps.iter().peekable();
        for &(q_start, q_end) in &trace.quanta {
            let q_id = id();
            // (first start, last end, count) of the folded kinds.
            let mut folded: [Option<(u64, u64, u64)>; 2] = [None, None];
            let mut children = Vec::new();
            while let Some(s) = steps.next_if(|s| s.start_ns < q_end) {
                let end = s.start_ns + u64::from(s.dur_ns);
                let slot = match s.kind {
                    StepKind::Probe => 0,
                    StepKind::Idle => 1,
                    _ => {
                        children.push((s.kind.name(), s.start_ns, end, 1));
                        continue;
                    }
                };
                let f = folded[slot].get_or_insert((s.start_ns, end, 0));
                f.1 = end;
                f.2 += 1;
            }
            for (kind, f) in [StepKind::Probe, StepKind::Idle].into_iter().zip(folded) {
                if let Some((start, end, n)) = f {
                    children.push((kind.name(), start, end, n));
                }
            }
            let n_steps: u64 = children.iter().map(|c| c.3).sum();
            writeln!(
                out,
                "{q_id}\t{run_id}\tquantum\t{q_start}\t{q_end}\t{n_steps}"
            )?;
            for (name, start, end, n) in children {
                writeln!(out, "{}\t{q_id}\t{name}\t{start}\t{end}\t{n}", id())?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_prefers_the_most_specific_kind() {
        let base = Deltas {
            tuples: 5,
            jobs: 9,
            samples: 2,
        };
        let with = |tuples, jobs, samples| Deltas {
            tuples,
            jobs,
            samples,
        };
        assert_eq!(base.classify(with(6, 10, 3)), StepKind::Grid);
        assert_eq!(base.classify(with(6, 10, 2)), StepKind::Ingest);
        assert_eq!(base.classify(with(5, 10, 2)), StepKind::Probe);
        assert_eq!(base.classify(with(5, 9, 2)), StepKind::Idle);
    }

    #[test]
    fn span_file_folds_probe_steps_per_quantum() {
        let step = |start_ns, kind| StepSpan {
            start_ns,
            dur_ns: 10,
            kind,
        };
        let trace = Trace {
            label: "t",
            wall_s: 1e-6,
            quanta: vec![(0, 100), (100, 200)],
            steps: vec![
                step(0, StepKind::Probe),
                step(20, StepKind::Ingest),
                step(40, StepKind::Probe),
                step(120, StepKind::Grid),
            ],
        };
        let work = crate::run::WorkDir::create().unwrap();
        let path = work.sub("spans.tsv");
        write_spans(&[trace], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 1 + 1 + 2 + 3, "{text}");
        assert!(rows[2].ends_with("quantum\t0\t100\t3"), "{}", rows[2]);
        assert!(text.contains("step.probe\t0\t50\t2"), "{text}");
        assert!(text.contains("step.grid\t120\t130\t1"), "{text}");
    }
}
