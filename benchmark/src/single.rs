//! One contract run: `--workload W --seed N --seconds S --trace 0|1`.
//!
//! `--trace 0` measures the end-to-end metrics over untraced timed
//! passes; `--trace 1` spends half the time on untraced passes, then runs
//! one traced pass and the layer drives, and reports the per-layer
//! metrics. Either way the run ends with output verification, a `#suite`
//! line for the suite that may have started it, and one JSON line.

use crate::host;
use crate::json::Json;
use crate::layers;
use crate::metrics::{MetricSet, END_TO_END};
use crate::run::{denoised, quantile, sorted, timed_passes, Pass, WorkDir};
use crate::verify::{failed_tuples, fingerprint, verify, Verified};
use crate::workloads::Plan;
use std::time::Instant;

/// The arguments of one contract run.
#[derive(Debug, Clone)]
pub struct SingleArgs {
    /// Workload, seed, size.
    pub plan: Plan,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where to write the span file of the traced pass, if anywhere.
    pub trace_out: Option<std::path::PathBuf>,
}

/// What one contract run produced.
#[derive(Debug)]
pub struct SingleOutcome {
    /// Did every verification identity hold?
    pub correct: bool,
    /// Tuples offered to the engine in one pass.
    pub attempted: u64,
    /// Tuples shed, evicted or lost — all of them if verification failed.
    pub failed: u64,
    /// The metrics of this mode: all nine end-to-end ones, or the
    /// per-layer set.
    pub metrics: MetricSet,
    /// Broken identities, one line each.
    pub violations: Vec<String>,
    /// Identity witnesses for the suite's digest table.
    pub digest: Json,
    /// Untraced passes the time budget allowed; the estimators are
    /// minima and medians over them.
    pub passes: usize,
}

impl SingleOutcome {
    /// The contract's result line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// What the suite reads beyond the result line: every metric measured
    /// (the result line carries only those `BENCHMARK.json` declares for
    /// the mode), the identity witnesses and the pass count.
    pub fn to_suite_json(&self) -> Json {
        Json::obj([
            ("passes", Json::Num(self.passes as f64)),
            ("digest", self.digest.clone()),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .entries()
                        .into_iter()
                        .map(|(name, value, _)| (name, Json::Num(value))),
                ),
            ),
        ])
    }
}

/// Tuples one pass offered: the engine's own arrival counter, summed
/// over tenants. Hosted tenants report no counters, so the fleet takes
/// them from the solo reference runs verification just proved identical.
pub fn offered_tuples(pass: &Pass, verified: &Verified) -> u64 {
    let own: u64 = pass
        .runs
        .iter()
        .filter_map(|r| r.counters.map(|c| c.tuples))
        .sum();
    if own > 0 {
        own
    } else {
        verified
            .references
            .iter()
            .filter_map(|(r, _)| r.counters.map(|c| c.tuples))
            .sum()
    }
}

/// Identity witnesses of one pass: per run, outputs / digest / retunes /
/// full-result fingerprint.
fn digest_of(pass: &Pass) -> Json {
    Json::Arr(
        pass.runs
            .iter()
            .zip(&pass.trained.cells)
            .map(|(run, cell)| {
                Json::obj([
                    ("label", Json::str(cell.label)),
                    ("outputs", Json::Num(run.result.outputs as f64)),
                    (
                        "output_digest",
                        Json::Str(format!("{:016x}", run.result.output_digest)),
                    ),
                    ("retunes", Json::Num(run.result.retunes.len() as f64)),
                    (
                        "fingerprint",
                        Json::Str(format!("{:016x}", fingerprint(run))),
                    ),
                ])
            })
            .collect(),
    )
}

/// Run one contract invocation to completion.
pub fn run(args: &SingleArgs, process_start: Instant) -> SingleOutcome {
    let loadavg_start = host::loadavg();
    let work = WorkDir::create().expect("benchmark/out/work must be creatable inside the checkout");
    let plan = &args.plan;

    // Untraced passes: all of `--seconds` for the end-to-end mode (at
    // least two, so repetition ≡ repetition is checked); half of it as
    // the baseline of the traced mode, whose traced pass, drives and
    // reference runs take the rest.
    let (seconds, min_passes) = if args.trace {
        (args.seconds / 2.0, 1)
    } else {
        (args.seconds, 2)
    };
    let passes = timed_passes(plan, &work, seconds, min_passes, process_start);

    let verified = verify(plan, &passes);
    let last = passes.last().expect("at least one pass ran");
    let attempted = offered_tuples(last, &verified).max(1);

    let mut violations = verified.violations.clone();
    let layer_metrics = args.trace.then(|| {
        let (m, more) = layers::per_layer(args, &work, &passes, &verified, loadavg_start);
        violations.extend(more);
        m
    });
    // A broken identity fails every tuple of the workload.
    let failed: u64 = if violations.is_empty() {
        last.runs
            .iter()
            .map(|r| failed_tuples(r, r.counters.map_or(attempted, |c| c.tuples)))
            .sum::<u64>()
            .min(attempted)
    } else {
        attempted
    };

    let nine = end_to_end(&passes, attempted, failed);
    let metrics = match layer_metrics {
        None => nine,
        Some(mut m) => {
            for e in END_TO_END.iter().filter(|e| e.contract_bound.is_none()) {
                m.set(e.name, nine.get(e.name).expect("all nine are set"));
            }
            m.zero_fill();
            m
        }
    };

    SingleOutcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        violations,
        digest: digest_of(last),
        passes: passes.len(),
    }
}

/// The nine end-to-end metrics over the untraced passes: the step loop as
/// [`denoised`], the fastest set-up, the first pass's memory, the answers
/// of the last pass (verification proved all passes equal).
fn end_to_end(passes: &[Pass], tuples: u64, failed: u64) -> MetricSet {
    let last = passes.last().expect("at least one pass ran");
    let lead = &last.trained.cells[0];
    let quanta = sorted(&denoised(passes));
    let loop_s = quanta.iter().sum::<u64>() as f64 / 1e9;
    let outputs: u64 = last.runs.iter().map(|r| r.result.outputs).sum();

    let mut m = MetricSet::end_to_end();
    m.set("tuples_per_s", tuples as f64 / loop_s);
    m.set("quantum_p50_us", quantile(&quanta, 0.5) / 1e3);
    m.set("quantum_p99_us", quantile(&quanta, 0.99) / 1e3);
    m.set("quantum_p999_us", quantile(&quanta, 0.999) / 1e3);
    // Like a chunk of the loop: the fastest of its executions. The median
    // of a run's set-ups moved 12-29 % between two suites of one commit,
    // the first set-up alone 7-38 %, the fastest 3-10 % (README).
    m.set(
        "setup_s",
        passes
            .iter()
            .map(|p| p.setup_s)
            .fold(f64::INFINITY, f64::min),
    );
    // The first pass's high-water mark: one repetition's worth of memory,
    // whatever number of passes the time budget then allowed.
    m.set("peak_rss_mb", passes[0].peak_rss_mib);
    m.set("virt_outputs_per_s", outputs as f64 / lead.virt_secs());
    m.set(
        "virt_job_latency_ms",
        last.runs
            .iter()
            .map(|r| r.result.mean_job_latency_ticks / 1e3)
            .sum::<f64>()
            / last.runs.len() as f64,
    );
    m.set("failed_frac", failed as f64 / tuples as f64);
    m
}
