//! The whole benchmark in one command: every workload, one discarded
//! warm-up and five (`--reps`) timed repetitions interleaved round-robin across
//! workloads, one traced run each — every run a fresh child process of
//! this binary, so `peak_rss_mb` is per workload and per repetition —
//! aggregated into one host-stamped JSON under `benchmark/out/`.

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Arguments of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed every child runs with.
    pub seed: u64,
    /// Timed repetitions per workload.
    pub reps: usize,
    /// `--smoke`: a few virtual seconds per workload, one repetition, no
    /// warm-up — a self-check, not a measurement.
    pub smoke: bool,
    /// Result file; defaults to `benchmark/out/bench-seed<N>[-smoke].json`.
    /// Two suites of one seed, as `--compare` wants them, need two names.
    pub out: Option<PathBuf>,
}

impl SuiteArgs {
    /// `--seconds` of every child: the benchmark's run length, not the
    /// caller's — the estimators are minima and medians over the passes
    /// that fit into it, so runs of different lengths do not compare.
    pub fn seconds(&self) -> u64 {
        if self.smoke {
            1
        } else {
            RUN_SECONDS
        }
    }
}

/// What one child process reported.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// Every metric the child measured, from its `#suite` line.
    metrics: Vec<(String, f64)>,
    digest: Json,
    passes: f64,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn child(
    args: &SuiteArgs,
    workload: Workload,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a child for {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: the child printed nothing", workload.name()))?;
    let result = Json::parse(last).map_err(|e| format!("{}: {e}", workload.name()))?;
    let extra = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#suite "))
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("{}: the child printed no #suite line", workload.name()))?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("{}: result lacks {key:?}", workload.name()))
    };
    let metrics = extra
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("the #suite line lacks metrics")?
        .iter()
        .map(|(name, v)| (name.clone(), v.as_f64().unwrap_or(f64::NAN)))
        .collect();
    Ok(Child {
        // A child that failed verification also exits non-zero; either
        // signal marks the workload incorrect.
        correct: field("correct")?.as_bool() == Some(true) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
        digest: extra.get("digest").cloned().unwrap_or(Json::Null),
        passes: extra.get("passes").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); all three equal the single value
/// of a one-element sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

fn value_of(c: &Child, name: &str) -> f64 {
    c.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Run the suite; `Ok(true)` when every workload verified.
///
/// # Errors
/// A child could not be started or printed no parsable result, or the
/// result file could not be written.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let stamp = host::stamp();
    println!(
        "amri-benchmark suite: seed {}, {} repetition(s) x {} s{}, host {}",
        args.seed,
        args.reps,
        args.seconds(),
        if args.smoke { ", smoke" } else { "" },
        stamp.to_line()
    );

    if !args.smoke {
        for w in Workload::ALL {
            eprintln!("warm-up {}", w.name());
            child(args, w, false, None)?;
        }
    }
    let mut timed: Vec<Vec<Child>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for rep in 0..args.reps {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("repetition {} {}", rep + 1, w.name());
            timed[i].push(child(args, w, false, None)?);
        }
    }
    let mut traced = Vec::new();
    for w in Workload::ALL {
        eprintln!("traced {}", w.name());
        let spans = out.join(format!("trace-{}.tsv", w.name()));
        traced.push(child(args, w, true, Some(&spans))?);
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for ((w, reps), traced) in Workload::ALL.into_iter().zip(&timed).zip(&traced) {
        // Same seed, same code: every child of a workload — timed or
        // traced — must report the same answers.
        let same_answers = reps
            .iter()
            .chain(std::iter::once(traced))
            .all(|c| c.digest == reps[0].digest);
        if !same_answers {
            eprintln!(
                "VIOLATION {}: repetitions disagree on their digests",
                w.name()
            );
        }
        let correct = same_answers
            && reps
                .iter()
                .chain(std::iter::once(traced))
                .all(|c| c.correct);
        all_correct &= correct;

        println!(
            "\n== {} {}",
            w.name(),
            if correct { "correct" } else { "INCORRECT" }
        );
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = reps.iter().map(|c| value_of(c, m.name)).collect();
            let (q1, median, q3) = quartiles(&values);
            println!(
                "{:<44} {:>16.4} {:<9} q1 {:.4} q3 {:.4} n {}",
                m.name,
                median,
                m.unit,
                q1,
                q3,
                values.len()
            );
            end_to_end.push((
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                    ("exact", Json::Bool(m.exact)),
                    ("median", Json::Num(median)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(values.len() as f64)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let value = value_of(traced, m.name);
            println!("{:<44} {:>16.4} {}", m.name, value, m.unit);
            per_layer.push((
                m.name,
                Json::obj([("unit", Json::str(m.unit)), ("value", Json::Num(value))]),
            ));
        }
        let last = reps.last().unwrap_or(traced);
        workloads.push((
            w.name(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(last.attempted)),
                (
                    "failed",
                    Json::Num(if correct { last.failed } else { last.attempted }),
                ),
                ("digest", reps.first().unwrap_or(traced).digest.clone()),
                (
                    "passes",
                    Json::Arr(reps.iter().map(|c| Json::Num(c.passes)).collect()),
                ),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let doc = Json::obj([
        ("schema", Json::str("amri-benchmark/1")),
        ("host", stamp),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.seconds() as f64)),
        ("repetitions", Json::Num(args.reps as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        out.join(format!(
            "bench-seed{}{}.json",
            args.seed,
            if args.smoke { "-smoke" } else { "" }
        ))
    });
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
