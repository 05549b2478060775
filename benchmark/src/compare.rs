//! `--compare A.json B.json`: apply every end-to-end metric's bound per
//! workload to two suite results of one seed (A the parent, B the change)
//! and show whether they computed the same answers.
//!
//! A row reads `ok`, `regressed` (B's median is worse than A's by more
//! than the bound), `unresolved` (the run-to-run quartile spread of
//! either set exceeds the bound, and the two sets overlap — the data
//! cannot tell) or, for a metric that is a function of the seed alone,
//! `changed` (B reads differently without regressing: different answers).
//! A combined score is never computed: each (metric, workload) pair
//! stands alone. The comparison succeeds when nothing regressed, nothing
//! changed, every digest agrees and every workload verified on both
//! sides; `unresolved` rows want more repetitions, not a wider bound.

use crate::json::Json;
use crate::metrics::Better;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The spread exceeds the bound and the sets overlap.
    Unresolved,
    /// An exact metric reads differently, within the bound or better.
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// One repetition set of one metric, as a suite result stores it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Median over repetitions.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Every repetition's value.
    pub values: Vec<f64>,
}

impl Sample {
    fn from_json(m: &Json) -> Option<Sample> {
        Some(Sample {
            median: m.get("median")?.as_f64()?,
            q1: m.get("q1")?.as_f64()?,
            q3: m.get("q3")?.as_f64()?,
            values: m
                .get("values")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better);
/// the plain difference where `a` is 0, which has no shares.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let scale = if a == 0.0 { 1.0 } else { a.abs() };
    match better {
        Better::Lower => (b - a) / scale,
        Better::Higher => (a - b) / scale,
    }
}

/// Judge one pair under `bound`; an `exact` metric must also read the same.
pub fn judge(a: &Sample, b: &Sample, better: Better, bound: f64, exact: bool) -> Verdict {
    let worse = worsening(a.median, b.median, better);
    if exact {
        return if a.median == b.median {
            Verdict::Ok
        } else if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Changed
        };
    }
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the medians to decide — unless the sets do not
        // overlap at all, in which case every run agrees on the direction.
        let (a_lo, a_hi) = extent(&a.values);
        let (b_lo, b_hi) = extent(&b.values);
        let b_all_better = match better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        };
        let b_all_worse = match better {
            Better::Lower => b_lo > a_hi,
            Better::Higher => b_hi < a_lo,
        };
        return if b_all_better {
            Verdict::Ok
        } else if b_all_worse && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn extent(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("amri-benchmark/1") {
        return Err(format!("{path}: not an amri-benchmark suite result"));
    }
    Ok(doc)
}

/// How each suite was measured; two suites compare only when these agree.
const SETTINGS: [&str; 4] = ["seed", "smoke", "seconds", "repetitions"];

/// Compare two suite results; `Ok(true)` when B is no worse than A and
/// answers the same.
///
/// # Errors
/// A file is unreadable or is not a suite result, or the two suites were
/// not measured the same way (seed, size, run length, repetitions).
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in SETTINGS {
        if a.get(key) != b.get(key) {
            let show = |doc: &Json| doc.get(key).map_or("?".to_string(), Json::to_line);
            return Err(format!(
                "not comparable: {key} is {} in {path_a} and {} in {path_b}",
                show(&a),
                show(&b)
            ));
        }
    }
    let describe = |doc: &Json| {
        let host = |key: &str| doc.get("host").and_then(|h| h.get(key));
        format!(
            "commit {} host {} nproc {}",
            host("git_commit").and_then(Json::as_str).unwrap_or("?"),
            host("host").and_then(Json::as_str).unwrap_or("?"),
            host("nproc").and_then(Json::as_f64).unwrap_or(f64::NAN),
        )
    };
    println!("A (parent): {path_a}: {}", describe(&a));
    println!("B (change): {path_b}: {}", describe(&b));
    println!(
        "both: {}",
        SETTINGS
            .map(|key| format!(
                "{key} {}",
                a.get(key).map_or("?".to_string(), Json::to_line)
            ))
            .join(", ")
    );

    let workloads_of = |doc: &'_ Json| -> Vec<(String, Json)> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads_of(&a), workloads_of(&b));
    let in_b = |name: &str| wb.iter().find(|(n, _)| n == name).map(|(_, w)| w);

    println!(
        "\n{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut counts = [0usize; 4];
    // Rows one side lacks, and workloads either side found incorrect.
    let mut broken = 0usize;
    for (name, from_a) in &wa {
        let Some(from_b) = in_b(name) else {
            println!("{name:<14} missing from B");
            broken += 1;
            continue;
        };
        for (side, w) in [("A", from_a), ("B", from_b)] {
            if w.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{name:<14} INCORRECT in {side}: a verification identity broke");
                broken += 1;
            }
        }
        let metrics = from_a
            .get("end_to_end")
            .and_then(Json::as_obj)
            .unwrap_or_default();
        for (metric, ma) in metrics {
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let exact = ma.get("exact").and_then(Json::as_bool) == Some(true);
            let pair = Sample::from_json(ma).zip(
                from_b
                    .get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(Sample::from_json),
            );
            let Some((sa, sb)) = pair else {
                println!("{name:<14} {metric:<22} missing from B");
                broken += 1;
                continue;
            };
            let verdict = judge(&sa, &sb, better, bound, exact);
            counts[verdict as usize] += 1;
            let change = if sa.median == 0.0 {
                sb.median - sa.median
            } else {
                (sb.median - sa.median) / sa.median
            };
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                name,
                metric,
                sa.median,
                sb.median,
                change * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
    }

    // The estimators are minima and medians over a run's passes: sets
    // whose runs fitted very different numbers of them are recognisable.
    println!("\n{:<14} passes per run, A | B", "workload");
    for (name, from_a) in &wa {
        let passes = |w: Option<&Json>| {
            w.and_then(|w| w.get("passes"))
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(Json::to_line)
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{name:<14} {} | {}",
            passes(Some(from_a)),
            passes(in_b(name))
        );
    }

    println!(
        "\n{:<14} {:<20} {:>10} {:>18} {:>8}  same answers",
        "workload", "run", "outputs", "output_digest", "retunes"
    );
    let mut answers_differ = 0usize;
    for (name, from_a) in &wa {
        let runs_a = from_a
            .get("digest")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        let runs_b = in_b(name)
            .and_then(|w| w.get("digest"))
            .and_then(Json::as_arr)
            .unwrap_or_default();
        for (i, ra) in runs_a.iter().enumerate() {
            let same = runs_b.get(i) == Some(ra);
            if !same {
                answers_differ += 1;
            }
            let field = |k: &str| match ra.get(k) {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) => format!("{n}"),
                _ => "?".to_string(),
            };
            println!(
                "{:<14} {:<20} {:>10} {:>18} {:>8}  {}",
                name,
                field("label"),
                field("outputs"),
                field("output_digest"),
                field("retunes"),
                if same { "yes" } else { "NO" }
            );
        }
    }

    let [ok, regressed, unresolved, changed] = counts;
    println!(
        "\n{ok} ok, {regressed} regressed, {unresolved} unresolved, {changed} changed; {}{}",
        match answers_differ {
            0 => "same answers as the parent".to_string(),
            n => format!("{n} run(s) answer differently from the parent"),
        },
        match broken {
            0 => String::new(),
            n => format!("; {n} row(s) missing or incorrect"),
        }
    );
    Ok(regressed == 0 && changed == 0 && answers_differ == 0 && broken == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Sample {
        let (q1, median, q3) = crate::suite::quartiles(values);
        Sample {
            median,
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn quiet_sets_are_judged_by_their_medians() {
        let a = sample(&[100.0, 101.0, 99.0]);
        assert_eq!(
            judge(
                &a,
                &sample(&[104.0, 105.0, 103.0]),
                Better::Lower,
                0.10,
                false
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &sample(&[120.0, 121.0, 119.0]),
                Better::Lower,
                0.10,
                false
            ),
            Verdict::Regressed
        );
        // Direction matters: 20 % more is an improvement of a throughput.
        assert_eq!(
            judge(
                &a,
                &sample(&[120.0, 121.0, 119.0]),
                Better::Higher,
                0.10,
                false
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &sample(&[80.0, 81.0, 79.0]),
                Better::Higher,
                0.10,
                false
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn noisy_overlapping_sets_are_unresolved() {
        let a = sample(&[100.0, 140.0, 80.0]);
        let b = sample(&[130.0, 90.0, 150.0]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10, false),
            Verdict::Unresolved
        );
        // Noisy but disjoint: every run agrees.
        let worse = sample(&[300.0, 340.0, 280.0]);
        assert_eq!(
            judge(&a, &worse, Better::Lower, 0.10, false),
            Verdict::Regressed
        );
        let improved = sample(&[30.0, 34.0, 28.0]);
        assert_eq!(
            judge(&a, &improved, Better::Lower, 0.10, false),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_must_read_the_same() {
        let a = sample(&[500.0, 500.0, 500.0]);
        assert_eq!(judge(&a, &a, Better::Higher, 0.02, true), Verdict::Ok);
        // Within the bound, or better, is still a different answer.
        let near = sample(&[495.0, 495.0, 495.0]);
        assert_eq!(
            judge(&a, &near, Better::Higher, 0.02, true),
            Verdict::Changed
        );
        let more = sample(&[600.0, 600.0, 600.0]);
        assert_eq!(
            judge(&a, &more, Better::Higher, 0.02, true),
            Verdict::Changed
        );
        let fewer = sample(&[400.0, 400.0, 400.0]);
        assert_eq!(
            judge(&a, &fewer, Better::Higher, 0.02, true),
            Verdict::Regressed
        );
        // failed_frac: zero today, bound zero, so any increase regresses.
        let none = sample(&[0.0, 0.0, 0.0]);
        let some = sample(&[0.001, 0.001, 0.001]);
        assert_eq!(
            judge(&none, &some, Better::Lower, 0.0, true),
            Verdict::Regressed
        );
    }
}
