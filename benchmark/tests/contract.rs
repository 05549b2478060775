//! The benchmark's self-check: the committed `BENCHMARK.json` says what
//! the metric tables say, and the binary emits exactly what both declare.
//!
//! Runs the real binary at `--smoke` size (a few virtual seconds per
//! workload). Use `cargo test --release`: a debug-profile engine is an
//! order of magnitude slower.

use amri_benchmark::json::Json;
use amri_benchmark::metrics::{
    benchmark_json, valid_name, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use amri_benchmark::run::WorkDir;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_amri-benchmark");

fn committed() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses (and repeats no key)")
}

fn names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_tables() {
    let doc = committed();
    assert_eq!(
        doc,
        benchmark_json(RUN_SECONDS),
        "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --describe`"
    );
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names(&doc, "workloads"),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert_eq!(names(&doc, "end_to_end"), declared(0).0);
    assert_eq!(names(&doc, "per_layer"), declared(1).0);

    // Every name is used once and stays inside the contract's charset.
    let mut all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| names(&doc, s))
        .collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "a name is declared twice");

    // The command names nothing outside `paths`.
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    assert!((1..=60).contains(&RUN_SECONDS));
}

/// `(names, units)` of what `BENCHMARK.json` declares for `--trace 0|1`:
/// the end-to-end metrics with a contract bound, or the others followed
/// by the per-layer table.
fn declared(trace: u8) -> (Vec<&'static str>, Vec<&'static str>) {
    let in_contract = |m: &&amri_benchmark::metrics::EndToEnd| m.contract_bound.is_some();
    if trace == 0 {
        END_TO_END
            .iter()
            .filter(in_contract)
            .map(|m| (m.name, m.unit))
            .unzip()
    } else {
        END_TO_END
            .iter()
            .filter(|m| !in_contract(m))
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .unzip()
    }
}

/// One contract run at smoke size; returns the parsed result line.
fn contract_run(workload: &str, trace: u8) -> Json {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The parser refuses duplicate keys, so a metric emitted twice fails here.
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric_exactly_once() {
    for w in WORKLOADS {
        for trace in [0, 1] {
            let (names, units) = declared(trace);
            let declared: Vec<(&str, &str)> = names.into_iter().zip(units).collect();
            let result = contract_run(w.name, trace);
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{}",
                w.name
            );
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let emitted: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{} {name}: {m:?}",
                        w.name
                    );
                    (name.as_str(), m.get("unit").and_then(Json::as_str).unwrap())
                })
                .collect();
            assert_eq!(emitted, declared, "{} --trace {trace}", w.name);
            if trace == 0 {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value > 0.0, "{} {name} must never read 0", w.name);
                }
            }
        }
    }
}

#[test]
fn the_suite_result_is_host_stamped_and_compares_with_itself() {
    let work = WorkDir::create().expect("benchmark/out/work is creatable");
    let path = work.sub("suite.json");
    let out = Command::new(BIN)
        .args(["--smoke", "--seed", "42", "--out"])
        .arg(&path)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "smoke suite failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let host = doc.get("host").expect("a host stamp");
    for key in ["host", "nproc", "kernel", "rustc", "git_commit", "profile"] {
        assert!(host.get(key).is_some(), "host stamp lacks {key}");
    }
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(42.0));
    let workloads = doc.get("workloads").and_then(Json::as_obj).unwrap();
    assert_eq!(
        workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (name, w) in workloads {
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        let count = |section: &str| w.get(section).and_then(Json::as_obj).unwrap().len();
        assert_eq!(count("end_to_end"), END_TO_END.len(), "{name}");
        assert_eq!(count("per_layer"), PER_LAYER.len(), "{name}");
    }
    // Tier and checkpoint layers are entered by spill_ckpt alone.
    for (name, w) in workloads {
        let spilled = w
            .get("per_layer")
            .and_then(|p| p.get("engine.checkpoint.count"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(
            spilled > 0.0,
            name == "spill_ckpt",
            "{name}: {spilled} checkpoints"
        );
    }

    let same = Command::new(BIN)
        .arg("--compare")
        .arg(&path)
        .arg(&path)
        .output()
        .expect("the benchmark binary starts");
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(table.contains("0 regressed"), "{table}");
    assert!(table.contains("same answers as the parent"), "{table}");

    // A change that answers differently, fails verification or was
    // measured another way does not pass as "no regression".
    let text = std::fs::read_to_string(&path).unwrap();
    for (what, from, to, code, says) in [
        (
            "a digest differs",
            "\"output_digest\": \"",
            "\"output_digest\": \"x",
            1,
            "answer differently",
        ),
        (
            "a workload is incorrect",
            "\"correct\": true",
            "\"correct\": false",
            1,
            "INCORRECT in B",
        ),
        (
            "the settings differ",
            "\"repetitions\": 1",
            "\"repetitions\": 2",
            2,
            "not comparable",
        ),
    ] {
        assert!(text.contains(from), "{what}: the suite result lacks {from}");
        let changed = work.sub("changed.json");
        std::fs::write(&changed, text.replacen(from, to, 1)).unwrap();
        let out = Command::new(BIN)
            .arg("--compare")
            .arg(&path)
            .arg(&changed)
            .output()
            .expect("the benchmark binary starts");
        let said = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(code), "{what}:\n{said}");
        assert!(said.contains(says), "{what}:\n{said}");
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "paper_amri", "--seed", "x"],
        vec!["--compare", "only-one.json"],
        vec!["--frobnicate"],
        // Run length belongs to the benchmark, not to the suite's caller.
        vec!["--smoke", "--seconds", "5"],
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} must not print a result"
        );
    }
}
