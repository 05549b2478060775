//! CLI of the AMRI benchmark; `benchmark/run.sh` builds and execs it.

use amri_benchmark::compare;
use amri_benchmark::metrics::{benchmark_json, RUN_SECONDS};
use amri_benchmark::single::{self, SingleArgs};
use amri_benchmark::suite::{self, SuiteArgs};
use amri_benchmark::workloads::{Plan, Workload};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: run.sh [--seed N] [--reps N] [--smoke] [--out FILE]      run every workload, write one JSON
       run.sh --workload NAME --seed N --seconds S --trace 0|1   one contract run
       run.sh --compare A.json B.json                             compare two suite results
       run.sh --describe                                          print BENCHMARK.json from the metric tables
workloads: paper_amri ingest_sparse sharded_mt spill_ckpt fleet_lineup";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
    }
}

fn single_run(args: &[String], name: &str, start: Instant) -> Result<ExitCode, String> {
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let run_args = SingleArgs {
        plan: Plan {
            workload,
            seed: parsed(args, "--seed", 42u64)?,
            smoke: args.iter().any(|a| a == "--smoke"),
        },
        seconds: parsed(args, "--seconds", RUN_SECONDS as f64)?,
        trace: parsed(args, "--trace", 0u8)? != 0,
        trace_out: flag_value(args, "--trace-out").map(Into::into),
    };
    let outcome = single::run(&run_args, start);
    for (name, value, unit) in outcome.metrics.entries() {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    for v in &outcome.violations {
        eprintln!("VIOLATION {}: {v}", workload.name());
    }
    println!("#suite {}", outcome.to_suite_json().to_line());
    println!("{}", outcome.to_json().to_line());
    Ok(exit_code(outcome.correct))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn suite_run(args: &[String]) -> Result<ExitCode, String> {
    const FLAGS: [&str; 4] = ["--seed", "--reps", "--out", "--smoke"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => i += 1,
            f if FLAGS.contains(&f) => i += 2,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let suite_args = SuiteArgs {
        seed: parsed(args, "--seed", 42u64)?,
        reps: parsed(args, "--reps", if smoke { 1 } else { 5 })?,
        smoke,
        out: flag_value(args, "--out").map(Into::into),
    };
    if suite_args.reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    suite::run(&suite_args).map(exit_code)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        Ok(ExitCode::SUCCESS)
    } else if args.iter().any(|a| a == "--describe") {
        print!("{}", benchmark_json(RUN_SECONDS).to_pretty());
        Ok(ExitCode::SUCCESS)
    } else if let Some(i) = args.iter().position(|a| a == "--compare") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => compare::run(a, b).map(exit_code),
            _ => Err(format!("--compare needs two files\n{USAGE}")),
        }
    } else if let Some(name) = flag_value(&args, "--workload") {
        single_run(&args, name, start)
    } else {
        suite_run(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
