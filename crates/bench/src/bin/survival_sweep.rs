//! Survival sweep — the "who dies when" table underlying Figures 6 and 7:
//! every index flavor on the identical trained scenario, with death times,
//! peak memory/backlog and mean job latency. This is the calibration view
//! of the §V experiments (the figure binaries print the aligned series).
//! The sweep writes `results/survival_summary.csv`.
//!
//! With `--spill-cache N` every flavor additionally carries a disk spill
//! tier with an N-byte decoded-block cache (its own directory per
//! flavor), so the survival table also reflects the spill fast path.
//!
//! With `--tuner {paper,bandit,static}` the AMRI flavor runs under the
//! chosen tuning policy (the baselines are unaffected), so the survival
//! table can compare safe tuning against the paper's greedy loop.
//!
//! Usage: `survival_sweep [--quick] [--seed N] [--threads N]
//!         [--spill-cache N] [--tuner K]`

use amri_bench::training::train_initial;
use amri_bench::{
    apply_threads, enforce_cli, parse_scale, parse_seed, parse_spill_cache, parse_threads,
    parse_tuner, write_summary_csv, FlagSpec, COMMON_FLAGS, SPILL_CACHE_FLAG, TUNER_FLAG,
};
use amri_core::assess::AssessorKind;
use amri_engine::{Executor, IndexingMode, SpillSettings};
use amri_hh::CombineStrategy;
use amri_synth::scenario::{paper_scenario, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flags: Vec<FlagSpec> = COMMON_FLAGS
        .iter()
        .chain([SPILL_CACHE_FLAG, TUNER_FLAG].iter())
        .copied()
        .collect();
    enforce_cli(&args, "survival_sweep", &flags);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let threads = parse_threads(&args);
    let cache_bytes = parse_spill_cache(&args);
    let tuner_kind = parse_tuner(&args);

    let mut sc = paper_scenario(scale, seed);
    sc.engine.tuner_kind = tuner_kind;
    apply_threads(&mut sc.engine, threads);
    let train = match scale {
        Scale::Paper => 120,
        Scale::Quick => 20,
    };
    let init = train_initial(&sc, train);
    eprintln!("trained configurations: {:?}", init.configs);
    eprintln!("threads: {threads} (shards: {})", sc.engine.shards);

    let mut modes: Vec<(String, IndexingMode)> = vec![(
        "AMRI".into(),
        IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: Some(init.configs.clone()),
        },
    )];
    for k in 1..=7 {
        modes.push((
            format!("hash-{k}"),
            IndexingMode::AdaptiveHash {
                n_indices: k,
                initial: Some(init.hash_patterns(k)),
            },
        ));
    }
    modes.push((
        "static-bitmap".into(),
        IndexingMode::StaticBitmap {
            configs: Some(init.configs.clone()),
        },
    ));

    println!(
        "{:>14} {:>10} {:>8} {:>12} {:>10} {:>12}",
        "flavor", "outputs", "death", "peak-mem(B)", "backlog", "latency(tk)"
    );
    let mut runs = Vec::new();
    for (label, mode) in modes {
        let mut engine = sc.engine.clone();
        if cache_bytes > 0 {
            engine.spill = Some(
                SpillSettings::in_dir(format!("results/spill/survival/{label}"))
                    .with_cache_bytes(cache_bytes),
            );
        }
        let r = Executor::try_new(&sc.query, sc.workload(), mode, engine)
            .expect("valid engine configuration")
            .run();
        let death = r
            .death_time()
            .map(|t| format!("{:.1}m", t.as_mins_f64()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>14} {:>10} {:>8} {:>12} {:>10} {:>12.0}",
            label,
            r.outputs,
            death,
            r.series.peak_memory(),
            r.series.peak_backlog(),
            r.mean_job_latency_ticks,
        );
        runs.push(r);
    }
    write_summary_csv(
        &runs,
        std::path::Path::new("results/survival_summary.csv"),
        threads.get(),
    )
    .expect("summary csv");
}
