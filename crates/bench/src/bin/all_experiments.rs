//! Run every §V experiment end to end and print a combined report —
//! the one-command regeneration entry point referenced by EXPERIMENTS.md.
//!
//! Usage: `all_experiments [--quick] [--seed N] [--threads N]`

use amri_bench::{
    enforce_cli, fig6_assessment, fig6_hash, fig7_compare, parse_scale, parse_seed, parse_threads,
    render_maintenance_table, render_series_table, render_summary, table2_example, write_csv,
    write_summary_csv, COMMON_FLAGS,
};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "all_experiments", COMMON_FLAGS);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let threads = parse_threads(&args);

    println!(
        "################ AMRI experiment suite ({scale:?}, seed {seed}, {threads} thread(s)) ################\n"
    );

    println!("== Table II worked example ==");
    let t2 = table2_example();
    println!(
        "CSRIA config {} | CDIA config {} | optimum {}",
        t2.csria_config, t2.cdia_config, t2.optimal_config
    );
    assert_eq!(t2.cdia_config, t2.optimal_config);
    println!();

    eprintln!("running Figure 6 assessment lineup...");
    let assess = fig6_assessment(scale, seed, threads);
    println!("== Figure 6 — assessment methods ==");
    println!("{}", render_series_table(&assess, 12));
    println!("{}", render_summary(&assess));
    println!("{}", render_maintenance_table(&assess));
    write_csv(&assess, Path::new("results/fig6_assessment.csv")).expect("csv");
    write_summary_csv(
        &assess,
        Path::new("results/fig6_assessment_summary.csv"),
        threads.get(),
    )
    .expect("csv");

    eprintln!("running Figure 6 hash sweep...");
    let hash = fig6_hash(scale, seed, threads);
    println!("== Figure 6 — hash baselines ==");
    println!("{}", render_series_table(&hash, 12));
    println!("{}", render_summary(&hash));
    println!("{}", render_maintenance_table(&hash));
    write_csv(&hash, Path::new("results/fig6_hash.csv")).expect("csv");
    write_summary_csv(
        &hash,
        Path::new("results/fig6_hash_summary.csv"),
        threads.get(),
    )
    .expect("csv");

    eprintln!("running Figure 7 comparison...");
    let f7 = fig7_compare(scale, seed, threads);
    let f7_runs = vec![f7.amri.clone(), f7.best_hash.clone(), f7.bitmap.clone()];
    println!("== Figure 7 ==");
    println!("{}", render_series_table(&f7_runs, 12));
    println!("{}", render_summary(&f7_runs));
    println!("{}", render_maintenance_table(&f7_runs));
    println!(
        "AMRI vs best hash: {:+.0}% (paper +93%) | AMRI vs static bitmap: {:+.0}% (paper +75%)",
        f7.gain_over_hash() * 100.0,
        f7.gain_over_bitmap() * 100.0
    );
    write_csv(&f7_runs, Path::new("results/fig7_compare.csv")).expect("csv");
    write_summary_csv(
        &f7_runs,
        Path::new("results/fig7_compare_summary.csv"),
        threads.get(),
    )
    .expect("csv");

    println!("\nall experiment CSVs under results/");
}
