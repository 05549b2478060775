//! `EXP-F6-HASH` — regenerate Figure 6's state-of-the-art baseline sweep:
//! access modules with 1..=7 hash indices (CDIA-highest statistics,
//! conventional index selection). The paper: none survived past ~12.5 min;
//! all died of memory exhaustion.
//!
//! Usage: `fig6_hash [--quick] [--seed N] [--threads N]`

use amri_bench::{
    enforce_cli, fig6_hash, parse_scale, parse_seed, parse_threads, render_ascii_chart,
    render_series_table, render_summary, write_csv, COMMON_FLAGS,
};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "fig6_hash", COMMON_FLAGS);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let threads = parse_threads(&args);

    eprintln!("running Figure 6 hash-index sweep ({scale:?}, seed {seed})...");
    let runs = fig6_hash(scale, seed, threads);

    println!("== Figure 6 — state-of-the-art AMR indexing (1..7 hash indices) ==");
    println!("{}", render_ascii_chart(&runs, 72, 18));
    println!("{}", render_series_table(&runs, 16));
    println!("{}", render_summary(&runs));

    let deaths: Vec<String> = runs
        .iter()
        .filter_map(|r| {
            r.death_time()
                .map(|t| format!("{}@{:.1}m", r.label, t.as_mins_f64()))
        })
        .collect();
    println!(
        "runs dead of memory exhaustion: {}/{} [{}]",
        deaths.len(),
        runs.len(),
        deaths.join(", ")
    );

    let csv = Path::new("results/fig6_hash.csv");
    write_csv(&runs, csv).expect("write CSV");
    eprintln!("series written to {}", csv.display());
}
