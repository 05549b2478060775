//! `EXP-F7-AMRI-VS-HASH` / `EXP-F7-AMRI-VS-BITMAP` — regenerate Figure 7:
//! AMRI (CDIA-highest) vs the best hash configuration vs the non-adapting
//! bitmap index. Paper headlines: +93% over the best hash configuration,
//! +75% over the non-adapting bitmap (which died at 15.5 min).
//!
//! Usage: `fig7_compare [--quick] [--seed N] [--threads N]`

use amri_bench::{
    enforce_cli, fig7_compare, parse_scale, parse_seed, parse_threads, render_ascii_chart,
    render_series_table, render_summary, write_csv, COMMON_FLAGS,
};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "fig7_compare", COMMON_FLAGS);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let threads = parse_threads(&args);

    eprintln!("running Figure 7 comparison ({scale:?}, seed {seed})...");
    let result = fig7_compare(scale, seed, threads);
    let runs = vec![
        result.amri.clone(),
        result.best_hash.clone(),
        result.bitmap.clone(),
    ];

    println!("== Figure 7 — AMRI vs best hash configuration vs non-adapting bitmap ==");
    println!("{}", render_ascii_chart(&runs, 72, 18));
    println!("{}", render_series_table(&runs, 16));
    println!("{}", render_summary(&runs));
    println!(
        "AMRI gain over best hash ({}): {:+.0}%   (paper: +93%)",
        result.best_hash.label,
        result.gain_over_hash() * 100.0
    );
    println!(
        "AMRI gain over non-adapting bitmap: {:+.0}%   (paper: +75%)",
        result.gain_over_bitmap() * 100.0
    );

    let csv = Path::new("results/fig7_compare.csv");
    write_csv(&runs, csv).expect("write CSV");
    eprintln!("series written to {}", csv.display());
}
