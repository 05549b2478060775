//! `EXP-F6-ASSESS` — regenerate Figure 6's assessment-method comparison:
//! cumulative throughput over time for AMRI under SRIA, CSRIA, DIA,
//! CDIA-random and CDIA-highest.
//!
//! Usage: `fig6_assessment [--quick] [--seed N] [--threads N]`

use amri_bench::{
    enforce_cli, fig6_assessment, parse_scale, parse_seed, parse_threads, render_ascii_chart,
    render_series_table, render_summary, write_csv, COMMON_FLAGS,
};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "fig6_assessment", COMMON_FLAGS);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let threads = parse_threads(&args);

    eprintln!("running Figure 6 assessment lineup ({scale:?}, seed {seed})...");
    let runs = fig6_assessment(scale, seed, threads);

    println!("== Figure 6 — index assessment methods (cumulative throughput) ==");
    println!("{}", render_ascii_chart(&runs, 72, 18));
    println!("{}", render_series_table(&runs, 16));
    println!("{}", render_summary(&runs));

    let best = runs.iter().max_by_key(|r| r.outputs).unwrap();
    let sria = runs
        .iter()
        .find(|r| r.label.ends_with("SRIA") && !r.label.contains("CSRIA"))
        .unwrap();
    let csria = runs.iter().find(|r| r.label.contains("CSRIA")).unwrap();
    println!(
        "best method: {} ({} outputs); vs SRIA/DIA {:+.1}%, vs CSRIA {:+.1}%",
        best.label,
        best.outputs,
        (best.outputs as f64 / sria.outputs.max(1) as f64 - 1.0) * 100.0,
        (best.outputs as f64 / csria.outputs.max(1) as f64 - 1.0) * 100.0,
    );

    let csv = Path::new("results/fig6_assessment.csv");
    write_csv(&runs, csv).expect("write CSV");
    eprintln!("series written to {}", csv.display());
}
