//! The identity lattice, checked: every cell, edge and expectation of
//! [`amri_bench::lattice`] in one process, one line each. Exits non-zero
//! listing every violation by the name of its edge or expectation; that
//! name reproduces it: `matrix --quick --seed N --only <name>`.
//!
//! Usage: `matrix [--quick] [--seed N] [--only GROUP|EDGE]`

use amri_bench::lattice::{check, lattice};
use amri_bench::{enforce_cli, parse_operand, parse_scale, parse_seed, FlagSpec};

const FLAGS: &[FlagSpec] = &[
    ("--quick", false, "quick scale instead of full paper scale"),
    ("--seed", true, "master seed (default 42)"),
    (
        "--only",
        true,
        "check one group, edge or expectation, by name",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "matrix", FLAGS);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let only: Option<String> = parse_operand(&args, "--only");
    println!("identity lattice (scale {scale:?}, seed {seed})");

    let report = check(&lattice(seed), scale, only.as_deref(), |line| {
        println!("{line}")
    })
    .unwrap_or_else(|e| {
        eprintln!("matrix: {e}");
        std::process::exit(2);
    });
    println!(
        "{} edges and expectations over {} drives",
        report.checked, report.drives
    );
    if report.violations.is_empty() {
        println!("lattice green.");
        return;
    }
    eprintln!("lattice violations:");
    for v in &report.violations {
        eprintln!("  - {v}");
    }
    if let Some(dir) = &report.kept {
        eprintln!("scratch kept under {}", dir.display());
    }
    std::process::exit(1);
}
