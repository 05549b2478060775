//! Tuner duel — the safe-tuning head-to-head (`EXP-DUEL`): the paper's
//! greedy tuner vs the bandit tuner vs the static-IC oracle, on (a) the
//! paper's rotating drift and (b) the adversarial A/B flip built to defeat
//! greedy retuning (its phase length undercuts the bandit's
//! migration-amortization horizon). All six cells share the query, the
//! quasi-trained starting configurations and the seed; only the tuning
//! policy differs.
//!
//! The table makes the robustness claim observable: under adversarial
//! drift the paper tuner keeps migrating into flips that invert before
//! the migration amortizes (high `retunes`, realized benefit far below
//! predicted, large regret), while the bandit's hysteresis/backoff keeps
//! its cumulative cost within the configured regret bound of the static
//! oracle. The summary CSV lands in `results/tuner_duel_summary.csv`
//! (regret/thrash columns included) for the CI same-seed replay byte-diff
//! at `--threads 1` vs `--threads 4`.
//!
//! Usage: `tuner_duel [--quick] [--seed N] [--threads N]`

use amri_bench::{
    enforce_cli, parse_scale, parse_seed, parse_threads, render_maintenance_table, tuner_duel,
    write_summary_csv, COMMON_FLAGS,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    enforce_cli(&args, "tuner_duel", COMMON_FLAGS);
    let scale = parse_scale(&args);
    let seed = parse_seed(&args);
    let threads = parse_threads(&args);
    println!("tuner duel (scale {scale:?}, seed {seed}, {threads} thread(s))");

    let cells = tuner_duel(scale, seed, threads);

    for drift in ["paper", "adversarial"] {
        let group: Vec<&amri_bench::DuelCell> = cells.iter().filter(|c| c.drift == drift).collect();
        let runs: Vec<_> = group.iter().map(|c| c.run.clone()).collect();
        println!("\n== {drift} drift ==");
        print!("{}", render_maintenance_table(&runs));
        let by = |kind: amri_core::TunerKind| {
            group
                .iter()
                .find(|c| c.tuner == kind)
                .expect("all three policies ran")
        };
        let paper = by(amri_core::TunerKind::Paper);
        let bandit = by(amri_core::TunerKind::Bandit);
        let oracle = by(amri_core::TunerKind::Static);
        println!(
            "verdict: paper {} retunes (predicted {} ns, realized {} ns), \
             bandit {} retunes, outputs paper/bandit/static = {}/{}/{}",
            paper.run.retunes.len(),
            paper.run.maint.retune_benefit_predicted_ns,
            paper.run.maint.retune_benefit_realized_ns,
            bandit.run.retunes.len(),
            paper.run.outputs,
            bandit.run.outputs,
            oracle.run.outputs,
        );
    }

    let runs: Vec<_> = cells.into_iter().map(|c| c.run).collect();
    write_summary_csv(
        &runs,
        std::path::Path::new("results/tuner_duel_summary.csv"),
        threads.get(),
    )
    .expect("summary csv");
    println!("\nsummary: results/tuner_duel_summary.csv");
}
