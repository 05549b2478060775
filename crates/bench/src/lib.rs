//! # amri-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V), plus
//! the ablations DESIGN.md calls out. The library half (this crate) builds
//! and runs experiment lineups and renders their reports; the `src/bin`
//! binaries are thin CLIs over it, and `benches/` hosts the Criterion
//! micro-benchmarks and ablation sweeps.
//!
//! * [`experiments`] — one runner per experiment id (`EXP-F6-ASSESS`,
//!   `EXP-F6-HASH`, `EXP-F7-*`, `EXP-T2-EXAMPLE`).
//! * [`training`] — the paper's "quasi training data" bootstrap: observe a
//!   short run, then select initial index configurations / hash patterns.
//! * [`report`] — figure-shaped text tables and CSV emission.
//! * [`lattice`] — the identity lattice (threads 1 ≡ 4, cached ≡ zero-byte,
//!   spilled ≡ unconstrained, crash + resume ≡ uninterrupted, hosted ≡
//!   solo ≡ migrated, replay ≡ replay) as one table of cells, edges and
//!   expectations, checked in process by the `matrix` bin.
//! * [`crash`] — the checkpointed / crash-and-resume drives the lattice
//!   runs its cells through.
//! * [`parallel`] — scoped-thread fan-out over independent runs.
//! * [`cli`] — the shared `--quick` / `--seed` / `--threads` flag parsing.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod crash;
pub mod experiments;
pub mod lattice;
pub mod parallel;
pub mod report;
pub mod training;

pub use cli::{
    apply_threads, check_args, enforce_cli, parse_operand, parse_scale, parse_seed,
    parse_spill_cache, parse_threads, parse_tuner, usage, wants_help, FlagSpec, COMMON_FLAGS,
    SPILL_CACHE_FLAG, TUNER_FLAG,
};
pub use crash::{resume_latest, run_checkpointed, run_until_crash, Resumed};
pub use experiments::{
    fig6_assessment, fig6_hash, fig7_compare, table2_example, tuner_duel, DuelCell, Fig7Result,
    Table2Result,
};
pub use parallel::run_all;
pub use report::{
    render_ascii_chart, render_maintenance_table, render_series_table, render_summary, write_csv,
    write_summary_csv,
};
pub use training::train_initial;
