//! The five workloads: which engine configuration each one is, and how
//! its set-up (scenario build → quasi-training → `Executor::try_new`) is
//! assembled from the engine's public API.
//!
//! Sizing: the engine is a deterministic simulation, so a workload is a
//! closed batch job whose size is its *virtual* duration. One pass is
//! sized to ~1.5–3 s of wall time on the 2-core reference host and the
//! runner repeats whole passes until `--seconds` is spent, so a slower
//! host measures fewer passes, not a longer run.

use crate::host::PinnedApart;
use amri_bench::train_initial;
use amri_core::assess::AssessorKind;
use amri_core::StorageProfile;
use amri_engine::{Executor, IndexingMode, MemoryBudget, SpillSettings};
use amri_hh::CombineStrategy;
use amri_serve::HostConfig;
use amri_stream::{VirtualDuration, WindowSpec};
use amri_synth::scenario::{paper_scenario, Scale};
use amri_synth::{paper_query, DriftSchedule, DriftingWorkload, PaperScenario};
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::Instant;

/// Steps per scheduling quantum — `HostConfig::default().quantum`, the
/// granule `amri-serve` interleaves.
pub const QUANTUM_STEPS: u64 = 64;

/// `spill_ckpt` takes a checkpoint every this many quanta.
pub const CHECKPOINT_EVERY_QUANTA: u64 = 2048;

/// Decoded-block cache of `spill_ckpt`, per state: smaller than the
/// spilled working set, so both the hit and the miss path run.
pub const SPILL_CACHE_BYTES: u64 = 64 * 1024;

/// One of the five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §V clique, AMRI-CDIA-highest, one shard, one thread, all RAM.
    PaperAmri,
    /// Same query shape, λ_d 2000, 125 ms windows, constant sparse joins.
    IngestSparse,
    /// `PaperAmri` at shards = 4, parallelism = 2.
    ShardedMt,
    /// `PaperAmri` under a byte budget with a spill tier and checkpoints.
    SpillCkpt,
    /// The §V four-flavor lineup as tenants of one `TenantHost`.
    FleetLineup,
}

impl Workload {
    /// All five, in suite order (the order of `metrics::WORKLOADS`).
    pub const ALL: [Workload; 5] = [
        Workload::PaperAmri,
        Workload::IngestSparse,
        Workload::ShardedMt,
        Workload::SpillCkpt,
        Workload::FleetLineup,
    ];

    /// Name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAmri => "paper_amri",
            Workload::IngestSparse => "ingest_sparse",
            Workload::ShardedMt => "sharded_mt",
            Workload::SpillCkpt => "spill_ckpt",
            Workload::FleetLineup => "fleet_lineup",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one pass of a workload is sized to.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Virtual seconds one pass simulates (per tenant, for the fleet).
    pub virt_secs: u64,
    /// Virtual seconds of the quasi-training pass.
    pub train_secs: u64,
    /// Engine byte budget of `spill_ckpt`: ≈ 70 % of the all-RAM peak at
    /// this sizing, fixed so every seed runs under the same pressure.
    pub spill_budget: u64,
}

/// A workload bound to a seed and a size.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input (workload RNG, router, tuner).
    pub seed: u64,
    /// `--smoke`: a few virtual seconds per workload.
    pub smoke: bool,
}

/// One engine configuration, trained and ready to build executors from.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label (the tenant label in the fleet).
    pub label: &'static str,
    /// Fair-share weight when hosted.
    pub weight: u32,
    /// Query, drift schedule, engine parameters, seed.
    pub scenario: PaperScenario,
    /// Index flavor with its trained starting configuration.
    pub mode: IndexingMode,
}

impl Cell {
    /// A fresh executor for this configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid or the spill directory
    /// cannot be created — a bug in the benchmark or an unusable checkout.
    pub fn executor(&self) -> Executor<DriftingWorkload> {
        Executor::try_new(
            &self.scenario.query,
            self.scenario.workload(),
            self.mode.clone(),
            self.scenario.engine.clone(),
        )
        .unwrap_or_else(|e| panic!("{}: invalid engine configuration: {e}", self.label))
    }

    /// This cell with `f` applied to its engine configuration — the
    /// reference variants verification compares against.
    pub fn with_engine(&self, f: impl FnOnce(&mut amri_engine::EngineConfig)) -> Cell {
        let mut cell = self.clone();
        f(&mut cell.scenario.engine);
        cell
    }

    /// Pin the worker threads of the pipeline just built from this cell
    /// apart from the calling thread (see [`PinnedApart`]); `None` at
    /// parallelism 1, which has no workers.
    pub fn pin_workers(&self) -> Option<PinnedApart> {
        PinnedApart::pin(self.scenario.engine.parallelism.get() - 1)
    }

    /// Virtual seconds this cell's run lasts.
    pub fn virt_secs(&self) -> f64 {
        self.scenario.engine.duration.as_secs_f64()
    }
}

/// The trained cells of one pass plus what training cost.
#[derive(Debug, Clone)]
pub struct Trained {
    /// One cell for the solo workloads, four for the fleet.
    pub cells: Vec<Cell>,
    /// Wall seconds of the quasi-training pass.
    pub train_s: f64,
}

impl Plan {
    /// Pass size of this plan.
    pub fn sizing(&self) -> Sizing {
        let (virt_secs, train_secs, spill_budget) = match (self.workload, self.smoke) {
            (Workload::PaperAmri, false) => (90, 30, 0),
            (Workload::IngestSparse, false) => (30, 4, 0),
            (Workload::ShardedMt, false) => (30, 10, 0),
            (Workload::SpillCkpt, false) => (40, 30, 920_000),
            (Workload::FleetLineup, false) => (30, 30, 0),
            (Workload::PaperAmri, true) => (8, 4, 0),
            (Workload::IngestSparse, true) => (3, 1, 0),
            (Workload::ShardedMt, true) => (5, 4, 0),
            (Workload::SpillCkpt, true) => (8, 4, 420_000),
            (Workload::FleetLineup, true) => (5, 4, 0),
        };
        Sizing {
            virt_secs,
            train_secs,
            spill_budget,
        }
    }

    /// Checkpoint cadence of `spill_ckpt` in quanta.
    pub fn checkpoint_every(&self) -> u64 {
        if self.smoke {
            CHECKPOINT_EVERY_QUANTA / 8
        } else {
            CHECKPOINT_EVERY_QUANTA
        }
    }

    /// The untrained scenario of this plan. `spill_dir` is where
    /// `spill_ckpt` keeps its block files for this pass.
    pub fn scenario(&self, spill_dir: &Path) -> PaperScenario {
        let sizing = self.sizing();
        let mut sc = paper_scenario(Scale::Paper, self.seed);
        sc.engine.duration = VirtualDuration::from_secs(sizing.virt_secs);
        // The §V scenario's 6 MiB budget exists to kill the baselines;
        // here every run must complete, so only `spill_ckpt` and the
        // fleet tenants carry a finite one.
        sc.engine.budget = MemoryBudget::unlimited();
        match self.workload {
            Workload::PaperAmri => {}
            Workload::IngestSparse => {
                sc.query = paper_query(1, 50);
                sc.query.windows =
                    vec![
                        WindowSpec::new(VirtualDuration::from_secs_f64(SPARSE_WINDOW_SECS))
                            .expect("a positive window length");
                        4
                    ];
                sc.schedule = DriftSchedule::constant(4, SPARSE_CARDINALITY);
                sc.engine.lambda_d = 2000.0;
                sc.engine.lambda_ramp = 0.0;
            }
            Workload::ShardedMt => {
                sc.engine.shards = 4;
                sc.engine.parallelism = NonZeroUsize::new(2).expect("2 is non-zero");
            }
            Workload::SpillCkpt => {
                sc.engine.budget = MemoryBudget {
                    bytes: sizing.spill_budget,
                };
                sc.engine.spill = Some(
                    SpillSettings {
                        profile: StorageProfile {
                            readahead_blocks: 2,
                            ..StorageProfile::default()
                        },
                        ..SpillSettings::in_dir(spill_dir)
                    }
                    .with_cache_bytes(SPILL_CACHE_BYTES),
                );
            }
            Workload::FleetLineup => {
                sc.engine.budget = FLEET_TENANT_BUDGET;
            }
        }
        sc
    }

    /// Build the scenario, run the quasi-training pass and derive the
    /// trained cell(s) — everything of set-up that precedes
    /// `Executor::try_new`.
    pub fn train(&self, spill_dir: &Path) -> Trained {
        let scenario = self.scenario(spill_dir);
        // Training only observes the workload, and the engine's answers
        // do not depend on its thread count: observe on one thread, so
        // set-up time is not at the mercy of an unpinned pool's placement.
        let mut observed = scenario.clone();
        observed.engine.parallelism = NonZeroUsize::MIN;
        let t = Instant::now();
        let init = train_initial(&observed, self.sizing().train_secs);
        let train_s = t.elapsed().as_secs_f64();
        let amri = IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: Some(init.configs.clone()),
        };
        let cell = |label, weight, mode| Cell {
            label,
            weight,
            scenario: scenario.clone(),
            mode,
        };
        let cells = match self.workload {
            Workload::FleetLineup => vec![
                cell("amri-cdia-highest", 2, amri),
                cell(
                    "hash-3",
                    1,
                    IndexingMode::AdaptiveHash {
                        n_indices: 3,
                        initial: Some(init.hash_patterns(3)),
                    },
                ),
                cell(
                    "static-bitmap",
                    1,
                    IndexingMode::StaticBitmap {
                        configs: Some(init.configs),
                    },
                ),
                cell("scan", 1, IndexingMode::Scan),
            ],
            w => vec![cell(w.name(), 1, amri)],
        };
        Trained { cells, train_s }
    }
}

/// `ingest_sparse`: window length in virtual seconds and the match
/// cardinality of every join edge. A 1 s window at cardinality 256 has
/// the fan-out wanted here (~8 first-hop matches, then almost none) but
/// completes about one join output per pass at this sizing — a digest
/// over one output checks nothing, and `virt_outputs_per_s` would read 0
/// on some seeds. Shrinking window and domain together keeps the
/// fan-out (window population / cardinality is still 7.8) and the
/// arrival rate, and lets a few thousand outputs complete per pass.
const SPARSE_WINDOW_SECS: f64 = 0.125;
const SPARSE_CARDINALITY: u64 = 32;

/// Each fleet tenant's engine budget: every flavor completes under it
/// (scan, the hungriest, peaks near 11 MB at this sizing).
pub const FLEET_TENANT_BUDGET: MemoryBudget = MemoryBudget {
    bytes: 32 * 1024 * 1024,
};

/// The fleet's host: a global budget admitting three of the four
/// reservations, so one tenant queues at admission on every run.
pub fn fleet_host_config(seed: u64) -> HostConfig {
    HostConfig {
        budget: MemoryBudget {
            bytes: 3 * FLEET_TENANT_BUDGET.bytes + FLEET_TENANT_BUDGET.bytes / 8,
        },
        quantum: QUANTUM_STEPS,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn names_match_the_declared_table() {
        let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn quantum_matches_the_host_default() {
        assert_eq!(QUANTUM_STEPS, HostConfig::default().quantum);
    }
}
