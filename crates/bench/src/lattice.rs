//! The identity lattice, stated as data and checked in process.
//!
//! Every number this reproduction reports is relative (AMRI vs hash vs
//! bitmap on the same arrivals), so what makes the numbers mean anything
//! is that a run is a function of its seed and configuration alone:
//! threads 1 ≡ 4, cache on ≡ off, spilled ≡ unconstrained, crash + resume
//! ≡ uninterrupted, hosted ≡ solo ≡ migrated, replay ≡ replay. This
//! module is where that is written down, once.
//!
//! * A **cell** is a name (`<group>/<label>@t<threads>`) and what to run:
//!   one engine run (an `IndexingMode` plus a `RunSpec` delta over
//!   `paper_scenario(scale, seed)`), a fleet of such runs, or a whole §V
//!   experiment lineup.
//! * A **drive** is how a cell is run: straight, observed by a
//!   checkpointer, crashed and resumed (the drivers in
//!   [`crash`](crate::crash)), on a skewed clock, hosted, or migrated.
//! * An **edge** says two (cell, drive) nodes render identically modulo
//!   nothing, the cache counters, or everything but the answer; a replay
//!   edge has the same node on both sides, driven twice.
//! * An **expectation** is a predicate over one node's runs: how the run
//!   must end, and the *non-vacuity* predicates that keep an edge from
//!   going green because what it claims to carry never happened.
//!
//! [`lattice`] builds the table and [`check`] runs it: each distinct node
//! is driven once however many edges touch it, one comparer renders both
//! sides (`RunResult` and `MaintenanceStats`, Debug), and a violation is
//! reported under the name of its edge or expectation — the reproduction
//! handle: `matrix --quick --seed N --only <name>`. DESIGN.md § *The
//! identity lattice* holds the table in prose.

use self::{Drive::*, Modulo::*, Must::*};
use crate::cli::apply_threads;
use crate::crash::{resume_latest, run_checkpointed, run_until_crash};
use crate::experiments::{
    fig6_assessment_with_stats, fig6_hash_with_stats, fig7_compare, tuner_duel,
};
use amri_core::assess::AssessorKind;
use amri_core::{StorageProfile, TunerKind};
use amri_engine::{
    DegradationPolicy, Executor, FaultKind, FaultPlan, IndexingMode, MaintenanceStats,
    MemoryBudget, PressureWindow, RunOutcome, RunResult, SheddingPolicy, SkewedClock,
    SpillSettings, TornMode,
};
use amri_hh::CombineStrategy;
use amri_serve::{run_fleet, run_fleet_migrated, FleetCell, HostConfig};
use amri_stream::{VirtualClock, VirtualDuration, VirtualTime};
use amri_synth::scenario::{paper_scenario, PaperScenario, Scale};
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

fn amri(assessor: AssessorKind) -> IndexingMode {
    let initial = None;
    IndexingMode::Amri { assessor, initial }
}

fn hash(n_indices: usize) -> IndexingMode {
    let initial = None;
    IndexingMode::AdaptiveHash { n_indices, initial }
}

/// The §V lineup, one representative per index flavor.
pub fn lineup() -> Vec<(&'static str, IndexingMode)> {
    let bitmap = IndexingMode::StaticBitmap { configs: None };
    vec![
        ("amri", amri(AssessorKind::Csria)),
        ("hash-3", hash(3)),
        ("static-bitmap", bitmap),
        ("scan", IndexingMode::Scan),
    ]
}

/// The lineup as tenants of one host — label, fair-share weight, mode —
/// in lighter flavors (CDIA statistics, two hash indices) that each fit
/// an 8 MiB reservation.
pub fn fleet_lineup() -> Vec<(&'static str, u32, IndexingMode)> {
    let highest = AssessorKind::Cdia(CombineStrategy::HighestCount);
    let bitmap = IndexingMode::StaticBitmap { configs: None };
    vec![
        ("amri-cdia-highest", 2, amri(highest)),
        ("hash-2", 1, hash(2)),
        ("static-bitmap", 1, bitmap),
        ("scan", 1, IndexingMode::Scan),
    ]
}

/// A budget below the mode's unconstrained `peak` (the all-RAM run must
/// die) but above its spill-resident floor: stubs and index links stay in
/// RAM when a tuple spills, and a multi-hash state keeps one link per
/// index per tuple resident, so its floor is far higher than the
/// arena-dominated modes'.
pub fn forcing_budget(mode: &IndexingMode, peak: u64) -> u64 {
    match mode {
        IndexingMode::AdaptiveHash { .. } => peak * 9 / 10,
        _ => peak * 7 / 10,
    }
}

/// An identity-profile tier under `dir` with a 256 KiB decoded-block
/// cache and expiry-order readahead of two blocks: zero latency
/// everywhere, so the cache is behaviorally invisible, yet the prefetch
/// path runs.
pub fn cached_tier(dir: &Path) -> SpillSettings {
    let profile = StorageProfile {
        readahead_blocks: 2,
        ..StorageProfile::default()
    };
    let tier = SpillSettings::in_dir(dir);
    SpillSettings { profile, ..tier }.with_cache_bytes(256 * 1024)
}

/// A per-state cache budget that must evict: half of what one state of
/// the cacheless twin wrote to its block file (the twin's `n_states` files
/// hold `twin_disk_bytes` between them) — room for some of the state's
/// spilled blocks, never for all of them.
pub fn tight_cache_bytes(twin_disk_bytes: u64, n_states: u64) -> u64 {
    twin_disk_bytes / n_states.max(1) / 2
}

/// `r` with the five counters only a block cache produces zeroed, every
/// shared observable (answer, promotions, read accounting) left intact.
pub fn without_cache_counters(mut r: RunResult) -> RunResult {
    let s = &mut r.spill;
    (s.cache_hits, s.cache_misses, s.cache_evictions) = (0, 0, 0);
    (s.coalesced_reads, s.prefetched_blocks) = (0, 0);
    r
}

type Run = (RunResult, MaintenanceStats);
type Experiment = fn(Scale, u64, NonZeroUsize) -> Vec<Run>;

#[derive(Clone)]
enum Budget {
    /// Whatever `paper_scenario` set for the scale.
    Scenario,
    Fixed(MemoryBudget),
    /// [`forcing_budget`] of the peak the named cell reached, driven
    /// straight: its unconstrained twin.
    Forcing(String),
}

#[derive(Clone)]
enum Tier {
    Off,
    /// The identity storage profile, no block cache.
    Cacheless,
    /// [`cached_tier`].
    Cached,
    /// [`cached_tier`] with its budget cut to [`tight_cache_bytes`] of the
    /// block files the named cell — its cacheless twin — wrote.
    TightCache(String),
}

/// One engine run as a delta over `paper_scenario(scale, seed)`.
#[derive(Clone)]
struct RunSpec {
    mode: IndexingMode,
    /// Virtual seconds; `None` keeps the scenario's horizon.
    horizon: Option<u64>,
    budget: Budget,
    degradation: Option<DegradationPolicy>,
    faults: Option<FaultPlan>,
    tier: Tier,
    tuner: TunerKind,
}

impl RunSpec {
    fn new(mode: IndexingMode) -> Self {
        RunSpec {
            mode,
            horizon: None,
            budget: Budget::Scenario,
            degradation: None,
            faults: None,
            tier: Tier::Off,
            tuner: TunerKind::default(),
        }
    }

    fn with(mut self, delta: impl FnOnce(&mut RunSpec)) -> Self {
        delta(&mut self);
        self
    }
}

// A few hundred cells, built once: their size is of no account.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Body {
    Run(RunSpec),
    /// Tenants (label, weight, run) of one host with the given global
    /// budget — or, driven straight, each alone with no host anywhere.
    Fleet(MemoryBudget, Vec<(&'static str, u32, RunSpec)>),
    Experiment(Experiment),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Drive {
    Straight,
    /// Straight, a checkpointer snapshotting every `.0` steps.
    Observed(u64),
    /// Snapshotted every `.0` steps and killed at step `.1` — the last
    /// snapshot before it torn in flight when `.2` — then resumed from the
    /// latest good snapshot and run to the end.
    Crashed(u64, u64, bool),
    /// Straight, on a clock running `.0` / 1e6 fast.
    Skewed(u64),
    Hosted,
    /// Hosted; after `.0` quanta every running tenant is suspended to disk
    /// and resumed in a fresh host.
    Migrated(u64),
}

/// One (cell, drive) pair; `again` is the same pair driven a second time,
/// the other side of a replay edge. Displays as `cell[:drive][:again]`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Node {
    cell: String,
    drive: Drive,
    again: bool,
}

impl Node {
    fn via(&self, drive: Drive) -> Node {
        let (cell, again) = (self.cell.clone(), self.again);
        Node { cell, drive, again }
    }

    fn group(&self) -> &str {
        self.cell.split('/').next().unwrap_or_default()
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let drive = match self.drive {
            Straight => "",
            Observed(_) => ":observed",
            Crashed(.., false) => ":resumed",
            Crashed(.., true) => ":torn-resumed",
            Skewed(_) => ":skewed",
            Hosted => ":hosted",
            Migrated(_) => ":migrated",
        };
        let again = if self.again { ":again" } else { "" };
        write!(f, "{}{drive}{again}", self.cell)
    }
}

#[derive(Debug, Clone, Copy)]
enum Modulo {
    Nothing,
    /// The five counters only a block cache produces.
    CacheCounters,
    /// Everything but the join answer: `outputs` and `output_digest`.
    AllButTheAnswer,
}

/// `left ≡ right` modulo `.2`, named `<left>=<right>`.
#[derive(Clone)]
struct Edge(Node, Node, Modulo);

impl Edge {
    fn name(&self) -> String {
        format!("{}={}", self.0, self.1)
    }
}

#[derive(Debug, Clone, Copy)]
enum Must {
    Completes,
    /// No death by memory exhaustion, and output.
    Survives,
    DiesOfOom,
    /// `Completed` iff no block was lost, else `Degraded` with
    /// `lost_tuples > 0`.
    TypesItsLoss,
    // Non-vacuity: what the node's edges claim to carry did happen.
    Retunes,
    /// The restored image already held a retune, and more followed it.
    ResumesMidTuning,
    IsFaulted,
    Sheds,
    SkipsASnapshot,
    Spills,
    HitsTheCache,
    /// The budget bound: a cache that never evicts pins no policy.
    EvictsFromTheCache,
    Checkpoints,
}

/// A predicate over one node's runs, named `<node>:must:<predicate>`.
#[derive(Clone)]
struct Expect(Node, Must);

impl Expect {
    fn name(&self) -> String {
        format!("{}:must:{:?}", self.0, self.1)
    }
}

/// The families every lattice covers; `--only` takes one of them.
pub const GROUPS: [&str; 6] = ["faults", "crash", "spill", "fleet", "duel", "figures"];

/// The table: cells, the edges between their drives, and expectations.
#[derive(Clone)]
pub struct Lattice {
    /// The scenario's seed, and the root of every fault plan's.
    seed: u64,
    /// Name, threads, what to run.
    cells: Vec<(String, usize, Body)>,
    edges: Vec<Edge>,
    expects: Vec<Expect>,
}

impl Lattice {
    fn cell(&mut self, label: &str, threads: usize, body: Body) -> Node {
        let cell = format!("{label}@t{threads}");
        self.cells.push((cell.clone(), threads, body));
        let (drive, again) = (Straight, false);
        Node { cell, drive, again }
    }

    /// The cell at one and at four threads, with its `t4 ≡ t1` edge.
    fn pair(&mut self, label: &str, body: Body) -> [Node; 2] {
        let t1 = self.cell(label, 1, body.clone());
        let t4 = self.cell(label, 4, body);
        self.edge(&t4, &t1, Nothing);
        [t1, t4]
    }

    fn edge(&mut self, left: &Node, right: &Node, modulo: Modulo) {
        self.edges.push(Edge(left.clone(), right.clone(), modulo));
    }

    fn replay(&mut self, node: &Node) {
        let (cell, drive, again) = (node.cell.clone(), node.drive, true);
        self.edge(node, &Node { cell, drive, again }, Nothing);
    }

    fn expect(&mut self, node: &Node, musts: &[Must]) {
        let expects = musts.iter().map(|&must| Expect(node.clone(), must));
        self.expects.extend(expects);
    }

    /// Well-formedness: cell and edge names unique, every endpoint a
    /// defined cell, every family present.
    fn validate(&self) -> Result<(), String> {
        let cells: BTreeSet<&str> = self.cells.iter().map(|c| c.0.as_str()).collect();
        let edges: BTreeSet<String> = self.edges.iter().map(Edge::name).collect();
        if cells.len() < self.cells.len() || edges.len() < self.edges.len() {
            return Err("a cell or an edge is defined twice".into());
        }
        let ends = self.edges.iter().flat_map(|e| [&e.0, &e.1]);
        let ends = ends.chain(self.expects.iter().map(|x| &x.0));
        let mut named = ends.map(|node| &node.cell);
        if let Some(cell) = named.find(|cell| !cells.contains(cell.as_str())) {
            return Err(format!("`{cell}` is named but is not a defined cell"));
        }
        let covered = |g: &&str| self.edges.iter().any(|e| e.0.group() == *g);
        match GROUPS.iter().find(|g| !covered(g)) {
            Some(group) => Err(format!("family `{group}` has no edge")),
            None => Ok(()),
        }
    }
}

/// The lattice for `seed` (DESIGN.md § *The identity lattice*).
pub fn lattice(seed: u64) -> Lattice {
    let (cells, edges, expects) = (Vec::new(), Vec::new(), Vec::new());
    let mut l = Lattice {
        seed,
        cells,
        edges,
        expects,
    };
    faults_family(&mut l);
    crash_family(&mut l);
    spill_family(&mut l);
    fleet_family(&mut l);
    experiment_families(&mut l);
    l
}

/// A governor; at `max_backlog` 8 the quick-scale join bursts hit the cap,
/// so the shedding policy's admit path actually runs.
fn governor(shedding: SheddingPolicy, max_backlog: usize, seed: u64) -> DegradationPolicy {
    let (high_water, low_water) = (0.9, 0.7);
    DegradationPolicy {
        high_water,
        low_water,
        max_backlog,
        shedding,
        seed,
    }
}

/// Scan under 50 MiB: 7 fault plans × 4 shedding policies survive; the
/// mixed plan replays under each policy — observed by a checkpointer too
/// — and under AMRI with either adaptive tuner; the governed run replays
/// on a 20 %-fast clock.
fn faults_family(l: &mut Lattice) {
    let seed = l.seed;
    let plan = |delta: &dyn Fn(&mut FaultPlan)| {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        delta(&mut plan);
        plan
    };
    // Over the governor's high-water mark but under the budget:
    // ungoverned cells ride it out, governed cells degrade through it.
    let spike = |p: &mut FaultPlan| {
        let (from, until) = (VirtualTime::from_secs(30), VirtualTime::from_secs(35));
        let bytes = 49 << 20;
        p.pressure = vec![PressureWindow { from, until, bytes }];
    };
    let late = |p: &mut FaultPlan, prob, secs| {
        (p.late_prob, p.late_by) = (prob, VirtualDuration::from_secs(secs));
    };
    let mixed = plan(&|p| {
        (p.drop_prob, p.duplicate_prob, p.reorder_prob) = (0.05, 0.05, 0.1);
        late(p, 0.05, 1);
        spike(p);
    });
    let plans = [
        ("clean", plan(&|_| {})),
        ("drop", plan(&|p| p.drop_prob = 0.2)),
        ("duplicate", plan(&|p| p.duplicate_prob = 0.2)),
        ("late", plan(&|p| late(p, 0.2, 2))),
        ("reorder", plan(&|p| p.reorder_prob = 0.3)),
        ("pressure", plan(&spike)),
        ("mixed", mixed.clone()),
    ];
    let coin = SheddingPolicy::Probabilistic { drop_prob: 0.5 };
    let policies = [
        ("ungoverned", None),
        ("drop-oldest", Some(SheddingPolicy::DropOldest)),
        ("drop-newest", Some(SheddingPolicy::DropNewest)),
        ("probabilistic", Some(coin)),
    ];
    let under = |mode, plan: &FaultPlan, degradation| {
        RunSpec::new(mode).with(|s| {
            s.budget = Budget::Fixed(MemoryBudget::mib(50));
            (s.faults, s.degradation) = (Some(plan.clone()), degradation);
        })
    };
    for (plan_name, plan) in &plans {
        for (policy_name, shedding) in policies {
            let governed = shedding.map(|s| governor(s, 8, seed));
            let spec = under(IndexingMode::Scan, plan, governed);
            let label = format!("faults/{plan_name}/{policy_name}");
            let [t1, t4] = l.pair(&label, Body::Run(spec));
            let mut musts = vec![Survives];
            musts.extend((!matches!(*plan_name, "clean" | "pressure")).then_some(IsFaulted));
            musts.extend(governed.map(|_| Sheds));
            l.expect(&t1, &musts);
            if *plan_name == "mixed" {
                // MaintenanceStats ride every compare, so a replay that
                // silently re-migrates fails even when the outputs agree.
                l.replay(&t1);
                l.replay(&t4);
                let observed = t1.via(Observed(1000));
                l.edge(&observed, &t1, Nothing);
                l.expect(&observed, &[Checkpoints]);
            }
        }
    }
    for tuner in [TunerKind::Paper, TunerKind::Bandit] {
        let spec = under(amri(AssessorKind::Csria), &mixed, None).with(|s| s.tuner = tuner);
        let label = format!("faults/mixed/amri-{}", tuner.label());
        let [t1, t4] = l.pair(&label, Body::Run(spec));
        l.replay(&t1);
        l.replay(&t4);
        l.expect(&t1, &[Survives, IsFaulted, Retunes]);
    }
    let governed = governor(SheddingPolicy::DropOldest, 512, seed);
    let body = Body::Run(under(IndexingMode::Scan, &mixed, Some(governed)));
    let [t1, t4] = l
        .pair("faults/mixed/governed", body)
        .map(|n| n.via(Skewed(1_200_000)));
    l.edge(&t4, &t1, Nothing);
    l.replay(&t1);
    l.replay(&t4);
    l.expect(&t1, &[Survives, IsFaulted]);
}

/// Three snapshots in, mid-window.
const CRASH: Drive = Crashed(60, 200, false);
const SHORT_SECS: u64 = 8;
/// Long enough for three tuner verdicts, one per 10 s assessment period
/// (an 8 s run ends before the first: it carries a tuner that never
/// decided anything).
const TUNING_SECS: u64 = 32;

/// The four flavors plus AMRI governed and faulted: crash + resume ≡
/// uninterrupted — plain, with the latest snapshot torn, and (the AMRI
/// cells) under the bandit tuner. The AMRI cells crash between their
/// second and third verdict and resume from the snapshot 10 000 steps
/// back (20 000 when that one is torn), so the image holds moved indices,
/// a settled and a pending retune and — under the bandit — the arm
/// statistics, backoff level and RNG word the third verdict depends on.
fn crash_family(l: &mut Lattice) {
    let seed = l.seed;
    // The governor's counters and RNG and the injector's pending queues
    // ride the snapshot too: the hardest image to restore. Dropped
    // arrivals make every verdict land a third of the steps earlier.
    let perturb = |s: &mut RunSpec| {
        s.degradation = Some(governor(SheddingPolicy::DropOldest, 8, seed));
        let mut plan = FaultPlan {
            seed: seed ^ 0x5eed,
            ..FaultPlan::default()
        };
        (plan.drop_prob, plan.duplicate_prob, plan.reorder_prob) = (0.05, 0.05, 0.15);
        (plan.late_prob, plan.late_by) = (0.1, VirtualDuration::from_secs(2));
        s.faults = Some(plan);
    };
    let tuning = |tuner| {
        let spec = RunSpec::new(amri(AssessorKind::Csria));
        spec.with(|s| (s.horizon, s.tuner) = (Some(TUNING_SECS), tuner))
    };
    let short = |mode| RunSpec::new(mode).with(|s| s.horizon = Some(SHORT_SECS));
    let mut cells: Vec<(&str, RunSpec, u64)> = Vec::new();
    for (label, mode) in lineup() {
        match mode {
            IndexingMode::Amri { .. } => cells.push((label, tuning(TunerKind::Paper), 50_000)),
            mode => cells.push((label, short(mode), 0)),
        }
    }
    let faulted = |tuner| tuning(tuner).with(perturb);
    cells.push(("amri-governed-faulted", faulted(TunerKind::Paper), 33_000));
    cells.push(("amri-bandit", tuning(TunerKind::Bandit), 50_000));
    cells.push((
        "amri-governed-faulted-bandit",
        faulted(TunerKind::Bandit),
        33_000,
    ));
    for (label, spec, at) in cells {
        let tuned = at > 0;
        // The short cells crash where every 8 s cell does: see `CRASH`.
        let crashed = |torn| {
            if tuned {
                Crashed(10_000, at, torn)
            } else {
                Crashed(60, 200, torn)
            }
        };
        let [t1, t4] = l.pair(&format!("crash/{label}"), Body::Run(spec.clone()));
        let mut resumed = vec![t1.via(crashed(false)), t4.via(crashed(false))];
        if spec.tuner == TunerKind::Paper {
            resumed.push(t1.via(crashed(true)));
            l.expect(&resumed[2], &[SkipsASnapshot]);
        }
        for node in &resumed {
            l.edge(node, &node.via(Straight), Nothing);
            if tuned {
                l.expect(node, &[ResumesMidTuning]);
            }
        }
        if tuned {
            l.expect(&t1, &[Retunes]);
        }
        match spec.faults {
            Some(_) => l.expect(&t1, &[Survives, IsFaulted, Sheds]),
            None => l.expect(&t1, &[Completes]),
        }
    }
}

/// Per flavor: unconstrained completes; the forcing budget kills the
/// all-RAM run; the same budget with a tier completes with the
/// unconstrained answer; a block cache — roomy, or tight enough that it
/// must evict — changes only its own counters; crash + resume is invisible
/// with the tier, cached or not; a disk-fault storm ends typed and replays.
fn spill_family(l: &mut Lattice) {
    let mut storm = FaultPlan {
        seed: l.seed ^ 0xD15C,
        ..FaultPlan::default()
    };
    (storm.io.torn_write_prob, storm.io.read_error_prob) = (0.25, 0.5);
    (storm.io.latency_spike_prob, storm.io.spike_ns) = (0.25, 50_000);
    for (flavor, mode) in lineup() {
        let mut at_t1: Vec<Node> = Vec::new();
        for threads in [1, 4] {
            let free = RunSpec::new(mode.clone()).with(|s| {
                s.horizon = Some(SHORT_SECS);
                s.budget = Budget::Fixed(MemoryBudget::unlimited());
            });
            let twin = format!("spill/{flavor}/unconstrained@t{threads}");
            let starved = free.clone().with(|s| s.budget = Budget::Forcing(twin));
            let with = |tier, faults: Option<&FaultPlan>| {
                starved
                    .clone()
                    .with(|s| (s.tier, s.faults) = (tier, faults.cloned()))
            };
            let cell = |l: &mut Lattice, variant: &str, spec| {
                l.cell(
                    &format!("spill/{flavor}/{variant}"),
                    threads,
                    Body::Run(spec),
                )
            };
            let free = cell(l, "unconstrained", free);
            let dead = cell(l, "starved", starved.clone());
            let spilled = cell(l, "spilled", with(Tier::Cacheless, None));
            let cached = cell(l, "cached", with(Tier::Cached, None));
            let stormed = cell(l, "storm", with(Tier::Cacheless, Some(&storm)));
            let cached_stormed = cell(l, "cached-storm", with(Tier::Cached, Some(&storm)));
            let tight = || Tier::TightCache(format!("spill/{flavor}/spilled@t{threads}"));
            let tight_cached = cell(l, "tight-cache", with(tight(), None));
            let tight_stormed = cell(l, "tight-cache-storm", with(tight(), Some(&storm)));

            l.expect(&free, &[Completes]);
            l.expect(&dead, &[DiesOfOom]);
            l.expect(&spilled, &[Completes, Spills]);
            l.expect(&cached, &[HitsTheCache]);
            l.expect(&tight_cached, &[HitsTheCache, EvictsFromTheCache]);
            l.edge(&spilled, &free, AllButTheAnswer);
            l.edge(&cached, &spilled, CacheCounters);
            l.edge(&tight_cached, &spilled, CacheCounters);
            for node in [&spilled, &cached, &tight_cached] {
                l.edge(&node.via(CRASH), node, Nothing);
            }
            for node in [&stormed, &cached_stormed, &tight_stormed] {
                l.replay(node);
                l.expect(node, &[TypesItsLoss, Spills]);
            }
            let nodes = [
                free,
                dead,
                spilled,
                cached,
                stormed,
                cached_stormed,
                tight_cached,
                tight_stormed,
            ];
            for (t4, t1) in nodes.iter().zip(&at_t1) {
                l.edge(t4, t1, Nothing);
            }
            at_t1.extend(nodes);
        }
    }
}

/// Four 8 MiB tenants under a 24 MiB host, so one queues at admission:
/// hosted ≡ solo ≡ migrated after 24 quanta (deep enough that every
/// running tenant has in-flight state).
fn fleet_family(l: &mut Lattice) {
    let tenant = |(label, weight, mode)| {
        let spec = RunSpec::new(mode).with(|s| {
            s.horizon = Some(SHORT_SECS);
            s.budget = Budget::Fixed(MemoryBudget::mib(8));
        });
        (label, weight, spec)
    };
    let tenants = fleet_lineup().into_iter().map(tenant).collect();
    let solo = l.pair("fleet/lineup", Body::Fleet(MemoryBudget::mib(24), tenants));
    let [hosted_t1, hosted_t4] = solo.each_ref().map(|solo| {
        let hosted = solo.via(Hosted);
        l.edge(&hosted, solo, Nothing);
        l.edge(&solo.via(Migrated(24)), &hosted, Nothing);
        hosted
    });
    l.edge(&hosted_t4, &hosted_t1, Nothing);
    l.expect(&solo[0], &[Completes]);
}

/// The tuner duel and the three figure lineups: t4 ≡ t1, and for the
/// figures t4 ≡ t4 again (thread scheduling is unobservable).
fn experiment_families(l: &mut Lattice) {
    let duel: Experiment = |scale, seed, threads| {
        let cells = tuner_duel(scale, seed, threads);
        cells.into_iter().map(|c| (c.run, c.maint)).collect()
    };
    let fig7: Experiment = |scale, seed, threads| {
        let f = fig7_compare(scale, seed, threads);
        let runs = [f.amri, f.best_hash, f.bitmap];
        runs.into_iter().zip(f.maint).collect()
    };
    let [t1, _] = l.pair("duel/lineup", Body::Experiment(duel));
    l.expect(&t1, &[Retunes]);
    let figures: [(&str, Experiment); 3] = [
        ("figures/fig6-assessment", fig6_assessment_with_stats),
        ("figures/fig6-hash", fig6_hash_with_stats),
        ("figures/fig7-compare", fig7),
    ];
    for (label, lineup) in figures {
        let [_, t4] = l.pair(label, Body::Experiment(lineup));
        l.replay(&t4);
    }
}

/// What driving a node produced: one run, or one per tenant or lineup
/// member, plus what the checkpointing drives saw.
#[derive(Default)]
struct Outcome {
    runs: Vec<Run>,
    checkpoints: u64,
    skipped: u64,
    /// Retunes already in the image a crashed run resumed from.
    retunes_restored: u64,
}

/// A node's outcome, or why it could not be driven.
type Driven = Result<Outcome, String>;

impl Outcome {
    fn of(runs: Vec<Run>) -> Outcome {
        Outcome {
            runs,
            ..Outcome::default()
        }
    }

    fn check(&self, must: Must) -> Result<(), String> {
        let all = |holds: &dyn Fn(&RunResult) -> bool| {
            let Some((r, _)) = self.runs.iter().find(|(r, _)| !holds(r)) else {
                return Ok(());
            };
            let (label, outcome, outputs, spill) = (&r.label, r.outcome, r.outputs, r.spill);
            Err(format!(
                "`{label}` ended {outcome:?}, {outputs} outputs, {spill:?}"
            ))
        };
        let sum = |f: &dyn Fn(&RunResult) -> u64| self.runs.iter().map(|(r, _)| f(r)).sum::<u64>();
        let some = |what: &str, count: u64| match count {
            0 => Err(format!("vacuous: {what} = 0")),
            _ => Ok(()),
        };
        let retunes = sum(&|r| r.retunes.len() as u64);
        let oom = |r: &RunResult| matches!(r.outcome, RunOutcome::OutOfMemory { .. });
        let lost = |r: &RunResult| match r.outcome {
            RunOutcome::Degraded { lost_tuples, .. } => lost_tuples,
            _ => 0,
        };
        match must {
            Completes => all(&|r| r.outcome == RunOutcome::Completed),
            Survives => all(&|r| !oom(r) && r.outputs > 0),
            DiesOfOom => all(&oom),
            TypesItsLoss => all(&|r| !oom(r) && (r.spill.lost_blocks > 0) == (lost(r) > 0)),
            Retunes => some("retunes", retunes),
            ResumesMidTuning => {
                some("retunes in the restored image", self.retunes_restored)?;
                let after = retunes.saturating_sub(self.retunes_restored);
                some("retunes after the resumed-from step", after)
            }
            IsFaulted => some("faults.total()", sum(&|r| r.faults.total())),
            Sheds => {
                let shed = sum(&|r| r.degradation.shed_jobs + r.degradation.evicted_tuples);
                some("shed_jobs + evicted_tuples", shed)
            }
            SkipsASnapshot => some("snapshots skipped", self.skipped),
            Spills => some("spilled_tuples", sum(&|r| r.spill.spilled_tuples)),
            HitsTheCache => some("cache_hits", sum(&|r| r.spill.cache_hits)),
            EvictsFromTheCache => some("cache_evictions", sum(&|r| r.spill.cache_evictions)),
            Checkpoints => some("checkpoints_taken", self.checkpoints),
        }
    }

    /// The comparer's view of a node: every run's result and maintenance
    /// stats, Debug-rendered after the edge's normaliser.
    fn render(&self, modulo: Modulo) -> String {
        let one = |(r, m): &Run| match modulo {
            Nothing => format!("{r:#?}\n{m:#?}\n"),
            CacheCounters => format!("{:#?}\n{m:#?}\n", without_cache_counters(r.clone())),
            AllButTheAnswer => format!("{:?}\n", (r.outputs, r.output_digest)),
        };
        self.runs.iter().map(one).collect()
    }

    fn answers(&self) -> String {
        let pair = |(r, _): &Run| format!("({}, {:#018x})", r.outputs, r.output_digest);
        self.runs.iter().map(pair).collect::<Vec<_>>().join(" ")
    }
}

/// The one comparer: `None` when the edge holds, else the violation —
/// the edge's name, both sides' (outputs, digest) pairs and the first
/// render line that differs.
fn compare(edge: &Edge, left: &Driven, right: &Driven) -> Option<String> {
    let (name, m) = (edge.name(), edge.2);
    let (l, r) = match (left, right) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) => return Some(format!("{name}: {} did not run: {e}", edge.0)),
        (_, Err(e)) => return Some(format!("{name}: {} did not run: {e}", edge.1)),
    };
    let (a, b) = (l.render(m), r.render(m));
    let mut lines = a.lines().zip(b.lines()).enumerate();
    let (at, (x, y)) = match lines.find(|(_, (x, y))| x != y) {
        None if a.len() == b.len() => return None,
        None => (a.lines().count().min(b.lines().count()), ("", "")),
        Some(differ) => differ,
    };
    let (x, y, at, l, r) = (x.trim(), y.trim(), at + 1, l.answers(), r.answers());
    Some(format!(
        "{name}: differ modulo {m:?}: (outputs, digest) {l} vs {r}; render line {at}: `{x}` vs `{y}`"
    ))
}

/// Drives nodes, each at most once, under one scratch directory.
struct Runner<'a> {
    lattice: &'a Lattice,
    scale: Scale,
    root: PathBuf,
    memo: BTreeMap<Node, Rc<Driven>>,
}

impl<'a> Runner<'a> {
    /// The scratch root is per runner (spill files, snapshots and
    /// suspended tenants land under it) and created on first use.
    fn new(lattice: &'a Lattice, scale: Scale) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let (pid, n) = (std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        let root = std::env::temp_dir().join(format!("amri-lattice-{pid}-{n}"));
        let memo = BTreeMap::new();
        Runner {
            lattice,
            scale,
            root,
            memo,
        }
    }

    /// The scratch policy: removed on green; kept, and returned for the
    /// caller to print, on red.
    fn close(self, green: bool) -> Option<PathBuf> {
        if green {
            std::fs::remove_dir_all(&self.root).ok();
        }
        (!green).then_some(self.root)
    }

    /// Where the node's drive keeps its spill files and snapshots.
    fn dir_of(&self, node: &Node) -> PathBuf {
        self.root.join(node.to_string().replace('/', "_"))
    }

    /// The node's outcome, driving it if nothing has yet.
    fn outcome(&mut self, node: &Node) -> Rc<Driven> {
        if let Some(done) = self.memo.get(node) {
            return Rc::clone(done);
        }
        let driven = Rc::new(self.drive(node));
        self.memo.insert(node.clone(), Rc::clone(&driven));
        driven
    }

    /// The named cell driven straight — a twin some other cell's
    /// configuration is derived from — and its outcome.
    fn straight(&mut self, cell: &str) -> (Node, Rc<Driven>) {
        let (cell, drive, again) = (cell.to_string(), Straight, false);
        let node = Node { cell, drive, again };
        let driven = self.outcome(&node);
        (node, driven)
    }

    fn drive(&mut self, node: &Node) -> Driven {
        let lattice = self.lattice;
        let cell = lattice.cells.iter().find(|c| c.0 == node.cell);
        let (_, threads, body) = cell.ok_or_else(|| format!("no cell named `{}`", node.cell))?;
        let threads = NonZeroUsize::new(*threads).ok_or("a cell needs a thread")?;
        let dir = self.dir_of(node);
        let (budget, tenants) = match (body, node.drive) {
            (Body::Experiment(run), Straight) => {
                return Ok(Outcome::of(run(self.scale, lattice.seed, threads)));
            }
            (Body::Run(spec), drive) => {
                let sc = self.scenario(spec, threads, &dir)?;
                return drive_one(&sc, &spec.mode, drive, &dir);
            }
            (Body::Fleet(budget, tenants), Straight | Hosted | Migrated(_)) => (*budget, tenants),
            (_, drive) => return Err(format!("{drive:?} does not apply to this cell")),
        };
        let mut solo = Vec::new();
        let mut cells = Vec::new();
        for (label, weight, spec) in tenants {
            let sc = self.scenario(spec, threads, &dir)?;
            let mode = spec.mode.clone();
            match node.drive {
                Straight => solo.extend(drive_one(&sc, &mode, Straight, &dir)?.runs),
                _ => cells.push(FleetCell::new(*label, *weight, move || {
                    Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone())
                })),
            }
        }
        let host = HostConfig {
            budget,
            ..HostConfig::default()
        };
        let outcomes = match node.drive {
            Migrated(after) => run_fleet_migrated(&cells, host, after, &dir.join("suspended")),
            Hosted => run_fleet(&cells, host),
            _ => return Ok(Outcome::of(solo)),
        };
        let outcomes = outcomes.map_err(|e| e.to_string())?;
        Ok(Outcome::of(
            outcomes.into_iter().map(|o| (o.result, o.maint)).collect(),
        ))
    }

    /// `paper_scenario(scale, seed)` with the spec's delta applied; a
    /// forcing budget drives (or reuses) the unconstrained twin first.
    fn scenario(
        &mut self,
        spec: &RunSpec,
        threads: NonZeroUsize,
        dir: &Path,
    ) -> Result<PaperScenario, String> {
        let mut sc = paper_scenario(self.scale, self.lattice.seed);
        let engine = &mut sc.engine;
        if let Some(secs) = spec.horizon {
            engine.duration = VirtualDuration::from_secs(secs);
        }
        match &spec.budget {
            Budget::Scenario => {}
            Budget::Fixed(budget) => engine.budget = *budget,
            Budget::Forcing(twin) => {
                let peak = match self.straight(twin).1.as_ref() {
                    Ok(o) => o.runs.iter().map(|(r, _)| r.series.peak_memory()).max(),
                    Err(e) => return Err(format!("`{twin}` did not run: {e}")),
                };
                let bytes = forcing_budget(&spec.mode, peak.unwrap_or(0));
                engine.budget = MemoryBudget { bytes };
            }
        }
        engine.degradation = spec.degradation;
        engine.faults = spec.faults.clone();
        engine.tuner_kind = spec.tuner;
        engine.spill = match &spec.tier {
            Tier::Off => None,
            Tier::Cacheless => Some(SpillSettings::in_dir(dir.join("spill"))),
            Tier::Cached => Some(cached_tier(&dir.join("spill"))),
            Tier::TightCache(twin) => {
                let (twin, driven) = self.straight(twin);
                if let Err(e) = driven.as_ref() {
                    return Err(format!("`{twin}` did not run: {e}"));
                }
                let files = std::fs::read_dir(self.dir_of(&twin).join("spill"));
                let files = files.map_err(|e| format!("`{twin}` left no spill directory: {e}"))?;
                let lens: Vec<u64> = files
                    .filter_map(|f| Some(f.ok()?.metadata().ok()?.len()))
                    .collect();
                let bytes = tight_cache_bytes(lens.iter().sum(), lens.len() as u64);
                Some(cached_tier(&dir.join("spill")).with_cache_bytes(bytes))
            }
        };
        apply_threads(engine, threads);
        Ok(sc)
    }
}

/// One engine run of `sc` in `mode` under `drive`.
fn drive_one(sc: &PaperScenario, mode: &IndexingMode, drive: Drive, dir: &Path) -> Driven {
    let exec = || {
        let exec = Executor::try_new(&sc.query, sc.workload(), mode.clone(), sc.engine.clone());
        exec.map_err(|e| e.to_string())
    };
    let snapshots = dir.join("snapshots");
    match drive {
        Straight => Ok(Outcome::of(vec![exec()?.run_with_stats()])),
        Skewed(rate_ppm) => {
            let clock = SkewedClock::new(VirtualClock::new(), rate_ppm);
            let pipeline = exec()?.into_pipeline_with_clock(clock);
            Ok(Outcome::of(vec![pipeline.run_with_stats()]))
        }
        Observed(every) => {
            let observed = run_checkpointed(exec()?, &snapshots, every);
            let (result, note, maint) = observed.map_err(|e| e.to_string())?;
            Ok(Outcome {
                checkpoints: note.checkpoints_taken,
                ..Outcome::of(vec![(result, maint)])
            })
        }
        Crashed(every, at, torn) => {
            let mut faults = vec![FaultKind::CrashAt { step: at }];
            if torn {
                // Snapshots land at every, 2·every, … < at; tear the last
                // of them (0-based sequence).
                let (snapshot, mode) = (((at - 1) / every).saturating_sub(1), TornMode::Truncate);
                faults.push(FaultKind::TornWrite { snapshot, mode });
            }
            let crashed = run_until_crash(exec()?, &snapshots, every, faults);
            let (step, checkpoints) = crashed.map_err(|e| format!("crash run: {e}"))?;
            if step != at {
                return Err(format!("armed to crash at step {at}, died at {step}"));
            }
            let resumed = resume_latest(exec()?, &snapshots).map_err(|e| format!("resume: {e}"))?;
            let skipped = resumed.report.skipped.len() as u64;
            let retunes_restored = resumed.retunes_restored as u64;
            let runs = vec![(resumed.result, resumed.maint)];
            Ok(Outcome {
                runs,
                checkpoints,
                skipped,
                retunes_restored,
            })
        }
        Hosted | Migrated(_) => Err(format!("{drive:?} needs a fleet")),
    }
}

/// What [`check`] found.
#[derive(Debug)]
pub struct Report {
    /// Edges and expectations checked.
    pub checked: usize,
    /// Distinct (cell, drive) nodes driven for them.
    pub drives: usize,
    /// Every violated edge or expectation, by name.
    pub violations: Vec<String>,
    /// The scratch directory, kept because something was violated.
    pub kept: Option<PathBuf>,
}

/// Check the lattice at `scale` — all of it, or with `only` the group,
/// edge (with the expectations on its endpoints) or expectation so named
/// — passing one line per edge and expectation to `say`.
///
/// # Errors
/// A malformed table, or an `only` that names nothing.
pub fn check(
    lattice: &Lattice,
    scale: Scale,
    only: Option<&str>,
    mut say: impl FnMut(&str),
) -> Result<Report, String> {
    lattice.validate()?;
    let picked = |node: &Node, name: &str| only.is_none_or(|o| o == node.group() || o == name);
    let edges = lattice.edges.iter().filter(|e| picked(&e.0, &e.name()));
    let edges: Vec<&Edge> = edges.collect();
    let named = edges.iter().filter(|e| only == Some(e.name().as_str()));
    let ends: Vec<&Node> = named.flat_map(|e| [&e.0, &e.1]).collect();
    let expects = lattice.expects.iter();
    let expects = expects.filter(|x| picked(&x.0, &x.name()) || ends.contains(&&x.0));
    let expects: Vec<&Expect> = expects.collect();
    if let (Some(o), 0) = (only, edges.len() + expects.len()) {
        let groups = GROUPS.join(", ");
        return Err(format!(
            "nothing is named `{o}` (groups: {groups}; a full run prints every name)"
        ));
    }

    let mut runner = Runner::new(lattice, scale);
    let mut violations = Vec::new();
    let mut verdict = |name: String, violation: Option<String>| match violation {
        None => say(&format!("ok    {name}")),
        Some(violation) => {
            say(&format!("FAIL  {violation}"));
            violations.push(violation);
        }
    };
    for edge in &edges {
        let (left, right) = (runner.outcome(&edge.0), runner.outcome(&edge.1));
        let ok = format!("{} (modulo {:?})", edge.name(), edge.2);
        verdict(ok, compare(edge, &left, &right));
    }
    for expect in &expects {
        let held = match runner.outcome(&expect.0).as_ref() {
            Ok(outcome) => outcome.check(expect.1),
            Err(e) => Err(format!("did not run: {e}")),
        };
        let name = expect.name();
        verdict(name.clone(), held.err().map(|why| format!("{name}: {why}")));
    }
    let (checked, drives) = (edges.len() + expects.len(), runner.memo.len());
    let kept = runner.close(violations.is_empty());
    Ok(Report {
        checked,
        drives,
        violations,
        kept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(l: &Lattice) -> BTreeSet<String> {
        let expects = l.expects.iter().map(Expect::name);
        l.edges.iter().map(Edge::name).chain(expects).collect()
    }

    #[test]
    fn the_table_is_well_formed_and_holds_every_family() {
        let l = lattice(42);
        l.validate().unwrap();
        let names = names(&l);
        // One edge or expectation of each family of DESIGN's table.
        for name in [
            "faults/drop/drop-oldest@t1:must:Survives",
            "faults/mixed/probabilistic@t1=faults/mixed/probabilistic@t1:again",
            "faults/mixed/drop-newest@t1:observed=faults/mixed/drop-newest@t1",
            "faults/mixed/amri-paper@t4=faults/mixed/amri-paper@t4:again",
            "faults/mixed/amri-bandit@t1:must:Retunes",
            "faults/mixed/governed@t1:skewed=faults/mixed/governed@t1:skewed:again",
            "crash/amri-governed-faulted@t1:resumed=crash/amri-governed-faulted@t1",
            "crash/scan@t1:torn-resumed:must:SkipsASnapshot",
            "crash/amri-bandit@t1:resumed:must:ResumesMidTuning",
            "spill/hash-3/starved@t1:must:DiesOfOom",
            "spill/hash-3/spilled@t1=spill/hash-3/unconstrained@t1",
            "spill/scan/cached@t4=spill/scan/spilled@t4",
            "spill/scan/cached@t1:must:HitsTheCache",
            "spill/amri/cached@t1:resumed=spill/amri/cached@t1",
            "spill/static-bitmap/cached-storm@t1:must:TypesItsLoss",
            "spill/static-bitmap/storm@t1=spill/static-bitmap/storm@t1:again",
            "spill/hash-3/tight-cache@t4=spill/hash-3/spilled@t4",
            "spill/scan/tight-cache@t1:must:EvictsFromTheCache",
            "spill/amri/tight-cache@t1:resumed=spill/amri/tight-cache@t1",
            "spill/static-bitmap/tight-cache-storm@t4=spill/static-bitmap/tight-cache-storm@t4:again",
            "spill/scan/tight-cache-storm@t1:must:TypesItsLoss",
            "fleet/lineup@t1:hosted=fleet/lineup@t1",
            "fleet/lineup@t1:migrated=fleet/lineup@t1:hosted",
            "duel/lineup@t4=duel/lineup@t1",
            "figures/fig6-hash@t4=figures/fig6-hash@t1",
            "figures/fig7-compare@t4=figures/fig7-compare@t4:again",
        ] {
            assert!(names.contains(name), "the table lost `{name}`");
        }
        // Thread count is a dimension: every cell at t1 has its t4 ≡ t1 edge.
        for (t1, ..) in l.cells.iter().filter(|c| c.1 == 1) {
            let t4 = t1.replace("@t1", "@t4");
            let agree = |e: &Edge| e.0.cell == t4 && e.1.cell == *t1 && e.1.drive == Straight;
            assert!(l.edges.iter().any(agree), "`{t1}` has no t4 ≡ t1 edge");
        }
        let mut dangling = l.clone();
        dangling.edges[0].1.cell.push('x');
        assert!(dangling
            .validate()
            .unwrap_err()
            .contains("not a defined cell"));
        let mut doubled = l.clone();
        doubled.edges.push(l.edges[0].clone());
        assert!(doubled.validate().unwrap_err().contains("twice"));
        let mut partial = l;
        partial.edges.retain(|e| e.0.group() != "fleet");
        assert_eq!(partial.validate(), Err("family `fleet` has no edge".into()));
    }

    /// The harness can fail: a side built from another seed breaks its
    /// edge by name with both answers, and a cell made vacuous — the 8 s
    /// bandit run the crash bin used to carry — trips its expectation.
    #[test]
    fn a_wrong_seed_side_and_a_vacuous_cell_are_violations() {
        let (l, other) = (lattice(42), lattice(43));
        let name = "crash/scan@t4=crash/scan@t1";
        let edge = l.edges.iter().find(|e| e.name() == name).unwrap();
        let (mut right_seed, mut wrong_seed) = (
            Runner::new(&l, Scale::Quick),
            Runner::new(&other, Scale::Quick),
        );
        let left = right_seed.outcome(&edge.0);
        assert_eq!(compare(edge, &left, &right_seed.outcome(&edge.1)), None);
        let wrong = wrong_seed.outcome(&edge.1);
        let violation = compare(edge, &left, &wrong).expect("two seeds, two answers");
        assert!(violation.starts_with(&format!("{name}: ")), "{violation}");
        for side in [&left, &wrong] {
            let answers = side.as_ref().as_ref().unwrap().answers();
            assert!(violation.contains(&answers), "{violation} lacks {answers}");
        }

        let mut vacuous = l.clone();
        let bandit = vacuous
            .cells
            .iter_mut()
            .find(|c| c.0 == "crash/amri-bandit@t1");
        let Some((_, _, Body::Run(spec))) = bandit else {
            panic!("the bandit crash cell is an engine run");
        };
        spec.horizon = Some(SHORT_SECS);
        let only = "crash/amri-bandit@t1:must:Retunes";
        let report = check(&vacuous, Scale::Quick, Some(only), |_| {}).unwrap();
        assert_eq!(report.violations, [format!("{only}: vacuous: retunes = 0")]);
        assert!(
            report.kept.is_some(),
            "a red run keeps its scratch for the post-mortem"
        );
        std::fs::remove_dir_all(report.kept.unwrap()).ok();
    }

    /// Exercises every crash drive without the release bin, and counts
    /// drives: a node many edges share is driven once.
    #[test]
    fn the_crash_family_is_green_and_drives_each_node_once() {
        let l = lattice(42);
        let crash: Vec<&Edge> = l.edges.iter().filter(|e| e.0.group() == "crash").collect();
        let nodes: BTreeSet<&Node> = crash.iter().flat_map(|e| [&e.0, &e.1]).collect();
        let shared = |e: &&&Edge| e.1.to_string() == "crash/scan@t1";
        assert_eq!(
            crash.iter().filter(shared).count(),
            3,
            "t4, resumed, torn-resumed"
        );
        let mut lines = 0;
        let report = check(&l, Scale::Quick, Some("crash"), |_| lines += 1).unwrap();
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.drives, nodes.len(), "{report:?}");
        assert_eq!((report.checked, report.kept), (lines, None));
    }
}
