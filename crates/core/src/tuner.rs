//! The online index tuner: periodically turn assessment statistics into a
//! (possibly) better index configuration.
//!
//! There is one [`Tuner`] and one decision loop ([`Tuner::maybe_retune`]):
//! gate on period and volume, ask the assessor for the θ-frequent access
//! patterns, settle the previous retune against the fresh window, accrue
//! regret versus the seed configuration, pick a candidate, and migrate if
//! it clears the gates. [`TunerKind`] selects the policy, and the policies
//! differ at four points of that loop only:
//!
//! * **Paper** — the paper's tuner (§IV). The candidate is the greedy
//!   selection over the window's frequent patterns and the only gate is
//!   the hysteresis margin, so it migrates immediately. Fast to adapt,
//!   but under adversarial drift the migration cost can exceed the
//!   benefit and the index thrashes.
//! * **Bandit** — the safe tuner. Index configurations are bandit arms
//!   (the static seed IC is always an arm); every decision point the
//!   [what-if evaluator](crate::whatif) prices *all* arms against the
//!   observed window, exploration is seeded and deterministic, and three
//!   safety mechanisms throttle migration: a candidate must beat the
//!   incumbent by its amortized migration cost over a configurable
//!   horizon, a retune whose realized benefit misses its what-if
//!   prediction triggers exponential backoff, and cumulative realized
//!   regret crossing a bound forces a hard, permanent fallback to the
//!   static IC ("DBA bandits", PAPERS.md).
//! * **Static** — the oracle-less baseline: the seed IC, forever. It
//!   holds no assessor, records nothing and never decides.
//!
//! Every policy keeps a [`TuneLedger`] — cumulative predicted and
//! realized retune benefit plus realized regret versus the static seed
//! IC, in virtual nanoseconds (all zero under the static policy) — so
//! thrash is observable in every run's maintenance columns, not just the
//! duel benchmark. All decisions are taken on the engine's sequential
//! tuning path and the bandit's RNG is a serialized `u64` stream, so the
//! same seed yields byte-identical decisions at any thread count and
//! across checkpoint/restore.

use crate::assess::{Assessor, AssessorKind};
use crate::config::IndexConfig;
use crate::cost::CostParams;
use crate::error::CoreError;
use crate::selection::select_config_greedy_capped;
use crate::snapshot_io::{expect_tag, SectionReader, SectionWriter, SnapshotError};
use crate::whatif::{self, WindowObservation};
use amri_stream::coin::splitmix64;
use amri_stream::{AccessPattern, VirtualDuration, VirtualTime};

/// Which tuning policy drives a state's index configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TunerKind {
    /// The paper's greedy tuner: re-optimize from frequent patterns and
    /// migrate whenever the hysteresis margin clears.
    #[default]
    Paper,
    /// The safe bandit tuner: what-if priced arms, amortized-migration
    /// throttling, miss-triggered backoff, bounded regret.
    Bandit,
    /// No tuning: the seed configuration is pinned for the whole run.
    Static,
}

impl TunerKind {
    /// Stable lower-case label (CLI flag values, CSV fields).
    pub fn label(&self) -> &'static str {
        match self {
            TunerKind::Paper => "paper",
            TunerKind::Bandit => "bandit",
            TunerKind::Static => "static",
        }
    }

    /// Parse a [`label`](Self::label); `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(TunerKind::Paper),
            "bandit" => Some(TunerKind::Bandit),
            "static" => Some(TunerKind::Static),
            _ => None,
        }
    }
}

/// Tuner parameters.
#[derive(Debug, Clone, Copy)]
pub struct TunerConfig {
    /// Frequency threshold θ for reported patterns.
    pub theta: f64,
    /// Error rate ε of the compact assessment methods.
    pub epsilon: f64,
    /// Virtual time between tuning decisions.
    pub assess_period: VirtualDuration,
    /// Minimum requests in a window before a decision is attempted.
    pub min_requests: u64,
    /// Required relative `C_D` improvement before migrating, amortizing the
    /// migration cost (0.05 = new config must be ≥5% cheaper).
    pub hysteresis: f64,
    /// Total bucket-id bits the selected configurations use.
    pub total_bits: u32,
    /// Per-attribute cap on selected bits: bounds the worst-case wildcard
    /// walk of a probe that misses an indexed attribute at `2^cap` buckets
    /// (robustness against abrupt access-pattern changes, §I-B).
    pub max_bits_per_attr: u8,
    /// Seed for randomized assessment strategies and the bandit's
    /// exploration stream.
    pub seed: u64,
    /// Bandit only: decision windows a candidate's priced advantage must
    /// persist for to amortize one migration — the candidate must beat
    /// the incumbent by `migration_cost / (horizon_windows ·
    /// assess_period)` per second before the bandit moves.
    pub horizon_windows: u32,
    /// Bandit only: hard-fallback bound. When cumulative realized regret
    /// versus the static seed IC exceeds this fraction of the static
    /// IC's own cumulative priced cost, the bandit permanently reverts
    /// to the static configuration.
    pub regret_bound_frac: f64,
    /// Bandit only: seeded ε-greedy exploration — roughly one decision
    /// in `explore_one_in` considers a uniformly random arm instead of
    /// the cheapest-priced one (the migration gates still apply).
    pub explore_one_in: u32,
    /// Bandit only: bound on the arm set (the static arm is never
    /// evicted; the worst-priced challenger goes first).
    pub max_arms: usize,
}

impl Default for TunerConfig {
    /// The paper's experimental settings: θ=0.1, ε(max error δ)=0.05,
    /// 64-bit configurations. Bandit knobs: 4-window migration horizon,
    /// 15% regret bound, 1-in-7 exploration, 8 arms.
    fn default() -> Self {
        TunerConfig {
            theta: 0.1,
            epsilon: 0.05,
            assess_period: VirtualDuration::from_secs(30),
            min_requests: 100,
            hysteresis: 0.02,
            total_bits: 64,
            max_bits_per_attr: crate::selection::MAX_BITS_PER_ATTR,
            seed: 0xA3_15_57,
            horizon_windows: 4,
            regret_bound_frac: 0.15,
            explore_one_in: 7,
            max_arms: 8,
        }
    }
}

impl TunerConfig {
    /// Validate parameter ranges.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(CoreError::InvalidParameter(format!(
                "theta {} outside [0,1]",
                self.theta
            )));
        }
        if !(0.0 < self.epsilon && self.epsilon < 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "epsilon {} outside (0,1)",
                self.epsilon
            )));
        }
        if self.epsilon >= self.theta {
            return Err(CoreError::InvalidParameter(format!(
                "epsilon {} must be below theta {}",
                self.epsilon, self.theta
            )));
        }
        if self.assess_period.is_zero() {
            return Err(CoreError::InvalidParameter("zero assess_period".into()));
        }
        if !(0.0..1.0).contains(&self.hysteresis) {
            return Err(CoreError::InvalidParameter(format!(
                "hysteresis {} outside [0,1)",
                self.hysteresis
            )));
        }
        if self.total_bits > 64 {
            return Err(CoreError::InvalidParameter(format!(
                "total_bits {} exceeds 64",
                self.total_bits
            )));
        }
        if self.horizon_windows == 0 {
            return Err(CoreError::InvalidParameter("zero horizon_windows".into()));
        }
        if !(self.regret_bound_frac >= 0.0 && self.regret_bound_frac.is_finite()) {
            return Err(CoreError::InvalidParameter(format!(
                "regret_bound_frac {} must be finite and >= 0",
                self.regret_bound_frac
            )));
        }
        if self.explore_one_in == 0 {
            return Err(CoreError::InvalidParameter("zero explore_one_in".into()));
        }
        if self.max_arms < 2 {
            return Err(CoreError::InvalidParameter(format!(
                "max_arms {} must be at least 2 (static + one challenger)",
                self.max_arms
            )));
        }
        Ok(())
    }
}

/// What a tuning decision did.
#[derive(Debug, Clone, PartialEq)]
pub enum TunerEvent {
    /// Not enough data / not time yet — nothing evaluated.
    Skipped,
    /// Evaluated; the incumbent configuration stays.
    Kept {
        /// Predicted cost of the incumbent under the fresh statistics.
        current_cd: f64,
        /// Predicted cost of the best challenger.
        candidate_cd: f64,
    },
    /// Evaluated; migration to the contained configuration is warranted.
    Retune {
        /// The new configuration.
        config: IndexConfig,
        /// Predicted cost of the incumbent.
        current_cd: f64,
        /// Predicted cost of the new configuration.
        candidate_cd: f64,
        /// Frequent patterns the decision was based on.
        based_on: Vec<(AccessPattern, f64)>,
    },
}

/// Cumulative safety accounting every adaptive tuner keeps, in virtual
/// nanoseconds (1 tick = 1000 ns, matching
/// [`CostParams::nanos`](crate::cost::CostParams::nanos)).
///
/// Predicted benefit is each retune's what-if advantage materialized
/// over the span it actually governed; realized benefit re-prices the
/// displaced configuration under the *next* observed window over the
/// same span — so `realized < predicted` is the thrash signal (the
/// workload moved before the migration paid off). Regret accrues
/// whenever the configuration in effect priced worse than the static
/// seed IC would have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneLedger {
    /// Migrations performed.
    pub retunes: u64,
    /// Σ what-if predicted benefit of each settled retune, over the span
    /// until the next decision.
    pub predicted_benefit_ns: u64,
    /// Σ realized benefit of each settled retune over the same span —
    /// negative when migrations made things worse.
    pub realized_benefit_ns: i64,
    /// Σ max(0, actual − static) priced cost: how far behind the static
    /// seed IC the tuner's choices have fallen.
    pub regret_vs_static_ns: u64,
    /// Priced cost the static seed IC would have accrued over the same
    /// decisions — the denominator of the relative regret bound.
    pub static_cost_ns: u64,
}

impl TuneLedger {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.retunes);
        w.put_u64(self.predicted_benefit_ns);
        w.put_u64(self.realized_benefit_ns as u64);
        w.put_u64(self.regret_vs_static_ns);
        w.put_u64(self.static_cost_ns);
    }

    fn restore(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TuneLedger {
            retunes: r.get_u64()?,
            predicted_benefit_ns: r.get_u64()?,
            realized_benefit_ns: r.get_u64()? as i64,
            regret_vs_static_ns: r.get_u64()?,
            static_cost_ns: r.get_u64()?,
        })
    }

    /// Accrue one decision span's regret: the configuration in effect
    /// priced `actual_rate` against the static IC's `static_rate`
    /// (ticks/s) for `elapsed_secs`.
    fn accrue_regret(&mut self, actual_rate: f64, static_rate: f64, elapsed_secs: f64) {
        let regret = whatif::rate_to_ns(actual_rate - static_rate, elapsed_secs);
        if regret > 0 {
            self.regret_vs_static_ns = self.regret_vs_static_ns.saturating_add(regret as u64);
        }
        let st = whatif::rate_to_ns(static_rate, elapsed_secs);
        if st > 0 {
            self.static_cost_ns = self.static_cost_ns.saturating_add(st as u64);
        }
    }
}

/// A retune awaiting its realized-benefit settlement at the next
/// decision point.
#[derive(Debug, Clone)]
struct PendingRetune {
    /// The configuration the retune displaced.
    prev: IndexConfig,
    /// The what-if predicted advantage at decision time, in ticks/s.
    predicted_rate: f64,
    /// When the retune happened.
    decided_at: VirtualTime,
}

impl PendingRetune {
    fn save(&self, w: &mut SectionWriter) {
        save_config(w, &self.prev);
        w.put_f64(self.predicted_rate);
        w.put_time(self.decided_at);
    }

    fn restore(r: &mut SectionReader<'_>, width: usize) -> Result<Self, SnapshotError> {
        Ok(PendingRetune {
            prev: restore_config(r, width)?,
            predicted_rate: r.get_f64()?,
            decided_at: r.get_time()?,
        })
    }

    /// Settle against the next observed window: materialize predicted
    /// and realized benefit over the governed span into `ledger`.
    /// Returns `true` when the realized benefit missed the what-if
    /// prediction (fell short of half of it) — the backoff trigger.
    fn settle(
        self,
        ledger: &mut TuneLedger,
        params: &CostParams,
        current: &IndexConfig,
        obs: &WindowObservation,
        now: VirtualTime,
    ) -> bool {
        let elapsed = now.since(self.decided_at).as_secs_f64();
        let predicted = whatif::rate_to_ns(self.predicted_rate, elapsed);
        let realized = whatif::rate_to_ns(
            whatif::price(params, &self.prev, obs) - whatif::price(params, current, obs),
            elapsed,
        );
        ledger.predicted_benefit_ns = ledger
            .predicted_benefit_ns
            .saturating_add(predicted.max(0) as u64);
        ledger.realized_benefit_ns = ledger.realized_benefit_ns.saturating_add(realized);
        realized < predicted / 2
    }
}

fn save_config(w: &mut SectionWriter, config: &IndexConfig) {
    let bits = config.bits();
    w.put_usize(bits.len());
    for &b in bits {
        w.put_u8(b);
    }
}

/// Read one configuration; every configuration a tuner section holds
/// must have the width the tuner was constructed for.
fn restore_config(r: &mut SectionReader<'_>, width: usize) -> Result<IndexConfig, SnapshotError> {
    let found = r.get_usize()?;
    if found != width {
        return Err(SnapshotError::Malformed(format!(
            "tuner config width {found} != constructed width {width}"
        )));
    }
    let mut bits = Vec::with_capacity(width);
    for _ in 0..width {
        bits.push(r.get_u8()?);
    }
    IndexConfig::new(bits).map_err(|e| SnapshotError::Malformed(format!("tuner config: {e}")))
}

/// One bandit arm: a candidate index configuration and its running
/// statistics.
#[derive(Debug, Clone)]
struct Arm {
    config: IndexConfig,
    /// Its what-if price under the most recent observed window.
    last_price: f64,
}

/// What the bandit policy keeps beyond the shared window bookkeeping.
struct Bandit {
    /// Arm 0 is the static seed IC and is never evicted.
    arms: Vec<Arm>,
    /// The exploration stream ([`splitmix64`]), advanced only on the
    /// sequential tuning path — identical across thread counts and
    /// across checkpoint/restore.
    rng: u64,
    /// Decision windows migration stays blocked after a missed retune.
    cooldown_windows: u32,
    /// Consecutive misses; cooldown doubles with each (2^level windows).
    backoff_level: u32,
    /// Hard fallback engaged: pinned to the static IC, permanently.
    fallback: bool,
}

impl Bandit {
    /// Cap on the exponential backoff exponent (2^6 = 64 blocked
    /// windows) so a long unlucky streak cannot freeze tuning forever.
    const MAX_BACKOFF_LEVEL: u32 = 6;

    /// A retune settled: a realized benefit that missed its what-if
    /// prediction doubles the migration cooldown (exponential backoff);
    /// a hit resets it.
    fn settled(&mut self, missed: bool) {
        if missed {
            self.backoff_level = (self.backoff_level + 1).min(Self::MAX_BACKOFF_LEVEL);
            self.cooldown_windows = 1 << self.backoff_level;
        } else {
            self.backoff_level = 0;
        }
    }

    /// Latch the hard fallback once cumulative realized regret crosses
    /// `bound_frac` of the static IC's own cumulative cost; true from
    /// then on.
    fn past_regret_bound(&mut self, ledger: &TuneLedger, bound_frac: f64) -> bool {
        if !self.fallback
            && ledger.static_cost_ns > 0
            && ledger.regret_vs_static_ns as f64 > bound_frac * ledger.static_cost_ns as f64
        {
            self.fallback = true;
        }
        self.fallback
    }

    /// Refresh and price the arm set, then pick one arm by seeded
    /// ε-greedy; returns its index.
    fn choose(
        &mut self,
        greedy: IndexConfig,
        current: &IndexConfig,
        config: &TunerConfig,
        params: &CostParams,
        obs: &WindowObservation,
    ) -> usize {
        // The greedy winner for *this* window joins as a challenger (the
        // what-if evaluator makes pricing it free — no index is built).
        if !self.arms.iter().any(|a| a.config == greedy) {
            self.arms.push(Arm {
                config: greedy,
                last_price: 0.0,
            });
        }
        for arm in &mut self.arms {
            arm.last_price = whatif::price(params, &arm.config, obs);
        }
        fn by_price((i, a): &(usize, &Arm), (j, b): &(usize, &Arm)) -> std::cmp::Ordering {
            a.last_price
                .partial_cmp(&b.last_price)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(j))
        }
        // Evict the worst-priced challenger when over budget (never the
        // static arm 0, never the incumbent).
        while self.arms.len() > config.max_arms {
            let worst = self
                .arms
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, a)| a.config != *current)
                .max_by(by_price)
                .map(|(i, _)| i);
            match worst {
                Some(i) => {
                    self.arms.remove(i);
                }
                None => break,
            }
        }
        // Both draws always happen so the RNG stream's shape is
        // independent of the outcome.
        let explore_draw = splitmix64(&mut self.rng);
        let arm_draw = splitmix64(&mut self.rng);
        if explore_draw % u64::from(config.explore_one_in) == 0 {
            (arm_draw % self.arms.len() as u64) as usize
        } else {
            let cheapest = self.arms.iter().enumerate().min_by(by_price);
            cheapest.map_or(0, |(i, _)| i)
        }
    }

    fn save(&self, w: &mut SectionWriter) {
        w.put_usize(self.arms.len());
        for arm in &self.arms {
            save_config(w, &arm.config);
            w.put_f64(arm.last_price);
        }
        w.put_u64(self.rng);
        w.put_u32(self.cooldown_windows);
        w.put_u32(self.backoff_level);
        w.put_bool(self.fallback);
    }

    fn restore(r: &mut SectionReader<'_>, width: usize) -> Result<Self, SnapshotError> {
        // A config's width and bits, last price.
        let n_arms = r.get_count(8 + width + 8, "bandit arm count")?;
        if n_arms == 0 {
            return Err(SnapshotError::Malformed("bandit tuner with no arms".into()));
        }
        let mut arms = Vec::with_capacity(n_arms);
        for _ in 0..n_arms {
            arms.push(Arm {
                config: restore_config(r, width)?,
                last_price: r.get_f64()?,
            });
        }
        let rng = r.get_u64()?;
        // `settled` never produces more than these.
        let most_cooldown = 1 << Self::MAX_BACKOFF_LEVEL;
        let cooldown_windows = r.get_u32()?;
        if cooldown_windows > most_cooldown {
            return Err(SnapshotError::Malformed(format!(
                "bandit cooldown_windows {cooldown_windows} above {most_cooldown}"
            )));
        }
        let backoff_level = r.get_u32()?;
        if backoff_level > Self::MAX_BACKOFF_LEVEL {
            return Err(SnapshotError::Malformed(format!(
                "bandit backoff_level {backoff_level} above {}",
                Self::MAX_BACKOFF_LEVEL
            )));
        }
        Ok(Bandit {
            arms,
            rng,
            cooldown_windows,
            backoff_level,
            fallback: r.get_bool()?,
        })
    }
}

/// The online tuner for one state: the shared window bookkeeping plus
/// whatever the [`TunerKind`] policy adds (see the module docs).
pub struct Tuner {
    kind: TunerKind,
    /// `None` under the static policy, which records nothing.
    assessor: Option<Box<dyn Assessor>>,
    config: TunerConfig,
    params: CostParams,
    width: usize,
    current: IndexConfig,
    /// The seed configuration: the regret baseline, and what the
    /// bandit's hard fallback reverts to.
    static_config: IndexConfig,
    last_decision: VirtualTime,
    pending: Option<PendingRetune>,
    ledger: TuneLedger,
    /// `Some` under the bandit policy only.
    bandit: Option<Bandit>,
}

impl Tuner {
    /// Build a tuner for a state with `width` JAS attributes that runs
    /// the `tuner_kind` policy over the `kind` assessment method,
    /// starting from `initial` — which stays the regret baseline and the
    /// bandit's never-evicted static arm.
    ///
    /// # Errors
    /// Propagates [`TunerConfig::validate`] failures and a width mismatch.
    pub fn new(
        tuner_kind: TunerKind,
        kind: AssessorKind,
        width: usize,
        initial: IndexConfig,
        config: TunerConfig,
        params: CostParams,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        if initial.width() != width {
            return Err(CoreError::WidthMismatch {
                config: initial.width(),
                jas: width,
            });
        }
        Ok(Tuner {
            kind: tuner_kind,
            assessor: (tuner_kind != TunerKind::Static)
                .then(|| kind.build(width, config.epsilon, config.seed)),
            bandit: (tuner_kind == TunerKind::Bandit).then(|| Bandit {
                arms: vec![Arm {
                    config: initial.clone(),
                    last_price: 0.0,
                }],
                rng: config.seed ^ 0xBA_4D17,
                cooldown_windows: 0,
                backoff_level: 0,
                fallback: false,
            }),
            config,
            params,
            width,
            current: initial.clone(),
            static_config: initial,
            last_decision: VirtualTime::ZERO,
            pending: None,
            ledger: TuneLedger::default(),
        })
    }

    /// Which policy this is.
    pub fn kind(&self) -> TunerKind {
        self.kind
    }

    /// The configuration the tuner currently endorses.
    pub fn current(&self) -> &IndexConfig {
        &self.current
    }

    /// Requests recorded in the current assessment window (0 under the
    /// static policy, which records nothing).
    pub fn window_requests(&self) -> u64 {
        self.assessor.as_ref().map_or(0, |a| a.n())
    }

    /// Statistics entries currently materialized (memory accounting).
    pub fn assessor_entries(&self) -> usize {
        self.assessor.as_ref().map_or(0, |a| a.entries())
    }

    /// The cumulative safety ledger (predicted/realized retune benefit,
    /// regret versus the static seed IC; all-zero under the static
    /// policy).
    pub fn ledger(&self) -> TuneLedger {
        self.ledger
    }

    /// Record a search request's access pattern (a no-op under the
    /// static policy).
    #[inline]
    pub fn record(&mut self, ap: AccessPattern) {
        if let Some(assessor) = &mut self.assessor {
            assessor.record(ap);
        }
    }

    /// Possibly take a tuning decision at `now`, given the ambient rates
    /// (`lambda_d` tuples/s, `lambda_r` requests/s), the window length,
    /// and the fraction of the window currently spill-resident on disk
    /// (`spilled_frac`, 0 without a storage tier). The spill fraction
    /// folds the tier's [`crate::cost::StorageProfile`] into `C_D`, so
    /// the tuner prices scans that touch disk-resident buckets;
    /// `cache_hit_frac` (the tier's observed block-cache hit rate, 0
    /// before any demand read) discounts those touches toward `cache_hit_ns`, so
    /// ICs whose cold STeMs are actually cache-resident stop being
    /// over-penalized.
    ///
    /// On [`TunerEvent::Retune`] the tuner already treats the returned
    /// configuration as current; the caller must migrate the physical
    /// index. The static policy always skips.
    pub fn maybe_retune(
        &mut self,
        now: VirtualTime,
        lambda_d: f64,
        lambda_r: f64,
        window_secs: f64,
        spilled_frac: f64,
        cache_hit_frac: f64,
    ) -> TunerEvent {
        let Some(assessor) = &mut self.assessor else {
            return TunerEvent::Skipped;
        };
        if now.since(self.last_decision) < self.config.assess_period
            || assessor.n() < self.config.min_requests
        {
            return TunerEvent::Skipped;
        }
        let prev_decision = self.last_decision;
        self.last_decision = now;
        let frequent = assessor.frequent(self.config.theta);
        assessor.reset();
        if frequent.is_empty() {
            return TunerEvent::Kept {
                current_cd: 0.0,
                candidate_cd: 0.0,
            };
        }
        let obs = WindowObservation::new(lambda_d, lambda_r, window_secs, frequent)
            .with_spilled_frac(spilled_frac)
            .with_cache_hit_frac(cache_hit_frac);

        // Settle the previous retune against the fresh window. Policy
        // point 1: the paper policy records a miss but never throttles on
        // it; the bandit backs off.
        if let Some(pending) = self.pending.take() {
            let missed = pending.settle(&mut self.ledger, &self.params, &self.current, &obs, now);
            if let Some(bandit) = &mut self.bandit {
                bandit.settled(missed);
            }
        }

        // Regret accounting for the span the incumbent governed.
        let current_cd = whatif::price(&self.params, &self.current, &obs);
        let static_cd = whatif::price(&self.params, &self.static_config, &obs);
        self.ledger.accrue_regret(
            current_cd,
            static_cd,
            now.since(prev_decision).as_secs_f64(),
        );

        // Policy point 2 (bandit): past the regret bound, revert to the
        // static IC and never migrate again.
        if let Some(bandit) = &mut self.bandit {
            if bandit.past_regret_bound(&self.ledger, self.config.regret_bound_frac) {
                if self.current == self.static_config {
                    return TunerEvent::Kept {
                        current_cd,
                        candidate_cd: static_cd,
                    };
                }
                self.migrate_to(self.static_config.clone());
                return TunerEvent::Retune {
                    config: self.static_config.clone(),
                    current_cd,
                    candidate_cd: static_cd,
                    based_on: obs.frequent,
                };
            }
        }

        // Policy point 3: the candidate is the greedy winner for this
        // window (paper), or the arm seeded ε-greedy picks once that
        // winner has joined the what-if priced arm set (bandit).
        let greedy = select_config_greedy_capped(
            self.config.total_bits,
            self.width,
            &obs.profile(),
            &self.params,
            self.config.max_bits_per_attr,
        );
        let (candidate, candidate_cd) = match &mut self.bandit {
            None => {
                let price = whatif::price(&self.params, &greedy, &obs);
                (greedy, price)
            }
            Some(bandit) => {
                let i = bandit.choose(greedy, &self.current, &self.config, &self.params, &obs);
                let arm = &bandit.arms[i];
                (arm.config.clone(), arm.last_price)
            }
        };

        // Policy point 4: what must hold besides the hysteresis margin.
        // Paper: nothing. Bandit: no backoff cooldown in force, and the
        // candidate beats the incumbent by its amortized migration cost
        // over the horizon.
        let clears_policy_gates = match &mut self.bandit {
            None => true,
            Some(bandit) if bandit.cooldown_windows > 0 => {
                bandit.cooldown_windows -= 1;
                false
            }
            Some(_) => {
                let horizon_secs = f64::from(self.config.horizon_windows)
                    * self.config.assess_period.as_secs_f64();
                (current_cd - candidate_cd) * horizon_secs
                    > whatif::migration_cost_ticks(&self.params, &obs)
            }
        };
        if clears_policy_gates
            && candidate != self.current
            && candidate_cd < current_cd * (1.0 - self.config.hysteresis)
        {
            self.pending = Some(PendingRetune {
                prev: self.migrate_to(candidate.clone()),
                predicted_rate: current_cd - candidate_cd,
                decided_at: now,
            });
            TunerEvent::Retune {
                config: candidate,
                current_cd,
                candidate_cd,
                based_on: obs.frequent,
            }
        } else {
            TunerEvent::Kept {
                current_cd,
                candidate_cd,
            }
        }
    }

    /// Endorse `config`, counting the migration in the ledger; returns
    /// the displaced configuration.
    fn migrate_to(&mut self, config: IndexConfig) -> IndexConfig {
        self.ledger.retunes += 1;
        std::mem::replace(&mut self.current, config)
    }

    /// The snapshot section tag: one per policy, so a snapshot taken
    /// under one `--tuner` cannot silently restore into another.
    fn section_tag(&self) -> &'static str {
        match self.kind {
            TunerKind::Paper => "TUNER",
            TunerKind::Bandit => "BTUN",
            TunerKind::Static => "STUN",
        }
    }

    /// Serialize the mutable tuning state under the policy's tag: the
    /// endorsed and seed configurations, the decision clock,
    /// the pending settlement, the safety ledger, the bandit's arm set,
    /// RNG stream and backoff machine, and the assessor's statistics. The
    /// constructor arguments (policy, method, width, [`TunerConfig`],
    /// [`CostParams`]) are not captured — restore rebuilds the tuner from
    /// configuration and loads this section into it.
    pub fn save(&self, w: &mut SectionWriter) {
        w.put_str(self.section_tag());
        save_config(w, &self.current);
        save_config(w, &self.static_config);
        w.put_time(self.last_decision);
        w.put_bool(self.pending.is_some());
        if let Some(pending) = &self.pending {
            pending.save(w);
        }
        self.ledger.save(w);
        if let Some(bandit) = &self.bandit {
            bandit.save(w);
        }
        if let Some(assessor) = &self.assessor {
            assessor.save(w);
        }
    }

    /// Overwrite this tuner's mutable state from a [`save`](Self::save)d
    /// section. The receiver must be freshly constructed with the original
    /// configuration.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`] when the section was written under
    /// another policy or holds a configuration of another width; decode
    /// errors pass through.
    pub fn restore_from(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        expect_tag(r, self.section_tag())?;
        self.current = restore_config(r, self.width)?;
        self.static_config = restore_config(r, self.width)?;
        self.last_decision = r.get_time()?;
        self.pending = if r.get_bool()? {
            Some(PendingRetune::restore(r, self.width)?)
        } else {
            None
        };
        self.ledger = TuneLedger::restore(r)?;
        if let Some(bandit) = &mut self.bandit {
            *bandit = Bandit::restore(r, self.width)?;
        }
        match &mut self.assessor {
            Some(assessor) => assessor.load(r),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Tuner");
        d.field("policy", &self.kind.label())
            .field(
                "assessor",
                &self.assessor.as_ref().map(|a| a.kind().label()),
            )
            .field("current", &self.current)
            .field("pending", &self.pending)
            .field("ledger", &self.ledger);
        if let Some(bandit) = &self.bandit {
            d.field("arms", &bandit.arms.len())
                .field("rng", &bandit.rng)
                .field("cooldown_windows", &bandit.cooldown_windows)
                .field("backoff_level", &bandit.backoff_level)
                .field("fallback", &bandit.fallback);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_hh::CombineStrategy;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    /// The `policy` tuner over a 3-attribute JAS, seeded with the even
    /// 12-bit IC.
    fn build(
        policy: TunerKind,
        kind: AssessorKind,
        config: TunerConfig,
        params: CostParams,
    ) -> Tuner {
        let initial = IndexConfig::even(3, 12).unwrap();
        Tuner::new(policy, kind, 3, initial, config, params).unwrap()
    }

    fn tuner(kind: AssessorKind) -> Tuner {
        let config = TunerConfig {
            assess_period: VirtualDuration::from_secs(10),
            min_requests: 50,
            total_bits: 12,
            ..TunerConfig::default()
        };
        build(TunerKind::Paper, kind, config, CostParams::default())
    }

    fn bandit(config: TunerConfig) -> Tuner {
        build(
            TunerKind::Bandit,
            AssessorKind::Sria,
            config,
            CostParams::default(),
        )
    }

    /// The bandit-only state of a bandit tuner.
    fn bandit_state(t: &Tuner) -> &Bandit {
        t.bandit.as_ref().expect("a bandit tuner")
    }

    fn bandit_config() -> TunerConfig {
        TunerConfig {
            assess_period: VirtualDuration::from_secs(10),
            min_requests: 50,
            total_bits: 12,
            // A small live window keeps the amortized migration gate
            // passable in unit tests.
            horizon_windows: 4,
            explore_one_in: 1_000_000, // effectively exploit-only
            ..TunerConfig::default()
        }
    }

    /// Drive `t` through one full decision: record `n` copies of each
    /// pattern, then decide at `at_secs`.
    fn decide(
        t: &mut Tuner,
        patterns: &[u32],
        n: usize,
        at_secs: u64,
        lambda_d: f64,
    ) -> TunerEvent {
        for _ in 0..n {
            for &m in patterns {
                t.record(ap(m));
            }
        }
        t.maybe_retune(
            VirtualTime::from_secs(at_secs),
            lambda_d,
            500.0,
            30.0,
            0.0,
            0.0,
        )
    }

    #[test]
    fn config_validation_catches_bad_parameters() {
        let ok = TunerConfig::default();
        assert!(ok.validate().is_ok());
        assert!(TunerConfig { theta: 1.5, ..ok }.validate().is_err());
        assert!(TunerConfig { epsilon: 0.0, ..ok }.validate().is_err());
        assert!(TunerConfig {
            epsilon: 0.2,
            theta: 0.1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            assess_period: VirtualDuration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            total_bits: 65,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            horizon_windows: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            regret_bound_frac: -0.1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            explore_one_in: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TunerConfig { max_arms: 1, ..ok }.validate().is_err());
        // A NaN or >= 1 margin never retunes; a negative one migrates
        // toward worse configurations.
        for hysteresis in [f64::NAN, 1.0, -0.05] {
            let bad = TunerConfig { hysteresis, ..ok }.validate();
            assert!(
                matches!(&bad, Err(CoreError::InvalidParameter(m)) if m.contains("hysteresis")),
                "hysteresis {hysteresis}: {bad:?}"
            );
        }
        // Width mismatch:
        for policy in [TunerKind::Paper, TunerKind::Bandit] {
            assert!(Tuner::new(
                policy,
                AssessorKind::Sria,
                3,
                IndexConfig::even(2, 4).unwrap(),
                ok,
                CostParams::default()
            )
            .is_err());
        }
    }

    #[test]
    fn skips_until_period_and_volume() {
        let mut t = tuner(AssessorKind::Sria);
        // Not enough requests.
        for _ in 0..10 {
            t.record(ap(0b001));
        }
        assert_eq!(
            t.maybe_retune(VirtualTime::from_secs(60), 1000.0, 100.0, 30.0, 0.0, 0.0),
            TunerEvent::Skipped
        );
        // Enough requests but not enough elapsed time after a decision.
        for _ in 0..100 {
            t.record(ap(0b001));
        }
        let first = t.maybe_retune(VirtualTime::from_secs(60), 1000.0, 100.0, 30.0, 0.0, 0.0);
        assert!(!matches!(first, TunerEvent::Skipped));
        for _ in 0..100 {
            t.record(ap(0b001));
        }
        assert_eq!(
            t.maybe_retune(VirtualTime::from_secs(65), 1000.0, 100.0, 30.0, 0.0, 0.0),
            TunerEvent::Skipped,
            "within the period after the last decision"
        );
    }

    #[test]
    fn retunes_toward_the_hot_pattern() {
        let mut t = tuner(AssessorKind::Cdia(CombineStrategy::HighestCount));
        // Workload exclusively searching attribute A.
        for _ in 0..500 {
            t.record(ap(0b001));
        }
        let event = t.maybe_retune(VirtualTime::from_secs(10), 1000.0, 500.0, 30.0, 0.0, 0.0);
        let TunerEvent::Retune {
            config,
            current_cd,
            candidate_cd,
            based_on,
        } = event
        else {
            panic!("expected retune, got {event:?}");
        };
        assert!(config.bits_of(0) >= 10, "bits concentrate on A: {config}");
        assert!(candidate_cd < current_cd);
        assert_eq!(based_on[0].0, ap(0b001));
        assert_eq!(t.current(), &config);
        assert_eq!(t.ledger().retunes, 1);
        // Statistics were reset for the next window.
        assert_eq!(t.window_requests(), 0);
    }

    #[test]
    fn keeps_configuration_when_already_optimal() {
        let mut t = tuner(AssessorKind::Sria);
        // First window drives the tuner to the A-heavy config.
        for _ in 0..500 {
            t.record(ap(0b001));
        }
        t.maybe_retune(VirtualTime::from_secs(10), 1000.0, 500.0, 30.0, 0.0, 0.0);
        // Same workload again: the incumbent is already optimal.
        for _ in 0..500 {
            t.record(ap(0b001));
        }
        let event = t.maybe_retune(VirtualTime::from_secs(20), 1000.0, 500.0, 30.0, 0.0, 0.0);
        assert!(
            matches!(event, TunerEvent::Kept { .. }),
            "stable workload must not thrash: {event:?}"
        );
        assert_eq!(t.ledger().retunes, 1, "exactly one migration");
        // The settled retune realized its predicted benefit: the stable
        // window prices the displaced even config worse than the new one.
        let ledger = t.ledger();
        assert!(ledger.predicted_benefit_ns > 0);
        assert!(
            ledger.realized_benefit_ns >= ledger.predicted_benefit_ns as i64,
            "stable workload must realize the prediction: {ledger:?}"
        );
    }

    #[test]
    fn adapts_when_the_workload_shifts() {
        let mut t = tuner(AssessorKind::Cdia(CombineStrategy::HighestCount));
        for _ in 0..500 {
            t.record(ap(0b001));
        }
        t.maybe_retune(VirtualTime::from_secs(10), 1000.0, 500.0, 30.0, 0.0, 0.0);
        // The router changed paths: now everything searches C.
        for _ in 0..500 {
            t.record(ap(0b100));
        }
        let event = t.maybe_retune(VirtualTime::from_secs(20), 1000.0, 500.0, 30.0, 0.0, 0.0);
        let TunerEvent::Retune { config, .. } = event else {
            panic!("must follow the drift: {event:?}");
        };
        assert!(config.bits_of(2) >= 10, "bits must move to C: {config}");
        // The A-ward retune's benefit failed to materialize under the
        // flipped window: realized short of predicted — observable thrash.
        let ledger = t.ledger();
        assert!(
            ledger.realized_benefit_ns < ledger.predicted_benefit_ns as i64,
            "flipped workload must expose the miss: {ledger:?}"
        );
    }

    #[test]
    fn empty_window_keeps_quietly() {
        let mut t = tuner(AssessorKind::Csria);
        // Records below theta only — frequent() comes back empty at θ=0.1
        // only if nothing clears it; with one pattern it's 100%. Use zero
        // min_requests instead to hit the empty-frequent path.
        let mut t2 = Tuner::new(
            TunerKind::Paper,
            AssessorKind::Sria,
            3,
            IndexConfig::trivial(3),
            TunerConfig {
                min_requests: 0,
                assess_period: VirtualDuration::from_secs(1),
                ..TunerConfig::default()
            },
            CostParams::default(),
        )
        .unwrap();
        let e = t2.maybe_retune(VirtualTime::from_secs(5), 1000.0, 100.0, 30.0, 0.0, 0.0);
        assert!(matches!(e, TunerEvent::Kept { .. }));
        let _ = &mut t;
    }

    #[test]
    fn static_tuner_never_moves_and_round_trips() {
        let initial = IndexConfig::even(3, 12).unwrap();
        let mut t = Tuner::new(
            TunerKind::Static,
            AssessorKind::Sria,
            3,
            initial.clone(),
            TunerConfig::default(),
            CostParams::default(),
        )
        .unwrap();
        t.record(ap(0b001));
        assert_eq!(t.window_requests(), 0, "static tuner records nothing");
        assert_eq!(
            t.maybe_retune(VirtualTime::from_secs(100), 1000.0, 500.0, 30.0, 0.0, 0.0),
            TunerEvent::Skipped
        );
        assert_eq!(t.current(), &initial);
        assert_eq!(t.ledger(), TuneLedger::default());
        let mut w = SectionWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes);
        t.restore_from(&mut r).unwrap();
        assert_eq!(t.current(), &initial);
    }

    #[test]
    fn bandit_migrates_only_past_the_amortized_migration_gate() {
        // Default per-entry move cost (λ_d=40, W=30 ⇒ 1200 live tuples):
        // migration costs 72 ticks, a concentrated config saves far more
        // per horizon.
        let mut t = bandit(bandit_config());
        let event = decide(&mut t, &[0b001], 500, 10, 40.0);
        assert!(
            matches!(event, TunerEvent::Retune { .. }),
            "cheap migration with a big win must pass: {event:?}"
        );
        // A brutally expensive move (c_move ×16667): the same candidate
        // still clears the hysteresis margin, but its advantage cannot
        // amortize relocating the window within the 4-window horizon.
        let mut t = build(
            TunerKind::Bandit,
            AssessorKind::Sria,
            bandit_config(),
            CostParams {
                c_move: 1000.0,
                ..CostParams::default()
            },
        );
        let event = decide(&mut t, &[0b001], 500, 10, 40.0);
        assert!(
            matches!(event, TunerEvent::Kept { .. }),
            "migration gate must block an unamortizable move: {event:?}"
        );
        assert_eq!(t.ledger().retunes, 0);
    }

    #[test]
    fn bandit_backs_off_after_a_missed_prediction_and_recovers() {
        // A loose regret bound isolates the backoff machinery from the
        // hard fallback (which would otherwise preempt it on the flip).
        let mut t = bandit(TunerConfig {
            regret_bound_frac: 1000.0,
            ..bandit_config()
        });
        // Window 1: all-A workload → migrate toward A.
        assert!(matches!(
            decide(&mut t, &[0b001], 500, 10, 40.0),
            TunerEvent::Retune { .. }
        ));
        // Window 2: workload flipped to C → the A-retune's realized
        // benefit misses its prediction → backoff engages; the C-ward
        // migration is blocked this window.
        let e2 = decide(&mut t, &[0b100], 500, 20, 40.0);
        assert!(
            matches!(e2, TunerEvent::Kept { .. }),
            "first window after a miss must be cooled down: {e2:?}"
        );
        assert_eq!(bandit_state(&t).backoff_level, 1);
        // Window 3: cooldown (2^1 = 2 windows) still holds.
        let e3 = decide(&mut t, &[0b100], 500, 30, 40.0);
        assert!(matches!(e3, TunerEvent::Kept { .. }));
        // Window 4: cooldown expired; the C workload has persisted, so the
        // bandit now migrates toward C.
        let e4 = decide(&mut t, &[0b100], 500, 40, 40.0);
        assert!(
            matches!(e4, TunerEvent::Retune { ref config, .. } if config.bits_of(2) >= 10),
            "after cooldown the persistent drift must win: {e4:?}"
        );
        // Window 5: C persisted → the retune realizes its prediction →
        // backoff resets.
        let e5 = decide(&mut t, &[0b100], 500, 50, 40.0);
        assert!(matches!(e5, TunerEvent::Kept { .. }));
        assert_eq!(
            bandit_state(&t).backoff_level,
            0,
            "a hit must reset the backoff"
        );
    }

    #[test]
    fn bandit_falls_back_hard_when_regret_crosses_the_bound() {
        // A near-zero bound: any accrued regret trips the fallback.
        let mut t = bandit(TunerConfig {
            regret_bound_frac: 0.0001,
            ..bandit_config()
        });
        assert!(matches!(
            decide(&mut t, &[0b001], 500, 10, 40.0),
            TunerEvent::Retune { .. }
        ));
        // Flip the workload: the A-concentrated incumbent now prices
        // worse than the even static config → regret accrues → bound
        // trips → forced migration back to the static IC.
        let e = decide(&mut t, &[0b100], 500, 20, 40.0);
        assert!(bandit_state(&t).fallback, "regret bound must trip");
        assert!(
            matches!(e, TunerEvent::Retune { ref config, .. } if config == &IndexConfig::even(3, 12).unwrap()),
            "fallback must revert to the static IC: {e:?}"
        );
        // Permanently: later windows never migrate again.
        let e = decide(&mut t, &[0b001], 500, 30, 40.0);
        assert!(matches!(e, TunerEvent::Kept { .. }));
        let e = decide(&mut t, &[0b001], 500, 40, 40.0);
        assert!(matches!(e, TunerEvent::Kept { .. }));
        assert_eq!(t.current(), &IndexConfig::even(3, 12).unwrap());
    }

    #[test]
    fn bandit_keeps_the_static_arm_under_eviction_pressure() {
        let mut t = bandit(TunerConfig {
            max_arms: 2,
            ..bandit_config()
        });
        // Three different single-attribute workloads force three distinct
        // greedy candidates through the bounded arm set.
        decide(&mut t, &[0b001], 500, 10, 40.0);
        decide(&mut t, &[0b010], 500, 20, 40.0);
        decide(&mut t, &[0b100], 500, 30, 40.0);
        assert!(bandit_state(&t).arms.len() <= 2);
        assert_eq!(
            bandit_state(&t).arms[0].config,
            IndexConfig::even(3, 12).unwrap(),
            "the static seed IC must never be evicted"
        );
    }

    #[test]
    fn bandit_exploration_stream_is_seeded_and_deterministic() {
        let run = |seed: u64| {
            let mut t = bandit(TunerConfig {
                seed,
                explore_one_in: 2,
                ..bandit_config()
            });
            let mut log = Vec::new();
            for (i, &m) in [0b001u32, 0b100, 0b010, 0b001, 0b100, 0b010]
                .iter()
                .enumerate()
            {
                let e = decide(&mut t, &[m], 500, 10 * (i as u64 + 1), 40.0);
                log.push(format!("{e:?}"));
            }
            (log, bandit_state(&t).rng)
        };
        let (log_a, rng_a) = run(7);
        let (log_b, rng_b) = run(7);
        assert_eq!(log_a, log_b, "same seed ⇒ identical decision log");
        assert_eq!(rng_a, rng_b);
        let (log_c, _) = run(8);
        // Different seeds may still agree on every decision, but the RNG
        // stream itself must differ.
        let mut s7 = 7u64 ^ 0xBA_4D17;
        let mut s8 = 8u64 ^ 0xBA_4D17;
        assert_ne!(splitmix64(&mut s7), splitmix64(&mut s8));
        let _ = log_c;
    }

    #[test]
    fn tuner_state_round_trips_through_a_snapshot() {
        const A: u32 = 0b001;
        const C: u32 = 0b100;
        // (policy, windows driven before the snapshot, regret bound,
        // pending retune at the snapshot, cooldown in force).
        let cases: [(TunerKind, &[u32], f64, bool, bool); 8] = [
            (TunerKind::Paper, &[A, A], 0.15, false, false),
            (TunerKind::Paper, &[A], 0.15, true, false),
            (TunerKind::Bandit, &[A, A], 0.15, false, false),
            (TunerKind::Bandit, &[A], 0.15, true, false),
            // The flip is a miss, which starts a cooldown, and trips the
            // regret bound: fallen back, nonzero ledger, advanced RNG.
            (TunerKind::Bandit, &[A, C], 0.15, false, true),
            // Under a loose bound the cooldown is what holds the incumbent.
            (TunerKind::Bandit, &[A, C], 1000.0, false, true),
            (TunerKind::Static, &[], 0.15, false, false),
            (TunerKind::Static, &[A], 0.15, false, false),
        ];
        for (policy, before, regret_bound_frac, pending, cooling) in cases {
            let case = format!("{policy:?} after {before:?}, bound {regret_bound_frac}");
            let mk = || {
                let config = TunerConfig {
                    explore_one_in: 2,
                    regret_bound_frac,
                    ..bandit_config()
                };
                build(policy, AssessorKind::Sria, config, CostParams::default())
            };
            let mut live = mk();
            for (i, &m) in before.iter().enumerate() {
                decide(&mut live, &[m], 500, 10 * (i as u64 + 1), 40.0);
            }
            assert_eq!(live.pending.is_some(), pending, "{case}");
            let cooldown = live.bandit.as_ref().map_or(0, |b| b.cooldown_windows);
            assert_eq!(cooldown > 0, cooling, "{case}");
            let mut w = SectionWriter::new();
            live.save(&mut w);
            let bytes = w.into_bytes();
            let mut restored = mk();
            let mut r = SectionReader::new(&bytes);
            restored.restore_from(&mut r).unwrap();
            assert_eq!(format!("{live:#?}"), format!("{restored:#?}"), "{case}");
            // And the two must keep agreeing on every subsequent decision.
            for (i, &m) in [C, 0b010, A].iter().enumerate() {
                let at = 10 * (before.len() + i + 1) as u64;
                let a = decide(&mut live, &[m], 500, at, 40.0);
                let b = decide(&mut restored, &[m], 500, at, 40.0);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{case}: decision {i} diverged"
                );
            }
            assert_eq!(format!("{live:#?}"), format!("{restored:#?}"), "{case}");
        }
    }

    #[test]
    fn restore_refuses_a_configuration_of_another_width() {
        // A section in `save`'s layout, one width per configuration it
        // holds: [current, seed, pending.prev, the bandit's one arm].
        let section = |policy: TunerKind, widths: [usize; 4]| {
            let config = |w: &mut SectionWriter, width: usize| {
                save_config(w, &IndexConfig::trivial(width));
            };
            let mut w = SectionWriter::new();
            w.put_str(match policy {
                TunerKind::Paper => "TUNER",
                TunerKind::Bandit => "BTUN",
                TunerKind::Static => "STUN",
            });
            config(&mut w, widths[0]);
            config(&mut w, widths[1]);
            w.put_time(VirtualTime::from_secs(10));
            w.put_bool(true);
            config(&mut w, widths[2]);
            w.put_f64(1.0);
            w.put_time(VirtualTime::from_secs(10));
            TuneLedger::default().save(&mut w);
            if policy == TunerKind::Bandit {
                w.put_usize(1);
                config(&mut w, widths[3]);
                w.put_f64(0.0);
                w.put_u64(7);
                w.put_u32(0);
                w.put_u32(0);
                w.put_bool(false);
            }
            if policy != TunerKind::Static {
                let config = TunerConfig::default();
                AssessorKind::Sria
                    .build(3, config.epsilon, config.seed)
                    .save(&mut w);
            }
            w.into_bytes()
        };
        for policy in [TunerKind::Paper, TunerKind::Bandit, TunerKind::Static] {
            let restore = |widths: [usize; 4]| {
                let bytes = section(policy, widths);
                let config = TunerConfig::default();
                let mut t = build(policy, AssessorKind::Sria, config, CostParams::default());
                t.restore_from(&mut SectionReader::new(&bytes))
            };
            assert_eq!(restore([3; 4]), Ok(()), "{policy:?}: the layout itself");
            let positions = if policy == TunerKind::Bandit { 4 } else { 3 };
            for at in 0..positions {
                let mut widths = [3; 4];
                widths[at] = 2;
                let refused = restore(widths);
                assert!(
                    matches!(&refused, Err(SnapshotError::Malformed(m)) if m.contains("width 2")),
                    "{policy:?}, position {at}: {refused:?}"
                );
            }
        }
    }

    /// An image claiming more arms than its bytes hold is `Malformed`,
    /// not an allocation abort.
    #[test]
    fn bandit_restore_refuses_an_arm_count_the_section_cannot_hold() {
        let mut w = SectionWriter::new();
        w.put_usize(1 << 40);
        let image = w.into_bytes();
        match Bandit::restore(&mut SectionReader::new(&image), 3) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("arm count"), "{why}"),
            other => panic!("expected Malformed(arm count), got {:?}", other.err()),
        }
    }

    /// A backoff state `settled` never produces — a level past
    /// `MAX_BACKOFF_LEVEL` (the next miss overflowed it) or a cooldown
    /// past `1 << MAX_BACKOFF_LEVEL` windows (it blocked migration for
    /// 2³² windows) — is `Malformed` naming the field; the largest of
    /// each restores.
    #[test]
    fn bandit_restore_refuses_a_backoff_settled_never_produces() {
        let image = |cooldown: u32, level: u32| {
            let mut w = SectionWriter::new();
            w.put_usize(1);
            save_config(&mut w, &IndexConfig::even(3, 12).unwrap());
            w.put_f64(0.0);
            w.put_u64(7);
            w.put_u32(cooldown);
            w.put_u32(level);
            w.put_bool(false);
            w.into_bytes()
        };
        let max = Bandit::MAX_BACKOFF_LEVEL;
        for (cooldown, level, field) in [
            (0, u32::MAX, "backoff_level"),
            (u32::MAX, 0, "cooldown_windows"),
        ] {
            match Bandit::restore(&mut SectionReader::new(&image(cooldown, level)), 3) {
                Err(SnapshotError::Malformed(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("expected Malformed({field}), got {:?}", other.err()),
            }
        }
        let mut bandit =
            Bandit::restore(&mut SectionReader::new(&image(1 << max, max)), 3).unwrap();
        bandit.settled(true);
        assert_eq!(
            (bandit.backoff_level, bandit.cooldown_windows),
            (max, 1 << max)
        );
    }

    /// The scripted stream of `decision_sequences_are_pinned`: three
    /// phases (A, then B for one window and C for three, then A again),
    /// one decision window per entry.
    const SCRIPT: [u32; 10] = [
        0b001, 0b001, 0b001, 0b010, 0b100, 0b100, 0b100, 0b001, 0b001, 0b001,
    ];

    /// Drive `kind` through [`SCRIPT`]: one line per decision (event,
    /// endorsed configuration, ledger), then one line of the policy
    /// state `Debug` shows (`None` where the policy has no such field).
    fn decision_trace(kind: TunerKind) -> Vec<String> {
        let mut t = Tuner::new(
            kind,
            AssessorKind::Sria,
            3,
            IndexConfig::even(3, 12).unwrap(),
            TunerConfig {
                explore_one_in: 3,
                max_arms: 3,
                regret_bound_frac: 7.0,
                ..bandit_config()
            },
            CostParams::default(),
        )
        .unwrap();
        let mut lines = Vec::new();
        for (i, &m) in SCRIPT.iter().enumerate() {
            for _ in 0..500 {
                t.record(ap(m));
            }
            let at = VirtualTime::from_secs(10 * (i as u64 + 1));
            let tag = match t.maybe_retune(at, 40.0, 500.0, 30.0, 0.0, 0.0) {
                TunerEvent::Skipped => "skip",
                TunerEvent::Kept { .. } => "keep",
                TunerEvent::Retune { .. } => "retune",
            };
            let l = t.ledger();
            lines.push(format!(
                "{tag} {} retunes={} predicted={} realized={} regret={} static={}",
                t.current(),
                l.retunes,
                l.predicted_benefit_ns,
                l.realized_benefit_ns,
                l.regret_vs_static_ns,
                l.static_cost_ns
            ));
        }
        let debug = format!("{t:?}");
        let field = |name: &str| {
            let key = format!("{name}: ");
            debug.find(&key).map(|at| {
                let rest = &debug[at + key.len()..];
                rest[..rest.find([',', ' ']).unwrap_or(rest.len())].to_string()
            })
        };
        lines.push(format!(
            "arms={:?} rng={:?} cooldown={:?} backoff={:?} fallback={:?}",
            field("arms"),
            field("rng"),
            field("cooldown_windows"),
            field("backoff_level"),
            field("fallback")
        ));
        lines
    }

    /// The literal decision sequence of each policy over [`SCRIPT`],
    /// recorded before the three tuner structs became one: the paper
    /// policy chases every flip; the bandit retunes twice, misses its
    /// second prediction (window 5) and sits out the cooldown, then
    /// trips the regret bound at window 7, reverts to the seed IC and
    /// draws no further random numbers; the static policy never decides.
    #[test]
    fn decision_sequences_are_pinned() {
        let paper = [
            "retune IC[A:12|B:0|C:0] retunes=1 predicted=0 realized=0 regret=0 static=4246000",
            "keep IC[A:12|B:0|C:0] retunes=1 predicted=3799352 realized=3799352 regret=0 static=8492000",
            "keep IC[A:12|B:0|C:0] retunes=1 predicted=3799352 realized=3799352 regret=0 static=12738000",
            "retune IC[A:0|B:12|C:0] retunes=2 predicted=3799352 realized=3799352 regret=55786000 static=16984000",
            "retune IC[A:0|B:0|C:12] retunes=3 predicted=63384704 realized=3799352 regret=111572000 static=21230000",
            "keep IC[A:0|B:0|C:12] retunes=3 predicted=122970056 realized=63384704 regret=111572000 static=25476000",
            "keep IC[A:0|B:0|C:12] retunes=3 predicted=122970056 realized=63384704 regret=111572000 static=29722000",
            "retune IC[A:12|B:0|C:0] retunes=4 predicted=122970056 realized=63384704 regret=167358000 static=33968000",
            "keep IC[A:12|B:0|C:0] retunes=4 predicted=182555408 realized=122970056 regret=167358000 static=38214000",
            "keep IC[A:12|B:0|C:0] retunes=4 predicted=182555408 realized=122970056 regret=167358000 static=42460000",
            "arms=None rng=None cooldown=None backoff=None fallback=None",
        ];
        let bandit = [
            "retune IC[A:12|B:0|C:0] retunes=1 predicted=0 realized=0 regret=0 static=4246000",
            "keep IC[A:12|B:0|C:0] retunes=1 predicted=3799352 realized=3799352 regret=0 static=8492000",
            "keep IC[A:12|B:0|C:0] retunes=1 predicted=3799352 realized=3799352 regret=0 static=12738000",
            "retune IC[A:0|B:12|C:0] retunes=2 predicted=3799352 realized=3799352 regret=55786000 static=16984000",
            "keep IC[A:0|B:12|C:0] retunes=2 predicted=63384704 realized=3799352 regret=111572000 static=21230000",
            "keep IC[A:0|B:12|C:0] retunes=2 predicted=63384704 realized=3799352 regret=167358000 static=25476000",
            "retune IC[A:4|B:4|C:4] retunes=3 predicted=63384704 realized=3799352 regret=223144000 static=29722000",
            "keep IC[A:4|B:4|C:4] retunes=3 predicted=63384704 realized=3799352 regret=223144000 static=33968000",
            "keep IC[A:4|B:4|C:4] retunes=3 predicted=63384704 realized=3799352 regret=223144000 static=38214000",
            "keep IC[A:4|B:4|C:4] retunes=3 predicted=63384704 realized=3799352 regret=223144000 static=42460000",
            "arms=Some(\"3\") rng=Some(\"7681369315913181500\") cooldown=Some(\"0\") backoff=Some(\"1\") fallback=Some(\"true\")",
        ];
        let mut fixed = vec![
            "skip IC[A:4|B:4|C:4] retunes=0 predicted=0 realized=0 regret=0 static=0";
            SCRIPT.len()
        ];
        fixed.push("arms=None rng=None cooldown=None backoff=None fallback=None");
        assert_eq!(decision_trace(TunerKind::Paper), paper);
        assert_eq!(decision_trace(TunerKind::Bandit), bandit);
        assert_eq!(decision_trace(TunerKind::Static), fixed);
    }

    #[test]
    fn tuner_seam_refuses_cross_kind_snapshots() {
        let initial = IndexConfig::even(3, 12).unwrap();
        let paper = Tuner::new(
            TunerKind::Paper,
            AssessorKind::Sria,
            3,
            initial.clone(),
            TunerConfig::default(),
            CostParams::default(),
        )
        .unwrap();
        let mut w = SectionWriter::new();
        paper.save(&mut w);
        let bytes = w.into_bytes();
        let mut bandit = Tuner::new(
            TunerKind::Bandit,
            AssessorKind::Sria,
            3,
            initial,
            TunerConfig::default(),
            CostParams::default(),
        )
        .unwrap();
        let mut r = SectionReader::new(&bytes);
        assert!(
            bandit.restore_from(&mut r).is_err(),
            "a paper-tuner snapshot must not restore into a bandit"
        );
    }

    #[test]
    fn tuner_kind_labels_round_trip() {
        for kind in [TunerKind::Paper, TunerKind::Bandit, TunerKind::Static] {
            assert_eq!(TunerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TunerKind::parse("greedy"), None);
        assert_eq!(TunerKind::default(), TunerKind::Paper);
    }
}
