//! The index-configuration-dependent cost model `C_D` (§IV-A, Eq. 1) and
//! the cost receipts physical operations fill in.
//!
//! Two views of cost coexist:
//!
//! * **Receipts** ([`CostReceipt`]) record what an operation *actually did*
//!   — hashes computed, buckets probed, tuples compared, entries moved.
//!   The engine converts receipts to virtual time via [`CostParams`].
//! * **The analytic model** ([`CostParams::expected_cd`]) predicts the cost
//!   *rate* of a candidate configuration for an access-pattern workload,
//!   which is what the tuner minimizes. Following Eq. 1:
//!
//! ```text
//! C_D = λ_d·N_A·C_h                                   (maintenance hashing)
//!     + Σ_ap λ_r·F_ap·( N_{A,ap}·C_h                  (request hashing)
//!                     + (λ_d·W / 2^{B_ap})·C_c )      (bucket scanning)
//! ```
//!
//! where `B_ap` is the bits the configuration assigns to the attributes
//! `ap` specifies — wildcards over indexed attributes shrink `B_ap` and so
//! blow up the expected number of tuples compared, exactly the §III
//! wide-search effect. (The paper's Eq. 1 prints the `F_ap` factor inside
//! the scan term a second time; we read it as the standard
//! expected-cost-per-request weighting shown above, which matches the
//! surrounding prose and \[14\]'s unit-cost model.)

use crate::config::IndexConfig;
use crate::tier::BLOCK_TUPLES;
use amri_stream::{AccessPattern, VirtualDuration};
use serde::{Deserialize, Serialize};

/// What one physical operation did, in counted primitive actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostReceipt {
    /// Hash computations (`C_h` each).
    pub hash_ops: u64,
    /// Tuple value comparisons (`C_c` each).
    pub comparisons: u64,
    /// Bucket/map probes (pointer chases).
    pub bucket_probes: u64,
    /// Entries physically moved (migration, bucket reshuffles).
    pub moved: u64,
    /// Fixed-cost operations (tuple insert/delete slots).
    pub base_ops: u64,
    /// Virtual nanoseconds of storage-tier I/O (block reads/writes of the
    /// disk spill tier, plus injected latency spikes). Unlike the counted
    /// actions above this is already a time, charged straight from the
    /// [`StorageProfile`]; zero for every purely in-memory operation, so
    /// legacy receipts are unchanged.
    pub io_ns: u64,
}

impl CostReceipt {
    /// The zero receipt.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another receipt.
    pub fn merge(&mut self, other: &CostReceipt) {
        self.hash_ops += other.hash_ops;
        self.comparisons += other.comparisons;
        self.bucket_probes += other.bucket_probes;
        self.moved += other.moved;
        self.base_ops += other.base_ops;
        self.io_ns += other.io_ns;
    }

    /// Total primitive actions (for quick assertions in tests). I/O time
    /// is not an action count and is excluded.
    pub fn total_actions(&self) -> u64 {
        self.hash_ops + self.comparisons + self.bucket_probes + self.moved + self.base_ops
    }
}

/// Latency profile of one storage tier, in virtual nanoseconds per block
/// operation. Folded into [`CostParams::expected_cd`] so the tuner prices
/// probes that touch spill-resident tuples, and used to charge
/// [`CostReceipt::io_ns`] for actual block I/O. A block holds
/// [`BLOCK_TUPLES`] tuples, the chunk the engine's balancer spills, so
/// the per-tuple prices amortize over exactly the blocks that run.
///
/// The all-zero [`Default`] models an infinitely fast disk: cost folding
/// becomes the identity (the proptests pin this), so enabling the spill
/// tier with the default profile is behaviorally invisible. Use
/// [`committed_default`](Self::committed_default) for a realistic committed
/// profile. A profile is never measured at run time: a wall-clock number
/// would break deterministic replay.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StorageProfile {
    /// Virtual nanoseconds to read one block.
    pub read_ns: u64,
    /// Virtual nanoseconds to write (and verify) one block.
    pub write_ns: u64,
    /// Virtual nanoseconds a demand read costs when the block is resident
    /// in the decoded block cache (a RAM lookup, orders of magnitude below
    /// `read_ns`). Zero in the identity profile, so cache hits charge
    /// nothing and runs at every cache budget stay byte-identical.
    #[serde(default)]
    pub cache_hit_ns: u64,
    /// Blocks of expiry-order readahead issued per maintenance grid point
    /// (the next-oldest live spill blocks are the ones probes over an
    /// aging window will want). Zero disables prefetch entirely.
    #[serde(default)]
    pub readahead_blocks: u32,
}

impl StorageProfile {
    /// The committed default profile: round numbers for a local NVMe-class
    /// device (~120 µs per 64-tuple block read, ~2 µs per warm cache hit)
    /// so storage-aware tuning is reproducible without measuring anything.
    pub fn committed_default() -> Self {
        StorageProfile {
            read_ns: 120_000,
            write_ns: 180_000,
            cache_hit_ns: 2_000,
            readahead_blocks: 2,
        }
    }

    /// True iff this profile charges nothing (the identity fold).
    /// `readahead_blocks` is not consulted: prefetch charges `read_ns`
    /// per block, so a zero-latency profile stays the identity no matter
    /// how much readahead it issues.
    pub fn is_zero(&self) -> bool {
        self.read_ns == 0 && self.write_ns == 0 && self.cache_hit_ns == 0
    }

    /// Amortized per-scanned-tuple read penalty, in ticks (a tick models a
    /// microsecond): one block read shared by [`BLOCK_TUPLES`] tuples.
    pub fn per_tuple_read_ticks(&self) -> f64 {
        self.read_ns as f64 / 1000.0 / BLOCK_TUPLES as f64
    }

    /// Amortized per-scanned-tuple penalty when the block is cache-warm,
    /// in ticks: one `cache_hit_ns` lookup shared by [`BLOCK_TUPLES`].
    pub fn per_tuple_hit_ticks(&self) -> f64 {
        self.cache_hit_ns as f64 / 1000.0 / BLOCK_TUPLES as f64
    }
}

/// Unit costs, in virtual-time ticks per primitive action, plus the ambient
/// stream rates the analytic model needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Ticks per hash computation (`C_h`).
    pub c_h: f64,
    /// Ticks per value comparison (`C_c`).
    pub c_c: f64,
    /// Ticks per bucket probe.
    pub c_probe: f64,
    /// Ticks per moved entry (migration).
    pub c_move: f64,
    /// Ticks per fixed base operation (insert/delete slot handling).
    pub c_base: f64,
    /// Extend Eq. 1 with the bucket-probe term (an engineering refinement
    /// over the paper's model): a search whose wildcard attributes own `w`
    /// configuration bits must visit `min(2^w, occupied)` buckets. The
    /// paper's model counts only hashes and comparisons; with sparse
    /// buckets the probe walk is a real cost the tuner should see. Off by
    /// default (paper-faithful Eq. 1); the engine scenarios enable it.
    pub probe_aware: bool,
    /// Latency profile of the disk spill tier. With the all-zero default
    /// the storage fold is the identity and `expected_cd` matches the
    /// paper's in-memory model exactly; a nonzero profile raises the
    /// effective per-tuple scan cost for the spill-resident fraction of
    /// the window (see [`WorkloadProfile::spilled_frac`]).
    pub storage: StorageProfile,
}

impl Default for CostParams {
    /// Defaults calibrated so one hash ≈ 8 comparisons ≈ 2 probes, in the
    /// ballpark of a 2000s-era core (the paper's AMD 2.6 GHz): 0.08 µs per
    /// hash, 0.01 µs per comparison.
    fn default() -> Self {
        CostParams {
            c_h: 0.08,
            c_c: 0.01,
            c_probe: 0.04,
            c_move: 0.06,
            c_base: 0.10,
            probe_aware: false,
            storage: StorageProfile::default(),
        }
    }
}

impl CostParams {
    /// Convert a receipt into elapsed virtual time.
    pub fn ticks(&self, r: &CostReceipt) -> VirtualDuration {
        let t = self.c_h * r.hash_ops as f64
            + self.c_c * r.comparisons as f64
            + self.c_probe * r.bucket_probes as f64
            + self.c_move * r.moved as f64
            + self.c_base * r.base_ops as f64
            + r.io_ns as f64 / 1000.0;
        VirtualDuration(t.round() as u64)
    }

    /// Convert a receipt into virtual **nanoseconds** — the same cost
    /// model as [`ticks`](Self::ticks) at 1000× resolution (one tick
    /// models a microsecond). Use this for accounting that sums many
    /// sub-tick charges (e.g. per-arrival ingest maintenance, which costs
    /// a fraction of a tick and would round to zero tick-by-tick); the
    /// virtual clock itself still advances in whole ticks.
    pub fn nanos(&self, r: &CostReceipt) -> u64 {
        let t = self.c_h * r.hash_ops as f64
            + self.c_c * r.comparisons as f64
            + self.c_probe * r.bucket_probes as f64
            + self.c_move * r.moved as f64
            + self.c_base * r.base_ops as f64;
        (t * 1000.0).round() as u64 + r.io_ns
    }

    /// Eq. 1: expected configuration-dependent cost rate (ticks per virtual
    /// second) of `config` under `profile`.
    pub fn expected_cd(&self, config: &IndexConfig, profile: &WorkloadProfile) -> f64 {
        let maintenance = profile.lambda_d * config.indexed_attrs() as f64 * self.c_h;
        let window_tuples = profile.lambda_d * profile.window_secs;
        // Storage-aware scan cost: a scanned tuple is spill-resident with
        // probability `spilled_frac` and then pays an amortized block
        // access on top of the comparison — a full device read when cold,
        // only the cache lookup when the block is warm (probability
        // `cache_hit_frac`, observed from the tier's hit/miss counters).
        // Zero profile or zero spill ⇒ exactly the paper's in-memory
        // `C_c`; a fully warm cache prices a spilled tuple at RAM-lookup
        // cost, so the tuner stops over-penalizing ICs whose cold STeMs
        // are actually cache-resident.
        let per_spilled = (1.0 - profile.cache_hit_frac) * self.storage.per_tuple_read_ticks()
            + profile.cache_hit_frac * self.storage.per_tuple_hit_ticks();
        let c_scan = self.c_c + profile.spilled_frac * per_spilled;
        let mut request = 0.0;
        for stat in &profile.aps {
            // Hash only the specified attrs that the config actually indexes.
            let hashed = stat
                .pattern
                .positions()
                .filter(|&i| config.bits_of(i) > 0)
                .count() as f64;
            let b_ap = config.pattern_bits(stat.pattern);
            let scanned = window_tuples / 2f64.powi(b_ap as i32);
            let mut per_request = hashed * self.c_h + scanned * c_scan;
            if self.probe_aware {
                // Bucket walk: 2^w candidate ids over the wildcard bits,
                // capped by the buckets that can actually be occupied.
                let w = config.total_bits() - b_ap;
                let candidates = 2f64.powi(w.min(62) as i32);
                let occupied = window_tuples.min(2f64.powi(config.total_bits().min(62) as i32));
                per_request += candidates.min(occupied) * self.c_probe;
            }
            request += profile.lambda_r * stat.freq * per_request;
        }
        maintenance + request
    }
}

/// Frequency of one access pattern in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApStat {
    /// The pattern.
    pub pattern: AccessPattern,
    /// Its frequency `F_ap` (fraction of requests), in `[0, 1]`.
    pub freq: f64,
}

/// The ambient workload the analytic model evaluates a configuration
/// against: stream/request rates, the window, and the pattern mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Tuples arriving per virtual second (`λ_d`).
    pub lambda_d: f64,
    /// Search requests per virtual second (`λ_r`).
    pub lambda_r: f64,
    /// Window length in virtual seconds (`W`).
    pub window_secs: f64,
    /// Access patterns and their frequencies (need not sum to 1 if rare
    /// patterns were compressed away).
    pub aps: Vec<ApStat>,
    /// Fraction of live window tuples resident in the disk spill tier, in
    /// `[0, 1]`. Zero (the [`new`](Self::new) default) when no tier is
    /// active, so existing call sites keep the pure in-memory model.
    pub spilled_frac: f64,
    /// Fraction of spill-tier demand reads served by the decoded block
    /// cache, in `[0, 1]` — the tier's observed `hits / (hits + misses)`.
    /// Zero (the default) prices every spilled tuple at full device
    /// latency.
    #[serde(default)]
    pub cache_hit_frac: f64,
}

impl WorkloadProfile {
    /// Build a profile, normalizing no frequencies (callers pass what the
    /// assessor reported). The spill-resident fraction starts at zero; set
    /// it with [`with_spilled_frac`](Self::with_spilled_frac).
    pub fn new(lambda_d: f64, lambda_r: f64, window_secs: f64, aps: Vec<ApStat>) -> Self {
        WorkloadProfile {
            lambda_d,
            lambda_r,
            window_secs,
            aps,
            spilled_frac: 0.0,
            cache_hit_frac: 0.0,
        }
    }

    /// Set the spill-resident fraction of the window (clamped to `[0, 1]`).
    pub fn with_spilled_frac(mut self, frac: f64) -> Self {
        self.spilled_frac = frac.clamp(0.0, 1.0);
        self
    }

    /// Set the observed block-cache hit fraction (clamped to `[0, 1]`).
    pub fn with_cache_hit_frac(mut self, frac: f64) -> Self {
        self.cache_hit_frac = frac.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(mask: u32) -> AccessPattern {
        AccessPattern::new(mask, 3)
    }

    fn profile(aps: Vec<ApStat>) -> WorkloadProfile {
        WorkloadProfile::new(1000.0, 500.0, 30.0, aps)
    }

    #[test]
    fn receipts_merge_componentwise() {
        let mut a = CostReceipt {
            hash_ops: 1,
            comparisons: 2,
            bucket_probes: 3,
            moved: 4,
            base_ops: 5,
            io_ns: 6,
        };
        let b = CostReceipt {
            hash_ops: 10,
            comparisons: 20,
            bucket_probes: 30,
            moved: 40,
            base_ops: 50,
            io_ns: 60,
        };
        a.merge(&b);
        assert_eq!(a.hash_ops, 11);
        assert_eq!(a.comparisons, 22);
        assert_eq!(a.io_ns, 66);
        // I/O is time, not an action — merged but not counted.
        assert_eq!(a.total_actions(), 11 + 22 + 33 + 44 + 55);
    }

    #[test]
    fn ticks_weight_each_action_kind() {
        let p = CostParams {
            c_h: 2.0,
            c_c: 1.0,
            c_probe: 3.0,
            c_move: 5.0,
            c_base: 7.0,
            probe_aware: false,
            storage: StorageProfile::default(),
        };
        let r = CostReceipt {
            hash_ops: 1,
            comparisons: 1,
            bucket_probes: 1,
            moved: 1,
            base_ops: 1,
            io_ns: 0,
        };
        assert_eq!(p.ticks(&r), VirtualDuration(18));
        assert_eq!(p.ticks(&CostReceipt::new()), VirtualDuration(0));
    }

    #[test]
    fn io_time_charges_ticks_and_nanos_directly() {
        let p = CostParams::default();
        let r = CostReceipt {
            io_ns: 2_500,
            ..CostReceipt::new()
        };
        // 2500 ns = 2.5 ticks, rounded; nanos pass through exactly.
        assert_eq!(p.ticks(&r), VirtualDuration(3));
        assert_eq!(p.nanos(&r), 2_500);
        let mixed = CostReceipt {
            comparisons: 100, // 1 tick at default c_c
            io_ns: 1_000,
            ..CostReceipt::new()
        };
        assert_eq!(p.nanos(&mixed), 2_000);
    }

    #[test]
    fn zero_storage_profile_is_the_identity_fold() {
        // With the all-zero profile, a fully spilled window costs exactly
        // what the in-memory model says — the byte-identity guarantee.
        let params = CostParams::default();
        assert!(params.storage.is_zero());
        let in_mem = profile(vec![ApStat {
            pattern: ap(0b011),
            freq: 1.0,
        }]);
        let spilled = in_mem.clone().with_spilled_frac(1.0);
        let ic = IndexConfig::new(vec![3, 2, 0]).unwrap();
        assert_eq!(
            params.expected_cd(&ic, &in_mem),
            params.expected_cd(&ic, &spilled)
        );
    }

    #[test]
    fn spilled_fraction_raises_cd_under_a_slow_disk() {
        let params = CostParams {
            storage: StorageProfile::committed_default(),
            ..CostParams::default()
        };
        let base = profile(vec![ApStat {
            pattern: ap(0b001),
            freq: 1.0,
        }]);
        let ic = IndexConfig::new(vec![2, 0, 0]).unwrap();
        let cd_mem = params.expected_cd(&ic, &base);
        let cd_half = params.expected_cd(&ic, &base.clone().with_spilled_frac(0.5));
        let cd_full = params.expected_cd(&ic, &base.clone().with_spilled_frac(1.0));
        assert!(cd_mem < cd_half, "{cd_mem} vs {cd_half}");
        assert!(cd_half < cd_full, "{cd_half} vs {cd_full}");
    }

    #[test]
    fn spilled_frac_builder_clamps() {
        let p = profile(vec![]).with_spilled_frac(7.0);
        assert_eq!(p.spilled_frac, 1.0);
        let p = profile(vec![]).with_spilled_frac(-1.0);
        assert_eq!(p.spilled_frac, 0.0);
    }

    #[test]
    fn per_tuple_read_ticks_amortizes_over_the_block() {
        let prof = StorageProfile {
            read_ns: 128_000,
            write_ns: 0,
            cache_hit_ns: 6_400,
            ..StorageProfile::default()
        };
        // 128 µs per 64-tuple block ⇒ 2 ticks per tuple; a 6.4 µs hit ⇒ 0.1.
        assert_eq!(BLOCK_TUPLES, 64);
        assert!((prof.per_tuple_read_ticks() - 2.0).abs() < 1e-12);
        assert!((prof.per_tuple_hit_ticks() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn warm_cache_discounts_cd_between_hit_cost_and_device_cost() {
        let params = CostParams {
            storage: StorageProfile::committed_default(),
            ..CostParams::default()
        };
        let base = profile(vec![ApStat {
            pattern: ap(0b001),
            freq: 1.0,
        }])
        .with_spilled_frac(0.8);
        let ic = IndexConfig::new(vec![2, 0, 0]).unwrap();
        let cold = params.expected_cd(&ic, &base);
        let half_warm = params.expected_cd(&ic, &base.clone().with_cache_hit_frac(0.5));
        let warm = params.expected_cd(&ic, &base.clone().with_cache_hit_frac(1.0));
        assert!(warm < half_warm, "{warm} vs {half_warm}");
        assert!(half_warm < cold, "{half_warm} vs {cold}");
        // A fully warm tier still costs more than unspilled RAM: the
        // cache-hit lookup is cheap, not free.
        let in_mem = params.expected_cd(&ic, &base.clone().with_spilled_frac(0.0));
        assert!(in_mem < warm, "{in_mem} vs {warm}");
    }

    #[test]
    fn zero_profile_ignores_cache_hit_frac() {
        // Identity profile: the warm/cold split prices nothing, so the
        // fold stays the identity no matter the observed hit rate — the
        // byte-identity guarantee for cache-enabled identity runs.
        let params = CostParams::default();
        let base = profile(vec![ApStat {
            pattern: ap(0b011),
            freq: 1.0,
        }])
        .with_spilled_frac(1.0);
        let ic = IndexConfig::new(vec![3, 2, 0]).unwrap();
        assert_eq!(
            params.expected_cd(&ic, &base),
            params.expected_cd(&ic, &base.clone().with_cache_hit_frac(0.7))
        );
    }

    #[test]
    fn cache_hit_frac_builder_clamps() {
        let p = profile(vec![]).with_cache_hit_frac(3.0);
        assert_eq!(p.cache_hit_frac, 1.0);
        let p = profile(vec![]).with_cache_hit_frac(-0.5);
        assert_eq!(p.cache_hit_frac, 0.0);
    }

    #[test]
    fn more_bits_on_a_hot_pattern_reduces_cd() {
        // A workload dominated by <A,*,*>: bits on A cut scan cost.
        let params = CostParams::default();
        let prof = profile(vec![ApStat {
            pattern: ap(0b001),
            freq: 1.0,
        }]);
        let none = IndexConfig::new(vec![0, 0, 0]).unwrap();
        let some = IndexConfig::new(vec![4, 0, 0]).unwrap();
        let more = IndexConfig::new(vec![8, 0, 0]).unwrap();
        let cd_none = params.expected_cd(&none, &prof);
        let cd_some = params.expected_cd(&some, &prof);
        let cd_more = params.expected_cd(&more, &prof);
        assert!(cd_none > cd_some, "{cd_none} vs {cd_some}");
        assert!(cd_some > cd_more, "{cd_some} vs {cd_more}");
    }

    #[test]
    fn bits_on_wildcard_attrs_do_not_help_requests() {
        // Bits on C are useless to <A,*,*> requests and add maintenance.
        let params = CostParams::default();
        let prof = profile(vec![ApStat {
            pattern: ap(0b001),
            freq: 1.0,
        }]);
        let on_a = IndexConfig::new(vec![6, 0, 0]).unwrap();
        let on_c = IndexConfig::new(vec![0, 0, 6]).unwrap();
        assert!(
            params.expected_cd(&on_a, &prof) < params.expected_cd(&on_c, &prof),
            "bits must go to the searched attribute"
        );
    }

    #[test]
    fn maintenance_term_scales_with_indexed_attrs() {
        let params = CostParams::default();
        // No requests — only maintenance differs.
        let prof = WorkloadProfile::new(1000.0, 0.0, 30.0, vec![]);
        let one = IndexConfig::new(vec![8, 0, 0]).unwrap();
        let three = IndexConfig::new(vec![3, 3, 2]).unwrap();
        let cd1 = params.expected_cd(&one, &prof);
        let cd3 = params.expected_cd(&three, &prof);
        assert!(
            (cd3 / cd1 - 3.0).abs() < 1e-9,
            "N_A scaling, got {}",
            cd3 / cd1
        );
    }

    #[test]
    fn cd_is_monotone_in_request_rate() {
        let params = CostParams::default();
        let ic = IndexConfig::new(vec![2, 2, 2]).unwrap();
        let slow = WorkloadProfile::new(
            1000.0,
            10.0,
            30.0,
            vec![ApStat {
                pattern: ap(0b111),
                freq: 1.0,
            }],
        );
        let fast = WorkloadProfile::new(
            1000.0,
            1000.0,
            30.0,
            vec![ApStat {
                pattern: ap(0b111),
                freq: 1.0,
            }],
        );
        assert!(params.expected_cd(&ic, &slow) < params.expected_cd(&ic, &fast));
    }

    #[test]
    fn table_ii_worked_example_prefers_the_paper_optimum() {
        // §IV-C2 discussion: with Table II frequencies and a 4-bit IC, the
        // configuration B:1,C:3 (found after CSRIA deleted <A,*,*> and
        // <A,B,*>) is worse than the true optimum A:1,B:1,C:2 when the full
        // statistics are available.
        let params = CostParams::default();
        let prof = profile(vec![
            ApStat {
                pattern: ap(0b001),
                freq: 0.04,
            }, // <A,*,*>
            ApStat {
                pattern: ap(0b010),
                freq: 0.10,
            }, // <*,B,*>
            ApStat {
                pattern: ap(0b100),
                freq: 0.10,
            }, // <*,*,C>
            ApStat {
                pattern: ap(0b011),
                freq: 0.04,
            }, // <A,B,*>
            ApStat {
                pattern: ap(0b101),
                freq: 0.16,
            }, // <A,*,C>
            ApStat {
                pattern: ap(0b110),
                freq: 0.10,
            }, // <*,B,C>
            ApStat {
                pattern: ap(0b111),
                freq: 0.46,
            }, // <A,B,C>
        ]);
        let csria_pick = IndexConfig::new(vec![0, 1, 3]).unwrap();
        let true_opt = IndexConfig::new(vec![1, 1, 2]).unwrap();
        assert!(
            params.expected_cd(&true_opt, &prof) < params.expected_cd(&csria_pick, &prof),
            "the paper's true optimum must beat the CSRIA pick"
        );
    }
}
