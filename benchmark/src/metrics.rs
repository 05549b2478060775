//! The benchmark's stable surface: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root declares the same tables; `tests/contract.rs` keeps the two in
//! agreement, so a later issue can refer to any name below.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "paper_amri",
        why: "Read-heavy single-thread baseline: ~100 probes per insert, so index search, router, job queue and assessment do the work; bypasses pool, tier, checkpoint and host.",
    },
    WorkloadSpec {
        name: "ingest_sparse",
        why: "Write-leaning counterpart: ~10 probes per insert (not ~100) that find almost nothing, so synth, insert/expire and window slide take several times the share; a read-path gain that taxes writes shows.",
    },
    WorkloadSpec {
        name: "sharded_mt",
        why: "paper_amri at shards=4, parallelism=2: the WorkerPool handshake, shard planning, staged replay and canonical merge that paper_amri runs inline.",
    },
    WorkloadSpec {
        name: "spill_ckpt",
        why: "State larger than its RAM budget and durable: tier append/read, block cache hit and miss paths, readahead, snapshot encode and write; no other workload attaches either.",
    },
    WorkloadSpec {
        name: "fleet_lineup",
        why: "The four-flavor lineup as tenants of one TenantHost with one queued at admission: scheduling overhead, and the only workload running hash, static-bitmap and scan states.",
    },
];

/// An end-to-end metric: what a user of the engine sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `--compare` (two suites of one seed) reports a regression.
    pub bound: f64,
    /// A function of the seed alone: two suites of one seed that read
    /// differently computed different answers.
    pub exact: bool,
    /// The bound `BENCHMARK.json` declares for the driver, which compares
    /// runs of *different* seeds; `None` where the metric cannot be an
    /// end-to-end metric of that contract (it reads 0, or spreads beyond
    /// the widest permitted bound from seed to seed) and is declared
    /// per-layer there instead.
    pub contract_bound: Option<f64>,
    /// One line for the glossary.
    pub what: &'static str,
}

/// The nine end-to-end metrics. A `--trace 0` run measures all of them;
/// its result line carries the ones with a `contract_bound`.
///
/// `bound` is the issue's regression bound and is what `--compare` applies
/// between two suites of one seed. `contract_bound` has to absorb what the
/// driver's acceptance test adds on top: every run another seed, on a
/// 2-core VM whose neighbours slow memory-bound code by 10–35 % for minutes
/// at a time, with every spread wanted below a third of the bound.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        exact: false,
        contract_bound: Some(0.25),
        what: "arrivals ingested per wall-second of the step loop (fleet: summed over tenants); the loop is run::denoised",
    },
    EndToEnd {
        name: "quantum_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        contract_bound: Some(0.25),
        what: "median wall time of one 64-step scheduling quantum (fleet: one TenantHost::run_quantum) of that loop",
    },
    EndToEnd {
        name: "quantum_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        contract_bound: None,
        what: "99th percentile of the same quanta: ingest bursts and host timer ticks",
    },
    EndToEnd {
        name: "quantum_p999_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        contract_bound: None,
        what: "99.9th percentile: migration, tier-balance and checkpoint stalls (<= 1 per virtual second)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        contract_bound: Some(0.25),
        what: "scenario build + quasi-training + Executor::try_new + spill/checkpoint dirs + admission, up to the first step; fastest of the run's set-ups, the first counted from process start",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        exact: false,
        contract_bound: Some(0.20),
        what: "VmHWM of the benchmark process when its first pass ends: one repetition's memory, before any reference run",
    },
    EndToEnd {
        name: "virt_outputs_per_s",
        unit: "1/virt_s",
        better: Better::Higher,
        bound: 0.02,
        exact: true,
        contract_bound: Some(0.12),
        what: "join outputs per virtual second, the paper's y-axis",
    },
    EndToEnd {
        name: "virt_job_latency_ms",
        unit: "virt_ms",
        better: Better::Lower,
        bound: 0.02,
        exact: true,
        contract_bound: None,
        what: "mean backlog sojourn in virtual ms (fleet: mean over tenants)",
    },
    EndToEnd {
        name: "failed_frac",
        unit: "frac",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
        contract_bound: None,
        what: "tuples shed, evicted or lost - all of them if the run died or a verification identity broke - over tuples offered; 0 on every workload",
    },
];

/// A per-layer metric: one module's work or time, measured from outside.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Which end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, emitted per workload with `--trace 1` after the
/// end-to-end metrics that have no `contract_bound`. A metric whose layer
/// a workload never enters reads 0 there.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: &[PerLayer] = &[
    // Traced run: one span per Session::step, classified from counter deltas.
    layer("engine.ops.probe_step_ns_p50", "ns", Lower, "quantum_p50_us everywhere"),
    layer("engine.ops.ingest_step_ns_p50", "ns", Lower, "tuples_per_s on ingest_sparse"),
    layer("engine.ops.grid_step_us_p50", "us", Lower, "quantum_p999_us (sample + tier balance + tune)"),
    layer("engine.ops.grid_step_us_p99", "us", Lower, "quantum_p999_us"),
    layer("engine.ops.idle_jumps", "count", Lower, "none: headroom indicator"),
    layer("trace.overhead_frac", "frac", Lower, "none: traced wall / untraced wall - 1"),
    // Layer drives: public entry points on state loaded to window size.
    layer("synth.attrs_ns", "ns", Lower, "tuples_per_s on ingest_sparse; nil on paper_amri"),
    layer("stream.queue.pushpop_ns", "ns", Lower, "quantum_p50_us on paper_amri"),
    layer("core.index.search_ns.a1", "ns", Lower, "tuples_per_s, quantum_p50_us on paper_amri, fleet_lineup"),
    layer("core.index.search_ns.a2", "ns", Lower, "tuples_per_s, quantum_p50_us on paper_amri, fleet_lineup"),
    layer("core.index.search_ns.a3", "ns", Lower, "tuples_per_s, quantum_p50_us on paper_amri, fleet_lineup"),
    layer("core.index.materialize_ns", "ns", Lower, "tuples_per_s on paper_amri, fleet_lineup"),
    layer("core.index.ingest_ns", "ns", Lower, "tuples_per_s on ingest_sparse; <1% on paper_amri"),
    layer("core.index.migrate_us", "us", Lower, "quantum_p999_us on paper_amri; not p50 anywhere"),
    layer("core.tuner.select_us", "us", Lower, "quantum_p999_us on paper_amri"),
    layer("core.tuner.whatif_price_ns", "ns", Lower, "quantum_p999_us on paper_amri"),
    layer("core.assess.record_ns", "ns", Lower, "quantum_p50_us on paper_amri"),
    layer("core.assess.frequent_us", "us", Lower, "quantum_p999_us on paper_amri"),
    layer("engine.router.choose_observe_ns", "ns", Lower, "quantum_p50_us on paper_amri"),
    layer("engine.pool.dispatch_us", "us", Lower, "tuples_per_s on sharded_mt only"),
    layer("engine.pool.t1_tuples_per_s", "1/s", Higher, "reference for sharded_mt tuples_per_s"),
    layer("engine.pool.speedup_vs_t1", "x", Higher, "tuples_per_s on sharded_mt only"),
    layer("core.tier.append_block_us", "us", Lower, "tuples_per_s on spill_ckpt only"),
    layer("core.tier.read_block_us", "us", Lower, "tuples_per_s on spill_ckpt only"),
    layer("core.tier.cache_hit_ns", "ns", Lower, "tuples_per_s on spill_ckpt only"),
    layer("core.tier.materialize_batch_us", "us", Lower, "tuples_per_s on spill_ckpt only"),
    layer("core.tier.speedup_vs_ram", "x", Higher, "spill_ckpt step loop against its all-RAM twin's"),
    layer("engine.checkpoint.snapshot_ms", "ms", Lower, "quantum_p999_us, tuples_per_s on spill_ckpt"),
    layer("engine.checkpoint.write_ms", "ms", Lower, "quantum_p999_us, tuples_per_s on spill_ckpt"),
    layer("engine.checkpoint.restore_ms", "ms", Lower, "none: recovery time"),
    layer("engine.checkpoint.bytes", "bytes", Lower, "engine.checkpoint.write_ms"),
    layer("engine.checkpoint.count", "count", Lower, "tuples_per_s on spill_ckpt"),
    layer("engine.checkpoint.attached_overhead_frac", "frac", Lower, "tuples_per_s on spill_ckpt"),
    layer("serve.pick_ns", "ns", Lower, "tuples_per_s on fleet_lineup"),
    layer("serve.host_overhead_frac", "frac", Lower, "tuples_per_s on fleet_lineup"),
    layer("serve.quanta", "count", Lower, "none: scheduling volume"),
    layer("serve.queued_tenants", "count", Lower, "none: admission queue exercised"),
    layer("bench.training.train_s", "s", Lower, "setup_s everywhere"),
    layer("bench.setup.cold_s", "s", Lower, "none: the process's first set-up alone, from process start, caches cold"),
    // Exact counts from RunResult / MaintenanceStats / SpillStats / RunContext.
    layer("engine.ops.steps", "count", Lower, "work volume"),
    layer("engine.ops.jobs", "count", Lower, "work volume"),
    layer("engine.ops.jobs_per_tuple", "count", Lower, ">=50 on paper_amri, <=15 on ingest_sparse"),
    layer("engine.ops.outputs", "count", Higher, "virt_outputs_per_s"),
    layer("core.index.requests", "count", Lower, "work volume"),
    layer("core.index.matches_per_request", "count", Lower, "work volume"),
    layer("core.index.ingest_virt_ns", "virt_ns", Lower, "virtual-cost twin of core.index.ingest_ns"),
    layer("core.tuner.retunes", "count", Lower, "quantum_p999_us"),
    layer("core.tuner.moved_tuples", "count", Lower, "quantum_p999_us"),
    layer("core.tuner.migrate_virt_ns", "virt_ns", Lower, "virt_job_latency_ms"),
    layer("core.tuner.migrate_stalls", "count", Lower, "virt_job_latency_ms"),
    layer("core.tier.spilled_tuples", "count", Lower, "zero outside spill_ckpt"),
    layer("core.tier.blocks_written", "count", Lower, "zero outside spill_ckpt"),
    layer("core.tier.blocks_read", "count", Lower, "zero outside spill_ckpt"),
    layer("core.tier.cache_hit_frac", "frac", Higher, "tuples_per_s on spill_ckpt"),
    layer("core.tier.coalesced_reads", "count", Higher, "tuples_per_s on spill_ckpt"),
    layer("core.tier.prefetched_blocks", "count", Higher, "tuples_per_s on spill_ckpt"),
    layer("core.tier.cache_evictions", "count", Lower, "tuples_per_s on spill_ckpt"),
    layer("core.tier.lost_blocks", "count", Lower, "must stay 0"),
    layer("core.tier.disk_bytes", "bytes", Lower, "zero outside spill_ckpt"),
    layer("engine.memory.virt_peak_bytes", "bytes", Lower, "peak_rss_mb"),
    // Shares of the untraced step-loop wall: drive ns/op x run op-count.
    layer("share.synth", "frac", Lower, "tuples_per_s"),
    layer("share.index.search", "frac", Lower, "tuples_per_s"),
    layer("share.index.ingest", "frac", Lower, "tuples_per_s"),
    layer("share.assess", "frac", Lower, "tuples_per_s"),
    layer("share.router", "frac", Lower, "tuples_per_s"),
    layer("share.tier", "frac", Lower, "tuples_per_s"),
    layer("share.checkpoint", "frac", Lower, "tuples_per_s"),
    layer("share.pool", "frac", Lower, "tuples_per_s"),
    layer("share.unattributed", "frac", Lower, "what the drives do not explain"),
    // Noise indicators, so a disturbed set is recognisable.
    layer("proc.cpu_user_s", "s", Lower, "none"),
    layer("proc.cpu_sys_s", "s", Lower, "none"),
    layer("proc.ctx_switches_invol", "count", Lower, "none"),
    layer("host.loadavg_start", "count", Lower, "none"),
];

/// The contents of the repository's `BENCHMARK.json`, derived from the
/// tables above (`run.sh --describe` prints it; `tests/contract.rs`
/// checks the committed file still says the same).
pub fn benchmark_json(run_seconds: u64) -> Json {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    let end_to_end = END_TO_END.iter().filter_map(|m| {
        let mut members = named(m.name, m.unit, m.better);
        members.push(("bound", Json::Num(m.contract_bound?)));
        Some(Json::obj(members))
    });
    let per_layer = END_TO_END
        .iter()
        .filter(|m| m.contract_bound.is_none())
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .map(|(name, unit, better)| Json::obj(named(name, unit, better)));
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

/// Seconds one contract run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Is `name` within the contract's charset (letters, digits, `_ . -`,
/// starting with a letter or digit, at most 64 characters)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics one run reports: an ordered name → value map that refuses
/// undeclared names and double writes, and knows when it is complete.
#[derive(Debug)]
pub struct MetricSet {
    /// `(name, unit, goes into the contract's result line)`.
    declared: Vec<(&'static str, &'static str, bool)>,
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over the end-to-end table: all nine, of which the
    /// `--trace 0` result line carries those `BENCHMARK.json` declares.
    pub fn end_to_end() -> Self {
        Self::over(
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.contract_bound.is_some()))
                .collect(),
        )
    }

    /// An empty set over what `BENCHMARK.json` declares per-layer: the
    /// end-to-end metrics without a `contract_bound`, then the per-layer
    /// table.
    pub fn per_layer() -> Self {
        Self::over(
            END_TO_END
                .iter()
                .filter(|m| m.contract_bound.is_none())
                .map(|m| (m.name, m.unit, true))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, true)))
                .collect(),
        )
    }

    fn over(declared: Vec<(&'static str, &'static str, bool)>) -> Self {
        let values = vec![None; declared.len()];
        MetricSet { declared, values }
    }

    /// Record `name = value`.
    ///
    /// # Panics
    /// Panics on an undeclared name or a second write — both are bugs in
    /// the benchmark, not conditions of the system under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in metrics.rs"));
        assert!(self.values[i].is_none(), "metric {name:?} set twice");
        self.values[i] = Some(value);
    }

    /// Set every still-unset metric to 0: the layers this workload never
    /// entered.
    pub fn zero_fill(&mut self) {
        for v in &mut self.values {
            v.get_or_insert(0.0);
        }
    }

    /// `(name, value, unit)` for every declared metric, in table order.
    ///
    /// # Panics
    /// Panics if a declared metric was never set.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.declared
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit, _), v)| {
                let v = v.unwrap_or_else(|| panic!("metric {name:?} was never set"));
                (name, v, unit)
            })
            .collect()
    }

    /// The value of `name`, if declared and set.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.declared.iter().position(|(n, _, _)| *n == name)?;
        self.values[i]
    }

    /// The contract's `metrics` object, `{name: {value, unit}}`, over the
    /// metrics `BENCHMARK.json` declares for this mode.
    pub fn to_json(&self) -> Json {
        let in_contract = self.declared.iter().map(|&(_, _, c)| c);
        Json::obj(
            self.entries()
                .into_iter()
                .zip(in_contract)
                .filter(|&(_, c)| c)
                .map(|((name, value, unit), _)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(
                m.contract_bound.is_none_or(|b| b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        let in_contract = END_TO_END
            .iter()
            .filter(|m| m.contract_bound.is_some())
            .count();
        assert!((1..=16).contains(&in_contract));
        assert!((1..=128).contains(&(PER_LAYER.len() + END_TO_END.len() - in_contract)));
        // The contract wants set-up time declared, with the largest bound.
        let widest = END_TO_END.iter().filter_map(|m| m.contract_bound);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.contract_bound == widest.clone().reduce(f64::max)));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn double_writes_are_refused() {
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", 1.0);
        m.set("setup_s", 2.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        MetricSet::end_to_end().set("nope", 1.0);
    }
}
