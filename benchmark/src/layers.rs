//! The per-layer breakdown of one workload: exact counts from the
//! untraced pass, step timings from the traced pass, ns/op from the
//! layer drives, and the shares those add up to.
//!
//! `share.<layer>` = drive ns/op × the run's op count ÷ the untraced
//! step loop's wall time. The shares are an *outside* estimate: drives
//! run hot and alone, so they undercount, and what they leave over is
//! reported as `share.unattributed` rather than spread around. A sum
//! above 1.1 means the breakdown is lying and fails the run.

use crate::drives::{self, Loaded};
use crate::host::{self, PinnedApart};
use crate::metrics::MetricSet;
use crate::run::{manual_policy, median, Counters, EngineRun, Pass, WorkDir};
use crate::single::SingleArgs;
use crate::trace::{self, step_stats, traced_run, Trace, TracedCheckpoints};
use crate::verify::{fingerprint, Verified};
use crate::workloads::{Cell, Workload};
use amri_engine::{Checkpointer, WorkerPool};
use std::time::Instant;

/// Above this, attributed shares claim more time than the loop took.
const MAX_ATTRIBUTED: f64 = 1.1;

/// One engine configuration with the untraced run it produced — what
/// the drives load their state from and weight their costs by.
struct Observed<'a> {
    cell: &'a Cell,
    run: &'a EngineRun,
    counters: Counters,
}

/// Wall-time attribution accumulated over the observed cells, ns.
#[derive(Default)]
struct Attribution {
    synth: f64,
    search: f64,
    ingest: f64,
    assess: f64,
    router: f64,
}

/// Requests-weighted accumulator for a drive metric reported as one
/// number over several cells.
#[derive(Default)]
struct Weighted {
    sum: f64,
    weight: f64,
}

impl Weighted {
    fn add(&mut self, value: f64, weight: f64) {
        self.sum += value * weight;
        self.weight += weight;
    }

    fn mean(&self) -> f64 {
        if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            0.0
        }
    }
}

/// Produce the per-layer table's metrics of `args.plan.workload` from its
/// untraced `passes` — counts from the last one, the step loop's wall
/// time as the median over all of them; `verified` carries the reference
/// runs. Returns the metrics — the layers this workload never entered
/// still unset — and any violation the breakdown itself found.
pub fn per_layer(
    args: &SingleArgs,
    work: &WorkDir,
    passes: &[Pass],
    verified: &Verified,
    loadavg_start: f64,
) -> (MetricSet, Vec<String>) {
    let plan = &args.plan;
    let base = passes.last().expect("at least one pass ran");
    let untraced_loop_s = median(&passes.iter().map(|p| p.loop_s).collect::<Vec<_>>());
    let mut violations = Vec::new();
    let mut m = MetricSet::per_layer();

    // The cells with their untraced runs and counters. Hosted tenants
    // report no counters; their solo references (proved identical) do.
    let observed: Vec<Observed<'_>> = if plan.workload == Workload::FleetLineup {
        base.trained
            .cells
            .iter()
            .zip(&verified.references)
            .map(|(cell, (run, _))| Observed {
                cell,
                run,
                counters: run.counters.expect("solo runs carry counters"),
            })
            .collect()
    } else {
        vec![Observed {
            cell: &base.trained.cells[0],
            run: &base.runs[0],
            counters: base.runs[0].counters.expect("solo runs carry counters"),
        }]
    };
    let total = observed
        .iter()
        .fold(Counters::default(), |acc, o| acc.plus(o.counters));
    let wall_ns = untraced_loop_s * 1e9;

    // ---- exact counts -------------------------------------------------
    let results = || observed.iter().map(|o| &o.run.result);
    let maints = || observed.iter().map(|o| &o.run.maint);
    let requests: u64 = results().flat_map(|r| &r.requests).sum();
    m.set("engine.ops.steps", total.steps as f64);
    m.set("engine.ops.jobs", total.jobs as f64);
    m.set(
        "engine.ops.jobs_per_tuple",
        total.jobs as f64 / total.tuples.max(1) as f64,
    );
    m.set(
        "engine.ops.outputs",
        results().map(|r| r.outputs).sum::<u64>() as f64,
    );
    m.set("core.index.requests", requests as f64);
    m.set(
        "core.index.matches_per_request",
        total.matches as f64 / requests.max(1) as f64,
    );
    m.set(
        "core.index.ingest_virt_ns",
        maints().map(|x| x.ingest_ns).sum::<u64>() as f64,
    );
    m.set(
        "core.tuner.retunes",
        results().map(|r| r.retunes.len()).sum::<usize>() as f64,
    );
    m.set(
        "core.tuner.moved_tuples",
        results()
            .flat_map(|r| &r.retunes)
            .map(|r| r.moved)
            .sum::<u64>() as f64,
    );
    m.set(
        "core.tuner.migrate_virt_ns",
        maints().map(|x| x.migrate_ns).sum::<u64>() as f64,
    );
    m.set(
        "core.tuner.migrate_stalls",
        maints().map(|x| x.migrate_stalls).sum::<u64>() as f64,
    );
    let mut spill = amri_core::SpillStats::default();
    for r in results() {
        spill.merge(&r.spill);
    }
    m.set("core.tier.spilled_tuples", spill.spilled_tuples as f64);
    m.set("core.tier.blocks_written", spill.blocks_written as f64);
    m.set("core.tier.blocks_read", spill.blocks_read as f64);
    m.set("core.tier.cache_hit_frac", spill.cache_hit_frac());
    m.set("core.tier.coalesced_reads", spill.coalesced_reads as f64);
    m.set(
        "core.tier.prefetched_blocks",
        spill.prefetched_blocks as f64,
    );
    m.set("core.tier.cache_evictions", spill.cache_evictions as f64);
    m.set("core.tier.lost_blocks", spill.lost_blocks as f64);
    m.set("core.tier.disk_bytes", disk_bytes(base));
    m.set(
        "engine.memory.virt_peak_bytes",
        results().map(|r| r.series.peak_memory()).max().unwrap_or(0) as f64,
    );
    // The fastest of the run's passes, like the `setup_s` it is part of.
    m.set(
        "bench.training.train_s",
        passes
            .iter()
            .map(|p| p.trained.train_s)
            .fold(f64::INFINITY, f64::min),
    );
    m.set("bench.setup.cold_s", passes[0].setup_s);

    // ---- traced pass ---------------------------------------------------
    // Every observed cell stepped solo: the pass's own cell, or — the host
    // owns hosted sessions — each fleet cell against the untraced solo
    // loops of verification.
    let mut traces: Vec<Trace> = Vec::new();
    for o in &observed {
        let mut checkpointer = (plan.workload == Workload::SpillCkpt).then(|| {
            Checkpointer::new(work.sub("ckpt-traced"), manual_policy())
                .expect("the work directory is writable")
        });
        let ckpt = checkpointer.as_mut().map(|checkpointer| TracedCheckpoints {
            checkpointer,
            fingerprint: o.cell.executor().config_fingerprint(),
            every: plan.checkpoint_every(),
        });
        let (t, run, _) = traced_run(o.cell, ckpt);
        if fingerprint(&run) != fingerprint(o.run) {
            violations.push(format!(
                "{}: the traced run changed the answer",
                o.cell.label
            ));
        }
        traces.push(t);
    }
    let untraced_s: f64 = if plan.workload == Workload::FleetLineup {
        verified.references.iter().map(|(_, s)| s).sum()
    } else {
        untraced_loop_s
    };
    let traced_s: f64 = traces.iter().map(|t| t.wall_s).sum();
    let steps = step_stats(&traces);
    m.set("engine.ops.probe_step_ns_p50", steps.probe_ns_p50);
    m.set("engine.ops.ingest_step_ns_p50", steps.ingest_ns_p50);
    m.set("engine.ops.grid_step_us_p50", steps.grid_us_p50);
    m.set("engine.ops.grid_step_us_p99", steps.grid_us_p99);
    m.set("engine.ops.idle_jumps", steps.idle_jumps as f64);
    m.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_spans(&traces, path) {
            violations.push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    drop(traces);

    // ---- layer drives --------------------------------------------------
    let mut attr = Attribution::default();
    let mut search_ns = [
        Weighted::default(),
        Weighted::default(),
        Weighted::default(),
    ];
    let mut materialize_ns = Weighted::default();
    let mut ingest_ns = Weighted::default();
    let mut record_ns = Weighted::default();
    let mut lead_drives = None;
    let lead = &observed[0];
    for o in &observed {
        let result = &o.run.result;
        let own_requests: f64 = result.requests.iter().sum::<u64>() as f64;
        let mut loaded = Loaded::build(o.cell, None);
        let classes = drives::pattern_classes(result);
        let served = drives::requests_per_class(result);
        let mut hits = 0.0;
        let mut per_hit = Weighted::default();
        for k in 0..3 {
            if classes[k].is_empty() {
                continue;
            }
            let reqs = loaded.requests(&classes[k], 2048);
            let (ns, hit_ns, hits_per_search) = loaded.search(&reqs);
            search_ns[k].add(ns, served[k]);
            attr.search += ns * served[k];
            hits += hits_per_search * served[k];
            per_hit.add(hit_ns, hits_per_search * served[k]);
        }
        materialize_ns.add(per_hit.mean(), hits);
        attr.search += per_hit.mean() * hits;

        let ns = loaded.ingest();
        ingest_ns.add(ns, o.counters.tuples as f64);
        attr.ingest += ns * o.counters.tuples as f64;

        // Every probe records into the always-on exact observer; the
        // flavors that tune record into CDIA as well — inside the
        // search call, so that part moves from the search share to the
        // assessment share instead of being counted twice.
        let (cdia_ns, sria_ns, frequent_us) = drives::assess(o.cell, result);
        let tunes = !matches!(
            o.cell.mode,
            amri_engine::IndexingMode::StaticBitmap { .. } | amri_engine::IndexingMode::Scan
        );
        let own_cdia = if tunes { cdia_ns } else { 0.0 };
        record_ns.add(cdia_ns, own_requests);
        attr.assess += (sria_ns + own_cdia) * own_requests;
        attr.search -= own_cdia * own_requests;

        let synth_ns = drives::synth_attrs_ns(o.cell);
        let router_ns = drives::router_ns(o.cell);
        attr.synth += synth_ns * o.counters.tuples as f64;
        attr.router += router_ns * o.counters.jobs as f64;
        // Reported as single numbers: the lead (AMRI) cell's.
        lead_drives.get_or_insert((synth_ns, router_ns, frequent_us));
    }
    let (synth_ns, router_ns, frequent_us) = lead_drives.expect("at least one cell was observed");
    m.set("synth.attrs_ns", synth_ns);
    m.set(
        "stream.queue.pushpop_ns",
        drives::queue_pushpop_ns(lead.cell),
    );
    m.set("core.index.search_ns.a1", search_ns[0].mean());
    m.set("core.index.search_ns.a2", search_ns[1].mean());
    m.set("core.index.search_ns.a3", search_ns[2].mean());
    m.set("core.index.materialize_ns", materialize_ns.mean());
    m.set("core.index.ingest_ns", ingest_ns.mean());
    m.set("core.assess.record_ns", record_ns.mean());
    m.set("engine.router.choose_observe_ns", router_ns);

    // The tuner's own pieces, on the AMRI cell (always the first).
    let parallelism = lead.cell.scenario.engine.parallelism;
    let select_us = drives::select_us(lead.cell, &lead.run.result);
    m.set("core.assess.frequent_us", frequent_us);
    m.set("core.tuner.select_us", select_us);
    m.set(
        "core.tuner.whatif_price_ns",
        drives::whatif_price_ns(lead.cell, &lead.run.result),
    );
    {
        // The executor the pipeline itself would use: inline at
        // parallelism 1, pooled (and pinned apart) above.
        let pool = WorkerPool::new(parallelism);
        let _pinned = PinnedApart::pin(parallelism.get() - 1);
        m.set(
            "core.index.migrate_us",
            drives::migrate_us(lead.cell, &pool),
        );
    }
    // One assessment per state per assess period: frequent + select.
    let assess_windows: f64 = observed
        .iter()
        .filter(|o| matches!(o.cell.mode, amri_engine::IndexingMode::Amri { .. }))
        .map(|o| {
            o.cell.virt_secs() / o.cell.scenario.engine.tuner.assess_period.as_secs_f64()
                * o.cell.scenario.query.n_streams() as f64
        })
        .sum();
    attr.assess += (frequent_us + select_us) * 1e3 * assess_windows;

    // ---- workload-specific layers ---------------------------------------
    let mut share_pool = 0.0;
    let mut share_tier = 0.0;
    let mut share_checkpoint = 0.0;
    match plan.workload {
        Workload::ShardedMt => {
            let shards = lead.cell.scenario.engine.shards;
            let dispatch_us = drives::pool_dispatch_us(shards, parallelism);
            m.set("engine.pool.dispatch_us", dispatch_us);
            let (t1, t1_loop_s) = &verified.references[0];
            let t1_rate = t1.counters.expect("solo").tuples as f64 / t1_loop_s;
            m.set("engine.pool.t1_tuples_per_s", t1_rate);
            m.set(
                "engine.pool.speedup_vs_t1",
                (total.tuples as f64 / untraced_loop_s) / t1_rate,
            );
            // One fused dispatch per probe, one stage flush per arrival.
            let dispatches = (total.jobs + total.tuples) as f64;
            share_pool = dispatch_us * 1e3 * dispatches / wall_ns;
        }
        Workload::SpillCkpt => {
            let (append_us, read_us, hit_ns) =
                drives::tier_blocks(lead.cell, &work.sub("tier-drive"));
            m.set("core.tier.append_block_us", append_us);
            m.set("core.tier.read_block_us", read_us);
            m.set("core.tier.cache_hit_ns", hit_ns);
            let mut spilled = Loaded::build(
                lead.cell,
                Some(drives::drive_tier(lead.cell, &work.sub("tier-loaded"))),
            );
            let a1 = &drives::pattern_classes(&lead.run.result)[0];
            let reqs = spilled.requests(a1, 1024);
            m.set(
                "core.tier.materialize_batch_us",
                spilled.spilled_materialize_us(&reqs),
            );
            let (ram, ram_loop_s) = &verified.references[0];
            let ram_rate = ram.counters.expect("solo").tuples as f64 / ram_loop_s;
            m.set(
                "core.tier.speedup_vs_ram",
                (total.tuples as f64 / untraced_loop_s) / ram_rate,
            );
            share_tier = (spill.cache_hits as f64 * hit_ns
                + (spill.cache_misses + spill.prefetched_blocks) as f64 * read_us * 1e3
                + spill.blocks_written as f64 * append_us * 1e3)
                / wall_ns;

            let c = base.ckpt;
            let per = |ns: u64| ns as f64 / c.count.max(1) as f64 / 1e6;
            m.set("engine.checkpoint.snapshot_ms", per(c.snapshot_ns));
            m.set("engine.checkpoint.write_ms", per(c.write_ns));
            m.set("engine.checkpoint.restore_ms", verified.restore_ms);
            m.set("engine.checkpoint.bytes", c.bytes as f64);
            m.set("engine.checkpoint.count", c.count as f64);
            m.set(
                "engine.checkpoint.attached_overhead_frac",
                attached_overhead(lead.cell, work),
            );
            share_checkpoint = (c.snapshot_ns + c.write_ns) as f64 / wall_ns;
        }
        Workload::FleetLineup => {
            m.set("serve.pick_ns", drives::serve_pick_ns(plan.seed));
            let solo_s: f64 = verified.references.iter().map(|(_, s)| s).sum();
            m.set("serve.host_overhead_frac", untraced_loop_s / solo_s - 1.0);
            m.set("serve.quanta", base.quanta_ns.len() as f64);
            m.set("serve.queued_tenants", base.queued_tenants as f64);
        }
        Workload::PaperAmri | Workload::IngestSparse => {}
    }

    // ---- shares ----------------------------------------------------------
    let shares = [
        ("share.synth", attr.synth / wall_ns),
        ("share.index.search", attr.search.max(0.0) / wall_ns),
        ("share.index.ingest", attr.ingest / wall_ns),
        ("share.assess", attr.assess / wall_ns),
        ("share.router", attr.router / wall_ns),
        ("share.tier", share_tier),
        ("share.checkpoint", share_checkpoint),
        ("share.pool", share_pool),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        m.set(name, share);
    }
    m.set("share.unattributed", 1.0 - attributed);
    // At smoke size a run never reaches the steady state the drives load,
    // so its shares are plumbing checks, not a breakdown to hold to account.
    if attributed > MAX_ATTRIBUTED && !plan.smoke {
        violations.push(format!(
            "attributed shares sum to {attributed:.3} > {MAX_ATTRIBUTED}: the breakdown is lying"
        ));
    }

    let (user_s, sys_s) = host::cpu_seconds();
    m.set("proc.cpu_user_s", user_s);
    m.set("proc.cpu_sys_s", sys_s);
    m.set("proc.ctx_switches_invol", host::ctx_switches_invol());
    m.set("host.loadavg_start", loadavg_start);
    (m, violations)
}

/// Bytes of block files the untraced pass left in its spill directory.
fn disk_bytes(base: &Pass) -> f64 {
    let Some(dir) = &base.spill_dir else {
        return 0.0;
    };
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|md| md.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Wall-time cost of merely attaching a `Checkpointer` whose policy is
/// never due: `Pipeline::run_with(Some(_))` over `Pipeline::run()`, one
/// short pair at a quarter of the pass's virtual duration.
fn attached_overhead(cell: &Cell, work: &WorkDir) -> f64 {
    let short = cell.with_engine(|e| {
        e.duration =
            amri_stream::VirtualDuration::from_secs_f64((e.duration.as_secs_f64() / 4.0).max(1.0));
    });
    let t = Instant::now();
    let plain = short.executor().into_pipeline().run();
    let plain_s = t.elapsed().as_secs_f64();

    let exec = short.executor();
    let fingerprint = exec.config_fingerprint();
    let mut idle = Checkpointer::new(work.sub("ckpt-never"), manual_policy())
        .expect("the work directory is writable");
    let t = Instant::now();
    let attached = exec
        .into_pipeline()
        .run_with(Some(&mut idle), fingerprint)
        .expect("no crash is armed");
    let attached_s = t.elapsed().as_secs_f64();
    debug_assert_eq!(plain.output_digest, attached.output_digest);
    attached_s / plain_s - 1.0
}
