//! Layer drives: each layer's public entry points called directly, in a
//! tight loop, on state loaded the way the workload loads it — a join
//! state filled to the steady-state window population with tuples from
//! the workload's own generator, probed with requests drawn by the
//! access-pattern mix the run observed. The result is a wall ns/op per
//! layer that the engine never has to measure itself.
//!
//! A drive runs hot in cache and alone, so it is a *lower* bound on what
//! the same call costs inside the step loop; `share.unattributed` is
//! where the difference shows.

use crate::host::PinnedApart;
use crate::run::median;
use crate::workloads::{Cell, SPILL_CACHE_BYTES};
use amri_core::assess::AssessorKind;
use amri_core::snapshot_io::SectionWriter;
use amri_core::state::SearchScratch;
use amri_core::whatif::{self, WindowObservation};
use amri_core::{
    ApStat, BitAddressIndex, CostReceipt, IndexConfig, IngestStage, SequentialExecutor,
    ShardExecutor, SpillConfig, SpillTier, StateStore, WorkloadProfile,
};
use amri_engine::{
    HashTuner, IndexingMode, Job, JoinState, Router, RunResult, StreamWorkload, WorkerPool,
};
use amri_hh::CombineStrategy;
use amri_serve::{FairScheduler, ScheduleKey, TenantId};
use amri_stream::{
    AccessPattern, JobQueue, PartialTuple, SearchRequest, StreamId, StreamMask, Tuple, TupleId,
    VirtualDuration, VirtualTime, DEFAULT_BATCH_CAPACITY,
};
use amri_synth::DriftingWorkload;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::Instant;

/// Batches per drive; the fastest batch is reported.
const BATCHES: usize = 5;

/// Wall ns per call of the fastest of [`BATCHES`] batches of `ops` calls:
/// every batch does the same kind of work, and outside interference only
/// ever adds time (the reasoning of `run::denoised`).
fn ns_per_op(ops: usize, mut f: impl FnMut(usize)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..ops {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The state of stream 0 of `cell`, built exactly as `Executor::try_new`
/// builds it (same constructors, same trained configuration).
fn join_state(cell: &Cell) -> JoinState {
    let query = &cell.scenario.query;
    let engine = &cell.scenario.engine;
    let sid = StreamId(0);
    let jas = query.jas(sid);
    let width = jas.len();
    let window = query.windows[0];
    let payload = query.schemas[0].payload_bytes;
    let even = || IndexConfig::even(width, engine.tuner.total_bits).expect("valid even split");
    let mut state = match &cell.mode {
        IndexingMode::Amri { assessor, initial } => JoinState::amri(
            sid,
            jas,
            window,
            *assessor,
            initial.as_ref().map_or_else(even, |v| v[0].clone()),
            engine.tuner,
            engine.params,
            payload,
            engine.tuner_kind,
        )
        .expect("the trained configuration is valid"),
        IndexingMode::AdaptiveHash { n_indices, initial } => {
            let patterns = initial.as_ref().map_or_else(
                || {
                    AccessPattern::all(width)
                        .filter(|p| !p.is_empty())
                        .take(*n_indices)
                        .collect()
                },
                |v| v[0].clone(),
            );
            let tuner = HashTuner::new(
                AssessorKind::Cdia(CombineStrategy::HighestCount),
                width,
                *n_indices,
                engine.tuner,
            );
            JoinState::multi_hash(sid, jas, window, patterns, Some(tuner), payload)
        }
        IndexingMode::StaticBitmap { configs } => JoinState::static_bitmap(
            sid,
            jas,
            window,
            configs.as_ref().map_or_else(even, |v| v[0].clone()),
            payload,
        ),
        IndexingMode::Scan => JoinState::scan(sid, jas, window, payload),
    };
    if engine.shards > 1 {
        state.set_shards(engine.shards);
    }
    state
}

/// A join state at its steady-state window population, with the
/// generator and clock needed to keep it there.
pub struct Loaded {
    state: JoinState,
    stage: IngestStage,
    scratch: SearchScratch,
    mat: Vec<Option<Tuple>>,
    source: DriftingWorkload,
    now: VirtualTime,
    gap: VirtualDuration,
    next_id: u64,
}

impl Loaded {
    /// Fill stream 0's state of `cell` to its steady-state population,
    /// `λ_d · W` tuples (fewer if the run is shorter than its window).
    pub fn build(cell: &Cell, tier: Option<SpillTier>) -> Loaded {
        let engine = &cell.scenario.engine;
        let mut state = join_state(cell);
        if let Some(tier) = tier {
            state.enable_spill(tier);
        }
        let window_secs = cell.scenario.query.windows[0]
            .length
            .as_secs_f64()
            .min(cell.virt_secs());
        let mut loaded = Loaded {
            state,
            stage: IngestStage::new(),
            scratch: SearchScratch::new(),
            mat: Vec::new(),
            source: cell.scenario.workload(),
            now: VirtualTime::ZERO,
            gap: VirtualDuration::from_secs_f64(1.0 / engine.lambda_d),
            next_id: 0,
        };
        for _ in 0..(engine.lambda_d * window_secs).ceil() as usize {
            loaded.ingest_one();
        }
        loaded
    }

    /// One arrival at steady state: expire what slid out, insert, flush.
    pub fn ingest_one(&mut self) {
        self.now += self.gap;
        let sid = StreamId(0);
        let attrs = self.source.attrs_for(sid, self.now);
        let tuple = Tuple::new(TupleId(self.next_id), sid, self.now, attrs);
        self.next_id += 1;
        let mut receipt = CostReceipt::new();
        self.state
            .ingest_arrival(tuple, self.now, &mut receipt, &mut self.stage);
        self.state
            .flush_ingest(&mut self.stage, &SequentialExecutor);
        black_box(receipt);
    }

    /// `n` requests over `patterns`, picked in proportion to their
    /// weights, bound to values from the workload's own generator (a
    /// request's values come from a tuple of a joining stream, and both
    /// ends of an edge draw from the same domain).
    pub fn requests(&mut self, patterns: &[(AccessPattern, f64)], n: usize) -> Vec<SearchRequest> {
        let total: f64 = patterns.iter().map(|(_, w)| w).sum();
        (0..n)
            .map(|j| {
                let mut pick = (j as f64 + 0.5) / n as f64 * total;
                let pattern = patterns
                    .iter()
                    .find(|(_, w)| {
                        pick -= w;
                        pick < 0.0
                    })
                    .unwrap_or(&patterns[patterns.len() - 1])
                    .0;
                SearchRequest::new(pattern, self.source.attrs_for(StreamId(0), self.now))
            })
            .collect()
    }

    /// Wall ns per `flush_ingest_then_search` over `reqs`, then per hit
    /// of `materialize_batch` on top: `(search_ns, materialize_ns_per_hit,
    /// hits_per_search)`.
    pub fn search(&mut self, reqs: &[SearchRequest]) -> (f64, f64, f64) {
        let exec = SequentialExecutor;
        let mut hits = 0usize;
        let search_ns = ns_per_op(reqs.len(), |j| {
            let mut receipt = CostReceipt::new();
            self.state.flush_ingest_then_search(
                &reqs[j],
                &mut self.scratch,
                &mut receipt,
                &mut self.stage,
                &exec,
            );
            hits += self.scratch.hits.len();
            black_box(receipt);
        });
        let hits_per_search = hits as f64 / (BATCHES * reqs.len()) as f64;
        let both_ns = ns_per_op(reqs.len(), |j| {
            let mut receipt = CostReceipt::new();
            self.state.flush_ingest_then_search(
                &reqs[j],
                &mut self.scratch,
                &mut receipt,
                &mut self.stage,
                &exec,
            );
            let lost = self.state.materialize_batch(
                &self.scratch.hits,
                &mut self.mat,
                &mut receipt,
                &exec,
            );
            black_box((lost, &self.mat, receipt));
        });
        let per_hit = if hits_per_search > 0.0 {
            ((both_ns - search_ns) / hits_per_search).max(0.0)
        } else {
            0.0
        };
        (search_ns, per_hit, hits_per_search)
    }

    /// Wall ns per steady-state arrival (`ingest_arrival` + flush).
    pub fn ingest(&mut self) -> f64 {
        ns_per_op(2048, |_| self.ingest_one())
    }

    /// Spill the older half of the window to the attached tier, then
    /// time `materialize_batch` over the hits of `reqs`: wall µs per
    /// batch call, block-cache hits and misses mixed as they fall.
    pub fn spilled_materialize_us(&mut self, reqs: &[SearchRequest]) -> f64 {
        let target = self.state.len() / 2;
        let mut receipt = CostReceipt::new();
        while self.state.spilled_len() < target {
            if self.state.spill_oldest(64, &mut receipt) == 0 {
                break;
            }
        }
        let exec = SequentialExecutor;
        let mut total_ns = 0u64;
        let mut calls = 0u64;
        for req in reqs {
            self.state.flush_ingest_then_search(
                req,
                &mut self.scratch,
                &mut receipt,
                &mut self.stage,
                &exec,
            );
            let t = Instant::now();
            let lost = self.state.materialize_batch(
                &self.scratch.hits,
                &mut self.mat,
                &mut receipt,
                &exec,
            );
            total_ns += t.elapsed().as_nanos() as u64;
            calls += 1;
            black_box((lost, &self.mat));
        }
        total_ns as f64 / calls.max(1) as f64 / 1e3
    }
}

/// The observed access-pattern mix of state 0, split by how many
/// attributes a pattern binds: index `k - 1` holds the `k`-attribute
/// patterns with their frequencies.
pub fn pattern_classes(result: &RunResult) -> [Vec<(AccessPattern, f64)>; 3] {
    let mut classes: [Vec<(AccessPattern, f64)>; 3] = Default::default();
    for &(pattern, freq) in &result.pattern_stats[0] {
        let bound = pattern.specified() as usize;
        if (1..=3).contains(&bound) && freq > 0.0 {
            classes[bound - 1].push((pattern, freq));
        }
    }
    classes
}

/// Requests the run served per class, over all states.
pub fn requests_per_class(result: &RunResult) -> [f64; 3] {
    let mut n = [0.0; 3];
    for (stats, &requests) in result.pattern_stats.iter().zip(&result.requests) {
        for &(pattern, freq) in stats {
            let bound = pattern.specified() as usize;
            if (1..=3).contains(&bound) {
                n[bound - 1] += freq * requests as f64;
            }
        }
    }
    n
}

/// `synth`: wall ns per `DriftingWorkload::attrs_for`.
pub fn synth_attrs_ns(cell: &Cell) -> f64 {
    let mut source = cell.scenario.workload();
    ns_per_op(65_536, |j| {
        black_box(source.attrs_for(StreamId((j % 4) as u16), VirtualTime::ZERO));
    })
}

/// `stream::batch`: wall ns per `JobQueue` push + pop at a shallow,
/// steady depth (the backlog of an engine with headroom).
pub fn queue_pushpop_ns(cell: &Cell) -> f64 {
    let mut source = cell.scenario.workload();
    let tuple = Tuple::new(
        TupleId(0),
        StreamId(0),
        VirtualTime::ZERO,
        source.attrs_for(StreamId(0), VirtualTime::ZERO),
    );
    let job = Job {
        pt: PartialTuple::from_base(&tuple),
        origin_ts: VirtualTime::ZERO,
        enqueued: VirtualTime::ZERO,
    };
    let mut queue: JobQueue<Job> = JobQueue::with_caps(
        DEFAULT_BATCH_CAPACITY,
        cell.scenario.engine.spare_buffer_cap,
    );
    for _ in 0..64 {
        queue.push(job);
    }
    ns_per_op(65_536, |_| {
        queue.push(job);
        black_box(queue.pop());
    })
}

/// The trained configuration of an AMRI cell's state 0 and an even
/// split of the same bits — the two layouts the migrate drive flips
/// between.
fn migrate_configs(cell: &Cell) -> (IndexConfig, IndexConfig) {
    let width = cell.scenario.query.jas(StreamId(0)).len();
    let even =
        IndexConfig::even(width, cell.scenario.engine.tuner.total_bits).expect("valid even split");
    let trained = match &cell.mode {
        IndexingMode::Amri {
            initial: Some(v), ..
        } => v[0].clone(),
        _ => even.clone(),
    };
    // A trained layout equal to the even one would make the flip a
    // no-op; skew one bit so every migrate relocates entries.
    if trained == even {
        let mut bits = even.bits().to_vec();
        if bits.len() > 1 && bits[0] > 0 {
            bits[0] -= 1;
            bits[1] += 1;
        }
        (IndexConfig::new(bits).expect("same total"), even)
    } else {
        (trained, even)
    }
}

/// `core::bitaddr`: wall µs per `BitAddressIndex::migrate_with` of a
/// window-sized index between two layouts, at the cell's shard count.
pub fn migrate_us(cell: &Cell, exec: &dyn ShardExecutor) -> f64 {
    let engine = &cell.scenario.engine;
    let query = &cell.scenario.query;
    let sid = StreamId(0);
    let (a, b) = migrate_configs(cell);
    let mut store = StateStore::new(
        sid,
        query.jas(sid),
        query.windows[0],
        BitAddressIndex::with_shards(a.clone(), engine.shards),
    );
    let mut source = cell.scenario.workload();
    let mut receipt = CostReceipt::new();
    let n = (engine.lambda_d * query.windows[0].length.as_secs_f64()).ceil() as u64;
    for i in 0..n {
        let attrs = source.attrs_for(sid, VirtualTime::ZERO);
        store.insert(
            Tuple::new(TupleId(i), sid, VirtualTime::ZERO, attrs),
            &mut receipt,
        );
    }
    ns_per_op(16, |j| {
        let target = if j % 2 == 0 { b.clone() } else { a.clone() };
        store.index_mut().migrate_with(target, &mut receipt, exec);
    }) / 1e3
}

/// What the tuner sees of state 0 after the run: the θ-frequent
/// patterns at the observed rates.
fn observation(cell: &Cell, result: &RunResult) -> WindowObservation {
    let engine = &cell.scenario.engine;
    let elapsed = result.final_time.as_secs_f64().max(1.0);
    WindowObservation::new(
        engine.lambda_d,
        result.requests[0] as f64 / elapsed,
        cell.scenario.query.windows[0].length.as_secs_f64(),
        result.pattern_stats[0]
            .iter()
            .copied()
            .filter(|&(_, freq)| freq >= engine.tuner.theta)
            .collect(),
    )
}

/// `core::selection`: wall µs per greedy configuration selection over
/// the observed profile.
pub fn select_us(cell: &Cell, result: &RunResult) -> f64 {
    let engine = &cell.scenario.engine;
    let obs = observation(cell, result);
    let profile = WorkloadProfile::new(
        obs.lambda_d,
        obs.lambda_r,
        obs.window_secs,
        obs.frequent
            .iter()
            .map(|&(pattern, freq)| ApStat { pattern, freq })
            .collect(),
    );
    let width = cell.scenario.query.jas(StreamId(0)).len();
    ns_per_op(64, |_| {
        black_box(amri_core::selection::select_config_greedy_capped(
            engine.tuner.total_bits,
            width,
            &profile,
            &engine.params,
            engine.tuner.max_bits_per_attr,
        ));
    }) / 1e3
}

/// `core::whatif`: wall ns per what-if pricing of one candidate.
pub fn whatif_price_ns(cell: &Cell, result: &RunResult) -> f64 {
    let obs = observation(cell, result);
    let (config, _) = migrate_configs(cell);
    ns_per_op(8192, |_| {
        black_box(whatif::price(&cell.scenario.engine.params, &config, &obs));
    })
}

/// A pattern sequence following the observed mix of state 0.
fn pattern_sequence(result: &RunResult, n: usize) -> Vec<AccessPattern> {
    let stats = &result.pattern_stats[0];
    let total: f64 = stats.iter().map(|(_, f)| f).sum();
    (0..n)
        .map(|j| {
            // A stride coprime with n spreads the picks over the mix
            // instead of emitting each pattern in one long run.
            let slot = (j * 7919) % n;
            let mut pick = (slot as f64 + 0.5) / n as f64 * total;
            stats
                .iter()
                .find(|(_, f)| {
                    pick -= f;
                    pick < 0.0
                })
                .unwrap_or(&stats[stats.len() - 1])
                .0
        })
        .collect()
}

/// `core::assess`: `(record_ns of CDIA-highest, record_ns of the exact
/// SRIA observer, frequent_us of CDIA-highest)`.
pub fn assess(cell: &Cell, result: &RunResult) -> (f64, f64, f64) {
    let tuner = &cell.scenario.engine.tuner;
    let width = cell.scenario.query.jas(StreamId(0)).len();
    let patterns = pattern_sequence(result, 8192);
    let mut cdia =
        AssessorKind::Cdia(CombineStrategy::HighestCount).build(width, tuner.epsilon, tuner.seed);
    let cdia_ns = ns_per_op(patterns.len(), |j| cdia.record(patterns[j]));
    let mut sria = AssessorKind::Sria.build(width, tuner.epsilon, tuner.seed);
    let sria_ns = ns_per_op(patterns.len(), |j| sria.record(patterns[j]));
    let frequent_us = ns_per_op(256, |_| {
        black_box(cdia.frequent(tuner.theta));
    }) / 1e3;
    (cdia_ns, sria_ns, frequent_us)
}

/// `engine::router`: wall ns per `choose_next` + `observe`.
pub fn router_ns(cell: &Cell) -> f64 {
    let engine = &cell.scenario.engine;
    let n = cell.scenario.query.n_streams();
    let mut router = Router::new(engine.policy, n, engine.seed);
    // Visited sets of one, two and three streams, as a job's route sees.
    let visited: Vec<StreamMask> = (0..n as u16)
        .flat_map(|a| {
            let one = StreamMask::only(StreamId(a));
            let two = one.with(StreamId((a + 1) % n as u16));
            let three = two.with(StreamId((a + 2) % n as u16));
            [one, two, three]
        })
        .collect();
    ns_per_op(65_536, |j| {
        let target = router.choose_next(visited[j % visited.len()]);
        router.observe(target, j % 3, 40);
    })
}

/// `engine::runtime::pool`: wall µs a 4-task dispatch costs on a
/// 2-thread `WorkerPool` beyond what running the same empty tasks
/// inline costs.
pub fn pool_dispatch_us(shards: usize, parallelism: NonZeroUsize) -> f64 {
    let pool = WorkerPool::new(parallelism);
    let _pinned = PinnedApart::pin(parallelism.get() - 1);
    let task = |i: usize| {
        black_box(i);
    };
    let pooled = ns_per_op(4096, |_| pool.run_tasks(shards, &task));
    let inline = ns_per_op(4096, |_| SequentialExecutor.run_tasks(shards, &task));
    (pooled - inline).max(0.0) / 1e3
}

/// `core::tier` block costs: `(append_block_us, read_block_us,
/// cache_hit_ns)` on a fresh tier in `dir`, blocks of 64 tuples encoded
/// with the codec `StateStore::spill_oldest` writes.
pub fn tier_blocks(cell: &Cell, dir: &Path) -> (f64, f64, f64) {
    const BLOCKS: usize = 128;
    const TUPLES: u32 = 64;
    let mut tier = SpillTier::create(&SpillConfig {
        dir: dir.to_path_buf(),
        file_name: "drive.blocks".to_string(),
        profile: Default::default(),
        faults: Default::default(),
        seed: cell.scenario.seed,
        cache_bytes: SPILL_CACHE_BYTES,
    })
    .expect("the work directory is writable");
    let mut source = cell.scenario.workload();
    let mut receipt = CostReceipt::new();
    let mut key = 0u32;
    let mut append_us = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let mut body = SectionWriter::new();
        body.put_usize(TUPLES as usize);
        for _ in 0..TUPLES {
            body.put_u32(key);
            body.put_u64(u64::from(key));
            body.put_time(VirtualTime::ZERO);
            body.put_attrs(&source.attrs_for(StreamId(0), VirtualTime::ZERO));
            key += 1;
        }
        let t = Instant::now();
        tier.append_block(body, TUPLES, &mut receipt)
            .expect("no faults are injected");
        append_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let read_us = ns_per_op(BLOCKS, |j| {
        black_box(
            tier.read_block(j as u32, &mut receipt)
                .expect("a live block reads back"),
        );
    }) / 1e3;
    tier.fetch_entries(0, &mut receipt)
        .expect("a live block decodes");
    let hit_ns = ns_per_op(8192, |_| {
        black_box(
            tier.fetch_entries(0, &mut receipt)
                .expect("a cached block is served")
                .len(),
        );
    });
    (median(&append_us), read_us, hit_ns)
}

/// A tier for [`Loaded::build`], configured like the workload's own.
pub fn drive_tier(cell: &Cell, dir: &Path) -> SpillTier {
    let spill = cell
        .scenario
        .engine
        .spill
        .as_ref()
        .expect("only spill_ckpt drives a tier");
    SpillTier::create(&SpillConfig {
        dir: dir.to_path_buf(),
        file_name: "loaded.blocks".to_string(),
        profile: spill.profile,
        faults: Default::default(),
        seed: cell.scenario.seed,
        cache_bytes: spill.cache_bytes,
    })
    .expect("the work directory is writable")
}

/// `serve::scheduler`: wall ns per `FairScheduler::pick` over four
/// ready tenants.
pub fn serve_pick_ns(seed: u64) -> f64 {
    let sched = FairScheduler::new(seed);
    let keys: Vec<ScheduleKey> = [(0u32, 2u32), (1, 1), (2, 1), (3, 1)]
        .into_iter()
        .map(|(id, weight)| ScheduleKey {
            id: TenantId(id),
            weight,
            vnow: VirtualTime(1_000 + u64::from(id) * 37),
        })
        .collect();
    ns_per_op(65_536, |_| {
        black_box(sched.pick(black_box(&keys).iter().copied()));
    })
}
