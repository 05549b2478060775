//! Sharded vs unsharded bit-address index equivalence — the correctness
//! half of the multicore tentpole. A sharded arena partitions buckets by
//! the top bits of the bucket id; this file pins that the partitioning is
//! unobservable through the index API: for every shard count in
//! {1, 2, 4, 8} a random interleaving of inserts, searches, migrations,
//! expirations and evictions yields the identical result *set* (order may
//! differ across shard counts — the deterministic-order pin per count
//! lives with the engine's parallelism equivalence tests), identical
//! entry/memory accounting, and a structurally sound arena in every
//! shard after every structural change.

use amri_core::{
    BitAddressIndex, CostReceipt, IndexConfig, IngestStage, MultiHashIndex, SearchScratch,
    SequentialExecutor, ShardExecutor, StateIndex, StateStore, TupleKey,
};
use amri_engine::JoinState;
use amri_stream::{
    AccessPattern, AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualTime,
    WindowSpec,
};
use proptest::prelude::*;

/// One scripted operation over a state.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a tuple with the given JAS values at the given second.
    Insert([u64; 3], u64),
    /// Expire at the given second.
    Expire(u64),
    /// Search with (pattern mask, values).
    Search(u32, [u64; 3]),
    /// Migrate to the i-th target configuration.
    Migrate(u8),
    /// Forcibly evict up to n oldest live tuples (the governor's move).
    Evict(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (proptest::array::uniform3(0u64..6), 0u64..40).prop_map(|(v, t)| Op::Insert(v, t)),
        (proptest::array::uniform3(0u64..6), 0u64..40).prop_map(|(v, t)| Op::Insert(v, t)),
        (0u64..60).prop_map(Op::Expire),
        (0u32..8, proptest::array::uniform3(0u64..6)).prop_map(|(m, v)| Op::Search(m, v)),
        (0u32..8, proptest::array::uniform3(0u64..6)).prop_map(|(m, v)| Op::Search(m, v)),
        (0u8..6).prop_map(Op::Migrate),
        (1u8..8).prop_map(Op::Evict),
    ]
}

/// Migration targets spanning trivial, skewed and wide configurations —
/// including bit widths below the shard bits of the 8-way index, so the
/// "fewer buckets than shards" degeneracy is exercised.
fn config(i: u8) -> IndexConfig {
    let bits = match i % 6 {
        0 => vec![4, 4, 4],
        1 => vec![12, 0, 0],
        2 => vec![0, 0, 10],
        3 => vec![1, 1, 1],
        4 => vec![8, 8, 0],
        _ => vec![0, 0, 0],
    };
    IndexConfig::new(bits).unwrap()
}

/// What a script needs from an index beyond [`StateIndex`]: the
/// bit-address index can migrate and check its own arena; the hash and
/// scan flavors ignore both.
trait Scripted: StateIndex {
    fn migrate(&mut self, _i: u8, _receipt: &mut CostReceipt, _exec: &dyn ShardExecutor) {}

    fn check_sound(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Scripted for BitAddressIndex {
    fn migrate(&mut self, i: u8, receipt: &mut CostReceipt, exec: &dyn ShardExecutor) {
        self.migrate_with(config(i), receipt, exec);
    }

    fn check_sound(&self) -> Result<(), String> {
        self.check_integrity()?;
        let per_shard: usize = self.shard_fill_stats().iter().map(|f| f.entries).sum();
        if per_shard != self.entries() {
            return Err(format!(
                "shard fill stats cover {per_shard} entries, index holds {}",
                self.entries()
            ));
        }
        Ok(())
    }
}

impl Scripted for MultiHashIndex {}

/// The independent eager reference: no [`StateStore`], no shards, no
/// executor — a bare index driven through the [`StateIndex::insert`] /
/// [`StateIndex::remove`] / [`StateIndex::search_into`] primitives, with
/// the window, the per-slot base charge and the arena-scan fallback
/// modelled by hand. Keys are never reused (the store's slab does reuse
/// them), which no compared observable depends on.
struct EagerReference<I> {
    index: I,
    /// Live tuples in arrival order: (arrival second, key, JAS values).
    /// A tuple's id equals its key.
    live: std::collections::VecDeque<(u64, TupleKey, AttrVec)>,
    receipt: CostReceipt,
    now: u64,
    seq: u64,
}

impl<I: Scripted> EagerReference<I> {
    fn new(index: I) -> Self {
        EagerReference {
            index,
            live: Default::default(),
            receipt: CostReceipt::new(),
            now: 0,
            seq: 0,
        }
    }

    fn insert(&mut self, vals: [u64; 3], t: u64) {
        self.now = self.now.max(t);
        let key = TupleKey(self.seq as u32);
        self.seq += 1;
        let jas = AttrVec::from_slice(&vals).unwrap();
        self.receipt.base_ops += 1;
        self.index.insert(key, &jas, &mut self.receipt);
        self.live.push_back((self.now, key, jas));
    }

    fn unindex_oldest(&mut self) {
        let (_, key, jas) = self.live.pop_front().expect("caller checked");
        self.receipt.base_ops += 1;
        self.index.remove(key, &jas, &mut self.receipt);
    }

    fn expire(&mut self, t: u64) {
        self.now = self.now.max(t);
        let (window, now) = (WindowSpec::secs(20), VirtualTime::from_secs(self.now));
        while self
            .live
            .front()
            .is_some_and(|&(ts, ..)| !window.live(VirtualTime::from_secs(ts), now))
        {
            self.unindex_oldest();
        }
    }

    fn evict(&mut self, n: usize) -> usize {
        let evicted = n.min(self.live.len());
        for _ in 0..evicted {
            self.unindex_oldest();
        }
        evicted
    }

    fn search(&mut self, mask: u32, vals: [u64; 3]) -> Vec<u64> {
        let req = SearchRequest::new(
            AccessPattern::new(mask, 3),
            AttrVec::from_slice(&vals).unwrap(),
        );
        let mut scratch = SearchScratch::new();
        if !self
            .index
            .search_into(&req, &mut scratch, &mut self.receipt, &SequentialExecutor)
        {
            for (_, key, jas) in &self.live {
                self.receipt.comparisons += 2;
                if req.matches(jas) {
                    scratch.hits.push(*key);
                }
            }
        }
        let mut ids: Vec<u64> = scratch.hits.iter().map(|k| k.0 as u64).collect();
        ids.sort_unstable();
        ids
    }
}

/// Monotone-clock script runner over a [`StateStore`] of any index flavor
/// (same store shape as the cross-flavor equivalence runner), with an
/// explicit cumulative receipt.
struct IngestRunner<I> {
    store: StateStore<I>,
    receipt: CostReceipt,
    now: u64,
    seq: u64,
}

impl<I: Scripted> IngestRunner<I> {
    fn new(index: I) -> Self {
        IngestRunner {
            store: StateStore::new(
                StreamId(0),
                vec![AttrId(0), AttrId(1), AttrId(2)],
                WindowSpec::secs(20),
                index,
            ),
            receipt: CostReceipt::new(),
            now: 0,
            seq: 0,
        }
    }

    fn insert(&mut self, vals: [u64; 3], t: u64) {
        self.now = self.now.max(t);
        let tuple = Tuple::new(
            TupleId(self.seq),
            StreamId(0),
            VirtualTime::from_secs(self.now),
            AttrVec::from_slice(&vals).unwrap(),
        );
        self.seq += 1;
        self.store.insert(tuple, &mut self.receipt);
    }

    fn expire(&mut self, t: u64) {
        self.now = self.now.max(t);
        let now = VirtualTime::from_secs(self.now);
        self.store.expire(now, &mut self.receipt);
    }

    /// Sorted matching tuple ids.
    fn search(&mut self, mask: u32, vals: [u64; 3], exec: &dyn ShardExecutor) -> Vec<u64> {
        let req = SearchRequest::new(
            AccessPattern::new(mask, 3),
            AttrVec::from_slice(&vals).unwrap(),
        );
        let mut scratch = SearchScratch::new();
        self.store
            .search(&req, &mut scratch, &mut self.receipt, exec);
        let mut ids: Vec<u64> = scratch
            .hits
            .iter()
            .map(|k| self.store.tuple(*k).unwrap().id.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn migrate(&mut self, i: u8, exec: &dyn ShardExecutor) {
        self.store.index_mut().migrate(i, &mut self.receipt, exec);
    }

    fn evict(&mut self, n: usize) -> usize {
        self.store.evict_oldest(n, &mut self.receipt)
    }

    /// Apply one scripted op (searches are compared separately by the
    /// callers that need them).
    fn apply(&mut self, op: &Op, exec: &dyn ShardExecutor) {
        match *op {
            Op::Insert(vals, t) => self.insert(vals, t),
            Op::Expire(t) => self.expire(t),
            Op::Search(..) => {}
            Op::Migrate(i) => self.migrate(i, exec),
            Op::Evict(n) => {
                self.evict(n as usize);
            }
        }
    }
}

/// A runner over a `shards`-way bit-address store.
fn sharded_runner(shards: usize) -> IngestRunner<BitAddressIndex> {
    IngestRunner::new(BitAddressIndex::with_shards(config(0), shards))
}

/// A `WorkerPool` with its work-size gate taken off: it asks the pool
/// about more work than any threshold, so every dispatch of two tasks or
/// more, however small, crosses to a scoped thread (and is counted).
struct Ungated<'a>(&'a amri_engine::WorkerPool);

impl ShardExecutor for Ungated<'_> {
    fn threads_for(&self, n: usize, _work_ns: u64) -> usize {
        self.0.threads_for(n, u64::MAX)
    }
}

/// One script through a store over every `candidate`, once per executor —
/// a real 2-thread `WorkerPool` as the engine uses it (gated: scripts this
/// small stay on the caller), the same pool [`Ungated`] (so the threaded
/// path is what runs), and the inline `SequentialExecutor` — each against
/// the eager `reference`, hence all three equal.
fn check_matches_eager_reference<I: Scripted + Clone>(
    ops: &[Op],
    reference: I,
    candidates: Vec<I>,
) {
    let pool = amri_engine::WorkerPool::new(std::num::NonZeroUsize::new(2).unwrap());
    let ungated = Ungated(&pool);
    let execs: [&dyn ShardExecutor; 3] = [&pool, &ungated, &SequentialExecutor];
    let mut reference = EagerReference::new(reference);
    // Candidate `i` runs on `execs[i % 3]`: three copies of each, adjacent.
    let mut candidates: Vec<IngestRunner<I>> = candidates
        .into_iter()
        .flat_map(|c| [c.clone(), c.clone(), c])
        .map(IngestRunner::new)
        .collect();

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(vals, t) => {
                reference.insert(vals, t);
                for c in &mut candidates {
                    c.insert(vals, t);
                }
            }
            Op::Expire(t) => {
                reference.expire(t);
                for c in &mut candidates {
                    c.expire(t);
                }
            }
            Op::Search(mask, vals) => {
                let want = reference.search(mask, vals);
                for (i, c) in candidates.iter_mut().enumerate() {
                    let got = c.search(mask, vals, execs[i % 3]);
                    prop_assert_eq!(
                        &got,
                        &want,
                        "search diverged at step {} (candidate {})",
                        step,
                        i
                    );
                }
            }
            Op::Migrate(i) => {
                reference
                    .index
                    .migrate(i, &mut reference.receipt, &SequentialExecutor);
                for (ci, c) in candidates.iter_mut().enumerate() {
                    c.migrate(i, execs[ci % 3]);
                    let sound = c.store.index().check_sound();
                    prop_assert!(sound.is_ok(), "after migrate: {:?}", sound);
                }
            }
            Op::Evict(n) => {
                // The receipt comparison below pins the eviction charges
                // to the eager ones: per evicted entry one base op plus
                // whatever `StateIndex::remove` charges — for the
                // bit-address index `indexed_attrs` hashes + 1 bucket probe.
                let want = reference.evict(n as usize);
                for c in &mut candidates {
                    prop_assert_eq!(c.evict(n as usize), want, "eviction count diverged");
                    let sound = c.store.index().check_sound();
                    prop_assert!(sound.is_ok(), "after evict: {:?}", sound);
                }
            }
        }
        // Cost accounting, live-tuple counts and the index's own
        // accounting agree with the reference at every step.
        for c in &candidates {
            prop_assert_eq!(
                c.receipt,
                reference.receipt,
                "receipts diverged at step {}",
                step
            );
            prop_assert_eq!(c.store.len(), reference.live.len());
            prop_assert_eq!(c.store.index().entries(), reference.index.entries());
            prop_assert_eq!(
                c.store.index().memory_bytes(),
                reference.index.memory_bytes()
            );
        }
    }

    // Terminal sweep: every store is indistinguishable from the eager
    // reference in every observable.
    for c in &candidates {
        let sound = c.store.index().check_sound();
        prop_assert!(sound.is_ok(), "terminal integrity: {:?}", sound);
    }
    for mask in 0..8u32 {
        for v in 0..6u64 {
            let vals = [v, (v + 1) % 6, (v + 2) % 6];
            let want = reference.search(mask, vals);
            for (ci, c) in candidates.iter_mut().enumerate() {
                prop_assert_eq!(
                    c.search(mask, vals, execs[ci % 3]),
                    want.clone(),
                    "terminal probe diverged"
                );
            }
        }
    }
}

/// Forwards to a gated pool, recording the `(n, work_ns)` every sized
/// dispatch reports. Whether the pool then crossed threads shows in its
/// own epoch counter, which only a hand-off bumps.
struct Recording<'a> {
    pool: &'a amri_engine::WorkerPool,
    sized: std::sync::Mutex<Vec<(usize, u64)>>,
}

impl ShardExecutor for Recording<'_> {
    fn threads_for(&self, n: usize, work_ns: u64) -> usize {
        self.sized.lock().unwrap().push((n, work_ns));
        self.pool.threads_for(n, work_ns)
    }
}

/// The index reports work, the executor decides: a 1-match probe over a
/// small state is sized in nanoseconds and never reaches the threads; a
/// migration over 40 k entries is sized at 400 µs per pass and both of its
/// dispatches do.
#[test]
fn small_dispatches_stay_inline_and_large_ones_reach_the_threads() {
    use amri_core::parallel::{RELINK_NS, WALK_NS};
    let pool = amri_engine::WorkerPool::new(std::num::NonZeroUsize::new(2).unwrap());
    let exec = Recording {
        pool: &pool,
        sized: Default::default(),
    };
    let mut r = sharded_runner(4);
    for i in 0..64 {
        r.insert([i, i, i], 0);
    }
    assert_eq!(r.search(0b111, [5, 5, 5], &exec), vec![5]);
    assert_eq!(r.search(0b111, [6, 6, 6], &exec), vec![6]);
    assert_eq!(
        *exec.sized.lock().unwrap(),
        vec![(4, WALK_NS), (4, WALK_NS)],
        "one candidate bucket per probe"
    );
    assert_eq!(pool.epochs(), 0, "a small probe must not cross threads");

    const ENTRIES: u64 = 40_000;
    for i in 64..ENTRIES {
        r.insert([i % 1000, i / 1000, i], 0);
    }
    exec.sized.lock().unwrap().clear();
    let before = pool.epochs();
    r.migrate(4, &exec);
    assert!(r.store.index().check_sound().is_ok());
    let sized = exec.sized.lock().unwrap();
    assert_eq!(sized[0], (4, ENTRIES * RELINK_NS), "the rebucket pass");
    assert_eq!(sized.len(), 2, "rebucket, then relink or redistribute");
    assert_eq!(pool.epochs(), before + 2, "both passes must cross threads");
}

/// An AMRI state over a 3-attribute JAS at `shards` shards, windowed 20 s.
fn amri_state(shards: usize) -> JoinState {
    use amri_core::{assess::AssessorKind, CostParams, TunerConfig, TunerKind};
    let mut state = JoinState::amri(
        StreamId(0),
        vec![AttrId(0), AttrId(1), AttrId(2)],
        WindowSpec::secs(20),
        AssessorKind::Sria,
        config(0),
        TunerConfig {
            total_bits: 12,
            ..TunerConfig::default()
        },
        CostParams::default(),
        0,
        TunerKind::Paper,
    )
    .unwrap();
    state.set_shards(shards);
    state
}

/// An arrival is linked into the index in the call that ingests it: the
/// store's own search finds it with no flush in between, through the
/// frozen staged entry point too, and an arrival that slides an older
/// tuple out of the window has unlinked it by the time it returns.
#[test]
fn an_arrival_is_searchable_before_any_flush() {
    for shards in [1usize, 4] {
        let mut state = amri_state(shards);
        let (mut stage, mut r) = (IngestStage::new(), CostReceipt::new());
        let mut search = |state: &mut JoinState, vals: [u64; 3]| {
            let req = SearchRequest::new(
                AccessPattern::new(0b111, 3),
                AttrVec::from_slice(&vals).unwrap(),
            );
            let mut scratch = SearchScratch::new();
            let store = state.store_mut();
            store.search(&req, &mut scratch, &mut r, &SequentialExecutor);
            let ids = scratch.hits.iter().map(|&k| store.tuple(k).unwrap().id.0);
            ids.collect::<Vec<u64>>()
        };
        for (id, secs) in [(0u64, 0u64), (1, 30)] {
            let now = VirtualTime::from_secs(secs);
            let tuple = Tuple::new(
                TupleId(id),
                StreamId(0),
                now,
                AttrVec::from_slice(&[id, 7, 9]).unwrap(),
            );
            state.ingest_arrival(tuple, now, &mut CostReceipt::new(), &mut stage);
            assert_eq!(search(&mut state, [id, 7, 9]), vec![id], "{shards} shards");
        }
        assert_eq!(search(&mut state, [0, 7, 9]), Vec::<u64>::new(), "expired");
        let JoinState::Amri { store, .. } = &state else {
            unreachable!()
        };
        assert_eq!((store.index().entries(), store.len()), (1, 1));
    }
}

/// The governor's eviction unlinks every evicted entry before it returns:
/// in a governed run that evicts, after every step that evicted, each
/// AMRI state's index holds exactly its live tuples and its arena is
/// sound — at one shard and at four on a 2-thread pool.
#[test]
fn governor_eviction_leaves_every_index_matching_its_store() {
    use amri_core::assess::AssessorKind;
    use amri_engine::{DegradationPolicy, Executor, IndexingMode, MemoryBudget, SheddingPolicy};
    use amri_synth::scenario::{paper_scenario, Scale};
    for (shards, threads) in [(1usize, 1usize), (4, 2)] {
        let mut sc = paper_scenario(Scale::Quick, 42);
        sc.engine.budget = MemoryBudget { bytes: 150_000 };
        sc.engine.degradation = Some(DegradationPolicy {
            high_water: 0.9,
            low_water: 0.7,
            max_backlog: 512,
            shedding: SheddingPolicy::DropOldest,
            seed: 1,
        });
        sc.engine.shards = shards;
        sc.engine.parallelism = std::num::NonZeroUsize::new(threads).unwrap();
        let mode = IndexingMode::Amri {
            assessor: AssessorKind::Sria,
            initial: None,
        };
        let mut pipeline = Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
            .expect("valid engine configuration")
            .into_pipeline();
        let evicted = |p: &amri_engine::Pipeline<_>| {
            p.context().governor.as_ref().unwrap().report.evicted_tuples
        };
        let (mut seen, mut checks) = (0, 0);
        while !pipeline.is_done() {
            pipeline.step_once();
            if evicted(&pipeline) == seen {
                continue;
            }
            seen = evicted(&pipeline);
            checks += 1;
            for stem in &pipeline.context().stems {
                let JoinState::Amri { store, .. } = &stem.state else {
                    unreachable!("an AMRI run")
                };
                assert_eq!(store.index().entries(), store.len(), "{shards} shards");
                store.index().check_integrity().unwrap();
            }
        }
        assert!(
            checks > 0,
            "the budget must force eviction at {shards} shards"
        );
    }
}

/// `for_each_slot` is the one place a dispatch becomes per-task `&mut`
/// borrows: through the ungated pool every index runs exactly once with
/// a slot of its own, an empty slice runs nothing, and a task's panic
/// reaches the dispatcher and leaves the pool usable.
#[test]
fn for_each_slot_claims_every_slot_once_and_propagates_a_task_panic() {
    use amri_core::for_each_slot;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let pool = amri_engine::WorkerPool::new(std::num::NonZeroUsize::new(2).unwrap());
    let exec = Ungated(&pool);
    let mut slots = vec![0u32; 64];
    for round in 1..=2 {
        for_each_slot(&exec, 0, &mut slots, |i, slot| *slot += i as u32 + 1);
        let want: Vec<u32> = (1..=64).map(|v| v * round).collect();
        assert_eq!(slots, want, "each slot written by its own task, once");
    }
    assert_eq!(pool.epochs(), 2, "both dispatches crossed threads");
    for_each_slot(&exec, 0, &mut [0u32; 0], |_, _| panic!("no slot, no task"));

    let caught = catch_unwind(AssertUnwindSafe(|| {
        for_each_slot(&exec, 0, &mut slots, |i, _| {
            if i == 3 {
                panic!("slot 3 failed");
            }
        });
    }));
    let payload = caught.expect_err("the task's panic must reach the dispatcher");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"slot 3 failed"));
    for_each_slot(&exec, 0, &mut slots, |_, slot| *slot = 7);
    assert_eq!(slots, vec![7; 64], "the pool survives the panic");
}

/// `SpillTier::run_readahead` reads through whatever executor the probe
/// brought and merges in plan order, so the inline executor, a gated
/// 2-thread pool and the same pool ungated leave the same tier — counters,
/// coin stream, cache residency and recency — and the same charge. A plan
/// entry that died or got cached since it was queued is skipped without a
/// charge; two blocks or more are one `BLOCK_IO_NS` dispatch, fewer none.
#[test]
fn readahead_is_executor_invariant_and_sized_as_block_io() {
    use amri_core::parallel::BLOCK_IO_NS;
    use amri_core::snapshot_io::SectionWriter;
    use amri_core::{SpillConfig, SpillTier, StorageProfile};
    const READ_NS: u64 = 500;
    let block = |key: u32| {
        let mut w = SectionWriter::new();
        w.put_usize(1);
        w.put_u32(key);
        w.put_u64(u64::from(key));
        w.put_time(VirtualTime::ZERO);
        w.put_attrs(&AttrVec::new());
        w
    };
    let dir = std::env::temp_dir().join(format!("amri-readahead-exec-{}", std::process::id()));
    let run = |tag: &str, exec: &dyn ShardExecutor| {
        let mut t = SpillTier::create(&SpillConfig {
            dir: dir.join(tag),
            file_name: "s0.blocks".into(),
            profile: StorageProfile {
                read_ns: READ_NS,
                ..StorageProfile::default()
            },
            faults: Default::default(),
            seed: 7,
            cache_bytes: 1 << 20,
        })
        .unwrap();
        let mut rc = CostReceipt::new();
        let ids: Vec<u32> = (0..5)
            .map(|k| t.append_block(block(k), 1, &mut rc).unwrap())
            .collect();
        // Queue four; before the probe one is fetched (cached) and one dies.
        t.set_prefetch_plan(ids[..4].to_vec());
        t.fetch_entries(ids[1], &mut rc).unwrap();
        t.mark_dead(ids[2], false);
        let before = rc.io_ns;
        t.run_readahead(&mut rc, exec);
        assert_eq!(rc.io_ns, before + 2 * READ_NS, "{tag}: two admitted blocks");
        assert_eq!(t.stats().prefetched_blocks, 2, "{tag}");
        assert!(t.cached(ids[0]) && t.cached(ids[3]) && !t.cached(ids[2]));
        // A one-block plan, then nothing queued.
        t.set_prefetch_plan(vec![ids[4]]);
        t.run_readahead(&mut rc, exec);
        t.run_readahead(&mut rc, exec);
        assert_eq!(t.stats().prefetched_blocks, 3, "{tag}");
        let mut saved = SectionWriter::new();
        t.save(&mut saved);
        (saved.into_bytes(), rc)
    };
    let pool = amri_engine::WorkerPool::new(std::num::NonZeroUsize::new(2).unwrap());
    let gated = Recording {
        pool: &pool,
        sized: Default::default(),
    };
    let inline = run("inline", &SequentialExecutor);
    assert_eq!(run("gated", &gated), inline);
    assert_eq!(
        *gated.sized.lock().unwrap(),
        vec![(2, BLOCK_IO_NS)],
        "the two-block plan is the only dispatch"
    );
    assert_eq!(pool.epochs(), 1, "and block I/O passes the gate");
    assert_eq!(run("ungated", &Ungated(&pool)), inline);
    std::fs::remove_dir_all(&dir).ok();
}

/// The cold half of a batch fetch is one `BLOCK_IO_NS` dispatch whatever
/// runs it: fault coins are drawn before any read and results merged in
/// plan order, so inline, gated and ungated pools leave the same counters,
/// coin state, residents and receipts — under injected faults, through a
/// cache too small to hold the batch.
#[test]
fn batch_fetch_is_executor_invariant_and_sized_as_block_io() {
    use amri_core::parallel::BLOCK_IO_NS;
    use amri_core::snapshot_io::{seal_block, SectionWriter};
    use amri_core::{IoFaultConfig, SpillConfig, SpillTier, StorageProfile};
    let block = |key: u32| {
        let mut w = SectionWriter::new();
        w.put_usize(1);
        w.put_u32(key);
        w.put_u64(u64::from(key));
        w.put_time(VirtualTime::ZERO);
        w.put_attrs(&AttrVec::new());
        w
    };
    // Room for two of the seven one-record frames.
    let budget = 2 * seal_block(block(0)).len() as u64;
    let dir = std::env::temp_dir().join(format!("amri-batch-exec-{}", std::process::id()));
    let run = |tag: &str, exec: &dyn ShardExecutor| {
        let mut t = SpillTier::create(&SpillConfig {
            dir: dir.join(tag),
            file_name: "s0.blocks".into(),
            profile: StorageProfile {
                read_ns: 500,
                cache_hit_ns: 3,
                ..StorageProfile::default()
            },
            faults: IoFaultConfig {
                read_error_prob: 0.3,
                latency_spike_prob: 0.3,
                spike_ns: 11,
                ..IoFaultConfig::default()
            },
            seed: 7,
            cache_bytes: budget,
        })
        .unwrap();
        let mut rc = CostReceipt::new();
        let ids: Vec<u32> = (0..7)
            .map(|k| t.append_block(block(k), 1, &mut rc).unwrap())
            .collect();
        // One block warm going in; the other six are the cold plan.
        t.fetch_entries(ids[3], &mut rc).unwrap();
        let mut served = Vec::new();
        let failures = t.fetch_batch(&ids, &mut rc, exec, &mut |id, entries| {
            served.push((id, entries.to_vec()));
            entries.len() as u64
        });
        assert_eq!(served.len() + failures.len(), 7, "{tag}");
        assert_eq!(
            served[0].0, ids[3],
            "{tag}: the resident block serves first"
        );
        assert!(t.stats().cache_evictions > 0 && t.cache_used_bytes() <= budget);
        let mut saved = SectionWriter::new();
        t.save(&mut saved);
        (saved.into_bytes(), rc, served, failures)
    };
    let pool = amri_engine::WorkerPool::new(std::num::NonZeroUsize::new(2).unwrap());
    let gated = Recording {
        pool: &pool,
        sized: Default::default(),
    };
    let inline = run("inline", &SequentialExecutor);
    assert_eq!(run("gated", &gated), inline);
    assert_eq!(
        *gated.sized.lock().unwrap(),
        vec![(6, BLOCK_IO_NS)],
        "the six cold blocks are the only dispatch"
    );
    assert_eq!(pool.epochs(), 1, "and block I/O passes the gate");
    assert_eq!(run("ungated", &Ungated(&pool)), inline);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_shard_count_agrees_on_random_scripts(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let exec = &SequentialExecutor;
        let mut runners: Vec<_> = [1usize, 2, 4, 8].iter().map(|&s| sharded_runner(s)).collect();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Search(mask, vals) => {
                    let want = runners[0].search(mask, vals, exec);
                    for (i, r) in runners.iter_mut().enumerate().skip(1) {
                        prop_assert_eq!(
                            &r.search(mask, vals, exec), &want,
                            "shard count {} diverged at step {}", 1usize << i, step
                        );
                    }
                }
                Op::Evict(n) => {
                    let evicted = runners[0].evict(n as usize);
                    for r in &mut runners[1..] {
                        prop_assert_eq!(r.evict(n as usize), evicted, "eviction count diverged");
                    }
                }
                _ => {
                    for r in &mut runners {
                        r.apply(op, exec);
                    }
                }
            }
            for r in &runners {
                let sound = r.store.index().check_sound();
                prop_assert!(sound.is_ok(), "after {:?}: {:?}", op, sound);
            }
            // Accounting is shard-count-invariant at every step: each
            // bucket lives in exactly one shard.
            let entries = runners[0].store.len();
            let mem = runners[0].store.index().memory_bytes();
            for r in &runners[1..] {
                prop_assert_eq!(r.store.len(), entries);
                prop_assert_eq!(r.store.index().memory_bytes(), mem);
            }
        }
        // Terminal sweep: every pattern over a value grid, every shard
        // count.
        for mask in 0..8u32 {
            for v in 0..6u64 {
                let vals = [v, (v + 1) % 6, (v + 2) % 6];
                let want = runners[0].search(mask, vals, exec);
                for r in &mut runners[1..] {
                    prop_assert_eq!(&r.search(mask, vals, exec), &want);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot → restore round trip at every shard count, the index
    /// rebuilt from the restored store under the saved index's
    /// configuration: a restored store is structurally sound, reports
    /// the same per-shard fill statistics, answers every probe with the
    /// same result set — and keeps behaving identically when the script
    /// continues (slot reuse survives the trip verbatim; chain order is
    /// unobservable).
    #[test]
    fn snapshot_roundtrip_preserves_arena_and_answers(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        tail in proptest::collection::vec(op_strategy(), 1..20),
    ) {
        use amri_core::snapshot_io::{SectionReader, SectionWriter};
        let exec = &SequentialExecutor;
        for shards in [1usize, 2, 4, 8] {
            let mut original = sharded_runner(shards);
            for op in &ops {
                original.apply(op, exec);
            }

            let mut w = SectionWriter::new();
            original.store.save_state(&mut w);
            let bytes = w.into_bytes();

            let mut restored = sharded_runner(shards);
            let mut r = SectionReader::new(&bytes);
            restored.store.restore_state(&mut r).expect("state section");
            prop_assert_eq!(r.remaining(), 0, "trailing bytes at {} shards", shards);
            let config = original.store.index().config().clone();
            restored
                .store
                .reindex(BitAddressIndex::with_shards(config, shards));
            restored.now = original.now;
            restored.seq = original.seq;

            let sound = restored.store.index().check_sound();
            prop_assert!(sound.is_ok(), "restored integrity: {:?}", sound);
            prop_assert_eq!(restored.store.len(), original.store.len());
            prop_assert_eq!(
                format!("{:?}", restored.store.index().shard_fill_stats()),
                format!("{:?}", original.store.index().shard_fill_stats()),
                "fill statistics diverged at {} shards", shards
            );
            for mask in 0..8u32 {
                for v in 0..6u64 {
                    let vals = [v, (v + 1) % 6, (v + 2) % 6];
                    prop_assert_eq!(
                        restored.search(mask, vals, exec),
                        original.search(mask, vals, exec),
                        "probe diverged at {} shards", shards
                    );
                }
            }

            // The trip must also preserve unobservable bookkeeping
            // (free-list order, bucket chains): continuing the script on
            // both sides must stay in lockstep.
            for op in &tail {
                original.apply(op, exec);
                restored.apply(op, exec);
                if let Op::Search(mask, vals) = *op {
                    prop_assert_eq!(
                        restored.search(mask, vals, exec),
                        original.search(mask, vals, exec),
                        "post-restore script diverged at {} shards", shards
                    );
                }
            }
            let sound = restored.store.index().check_sound();
            prop_assert!(sound.is_ok(), "post-restore integrity: {:?}", sound);
        }
    }

    /// Sharded stores against the eager reference, for every index flavor:
    /// a store driven through `insert`/`expire`/`evict_oldest`, searched
    /// and migrated through a real 2-thread `WorkerPool` (gated and
    /// ungated) or the inline `SequentialExecutor`, must be
    /// indistinguishable from the eager, unsharded, sequential reference
    /// built on the bare `StateIndex` primitives: identical result sets,
    /// identical cumulative cost receipts, live-tuple counts and index
    /// accounting after every op, and a structurally sound arena after
    /// every migration and eviction. The bit-address index runs at every
    /// shard count; the hash and scan flavors run once per executor.
    #[test]
    fn sharded_stores_match_the_eager_reference(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        check_matches_eager_reference(
            &ops,
            BitAddressIndex::new(config(0)),
            [1usize, 2, 4, 8]
                .iter()
                .map(|&s| BitAddressIndex::with_shards(config(0), s))
                .collect(),
        );
        let module = || {
            MultiHashIndex::new(
                3,
                [0b001, 0b011, 0b110]
                    .iter()
                    .map(|&m| AccessPattern::new(m, 3))
                    .collect(),
            )
        };
        check_matches_eager_reference(&ops, module(), vec![module()]);
        let scan = || MultiHashIndex::new(3, Vec::new());
        check_matches_eager_reference(&ops, scan(), vec![scan()]);
    }

    /// Collector round trip: every assessment method restored from a
    /// snapshot reports the same frequent set at every threshold, the
    /// same totals — and re-saves to identical bytes.
    #[test]
    fn collector_roundtrip_preserves_frequent_answers(
        masks in proptest::collection::vec(1u32..8, 1..400),
        theta in 0.0f64..0.6,
    ) {
        use amri_core::assess::AssessorKind;
        use amri_core::snapshot_io::{SectionReader, SectionWriter};
        for kind in AssessorKind::figure6_lineup() {
            let mut a = kind.build(3, 0.001, 7);
            for &m in &masks {
                a.record(AccessPattern::new(m, 3));
            }
            let mut w = SectionWriter::new();
            a.save(&mut w);
            let bytes = w.into_bytes();

            let mut b = kind.build(3, 0.001, 7);
            let mut r = SectionReader::new(&bytes);
            b.load(&mut r).expect("collector section");
            prop_assert_eq!(r.remaining(), 0);
            prop_assert_eq!(a.n(), b.n());
            prop_assert_eq!(a.entries(), b.entries());
            prop_assert_eq!(
                a.frequent(theta), b.frequent(theta),
                "{} diverged at theta {}", kind.label(), theta
            );
            let mut w2 = SectionWriter::new();
            b.save(&mut w2);
            prop_assert_eq!(bytes, w2.into_bytes(), "re-save must be byte-identical");
        }
    }
}
