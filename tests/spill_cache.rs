//! Acceptance for the spill-tier read fast path: the decoded-block
//! cache, batch read coalescing and expiry-order readahead are pure
//! accelerations. Under the identity [`StorageProfile`] a cache-enabled
//! run must be byte-identical to the cacheless one (the cache's own
//! counters aside), at any worker-thread count and any shard count; and
//! crash + resume with a warm cache — whose decoded contents are
//! deliberately *not* snapshotted, only its metadata and counters —
//! must land byte-identical to the uninterrupted cached run.

use amri_bench::lattice::{cached_tier, forcing_budget, lineup, without_cache_counters};
use amri_core::assess::AssessorKind;
use amri_engine::{
    load_latest, CheckpointPolicy, Checkpointer, EngineError, Executor, FaultKind, IndexingMode,
    MemoryBudget, RunOutcome, SessionStatus, SpillSettings,
};
use amri_stream::VirtualDuration;
use amri_synth::scenario::{paper_scenario, PaperScenario, Scale};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amri-spill-cache-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Quick scenario with `shards` arena shards and `threads` workers; the
/// shard count is pinned independently of the thread count because the
/// identity claim is *per shard count* (different shard counts produce
/// different, equally valid, hit orders).
fn scenario(seed: u64, shards: usize, threads: usize) -> PaperScenario {
    let mut sc = paper_scenario(Scale::Quick, seed);
    sc.engine.duration = VirtualDuration::from_secs(8);
    sc.engine.budget = MemoryBudget::unlimited();
    sc.engine.shards = shards;
    sc.engine.parallelism = NonZeroUsize::new(threads).unwrap();
    sc
}

fn executor(sc: &PaperScenario, mode: IndexingMode) -> Executor<amri_synth::DriftingWorkload> {
    Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
        .expect("valid engine configuration")
}

fn amri_mode() -> IndexingMode {
    IndexingMode::Amri {
        assessor: AssessorKind::Csria,
        initial: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Across seeds and shard counts S ∈ {1, 2, 4, 8}: the cacheless
    /// spilled run, the cache-enabled run at one thread and the
    /// cache-enabled run at four threads are all byte-identical under
    /// the identity profile (cache-only counters normalized away).
    #[test]
    fn cache_and_threads_are_invisible_under_identity_profile(
        seed in 100u64..400,
        shard_idx in 0usize..4,
    ) {
        let shards = [1usize, 2, 4, 8][shard_idx];
        let base = scenario(seed, shards, 1);
        let baseline = executor(&base, amri_mode()).run();
        prop_assert_eq!(baseline.outcome, RunOutcome::Completed);
        let budget = forcing_budget(&amri_mode(), baseline.series.peak_memory());

        let dir = tmpdir(&format!("prop-{seed}-{shards}"));
        let spilled = {
            let mut sc = scenario(seed, shards, 1);
            sc.engine.budget = MemoryBudget { bytes: budget };
            sc.engine.spill = Some(SpillSettings::in_dir(dir.join("cacheless")));
            executor(&sc, amri_mode()).run()
        };
        prop_assert_eq!(spilled.outcome, RunOutcome::Completed);
        prop_assert!(spilled.spill.spilled_tuples > 0, "the tier must engage");

        // Stepped by hand so the pool's dispatch count can be read before
        // the pipeline is consumed.
        let cached_run = |threads: usize| {
            let mut sc = scenario(seed, shards, threads);
            sc.engine.budget = MemoryBudget { bytes: budget };
            sc.engine.spill = Some(cached_tier(&dir.join(format!("cached-t{threads}"))));
            let mut pipeline = executor(&sc, amri_mode()).into_pipeline();
            while pipeline.step_once() != SessionStatus::Finished {}
            let pooled = pipeline.context().pool.epochs();
            (pipeline.into_result_with_stats().0, pooled)
        };
        let (cached_t1, _) = cached_run(1);
        let (cached_t4, pooled_t4) = cached_run(4);

        // Cache on vs off: identical once the cache's own counters are
        // normalized (a hit still charges heat and blocks_read, so every
        // shared counter agrees).
        prop_assert_eq!(
            format!("{:#?}", without_cache_counters(cached_t1.clone())),
            format!("{spilled:#?}"),
            "cache on vs off diverged (seed {}, {} shards)", seed, shards
        );
        // Threads 1 vs 4 at the same shard count: identical including
        // the cache counters — coins are pre-drawn sequentially and
        // parallel reads merge in plan order.
        prop_assert_eq!(
            format!("{cached_t1:#?}"),
            format!("{cached_t4:#?}"),
            "threads 1 vs 4 diverged (seed {}, {} shards)", seed, shards
        );
        // Block I/O is never gated, so the comparison above is not two
        // inline runs: a readahead plan of two blocks (the depth
        // configured here) or a `fetch_batch` cold plan of several is a
        // multi-task dispatch at any shard count, and the 4-thread run
        // hands it off. A run whose every plan named a single block would
        // read inline; none of this test's seeds produces one.
        if cached_t4.spill.prefetched_blocks > 0 {
            prop_assert!(pooled_t4 > 0, "block reads must reach the worker threads");
        }
        if cached_t1.spill.blocks_read > 0 {
            prop_assert!(
                cached_t1.spill.cache_hits + cached_t1.spill.cache_misses > 0,
                "an engaged cache must classify demand reads"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash + resume with a *warm* cache: the snapshot carries the cache's
/// metadata (ids, touch order, byte accounting) and its counters but not
/// the decoded blocks, which rewarm lazily on first touch — and the
/// resumed run is still byte-identical to the uninterrupted cached run,
/// Debug render and all.
#[test]
fn crash_and_resume_with_warm_cache_is_byte_identical() {
    let dir = tmpdir("crash");
    for (label, mode) in lineup() {
        let base = scenario(17, 4, 1);
        let peak = executor(&base, mode.clone()).run().series.peak_memory();
        let mut sc = base;
        sc.engine.budget = MemoryBudget {
            bytes: forcing_budget(&mode, peak),
        };
        sc.engine.spill = Some(cached_tier(&dir.join(label)));

        let baseline = executor(&sc, mode.clone()).run();
        assert!(
            baseline.spill.spilled_tuples > 0,
            "{label}: the tier must be active"
        );
        assert!(
            baseline.spill.cache_hits + baseline.spill.cache_misses > 0,
            "{label}: the cache must be exercised for the crash to mean anything"
        );

        let ckpt_dir = dir.join(format!("{label}-ckpt"));
        let exec = executor(&sc, mode.clone());
        let fingerprint = exec.config_fingerprint();
        let mut ckpt = Checkpointer::new(&ckpt_dir, CheckpointPolicy::every(60))
            .unwrap()
            .with_faults(vec![FaultKind::CrashAt { step: 200 }]);
        let died = exec
            .into_pipeline()
            .run_with(Some(&mut ckpt), fingerprint)
            .expect_err("the armed crash must kill the run");
        assert!(
            matches!(died, EngineError::InjectedCrash { step: 200 }),
            "unexpected death: {died}"
        );

        let (snap, report) = load_latest(&ckpt_dir).expect("a good snapshot must exist");
        assert!(report.skipped.is_empty());
        let resumed = executor(&sc, mode)
            .resume_from(&snap)
            .expect("same configuration: snapshot must be accepted")
            .run_with(None, 0)
            .expect("a resumed run without a checkpointer cannot fail");
        assert_eq!(
            format!("{baseline:#?}"),
            format!("{resumed:#?}"),
            "{label}: crash + resume with a warm cache must be invisible"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
