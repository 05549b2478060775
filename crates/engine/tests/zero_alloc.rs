//! The steady-state request loop must never touch the allocator.
//!
//! `crates/core/tests/zero_alloc.rs` holds the index to that standard;
//! this file holds the whole probe step — pop a job's words into the
//! context's one reused buffer, view them, route, build the request,
//! search, read the hits, encode the follow-ups — plus the ingest step
//! beside it. A counting global allocator wraps `System`;
//! a quick-scale AMRI session is warmed past its first retune, and every
//! later quantum that contains no grid point (sampling and tuning append
//! to the run's series and may migrate the index; they are not the
//! request loop) must record exactly zero allocations, under both
//! statistics-driven routing policies.
//!
//! The session assesses with CDIA-highest, the assessor all five
//! benchmark workloads run. It folds its statistics every `1/ε` requests
//! (`crates/hh`'s `compress`) inside a probe step; that sweep walks a
//! scratch list the sketch owns and reads each folded node's parents off
//! an iterator, so it is held to zero with everything else.
//!
//! The file holds a single `#[test]` so no concurrent test can allocate
//! while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use amri_core::assess::AssessorKind;
use amri_engine::{Executor, IndexingMode, PolicyKind, Session, SessionStatus};
use amri_hh::CombineStrategy;
use amri_synth::scenario::{paper_scenario, Scale};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with the counter armed; the allocations it performed.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// Steps per measured quantum: a few dozen quanta fit between two grid
/// points of the quick scenario.
const QUANTUM_STEPS: u64 = 256;
/// Grid-free quanta each policy must run allocation-free.
const CLEAN_QUANTA: usize = 200;

#[test]
fn steady_state_probe_step_does_not_allocate() {
    // Positive control: the counter sees an allocation when there is one.
    let (buf, seen) = allocations_in(|| Vec::<u64>::with_capacity(32));
    assert_eq!(seen, 1, "the counting allocator must see a deliberate Vec");
    drop(buf);

    for policy in [
        PolicyKind::SelectivityGreedy { exploration: 0.05 },
        PolicyKind::Lottery { exploration: 0.05 },
    ] {
        let mut sc = paper_scenario(Scale::Quick, 42);
        sc.engine.policy = policy;
        let mode = IndexingMode::Amri {
            assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
            initial: None,
        };
        let exec = Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
            .expect("valid engine configuration");
        let mut session = Session::new(exec.into_pipeline());

        // Warm-up: past the first retune, then one more grid interval so
        // the migrated index, the scratch buffers and the backlog's chunk
        // buffers have all reached their steady-state sizes.
        while session.context().retunes.is_empty() {
            assert_eq!(
                session.run_quantum(QUANTUM_STEPS),
                SessionStatus::Ready,
                "{policy:?}: the run ended before its first retune"
            );
        }
        let warmed = session.context().series.next_due();
        while session.context().series.next_due() == warmed {
            assert_eq!(session.run_quantum(QUANTUM_STEPS), SessionStatus::Ready);
        }

        let jobs_before = session.context().jobs_processed;
        let mut clean = 0;
        while clean < CLEAN_QUANTA {
            let due = session.context().series.next_due();
            let (status, allocs) = allocations_in(|| session.run_quantum(QUANTUM_STEPS));
            assert_eq!(status, SessionStatus::Ready, "{policy:?}: ran out of run");
            if session.context().series.next_due() != due {
                continue; // the quantum crossed a grid point
            }
            assert_eq!(
                allocs,
                0,
                "{policy:?}: a grid-free quantum allocated {allocs} times \
                 (clean quantum {clean}, step {})",
                session.context().step
            );
            clean += 1;
        }
        // Sanity: the clean quanta did real probe work.
        let jobs = session.context().jobs_processed - jobs_before;
        assert!(
            jobs > CLEAN_QUANTA as u64 * QUANTUM_STEPS / 2,
            "{policy:?}: only {jobs} jobs probed"
        );
    }
}
