//! The run's shard-task executor.
//!
//! [`WorkerPool`] implements [`amri_core::ShardExecutor`] by deciding how
//! many threads a dispatch is worth; `amri_core::parallel` then runs the
//! tasks on the caller and on threads of one `std::thread::scope` opened
//! for that dispatch. The pool itself spawns nothing and holds nothing but
//! its parallelism and a counter, so a parallelism of 1 — the default
//! engine configuration — pays nothing for the machinery's existence, and
//! a task may dispatch again on the same pool.
//!
//! A hand-off is only worth paying for enough work. Index dispatches
//! arrive with an estimate of their total work; a bare `run_tasks` is
//! sized by timing its first task. Either way the pool keeps anything
//! under [`HANDOFF_NS`] on the caller — the same tasks in index order, so
//! the choice never shows in any result.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

use amri_core::ShardExecutor;

/// Estimated work (ns) below which a dispatch runs on the caller instead
/// of on scoped threads.
///
/// Measured on the reference host (2 vCPUs), p50 of 2 000 reps of a
/// 4-task dispatch at parallelism 2, nothing pinned. Spawning and joining
/// the one scoped thread costs 41–43 µs over empty tasks (a hot persistent
/// pool paid 1.1 µs). Four equal spin tasks tie with inline at 100 µs of
/// total work (93 vs 100 µs) and win at 250 µs (166–168 vs 250).
/// Memory-bound index work breaks even later: an in-place `migrate_with`
/// at 4 shards, two dispatches of `entries × RELINK_NS` each (p50 of 200),
/// loses at 8 k entries (184–196 vs 147–171 µs), ties at 16 k–24 k and
/// wins at 32 k (460–505 vs 677–735). 250 µs is where neither curve loses.
/// A host with cheaper thread start-up breaks even earlier; this one
/// cannot show it, so that is unproven.
const HANDOFF_NS: u64 = 250_000;

/// The shard-task executor of one run (see the module docs).
///
/// Construct once per run with the configured parallelism and pass it as
/// the [`ShardExecutor`] wherever a sharded index fans work out.
pub struct WorkerPool {
    parallelism: NonZeroUsize,
    /// Dispatches sent to more than one thread.
    epochs: AtomicU64,
}

impl WorkerPool {
    /// A pool whose dispatches run on at most `parallelism` threads: the
    /// caller plus `parallelism - 1` scoped threads. Spawns nothing.
    pub fn new(parallelism: NonZeroUsize) -> Self {
        WorkerPool {
            parallelism,
            epochs: AtomicU64::new(0),
        }
    }

    /// Most threads a dispatch runs on, the caller's included.
    pub fn parallelism(&self) -> usize {
        self.parallelism.get()
    }

    /// Dispatches sent to more than one thread so far (inline runs are
    /// not counted). A pure observer.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

impl ShardExecutor for WorkerPool {
    fn threads_for(&self, n: usize, work_ns: u64) -> usize {
        let threads = self.parallelism().min(n);
        if threads <= 1 || work_ns < HANDOFF_NS {
            return 1;
        }
        self.epochs.fetch_add(1, Ordering::Relaxed);
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_core::for_each_slot;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    fn pool(n: usize) -> WorkerPool {
        WorkerPool::new(NonZeroUsize::new(n).unwrap())
    }

    /// Dispatch past the gate: an estimate no threshold exceeds.
    fn hand_off(p: &WorkerPool, n: usize, task: &(dyn Fn(usize) + Sync)) {
        for_each_slot(p, u64::MAX, &mut vec![(); n], |i, _| task(i));
    }

    #[test]
    fn parallelism_one_spawns_no_threads_and_runs_inline() {
        let p = pool(1);
        assert_eq!(p.parallelism(), 1);
        let order = Mutex::new(Vec::new());
        hand_off(&p, 4, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(p.epochs(), 0);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let p = pool(4);
        let counts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        hand_off(&p, 64, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_epochs() {
        let p = pool(3);
        for round in 0..500u32 {
            let sum = AtomicU32::new(0);
            hand_off(&p, 8, &|i| {
                sum.fetch_add(round + i as u32, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 8 * round + 28);
        }
        assert_eq!(p.epochs(), 500);
    }

    #[test]
    fn dispatches_actually_overlap_threads() {
        use std::sync::atomic::AtomicUsize;
        let p = pool(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        hand_off(&p, 2, &|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), 2, "tasks must overlap");
    }

    #[test]
    fn zero_and_single_task_dispatches_are_noops_or_inline() {
        let p = pool(4);
        p.run_tasks(0, &|_| panic!("no task to run"));
        hand_off(&p, 0, &|_| panic!("no task to run"));
        let ran = AtomicU32::new(0);
        p.run_tasks(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        hand_off(&p, 1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(p.epochs(), 0);
    }

    /// Nothing outlives a dispatch: every helper has joined, its work
    /// done, when the call returns.
    #[test]
    fn drop_joins_cleanly_with_work_done() {
        let p = pool(4);
        let sum = AtomicU32::new(0);
        hand_off(&p, 16, &|i| {
            sum.fetch_add(i as u32, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn sized_dispatches_under_the_handoff_cost_stay_on_the_caller() {
        let p = pool(2);
        let caller = std::thread::current().id();
        let mut order = vec![0; 4];
        for_each_slot(&p, HANDOFF_NS - 1, &mut order, |i, slot| {
            assert_eq!(std::thread::current().id(), caller);
            *slot = i;
        });
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(p.epochs(), 0, "an inline run is not a hand-off");
        for_each_slot(&p, HANDOFF_NS, &mut order, |_, _| {});
        assert_eq!(p.epochs(), 1);
        // One thread: nothing to hand off to, whatever the estimate.
        let solo = pool(1);
        for_each_slot(&solo, u64::MAX, &mut order, |_, _| {});
        assert_eq!(solo.epochs(), 0);
    }

    #[test]
    fn unsized_dispatches_are_sized_by_their_first_task() {
        let p = pool(2);
        let caller = std::thread::current().id();
        p.run_tasks(4, &|_| assert_eq!(std::thread::current().id(), caller));
        assert_eq!(p.epochs(), 0, "four empty tasks are not worth a hand-off");
        // Three more of a task that took at least HANDOFF_NS are.
        let counts: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        p.run_tasks(4, &|i| {
            assert!(i != 0 || std::thread::current().id() == caller);
            std::thread::sleep(std::time::Duration::from_nanos(HANDOFF_NS));
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(p.epochs(), 1);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// A 2-task hand-off on a 2-thread pool puts one task on the caller
    /// and one on a scoped thread; the task panics on the helper or on the
    /// caller as asked.
    fn panic_on(p: &WorkerPool, on_helper: bool) {
        let caller = std::thread::current().id();
        hand_off(p, 2, &|_| {
            if (std::thread::current().id() != caller) == on_helper {
                panic!("task failed");
            }
        });
    }

    #[test]
    fn a_panicking_task_surfaces_on_the_dispatcher_and_the_pool_survives() {
        let p = pool(2);
        for on_helper in [true, false] {
            let caught = catch_unwind(AssertUnwindSafe(|| panic_on(&p, on_helper)));
            let payload = caught.expect_err("the task's panic must reach the dispatcher");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed"));
            let counts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
            hand_off(&p, 64, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    /// A panic in the helper's run of slots reaches the caller with its
    /// own message — not the scope's generic one — after the caller's
    /// own run finished, and the next dispatch on the pool works.
    #[test]
    fn a_panic_in_a_helpers_chunk_surfaces_with_its_own_message() {
        let p = pool(2);
        let mut slots = vec![0u32; 8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_slot(&p, u64::MAX, &mut slots, |i, slot| {
                *slot = 1;
                if i == 6 {
                    panic!("slot {i} failed");
                }
            })
        }));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("slot 6 failed")
        );
        assert_eq!(slots[..4], [1; 4], "the caller's run finished first");
        for_each_slot(&p, u64::MAX, &mut slots, |i, slot| *slot = i as u32);
        assert_eq!(slots, (0..8).collect::<Vec<_>>());
        assert_eq!(p.epochs(), 2);
    }

    /// The non-vacuity check of the scoped path: a hand-off runs every
    /// slot once, on at least two distinct threads, and is counted.
    #[test]
    fn a_forced_hand_off_runs_on_two_threads() {
        let p = pool(2);
        let seen = Mutex::new(HashSet::new());
        let mut slots = vec![0u32; 6];
        for_each_slot(&p, u64::MAX, &mut slots, |_, slot| {
            *slot += 1;
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert_eq!(slots, [1; 6], "every slot exactly once");
        assert!(seen.into_inner().unwrap().len() >= 2, "a scoped thread ran");
        assert_eq!(p.epochs(), 1);
    }

    /// A task that dispatches again on the same pool opens a nested scope
    /// and completes.
    #[test]
    fn a_nested_dispatch_on_the_same_pool_completes() {
        let p = pool(2);
        let mut outer = vec![0u32; 2];
        for_each_slot(&p, u64::MAX, &mut outer, |i, total| {
            let mut inner = vec![0u32; 4];
            for_each_slot(&p, u64::MAX, &mut inner, |j, v| *v = (i * 4 + j) as u32);
            *total = inner.iter().sum();
        });
        assert_eq!(outer, [6, 22]);
        assert_eq!(p.epochs(), 3, "the outer hand-off and both inner ones");
    }

    /// Thousands of short hand-offs with seeded jitter inside tasks and
    /// between dispatches, so a dispatch finds its helper still starting,
    /// mid-task or already gone. Every index must run exactly once per
    /// dispatch.
    #[test]
    fn stress_short_epochs_with_jitter_run_every_index_once() {
        fn next(state: &AtomicU64) -> u64 {
            // splitmix64 over a shared counter: any thread may draw.
            let mut z = state
                .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn jitter(state: &AtomicU64) {
            match next(state) % 64 {
                0 => std::thread::sleep(std::time::Duration::from_micros(50)),
                1..=8 => std::thread::yield_now(),
                _ => {}
            }
        }
        let p = pool(3);
        let rng = AtomicU64::new(42);
        let counts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        for epoch in 1..=6000u32 {
            let n = if epoch % 2 == 0 { 2 } else { 64 };
            hand_off(&p, n, &|i| {
                jitter(&rng);
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            let ran: Vec<u32> = counts
                .iter()
                .map(|c| c.swap(0, Ordering::Relaxed))
                .collect();
            assert!(
                ran[..n].iter().all(|&c| c == 1) && ran[n..].iter().all(|&c| c == 0),
                "epoch {epoch} (n = {n}): per-index run counts {ran:?}"
            );
            jitter(&rng);
        }
        assert_eq!(p.epochs(), 6000);
    }
}
