//! A persistent worker pool for sharded index tasks.
//!
//! [`WorkerPool`] implements [`amri_core::ShardExecutor`] over a fixed set
//! of `parallelism - 1` std threads (the dispatching thread is the
//! remaining worker): one pool per pipeline run, reused for every
//! dispatch, so the steady state spawns nothing and allocates nothing.
//! With a `parallelism` of 1 the pool holds no threads at all and every
//! dispatch degenerates to the inline sequential loop — the default
//! engine configuration pays nothing for the machinery's existence.
//!
//! Hand-off protocol: the caller publishes the task (a lifetime-erased
//! pointer valid until `hand_off` returns), bumps the epoch, and wakes
//! the workers; everyone — workers and caller alike — claims indices from
//! a shared epoch-tagged cursor until the epoch drains, then the caller
//! blocks until the last claimant signals completion. Correctness does
//! not depend on which thread runs which index: shard tasks write
//! disjoint result slots and the caller merges them in fixed shard order
//! (see `amri_core::parallel`), which is what keeps parallel output
//! byte-identical to sequential. A task that panics still counts as
//! finished; the first payload is re-raised on the dispatcher once the
//! epoch has drained, and the pool stays usable.
//!
//! That hand-off is only worth paying for enough work. Index dispatches
//! arrive through `run_sized` with an estimate of their total work; a
//! bare `run_tasks` is sized by timing its first task. Either way the
//! pool runs anything under [`HANDOFF_NS`] on the caller — the same tasks
//! in index order, so the choice never shows in any result.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use amri_core::{SequentialExecutor, ShardExecutor};

/// A `&(dyn Fn(usize) + Sync)` with its lifetime erased for the duration
/// of one `hand_off` call; [`erase_lifetime`] is the only way to make one.
type RawTask = *const (dyn Fn(usize) + Sync);

/// Erase `task`'s lifetime so `hand_off` can publish it to the workers —
/// the one `transmute` in the engine.
fn erase_lifetime(task: &(dyn Fn(usize) + Sync)) -> RawTask {
    // SAFETY: a reference and a raw pointer to the same trait object have
    // one layout; only the lifetime bound changes, so the conversion
    // itself cannot go wrong. What it gives up is the borrow checker's
    // proof that the referent outlives its users, and `hand_off` — the
    // only caller — carries that instead, on the two terms of
    // `ShardExecutor`'s `# Safety` section: the referent stays alive until
    // `hand_off` returns or unwinds (it blocks on the `pending == 0`
    // handshake and retires the pointer first, and a panicking task is
    // caught and counted as finished, so the wait cannot be skipped), and
    // each index is run at most once (the epoch-tagged CAS cursor gives an
    // index to one claimant and refuses a claimant from a stale epoch).
    unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), RawTask>(task) }
}

/// The published work for one dispatch epoch, guarded by [`Shared::job`].
struct JobSlot {
    /// Monotonic dispatch counter; a worker runs each epoch once.
    epoch: u64,
    /// The current epoch's task (`None` between dispatches).
    task: Option<RawTask>,
    /// Number of task indices in the current epoch.
    n: usize,
    /// Set once, on drop: workers exit.
    shutdown: bool,
    /// The first panic payload a task of the current epoch raised, on
    /// whichever thread; the dispatcher re-raises it after the handshake.
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: the raw task pointer is only dereferenced by a thread that has
// CAS-claimed an index of the pointer's own epoch, and `hand_off` keeps
// the referent alive until every claimed index of that epoch has finished
// (it blocks on the `pending == 0` handshake before returning). `Sync` on
// the referent makes the concurrent calls themselves sound. Every other
// field is `Send` on its own.
unsafe impl Send for JobSlot {}

struct Shared {
    job: Mutex<JobSlot>,
    /// Wakes workers on a new epoch or shutdown.
    work: Condvar,
    /// Claim cursor: `(epoch & 0xffff_ffff) << 32 | next_index`. Packing
    /// the epoch tag into the same word as the index closes the ABA window
    /// where a worker holding a stale cursor value could otherwise claim
    /// an index belonging to a later dispatch.
    cursor: AtomicU64,
    /// Claimed-but-unfinished indices of the current epoch; the claimant
    /// that drops it to zero wakes the dispatcher.
    pending: AtomicUsize,
    done_mutex: Mutex<()>,
    done: Condvar,
}

impl Shared {
    /// Claim and run indices of `epoch` until the cursor leaves the epoch
    /// or runs past `n`.
    ///
    /// # Safety
    /// `task` must point at the closure published for `epoch` — guaranteed
    /// alive while any index of that epoch is unclaimed or unfinished.
    unsafe fn drain(&self, epoch: u64, n: usize, task: RawTask) {
        let tag = (epoch & 0xffff_ffff) << 32;
        loop {
            let cur = self.cursor.load(Ordering::Acquire);
            if cur & 0xffff_ffff_0000_0000 != tag {
                return; // a different epoch owns the cursor
            }
            let idx = (cur & 0xffff_ffff) as usize;
            if idx >= n {
                return; // fully claimed
            }
            if self
                .cursor
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // A panicking task must still count as finished: unwinding
            // past the decrement would leave the dispatcher waiting on
            // `done` forever (worker) or free the closure under the
            // workers' feet (dispatcher). `AssertUnwindSafe`: `hand_off`
            // re-raises the payload, so nobody sees the state the task
            // left behind without seeing the panic.
            // SAFETY: per the contract — the successful claim pins the
            // epoch (pending ≥ 1 until we finish), so the referent lives.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (*task)(idx) })) {
                let mut job = self.job.lock().expect("job mutex poisoned");
                job.panic.get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = self.done_mutex.lock().expect("done mutex poisoned");
                self.done.notify_all();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        let (epoch, n, task) = {
            let mut job = shared.job.lock().expect("job mutex poisoned");
            loop {
                if job.shutdown {
                    return;
                }
                match job.task {
                    Some(task) if job.epoch != last_epoch => break (job.epoch, job.n, task),
                    _ => job = shared.work.wait(job).expect("job mutex poisoned"),
                }
            }
        };
        last_epoch = epoch;
        // SAFETY: `task` is the pointer published for `epoch` (read under
        // the job mutex, after the cursor was armed for this epoch).
        unsafe { shared.drain(epoch, n, task) };
    }
}

/// Estimated work (ns) below which [`WorkerPool::run_sized`] runs a
/// dispatch on the caller instead of handing it off.
///
/// Measured on the reference host (2 vCPUs, dispatcher and worker pinned
/// to different CPUs, worker parked — with the gate on, pooled dispatches
/// are rare, so the worker is always cold). The hand-off alone, a 4-task
/// dispatch of empty tasks, reads 9–14 µs p50 and 10–22 µs p90: a futex
/// wake of the worker, then the dispatcher's own sleep and wake on `done`.
/// Four equal spin tasks on 2 threads lose to inline at 50 µs of total
/// work (63 vs 50 µs), tie at 100 µs (91–117 vs 100) and win at 250 µs
/// (182–202 vs 250). Memory-bound index work breaks even later: an
/// in-place `migrate_with` at 4 shards, two dispatches of `entries ×
/// RELINK_NS` each, loses at 16 k entries (375–402 vs 343–354 µs), ties
/// at 24 k (506–511 vs 486–501) and wins at 32 k (558–586 vs 579–662).
/// 250 µs is where neither curve loses. A host with cheaper wake-ups
/// breaks even earlier; this one cannot show it, so that is unproven.
const HANDOFF_NS: u64 = 250_000;

/// A persistent pool of shard-task workers (see the module docs).
///
/// Construct once per run with the configured parallelism and pass it as
/// the [`ShardExecutor`] wherever a sharded index fans work out. Dropping
/// the pool joins its threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Guards against re-entrant dispatch (an index probing inside an
    /// index probe would corrupt the epoch handshake).
    dispatching: AtomicBool,
}

impl WorkerPool {
    /// A pool that runs dispatches on `parallelism` threads total: the
    /// dispatcher plus `parallelism - 1` spawned workers. `parallelism`
    /// of 1 spawns nothing and runs everything inline.
    pub fn new(parallelism: NonZeroUsize) -> Self {
        let shared = Arc::new(Shared {
            job: Mutex::new(JobSlot {
                epoch: 0,
                task: None,
                n: 0,
                shutdown: false,
                panic: None,
            }),
            work: Condvar::new(),
            cursor: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            done_mutex: Mutex::new(()),
            done: Condvar::new(),
        });
        let workers = (1..parallelism.get())
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amri-shard-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            dispatching: AtomicBool::new(false),
        }
    }

    /// Total threads a dispatch runs on (spawned workers + the caller).
    pub fn parallelism(&self) -> usize {
        self.workers.len() + 1
    }

    /// Dispatches handed to the worker threads so far (inline runs are
    /// not counted). A pure observer.
    pub fn epochs(&self) -> u64 {
        self.shared.job.lock().expect("job mutex poisoned").epoch
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

// SAFETY: inline runs are `SequentialExecutor`'s loop (or `task(0)` then
// `1..n`). A hand-off claims each index of `first..n` once through the
// epoch-tagged CAS cursor — a stale claimant cannot take an index of a
// later epoch — and `hand_off` returns or re-raises only after
// `pending == 0`, having retired the task pointer, so no thread still
// references the closure.
unsafe impl ShardExecutor for WorkerPool {
    fn run_sized(&self, n: usize, work_ns: u64, task: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || n <= 1 || work_ns < HANDOFF_NS {
            SequentialExecutor.run_tasks(n, task);
        } else {
            self.hand_off(0, n, task);
        }
    }

    /// A dispatch that comes without an estimate is sized here: index 0
    /// runs on the caller either way, timed, and the rest are taken to
    /// cost the same each.
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || n <= 1 {
            return SequentialExecutor.run_tasks(n, task);
        }
        let start = Instant::now();
        task(0);
        let rest_ns = start.elapsed().as_nanos() * (n as u128 - 1);
        if rest_ns < u128::from(HANDOFF_NS) {
            (1..n).for_each(task);
        } else {
            self.hand_off(1, n, task);
        }
    }
}

impl WorkerPool {
    /// Run indices `first..n` of `task` on the workers and the caller
    /// (`n - first ≥ 1`, at least one worker).
    fn hand_off(&self, first: usize, n: usize, task: &(dyn Fn(usize) + Sync)) {
        assert!(
            !self.dispatching.swap(true, Ordering::Acquire),
            "re-entrant WorkerPool dispatch"
        );
        let raw = erase_lifetime(task);
        let epoch = {
            let mut job = self.shared.job.lock().expect("job mutex poisoned");
            job.epoch += 1;
            job.task = Some(raw);
            job.n = n;
            self.shared.pending.store(n - first, Ordering::Release);
            self.shared.cursor.store(
                (job.epoch & 0xffff_ffff) << 32 | first as u64,
                Ordering::Release,
            );
            job.epoch
        };
        self.shared.work.notify_all();
        // The dispatcher is a worker too: drain alongside the pool.
        // SAFETY: `raw` is this epoch's published task.
        unsafe { self.shared.drain(epoch, n, raw) };
        let mut guard = self.shared.done_mutex.lock().expect("done mutex poisoned");
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            guard = self.shared.done.wait(guard).expect("done mutex poisoned");
        }
        drop(guard);
        // Retire the pointer before returning control (and the referent's
        // lifetime) to the caller.
        let panicked = {
            let mut job = self.shared.job.lock().expect("job mutex poisoned");
            job.task = None;
            job.panic.take()
        };
        self.dispatching.store(false, Ordering::Release);
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.job.lock().expect("job mutex poisoned").shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn pool(n: usize) -> WorkerPool {
        WorkerPool::new(NonZeroUsize::new(n).unwrap())
    }

    /// Dispatch past the gate: an estimate no threshold exceeds.
    fn hand_off(p: &WorkerPool, n: usize, task: &(dyn Fn(usize) + Sync)) {
        p.run_sized(n, u64::MAX, task);
    }

    #[test]
    fn parallelism_one_spawns_no_threads_and_runs_inline() {
        let p = pool(1);
        assert_eq!(p.parallelism(), 1);
        let order = Mutex::new(Vec::new());
        p.run_tasks(4, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
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
        let ran = AtomicU32::new(0);
        p.run_tasks(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_cleanly_with_work_done() {
        let p = pool(4);
        let sum = AtomicU32::new(0);
        hand_off(&p, 16, &|i| {
            sum.fetch_add(i as u32, Ordering::Relaxed);
        });
        drop(p);
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn sized_dispatches_under_the_handoff_cost_stay_on_the_caller() {
        let p = pool(2);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        p.run_sized(4, HANDOFF_NS - 1, &|i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(p.epochs(), 0, "an inline run is not a pooled dispatch");
        p.run_sized(4, HANDOFF_NS, &|_| {});
        assert_eq!(p.epochs(), 1);
        // No workers: nothing to hand off to, whatever the estimate.
        let solo = pool(1);
        solo.run_sized(4, u64::MAX, &|_| {});
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

    /// A 2-index dispatch on a 2-thread pool whose tasks rendezvous, so
    /// each thread claims exactly one index; the task panics on the
    /// worker or on the dispatcher as asked.
    fn panic_on(p: &WorkerPool, on_worker: bool) {
        let dispatcher = std::thread::current().id();
        let both_claimed = std::sync::Barrier::new(2);
        hand_off(p, 2, &|_| {
            both_claimed.wait();
            if (std::thread::current().id() != dispatcher) == on_worker {
                panic!("task failed");
            }
        });
    }

    #[test]
    fn a_panicking_task_surfaces_on_the_dispatcher_and_the_pool_survives() {
        let p = pool(2);
        for on_worker in [true, false] {
            let caught = catch_unwind(AssertUnwindSafe(|| panic_on(&p, on_worker)));
            let payload = caught.expect_err("the task's panic must reach the dispatcher");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed"));
            let counts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
            hand_off(&p, 64, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    /// Thousands of short epochs with seeded jitter inside tasks and
    /// between dispatches, so a dispatch finds the workers parked cold,
    /// mid-wake-up, or still leaving the previous epoch's drain loop —
    /// the interleavings the epoch-tagged cursor and the lifetime-erased
    /// pointer exist for. Every index must run exactly once per epoch.
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
