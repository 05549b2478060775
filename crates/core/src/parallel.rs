//! The execution seam for sharded index work.
//!
//! Sharded search and insert decompose into independent per-shard tasks
//! whose results are merged in a fixed shard order. [`ShardExecutor`] is
//! the narrow contract the index needs from whoever runs those tasks:
//! *run task `0..n`, each exactly once, in any interleaving*. The core
//! crate ships only the trivially-correct [`SequentialExecutor`]; the
//! engine's worker pool implements the same trait over persistent std
//! threads, so an index probe is oblivious to whether its shards ran on
//! one core or eight — the merged output is identical by construction.

use std::marker::PhantomData;

/// Runs `n` independent tasks, each exactly once.
///
/// Implementations may interleave or parallelize tasks arbitrarily, but
/// must not drop, duplicate, or outlive them: when `run_tasks` returns,
/// every index in `0..n` has been passed to `task` exactly once and the
/// closure is no longer referenced.
pub trait ShardExecutor {
    /// Execute `task(0)`, `task(1)`, ..., `task(n - 1)`.
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync));

    /// [`run_tasks`](Self::run_tasks) carrying the caller's estimate of
    /// the tasks' total work, in nanoseconds (see [`WALK_NS`]). The index
    /// reports work; the executor decides: one whose hand-off costs more
    /// than `work_ns` may run the tasks inline instead. Tasks write
    /// disjoint slots merged in index order, so the choice is
    /// unobservable. The default drops the estimate.
    fn run_sized(&self, n: usize, work_ns: u64, task: &(dyn Fn(usize) + Sync)) {
        let _ = work_ns;
        self.run_tasks(n, task);
    }
}

/// The zero-overhead executor: runs tasks inline, in index order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl ShardExecutor for SequentialExecutor {
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            task(i);
        }
    }
}

/// A disjoint-slot view over a mutable slice, claimable from `Fn` tasks.
///
/// Shard tasks each write into their own pre-allocated result slot; the
/// executor only hands out `&(dyn Fn(usize) + Sync)`, so tasks cannot
/// borrow the slot vector mutably through safe code. `SlotArena` carries
/// the raw base pointer instead and [`claim`](Self::claim)s one exclusive
/// `&mut` per index.
///
/// # Safety contract
/// The caller must guarantee that no index is claimed more than once per
/// `run_tasks` call (the shard loop claims slot `i` from task `i` only)
/// and that the arena does not outlive the borrowed slice.
pub struct SlotArena<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the arena is only a channel for handing each slot to exactly one
// task (the documented contract); `T: Send` makes moving a `&mut T` into
// another thread sound, and the arena itself holds no shared state.
unsafe impl<T: Send> Sync for SlotArena<'_, T> {}

impl<'a, T> SlotArena<'a, T> {
    /// Wrap a slice whose slots will each be claimed by exactly one task.
    pub fn new(slots: &'a mut [T]) -> Self {
        SlotArena {
            ptr: slots.as_mut_ptr(),
            len: slots.len(),
            _marker: PhantomData,
        }
    }

    /// Exclusive access to slot `i`.
    ///
    /// # Safety
    /// Each index must be claimed at most once for the lifetime of any
    /// returned reference (one claim per task per `run_tasks` call).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn claim(&self, i: usize) -> &mut T {
        assert!(i < self.len, "slot {i} out of bounds (len {})", self.len);
        &mut *self.ptr.add(i)
    }
}

/// A bundle of independent side tasks (typically speculative block I/O)
/// that a sharded dispatch can fuse into its own `run_tasks` call, so the
/// side work overlaps shard work on the same pool instead of running as a
/// separate, serialized dispatch.
///
/// Side tasks must be order-independent and write only into disjoint,
/// pre-allocated slots (the [`SlotArena`] pattern); the caller merges
/// their results sequentially afterwards, so *which* dispatch carried
/// them — or whether they ran inline — never shows in observable state.
/// [`take_fire`](Self::take_fire) hands the bundle out exactly once:
/// the first dispatch to claim it runs it, later dispatches see it empty,
/// and a caller whose index never dispatched runs the leftovers inline
/// via [`run_leftover`](Self::run_leftover).
pub struct SideTasks<'a> {
    n: usize,
    run: &'a (dyn Fn(usize) + Sync),
    fired: std::sync::atomic::AtomicBool,
}

impl<'a> SideTasks<'a> {
    /// Bundle `n` tasks backed by `run`.
    pub fn new(n: usize, run: &'a (dyn Fn(usize) + Sync)) -> Self {
        SideTasks {
            n,
            run,
            fired: std::sync::atomic::AtomicBool::new(n == 0),
        }
    }

    /// The empty bundle (already fired).
    pub fn none() -> SideTasks<'static> {
        SideTasks::new(0, &|_| {})
    }

    /// Number of side tasks when not yet claimed by a dispatch, else 0.
    /// A dispatch that wants to fuse the bundle must call this exactly
    /// once and, when nonzero, run every claimed task.
    pub fn take_fire(&self) -> usize {
        // The empty bundle is the common case on the probe hot path: skip
        // the atomic.
        if self.n == 0 || self.fired.swap(true, std::sync::atomic::Ordering::AcqRel) {
            0
        } else {
            self.n
        }
    }

    /// Run side task `i` (valid for `i < ` the count [`take_fire`]
    /// returned).
    ///
    /// [`take_fire`]: Self::take_fire
    pub fn run(&self, i: usize) {
        (self.run)(i);
    }

    /// Run any not-yet-claimed tasks through `exec` — the fallback for
    /// callers whose fused dispatch never happened (empty stage, scan
    /// fallback). Idempotent.
    pub fn run_leftover(&self, exec: &dyn ShardExecutor) {
        let n = self.take_fire();
        if n > 0 {
            exec.run_sized(n, BLOCK_IO_NS, &|i| self.run(i));
        }
    }
}

// Per-unit work estimates for `run_sized`, in ns: floors, from std-only
// timing loops on the reference host (2 vCPUs) at 1 k–50 k entries. They
// size a dispatch from counts the caller already holds; the executor
// compares the total against its own hand-off cost. A floor errs towards
// running inline, which can forgo a speedup but never loses to one thread.

/// One candidate bucket or slab entry of a probe walk: a wide probe
/// streams the slab at 1–2 ns per entry, a narrow one pays a hash lookup
/// per candidate id on top.
pub const WALK_NS: u64 = 1;

/// One index entry linked, unlinked or rebucketed: an in-place migration
/// pass reads 8.5–10 ns per entry and a replayed link about the same into
/// warm shards (30–40 ns into growing ones); a replayed unlink 25–86 ns.
pub const RELINK_NS: u64 = 10;

/// The size of any dispatch that reads spill blocks: device latency
/// dwarfs a hand-off, so no executor's threshold should hold it back.
pub const BLOCK_IO_NS: u64 = u64::MAX;

/// Dispatch `n` shard tasks and the side bundle as one fused call:
/// indices `0..n` run `task`, the rest run the side tasks. When the
/// bundle is empty (or already claimed) this is `run_sized(n, work_ns,
/// task)`; a non-empty bundle makes it `n + m` tasks of [`BLOCK_IO_NS`].
pub fn run_fused(
    exec: &dyn ShardExecutor,
    n: usize,
    work_ns: u64,
    task: &(dyn Fn(usize) + Sync),
    side: &SideTasks<'_>,
) {
    let m = side.take_fire();
    if m == 0 {
        exec.run_sized(n, work_ns, task);
    } else {
        exec.run_sized(n + m, BLOCK_IO_NS, &|i| {
            if i < n {
                task(i);
            } else {
                side.run(i - n);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_executor_runs_every_task_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        SequentialExecutor.run_tasks(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn slot_arena_hands_out_disjoint_slots() {
        let mut slots = vec![0u64; 8];
        let arena = SlotArena::new(&mut slots);
        SequentialExecutor.run_tasks(8, &|i| {
            // SAFETY: each task claims only its own index, once.
            let slot = unsafe { arena.claim(i) };
            *slot = i as u64 * 10;
        });
        assert_eq!(slots, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn fused_dispatch_runs_shards_then_side_tasks_once() {
        let order = std::sync::Mutex::new(Vec::new());
        let side_hits = std::sync::Mutex::new(Vec::new());
        let side_fn = |i: usize| side_hits.lock().unwrap().push(i);
        let side = SideTasks::new(2, &side_fn);
        run_fused(
            &SequentialExecutor,
            3,
            0,
            &|i| order.lock().unwrap().push(i),
            &side,
        );
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(*side_hits.lock().unwrap(), vec![0, 1]);
        // A second dispatch (or leftover run) must not re-fire the bundle.
        run_fused(&SequentialExecutor, 1, 0, &|_| {}, &side);
        side.run_leftover(&SequentialExecutor);
        assert_eq!(*side_hits.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn leftover_side_tasks_run_when_no_dispatch_claimed_them() {
        let hits = std::sync::Mutex::new(0usize);
        let side_fn = |_i: usize| *hits.lock().unwrap() += 1;
        let side = SideTasks::new(3, &side_fn);
        side.run_leftover(&SequentialExecutor);
        assert_eq!(*hits.lock().unwrap(), 3);
        assert_eq!(SideTasks::none().take_fire(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slot_arena_bounds_checks() {
        let mut slots = vec![0u8; 2];
        let arena = SlotArena::new(&mut slots);
        // SAFETY: out-of-bounds claim must panic before any deref.
        let _ = unsafe { arena.claim(2) };
    }
}
