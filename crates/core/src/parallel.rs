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
/// Implementations may interleave or parallelize tasks arbitrarily.
///
/// # Safety
/// An implementation must not drop, duplicate, or outlive the tasks: when
/// `run_tasks` or `run_sized` returns — or unwinds — every index the
/// closure was called with is in `0..n`, none was passed twice, and the
/// closure is no longer referenced by any thread. [`for_each_slot`] hands
/// task `i` an exclusive `&mut` to slot `i` on the strength of this
/// contract, so an executor that runs an index twice creates aliasing
/// mutable references from safe code.
pub unsafe trait ShardExecutor {
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

// SAFETY: one pass of a `for` loop over `0..n` on the calling thread: each
// index once, and the borrow of `task` ends with the call.
unsafe impl ShardExecutor for SequentialExecutor {
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            task(i);
        }
    }
}

/// A disjoint-slot view over a mutable slice, claimable from `Fn` tasks.
///
/// The executor only hands out `&(dyn Fn(usize) + Sync)`, so tasks cannot
/// borrow a slot vector mutably through safe code. `SlotArena` carries the
/// raw base pointer instead and [`claim`](Self::claim)s one exclusive
/// `&mut` per index. Private: [`for_each_slot`] is its one user and the
/// only place the claim contract has to be upheld.
struct SlotArena<'a, T> {
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
    fn new(slots: &'a mut [T]) -> Self {
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
    unsafe fn claim(&self, i: usize) -> &mut T {
        assert!(i < self.len, "slot {i} out of bounds (len {})", self.len);
        &mut *self.ptr.add(i)
    }
}

/// Run `work(i, &mut slots[i])` for every slot, as one dispatch of
/// `slots.len()` tasks sized `work_ns` through `exec` — the one place
/// sharded work turns a `&mut [T]` into per-task exclusive borrows.
///
/// Each task writes only its own slot and the caller merges the slots in
/// index order afterwards, so which thread ran which task never shows. A
/// panic in `work` reaches the caller once the dispatch has drained.
pub fn for_each_slot<T: Send>(
    exec: &dyn ShardExecutor,
    work_ns: u64,
    slots: &mut [T],
    work: impl Fn(usize, &mut T) + Sync,
) {
    let n = slots.len();
    let arena = SlotArena::new(slots);
    exec.run_sized(n, work_ns, &|i| {
        // SAFETY: the `ShardExecutor` contract passes each index at most
        // once and lets go of the closure before `run_sized` returns, so
        // task `i` holds the only reference to slot `i`, inside the
        // arena's borrow of `slots`.
        work(i, unsafe { arena.claim(i) });
    });
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
    #[should_panic(expected = "out of bounds")]
    fn slot_arena_bounds_checks() {
        let mut slots = vec![0u8; 2];
        let arena = SlotArena::new(&mut slots);
        // SAFETY: out-of-bounds claim must panic before any deref.
        let _ = unsafe { arena.claim(2) };
    }
}
