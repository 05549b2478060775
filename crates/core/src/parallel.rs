//! The execution seam for sharded index work.
//!
//! Sharded search and insert decompose into independent per-shard tasks
//! whose results are merged in a fixed shard order. [`ShardExecutor`] is
//! the narrow contract the index needs from whoever runs those tasks: *how
//! many threads is this much work worth?* The core crate ships only
//! [`SequentialExecutor`], which always answers one; the engine's worker
//! pool answers from its parallelism and hand-off cost. Either way the
//! tasks run here, on the caller and on scoped threads, so an index probe
//! is oblivious to whether its shards ran on one core or eight — the
//! merged output is identical by construction.

use std::panic::resume_unwind;
use std::time::Instant;

/// Decides how many threads a dispatch of independent tasks runs on.
pub trait ShardExecutor {
    /// Threads to run `n` tasks on, given the caller's estimate of their
    /// total work in nanoseconds (see [`WALK_NS`]). The index reports
    /// work; the executor decides. Tasks write disjoint slots merged in
    /// index order, so the answer is unobservable; anything below 2 runs
    /// the tasks inline.
    fn threads_for(&self, n: usize, work_ns: u64) -> usize;

    /// Execute `task(0)`, `task(1)`, ..., `task(n - 1)`, each exactly
    /// once. A dispatch that comes without an estimate is sized here:
    /// index 0 runs on the caller either way, timed, and the rest are
    /// taken to cost the same each.
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n <= 1 {
            return (0..n).for_each(task);
        }
        let start = Instant::now();
        task(0);
        let rest_ns = start.elapsed().as_nanos().saturating_mul(n as u128 - 1);
        let threads = self.threads_for(n - 1, u64::try_from(rest_ns).unwrap_or(u64::MAX));
        on_threads(threads, &mut vec![(); n - 1], |i, ()| task(i + 1));
    }
}

/// The zero-overhead executor: runs tasks inline, in index order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl ShardExecutor for SequentialExecutor {
    fn threads_for(&self, _n: usize, _work_ns: u64) -> usize {
        1
    }
}

/// Run `work(i, &mut slots[i])` for every slot, as one dispatch of
/// `slots.len()` tasks sized `work_ns` through `exec` — the one place
/// sharded work turns a `&mut [T]` into per-task exclusive borrows.
///
/// Each task writes only its own slot and the caller merges the slots in
/// index order afterwards, so which thread ran which task never shows.
pub fn for_each_slot<T: Send>(
    exec: &dyn ShardExecutor,
    work_ns: u64,
    slots: &mut [T],
    work: impl Fn(usize, &mut T) + Sync,
) {
    on_threads(exec.threads_for(slots.len(), work_ns), slots, work);
}

/// `work(i, &mut slots[i])` for every slot on `threads` threads. On one
/// this is a plain loop on the caller. On more, one `std::thread::scope`
/// splits the slots into that many contiguous runs: the caller takes the
/// first and a scoped thread each of the others. A panic in `work`
/// reaches the caller once every thread has joined (the scope joins the
/// rest before it lets a panic go).
fn on_threads<T: Send>(threads: usize, slots: &mut [T], work: impl Fn(usize, &mut T) + Sync) {
    if threads <= 1 || slots.len() <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            work(i, slot);
        }
        return;
    }
    let per = slots.len().div_ceil(threads);
    let run = &|(c, chunk): (usize, &mut [T])| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            work(c * per + j, slot);
        }
    };
    let mut chunks = slots.chunks_mut(per).enumerate();
    let mine = chunks.next().expect("two slots or more");
    std::thread::scope(|s| {
        let helpers: Vec<_> = chunks.map(|c| s.spawn(move || run(c))).collect();
        run(mine);
        for helper in helpers {
            if let Err(payload) = helper.join() {
                resume_unwind(payload);
            }
        }
    });
}

// Per-unit work estimates for `threads_for`, in ns: floors, from std-only
// timing loops on the reference host (2 vCPUs) at 1 k–50 k entries. They
// size a dispatch from counts the caller already holds; the executor
// compares the total against its own hand-off cost. A floor errs towards
// running inline, which can forgo a speedup but never loses to one thread.

/// One candidate bucket or slab entry of a probe walk: a wide probe
/// streams the slab at 1–2 ns per entry, a narrow one pays a hash lookup
/// per candidate id on top.
pub const WALK_NS: u64 = 1;

/// One index entry linked, unlinked or rebucketed: an in-place migration
/// pass reads 8.5–10 ns per entry and a link about the same into
/// warm shards (30–40 ns into growing ones); an unlink 25–86 ns.
pub const RELINK_NS: u64 = 10;

/// The size of any dispatch that reads spill blocks: device latency
/// dwarfs a hand-off, so no executor's threshold should hold it back.
pub const BLOCK_IO_NS: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Always asks for `.0` threads, whatever the work.
    struct Forced(usize);

    impl ShardExecutor for Forced {
        fn threads_for(&self, _n: usize, _work_ns: u64) -> usize {
            self.0
        }
    }

    #[test]
    fn sequential_executor_runs_every_task_in_order() {
        let order = Mutex::new(Vec::new());
        SequentialExecutor.run_tasks(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_slot_and_task_runs_once_at_any_thread_count() {
        for threads in 1..=9 {
            for n in 0..=11 {
                let mut slots = vec![0u32; n];
                for_each_slot(&Forced(threads), 0, &mut slots, |i, slot| {
                    *slot += i as u32 + 1
                });
                assert_eq!(slots, (1..=n as u32).collect::<Vec<_>>(), "{threads} × {n}");
                let ran = Mutex::new(Vec::new());
                Forced(threads).run_tasks(n, &|i| ran.lock().unwrap().push(i));
                let mut ran = ran.into_inner().unwrap();
                ran.sort_unstable();
                assert_eq!(ran, (0..n).collect::<Vec<_>>(), "{threads} × {n}");
            }
        }
    }
}
