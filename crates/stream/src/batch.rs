//! Packed job flow — the backlog representation of the runtime layer.
//!
//! A queued routing job is charged `layout::queued_request_bytes` by the
//! memory model, so that is what it may cost: [`JobQueue`] stores each job
//! as **packed words** — only the values it carries, framed by its word
//! count on both sides — inside chunks of `batch_capacity` jobs, instead
//! of as a fixed-size struct sized for the widest query the engine
//! accepts. The element type supplies the word layout ([`Packed`]); the
//! queue owns framing, chunking and recycling.
//!
//! Single-job order is preserved **exactly**: `push` → `pop` round-trips
//! in precisely `VecDeque` order under any interleaving of removals at
//! either end, so the deterministic simulation harness drains job-by-job
//! with byte-identical results.
//!
//! A job leaves in one of three ways, at either end, through one cursor
//! walk per end: **as words** ([`JobQueue::pop_words`] /
//! [`JobQueue::pop_newest_words`]) — copied undecoded into a buffer the
//! caller reuses, which is how the engine's probe step takes every job and
//! reads it through a borrowed view; **unread** ([`JobQueue::discard`] /
//! [`JobQueue::discard_newest`]) — how load shedding drops one; or
//! **decoded** ([`JobQueue::pop`] / [`JobQueue::pop_newest`]) into a `T`,
//! for snapshots, diagnostics and tests that want the value.
//!
//! Steady state allocates nothing: drained chunk buffers are recycled into
//! a spare pool and reused for new tail chunks.

use std::collections::VecDeque;
use std::marker::PhantomData;

/// Default jobs per chunk. 64 packed jobs of the paper's shape fill a few
/// KiB — large enough that chunk turnover is rare, small enough that a
/// drained chunk returns its memory promptly.
pub const DEFAULT_BATCH_CAPACITY: usize = 64;

/// Default bound on a [`JobQueue`]'s spare-buffer pool (see
/// [`JobQueue::with_caps`]). A host co-locating many queues can pass a
/// smaller cap to bound aggregate spare-buffer memory.
pub const DEFAULT_MAX_SPARE_BUFFERS: usize = 8;

/// Something that can write itself as the packed words of one queued `T`
/// — a `T`, or a cheaper stand-in that encodes the same job without
/// building it (see [`JobQueue::push_packed`]).
pub trait Pack<T> {
    /// Append the job's words to `out` (never touching what is there).
    fn pack(&self, out: &mut Vec<u64>);
}

/// A [`JobQueue`] element: packs as itself and decodes back.
pub trait Packed: Pack<Self> + Sized {
    /// Rebuild the job from exactly the words its [`Pack::pack`] wrote.
    fn unpack(words: &[u64]) -> Self;
}

/// A FIFO backlog of jobs stored as packed words, chunk-granularly.
///
/// Pushes encode into an open tail chunk; once it holds the batch capacity
/// it is sealed and a fresh (recycled) buffer opens. Removals at the old
/// end drain the oldest chunk job-by-job through a cursor before touching
/// younger ones, so the queue is indistinguishable from `VecDeque<T>` at
/// the job level — the property the byte-identical §V equivalence suite
/// pins.
///
/// Inside a chunk every job is framed `[n, n payload words, n]`: the
/// leading count lets the old end walk forwards, the trailing one lets
/// the new end walk backwards.
#[derive(Debug, Clone)]
pub struct JobQueue<T> {
    /// Head chunk being drained; the jobs before `cursor` are gone. Empty
    /// (cursor 0) whenever it holds no undrained job.
    active: Vec<u64>,
    /// Word offset of the oldest undrained job in `active`.
    cursor: usize,
    /// Sealed chunks waiting behind the active one, oldest first.
    sealed: VecDeque<Vec<u64>>,
    /// Open tail chunk that `push` encodes into.
    tail: Vec<u64>,
    /// Jobs in `tail` (it seals at `batch_capacity`).
    tail_jobs: usize,
    /// Total queued jobs across active + sealed + tail.
    len: usize,
    batch_capacity: usize,
    /// Drained buffers kept for reuse (steady state never allocates).
    spare: Vec<Vec<u64>>,
    /// Most spare buffers retained (see [`Self::with_caps`]).
    spare_cap: usize,
    /// Largest capacity any tail chunk has grown to. Every buffer entering
    /// the tail role is sized to it up front, so once the widest chunk of
    /// a workload has been seen, chunk turnover stops reallocating.
    chunk_words: usize,
    _jobs: PhantomData<T>,
}

impl<T: Packed> Default for JobQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Remove the newest job of a non-empty chunk, handing its payload words
/// to `read` first.
fn take_last<R>(chunk: &mut Vec<u64>, read: impl FnOnce(&[u64]) -> R) -> R {
    let end = chunk.len() - 1;
    let n = chunk[end] as usize;
    let out = read(&chunk[end - n..end]);
    chunk.truncate(end - n - 1);
    out
}

/// Decode the jobs framed in `words`, oldest first.
fn jobs_of<T: Packed>(mut words: &[u64]) -> impl Iterator<Item = T> + '_ {
    std::iter::from_fn(move || {
        let (&n, rest) = words.split_first()?;
        let item = T::unpack(&rest[..n as usize]);
        words = &rest[n as usize + 1..];
        Some(item)
    })
}

/// Replace `buf`'s contents with `job`'s words.
fn copy_into(buf: &mut Vec<u64>, job: &[u64]) {
    buf.clear();
    buf.extend_from_slice(job);
}

impl<T: Packed> JobQueue<T> {
    /// An empty queue with the [`DEFAULT_BATCH_CAPACITY`].
    pub fn new() -> Self {
        Self::with_batch_capacity(DEFAULT_BATCH_CAPACITY)
    }

    /// An empty queue sealing chunks at `batch_capacity` jobs, retaining
    /// at most [`DEFAULT_MAX_SPARE_BUFFERS`] spare buffers.
    ///
    /// # Panics
    /// Panics on a zero capacity.
    pub fn with_batch_capacity(batch_capacity: usize) -> Self {
        Self::with_caps(batch_capacity, DEFAULT_MAX_SPARE_BUFFERS)
    }

    /// An empty queue with explicit batch capacity *and* spare-pool bound.
    ///
    /// A deep backlog seals many chunks whose buffers all come home when
    /// the queue drains; without a bound the pool would keep the burst's
    /// peak allocation for the rest of the run. `spare_cap = 0` disables
    /// recycling entirely — every sealed chunk allocates fresh — which a
    /// multi-tenant host can use to cap aggregate spare-buffer memory
    /// across many co-resident queues.
    ///
    /// # Panics
    /// Panics on a zero batch capacity (a zero `spare_cap` is valid).
    pub fn with_caps(batch_capacity: usize, spare_cap: usize) -> Self {
        assert!(batch_capacity > 0, "batch capacity must be positive");
        JobQueue {
            active: Vec::new(),
            cursor: 0,
            sealed: VecDeque::new(),
            tail: Vec::new(),
            tail_jobs: 0,
            len: 0,
            batch_capacity,
            spare: Vec::new(),
            spare_cap,
            chunk_words: 0,
            _jobs: PhantomData,
        }
    }

    /// Jobs per sealed chunk.
    #[inline]
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Most spare buffers this queue retains for reuse.
    #[inline]
    pub fn spare_cap(&self) -> usize {
        self.spare_cap
    }

    /// Re-bound the spare pool, freeing buffers beyond the new cap
    /// immediately. Live jobs are untouched.
    pub fn set_spare_cap(&mut self, spare_cap: usize) {
        self.spare_cap = spare_cap;
        self.spare.truncate(spare_cap);
    }

    /// Total queued jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no jobs are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the queue holds right now: the capacity of every chunk
    /// buffer, live or spare, plus the tables that list them — what a
    /// queued job really costs, to set against the memory model's charge.
    pub fn heap_bytes(&self) -> usize {
        let words: usize = [&self.active, &self.tail]
            .into_iter()
            .chain(&self.sealed)
            .chain(&self.spare)
            .map(Vec::capacity)
            .sum();
        words * std::mem::size_of::<u64>()
            + (self.sealed.capacity() + self.spare.capacity()) * std::mem::size_of::<Vec<u64>>()
    }

    /// Detach the tail chunk, leaving a recycled (or new) buffer sized for
    /// the widest chunk seen so far in its place.
    fn roll_tail(&mut self) -> Vec<u64> {
        self.chunk_words = self.chunk_words.max(self.tail.capacity());
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.reserve(self.chunk_words);
        self.tail_jobs = 0;
        std::mem::replace(&mut self.tail, buf)
    }

    /// Return a drained buffer to the spare pool, unless the pool is
    /// already at [`Self::spare_cap`] (then the buffer is freed).
    fn recycle(&mut self, mut buf: Vec<u64>) {
        buf.clear();
        if buf.capacity() > 0 && self.spare.len() < self.spare_cap {
            self.spare.push(buf);
        }
    }

    /// Recycle the fully drained active chunk.
    fn retire_active(&mut self) {
        debug_assert_eq!(self.cursor, self.active.len());
        self.cursor = 0;
        let buf = std::mem::take(&mut self.active);
        self.recycle(buf);
    }

    /// Enqueue one job at the back.
    pub fn push(&mut self, item: T) {
        self.push_packed(&item);
    }

    /// Enqueue, at the back, the job `item` packs as — for a stand-in
    /// that writes a `T`'s words without building the `T`.
    pub fn push_packed(&mut self, item: &impl Pack<T>) {
        if self.tail_jobs == self.batch_capacity {
            let full = self.roll_tail();
            self.sealed.push_back(full);
        }
        let at = self.tail.len();
        self.tail.push(0);
        item.pack(&mut self.tail);
        let n = (self.tail.len() - at - 1) as u64;
        self.tail[at] = n;
        self.tail.push(n);
        self.tail_jobs += 1;
        self.len += 1;
    }

    /// Move the oldest sealed-or-tail chunk into the (empty) active head.
    fn promote(&mut self) -> bool {
        debug_assert!(self.active.is_empty() && self.cursor == 0);
        self.active = match self.sealed.pop_front() {
            Some(chunk) => chunk,
            None if self.tail_jobs > 0 => self.roll_tail(),
            None => return false,
        };
        true
    }

    /// Remove the oldest job, handing its payload words to `read` first —
    /// the one walk of the head cursor, behind [`pop`](Self::pop),
    /// [`pop_words`](Self::pop_words) and [`discard`](Self::discard).
    fn take_oldest<R>(&mut self, read: impl FnOnce(&[u64]) -> R) -> Option<R> {
        if self.active.is_empty() && !self.promote() {
            return None;
        }
        let start = self.cursor + 1;
        let end = start + self.active[self.cursor] as usize;
        let out = read(&self.active[start..end]);
        self.cursor = end + 1;
        self.len -= 1;
        if self.cursor == self.active.len() {
            self.retire_active();
        }
        Some(out)
    }

    /// Remove the **newest** job, handing its payload words to `read`
    /// first — the one backward walk, behind
    /// [`pop_newest`](Self::pop_newest),
    /// [`pop_newest_words`](Self::pop_newest_words) and
    /// [`discard_newest`](Self::discard_newest).
    fn take_newest<R>(&mut self, read: impl FnOnce(&[u64]) -> R) -> Option<R> {
        let out = if self.tail_jobs > 0 {
            self.tail_jobs -= 1;
            take_last(&mut self.tail, read)
        } else if let Some(back) = self.sealed.back_mut() {
            let out = take_last(back, read);
            if back.is_empty() {
                // Drop the emptied chunk so `promote` never sees it;
                // recycle its buffer like any drained chunk.
                let buf = self.sealed.pop_back().expect("back_mut was Some");
                self.recycle(buf);
            }
            out
        } else if self.active.is_empty() {
            return None;
        } else {
            let out = take_last(&mut self.active, read);
            if self.cursor == self.active.len() {
                self.retire_active();
            }
            out
        };
        self.len -= 1;
        Some(out)
    }

    /// Dequeue the oldest job, decoded. The engine's probe step reads its
    /// jobs undecoded through [`pop_words`](Self::pop_words); this is for
    /// callers that want the value.
    pub fn pop(&mut self) -> Option<T> {
        self.take_oldest(T::unpack)
    }

    /// Dequeue the **newest** job, decoded — the opposite end from
    /// [`pop`](Self::pop).
    ///
    /// This is the load-shedding primitive for drop-newest policies and the
    /// reorder fault: the job removed is the one that would otherwise drain
    /// last. All other jobs keep their exact FIFO order.
    pub fn pop_newest(&mut self) -> Option<T> {
        self.take_newest(T::unpack)
    }

    /// Dequeue the oldest job *undecoded*: its packed words — exactly what
    /// its [`Pack::pack`] wrote — replace the contents of `words`, a
    /// buffer the caller reuses. `false` (and `words` untouched) when the
    /// queue is empty.
    pub fn pop_words(&mut self, words: &mut Vec<u64>) -> bool {
        self.take_oldest(|job| copy_into(words, job)).is_some()
    }

    /// [`pop_words`](Self::pop_words) from the **newest** end.
    pub fn pop_newest_words(&mut self, words: &mut Vec<u64>) -> bool {
        self.take_newest(|job| copy_into(words, job)).is_some()
    }

    /// Drop the oldest job without reading it; `false` when empty.
    pub fn discard(&mut self) -> bool {
        self.take_oldest(|_| ()).is_some()
    }

    /// Drop the **newest** job without reading it; `false` when empty.
    pub fn discard_newest(&mut self) -> bool {
        self.take_newest(|_| ()).is_some()
    }

    /// Decode all queued jobs, oldest first (diagnostics and snapshots;
    /// not on the hot path).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::once(&self.active[self.cursor..])
            .chain(self.sealed.iter().map(Vec::as_slice))
            .chain(std::iter::once(self.tail.as_slice()))
            .flat_map(jobs_of)
    }

    /// Serialize the live backlog into a snapshot section: batch capacity,
    /// job count, then every queued job oldest-first via `put`.
    ///
    /// Only *live* jobs are captured, in the caller's format — the packed
    /// words are working storage, not a snapshot format. Spare-pool
    /// buffers are not state either: a queue restored by [`load_jobs`]
    /// (Self::load_jobs) starts with an empty pool and re-warms it lazily
    /// as chunks drain, exactly like a freshly built queue.
    pub fn save_jobs(
        &self,
        w: &mut crate::snapshot::SectionWriter,
        mut put: impl FnMut(&mut crate::snapshot::SectionWriter, &T),
    ) {
        w.put_usize(self.batch_capacity);
        w.put_usize(self.len);
        for job in self.iter() {
            put(w, &job);
        }
    }

    /// Rebuild a queue from a section written by [`save_jobs`]
    /// (Self::save_jobs), reading each job with `get`.
    ///
    /// Jobs re-enter through [`push`](Self::push), so internal chunk
    /// boundaries may differ from the saved queue's — irrelevant at the
    /// job level, where the queue is pinned indistinguishable from a
    /// `VecDeque` under any `pop`/`pop_newest` interleaving.
    ///
    /// # Errors
    /// Propagates decode failures from `get` and rejects a corrupt
    /// (zero) batch capacity.
    pub fn load_jobs(
        r: &mut crate::snapshot::SectionReader<'_>,
        mut get: impl FnMut(
            &mut crate::snapshot::SectionReader<'_>,
        ) -> Result<T, crate::snapshot::SnapshotError>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let batch_capacity = r.get_usize()?;
        if batch_capacity == 0 {
            return Err(crate::snapshot::SnapshotError::Malformed(
                "job queue batch capacity is zero".into(),
            ));
        }
        let n = r.get_usize()?;
        let mut q = JobQueue::with_batch_capacity(batch_capacity);
        for _ in 0..n {
            q.push(get(r)?);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The oracle tests queue bare integers: one payload word each.
    impl Pack<u64> for u64 {
        fn pack(&self, out: &mut Vec<u64>) {
            out.push(*self);
        }
    }

    impl Packed for u64 {
        fn unpack(words: &[u64]) -> u64 {
            assert_eq!(words.len(), 1);
            words[0]
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = JobQueue::<u64>::with_batch_capacity(0);
    }

    #[test]
    fn fifo_across_batch_boundaries() {
        let mut q = JobQueue::with_batch_capacity(3);
        for i in 0..10u64 {
            q.push(i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.sealed.len(), 3, "10 jobs at cap 3 seal three chunks");
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_matches_vecdeque() {
        // Deterministic pseudo-random interleaving (LCG) compared against
        // the reference VecDeque the executor used before batching.
        let mut q = JobQueue::with_batch_capacity(4);
        let mut reference: VecDeque<u64> = VecDeque::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = 0u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 63 == 0 || reference.is_empty() {
                q.push(next);
                reference.push_back(next);
                next += 1;
            } else {
                assert_eq!(q.pop(), reference.pop_front());
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.is_empty(), reference.is_empty());
        }
        while let Some(want) = reference.pop_front() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn iter_reports_queue_order() {
        let mut q = JobQueue::with_batch_capacity(2);
        for i in 0..7u64 {
            q.push(i);
        }
        q.pop(); // partially drain the head chunk
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn pop_newest_takes_the_back_across_every_region() {
        // Exercise all three storage regions: tail, sealed back, active.
        let mut q = JobQueue::with_batch_capacity(3);
        for i in 0..8u64 {
            q.push(i); // [0 1 2][3 4 5] tail:[6 7]
        }
        assert_eq!(q.pop_newest(), Some(7), "tail first");
        assert_eq!(q.pop_newest(), Some(6));
        assert_eq!(q.pop_newest(), Some(5), "then the newest sealed batch");
        assert_eq!(q.pop(), Some(0), "head order is untouched");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // Active now holds the promoted [3, 4]; newest is 4.
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop_newest(), Some(4), "active region, newest end");
        assert_eq!(q.pop_newest(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_newest_matches_vecdeque_back_under_interleaving() {
        let mut q = JobQueue::with_batch_capacity(4);
        let mut reference: VecDeque<u64> = VecDeque::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = 0u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match state >> 62 {
                0 | 1 => {
                    q.push(next);
                    reference.push_back(next);
                    next += 1;
                }
                2 => assert_eq!(q.pop(), reference.pop_front()),
                _ => assert_eq!(q.pop_newest(), reference.pop_back()),
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(want) = reference.pop_front() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop_newest(), None);
    }

    #[test]
    fn spare_pool_never_exceeds_its_cap() {
        let cap = DEFAULT_MAX_SPARE_BUFFERS;
        let mut q = JobQueue::with_batch_capacity(4);
        assert_eq!(q.spare_cap(), cap);
        // A deep burst seals ~100 batches; draining them all would hand
        // ~100 buffers back to the pool without the bound.
        for burst in 0..3 {
            for i in 0..400u64 {
                q.push(burst * 1000 + i);
            }
            while q.pop().is_some() {
                assert!(
                    q.spare.len() <= cap,
                    "spare pool grew past its cap: {} > {cap}",
                    q.spare.len()
                );
            }
            assert!(q.is_empty());
        }
        // pop_newest drains recycle through the same bounded path.
        for i in 0..400u64 {
            q.push(i);
        }
        while q.pop_newest().is_some() {
            assert!(q.spare.len() <= cap);
        }
        assert!(q.spare.len() <= cap);
    }

    #[test]
    fn snapshot_excludes_spare_pool_and_restored_queue_rewarms_lazily() {
        use crate::snapshot::{SectionReader, SectionWriter};
        let cap = DEFAULT_MAX_SPARE_BUFFERS;
        let mut q = JobQueue::with_batch_capacity(4);
        // Warm the spare pool, then leave a partially drained backlog.
        for i in 0..64u64 {
            q.push(i);
        }
        while q.len() > 10 {
            q.pop();
        }
        assert!(!q.spare.is_empty(), "test needs a warmed spare pool");
        let live: Vec<u64> = q.iter().collect();

        let mut w = SectionWriter::new();
        q.save_jobs(&mut w, |w, &job| w.put_u64(job));
        let bytes = w.into_bytes();
        // The image holds capacity + count + the live jobs, nothing more:
        // spare buffers must not inflate the snapshot.
        assert_eq!(bytes.len(), 16 + live.len() * 8);

        let mut r = SectionReader::new(&bytes);
        let mut restored: JobQueue<u64> = JobQueue::load_jobs(&mut r, |r| r.get_u64()).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.batch_capacity(), 4);
        assert_eq!(restored.len(), live.len());
        assert!(
            restored.spare.is_empty(),
            "restored queue must start with an empty spare pool"
        );
        // Draining re-warms the pool lazily and the bound still holds.
        for i in 0..400u64 {
            restored.push(i);
        }
        let drained: Vec<u64> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(&drained[..live.len()], &live[..], "job order preserved");
        assert!(
            !restored.spare.is_empty(),
            "drained buffers re-warm the pool"
        );
        assert!(restored.spare.len() <= cap, "default spare cap respected");
    }

    #[test]
    fn zero_spare_queue_recycles_nothing() {
        let mut q = JobQueue::with_caps(4, 0);
        assert_eq!(q.spare_cap(), 0);
        // Fill/drain cycles that would warm a default pool keep it empty.
        for round in 0..5u64 {
            for i in 0..32 {
                q.push(round * 100 + i);
            }
            let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained.len(), 32, "FIFO contents unaffected by the cap");
            assert!(drained.windows(2).all(|w| w[0] < w[1]));
            assert!(
                q.spare.is_empty(),
                "a 0-spare queue must never retain buffers"
            );
        }
        // Tightening a warmed queue frees the excess immediately.
        let mut warm = JobQueue::with_batch_capacity(4);
        for i in 0..64u64 {
            warm.push(i);
        }
        while warm.pop().is_some() {}
        assert!(warm.spare.len() > 2, "test needs a warmed pool");
        warm.set_spare_cap(2);
        assert_eq!(warm.spare.len(), 2);
        warm.set_spare_cap(0);
        assert!(warm.spare.is_empty());
        // And it keeps working, just allocation-per-batch.
        for i in 0..64u64 {
            warm.push(i);
        }
        while warm.pop().is_some() {}
        assert!(warm.spare.is_empty());
    }

    #[test]
    fn buffers_are_recycled() {
        let mut q = JobQueue::with_batch_capacity(4);
        // Fill and drain a few times; after warm-up the spare pool feeds
        // every new tail/active buffer.
        for round in 0..5u64 {
            for i in 0..16 {
                q.push(round * 100 + i);
            }
            while q.pop().is_some() {}
        }
        assert!(q.is_empty());
        assert!(
            !q.spare.is_empty(),
            "drained buffers must return to the spare pool"
        );
        let spare_before = q.spare.len();
        for i in 0..16 {
            q.push(i);
        }
        assert!(
            q.spare.len() < spare_before,
            "new batches must reuse spare buffers"
        );
    }
}
