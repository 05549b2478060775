//! [`RunContext`] — the mutable state of one engine run, shared by the
//! pipeline's four step functions — and the three forms a routing job
//! takes: the decoded [`Job`] value (snapshots, diagnostics, tests), the
//! packed words the backlog stores, and `JobView`, the borrowed read of
//! those words that the probe step works from (`FollowUp` encodes a
//! hit's follow-up job from a view, so the step never builds a `Job`).

use crate::executor::EngineConfig;
use crate::memory::MemoryReport;
use crate::metrics::{RetuneRecord, ThroughputSeries};
use crate::router::Router;
use crate::runtime::degrade::{water_bytes, Governor};
use crate::runtime::fault::FaultState;
use crate::stem::Stem;
use amri_core::{layout, tier, BlockWriteError, CostReceipt};
use amri_stream::{
    AttrValue, Clock, JobQueue, Pack, Packed, PackedPartial, PartialTuple, SpjQuery, StreamId,
    VirtualClock, VirtualTime,
};
use serde::{Deserialize, Serialize};

/// One routing job: a partial tuple plus the arrival instant of the base
/// tuple that spawned it. Probes only match *older* tuples (`ts <
/// origin_ts`) — the MJoin rule that makes every join result get produced
/// exactly once, by the job of its newest constituent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// The partial tuple being routed.
    pub pt: PartialTuple,
    /// Arrival instant of the base tuple that spawned this job.
    pub origin_ts: VirtualTime,
    /// When this job entered the backlog (sojourn-time metric).
    pub enqueued: VirtualTime,
}

/// A queued job is `origin_ts`, `enqueued`, then the partial tuple's packed
/// words (header, `min_ts`, covered values): with the queue's two framing
/// words, `6 + Σ covered arity` words — for the §V shape (4 streams × 3
/// attributes) 9, 12 or 15 words = 72, 96 or 120 B, inside the 144 B
/// `layout::queued_request_bytes(4, 3)` charges, where the struct is 464 B.
/// The header's 4-bit part lengths hold because `SpjQuery::new` rejects a
/// schema wider than `MAX_ATTRS`.
impl Pack<Job> for Job {
    fn pack(&self, out: &mut Vec<u64>) {
        out.extend([self.origin_ts.0, self.enqueued.0]);
        self.pt.pack(out);
    }
}

impl Packed for Job {
    fn unpack(words: &[u64]) -> Job {
        Job {
            origin_ts: VirtualTime(words[0]),
            enqueued: VirtualTime(words[1]),
            pt: PartialTuple::unpack(&words[2..]),
        }
    }
}

/// A queued job read where it lies: the words [`Job`]'s `pack` wrote —
/// popped undecoded ([`JobQueue::pop_words`]) into the buffer the
/// [`RunContext`] reuses — exposing what the probe step reads of a job
/// without building the 464-byte struct.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobView<'a> {
    /// The partial tuple being routed, still packed.
    pub pt: PackedPartial<'a>,
    /// Arrival instant of the base tuple that spawned this job.
    pub origin_ts: VirtualTime,
    /// When this job entered the backlog.
    pub enqueued: VirtualTime,
}

impl<'a> JobView<'a> {
    /// View `words` as the job packed into exactly them.
    ///
    /// # Panics
    /// Panics if `words` is not one packed job, as `Job::unpack` does.
    pub fn new(words: &'a [u64]) -> Self {
        JobView {
            origin_ts: VirtualTime(words[0]),
            enqueued: VirtualTime(words[1]),
            pt: PackedPartial::new(&words[2..]),
        }
    }
}

/// The job a probe hit spawns — `parent` extended by the matched tuple
/// (`attrs`, arrived at `ts`) of the probed `stream`, entering the backlog
/// at `enqueued` — as something to encode straight into the queue: it
/// packs exactly the words of `Job { pt: parent.pt.extend(stream, attrs,
/// ts), origin_ts: parent.origin_ts, enqueued }` from the parent's own
/// words and the matched values where they lie, never building either
/// partial tuple or the matched one.
pub(crate) struct FollowUp<'a> {
    /// The job whose probe produced the hit.
    pub parent: &'a JobView<'a>,
    /// The probed stream.
    pub stream: StreamId,
    /// The matched tuple's arrival time.
    pub ts: VirtualTime,
    /// The matched tuple's attributes, in schema order.
    pub attrs: &'a [AttrValue],
    /// When the follow-up enters the backlog.
    pub enqueued: VirtualTime,
}

impl Pack<Job> for FollowUp<'_> {
    fn pack(&self, out: &mut Vec<u64>) {
        out.extend([self.parent.origin_ts.0, self.enqueued.0]);
        self.parent
            .pt
            .pack_extended(self.stream, self.attrs, self.ts, out);
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// Reached the configured duration.
    Completed,
    /// Breached the memory budget at the contained instant (§V's "ran out
    /// of memory").
    OutOfMemory {
        /// Death time.
        at: VirtualTime,
    },
    /// Reached the configured duration, but only by shedding load or
    /// evicting state under a
    /// [`DegradationPolicy`](crate::DegradationPolicy) — the graceful
    /// alternative to `OutOfMemory`.
    Degraded {
        /// First instant any load was shed, state evicted, or spilled
        /// data lost.
        first_at: VirtualTime,
        /// Total routing jobs dropped from the backlog.
        shed_jobs: u64,
        /// Total live tuples forcibly evicted from states.
        evicted_tuples: u64,
        /// Tuples lost to unrecoverable spill-block corruption.
        #[serde(default)]
        lost_tuples: u64,
    },
}

/// Where the run's maintenance time went, in deterministic **virtual
/// nanoseconds** (the cost model's sub-tick resolution, where one clock
/// tick models a microsecond — see
/// [`CostParams::nanos`](amri_core::CostParams::nanos)). This is *not*
/// wall time: the totals are byte-identical across thread counts and
/// replayable through the CI byte-diff. Nanoseconds rather than whole
/// ticks because one arrival's ingest work costs well under a tick and
/// would otherwise round to zero everywhere. Part of every run's answer:
/// [`RunResult::maint`](crate::RunResult::maint), and the bench summary
/// CSV's `ingest_ns`/`migrate_ns` columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceStats {
    /// Virtual ns charged to ingest-side maintenance: window expiry,
    /// arena stores, and index link/unlink work.
    pub ingest_ns: u64,
    /// Virtual ns charged to index reconfiguration (AMRI migrations and
    /// hash retargets).
    pub migrate_ns: u64,
    /// Retunes that fired while routing jobs were queued — each one
    /// stalled the pipeline for its migration's duration.
    pub migrate_stalls: u64,
    /// What-if benefit (virtual ns) the tuner predicted for its retunes,
    /// summed over every AMRI state's [`TuneLedger`](amri_core::TuneLedger).
    #[serde(default)]
    pub retune_benefit_predicted_ns: u64,
    /// Realized benefit (virtual ns) those retunes actually delivered,
    /// measured one assessment window later. Signed: a retune into a
    /// workload flip can cost more than it saves.
    #[serde(default)]
    pub retune_benefit_realized_ns: i64,
    /// Cumulative realized regret (virtual ns) of the tuner's decisions
    /// against always keeping the static seed IC.
    #[serde(default)]
    pub regret_vs_static_ns: u64,
}

/// Everything one run mutates, shared by the pipeline's step functions.
///
/// The clock is pluggable ([`Clock`]): [`VirtualClock`] is the
/// deterministic simulation, and
/// [`SkewedClock`](crate::runtime::SkewedClock) wraps it to inject skew.
pub struct RunContext<C: Clock = VirtualClock> {
    /// The source of "now"; only the step functions advance it.
    pub clock: C,
    /// The query being executed.
    pub query: SpjQuery,
    /// Probe plan derived from the query.
    pub graph: amri_stream::JoinGraph,
    /// One STeM per stream.
    pub stems: Vec<Stem>,
    /// Routing of partial tuples through the unvisited states.
    pub router: Router,
    /// Always-on exact per-state pattern observers (run reporting +
    /// the quasi-training path; independent of the flavors' own
    /// assessment).
    pub observers: Vec<amri_core::assess::Sria>,
    /// The backlog of routing jobs, stored as packed words, drained FIFO.
    pub backlog: JobQueue<Job>,
    /// The words of the job being probed: each probe step pops its job
    /// into this one buffer and reads it through a [`JobView`].
    pub(crate) job_words: Vec<u64>,
    /// The cumulative-throughput series being recorded.
    pub series: ThroughputSeries,
    /// Index migrations, time-ordered.
    pub retunes: Vec<RetuneRecord>,
    /// Next scheduled arrival per stream.
    pub next_arrival: Vec<VirtualTime>,
    /// Output tuples produced so far.
    pub outputs: u64,
    /// Monotone tuple id counter.
    pub tuple_seq: u64,
    /// Total ticks jobs spent queued before processing.
    pub sojourn_ticks: u64,
    /// Jobs popped and processed.
    pub jobs_processed: u64,
    /// Pipeline loop iterations completed — the coordinate checkpoints
    /// and injected crashes are addressed by. Purely observational: the
    /// counter feeds no routing or cost decision, so stepping it (or
    /// checkpointing at it) never perturbs the run.
    pub step: u64,
    /// Completion or death (updated by the sample step).
    pub outcome: RunOutcome,
    /// The virtual instant the run must stop.
    pub deadline: VirtualTime,
    /// Grid instant of the most recent sample (read by the tune step).
    pub grid_due: VirtualTime,
    /// The configuration the run was built with. Routing policy, seed and
    /// tuner parameters were consumed at construction and are never
    /// reread; the step functions read the rates, the budget, the unit
    /// costs and whether a spill tier is attached.
    pub config: EngineConfig,
    /// Per-state window lengths in seconds (cached for λ_r estimation).
    pub window_secs: Vec<f64>,
    /// The overload governor, when a
    /// [`DegradationPolicy`](crate::DegradationPolicy) is configured.
    pub governor: Option<Governor>,
    /// Armed fault plan, when one is configured.
    pub fault: Option<FaultState>,
    /// The executor for sharded index work, sized to
    /// [`EngineConfig::parallelism`] (no threads at parallelism 1).
    pub pool: crate::runtime::pool::WorkerPool,
    /// Virtual-tick totals for the maintenance path (ingest, migration).
    /// Its three tuner-ledger totals stay zero during the run:
    /// [`Pipeline::into_result`](crate::runtime::Pipeline::into_result)
    /// sums them from the states' own ledgers.
    pub maint: MaintenanceStats,
    /// Order-sensitive digest folded over every completed join output —
    /// the byte-identity witness the lattice's spill group compares across
    /// budget-constrained, crash-resumed and thread-count variants.
    pub output_digest: u64,
    /// Order-free digest of the same outputs: a wrapping sum, over them,
    /// of each output's words folded from `OUTPUT_HASH_SEED`, so flavors
    /// whose job order differs agree on it when they compute one join.
    pub output_set: u64,
    /// Tuples lost to unrecoverable spill-block corruption (merged into
    /// the degradation report at run end).
    pub spill_lost: u64,
    /// First instant spilled data was lost, if ever.
    pub spill_first_at: Option<VirtualTime>,
}

/// Fold one observation into an order-sensitive digest (rotate-xor-mul;
/// same shape as splitmix64's finalizer constants).
#[inline]
fn digest_fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The seed [`RunContext::output_set`] folds each output's words from.
const OUTPUT_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one completed output — `words`: its origin, then every stream's
/// part in ascending stream order — into the order-sensitive run `digest`,
/// and add a hash of the same words to the order-free output `set`.
pub(crate) fn fold_output(digest: &mut u64, set: &mut u64, words: impl Iterator<Item = u64>) {
    let (mut h, mut o) = (*digest, OUTPUT_HASH_SEED);
    for v in words {
        h = digest_fold(h, v);
        o = digest_fold(o, v);
    }
    *digest = h;
    *set = set.wrapping_add(o);
}

impl<C: Clock> RunContext<C> {
    /// Effective arrival rate at virtual time `t`.
    pub fn lambda_at(&self, t: VirtualTime) -> f64 {
        self.config.lambda_d * (1.0 + self.config.lambda_ramp * t.as_secs_f64())
    }

    /// Current accounted memory: state bytes plus backlog bytes.
    pub fn memory_report(&self) -> MemoryReport {
        let states: u64 = self.stems.iter().map(|s| s.state.memory_bytes()).sum();
        let arity = self
            .query
            .schemas
            .iter()
            .map(|s| s.arity())
            .max()
            .unwrap_or(0);
        MemoryReport {
            states,
            backlog: self.backlog.len() as u64
                * layout::queued_request_bytes(self.query.n_streams(), arity),
            phantom: self
                .fault
                .as_ref()
                .map_or(0, |f| f.phantom_bytes(self.clock.now())),
            spilled: self
                .stems
                .iter()
                .map(|s| s.state.store().disk_bytes())
                .sum(),
            cache: self
                .stems
                .iter()
                .map(|s| s.state.store().cache_used_bytes())
                .sum(),
        }
    }

    /// Balance the spill tier at a grid point: above
    /// [`tier::SPILL_HIGH_WATER`] of the budget, spill the globally oldest
    /// resident tuples to disk in blocks of [`tier::BLOCK_TUPLES`] until
    /// utilization is back under it; below [`tier::PROMOTE_LOW_WATER`],
    /// promote at most one block read at least [`tier::PROMOTE_MIN_READS`]
    /// times back into RAM. Runs *before* the governor, so state moves to disk before
    /// any of it is evicted. All I/O work is charged to the clock like any
    /// other work.
    pub(crate) fn tier_balance(&mut self, _due: VirtualTime) {
        if self.config.spill.is_none() {
            return;
        }
        let budget = self.config.budget.bytes;
        let mut receipt = CostReceipt::new();
        let mut report = self.memory_report();
        let high = water_bytes(budget, tier::SPILL_HIGH_WATER);
        if report.total() > high {
            while report.total() > high {
                // Spill from the state holding the globally oldest
                // resident tuple — mirrors the governor's eviction order,
                // so the tuples spilled are exactly the ones eviction
                // would have destroyed.
                let victim = self
                    .stems
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.state.store().oldest_resident_ts().map(|t| (t, i)))
                    .min();
                let Some((_, idx)) = victim else {
                    break; // nothing resident anywhere
                };
                // A torn write lost nothing and a new one draws a new coin:
                // retry it, at most `WRITE_ATTEMPTS` times.
                let store = self.stems[idx].state.store_mut();
                let mut spilled = store.spill_oldest(tier::BLOCK_TUPLES, &mut receipt);
                for _ in 0..tier::WRITE_ATTEMPTS {
                    if spilled != Err(BlockWriteError::Torn) {
                        break;
                    }
                    spilled = store.spill_oldest(tier::BLOCK_TUPLES, &mut receipt);
                }
                if spilled.unwrap_or(0) == 0 {
                    break; // nothing spillable or unwritable: leave it to the governor
                }
                report = self.memory_report();
            }
        } else if report.total() < water_bytes(budget, tier::PROMOTE_LOW_WATER) {
            // Plenty of headroom: bring back at most one hot block per
            // grid point (bounded work; keeps the decision deterministic).
            for stem in &mut self.stems {
                let outcome = stem
                    .state
                    .store_mut()
                    .promote_hottest(tier::PROMOTE_MIN_READS, &mut receipt);
                if outcome.lost > 0 {
                    self.spill_lost += outcome.lost as u64;
                    let now = self.clock.now();
                    self.spill_first_at.get_or_insert(now);
                }
                if outcome.moved > 0 {
                    break;
                }
            }
        }
        // Queue expiry-order readahead for the next grid interval: each
        // state nominates its next-oldest uncached spill blocks, and its
        // tier reads them ahead of the next probe. No-op under a zero-byte
        // block cache.
        for stem in &mut self.stems {
            stem.state.store_mut().schedule_readahead();
        }
        self.clock.advance(self.config.params.ticks(&receipt));
    }

    /// Run the overload governor at grid instant `due` and return the
    /// post-governance memory report. No-op (a fresh report) when no
    /// [`DegradationPolicy`](crate::DegradationPolicy) is configured.
    ///
    /// Governance order: bound the backlog to its cap, then — if
    /// utilization exceeds the high-water mark — evict oldest-first
    /// across states (always from the state holding the globally oldest
    /// tuple) until utilization falls below the low-water mark or every
    /// state is drained. Eviction work is charged to the clock like any
    /// other work.
    pub(crate) fn govern(&mut self, due: VirtualTime) -> MemoryReport {
        // `take` ends the governor's borrow of `self` so the loop below
        // can borrow stems/backlog/clock freely; restored before return.
        let Some(mut gov) = self.governor.take() else {
            return self.memory_report();
        };
        let now = self.clock.now();
        gov.bound_backlog(&mut self.backlog, now);
        let budget = self.config.budget.bytes;
        let mut report = self.memory_report();
        if gov.over_high_water(&report, budget) {
            let target = gov.low_water_bytes(budget);
            let mut receipt = CostReceipt::new();
            while report.total() > target {
                let victim = self
                    .stems
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.state.store().oldest_ts().map(|t| (t, i)))
                    .min();
                let Some((_, idx)) = victim else {
                    break; // every state drained; nothing left to shed
                };
                let evicted = self.stems[idx]
                    .state
                    .store_mut()
                    .evict_oldest(gov.evict_chunk(), &mut receipt);
                if evicted == 0 {
                    break;
                }
                gov.note_evicted(evicted, now);
                report = self.memory_report();
            }
            self.clock.advance(self.config.params.ticks(&receipt));
        }
        gov.sample(due);
        self.governor = Some(gov);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::tuple::MAX_STREAMS;
    use amri_stream::{
        AttrVec, SectionReader, SectionWriter, StreamMask, Tuple, TupleId, MAX_ATTRS,
    };
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Two outputs folded in either order give one output set and two
    /// digests; a changed word changes both.
    #[test]
    fn the_output_set_ignores_order_and_the_digest_does_not() {
        let fold = |outputs: &[&[u64]]| {
            let (mut digest, mut set) = (0, 0);
            for words in outputs {
                fold_output(&mut digest, &mut set, words.iter().copied());
            }
            (digest, set)
        };
        let (a, b, c): (&[u64], &[u64], &[u64]) = (&[7, 1, 2, 3], &[9, 4, 5, 6], &[9, 4, 5, 7]);
        let (ab, ba) = (fold(&[a, b]), fold(&[b, a]));
        assert_eq!(ab.1, ba.1, "the set is order-free");
        assert_ne!(ab.0, ba.0, "the digest is order-sensitive");
        let ac = fold(&[a, c]);
        assert!(ab.0 != ac.0 && ab.1 != ac.1);
    }

    /// A job of any shape the engine can queue: every non-empty covered
    /// mask over `MAX_STREAMS` streams, each covered part 0..=`MAX_ATTRS`
    /// values wide.
    fn any_job() -> impl Strategy<Value = Job> {
        (
            1u16..1 << MAX_STREAMS,
            vec(vec(proptest::num::u64::ANY, 0..=MAX_ATTRS), MAX_STREAMS),
            vec(proptest::num::u64::ANY, 3),
        )
            .prop_map(|(mask, parts, times)| {
                let covered = StreamMask(mask);
                let parts = covered
                    .streams()
                    .map(|s| AttrVec::from_slice(&parts[s.idx()]).unwrap());
                Job {
                    pt: PartialTuple::from_parts(covered, VirtualTime(times[0]), parts),
                    origin_ts: VirtualTime(times[1]),
                    enqueued: VirtualTime(times[2]),
                }
            })
    }

    /// The view of `words` exposes exactly what the decoded `job` holds.
    fn assert_view_reads(words: &[u64], job: &Job) {
        let view = JobView::new(words);
        assert_eq!(view.origin_ts, job.origin_ts);
        assert_eq!(view.enqueued, job.enqueued);
        assert_eq!(view.pt.covered(), job.pt.covered);
        assert_eq!(view.pt.min_ts(), job.pt.min_ts);
        for s in (0..MAX_STREAMS as u16).map(StreamId) {
            assert_eq!(view.pt.part(s), job.pt.part(s).map(AttrVec::as_slice));
        }
    }

    /// The follow-up encoded from `parent`'s words by a hit on the first
    /// stream it does not cover is, word for word, the extended `Job`
    /// packed; a parent covering every stream has no follow-up.
    fn assert_follow_up_packs_as_extended(words: &[u64], parent: &Job) {
        let Some(s) = (0..MAX_STREAMS as u16)
            .map(StreamId)
            .find(|&s| !parent.pt.covered.covers(s))
        else {
            return;
        };
        // Earlier or later than the parent's `min_ts`, by its low bit.
        let ts = VirtualTime(parent.pt.min_ts.0 ^ 1);
        let attrs = AttrVec::from_slice(&words[..words.len().min(MAX_ATTRS)]).unwrap();
        let matched = Tuple::new(TupleId(0), s, ts, attrs);
        let enqueued = VirtualTime(parent.enqueued.0.wrapping_add(7));
        let mut encoded = Vec::new();
        FollowUp {
            parent: &JobView::new(words),
            stream: matched.stream,
            ts: matched.ts,
            attrs: &matched.attrs,
            enqueued,
        }
        .pack(&mut encoded);
        let mut built = Vec::new();
        Job {
            pt: parent.pt.extend(s, attrs, ts),
            origin_ts: parent.origin_ts,
            enqueued,
        }
        .pack(&mut built);
        assert_eq!(encoded, built);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed queue against its oracle, at every job shape: any
        /// interleaving of pushes with decoding, word-level and discarding
        /// removals at either end, across chunk boundaries, equals a
        /// `VecDeque<Job>`; a job popped as words reads through its view
        /// as the decoded job and encodes the follow-up the decoded job
        /// would; a word slice one short or one long is refused by the
        /// view as `unpack` refuses it; `iter()` lists the drain order,
        /// and a snapshot round-trip restores the same sequence.
        #[test]
        fn packed_backlog_matches_vecdeque_at_every_job_shape(
            batch_capacity in 1usize..6,
            ops in vec((0u8..12, any_job()), 1..200),
        ) {
            let mut q = JobQueue::with_batch_capacity(batch_capacity);
            let mut oracle: VecDeque<Job> = VecDeque::new();
            let mut words = vec![u64::MAX]; // replaced by every word-level pop
            for (op, job) in ops {
                match op {
                    0..=5 => {
                        q.push(job);
                        oracle.push_back(job);
                    }
                    6 => prop_assert_eq!(q.pop(), oracle.pop_front()),
                    7 => {
                        let popped = q.pop_newest_words(&mut words).then(|| Job::unpack(&words));
                        prop_assert_eq!(popped, oracle.pop_back());
                    }
                    8 | 9 => {
                        let (popped, want) = if op == 8 {
                            (q.pop_words(&mut words), oracle.pop_front())
                        } else {
                            (q.pop_newest_words(&mut words), oracle.pop_back())
                        };
                        prop_assert_eq!(popped, want.is_some());
                        if let Some(want) = want {
                            assert_view_reads(&words, &want);
                            assert_follow_up_packs_as_extended(&words, &want);
                        }
                    }
                    10 => prop_assert_eq!(q.discard(), oracle.pop_front().is_some()),
                    _ => prop_assert_eq!(q.discard_newest(), oracle.pop_back().is_some()),
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            prop_assert_eq!(q.iter().collect::<VecDeque<_>>(), oracle.clone());

            if let Some(job) = oracle.back() {
                let mut exact = Vec::new();
                job.pack(&mut exact);
                let mut long = exact.clone();
                long.push(0);
                for bad in [&exact[..exact.len() - 1], &long[..]] {
                    prop_assert!(std::panic::catch_unwind(|| JobView::new(bad)).is_err());
                    prop_assert!(std::panic::catch_unwind(|| Job::unpack(bad)).is_err());
                }
            }

            let mut w = SectionWriter::new();
            q.save_jobs(&mut w, |w, job| {
                let mut words = Vec::new();
                job.pack(&mut words);
                w.put_usize(words.len());
                words.into_iter().for_each(|x| w.put_u64(x));
            });
            let bytes = w.into_bytes();
            let mut restored = JobQueue::with_batch_capacity(batch_capacity);
            restored
                .load_jobs(&mut SectionReader::new(&bytes), |r| {
                    let n = r.get_usize()?;
                    let words = (0..n).map(|_| r.get_u64()).collect::<Result<Vec<_>, _>>()?;
                    Ok(Job::unpack(&words))
                })
                .unwrap();
            prop_assert_eq!(restored.iter().collect::<VecDeque<_>>(), oracle.clone());
            while let Some(want) = oracle.pop_front() {
                prop_assert_eq!(q.pop(), Some(want));
                prop_assert_eq!(restored.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert!(!restored.pop_newest_words(&mut words));
            prop_assert!(!q.pop_words(&mut words) && !q.discard_newest());
        }
    }

    #[test]
    fn follow_up_packs_as_the_extended_job() {
        let base = Tuple::new(
            TupleId(1),
            StreamId(2),
            VirtualTime::from_secs(8),
            AttrVec::from_slice(&[1, 2, 3]).unwrap(),
        );
        let parent = Job {
            pt: PartialTuple::from_base(&base),
            origin_ts: base.ts,
            enqueued: VirtualTime::from_secs(9),
        };
        let matched = Tuple::new(
            TupleId(2),
            StreamId(0),
            VirtualTime::from_secs(5),
            AttrVec::from_slice(&[4, 5, 6]).unwrap(),
        );
        let enqueued = VirtualTime::from_secs(10);
        let mut q = JobQueue::new();
        q.push(parent);
        let mut words = Vec::new();
        assert!(q.pop_words(&mut words));
        q.push_packed(&FollowUp {
            parent: &JobView::new(&words),
            stream: matched.stream,
            ts: matched.ts,
            attrs: &matched.attrs,
            enqueued,
        });
        let want = Job {
            pt: parent.pt.extend(matched.stream, matched.attrs, matched.ts),
            origin_ts: parent.origin_ts,
            enqueued,
        };
        assert_eq!(q.pop(), Some(want));
    }

    /// The point of the packed backlog: a queued job of the §V shape (4
    /// streams × 3 attributes, 1–3 of them covered) holds no more heap
    /// than the memory model charges for it, where the `Job` struct a
    /// `VecDeque` would store is more than three times that charge.
    #[test]
    fn a_queued_job_costs_no_more_than_the_model_charges() {
        let charged = layout::queued_request_bytes(4, 3) as usize;
        assert!(std::mem::size_of::<Job>() > 3 * charged);
        let attrs = AttrVec::from_slice(&[7, 8, 9]).unwrap();
        let mut q = JobQueue::new();
        for i in 0..10_000u64 {
            let covered = StreamMask(match i % 3 {
                0 => 0b0001,
                1 => 0b0101,
                _ => 0b1101,
            });
            let parts = covered.streams().map(|_| attrs);
            q.push(Job {
                pt: PartialTuple::from_parts(covered, VirtualTime(i), parts),
                origin_ts: VirtualTime(i),
                enqueued: VirtualTime(i),
            });
        }
        let per_job = q.heap_bytes().div_ceil(q.len());
        assert!(
            per_job <= charged,
            "{per_job} B per queued job > {charged} B charged"
        );
    }
}
