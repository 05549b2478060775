//! Graceful degradation under overload: load shedding and memory-pressure
//! eviction.
//!
//! The paper's evaluation (§V) treats a memory-budget breach as death.
//! Real adaptive multi-route deployments degrade instead: when utilization
//! crosses a high-water mark the engine sheds backlog and evicts the
//! oldest state tuples (trading join recall for survival) until it is back
//! under a low-water mark, and only reports `OutOfMemory` when even a
//! fully drained engine cannot fit. A run that shed or evicted anything
//! finishes as [`RunOutcome::Degraded`](crate::RunOutcome), carrying the
//! counters and the first-degradation instant.
//!
//! Everything here is strictly pay-for-what-you-use: a run without a
//! [`DegradationPolicy`] takes one `Option` check per grid point and per
//! enqueue, and its behavior is byte-identical to the pre-governor engine
//! (the pipeline-equivalence suite pins this).

use crate::error::EngineError;
use crate::memory::MemoryReport;
use crate::runtime::context::Job;
use amri_stream::coin::{coin, GOLDEN};
use amri_stream::{JobQueue, Pack, VirtualTime};
use serde::{Deserialize, Serialize};

/// Tuples evicted per eviction round before the memory report is
/// recomputed. Small enough to stop near the low-water mark, large enough
/// that a deep purge does not recompute per tuple.
const EVICT_CHUNK: usize = 32;

/// How the governor sheds backlog once the queue cap is hit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SheddingPolicy {
    /// Drop the oldest queued job (favors fresh data; bounded staleness).
    DropOldest,
    /// Drop the incoming job (favors in-flight work; admission control).
    DropNewest,
    /// Drop the incoming job with probability `drop_prob`, else the
    /// oldest — a seeded, deterministic mix of the two.
    Probabilistic {
        /// Probability the *incoming* job is the one dropped.
        drop_prob: f64,
    },
}

/// The overload-governor configuration carried by a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// Budget utilization fraction above which eviction starts.
    pub high_water: f64,
    /// Utilization fraction eviction drives back down to.
    pub low_water: f64,
    /// Maximum queued routing jobs before shedding kicks in.
    pub max_backlog: usize,
    /// Which end of the queue shedding removes.
    pub shedding: SheddingPolicy,
    /// Seed for the probabilistic shedding coin (deterministic replay).
    pub seed: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            high_water: 0.9,
            low_water: 0.7,
            max_backlog: 4096,
            shedding: SheddingPolicy::DropOldest,
            seed: 0xDE64,
        }
    }
}

impl DegradationPolicy {
    /// Validate the knobs.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), EngineError> {
        let frac = |name: &str, v: f64| {
            if !(0.0..=1.0).contains(&v) {
                Err(EngineError::InvalidConfig(format!(
                    "degradation {name} = {v} must lie in [0, 1]"
                )))
            } else {
                Ok(())
            }
        };
        frac("high_water", self.high_water)?;
        frac("low_water", self.low_water)?;
        if self.low_water > self.high_water {
            return Err(EngineError::InvalidConfig(format!(
                "degradation low_water {} exceeds high_water {}",
                self.low_water, self.high_water
            )));
        }
        if self.max_backlog == 0 {
            return Err(EngineError::InvalidConfig(
                "degradation max_backlog must be positive".into(),
            ));
        }
        if let SheddingPolicy::Probabilistic { drop_prob } = self.shedding {
            frac("shedding drop_prob", drop_prob)?;
        }
        Ok(())
    }
}

/// One per-grid-point snapshot of the cumulative degradation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationSample {
    /// Grid instant.
    pub t: VirtualTime,
    /// Jobs shed so far (cumulative).
    pub shed_jobs: u64,
    /// Tuples evicted so far (cumulative).
    pub evicted_tuples: u64,
}

/// What degradation a run experienced — all zeros/empty when no
/// [`DegradationPolicy`] was set or it never engaged.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradationReport {
    /// First instant any load was shed or state evicted.
    pub first_at: Option<VirtualTime>,
    /// Total routing jobs dropped from the backlog.
    pub shed_jobs: u64,
    /// Total live tuples forcibly evicted from states.
    pub evicted_tuples: u64,
    /// Tuples lost to unrecoverable spill-block corruption (the block was
    /// already evicted from RAM when its checksum failed twice).
    #[serde(default)]
    pub lost_tuples: u64,
    /// Cumulative counters sampled at every grid point (present only when
    /// a policy was configured; monotone by construction).
    pub samples: Vec<DegradationSample>,
}

impl DegradationReport {
    /// True iff the run shed, evicted or lost anything.
    pub fn degraded(&self) -> bool {
        self.shed_jobs > 0 || self.evicted_tuples > 0 || self.lost_tuples > 0
    }
}

/// Runtime state of the overload governor (policy + counters + coin).
#[derive(Debug, Clone)]
pub struct Governor {
    policy: DegradationPolicy,
    /// Splitmix-style state for the probabilistic shedding coin.
    rng: u64,
    /// Cumulative counters and per-grid samples.
    pub report: DegradationReport,
}

impl Governor {
    /// A governor enforcing `policy`.
    pub fn new(policy: DegradationPolicy) -> Self {
        Governor {
            rng: policy.seed ^ GOLDEN,
            policy,
            report: DegradationReport::default(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &DegradationPolicy {
        &self.policy
    }

    fn note_degraded(&mut self, now: VirtualTime) {
        if self.report.first_at.is_none() {
            self.report.first_at = Some(now);
        }
    }

    /// Admit `job` to the backlog, shedding per policy if the queue is at
    /// its cap. The queue never exceeds `max_backlog` through this path.
    pub fn admit(&mut self, backlog: &mut JobQueue<Job>, job: &impl Pack<Job>, now: VirtualTime) {
        if backlog.len() < self.policy.max_backlog {
            backlog.push_packed(job);
            return;
        }
        let drop_incoming = match self.policy.shedding {
            SheddingPolicy::DropOldest => false,
            SheddingPolicy::DropNewest => true,
            SheddingPolicy::Probabilistic { drop_prob } => coin(&mut self.rng) < drop_prob,
        };
        self.report.shed_jobs += 1;
        self.note_degraded(now);
        if !drop_incoming {
            backlog.discard();
            backlog.push_packed(job);
        }
    }

    /// Shed the backlog down to the cap (covers jobs enqueued before the
    /// governor engaged, e.g. when a policy is attached mid-run).
    pub fn bound_backlog(&mut self, backlog: &mut JobQueue<Job>, now: VirtualTime) {
        while backlog.len() > self.policy.max_backlog {
            // Shed jobs are dropped where they lie, never decoded.
            let dropped = match self.policy.shedding {
                SheddingPolicy::DropOldest => backlog.discard(),
                SheddingPolicy::DropNewest => backlog.discard_newest(),
                SheddingPolicy::Probabilistic { drop_prob } => {
                    if coin(&mut self.rng) < drop_prob {
                        backlog.discard_newest()
                    } else {
                        backlog.discard()
                    }
                }
            };
            debug_assert!(dropped, "len > cap ≥ 1 implies non-empty");
            self.report.shed_jobs += 1;
            self.note_degraded(now);
        }
    }

    /// Eviction target entry check: is `report` above the high-water mark?
    pub fn over_high_water(&self, report: &MemoryReport, budget_bytes: u64) -> bool {
        report.total() > water_bytes(budget_bytes, self.policy.high_water)
    }

    /// Bytes the eviction loop drives utilization down to.
    pub fn low_water_bytes(&self, budget_bytes: u64) -> u64 {
        water_bytes(budget_bytes, self.policy.low_water)
    }

    /// Record the per-grid-point cumulative counter sample.
    pub fn sample(&mut self, t: VirtualTime) {
        self.report.samples.push(DegradationSample {
            t,
            shed_jobs: self.report.shed_jobs,
            evicted_tuples: self.report.evicted_tuples,
        });
    }

    /// Account `n` evicted tuples at `now`.
    pub fn note_evicted(&mut self, n: usize, now: VirtualTime) {
        if n > 0 {
            self.report.evicted_tuples += n as u64;
            self.note_degraded(now);
        }
    }

    /// The per-round eviction chunk size.
    pub fn evict_chunk(&self) -> usize {
        EVICT_CHUNK
    }

    /// Serialize the mutable governor state (shedding coin + report). The
    /// policy is construction-time configuration and not captured.
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        w.put_str("GOVERNOR");
        w.put_u64(self.rng);
        match self.report.first_at {
            Some(t) => {
                w.put_bool(true);
                w.put_time(t);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.report.shed_jobs);
        w.put_u64(self.report.evicted_tuples);
        w.put_usize(self.report.samples.len());
        for s in &self.report.samples {
            w.put_time(s.t);
            w.put_u64(s.shed_jobs);
            w.put_u64(s.evicted_tuples);
        }
    }

    /// Overwrite the mutable governor state from a [`save`](Self::save)d
    /// section; the restored coin continues the exact decision stream.
    ///
    /// # Errors
    /// [`SnapshotError`](amri_core::snapshot_io::SnapshotError) on decode
    /// failure.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        amri_core::snapshot_io::expect_tag(r, "GOVERNOR")?;
        self.rng = r.get_u64()?;
        self.report.first_at = if r.get_bool()? {
            Some(r.get_time()?)
        } else {
            None
        };
        self.report.shed_jobs = r.get_u64()?;
        self.report.evicted_tuples = r.get_u64()?;
        let n = r.get_count(3 * 8, "governor sample count")?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(DegradationSample {
                t: r.get_time()?,
                shed_jobs: r.get_u64()?,
                evicted_tuples: r.get_u64()?,
            });
        }
        self.report.samples = samples;
        Ok(())
    }
}

/// `budget * fraction`, saturating (an unlimited budget stays unlimited).
pub(crate) fn water_bytes(budget_bytes: u64, fraction: f64) -> u64 {
    let scaled = budget_bytes as f64 * fraction;
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

/// Push a job through the governor if one is active, else straight into
/// the backlog — the single enqueue point shared by ingest and probe.
#[inline]
pub(crate) fn push_governed(
    governor: &mut Option<Governor>,
    backlog: &mut JobQueue<Job>,
    job: &impl Pack<Job>,
    now: VirtualTime,
) {
    match governor {
        Some(gov) => gov.admit(backlog, job, now),
        None => backlog.push_packed(job),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::{AttrVec, PartialTuple, StreamId, Tuple, TupleId};

    fn job(i: u64) -> Job {
        let t = Tuple::new(
            TupleId(i),
            StreamId(0),
            VirtualTime::from_secs(i),
            AttrVec::from_slice(&[i]).unwrap(),
        );
        Job {
            pt: PartialTuple::from_base(&t),
            origin_ts: t.ts,
            enqueued: t.ts,
        }
    }

    fn policy(shedding: SheddingPolicy, cap: usize) -> DegradationPolicy {
        DegradationPolicy {
            max_backlog: cap,
            shedding,
            ..DegradationPolicy::default()
        }
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        assert!(DegradationPolicy::default().validate().is_ok());
        let bad = DegradationPolicy {
            high_water: 1.5,
            ..DegradationPolicy::default()
        };
        assert!(matches!(bad.validate(), Err(EngineError::InvalidConfig(_))));
        let inverted = DegradationPolicy {
            high_water: 0.5,
            low_water: 0.8,
            ..DegradationPolicy::default()
        };
        assert!(inverted.validate().is_err());
        let zero_cap = policy(SheddingPolicy::DropOldest, 0);
        assert!(zero_cap.validate().is_err());
        let bad_coin = policy(SheddingPolicy::Probabilistic { drop_prob: -0.1 }, 8);
        assert!(bad_coin.validate().is_err());
    }

    #[test]
    fn lost_tuples_count_as_degradation() {
        let report = DegradationReport {
            lost_tuples: 3,
            ..DegradationReport::default()
        };
        assert!(report.degraded());
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_jobs() {
        let mut gov = Governor::new(policy(SheddingPolicy::DropOldest, 3));
        let mut q = JobQueue::new();
        for i in 0..5 {
            gov.admit(&mut q, &job(i), VirtualTime::from_secs(i));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(gov.report.shed_jobs, 2);
        assert_eq!(gov.report.first_at, Some(VirtualTime::from_secs(3)));
        let kept: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|j| j.origin_ts.0)
            .collect();
        assert_eq!(
            kept,
            vec![2, 3, 4]
                .into_iter()
                .map(|s: u64| s * 1_000_000)
                .collect::<Vec<_>>(),
            "oldest two shed"
        );
    }

    #[test]
    fn drop_newest_refuses_arrivals_at_cap() {
        let mut gov = Governor::new(policy(SheddingPolicy::DropNewest, 3));
        let mut q = JobQueue::new();
        for i in 0..5 {
            gov.admit(&mut q, &job(i), VirtualTime::from_secs(i));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(gov.report.shed_jobs, 2);
        let kept: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|j| j.origin_ts.0 / 1_000_000)
            .collect();
        assert_eq!(kept, vec![0, 1, 2], "incoming two refused");
    }

    #[test]
    fn probabilistic_shedding_is_deterministic_and_bounded() {
        let run = || {
            let mut gov =
                Governor::new(policy(SheddingPolicy::Probabilistic { drop_prob: 0.5 }, 4));
            let mut q = JobQueue::new();
            for i in 0..50 {
                gov.admit(&mut q, &job(i), VirtualTime::from_secs(i));
            }
            let kept: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|j| j.origin_ts.0 / 1_000_000)
                .collect();
            (kept, gov.report.shed_jobs)
        };
        let (kept_a, shed_a) = run();
        let (kept_b, shed_b) = run();
        assert_eq!(kept_a, kept_b, "same seed, same survivors");
        assert_eq!(shed_a, shed_b);
        assert_eq!(kept_a.len(), 4, "cap holds");
        assert_eq!(shed_a, 46);
        // With p = 0.5 over 46 sheds, both ends must have been hit.
        assert!(kept_a.iter().any(|&s| s > 4), "some old jobs survived");
    }

    #[test]
    fn bound_backlog_drains_pre_existing_excess() {
        let mut gov = Governor::new(policy(SheddingPolicy::DropNewest, 2));
        let mut q = JobQueue::new();
        for i in 0..6 {
            q.push(job(i)); // bypass the governor
        }
        gov.bound_backlog(&mut q, VirtualTime::from_secs(9));
        assert_eq!(q.len(), 2);
        assert_eq!(gov.report.shed_jobs, 4);
        let kept: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|j| j.origin_ts.0 / 1_000_000)
            .collect();
        assert_eq!(kept, vec![0, 1], "drop-newest sheds from the back");
    }

    #[test]
    fn water_marks_saturate_on_unlimited_budgets() {
        let gov = Governor::new(DegradationPolicy::default());
        // A fraction of an unlimited budget is still practically
        // unlimited (and the f64 → u64 cast saturates rather than wraps).
        assert!(gov.low_water_bytes(u64::MAX) > u64::MAX / 2);
        let report = MemoryReport {
            states: u64::MAX / 2,
            backlog: 0,
            phantom: 0,
            ..MemoryReport::default()
        };
        assert!(!gov.over_high_water(&report, u64::MAX));
        assert!(gov.over_high_water(
            &MemoryReport {
                states: 95,
                backlog: 0,
                phantom: 0,
                ..MemoryReport::default()
            },
            100
        ));
    }

    /// An image claiming more samples than its bytes hold is `Malformed`,
    /// not an allocation abort.
    #[test]
    fn restore_refuses_a_sample_count_the_section_cannot_hold() {
        use amri_core::snapshot_io::{SectionReader, SectionWriter, SnapshotError};
        let mut w = SectionWriter::new();
        w.put_str("GOVERNOR");
        w.put_u64(7);
        w.put_bool(false);
        w.put_u64(0);
        w.put_u64(0);
        w.put_usize(1 << 40);
        let image = w.into_bytes();
        let mut gov = Governor::new(DegradationPolicy::default());
        match gov.restore_from(&mut SectionReader::new(&image)) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("sample count"), "{why}"),
            other => panic!("expected Malformed(sample count), got {other:?}"),
        }
    }

    #[test]
    fn samples_are_monotone() {
        let mut gov = Governor::new(policy(SheddingPolicy::DropOldest, 1));
        let mut q = JobQueue::new();
        for i in 0..10 {
            gov.admit(&mut q, &job(i), VirtualTime::from_secs(i));
            gov.note_evicted((i % 2) as usize, VirtualTime::from_secs(i));
            gov.sample(VirtualTime::from_secs(i));
        }
        let s = &gov.report.samples;
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(
            |w| w[0].shed_jobs <= w[1].shed_jobs && w[0].evicted_tuples <= w[1].evicted_tuples
        ));
        assert!(gov.report.degraded());
    }
}
