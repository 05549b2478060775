//! Deterministic fault injection between the workload and ingest.
//!
//! A [`FaultPlan`] perturbs the arrival stream the way a misbehaving
//! source or transport would — dropping, duplicating, delaying and
//! reordering tuples — plus an allocation-pressure fault that inflates
//! the memory report inside chosen windows to force budget crossings at
//! chosen instants. Every decision comes from one seeded splitmix64
//! stream, so two runs with the same plan perturb identically: fault
//! experiments replay bit-for-bit (pinned by `tests/fault_injection.rs`).
//!
//! Clock-skew faults live in
//! [`SkewedClock`](crate::runtime::SkewedClock) — a [`Clock`] wrapper —
//! because skew is a property of the time source, not of the tuple
//! stream.
//!
//! Fault application sites (ordering matters for determinism):
//! * drop/duplicate/late are decided **after** the workload generates the
//!   tuple's attributes, so the workload's own RNG stream is identical
//!   with and without a plan;
//! * late arrivals are released **after** the regular arrivals of an
//!   ingest step and stamped with the release instant, keeping window
//!   pushes monotone;
//! * reordering is applied at the backlog (the probe step pops the
//!   newest job instead of the oldest with probability `reorder_prob`).

use crate::error::EngineError;
use amri_core::IoFaultConfig;
use amri_stream::{AttrVec, Clock, StreamSchema, VirtualDuration, VirtualTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A window of injected allocation pressure: `bytes` phantom bytes are
/// added to every memory report taken in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureWindow {
    /// First instant the pressure applies.
    pub from: VirtualTime,
    /// First instant it no longer applies.
    pub until: VirtualTime,
    /// Phantom bytes charged while active.
    pub bytes: u64,
}

/// A seeded, deterministic plan of arrival-stream faults.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every fault decision (same seed → identical perturbation).
    pub seed: u64,
    /// Probability an arriving tuple is silently dropped.
    pub drop_prob: f64,
    /// Probability an arriving tuple is delivered twice.
    pub duplicate_prob: f64,
    /// Probability the probe step services the newest backlog job
    /// instead of the oldest.
    pub reorder_prob: f64,
    /// Probability an arriving tuple is held back and re-delivered late.
    pub late_prob: f64,
    /// How long a late tuple is held before re-delivery.
    pub late_by: VirtualDuration,
    /// Injected allocation-pressure windows.
    pub pressure: Vec<PressureWindow>,
    /// Disk-layer faults against the spill tier's block store (torn
    /// writes, read errors, latency spikes). Drawn from the tier's own
    /// seeded stream, independent of the arrival-fate coins.
    #[serde(default)]
    pub io: IoFaultConfig,
}

impl FaultPlan {
    /// Validate the knobs.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), EngineError> {
        let frac = |name: &str, v: f64| {
            if !(0.0..=1.0).contains(&v) {
                Err(EngineError::InvalidConfig(format!(
                    "fault plan {name} = {v} must lie in [0, 1]"
                )))
            } else {
                Ok(())
            }
        };
        frac("drop_prob", self.drop_prob)?;
        frac("duplicate_prob", self.duplicate_prob)?;
        frac("reorder_prob", self.reorder_prob)?;
        frac("late_prob", self.late_prob)?;
        for (i, w) in self.pressure.iter().enumerate() {
            if w.until < w.from {
                return Err(EngineError::InvalidConfig(format!(
                    "fault plan pressure window {i} ends at {:?} before it starts at {:?}",
                    w.until, w.from
                )));
            }
        }
        self.io.validate().map_err(EngineError::InvalidConfig)?;
        Ok(())
    }

    /// True iff the plan perturbs anything at all.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
            && self.late_prob == 0.0
            && self.pressure.is_empty()
            && self.io.is_noop()
    }
}

/// What a fault plan did to a run — all zeros when no plan was set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Arrivals silently dropped.
    pub dropped: u64,
    /// Arrivals delivered twice.
    pub duplicated: u64,
    /// Arrivals held back and re-delivered late.
    pub delayed: u64,
    /// Backlog pops diverted to the newest job.
    pub reordered: u64,
}

impl FaultReport {
    /// Total injected fault events.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.reordered
    }
}

/// How a torn snapshot write corrupts the file image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TornMode {
    /// The file is cut to half its length mid-write (power loss).
    Truncate,
    /// One byte in the middle of the file is bit-flipped (silent media
    /// corruption).
    FlipByte,
}

/// A fault injected at the durability layer rather than the arrival
/// stream, carried by the
/// [`Checkpointer`](crate::runtime::checkpoint::Checkpointer). Disk
/// faults against the spill tier are [`FaultPlan::io`]'s, and the tier's
/// own counters ([`SpillStats`](amri_core::SpillStats)) report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Kill the run when the pipeline's step counter reaches `step`
    /// (before the step executes), surfacing as
    /// [`EngineError::InjectedCrash`](crate::EngineError::InjectedCrash).
    CrashAt {
        /// The step at which the simulated process dies.
        step: u64,
    },
    /// Corrupt the `snapshot`-th snapshot file (0-based write order) as
    /// it is written, the way a crash mid-write or failing media would.
    TornWrite {
        /// Which snapshot write (0-based) is corrupted.
        snapshot: u64,
        /// How the bytes are damaged.
        mode: TornMode,
    },
}

/// The fate of one arriving tuple, decided after its attributes exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalFate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Held back; re-delivered `late_by` later.
    Late,
}

/// Runtime state of an active fault plan: the decision stream, the
/// held-back arrivals and the event counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: u64,
    /// Held-back arrivals per stream, front = earliest release.
    pending: Vec<VecDeque<(VirtualTime, AttrVec)>>,
    /// Cumulative fault-event counters.
    pub report: FaultReport,
}

impl FaultState {
    /// Arm `plan` for a run over `n_streams` streams.
    pub fn new(plan: FaultPlan, n_streams: usize) -> Self {
        FaultState {
            rng: plan.seed ^ 0xFA17_FA17_FA17_FA17,
            pending: vec![VecDeque::new(); n_streams],
            plan,
            report: FaultReport::default(),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Next coin in [0, 1) — deterministic splitmix64.
    fn coin(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide an arriving tuple's fate. Exactly three coins are drawn per
    /// call regardless of outcome, so the decision stream stays aligned
    /// across plans that differ only in probabilities.
    pub fn arrival_fate(&mut self) -> ArrivalFate {
        let (drop, dup, late) = (self.coin(), self.coin(), self.coin());
        if drop < self.plan.drop_prob {
            self.report.dropped += 1;
            ArrivalFate::Drop
        } else if dup < self.plan.duplicate_prob {
            self.report.duplicated += 1;
            ArrivalFate::Duplicate
        } else if late < self.plan.late_prob {
            self.report.delayed += 1;
            ArrivalFate::Late
        } else {
            ArrivalFate::Deliver
        }
    }

    /// Hold back a late arrival for `stream`; it becomes due `late_by`
    /// after `ts`.
    pub fn defer(&mut self, stream: usize, ts: VirtualTime, attrs: AttrVec) {
        let release_at = ts + self.plan.late_by;
        self.pending[stream].push_back((release_at, attrs));
    }

    /// Release the next held-back arrival of `stream` that is due at
    /// `now`, if any. Arrivals are deferred in timestamp order with a
    /// fixed delay, so the front of the queue is always the earliest due.
    pub fn release_due(&mut self, stream: usize, now: VirtualTime) -> Option<AttrVec> {
        let q = &mut self.pending[stream];
        if q.front().is_some_and(|(at, _)| *at <= now) {
            q.pop_front().map(|(_, attrs)| attrs)
        } else {
            None
        }
    }

    /// Held-back arrivals not yet released (all streams).
    pub fn pending_len(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Should the probe step service the newest backlog job instead
    /// of the oldest? Draws one coin per probe step.
    pub fn reorder_next(&mut self) -> bool {
        let reorder = self.coin() < self.plan.reorder_prob;
        if reorder {
            self.report.reordered += 1;
        }
        reorder
    }

    /// Serialize the mutable fault state (decision stream, held-back
    /// arrivals, counters). The plan is construction-time configuration
    /// and not captured.
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        w.put_str("FAULT");
        w.put_u64(self.rng);
        w.put_usize(self.pending.len());
        for q in &self.pending {
            w.put_usize(q.len());
            for (at, attrs) in q {
                w.put_time(*at);
                w.put_attrs(attrs);
            }
        }
        w.put_u64(self.report.dropped);
        w.put_u64(self.report.duplicated);
        w.put_u64(self.report.delayed);
        w.put_u64(self.report.reordered);
    }

    /// Overwrite the mutable fault state from a [`save`](Self::save)d
    /// section; the restored decision stream continues exactly. `schemas`
    /// are this run's streams, one per held-back queue.
    ///
    /// # Errors
    /// [`SnapshotError`](amri_core::snapshot_io::SnapshotError) on decode
    /// failure, a stream count that disagrees with this run, or a
    /// held-back arrival narrower than its stream's schema.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
        schemas: &[StreamSchema],
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        use amri_core::snapshot_io::SnapshotError;
        amri_core::snapshot_io::expect_tag(r, "FAULT")?;
        self.rng = r.get_u64()?;
        let n = r.get_usize()?;
        if n != self.pending.len() {
            return Err(SnapshotError::Malformed(format!(
                "fault state covers {n} streams, this run has {}",
                self.pending.len()
            )));
        }
        for (s, (q, schema)) in self.pending.iter_mut().zip(schemas).enumerate() {
            q.clear();
            let k = r.get_usize()?;
            for _ in 0..k {
                let at = r.get_time()?;
                let attrs = r.get_attrs()?;
                // Its release reads every JAS attribute of the stream.
                if attrs.len() < schema.arity() {
                    return Err(SnapshotError::Malformed(format!(
                        "held-back arrival of stream {s} has {} values, its schema {}",
                        attrs.len(),
                        schema.arity()
                    )));
                }
                q.push_back((at, attrs));
            }
        }
        self.report.dropped = r.get_u64()?;
        self.report.duplicated = r.get_u64()?;
        self.report.delayed = r.get_u64()?;
        self.report.reordered = r.get_u64()?;
        Ok(())
    }

    /// Phantom bytes injected at `now` by the active pressure windows.
    pub fn phantom_bytes(&self, now: VirtualTime) -> u64 {
        self.plan
            .pressure
            .iter()
            .filter(|w| w.from <= now && now < w.until)
            .map(|w| w.bytes)
            .fold(0u64, u64::saturating_add)
    }
}

/// A [`Clock`] whose reported time runs fast or slow by a fixed rate —
/// the clock-skew fault. Wraps any inner clock; every advance is scaled
/// by `rate` in parts-per-million fixed point, so a skewed virtual run
/// stays fully deterministic.
#[derive(Debug, Clone)]
pub struct SkewedClock<C: Clock> {
    inner: C,
    /// Advance scale in parts per million (1_000_000 = no skew).
    rate_ppm: u64,
}

impl<C: Clock> SkewedClock<C> {
    /// Wrap `inner`, scaling every advance by `rate_ppm` / 1e6.
    /// 1_100_000 runs 10% fast; 900_000 runs 10% slow.
    pub fn new(inner: C, rate_ppm: u64) -> Self {
        SkewedClock { inner, rate_ppm }
    }

    /// The wrapped clock.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Clock> Clock for SkewedClock<C> {
    fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    fn advance(&mut self, d: VirtualDuration) -> VirtualTime {
        let scaled = (d.0 as u128 * self.rate_ppm as u128 / 1_000_000) as u64;
        self.inner.advance(VirtualDuration(scaled))
    }

    fn advance_to(&mut self, t: VirtualTime) {
        // Skew applies to *work* (advance); absolute waits land exactly.
        self.inner.advance_to(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_stream::VirtualClock;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            reorder_prob: 0.3,
            late_prob: 0.1,
            late_by: VirtualDuration::from_secs(5),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        assert!(plan().validate().is_ok());
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::default().is_noop());
        assert!(!plan().is_noop());
        let bad = FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::default()
        };
        assert!(matches!(bad.validate(), Err(EngineError::InvalidConfig(_))));
        let inverted = FaultPlan {
            pressure: vec![PressureWindow {
                from: VirtualTime::from_secs(10),
                until: VirtualTime::from_secs(5),
                bytes: 1,
            }],
            ..FaultPlan::default()
        };
        assert!(inverted.validate().is_err());
        let bad_io = FaultPlan {
            io: IoFaultConfig {
                read_error_prob: -0.5,
                ..IoFaultConfig::default()
            },
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad_io.validate(),
            Err(EngineError::InvalidConfig(_))
        ));
        let io_only = FaultPlan {
            io: IoFaultConfig {
                torn_write_prob: 0.1,
                ..IoFaultConfig::default()
            },
            ..FaultPlan::default()
        };
        assert!(!io_only.is_noop());
    }

    #[test]
    fn fates_replay_identically_for_the_same_seed() {
        let run = || {
            let mut f = FaultState::new(plan(), 2);
            (0..200).map(|_| f.arrival_fate()).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains(&ArrivalFate::Drop));
        assert!(a.contains(&ArrivalFate::Duplicate));
        assert!(a.contains(&ArrivalFate::Late));
        assert!(a.contains(&ArrivalFate::Deliver));
        let mut f = FaultState::new(plan(), 2);
        for _ in 0..200 {
            f.arrival_fate();
        }
        assert_eq!(
            f.report.total(),
            f.report.dropped + f.report.duplicated + f.report.delayed
        );
    }

    #[test]
    fn deferred_arrivals_release_in_order_after_their_delay() {
        let mut f = FaultState::new(plan(), 2);
        let attrs = |v: u64| AttrVec::from_slice(&[v]).unwrap();
        f.defer(0, VirtualTime::from_secs(1), attrs(10));
        f.defer(0, VirtualTime::from_secs(2), attrs(20));
        f.defer(1, VirtualTime::from_secs(1), attrs(30));
        assert_eq!(f.pending_len(), 3);
        assert_eq!(f.release_due(0, VirtualTime::from_secs(5)), None);
        assert_eq!(f.release_due(0, VirtualTime::from_secs(6)), Some(attrs(10)));
        assert_eq!(f.release_due(0, VirtualTime::from_secs(6)), None);
        assert_eq!(f.release_due(0, VirtualTime::from_secs(7)), Some(attrs(20)));
        assert_eq!(f.release_due(1, VirtualTime::from_secs(6)), Some(attrs(30)));
        assert_eq!(f.pending_len(), 0);
    }

    #[test]
    fn pressure_windows_inject_phantom_bytes_only_while_active() {
        let p = FaultPlan {
            pressure: vec![
                PressureWindow {
                    from: VirtualTime::from_secs(10),
                    until: VirtualTime::from_secs(20),
                    bytes: 1_000,
                },
                PressureWindow {
                    from: VirtualTime::from_secs(15),
                    until: VirtualTime::from_secs(25),
                    bytes: 500,
                },
            ],
            ..FaultPlan::default()
        };
        let f = FaultState::new(p, 1);
        assert_eq!(f.phantom_bytes(VirtualTime::from_secs(5)), 0);
        assert_eq!(f.phantom_bytes(VirtualTime::from_secs(10)), 1_000);
        assert_eq!(f.phantom_bytes(VirtualTime::from_secs(17)), 1_500);
        assert_eq!(f.phantom_bytes(VirtualTime::from_secs(20)), 500);
        assert_eq!(f.phantom_bytes(VirtualTime::from_secs(25)), 0);
    }

    #[test]
    fn skewed_clock_scales_advances_but_not_absolute_waits() {
        let mut fast = SkewedClock::new(VirtualClock::new(), 1_500_000);
        fast.advance(VirtualDuration::from_secs(10));
        assert_eq!(fast.now(), VirtualTime::from_secs(15));
        fast.advance_to(VirtualTime::from_secs(40));
        assert_eq!(fast.now(), VirtualTime::from_secs(40));

        let mut slow = SkewedClock::new(VirtualClock::new(), 500_000);
        slow.advance(VirtualDuration::from_secs(10));
        assert_eq!(slow.now(), VirtualTime::from_secs(5));
        assert_eq!(slow.inner().now(), VirtualTime::from_secs(5));
    }
}
