//! Deterministic virtual time.
//!
//! The AMRI paper measures *cumulative throughput over minutes of execution*
//! on a single-core CAPE engine. We reproduce that with a virtual clock: the
//! executor charges every operation a cost in **ticks** and advances the
//! clock by exactly that amount. One tick models one microsecond of CPU on
//! the paper's reference machine, so `TICKS_PER_SEC = 1_000_000`.
//!
//! All ordering comparisons, window expirations and sampling intervals are
//! derived from this clock — the simulation is bit-for-bit reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of ticks in one virtual second (1 tick ≙ 1 µs of modeled CPU).
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// An instant on the virtual timeline, in ticks since the run started.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtualTime(pub u64);

/// A span of virtual time, in ticks.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtualDuration(pub u64);

impl VirtualTime {
    /// The origin of the timeline.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Construct from whole virtual seconds.
    #[inline]
    pub fn from_secs(secs: u64) -> Self {
        VirtualTime(secs * TICKS_PER_SEC)
    }

    /// Construct from whole virtual minutes.
    #[inline]
    pub fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// This instant expressed in (possibly fractional) virtual seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// This instant expressed in (possibly fractional) virtual minutes.
    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }
}

impl VirtualDuration {
    /// The zero-length duration.
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    /// Construct from whole virtual seconds.
    #[inline]
    pub fn from_secs(secs: u64) -> Self {
        VirtualDuration(secs * TICKS_PER_SEC)
    }

    /// Construct from whole virtual minutes.
    #[inline]
    pub fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Construct from (possibly fractional) virtual seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or non-finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        VirtualDuration((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// The duration in (possibly fractional) virtual seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True iff this duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn sub(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = VirtualDuration;
    #[inline]
    fn sub(self, rhs: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualDuration {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl SubAssign for VirtualDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: VirtualDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn mul(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 * rhs)
    }
}

impl Div<u64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn div(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 / rhs)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A source of "now" the runtime advances explicitly.
///
/// The engine's step loop is written against this trait, and
/// [`VirtualClock`] *is* the simulation: it advances by exactly the ticks
/// each cost receipt charges, so a run is bit-for-bit reproducible. The
/// seam exists so a test can substitute a fake: the engine's `SkewedClock`
/// wraps a clock to inject clock-skew faults.
pub trait Clock {
    /// Current instant.
    fn now(&self) -> VirtualTime;

    /// Charge `d` of modeled work and return the new instant.
    fn advance(&mut self, d: VirtualDuration) -> VirtualTime;

    /// Jump forward to `t`; never moves backwards.
    fn advance_to(&mut self, t: VirtualTime);
}

/// The single source of "now" for a simulation run.
///
/// Only the executor advances the clock; every other component reads it.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: VirtualTime,
}

impl VirtualClock {
    /// A clock at the origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual instant.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Advance the clock by `d` and return the new instant.
    #[inline]
    pub fn advance(&mut self, d: VirtualDuration) -> VirtualTime {
        self.now += d;
        self.now
    }

    /// Jump the clock forward to `t` (no-op if `t` is in the past — the
    /// clock never goes backwards).
    #[inline]
    pub fn advance_to(&mut self, t: VirtualTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now(&self) -> VirtualTime {
        VirtualClock::now(self)
    }

    #[inline]
    fn advance(&mut self, d: VirtualDuration) -> VirtualTime {
        VirtualClock::advance(self, d)
    }

    #[inline]
    fn advance_to(&mut self, t: VirtualTime) {
        VirtualClock::advance_to(self, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(VirtualTime::from_secs(2).0, 2 * TICKS_PER_SEC);
        assert_eq!(VirtualTime::from_mins(3), VirtualTime::from_secs(180));
        assert_eq!(
            VirtualDuration::from_mins(1),
            VirtualDuration::from_secs(60)
        );
        assert!((VirtualTime::from_secs(90).as_mins_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = VirtualTime::from_secs(10);
        let d = VirtualDuration::from_secs(4);
        assert_eq!(t + d, VirtualTime::from_secs(14));
        assert_eq!(t - d, VirtualTime::from_secs(6));
        assert_eq!(t - VirtualTime::from_secs(4), VirtualDuration::from_secs(6));
        assert_eq!(d * 3, VirtualDuration::from_secs(12));
        assert_eq!((d * 3) / 4, VirtualDuration::from_secs(3));
    }

    #[test]
    fn subtraction_saturates() {
        let early = VirtualTime::from_secs(1);
        let late = VirtualTime::from_secs(5);
        assert_eq!(early - late, VirtualDuration::ZERO);
        assert_eq!(early.since(late), VirtualDuration::ZERO);
        assert_eq!(late.since(early), VirtualDuration::from_secs(4));
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), VirtualTime::ZERO);
        c.advance(VirtualDuration::from_secs(2));
        c.advance_to(VirtualTime::from_secs(1)); // must not go backwards
        assert_eq!(c.now(), VirtualTime::from_secs(2));
        c.advance_to(VirtualTime::from_secs(7));
        assert_eq!(c.now(), VirtualTime::from_secs(7));
    }

    #[test]
    fn virtual_clock_implements_the_clock_trait() {
        fn drive(c: &mut dyn Clock) -> VirtualTime {
            c.advance(VirtualDuration::from_secs(3));
            c.advance_to(VirtualTime::from_secs(2)); // never backwards
            c.now()
        }
        let mut c = VirtualClock::new();
        assert_eq!(drive(&mut c), VirtualTime::from_secs(3));
    }

    #[test]
    fn fractional_seconds() {
        let d = VirtualDuration::from_secs_f64(0.5);
        assert_eq!(d.0, TICKS_PER_SEC / 2);
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-12);
        assert!(!d.is_zero());
        assert!(VirtualDuration::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = VirtualDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtualTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(VirtualDuration::from_secs_f64(0.25).to_string(), "0.250s");
    }
}
