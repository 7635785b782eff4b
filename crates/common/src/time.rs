//! Simulation time.
//!
//! The whole pipeline is discretised at the paper's sampling interval of
//! **80 µs** ([`STEP_MICROS`]); the DVFS controller acts once every **12**
//! steps ([`STEPS_PER_DECISION`]), i.e. every 960 µs ("around every 1 ms"
//! in the paper). [`SimTime`] is an integer count of microseconds so that
//! time comparisons are exact and never accumulate floating-point error.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Length of one telemetry/thermal sampling step, in microseconds.
///
/// The paper extracts one feature row "every 80 microseconds".
pub const STEP_MICROS: u64 = 80;

/// Number of sampling steps between two controller decisions.
///
/// `12 × 80 µs = 960 µs`, the paper's decision (and sensor-delay) interval.
pub const STEPS_PER_DECISION: u64 = 12;

/// Microseconds between two controller decisions (960).
pub const DECISION_MICROS: u64 = STEP_MICROS * STEPS_PER_DECISION;

/// A point in simulated time, stored as whole microseconds since the start
/// of the run.
///
/// # Examples
///
/// ```
/// use boreas_common::time::{SimTime, STEP_MICROS};
///
/// let mut t = SimTime::ZERO;
/// t = t.advance_steps(12);
/// assert_eq!(t.as_micros(), 12 * STEP_MICROS);
/// assert!(t.is_decision_boundary());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from a raw microsecond count.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros)
    }

    /// Creates a time from a whole number of 80 µs sampling steps.
    #[inline]
    pub const fn from_steps(steps: u64) -> Self {
        Self(steps * STEP_MICROS)
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time in (fractional) milliseconds, for plotting and reports.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Index of the sampling step this time falls in.
    #[inline]
    pub const fn step_index(self) -> u64 {
        self.0 / STEP_MICROS
    }

    /// Returns the time advanced by `steps` sampling steps.
    #[must_use]
    #[inline]
    pub const fn advance_steps(self, steps: u64) -> Self {
        Self(self.0 + steps * STEP_MICROS)
    }

    /// `true` when this time lies exactly on a controller-decision boundary
    /// (a multiple of 960 µs).
    #[inline]
    pub const fn is_decision_boundary(self) -> bool {
        self.0.is_multiple_of(DECISION_MICROS)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.as_millis_f64())
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (u64 underflow).
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_interval_is_960_micros() {
        assert_eq!(DECISION_MICROS, 960);
    }

    #[test]
    fn step_indexing() {
        assert_eq!(SimTime::from_micros(0).step_index(), 0);
        assert_eq!(SimTime::from_micros(79).step_index(), 0);
        assert_eq!(SimTime::from_micros(80).step_index(), 1);
        assert_eq!(SimTime::from_steps(150).as_micros(), 12_000);
    }

    #[test]
    fn decision_boundaries() {
        assert!(SimTime::ZERO.is_decision_boundary());
        assert!(SimTime::from_steps(12).is_decision_boundary());
        assert!(!SimTime::from_steps(11).is_decision_boundary());
        assert!(SimTime::from_steps(24).is_decision_boundary());
    }

    #[test]
    fn arithmetic_and_display() {
        let a = SimTime::from_micros(1_500);
        let b = SimTime::from_micros(500);
        assert_eq!((a - b).as_micros(), 1_000);
        assert_eq!((a + b).as_micros(), 2_000);
        assert_eq!(format!("{a}"), "1.500 ms");
    }

    #[test]
    fn conversions() {
        let t = SimTime::from_micros(2_400_000);
        assert_eq!(t.as_secs_f64(), 2.4);
        assert_eq!(t.as_millis_f64(), 2_400.0);
    }
}
