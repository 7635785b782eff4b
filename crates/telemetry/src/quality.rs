//! Telemetry plausibility checks.
//!
//! A telemetry-driven controller is only as good as its inputs: a stuck
//! sensor, a dropped sample or a corrupted counter block silently turns a
//! careful policy into a random one. This module defines *what counts as
//! a plausible observation* — physically bounded temperatures, bounded
//! rate of change between consecutive samples, sane counters — so the
//! control layer (`boreas_core::ResilientController`) can decide *what to
//! do* when observations stop being plausible.
//!
//! The checks are deliberately cheap (a handful of comparisons per 80 µs
//! record) so they can run inside the 960 µs decision loop.

use perfsim::{CounterId, IntervalCounters};

/// Lowest believable sensor temperature, °C (below even a chilled
/// ambient).
pub const TEMP_MIN_C: f64 = 0.0;

/// Highest believable sensor temperature, °C (well above any survivable
/// junction temperature).
pub const TEMP_MAX_C: f64 = 130.0;

/// Largest believable change of one sensor between two consecutive
/// 80 µs samples, °C. Even an advanced hotspot moves the die a fraction
/// of a degree per step; a larger jump is a glitch.
pub const MAX_STEP_DELTA_C: f64 = 4.0;

/// Smallest believable `total_cycles` for an 80 µs interval (a live core
/// at 2 GHz retires 160 k cycles; an all-zero counter block is a dropped
/// telemetry packet, not an idle core).
pub const MIN_CYCLES: f64 = 1.0;

/// `true` when a single sensor reading is believable: inside
/// [`TEMP_MIN_C`]..=[`TEMP_MAX_C`] (so not NaN or infinite), and (when a
/// previous accepted reading for the same sensor is known) within
/// [`MAX_STEP_DELTA_C`] of it.
pub fn reading_plausible(prev_c: Option<f64>, value_c: f64) -> bool {
    if !(TEMP_MIN_C..=TEMP_MAX_C).contains(&value_c) {
        return false;
    }
    match prev_c {
        Some(p) => (value_c - p).abs() <= MAX_STEP_DELTA_C,
        None => true,
    }
}

/// `true` when an interval's counter block is believable: every counter
/// finite and non-negative, and at least [`MIN_CYCLES`] cycles, as from
/// a core that actually ran.
pub fn counters_plausible(counters: &IntervalCounters) -> bool {
    counters.is_sane() && counters.get(CounterId::TotalCycles) >= MIN_CYCLES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_accepts_ordinary_telemetry() {
        for t in [55.0, 61.25, 58.5] {
            assert!(reading_plausible(None, t));
        }
        assert!(reading_plausible(Some(55.0), 58.5));
        let mut c = IntervalCounters::zeroed();
        c.set(CounterId::TotalCycles, 300_000.0);
        assert!(counters_plausible(&c));
    }

    #[test]
    fn rejects_non_finite_and_out_of_range_readings() {
        assert!(!reading_plausible(None, f64::NAN));
        assert!(!reading_plausible(None, f64::INFINITY));
        assert!(!reading_plausible(None, -40.0));
        assert!(!reading_plausible(None, 400.0));
        assert!(reading_plausible(None, 85.0));
    }

    #[test]
    fn rate_of_change_bound_applies_only_with_history() {
        assert!(reading_plausible(None, 95.0));
        assert!(reading_plausible(Some(93.0), 95.0));
        assert!(
            !reading_plausible(Some(70.0), 95.0),
            "25 C in 80 us is a glitch"
        );
        assert!(
            !reading_plausible(Some(95.0), 70.0),
            "downward glitches count too"
        );
    }

    #[test]
    fn zeroed_counters_are_implausible() {
        assert!(!counters_plausible(&IntervalCounters::zeroed()));
        let mut c = IntervalCounters::zeroed();
        c.set(CounterId::TotalCycles, 160_000.0);
        assert!(counters_plausible(&c));
        c.set(CounterId::BusyCycles, f64::NAN);
        assert!(!counters_plausible(&c));
    }
}
