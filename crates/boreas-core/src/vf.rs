//! The voltage/frequency operating-point table (Table I).
//!
//! The paper sweeps 2.0–5.0 GHz in 250 MHz steps; Table I gives voltages
//! at the 500 MHz points and the intermediate steps use linear
//! interpolation. 3.75 GHz is the *baseline*: the highest globally safe
//! frequency of Fig. 2, to which all performance numbers are normalised.

use common::units::{GigaHertz, Volts};
use common::{Error, Result};
use std::fmt;

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct VfPoint {
    /// Clock frequency.
    pub frequency: GigaHertz,
    /// Supply voltage at that frequency.
    pub voltage: Volts,
}

common::json_codec! { struct VfPoint { frequency, voltage } }

impl fmt::Display for VfPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} GHz @ {:.3} V",
            self.frequency.value(),
            self.voltage.value()
        )
    }
}

impl VfPoint {
    /// The paper's baseline operating point (3.75 GHz), safe for every
    /// workload in Fig. 2.
    pub fn baseline() -> VfPoint {
        VfTable::paper().points()[VfTable::BASELINE_INDEX]
    }

    /// The table point closest in frequency to `freq`.
    pub fn closest(freq: GigaHertz) -> VfPoint {
        let table = VfTable::paper();
        *table
            .points()
            .iter()
            .min_by(|a, b| {
                (a.frequency - freq)
                    .abs()
                    .partial_cmp(&(b.frequency - freq).abs())
                    .expect("finite")
            })
            .expect("table is non-empty")
    }
}

/// The ordered table of legal operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct VfTable {
    points: Vec<VfPoint>,
}

common::json_codec! { struct VfTable { points } }

impl VfTable {
    /// Index of the 3.75 GHz baseline in the paper table.
    pub const BASELINE_INDEX: usize = 7;

    /// Builds the paper's table: Table I anchors at 500 MHz steps with
    /// linearly interpolated voltages at the 250 MHz midpoints.
    pub fn paper() -> Self {
        let anchors: [(f64, f64); 7] = [
            (2.0, 0.64),
            (2.5, 0.71),
            (3.0, 0.77),
            (3.5, 0.87),
            (4.0, 0.98),
            (4.5, 1.15),
            (5.0, 1.4),
        ];
        let mut points = Vec::with_capacity(13);
        for pair in anchors.windows(2) {
            let (f0, v0) = pair[0];
            let (f1, v1) = pair[1];
            points.push(VfPoint {
                frequency: GigaHertz::new(f0),
                voltage: Volts::new(v0),
            });
            points.push(VfPoint {
                frequency: GigaHertz::new((f0 + f1) / 2.0),
                voltage: Volts::new((v0 + v1) / 2.0),
            });
        }
        let (fl, vl) = anchors[anchors.len() - 1];
        points.push(VfPoint {
            frequency: GigaHertz::new(fl),
            voltage: Volts::new(vl),
        });
        Self { points }
    }

    /// Builds a table from explicit points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the table is empty or not
    /// strictly ascending in frequency.
    pub fn new(points: Vec<VfPoint>) -> Result<Self> {
        if points.is_empty() {
            return Err(Error::invalid_config("vf_table", "table cannot be empty"));
        }
        for pair in points.windows(2) {
            if pair[1].frequency <= pair[0].frequency {
                return Err(Error::invalid_config(
                    "vf_table",
                    "frequencies must be strictly ascending",
                ));
            }
        }
        Ok(Self { points })
    }

    /// The operating points, ascending in frequency.
    pub fn points(&self) -> &[VfPoint] {
        &self.points
    }

    /// The operating points as `(frequency, voltage)` pairs, the form
    /// [`hotgauge::Pipeline::run_fixed_grid`] and
    /// [`telemetry::build_dataset`] take.
    pub fn pairs(&self) -> Vec<(GigaHertz, Volts)> {
        self.points
            .iter()
            .map(|p| (p.frequency, p.voltage))
            .collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the table has no points (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn point(&self, idx: usize) -> VfPoint {
        self.points[idx]
    }

    /// Index of the table point matching `freq` (within 1 MHz).
    pub fn index_of(&self, freq: GigaHertz) -> Option<usize> {
        self.points
            .iter()
            .position(|p| (p.frequency - freq).abs().value() < 1e-3)
    }

    /// Voltage for a table frequency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if `freq` is not in the table.
    pub fn voltage_for(&self, freq: GigaHertz) -> Result<Volts> {
        self.index_of(freq)
            .map(|i| self.points[i].voltage)
            .ok_or_else(|| Error::not_found("vf point", format!("{freq}")))
    }

    /// Index one step up, clamped to the top of the table.
    pub fn step_up(&self, idx: usize) -> usize {
        (idx + 1).min(self.points.len() - 1)
    }

    /// Index one step down, clamped to the bottom of the table.
    pub fn step_down(&self, idx: usize) -> usize {
        idx.saturating_sub(1)
    }

    /// Index of the highest frequency not exceeding `freq`, or 0.
    pub fn floor_index(&self, freq: GigaHertz) -> usize {
        let mut best = 0;
        for (i, p) in self.points.iter().enumerate() {
            if p.frequency <= freq {
                best = i;
            }
        }
        best
    }
}

impl Default for VfTable {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_matches_table_i() {
        let t = VfTable::paper();
        assert_eq!(t.len(), 13);
        let first = t.point(0);
        assert_eq!(first.frequency.value(), 2.0);
        assert_eq!(first.voltage.value(), 0.64);
        let last = t.point(12);
        assert_eq!(last.frequency.value(), 5.0);
        assert_eq!(last.voltage.value(), 1.4);
        // Anchors from Table I.
        for (f, v) in [
            (2.5, 0.71),
            (3.0, 0.77),
            (3.5, 0.87),
            (4.0, 0.98),
            (4.5, 1.15),
        ] {
            let idx = t.index_of(GigaHertz::new(f)).unwrap();
            assert_eq!(t.point(idx).voltage.value(), v, "voltage at {f} GHz");
        }
    }

    #[test]
    fn steps_are_250_mhz_and_voltage_monotone() {
        let t = VfTable::paper();
        for pair in t.points().windows(2) {
            assert!(((pair[1].frequency - pair[0].frequency).value() - 0.25).abs() < 1e-12);
            assert!(pair[1].voltage > pair[0].voltage);
        }
    }

    #[test]
    fn baseline_is_3_75() {
        let t = VfTable::paper();
        assert_eq!(t.point(VfTable::BASELINE_INDEX).frequency.value(), 3.75);
        assert_eq!(VfPoint::baseline().frequency.value(), 3.75);
        assert!((VfPoint::baseline().voltage.value() - 0.925).abs() < 1e-12);
    }

    #[test]
    fn step_up_down_clamp() {
        let t = VfTable::paper();
        assert_eq!(t.step_up(12), 12);
        assert_eq!(t.step_down(0), 0);
        assert_eq!(t.step_up(3), 4);
        assert_eq!(t.step_down(3), 2);
    }

    #[test]
    fn closest_and_floor() {
        assert_eq!(VfPoint::closest(GigaHertz::new(4.6)).frequency.value(), 4.5);
        assert_eq!(
            VfPoint::closest(GigaHertz::new(10.0)).frequency.value(),
            5.0
        );
        let t = VfTable::paper();
        assert_eq!(
            t.floor_index(GigaHertz::new(4.6)),
            t.index_of(GigaHertz::new(4.5)).unwrap()
        );
        assert_eq!(t.floor_index(GigaHertz::new(1.0)), 0);
    }

    #[test]
    fn voltage_lookup_errors_for_unknown_frequency() {
        let t = VfTable::paper();
        assert!(t.voltage_for(GigaHertz::new(3.1)).is_err());
        assert!(t.voltage_for(GigaHertz::new(3.25)).is_ok());
    }

    #[test]
    fn new_validates_ordering() {
        let p = |f: f64, v: f64| VfPoint {
            frequency: GigaHertz::new(f),
            voltage: Volts::new(v),
        };
        assert!(VfTable::new(vec![]).is_err());
        assert!(VfTable::new(vec![p(2.0, 0.6), p(1.5, 0.5)]).is_err());
        assert!(VfTable::new(vec![p(2.0, 0.6), p(2.5, 0.7)]).is_ok());
    }
}
