//! The Hotspot-Severity metric (Fig. 1 of the paper).

use common::units::Celsius;
use common::{Error, Result};
use std::fmt;

/// Parameters of the severity surface.
///
/// Defaults reproduce the HotGauge calibration the paper uses (see the
/// crate docs for the reconstruction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeverityParams {
    /// Temperature at which severity starts accumulating.
    pub t_base: Celsius,
    /// Temperature that alone (zero MLTD) yields severity 1.0.
    pub t_crit: Celsius,
    /// Weight of MLTD relative to absolute temperature.
    pub mltd_weight: f64,
    /// Neighbourhood radius for the MLTD computation, mm.
    pub mltd_radius_mm: f64,
}

common::json_codec! { struct SeverityParams { t_base, t_crit, mltd_weight, mltd_radius_mm } }

impl Default for SeverityParams {
    fn default() -> Self {
        Self {
            t_base: Celsius::new(45.0),
            t_crit: Celsius::new(115.0),
            mltd_weight: 0.875,
            mltd_radius_mm: 0.6,
        }
    }
}

impl SeverityParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `t_crit <= t_base`, or the
    /// weight/radius are non-positive or non-finite.
    pub fn validate(&self) -> Result<()> {
        if !(self.t_base.is_finite() && self.t_crit.is_finite()) || self.t_crit <= self.t_base {
            return Err(Error::invalid_config(
                "severity",
                format!(
                    "need t_crit > t_base, got {} <= {}",
                    self.t_crit, self.t_base
                ),
            ));
        }
        if !(self.mltd_weight.is_finite() && self.mltd_weight > 0.0) {
            return Err(Error::invalid_config(
                "severity",
                "mltd_weight must be positive",
            ));
        }
        if !(self.mltd_radius_mm.is_finite() && self.mltd_radius_mm > 0.0) {
            return Err(Error::invalid_config(
                "severity",
                "mltd_radius_mm must be positive",
            ));
        }
        Ok(())
    }

    /// Evaluates the severity of one location.
    ///
    /// `mltd` is the maximum local temperature difference at that
    /// location (non-negative).
    pub fn evaluate(&self, temperature: Celsius, mltd: Celsius) -> Severity {
        Severity::new(self.evaluate_raw(temperature, mltd))
    }

    /// The unclamped affine severity value; exceeds 1.0 when the chip is
    /// past the danger point. Used for calibration and diagnostics — the
    /// reported metric is the clamped [`Severity`].
    pub fn evaluate_raw(&self, temperature: Celsius, mltd: Celsius) -> f64 {
        let effective = temperature.value() + self.mltd_weight * mltd.value().max(0.0);
        (effective - self.t_base.value()) / (self.t_crit.value() - self.t_base.value())
    }
}

/// A Hotspot-Severity value in `[0, 1]`.
///
/// 1.0 means the chip is in immediate danger of malfunction or permanent
/// damage (a *hotspot incursion* in the paper's terms); the raw affine
/// value is clamped into the unit interval, matching the paper's "values
/// that Hotspot-Severity can take range between 0 and 1".
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Severity(f64);

impl Severity {
    /// The maximum severity: an incursion.
    pub const ONE: Severity = Severity(1.0);

    /// Creates a severity from a raw value, clamping into `[0, 1]`.
    /// Non-finite input clamps to 1.0 (treat numerical blow-ups as
    /// dangerous rather than safe).
    pub fn new(raw: f64) -> Self {
        if raw.is_nan() {
            return Severity(1.0);
        }
        Severity(raw.clamp(0.0, 1.0))
    }

    /// The clamped value in `[0, 1]`.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// `true` when this severity constitutes a hotspot incursion.
    pub fn is_incursion(self) -> bool {
        self.0 >= 1.0
    }

    /// The larger of two severities.
    pub fn max(self, other: Severity) -> Severity {
        Severity(self.0.max(other.0))
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<Severity> for f64 {
    fn from(s: Severity) -> f64 {
        s.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sev(t: f64, mltd: f64) -> f64 {
        SeverityParams::default()
            .evaluate(Celsius::new(t), Celsius::new(mltd))
            .value()
    }

    #[test]
    fn paper_calibration_points() {
        // (1) uniformly hot chip: 115 C, no MLTD.
        assert!((sev(115.0, 0.0) - 1.0).abs() < 1e-12);
        // (2) advanced hotspot: 80 C with 40 C MLTD.
        assert!((sev(80.0, 40.0) - 1.0).abs() < 1e-12);
        // (3) in between: 95 C with 20 C MLTD is close to (but below) 1.
        let s3 = sev(95.0, 20.0);
        assert!(s3 > 0.9 && s3 < 1.0, "s3 = {s3}");
    }

    #[test]
    fn ambient_is_zero() {
        assert_eq!(sev(45.0, 0.0), 0.0);
        assert_eq!(sev(20.0, 0.0), 0.0, "below base clamps to zero");
    }

    #[test]
    fn monotone_in_temperature_and_mltd() {
        assert!(sev(90.0, 10.0) > sev(85.0, 10.0));
        assert!(sev(85.0, 20.0) > sev(85.0, 10.0));
    }

    #[test]
    fn clamps_to_unit_interval() {
        assert_eq!(sev(200.0, 50.0), 1.0);
        assert!(Severity::new(f64::NAN).is_incursion());
        assert_eq!(Severity::new(-3.0).value(), 0.0);
        assert_eq!(Severity::new(f64::INFINITY).value(), 1.0);
    }

    #[test]
    fn incursion_threshold() {
        assert!(Severity::ONE.is_incursion());
        assert!(!Severity::new(0.999).is_incursion());
    }

    #[test]
    fn negative_mltd_is_treated_as_zero() {
        assert_eq!(sev(90.0, -10.0), sev(90.0, 0.0));
    }

    #[test]
    fn validation() {
        assert!(SeverityParams::default().validate().is_ok());
        let p = SeverityParams {
            t_crit: Celsius::new(40.0),
            ..SeverityParams::default()
        };
        assert!(p.validate().is_err());
        let p = SeverityParams {
            mltd_weight: 0.0,
            ..SeverityParams::default()
        };
        assert!(p.validate().is_err());
        let p = SeverityParams {
            mltd_radius_mm: -1.0,
            ..SeverityParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn max_and_display() {
        let a = Severity::new(0.4);
        let b = Severity::new(0.7);
        assert_eq!(a.max(b), b);
        assert_eq!(format!("{b}"), "0.700");
    }
}
