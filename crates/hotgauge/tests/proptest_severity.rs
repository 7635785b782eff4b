//! Property tests for the Hotspot-Severity metric and MLTD.

use boreas_hotgauge::{MltdMap, Severity, SeverityParams};
use common::check;
use common::units::Celsius;
use floorplan::{Floorplan, Grid, GridSpec};

#[test]
fn severity_is_monotone_in_temperature() {
    check::cases(256, |g| {
        let t = g.f64_in(0.0..200.0);
        let dt = g.f64_in(0.0..50.0);
        let mltd = g.f64_in(0.0..60.0);
        let p = SeverityParams::default();
        let a = p.evaluate_raw(Celsius::new(t), Celsius::new(mltd));
        let b = p.evaluate_raw(Celsius::new(t + dt), Celsius::new(mltd));
        assert!(b >= a);
    });
}

#[test]
fn severity_is_monotone_in_mltd() {
    check::cases(256, |g| {
        let t = g.f64_in(0.0..200.0);
        let mltd = g.f64_in(0.0..60.0);
        let dm = g.f64_in(0.0..30.0);
        let p = SeverityParams::default();
        let a = p.evaluate_raw(Celsius::new(t), Celsius::new(mltd));
        let b = p.evaluate_raw(Celsius::new(t), Celsius::new(mltd + dm));
        assert!(b >= a);
    });
}

#[test]
fn clamped_severity_is_always_in_unit_interval() {
    check::cases(256, |g| {
        let raw = g.f64_in(-1e6..1e6);
        let s = Severity::new(raw);
        assert!((0.0..=1.0).contains(&s.value()));
        assert_eq!(s.is_incursion(), raw >= 1.0);
    });
}

#[test]
fn mltd_is_nonnegative_and_bounded() {
    check::cases(256, |g| {
        let temps = g.vec(32 * 24..=32 * 24, |g| g.f64_in(40.0..130.0));
        let grid = Grid::rasterize(&Floorplan::skylake_like(), GridSpec::default()).unwrap();
        let m = MltdMap::new(&grid, 0.6);
        let lo = temps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in m.compute_reference(&temps) {
            assert!(v >= 0.0);
            assert!(v <= hi - lo + 1e-9);
        }
    });
}

#[test]
fn mltd_is_invariant_to_uniform_offset() {
    check::cases(256, |g| {
        let temps = g.vec(32 * 24..=32 * 24, |g| g.f64_in(40.0..120.0));
        let offset = g.f64_in(-20.0..20.0);
        let grid = Grid::rasterize(&Floorplan::skylake_like(), GridSpec::default()).unwrap();
        let m = MltdMap::new(&grid, 0.6);
        let base = m.compute_reference(&temps);
        let shifted: Vec<f64> = temps.iter().map(|t| t + offset).collect();
        let moved = m.compute_reference(&shifted);
        for (a, b) in base.iter().zip(&moved) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}
