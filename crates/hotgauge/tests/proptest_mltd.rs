//! Equivalence property tests pinning the pruned severity argmax
//! ([`MltdMap::severity_argmax`]) bit-identical to a first-max-wins scan
//! of `evaluate_raw` over the naive stencil field
//! ([`MltdMap::severity_argmax_reference`] over
//! [`MltdMap::compute_reference`]) across field shapes, radii, grid
//! shapes and severity parameters.

use boreas_hotgauge::{ArgmaxScratch, MltdMap, SeverityArgmax, SeverityParams};
use common::check::{self, Gen};
use common::units::Celsius;
use floorplan::{Floorplan, Grid, GridSpec};

/// The radii the properties sweep: below one cell, one cell, the
/// paper's 0.6 mm and wider than most tiles.
const RADII: [f64; 4] = [0.05, 0.13, 0.6, 1.7];

fn grid(nx: usize, ny: usize) -> Grid {
    Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(nx, ny).unwrap()).unwrap()
}

/// A grid shape: the smallest grid `GridSpec` admits (2×2), a
/// two-column strip, a two-row strip, or the half-size and paper grids.
fn shape(g: &mut Gen) -> (usize, usize) {
    let n = g.usize_in(2..40);
    g.pick(&[(2, 2), (2, n), (n, 2), (16, 12), (32, 24)])
}

/// A valid severity surface around the paper's.
fn params(g: &mut Gen) -> SeverityParams {
    let t_base = g.f64_in(20.0..60.0);
    SeverityParams {
        t_base: Celsius::new(t_base),
        t_crit: Celsius::new(t_base + g.f64_in(10.0..100.0)),
        mltd_weight: g.f64_in(0.1..3.0),
        mltd_radius_mm: g.pick(&RADII),
    }
}

/// A temperature field of `cells` cells in one of the shapes that
/// stress the pruning: random, flat, quantised (exact severity ties
/// everywhere), a one-hot spike, cold pits in a hot field, and equal
/// twin spikes with a third spike before, between or after them.
fn field(g: &mut Gen, cells: usize) -> Vec<f64> {
    let base = g.f64_in(40.0..90.0);
    match g.usize_in(0..6) {
        0 => g.vec(cells..=cells, |g| g.f64_in(20.0..130.0)),
        1 => vec![base; cells],
        2 => {
            let palette = [base, base + 5.0, base + 10.0, base + 12.5];
            g.vec(cells..=cells, |g| g.pick(&palette))
        }
        3 => {
            let mut t = vec![base; cells];
            t[g.usize_in(0..cells)] = base + g.f64_in(0.5..40.0);
            t
        }
        4 => {
            let mut t = vec![base; cells];
            for _ in 0..g.usize_in(1..4) {
                t[g.usize_in(0..cells)] = base - g.f64_in(0.5..30.0);
            }
            t
        }
        _ => {
            let mut t = vec![base; cells];
            let twin = base + g.f64_in(5.0..30.0);
            t[g.usize_in(0..cells)] = twin;
            t[g.usize_in(0..cells)] = twin;
            t[g.usize_in(0..cells)] = base + g.f64_in(0.0..40.0);
            t
        }
    }
}

fn assert_bit_identical(got: SeverityArgmax, want: SeverityArgmax, what: &str) {
    assert_eq!(got.index, want.index, "argmax index, {what}");
    assert_eq!(
        got.max_raw.to_bits(),
        want.max_raw.to_bits(),
        "max severity {} vs {}, {what}",
        got.max_raw,
        want.max_raw
    );
    assert_eq!(
        got.max_temp.to_bits(),
        want.max_temp.to_bits(),
        "max temperature, {what}"
    );
}

#[test]
fn pruned_argmax_is_bit_identical_to_reference_fold() {
    check::cases(256, |g| {
        let (nx, ny) = shape(g);
        let params = params(g);
        let temps = field(g, nx * ny);
        let m = MltdMap::new(&grid(nx, ny), params.mltd_radius_mm);
        let got = m.severity_argmax(&temps, &params, &mut ArgmaxScratch::default());
        let want = m.severity_argmax_reference(&temps, &params);
        let what = format!("{nx}x{ny}, radius {}", params.mltd_radius_mm);
        assert_bit_identical(got, want, &what);
    });
}

/// Buffer reuse across differently-sized evaluations must not leak
/// state between calls.
#[test]
fn scratch_reuse_across_radii_stays_exact() {
    check::cases(32, |g| {
        let mut scratch = ArgmaxScratch::default();
        for _ in 0..3 {
            let (nx, ny) = shape(g);
            let params = params(g);
            let temps = field(g, nx * ny);
            let m = MltdMap::new(&grid(nx, ny), params.mltd_radius_mm);
            let got = m.severity_argmax(&temps, &params, &mut scratch);
            let want = m.severity_argmax_reference(&temps, &params);
            let what = format!("{nx}x{ny}, radius {}", params.mltd_radius_mm);
            assert_bit_identical(got, want, &what);
        }
    });
}
