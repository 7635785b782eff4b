//! Property tests for k-means sensor placement and grid rasterisation.

use boreas_floorplan::{Floorplan, Grid, GridSpec};
use common::check;
use common::kmeans::KMeans;

#[test]
fn kmeans_assignments_are_valid_and_inertia_nonnegative() {
    check::cases(256, |g| {
        let points = g.vec(5..80, |g| vec![g.f64_in(0.0..4.0), g.f64_in(0.0..3.0)]);
        let k = g.usize_in(1..=points.len().min(4));
        let seed = g.u64_in(0..1000);
        let res = KMeans::fit(&points, k, 100, seed).unwrap();
        assert_eq!(res.assignment().len(), points.len());
        assert!(res.assignment().iter().all(|&a| a < k));
        assert!(res.inertia() >= 0.0);
        assert!(res.iterations() >= 1);
    });
}

#[test]
fn kmeans_inertia_never_increases_with_k() {
    check::cases(256, |g| {
        let points = g.vec(12..60, |g| vec![g.f64_in(0.0..4.0), g.f64_in(0.0..3.0)]);
        let seed = g.u64_in(0..100);
        // Best-of-3 seeds per k smooths out seeding luck; the trend must
        // be non-increasing within tolerance.
        let best = |k: usize| -> f64 {
            (0..3)
                .map(|s| KMeans::fit(&points, k, 200, seed + s).unwrap().inertia())
                .fold(f64::INFINITY, f64::min)
        };
        let i1 = best(1);
        let i4 = best(4);
        assert!(
            i4 <= i1 + 1e-9,
            "inertia rose from k=1 ({i1}) to k=4 ({i4})"
        );
    });
}

#[test]
fn every_cell_resolves_to_its_own_center() {
    check::cases(256, |g| {
        let nx = g.usize_in(2..40);
        let ny = g.usize_in(2..40);
        let grid =
            Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(nx, ny).unwrap()).unwrap();
        for cell in grid.iter_cells() {
            let (x, y) = grid.cell_center(cell);
            assert_eq!(grid.cell_at(x, y), Some(cell));
        }
    });
}

#[test]
fn rasterisation_preserves_unit_area_shares() {
    check::cases(256, |g| {
        let nx = g.usize_in(16..48);
        let ny = g.usize_in(12..36);
        let plan = Floorplan::skylake_like();
        let grid = Grid::rasterize(&plan, GridSpec::new(nx, ny).unwrap()).unwrap();
        for unit in plan.units() {
            let cells = grid.cells_of(unit.kind).len() as f64;
            let measured = cells * grid.cell_area();
            let actual = unit.rect.area().value();
            // Cell-centre sampling error is bounded by the perimeter band.
            let perimeter = 2.0 * (unit.rect.w + unit.rect.h);
            let tol = perimeter * (grid.cell_width() + grid.cell_height());
            assert!(
                (measured - actual).abs() <= tol,
                "{}: measured {measured} vs actual {actual} (tol {tol})",
                unit.kind
            );
        }
    });
}
