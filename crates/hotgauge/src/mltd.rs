//! Maximum Local Temperature Difference (MLTD) and the severity argmax
//! over it.
//!
//! For each die cell `i`, `MLTD(i) = max over cells j within radius r of
//! (T(i) − T(j))`, floored at zero: how much hotter this location is than
//! the coolest point in its neighbourhood. Large MLTD means steep local
//! thermal gradients — the timing-margin threat that pure temperature
//! thresholds miss.
//!
//! A simulation step needs only the most severe cell, so
//! [`MltdMap::severity_argmax`] finds it without computing every cell's
//! MLTD; [`MltdMap::compute_reference`] is the per-cell field it is
//! pinned against.

use crate::severity::SeverityParams;
use common::units::Celsius;
use floorplan::Grid;

/// Precomputed MLTD evaluator for a fixed grid and radius.
///
/// The neighbourhood stencil (cell offsets within the physical radius)
/// and the tiling the severity argmax prunes with are computed once.
#[derive(Debug, Clone)]
pub struct MltdMap {
    nx: usize,
    ny: usize,
    /// Relative offsets (dx, dy) within the radius, excluding (0, 0).
    stencil: Vec<(isize, isize)>,
    /// Largest |dy| reached by the stencil.
    ry: usize,
    /// `half_widths[|dy|]` = largest |dx| in the stencil at that row
    /// offset. Because the radius condition is monotone in |dx|, the
    /// stencil row at a given `dy` is exactly the contiguous range
    /// `-half_widths[|dy|] ..= half_widths[|dy|]`.
    half_widths: Vec<usize>,
    /// Edge of the square pruning tiles, in cells: at least the
    /// stencil's reach along either axis, so every cell's disc lies
    /// inside the 3×3 tiles centred on its own tile.
    tile: usize,
    /// Tiles per row.
    tiles_x: usize,
    /// Tile rows.
    tiles_y: usize,
}

/// Reusable per-tile buffers for [`MltdMap::severity_argmax`], so a
/// steady-state caller allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ArgmaxScratch {
    /// Coolest temperature in each tile.
    tile_min: Vec<f64>,
    /// Hottest temperature in each tile.
    tile_max: Vec<f64>,
    /// Coolest temperature in the 3×3 tiles around each tile: a lower
    /// bound on the disc minimum of every cell in it.
    near_min: Vec<f64>,
    /// Upper bound on the severity of every cell in each tile.
    tile_bound: Vec<f64>,
}

/// The most severe cell of a temperature field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeverityArgmax {
    /// Its unclamped severity, [`SeverityParams::evaluate_raw`] of its
    /// temperature and MLTD.
    pub max_raw: f64,
    /// Its row-major index; the lowest index on a tie.
    pub index: usize,
    /// The hottest temperature anywhere in the field (°C).
    pub max_temp: f64,
}

/// `a.min(b)` as one branch-free select; exact for the finite fields
/// this module takes, and unlike `f64::min` free of a NaN check.
#[inline(always)]
fn min_sel(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// `a.max(b)` as one branch-free select (see [`min_sel`]).
#[inline(always)]
fn max_sel(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

impl MltdMap {
    /// Builds the evaluator for `grid` with a neighbourhood of
    /// `radius_mm`.
    ///
    /// # Panics
    ///
    /// Panics if `radius_mm` is not positive and finite.
    pub fn new(grid: &Grid, radius_mm: f64) -> Self {
        assert!(
            radius_mm.is_finite() && radius_mm > 0.0,
            "MLTD radius must be positive"
        );
        let rx = (radius_mm / grid.cell_width()).floor() as isize;
        let ry = (radius_mm / grid.cell_height()).floor() as isize;
        let mut stencil = Vec::new();
        for dy in -ry..=ry {
            for dx in -rx..=rx {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let x_mm = dx as f64 * grid.cell_width();
                let y_mm = dy as f64 * grid.cell_height();
                if (x_mm * x_mm + y_mm * y_mm).sqrt() <= radius_mm + 1e-12 {
                    stencil.push((dx, dy));
                }
            }
        }
        // Derive the per-row extents *from the built stencil* so the
        // exact disc minimum covers the same neighbourhood geometry
        // (including the 1e-12 radius epsilon) as the reference scan.
        let ry_eff = stencil
            .iter()
            .map(|&(_, dy)| dy.unsigned_abs())
            .max()
            .unwrap_or(0);
        let mut half_widths = vec![0usize; ry_eff + 1];
        for &(dx, dy) in &stencil {
            let d = dy.unsigned_abs();
            half_widths[d] = half_widths[d].max(dx.unsigned_abs());
        }
        let reach = half_widths.iter().copied().max().unwrap_or(0).max(ry_eff);
        let tile = reach.max(1);
        let (nx, ny) = (grid.spec().nx, grid.spec().ny);
        Self {
            nx,
            ny,
            stencil,
            ry: ry_eff,
            half_widths,
            tile,
            tiles_x: nx.div_ceil(tile),
            tiles_y: ny.div_ceil(tile),
        }
    }

    /// Number of neighbours in the stencil.
    pub fn stencil_size(&self) -> usize {
        self.stencil.len()
    }

    /// The most severe cell of a temperature map (°C, row-major): the
    /// same cell and bits as a first-max-wins scan of
    /// [`SeverityParams::evaluate_raw`] over [`MltdMap::compute_reference`]
    /// ([`MltdMap::severity_argmax_reference`]), found while computing
    /// the exact MLTD of only the cells that can still win.
    ///
    /// `evaluate_raw` never decreases in the temperature or in the MLTD
    /// under IEEE rounding (`params` must pass
    /// [`SeverityParams::validate`]), and a cell's MLTD is `T − m` for
    /// the minimum `m` over its disc. So any `L ≤ m` gives an upper
    /// bound `evaluate_raw(T, T − L)` on the cell's severity, and a cell
    /// whose bound is below a severity some cell actually reaches can
    /// never be the maximum. The search:
    ///
    /// 1. one pass takes each tile's coolest and hottest temperature;
    /// 2. `L` for every cell of a tile is the minimum over the 3×3 tiles
    ///    around it, which cover every disc in the tile, and the tile's
    ///    bound is `evaluate_raw(T_hot, T_hot − L)` at its hottest
    ///    temperature, which bounds every cell of the tile;
    /// 3. the exact severity of the hottest cell of the best-bounded
    ///    tile is the floor;
    /// 4. a row-major scan evaluates a cell exactly only if its tile's
    ///    bound and its own bound reach the floor and exceed the best so
    ///    far, and takes a new best only on a strict `>`, which keeps
    ///    the lowest index on a tie.
    ///
    /// On simulated fields about 20 cells per step get an exact MLTD.
    /// The pruning needs a smooth field: on independent per-cell noise
    /// most bounds pass and the search approaches the cost of
    /// [`MltdMap::compute_reference`].
    ///
    /// The field must be finite (`ThermalGrid::step` rejects non-finite
    /// power, so simulated fields are); `min`/`max` are then exact
    /// selections, whatever order they run in.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not match the grid size.
    pub fn severity_argmax(
        &self,
        temps: &[f64],
        params: &SeverityParams,
        scratch: &mut ArgmaxScratch,
    ) -> SeverityArgmax {
        assert_eq!(
            temps.len(),
            self.nx * self.ny,
            "temperature map size mismatch"
        );
        debug_assert!(
            temps.iter().all(|t| t.is_finite()),
            "severity argmax needs a finite field"
        );
        debug_assert!(
            params.validate().is_ok(),
            "severity argmax needs a monotone severity surface"
        );
        let (nx, s, tiles_x, tiles_y) = (self.nx, self.tile, self.tiles_x, self.tiles_y);
        let ArgmaxScratch {
            tile_min,
            tile_max,
            near_min,
            tile_bound,
        } = scratch;
        for buf in [
            &mut *tile_min,
            &mut *tile_max,
            &mut *near_min,
            &mut *tile_bound,
        ] {
            buf.clear();
            buf.resize(tiles_x * tiles_y, 0.0);
        }

        // 1. Per-tile extremes.
        for ty in 0..tiles_y {
            let rows = ty * s..((ty + 1) * s).min(self.ny);
            for tx in 0..tiles_x {
                let cols = tx * s..((tx + 1) * s).min(nx);
                // One min/max chain per row, so the rows overlap.
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for iy in rows.clone() {
                    let seg = &temps[iy * nx..][cols.clone()];
                    let (row_lo, row_hi) = seg[1..].iter().fold((seg[0], seg[0]), |(a, b), &t| {
                        (min_sel(a, t), max_sel(b, t))
                    });
                    lo = min_sel(lo, row_lo);
                    hi = max_sel(hi, row_hi);
                }
                tile_min[ty * tiles_x + tx] = lo;
                tile_max[ty * tiles_x + tx] = hi;
            }
        }

        // 2. Per-tile bounds; the best-bounded tile seeds the floor.
        let sev = |t: f64, m: f64| params.evaluate_raw(Celsius::new(t), Celsius::new(m));
        let mut max_temp = f64::NEG_INFINITY;
        let mut best_tile = 0;
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let cols = tx.saturating_sub(1)..(tx + 2).min(tiles_x);
                let mut near = f64::INFINITY;
                for row in ty.saturating_sub(1)..(ty + 2).min(tiles_y) {
                    for &m in &tile_min[row * tiles_x..][cols.clone()] {
                        near = min_sel(near, m);
                    }
                }
                let t = ty * tiles_x + tx;
                let hot = tile_max[t];
                max_temp = max_sel(max_temp, hot);
                near_min[t] = near;
                tile_bound[t] = sev(hot, hot - near);
                if tile_bound[t] > tile_bound[best_tile] {
                    best_tile = t;
                }
            }
        }

        // 3. The floor: a severity some cell really reaches.
        let floor = {
            let (x0, y0) = ((best_tile % tiles_x) * s, (best_tile / tiles_x) * s);
            let hot = tile_max[best_tile];
            let i = (y0..(y0 + s).min(self.ny))
                .flat_map(|iy| iy * nx + x0..iy * nx + (x0 + s).min(nx))
                .find(|&i| temps[i] == hot)
                .expect("a tile's maximum is one of its cells");
            sev(hot, hot - self.disc_min(temps, i))
        };

        // 4. Row-major scan of the cells that can still win.
        let mut best = f64::NEG_INFINITY;
        let mut index = 0;
        for (iy, row) in temps.chunks_exact(nx).enumerate() {
            let t_row = (iy / s) * tiles_x;
            for (tx, seg) in row.chunks(s).enumerate() {
                let t = t_row + tx;
                if tile_bound[t] < floor || tile_bound[t] <= best {
                    continue;
                }
                for (ix, &temp) in seg.iter().enumerate() {
                    let bound = sev(temp, temp - near_min[t]);
                    if bound < floor || bound <= best {
                        continue;
                    }
                    let i = iy * nx + tx * s + ix;
                    let exact = sev(temp, temp - self.disc_min(temps, i));
                    if exact > best {
                        best = exact;
                        index = i;
                    }
                }
            }
        }
        SeverityArgmax {
            max_raw: best,
            index,
            max_temp,
        }
    }

    /// The minimum temperature over cell `i` and its stencil: per-row
    /// spans `±half_widths[|dy|]`, clamped to the grid. Each row runs its
    /// own `min` chain so the rows overlap in the pipeline.
    fn disc_min(&self, temps: &[f64], i: usize) -> f64 {
        let (nx, ix, iy) = (self.nx, i % self.nx, i / self.nx);
        let mut m = temps[i];
        for jy in iy.saturating_sub(self.ry)..(iy + self.ry + 1).min(self.ny) {
            let hw = self.half_widths[jy.abs_diff(iy)];
            let span = &temps[jy * nx + ix.saturating_sub(hw)..jy * nx + (ix + hw + 1).min(nx)];
            let row_min = span[1..].iter().fold(span[0], |a, &b| min_sel(a, b));
            m = min_sel(m, row_min);
        }
        m
    }

    /// The first-max-wins scan of [`SeverityParams::evaluate_raw`] over
    /// [`MltdMap::compute_reference`]: the oracle
    /// [`MltdMap::severity_argmax`] is pinned against (bit-identical,
    /// see `tests/proptest_mltd.rs`); not used on the hot path.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not match the grid size.
    pub fn severity_argmax_reference(
        &self,
        temps: &[f64],
        params: &SeverityParams,
    ) -> SeverityArgmax {
        let mut out = SeverityArgmax {
            max_raw: f64::NEG_INFINITY,
            index: 0,
            max_temp: temps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        for (i, (&t, &m)) in temps.iter().zip(&self.compute_reference(temps)).enumerate() {
            let s = params.evaluate_raw(Celsius::new(t), Celsius::new(m));
            if s > out.max_raw {
                out.max_raw = s;
                out.index = i;
            }
        }
        out
    }

    /// The MLTD of every cell for a temperature map (°C, row-major), by
    /// the per-cell stencil scan, O(cells × stencil). The reference
    /// field: tests and `bench_hotpath` use it; the simulation step does
    /// not.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not match the grid size.
    pub fn compute_reference(&self, temps: &[f64]) -> Vec<f64> {
        assert_eq!(
            temps.len(),
            self.nx * self.ny,
            "temperature map size mismatch"
        );
        let mut out = vec![0.0; temps.len()];
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let i = iy * self.nx + ix;
                let ti = temps[i];
                let mut min_nb = ti;
                for &(dx, dy) in &self.stencil {
                    let jx = ix as isize + dx;
                    let jy = iy as isize + dy;
                    if jx < 0 || jy < 0 || jx >= self.nx as isize || jy >= self.ny as isize {
                        continue;
                    }
                    let tj = temps[jy as usize * self.nx + jx as usize];
                    if tj < min_nb {
                        min_nb = tj;
                    }
                }
                out[i] = ti - min_nb;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::{Floorplan, GridSpec};

    fn grid() -> Grid {
        Grid::rasterize(&Floorplan::skylake_like(), GridSpec::default()).unwrap()
    }

    #[test]
    fn uniform_grid_has_zero_mltd() {
        let g = grid();
        let m = MltdMap::new(&g, 0.6);
        let temps = vec![77.0; g.spec().cells()];
        assert!(m.compute_reference(&temps).iter().all(|&v| v == 0.0));
        let params = SeverityParams::default();
        let top = m.severity_argmax(&temps, &params, &mut ArgmaxScratch::default());
        assert_eq!(top.index, 0, "a flat field's first cell wins the tie");
        assert_eq!(top.max_temp, 77.0);
    }

    #[test]
    fn single_hot_cell_has_full_contrast() {
        let g = grid();
        let m = MltdMap::new(&g, 0.6);
        let mut temps = vec![50.0; g.spec().cells()];
        let centre = g.spec().nx * (g.spec().ny / 2) + g.spec().nx / 2;
        temps[centre] = 90.0;
        let mltd = m.compute_reference(&temps);
        assert_eq!(mltd[centre], 40.0);
        // Cool cells near the hot one are *cooler* than their hottest
        // neighbour but MLTD only measures positive contrast.
        assert!(mltd.iter().all(|&v| v >= 0.0));
        let params = SeverityParams::default();
        let top = m.severity_argmax(&temps, &params, &mut ArgmaxScratch::default());
        assert_eq!(top.index, centre);
    }

    #[test]
    fn mltd_is_nonnegative_and_bounded_by_range() {
        let g = grid();
        let m = MltdMap::new(&g, 0.6);
        let temps: Vec<f64> = (0..g.spec().cells())
            .map(|i| 45.0 + (i % 13) as f64)
            .collect();
        let lo = temps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in m.compute_reference(&temps) {
            assert!(v >= 0.0 && v <= hi - lo + 1e-12);
        }
    }

    #[test]
    fn radius_controls_reach() {
        let g = grid();
        // Gradient along x: one cell is 1 degree hotter than the next.
        let temps: Vec<f64> = (0..g.spec().cells())
            .map(|i| (i % g.spec().nx) as f64)
            .collect();
        let small = MltdMap::new(&g, 0.13); // 1 cell reach
        let large = MltdMap::new(&g, 0.6); // 4 cell reach
        let idx = g.spec().nx / 2; // interior cell in the first row
        assert_eq!(small.compute_reference(&temps)[idx], 1.0);
        assert_eq!(large.compute_reference(&temps)[idx], 4.0);
    }

    #[test]
    fn stencil_excludes_origin_and_respects_radius() {
        let g = grid();
        let m = MltdMap::new(&g, 0.13); // exactly one cell (0.125 mm)
                                        // Stencil must be the 4-neighbourhood.
        assert_eq!(m.stencil_size(), 4);
    }

    #[test]
    fn edge_cells_do_not_read_out_of_bounds() {
        let g = grid();
        let m = MltdMap::new(&g, 0.6);
        let mut temps = vec![45.0; g.spec().cells()];
        temps[0] = 100.0; // corner
        let mltd = m.compute_reference(&temps);
        assert_eq!(mltd[0], 55.0);
        let params = SeverityParams::default();
        let top = m.severity_argmax(&temps, &params, &mut ArgmaxScratch::default());
        assert_eq!(top.index, 0);
        assert_eq!(
            top.max_raw.to_bits(),
            m.severity_argmax_reference(&temps, &params)
                .max_raw
                .to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_panics() {
        let g = grid();
        MltdMap::new(&g, 0.6).compute_reference(&[1.0, 2.0]);
    }

    #[test]
    fn argmax_matches_reference_bitwise() {
        let g = grid();
        let params = SeverityParams::default();
        let mut scratch = ArgmaxScratch::default();
        for radius in [0.05, 0.13, 0.3, 0.6, 1.7] {
            let m = MltdMap::new(&g, radius);
            let temps: Vec<f64> = (0..g.spec().cells())
                .map(|i| 45.0 + ((i * 37) % 101) as f64 * 0.173)
                .collect();
            let fast = m.severity_argmax(&temps, &params, &mut scratch);
            let reference = m.severity_argmax_reference(&temps, &params);
            assert_eq!(fast.index, reference.index, "radius {radius}");
            assert_eq!(
                fast.max_raw.to_bits(),
                reference.max_raw.to_bits(),
                "radius {radius}"
            );
            assert_eq!(
                fast.max_temp.to_bits(),
                reference.max_temp.to_bits(),
                "radius {radius}"
            );
        }
    }
}
