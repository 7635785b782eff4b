//! The explicit RC-grid solver.

use crate::config::ThermalConfig;
use common::units::Celsius;
use common::{Error, Result};
use floorplan::Grid;
use simd::Isa;
#[cfg(target_arch = "x86_64")]
use simd::{SimdF64, MAX_LANES};

/// Transient thermal state of the die grid plus the lumped package node.
///
/// Created from a rasterised floorplan; advanced by [`ThermalGrid::step`]
/// with one power value per grid cell.
#[derive(Debug, Clone)]
pub struct ThermalGrid {
    cfg: ThermalConfig,
    nx: usize,
    ny: usize,
    /// Die temperatures, °C, row-major.
    temps: Vec<f64>,
    /// Lumped package temperature, °C.
    pkg_temp: f64,
    /// Lateral conductance between adjacent cells along x, W/K.
    g_lat_x: f64,
    /// Lateral conductance between adjacent cells along y, W/K.
    g_lat_y: f64,
    /// Vertical conductance per cell, W/K.
    g_vert: f64,
    /// Heat capacity per cell, J/K.
    c_cell: f64,
    /// Stable sub-step, seconds.
    dt: f64,
    /// Scratch buffer for the update.
    scratch: Vec<f64>,
    /// Instruction set the stencil sweep runs on (process-wide
    /// [`Isa::active`] by default; overridable per grid for equivalence
    /// tests and per-ISA benchmarking). Every ISA is bit-identical.
    isa: Isa,
}

impl ThermalGrid {
    /// Builds the network for `grid` with all temperatures at ambient.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`ThermalConfig::validate`] first for fallible handling.
    pub fn new(grid: &Grid, cfg: ThermalConfig) -> Self {
        cfg.validate().expect("invalid thermal configuration");
        let nx = grid.spec().nx;
        let ny = grid.spec().ny;
        let t_m = cfg.die_thickness_mm * 1e-3;
        let w_m = grid.cell_width() * 1e-3;
        let h_m = grid.cell_height() * 1e-3;

        // Lateral conduction: k * cross-section / distance.
        let g_lat_x = cfg.k_silicon * (t_m * h_m) / w_m;
        let g_lat_y = cfg.k_silicon * (t_m * w_m) / h_m;
        // Vertical: cell area over the area-specific resistance.
        let area_cm2 = (grid.cell_area()) * 1e-2; // mm^2 -> cm^2
        let g_vert = area_cm2 / cfg.r_vertical_kcm2_per_w;
        let c_cell = cfg.volumetric_heat_capacity * (w_m * h_m * t_m);

        // Explicit-stability limit: dt < C / sum(G). Use half for margin.
        let g_max = 2.0 * (g_lat_x + g_lat_y) + g_vert;
        let dt_stable_us = 0.5 * (c_cell / g_max) * 1e6;
        let dt = (cfg.max_dt_us.min(dt_stable_us)) * 1e-6;

        let ambient = cfg.ambient.value();
        Self {
            cfg,
            nx,
            ny,
            temps: vec![ambient; nx * ny],
            pkg_temp: ambient,
            g_lat_x,
            g_lat_y,
            g_vert,
            c_cell,
            dt,
            scratch: vec![0.0; nx * ny],
            isa: Isa::active(),
        }
    }

    /// Pins the stencil sweep to a specific instruction set (equivalence
    /// tests, per-ISA benchmarking). Results are bit-identical across
    /// ISAs; only throughput changes.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot execute `isa`.
    #[must_use]
    pub fn with_isa(mut self, isa: Isa) -> Self {
        assert!(isa.is_supported(), "{isa} not supported on this CPU");
        self.isa = isa;
        self
    }

    /// The instruction set the stencil sweep runs on.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The configuration in use.
    pub fn config(&self) -> &ThermalConfig {
        &self.cfg
    }

    /// The sub-step actually used by the integrator, µs.
    pub fn dt_us(&self) -> f64 {
        self.dt * 1e6
    }

    /// Current die temperatures, °C, row-major.
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }

    /// Current package temperature.
    pub fn package_temp(&self) -> Celsius {
        Celsius::new(self.pkg_temp)
    }

    /// Hottest die cell.
    pub fn max_temp(&self) -> Celsius {
        Celsius::new(self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Mean die temperature.
    pub fn avg_temp(&self) -> Celsius {
        Celsius::new(self.temps.iter().sum::<f64>() / self.temps.len() as f64)
    }

    /// Resets every node to ambient.
    pub fn reset(&mut self) {
        let a = self.cfg.ambient.value();
        self.temps.fill(a);
        self.pkg_temp = a;
    }

    /// Advances the network by `duration_us` with the given per-cell power
    /// (watts), held constant over the duration. Internally sub-steps at
    /// the stable `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `power` has the wrong length,
    /// or [`Error::Numerical`] if non-finite power is supplied.
    pub fn step(&mut self, power: &[f64], duration_us: f64) -> Result<()> {
        self.validate_power(power)?;
        // Integer substep count with one fractional tail instead of a
        // `remaining -= dt` loop: repeated subtraction accumulates float
        // error, so `dt_us()`-aligned durations (the 80 µs pipeline step
        // with the default 20 µs substep) could pick up a spurious tiny
        // trailing substep. With the quotient form, aligned durations run
        // exactly `n` full-`dt` substeps — the branch-free fast path —
        // and only genuinely unaligned durations take the tail.
        let duration = duration_us * 1e-6;
        let n_full = (duration / self.dt) as usize; // saturating: <0 -> 0
        let tail = duration - n_full as f64 * self.dt;
        let dt = self.dt;
        for _ in 0..n_full {
            self.substep(power, dt);
        }
        if tail > 1e-12 {
            self.substep(power, tail);
        }
        Ok(())
    }

    fn validate_power(&self, power: &[f64]) -> Result<()> {
        if power.len() != self.temps.len() {
            return Err(Error::ShapeMismatch {
                what: "power map",
                expected: self.temps.len(),
                actual: power.len(),
            });
        }
        if !power.iter().all(|p| p.is_finite()) {
            return Err(Error::Numerical("non-finite power input".into()));
        }
        Ok(())
    }

    /// One explicit-Euler sub-step of `dt` seconds.
    ///
    /// The four boundary edges are peeled so the interior loop carries no
    /// neighbour-existence branches or unhoistable bounds checks; the
    /// package-flux accumulation is fused into the same sweep. Every cell
    /// evaluates the *same floating-point expression in the same order*
    /// as the reference integrator ([`ThermalGrid::step_reference`]), so
    /// the output is bit-identical — the speedup comes purely from branch
    /// removal, per-row slicing and register-resident coefficients, never
    /// from re-associating the arithmetic.
    fn substep(&mut self, power: &[f64], dt: f64) {
        let (nx, ny) = (self.nx, self.ny);
        if nx < 2 || ny < 2 {
            // Degenerate strips have no interior worth peeling.
            self.substep_reference(power, dt);
            return;
        }
        let coeffs = CellCoeffs {
            gx: self.g_lat_x,
            gy: self.g_lat_y,
            gv: self.g_vert,
            dt,
            c_cell: self.c_cell,
            pkg: self.pkg_temp,
        };
        let t = &self.temps[..];
        let out = &mut self.scratch[..];
        let mut pkg_flux = 0.0;

        // One sweep over the grid on the selected ISA. Every path visits
        // the cells in the same row-major order and evaluates the same
        // IEEE expression per cell, so the output field *and* the running
        // package-flux sum round identically on all of them.
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_isa`/`Isa::active` only admit supported ISAs.
            Isa::Avx2 => unsafe {
                rows_sweep_avx2(&coeffs, t, power, out, nx, ny, &mut pkg_flux);
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Sse2 => {
                rows_sweep_lanes::<simd::F64x2>(&coeffs, t, power, out, nx, ny, &mut pkg_flux);
            }
            _ => rows_sweep_scalar(&coeffs, t, power, out, nx, ny, &mut pkg_flux),
        }

        let ambient = self.cfg.ambient.value();
        pkg_flux += self.cfg.sink_conductance_w_per_k * (ambient - self.pkg_temp);
        self.pkg_temp += dt * pkg_flux / self.cfg.package_capacity_j_per_k;
        std::mem::swap(&mut self.temps, &mut self.scratch);
    }

    /// The seed (pre-optimisation) integrator: branchy stencil plus the
    /// `remaining -= dt` substep loop. Kept as the reference the fused
    /// kernel is pinned against (equivalence tests) and as the baseline
    /// `bench_hotpath` measures speedups from; not used on the hot path.
    ///
    /// # Errors
    ///
    /// Same as [`ThermalGrid::step`].
    pub fn step_reference(&mut self, power: &[f64], duration_us: f64) -> Result<()> {
        self.validate_power(power)?;
        let mut remaining = duration_us * 1e-6;
        while remaining > 1e-12 {
            let dt = self.dt.min(remaining);
            self.substep_reference(power, dt);
            remaining -= dt;
        }
        Ok(())
    }

    /// One reference sub-step (the seed's branchy stencil sweep).
    fn substep_reference(&mut self, power: &[f64], dt: f64) {
        let (nx, ny) = (self.nx, self.ny);
        let t = &self.temps;
        let out = &mut self.scratch;
        let mut pkg_flux = 0.0;

        for iy in 0..ny {
            for ix in 0..nx {
                let i = iy * nx + ix;
                let ti = t[i];
                let mut flux = power[i] + self.g_vert * (self.pkg_temp - ti);
                if ix > 0 {
                    flux += self.g_lat_x * (t[i - 1] - ti);
                }
                if ix + 1 < nx {
                    flux += self.g_lat_x * (t[i + 1] - ti);
                }
                if iy > 0 {
                    flux += self.g_lat_y * (t[i - nx] - ti);
                }
                if iy + 1 < ny {
                    flux += self.g_lat_y * (t[i + nx] - ti);
                }
                pkg_flux += self.g_vert * (ti - self.pkg_temp);
                out[i] = ti + dt * flux / self.c_cell;
            }
        }
        let ambient = self.cfg.ambient.value();
        pkg_flux += self.cfg.sink_conductance_w_per_k * (ambient - self.pkg_temp);
        self.pkg_temp += dt * pkg_flux / self.cfg.package_capacity_j_per_k;
        std::mem::swap(&mut self.temps, &mut self.scratch);
    }

    /// Runs the network to (approximate) steady state under constant
    /// power: integrates until the largest per-millisecond change falls
    /// below `tol_c` or `max_ms` is reached. Returns the simulated time in
    /// ms.
    ///
    /// # Errors
    ///
    /// Same as [`ThermalGrid::step`].
    pub fn run_to_steady(&mut self, power: &[f64], tol_c: f64, max_ms: f64) -> Result<f64> {
        let mut elapsed = 0.0;
        let mut prev = self.temps.clone();
        let mut prev_pkg = self.pkg_temp;
        while elapsed < max_ms {
            self.step(power, 1_000.0)?;
            elapsed += 1.0;
            let max_delta = self
                .temps
                .iter()
                .zip(&prev)
                .map(|(a, b)| (a - b).abs())
                .fold((self.pkg_temp - prev_pkg).abs(), f64::max);
            if max_delta < tol_c {
                break;
            }
            prev.copy_from_slice(&self.temps);
            prev_pkg = self.pkg_temp;
        }
        Ok(elapsed)
    }

    /// Total heat currently flowing out of the package to ambient, W.
    pub fn heat_to_ambient(&self) -> f64 {
        self.cfg.sink_conductance_w_per_k * (self.pkg_temp - self.cfg.ambient.value())
    }
}

/// Per-substep constants hoisted out of the cell loops.
struct CellCoeffs {
    gx: f64,
    gy: f64,
    gv: f64,
    dt: f64,
    c_cell: f64,
    pkg: f64,
}

impl CellCoeffs {
    /// The seed's per-cell update, with the vertical-neighbour terms
    /// selected at compile time: `flux` accumulates power, vertical,
    /// left, right, up, down in exactly the reference order. The
    /// caller accumulates the cell's package-flux contribution
    /// ([`CellCoeffs::pkg_contrib`]) in the same row-major cell order
    /// as the reference.
    #[inline(always)]
    fn cell<const LEFT: bool, const RIGHT: bool, const UP: bool, const DOWN: bool>(
        &self,
        ti: f64,
        p: f64,
        left: f64,
        right: f64,
        up: f64,
        down: f64,
    ) -> f64 {
        let mut flux = p + self.gv * (self.pkg - ti);
        if LEFT {
            flux += self.gx * (left - ti);
        }
        if RIGHT {
            flux += self.gx * (right - ti);
        }
        if UP {
            flux += self.gy * (up - ti);
        }
        if DOWN {
            flux += self.gy * (down - ti);
        }
        ti + self.dt * flux / self.c_cell
    }

    /// One cell's contribution to the running package-flux sum.
    #[inline(always)]
    fn pkg_contrib(&self, ti: f64) -> f64 {
        self.gv * (ti - self.pkg)
    }
}

/// The PR 3 scalar sweep: top row (no `up` neighbour), interior rows,
/// bottom row, all through the boundary-peeled [`row_update`].
fn rows_sweep_scalar(
    coeffs: &CellCoeffs,
    t: &[f64],
    power: &[f64],
    out: &mut [f64],
    nx: usize,
    ny: usize,
    pkg_flux: &mut f64,
) {
    row_update::<false, true>(
        coeffs,
        None,
        &t[..nx],
        Some(&t[nx..2 * nx]),
        &power[..nx],
        &mut out[..nx],
        pkg_flux,
    );
    for iy in 1..ny - 1 {
        let base = iy * nx;
        row_update::<true, true>(
            coeffs,
            Some(&t[base - nx..base]),
            &t[base..base + nx],
            Some(&t[base + nx..base + 2 * nx]),
            &power[base..base + nx],
            &mut out[base..base + nx],
            pkg_flux,
        );
    }
    let base = (ny - 1) * nx;
    row_update::<true, false>(
        coeffs,
        Some(&t[base - nx..base]),
        &t[base..base + nx],
        None,
        &power[base..base + nx],
        &mut out[base..base + nx],
        pkg_flux,
    );
}

/// The AVX2 entry point: identical structure to the generic sweep, but
/// compiled with 256-bit lanes enabled so [`row_update_lanes`] inlines
/// into 4-wide code. Safe to call only after an [`Isa::Avx2`] support
/// check — enforced by the dispatch in [`ThermalGrid::substep`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_sweep_avx2(
    coeffs: &CellCoeffs,
    t: &[f64],
    power: &[f64],
    out: &mut [f64],
    nx: usize,
    ny: usize,
    pkg_flux: &mut f64,
) {
    rows_sweep_lanes::<simd::F64x4>(coeffs, t, power, out, nx, ny, pkg_flux);
}

/// The lane-parallel sweep: same row order as [`rows_sweep_scalar`],
/// with each row's interior updated `V::LANES` cells at a time.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn rows_sweep_lanes<V: SimdF64>(
    coeffs: &CellCoeffs,
    t: &[f64],
    power: &[f64],
    out: &mut [f64],
    nx: usize,
    ny: usize,
    pkg_flux: &mut f64,
) {
    row_update_lanes::<V, false, true>(
        coeffs,
        None,
        &t[..nx],
        Some(&t[nx..2 * nx]),
        &power[..nx],
        &mut out[..nx],
        pkg_flux,
    );
    for iy in 1..ny - 1 {
        let base = iy * nx;
        row_update_lanes::<V, true, true>(
            coeffs,
            Some(&t[base - nx..base]),
            &t[base..base + nx],
            Some(&t[base + nx..base + 2 * nx]),
            &power[base..base + nx],
            &mut out[base..base + nx],
            pkg_flux,
        );
    }
    let base = (ny - 1) * nx;
    row_update_lanes::<V, true, false>(
        coeffs,
        Some(&t[base - nx..base]),
        &t[base..base + nx],
        None,
        &power[base..base + nx],
        &mut out[base..base + nx],
        pkg_flux,
    );
}

/// [`row_update`] with the interior loop running on `V::LANES`-wide
/// vectors. Bit-identity with the scalar row: the edges and the
/// `< V::LANES` remainder go through the *same* [`CellCoeffs::cell`]
/// expression, the vector lanes evaluate that expression with exact
/// elementwise `add`/`sub`/`mul`/`div` (no FMA contraction — the lane
/// wrappers only expose the unfused intrinsics), and each lane's
/// package-flux contribution is spilled and added to the running scalar
/// sum in lane order, i.e. in the reference's row-major cell order.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn row_update_lanes<V: SimdF64, const UP: bool, const DOWN: bool>(
    c: &CellCoeffs,
    up_row: Option<&[f64]>,
    row: &[f64],
    down_row: Option<&[f64]>,
    p_row: &[f64],
    out_row: &mut [f64],
    pkg_flux: &mut f64,
) {
    let nx = row.len();
    let up_row = up_row.unwrap_or(row);
    let down_row = down_row.unwrap_or(row);
    // Left edge (scalar, as in the reference).
    *pkg_flux += c.pkg_contrib(row[0]);
    out_row[0] =
        c.cell::<false, true, UP, DOWN>(row[0], p_row[0], 0.0, row[1], up_row[0], down_row[0]);

    let gx = V::splat(c.gx);
    let gy = V::splat(c.gy);
    let gv = V::splat(c.gv);
    let dt = V::splat(c.dt);
    let c_cell = V::splat(c.c_cell);
    let pkg = V::splat(c.pkg);
    let mut spilled = [0.0; MAX_LANES];

    // Interior, V::LANES cells at a time.
    let mut ix = 1;
    while ix + V::LANES < nx {
        let ti = V::from_slice(&row[ix..]);
        // flux accumulates power, vertical, left, right, up, down — the
        // exact term order of `CellCoeffs::cell`.
        let mut flux = V::from_slice(&p_row[ix..]).add(gv.mul(pkg.sub(ti)));
        flux = flux.add(gx.mul(V::from_slice(&row[ix - 1..]).sub(ti)));
        flux = flux.add(gx.mul(V::from_slice(&row[ix + 1..]).sub(ti)));
        if UP {
            flux = flux.add(gy.mul(V::from_slice(&up_row[ix..]).sub(ti)));
        }
        if DOWN {
            flux = flux.add(gy.mul(V::from_slice(&down_row[ix..]).sub(ti)));
        }
        ti.add(dt.mul(flux).div(c_cell))
            .write_to(&mut out_row[ix..]);
        // Package flux: elementwise contributions, summed in cell order.
        gv.mul(ti.sub(pkg)).spill(&mut spilled);
        for &contrib in &spilled[..V::LANES] {
            *pkg_flux += contrib;
        }
        ix += V::LANES;
    }
    // Interior remainder (scalar).
    for ix in ix..nx - 1 {
        *pkg_flux += c.pkg_contrib(row[ix]);
        out_row[ix] = c.cell::<true, true, UP, DOWN>(
            row[ix],
            p_row[ix],
            row[ix - 1],
            row[ix + 1],
            up_row[ix],
            down_row[ix],
        );
    }
    // Right edge.
    let e = nx - 1;
    *pkg_flux += c.pkg_contrib(row[e]);
    out_row[e] =
        c.cell::<true, false, UP, DOWN>(row[e], p_row[e], row[e - 1], 0.0, up_row[e], down_row[e]);
}

/// Updates one grid row with the left/right edge cells peeled off the
/// interior loop; `UP`/`DOWN` select the vertical neighbour terms at
/// monomorphisation time so no row carries neighbour-existence branches.
#[inline(always)]
fn row_update<const UP: bool, const DOWN: bool>(
    c: &CellCoeffs,
    up_row: Option<&[f64]>,
    row: &[f64],
    down_row: Option<&[f64]>,
    p_row: &[f64],
    out_row: &mut [f64],
    pkg_flux: &mut f64,
) {
    let nx = row.len();
    let up_row = up_row.unwrap_or(row);
    let down_row = down_row.unwrap_or(row);
    // Left edge.
    *pkg_flux += c.pkg_contrib(row[0]);
    out_row[0] =
        c.cell::<false, true, UP, DOWN>(row[0], p_row[0], 0.0, row[1], up_row[0], down_row[0]);
    // Interior: all four lateral neighbours exist; the slice indexing is
    // bounds-check-free after the compiler sees the common length.
    for ix in 1..nx - 1 {
        *pkg_flux += c.pkg_contrib(row[ix]);
        out_row[ix] = c.cell::<true, true, UP, DOWN>(
            row[ix],
            p_row[ix],
            row[ix - 1],
            row[ix + 1],
            up_row[ix],
            down_row[ix],
        );
    }
    // Right edge.
    let e = nx - 1;
    *pkg_flux += c.pkg_contrib(row[e]);
    out_row[e] =
        c.cell::<true, false, UP, DOWN>(row[e], p_row[e], row[e - 1], 0.0, up_row[e], down_row[e]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::{Floorplan, GridSpec, UnitKind};

    fn make(nx: usize, ny: usize) -> (Grid, ThermalGrid) {
        let grid =
            Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(nx, ny).unwrap()).unwrap();
        let tg = ThermalGrid::new(&grid, ThermalConfig::default());
        (grid, tg)
    }

    #[test]
    fn starts_at_ambient() {
        let (_, tg) = make(16, 12);
        assert_eq!(tg.max_temp(), Celsius::AMBIENT);
        assert_eq!(tg.package_temp(), Celsius::AMBIENT);
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let (g, mut tg) = make(16, 12);
        let zero = vec![0.0; g.spec().cells()];
        tg.step(&zero, 10_000.0).unwrap();
        assert!((tg.max_temp().value() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn heating_then_cooling_decays_towards_ambient() {
        let (g, mut tg) = make(16, 12);
        let power = vec![0.05; g.spec().cells()];
        tg.step(&power, 5_000.0).unwrap();
        let hot = tg.max_temp().value();
        assert!(hot > 46.0, "die should heat ({hot})");
        let zero = vec![0.0; g.spec().cells()];
        let mut last = hot;
        for _ in 0..10 {
            tg.step(&zero, 2_000.0).unwrap();
            let now = tg.max_temp().value();
            assert!(
                now <= last + 1e-9,
                "cooling must be monotone: {last} -> {now}"
            );
            last = now;
        }
        assert!(last < hot, "die should cool");
    }

    #[test]
    fn uniform_power_gives_uniform_temperature() {
        let (g, mut tg) = make(16, 12);
        let power = vec![0.03; g.spec().cells()];
        tg.step(&power, 20_000.0).unwrap();
        let min = tg
            .temperatures()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = tg.max_temp().value();
        assert!(
            max - min < 0.01,
            "uniform power must stay uniform ({min}..{max})"
        );
    }

    #[test]
    fn concentrated_power_creates_local_contrast() {
        let (g, mut tg) = make(32, 24);
        let mut power = vec![0.001; g.spec().cells()];
        // Drop ~6 W on the FPU block.
        let fpu = g.cells_of(UnitKind::Fpu);
        for cell in &fpu {
            power[g.flat(*cell)] = 6.0 / fpu.len() as f64;
        }
        tg.step(&power, 4_000.0).unwrap();
        let max = tg.max_temp().value();
        let min = tg
            .temperatures()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            max - min > 15.0,
            "hotspot contrast too small: {}",
            max - min
        );
        // The hottest cell must be inside (or adjacent to) the FPU.
        let (imax, _) = tg
            .temperatures()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let hot_cells: Vec<usize> = fpu.iter().map(|c| g.flat(*c)).collect();
        assert!(hot_cells.contains(&imax), "hottest cell not in FPU");
    }

    #[test]
    fn fast_local_heating_rate_is_tens_of_k_per_ms() {
        // The property that makes advanced hotspots outrun slow sensors.
        let (g, mut tg) = make(32, 24);
        let mut power = vec![0.0; g.spec().cells()];
        let fpu = g.cells_of(UnitKind::Fpu);
        for cell in &fpu {
            power[g.flat(*cell)] = 10.0 / fpu.len() as f64;
        }
        tg.step(&power, 500.0).unwrap();
        let rise = tg.max_temp().value() - 45.0;
        assert!(
            rise > 5.0,
            "0.5 ms of 10 W on the FPU should raise >5 K, got {rise}"
        );
    }

    /// A stack with a tiny package capacity so steady state is reachable
    /// within a test-sized simulation (the default 20 J/K package has a
    /// 10 s time constant).
    fn fast_package() -> ThermalConfig {
        ThermalConfig {
            package_capacity_j_per_k: 0.2,
            ..ThermalConfig::default()
        }
    }

    #[test]
    fn steady_state_energy_balance() {
        let grid =
            Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(8, 6).unwrap()).unwrap();
        let mut tg = ThermalGrid::new(&grid, fast_package());
        let total_w = 12.0;
        let power = vec![total_w / grid.spec().cells() as f64; grid.spec().cells()];
        tg.run_to_steady(&power, 1e-7, 2_000.0).unwrap();
        let out = tg.heat_to_ambient();
        assert!(
            (out - total_w).abs() / total_w < 0.05,
            "steady-state outflow {out} W should match input {total_w} W"
        );
    }

    #[test]
    fn steady_temp_increases_with_power() {
        let grid =
            Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(8, 6).unwrap()).unwrap();
        let mut a = ThermalGrid::new(&grid, fast_package());
        let mut b = ThermalGrid::new(&grid, fast_package());
        let n = grid.spec().cells() as f64;
        a.run_to_steady(&vec![5.0 / n; grid.spec().cells()], 1e-7, 2_000.0)
            .unwrap();
        b.run_to_steady(&vec![10.0 / n; grid.spec().cells()], 1e-7, 2_000.0)
            .unwrap();
        assert!(b.avg_temp().value() > a.avg_temp().value() + 1.0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let (_, mut tg) = make(8, 6);
        let err = tg.step(&[0.0; 3], 80.0).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
    }

    #[test]
    fn non_finite_power_is_an_error() {
        let (g, mut tg) = make(8, 6);
        let mut p = vec![0.0; g.spec().cells()];
        p[0] = f64::NAN;
        assert!(matches!(tg.step(&p, 80.0), Err(Error::Numerical(_))));
    }

    #[test]
    fn substep_respects_stability_limit() {
        let (_, tg) = make(32, 24);
        // For the default stack the stability limit is ~60 us; the solver
        // must have clamped below the configured 20 us maximum or the
        // stability bound, whichever is smaller.
        assert!(tg.dt_us() <= 20.0 + 1e-9);
        assert!(tg.dt_us() > 0.0);
    }

    #[test]
    fn every_available_isa_is_bit_identical_to_scalar() {
        let grid =
            Grid::rasterize(&Floorplan::skylake_like(), GridSpec::new(37, 23).unwrap()).unwrap();
        let power: Vec<f64> = (0..grid.spec().cells())
            .map(|i| 0.002 + 0.05 * (((i * 29) % 97) as f64 / 97.0))
            .collect();
        let mut scalar = ThermalGrid::new(&grid, ThermalConfig::default()).with_isa(Isa::Scalar);
        for _ in 0..8 {
            scalar.step(&power, 80.0).unwrap();
        }
        for isa in Isa::available() {
            let mut tg = ThermalGrid::new(&grid, ThermalConfig::default()).with_isa(isa);
            assert_eq!(tg.isa(), isa);
            for _ in 0..8 {
                tg.step(&power, 80.0).unwrap();
            }
            for (a, b) in tg.temperatures().iter().zip(scalar.temperatures()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa}");
            }
            assert_eq!(
                tg.package_temp().value().to_bits(),
                scalar.package_temp().value().to_bits(),
                "{isa}"
            );
        }
    }

    #[test]
    fn reset_restores_ambient() {
        let (g, mut tg) = make(8, 6);
        tg.step(&vec![0.1; g.spec().cells()], 5_000.0).unwrap();
        assert!(tg.max_temp().value() > 45.0);
        tg.reset();
        assert_eq!(tg.max_temp(), Celsius::AMBIENT);
        assert_eq!(tg.package_temp(), Celsius::AMBIENT);
    }

    #[test]
    fn finer_grid_converges_to_similar_average() {
        // Grid-resolution sanity: average die temperature under the same
        // total power should be grid-independent to first order.
        let (g1, mut a) = make(16, 12);
        let (g2, mut b) = make(32, 24);
        let total = 15.0;
        a.step(
            &vec![total / g1.spec().cells() as f64; g1.spec().cells()],
            10_000.0,
        )
        .unwrap();
        b.step(
            &vec![total / g2.spec().cells() as f64; g2.spec().cells()],
            10_000.0,
        )
        .unwrap();
        let d = (a.avg_temp().value() - b.avg_temp().value()).abs();
        assert!(d < 1.0, "grid dependence too strong: {d}");
    }
}
