//! Thermal-sensor placement.
//!
//! HotGauge — and §III-A of the Boreas paper — places thermal sensors by
//! running k-means over the locations where hotspots were observed across
//! the workload suite, repeated for different values of `k`. This module
//! exposes both the sites that clustering derives
//! ([`sensor_sites_from_hotspots`]) and the fixed seven-sensor
//! configuration analysed in Fig. 5 ([`SensorSite::paper_seven`]).

use crate::grid::Grid;
use crate::plan::Floorplan;
use crate::unit::UnitKind;
use common::kmeans::KMeans;
use common::{Error, Result};

/// A candidate thermal-sensor location on the die.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSite {
    /// Identifier, e.g. `"tsens03"`.
    pub name: String,
    /// Position in mm.
    pub x: f64,
    /// Position in mm.
    pub y: f64,
}

impl SensorSite {
    /// Creates a named site.
    pub fn new(name: impl Into<String>, x: f64, y: f64) -> Self {
        Self {
            name: name.into(),
            x,
            y,
        }
    }

    /// The seven sensor locations studied in Fig. 5 of the paper, on the
    /// default Skylake-like plan.
    ///
    /// * `tsens00`–`tsens03` sit on or near the hot execution cluster
    ///   (scheduler, LSU, MUL, ALU/FPU boundary); `tsens03` — "located
    ///   near the ALUs (in the EX stage of the pipeline)" — is the paper's
    ///   default and most accurate sensor.
    /// * `tsens04`–`tsens06` sit on cool array blocks (L2, DCache,
    ///   ICache), the placements Fig. 5 shows to be useless for hotspot
    ///   detection.
    pub fn paper_seven(plan: &Floorplan) -> Vec<SensorSite> {
        let at = |kind: UnitKind| {
            let u = plan.unit(kind).expect("default plan has all units");
            u.rect.center()
        };
        let (sx, sy) = at(UnitKind::Scheduler);
        let (lx, ly) = at(UnitKind::Lsu);
        let (mx, my) = at(UnitKind::Mul);
        let (fx, fy) = at(UnitKind::Fpu);

        let (l2x, l2y) = at(UnitKind::L2);
        let (dx, dy) = at(UnitKind::DCache);
        let (ix, iy) = at(UnitKind::ICache);
        vec![
            SensorSite::new("tsens00", sx, sy),
            SensorSite::new("tsens01", lx, ly),
            SensorSite::new("tsens02", mx, my),
            // On the hot edge of the FPU toward the ALUs ("near the
            // ALUs, in the EX stage"): the paper's default and most
            // accurate sensor 3.
            SensorSite::new("tsens03", fx - 0.3, fy),
            SensorSite::new("tsens04", l2x, l2y),
            SensorSite::new("tsens05", dx, dy),
            SensorSite::new("tsens06", ix, iy),
        ]
    }

    /// Index of the paper's default sensor (`tsens03`) within
    /// [`SensorSite::paper_seven`].
    pub const DEFAULT_SENSOR: usize = 3;

    /// The grid cell this site falls in.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the site lies outside the die.
    pub fn cell(&self, grid: &Grid) -> Result<crate::grid::CellIndex> {
        grid.cell_at(self.x, self.y).ok_or_else(|| {
            Error::invalid_config(
                "sensor",
                format!("site {} at ({}, {}) outside die", self.name, self.x, self.y),
            )
        })
    }
}

/// Derives `k` sensor sites from hotspot observations by k-means
/// ([`KMeans`]), naming them `ksens00..`, ordered left-to-right for
/// stability.
///
/// # Errors
///
/// Propagates [`KMeans::fit`] errors: no hotspots, or `k` zero or above
/// the hotspot count.
///
/// # Examples
///
/// ```
/// use boreas_floorplan::placement::sensor_sites_from_hotspots;
///
/// let pts = vec![(5.0, 5.0), (5.1, 5.0), (0.0, 0.0), (0.1, 0.0)];
/// let sites = sensor_sites_from_hotspots(&pts, 2, 7)?;
/// // One site per tight pair, the leftmost first.
/// assert!(sites[0].x < 1.0 && sites[1].x > 4.0);
/// # Ok::<(), common::Error>(())
/// ```
pub fn sensor_sites_from_hotspots(
    hotspots: &[(f64, f64)],
    k: usize,
    seed: u64,
) -> Result<Vec<SensorSite>> {
    let points: Vec<Vec<f64>> = hotspots.iter().map(|&(x, y)| vec![x, y]).collect();
    let mut centroids = KMeans::fit(&points, k, 200, seed)?.centroids().to_vec();
    centroids.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
    Ok(centroids
        .iter()
        .enumerate()
        .map(|(i, c)| SensorSite::new(format!("ksens{i:02}"), c[0], c[1]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn paper_seven_are_on_die_and_named() {
        let plan = Floorplan::skylake_like();
        let sites = SensorSite::paper_seven(&plan);
        assert_eq!(sites.len(), 7);
        assert_eq!(sites[SensorSite::DEFAULT_SENSOR].name, "tsens03");
        for s in &sites {
            assert!(s.x > 0.0 && s.x < plan.width());
            assert!(s.y > 0.0 && s.y < plan.height());
        }
    }

    #[test]
    fn default_sensor_is_in_execution_row() {
        let plan = Floorplan::skylake_like();
        let sites = SensorSite::paper_seven(&plan);
        let s3 = &sites[SensorSite::DEFAULT_SENSOR];
        let unit = plan.unit_at(s3.x, s3.y).unwrap().kind;
        assert!(
            matches!(unit, UnitKind::Alu | UnitKind::Mul | UnitKind::Fpu),
            "tsens03 should be in the EX cluster, got {unit}"
        );
    }

    #[test]
    fn sites_resolve_to_cells() {
        let plan = Floorplan::skylake_like();
        let grid = Grid::rasterize(&plan, GridSpec::default()).unwrap();
        for s in SensorSite::paper_seven(&plan) {
            assert!(s.cell(&grid).is_ok(), "{} must resolve", s.name);
        }
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push((0.0 + 0.01 * i as f64, 0.0));
            pts.push((3.0 + 0.01 * i as f64, 2.0));
        }
        let sites = sensor_sites_from_hotspots(&pts, 2, 42).unwrap();
        // One site at each blob's centre.
        assert!((sites[0].x - 0.095).abs() < 1e-9 && sites[0].y == 0.0);
        assert!((sites[1].x - 3.095).abs() < 1e-9 && sites[1].y == 2.0);
    }

    #[test]
    fn kmeans_is_deterministic() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| ((i % 7) as f64, (i % 5) as f64)).collect();
        let a = sensor_sites_from_hotspots(&pts, 3, 9).unwrap();
        let b = sensor_sites_from_hotspots(&pts, 3, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn kmeans_input_validation() {
        assert!(sensor_sites_from_hotspots(&[], 1, 0).is_err());
        assert!(sensor_sites_from_hotspots(&[(0.0, 0.0)], 0, 0).is_err());
        assert!(sensor_sites_from_hotspots(&[(0.0, 0.0)], 2, 0).is_err());
    }

    #[test]
    fn kmeans_handles_duplicate_points() {
        let pts = vec![(1.0, 1.0); 10];
        let sites = sensor_sites_from_hotspots(&pts, 3, 5).unwrap();
        assert_eq!(sites.len(), 3);
        assert!(sites.iter().all(|s| s.x == 1.0 && s.y == 1.0));
    }

    #[test]
    fn derived_sites_are_sorted_and_named() {
        let pts = vec![(3.0, 1.0), (3.1, 1.1), (0.5, 1.0), (0.6, 1.1)];
        let sites = sensor_sites_from_hotspots(&pts, 2, 1).unwrap();
        assert_eq!(sites[0].name, "ksens00");
        assert!(sites[0].x < sites[1].x);
    }
}
