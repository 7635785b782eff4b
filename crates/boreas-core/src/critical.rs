//! Critical temperatures (§III-D).
//!
//! For a given sensor and workload, the *critical temperature* at a
//! frequency is the lowest sensor-reported temperature observed at a
//! moment where the true Hotspot-Severity is 1.0. Because the sensor is
//! delayed, spiky workloads (gromacs, libquantum) report **low** critical
//! temperatures — the hotspot outruns the read-out — which drags the
//! global thresholds down for everyone. That mechanism is the paper's
//! core argument against temperature-only control.

use crate::vf::VfTable;
use common::Result;
use hotgauge::Pipeline;
use workloads::WorkloadSpec;

/// Per-workload, per-frequency critical temperatures on one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalTemps {
    workloads: Vec<String>,
    /// `temps[w][i]`: lowest sensor reading (°C) coinciding with severity
    /// 1.0 for workload `w` at VF index `i`; `None` if severity never
    /// reached 1.0 there.
    temps: Vec<Vec<Option<f64>>>,
    vf: VfTable,
}

common::json_codec! { struct CriticalTemps { workloads, temps, vf } }

impl CriticalTemps {
    /// Measures critical temperatures by fixed-frequency runs.
    ///
    /// `sensor_idx` selects the sensor within the pipeline's bank (whose
    /// delay/quantisation come from the pipeline config). The runs go
    /// through [`Pipeline::run_fixed_grid`] on every available core; the
    /// table is the same at any core count.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn measure(
        pipeline: &Pipeline,
        workloads: &[WorkloadSpec],
        vf: &VfTable,
        sensor_idx: usize,
        steps: usize,
    ) -> Result<CriticalTemps> {
        Self::measure_on(
            pipeline,
            workloads,
            vf,
            sensor_idx,
            steps,
            common::available_threads(),
        )
    }

    /// [`CriticalTemps::measure`] on `threads` threads.
    fn measure_on(
        pipeline: &Pipeline,
        workloads: &[WorkloadSpec],
        vf: &VfTable,
        sensor_idx: usize,
        steps: usize,
        threads: usize,
    ) -> Result<CriticalTemps> {
        let mut temps = vec![Vec::new(); workloads.len()];
        pipeline.run_fixed_grid(workloads, &vf.pairs(), steps, threads, |w, _, out| {
            let crit = out
                .records
                .iter()
                .filter(|r| r.max_severity.is_incursion())
                .map(|r| telemetry::observed_temperature(r, sensor_idx))
                .reduce(f64::min);
            temps[w].push(crit);
            Ok(())
        })?;
        Ok(CriticalTemps {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            temps,
            vf: vf.clone(),
        })
    }

    /// The VF table in use.
    pub fn vf(&self) -> &VfTable {
        &self.vf
    }

    /// Workload names, in row order.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Critical temperature of one workload at one VF index (`None` =
    /// that point never produced an incursion).
    pub fn critical(&self, workload: &str, vf_idx: usize) -> Option<f64> {
        let w = self.workloads.iter().position(|n| n == workload)?;
        self.temps[w][vf_idx]
    }

    /// The **global** critical temperature at each VF index: the minimum
    /// across all workloads (§III-D2). `None` where no workload ever
    /// produced an incursion (the point is unconditionally safe).
    pub fn global_thresholds(&self) -> Vec<Option<f64>> {
        (0..self.vf.len())
            .map(|i| {
                self.temps
                    .iter()
                    .filter_map(|row| row[i])
                    .fold(None, |acc: Option<f64>, t| {
                        Some(acc.map_or(t, |a| a.min(t)))
                    })
            })
            .collect()
    }

    /// Spread (max − min) of per-workload critical temperatures at a VF
    /// index, over workloads that have one. Used for the §III-D1 sensor
    /// comparison.
    pub fn spread_at(&self, vf_idx: usize) -> Option<f64> {
        let vals: Vec<f64> = self.temps.iter().filter_map(|row| row[vf_idx]).collect();
        if vals.len() < 2 {
            return None;
        }
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf::VfPoint;
    use common::units::{GigaHertz, Volts};

    fn small_vf() -> VfTable {
        VfTable::new(vec![
            VfPoint {
                frequency: GigaHertz::new(3.75),
                voltage: Volts::new(0.925),
            },
            VfPoint {
                frequency: GigaHertz::new(4.0),
                voltage: Volts::new(0.98),
            },
        ])
        .unwrap()
    }

    fn manual() -> CriticalTemps {
        CriticalTemps {
            workloads: vec!["calm".into(), "spiky".into()],
            temps: vec![vec![None, Some(78.0)], vec![None, Some(61.5)]],
            vf: small_vf(),
        }
    }

    #[test]
    fn global_threshold_is_the_minimum() {
        let c = manual();
        assert_eq!(c.global_thresholds(), vec![None, Some(61.5)]);
    }

    #[test]
    fn per_workload_lookup() {
        let c = manual();
        assert_eq!(c.critical("calm", 1), Some(78.0));
        assert_eq!(c.critical("calm", 0), None);
        assert_eq!(c.critical("nope", 0), None);
    }

    #[test]
    fn spread_requires_two_values() {
        let c = manual();
        assert_eq!(c.spread_at(0), None);
        assert_eq!(c.spread_at(1), Some(16.5));
    }

    /// The serial sweep `measure` replaced, kept as its oracle.
    fn serial_reference(
        pipeline: &Pipeline,
        workloads: &[WorkloadSpec],
        vf: &VfTable,
        sensor_idx: usize,
        steps: usize,
    ) -> Vec<Vec<Option<f64>>> {
        let mut temps = Vec::new();
        for w in workloads {
            let mut row = Vec::new();
            for p in vf.points() {
                let out = pipeline
                    .run_fixed(w, p.frequency, p.voltage, steps)
                    .unwrap();
                let mut crit: Option<f64> = None;
                for r in &out.records {
                    if r.max_severity.is_incursion() {
                        let t = telemetry::observed_temperature(r, sensor_idx);
                        crit = Some(crit.map_or(t, |c: f64| c.min(t)));
                    }
                }
                row.push(crit);
            }
            temps.push(row);
        }
        temps
    }

    #[test]
    fn tables_on_any_thread_count_equal_the_serial_reference() {
        const NAMES: [&str; 5] = ["gcc", "gromacs", "libquantum", "mcf", "gamess"];
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(16, 12).unwrap();
        let p = cfg.build().unwrap();
        let paper = VfTable::paper();
        let mut incursions = 0;
        common::check::cases(12, |g| {
            let ws = g.vec(1..=3, |g| WorkloadSpec::by_name(g.pick(&NAMES)).unwrap());
            let start = g.usize_in(6..paper.len());
            let n = g.usize_in(1..=(paper.len() - start).min(3));
            let vf = VfTable::new(paper.points()[start..start + n].to_vec()).unwrap();
            let sensor = g.usize_in(0..7);
            let steps = g.usize_in(20..=60);
            let want = serial_reference(&p, &ws, &vf, sensor, steps);
            incursions += want.iter().flatten().filter(|t| t.is_some()).count();
            let jobs = ws.len() * vf.len();
            for threads in [1, 2, 4, jobs + 1] {
                let got = CriticalTemps::measure_on(&p, &ws, &vf, sensor, steps, threads).unwrap();
                let bits = |t: &[Vec<Option<f64>>]| -> Vec<Vec<Option<u64>>> {
                    t.iter()
                        .map(|row| row.iter().map(|c| c.map(f64::to_bits)).collect())
                        .collect()
                };
                assert_eq!(bits(&got.temps), bits(&want), "at {threads} threads");
                assert_eq!(got.vf, vf);
            }
        });
        assert!(incursions > 0, "the grids must reach some incursions");
    }

    #[test]
    fn measured_critical_temps_respect_fig2_safety() {
        // On a coarse grid for speed: the baseline point must show no
        // critical temperature for a safe workload, while an unsafe
        // frequency for a hot workload must show one.
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(16, 12).unwrap();
        let p = cfg.build().unwrap();
        let ws = vec![WorkloadSpec::by_name("gromacs").unwrap()];
        let crit = CriticalTemps::measure(&p, &ws, &small_vf(), 3, 150).unwrap();
        assert_eq!(
            crit.critical("gromacs", 0),
            None,
            "gromacs is safe at the 3.75 GHz baseline"
        );
        assert!(
            crit.critical("gromacs", 1).is_some(),
            "gromacs must incur at 4.0 GHz"
        );
        // The delayed sensor reads well below the 115 C uniform limit at
        // the incursion moment — the guardband motivation.
        assert!(crit.critical("gromacs", 1).unwrap() < 110.0);
    }
}
