//! The VF oracle (§III-B) and the Fig. 2 sweep table it is derived from.

use crate::vf::VfTable;
use common::{Error, Result};
use hotgauge::Pipeline;
use workloads::WorkloadSpec;

/// Peak (unclamped) severity of every workload at every VF point — the
/// data behind Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    workloads: Vec<String>,
    /// `peaks[w][i]` = peak raw severity of workload `w` at VF index `i`.
    peaks: Vec<Vec<f64>>,
    vf: VfTable,
}

impl SweepTable {
    /// Measures the table by running every workload for `steps` steps at
    /// every VF point, on every available core
    /// ([`Pipeline::run_fixed_grid`]).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn measure(
        pipeline: &Pipeline,
        workloads: &[WorkloadSpec],
        vf: &VfTable,
        steps: usize,
    ) -> Result<SweepTable> {
        let mut peaks = vec![Vec::new(); workloads.len()];
        pipeline.run_fixed_grid(
            workloads,
            &vf.pairs(),
            steps,
            common::available_threads(),
            |w, _, out| {
                peaks[w].push(out.peak_severity_raw);
                Ok(())
            },
        )?;
        Ok(SweepTable {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            peaks,
            vf: vf.clone(),
        })
    }

    /// Builds a table from precomputed peaks (row order = workload
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the peak matrix does not match
    /// the workload / VF counts.
    pub fn from_peaks(
        workloads: Vec<String>,
        peaks: Vec<Vec<f64>>,
        vf: VfTable,
    ) -> Result<SweepTable> {
        if peaks.len() != workloads.len() {
            return Err(Error::ShapeMismatch {
                what: "sweep table rows",
                expected: workloads.len(),
                actual: peaks.len(),
            });
        }
        for row in &peaks {
            if row.len() != vf.len() {
                return Err(Error::ShapeMismatch {
                    what: "sweep table columns",
                    expected: vf.len(),
                    actual: row.len(),
                });
            }
        }
        Ok(SweepTable {
            workloads,
            peaks,
            vf,
        })
    }

    /// The VF table the sweep used.
    pub fn vf(&self) -> &VfTable {
        &self.vf
    }

    /// Workload names, in row order.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Peak raw severity of a workload at a VF index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown workloads.
    pub fn peak(&self, workload: &str, vf_idx: usize) -> Result<f64> {
        let w = self
            .workloads
            .iter()
            .position(|n| n == workload)
            .ok_or_else(|| Error::not_found("workload", workload))?;
        Ok(self.peaks[w][vf_idx])
    }

    /// The oracle VF index of a workload: the highest index whose peak
    /// severity stays below 1.0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown workloads, or
    /// [`Error::Numerical`] if no point is safe (cannot happen with the
    /// calibrated suite, whose lowest point is always safe).
    pub fn oracle_index(&self, workload: &str) -> Result<usize> {
        let w = self
            .workloads
            .iter()
            .position(|n| n == workload)
            .ok_or_else(|| Error::not_found("workload", workload))?;
        self.peaks[w]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &s)| s < 1.0)
            .map(|(i, _)| i)
            .ok_or_else(|| Error::Numerical(format!("no safe VF point for {workload}")))
    }

    /// The globally safe VF index: the highest index safe for **every**
    /// workload in the table (§III-C; 3.75 GHz in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if no point is globally safe.
    pub fn global_safe_index(&self) -> Result<usize> {
        'outer: for i in (0..self.vf.len()).rev() {
            for row in &self.peaks {
                if row[i] >= 1.0 {
                    continue 'outer;
                }
            }
            return Ok(i);
        }
        Err(Error::Numerical("no globally safe VF point".into()))
    }
}

/// Convenience: oracle frequency (GHz) per workload name.
///
/// # Errors
///
/// Propagates [`SweepTable::oracle_index`] errors.
pub fn oracle_frequencies(table: &SweepTable) -> Result<Vec<(String, f64)>> {
    table
        .workloads()
        .iter()
        .map(|w| {
            let idx = table.oracle_index(w)?;
            Ok((w.clone(), table.vf().point(idx).frequency.value()))
        })
        .collect()
}

/// The oracle controller (§III-B): perfect knowledge, fixed at the
/// workload's oracle VF point for the whole trace.
#[derive(Debug, Clone)]
pub struct OracleController {
    idx: usize,
    name: String,
}

impl OracleController {
    /// Builds the oracle for one workload from sweep data.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepTable::oracle_index`] errors.
    pub fn for_workload(table: &SweepTable, workload: &str) -> Result<OracleController> {
        Ok(OracleController {
            idx: table.oracle_index(workload)?,
            name: format!("oracle({workload})"),
        })
    }

    /// The fixed VF index this oracle selects.
    pub fn vf_index(&self) -> usize {
        self.idx
    }

    /// The controller's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SweepTable {
        // 3 VF points; w0 safe up to idx 1, w1 only idx 0, w2 all safe.
        let vf = VfTable::new(
            [(2.0, 0.6), (3.0, 0.8), (4.0, 1.0)]
                .iter()
                .map(|&(f, v)| crate::vf::VfPoint {
                    frequency: common::units::GigaHertz::new(f),
                    voltage: common::units::Volts::new(v),
                })
                .collect(),
        )
        .unwrap();
        SweepTable::from_peaks(
            vec!["w0".into(), "w1".into(), "w2".into()],
            vec![
                vec![0.5, 0.9, 1.2],
                vec![0.7, 1.1, 1.5],
                vec![0.3, 0.5, 0.8],
            ],
            vf,
        )
        .unwrap()
    }

    #[test]
    fn oracle_picks_highest_safe_point() {
        let t = table();
        assert_eq!(t.oracle_index("w0").unwrap(), 1);
        assert_eq!(t.oracle_index("w1").unwrap(), 0);
        assert_eq!(t.oracle_index("w2").unwrap(), 2);
    }

    #[test]
    fn global_safe_is_min_of_oracles() {
        assert_eq!(table().global_safe_index().unwrap(), 0);
    }

    #[test]
    fn oracle_frequencies_lists_all() {
        let freqs = oracle_frequencies(&table()).unwrap();
        assert_eq!(freqs.len(), 3);
        assert_eq!(freqs[0], ("w0".into(), 3.0));
    }

    #[test]
    fn unknown_workload_errors() {
        assert!(table().oracle_index("nope").is_err());
        assert!(table().peak("nope", 0).is_err());
    }

    #[test]
    fn no_safe_point_is_an_error() {
        let vf = VfTable::paper();
        let peaks = vec![vec![2.0; vf.len()]];
        let t = SweepTable::from_peaks(vec!["hot".into()], peaks, vf).unwrap();
        assert!(t.oracle_index("hot").is_err());
        assert!(t.global_safe_index().is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let vf = VfTable::paper();
        assert!(SweepTable::from_peaks(vec!["a".into()], vec![], vf.clone()).is_err());
        assert!(SweepTable::from_peaks(vec!["a".into()], vec![vec![0.1]], vf).is_err());
    }

    #[test]
    fn controller_reports_fixed_index() {
        let t = table();
        let c = OracleController::for_workload(&t, "w0").unwrap();
        assert_eq!(c.vf_index(), 1);
        assert!(c.name().contains("w0"));
    }
}
