//! The Cochran & Reda (DAC 2010) temperature-prediction baseline
//! (§II-C / §IV-C of the Boreas paper).
//!
//! Offline: raw performance counters are reduced with [`Pca`], workload
//! *phases* are found by [`KMeans`] over the principal components, and a
//! per-(phase, frequency) [`RidgeRegression`] predicts the **future
//! sensor temperature** (one decision horizon ahead). Online: the
//! controller assigns the current interval to a phase, predicts the
//! temperature at the candidate frequency, and throttles against the
//! per-frequency critical-temperature thresholds.
//!
//! This is the paper's representative "temperature-only ML" comparison:
//! it predicts *temperature*, not Hotspot-Severity, so it inherits the
//! blind spot that motivates Boreas — MLTD-driven hotspots that appear at
//! benign sensor temperatures.

use crate::linreg::RidgeRegression;
use crate::pca::Pca;
use boreas_core::{ControlContext, Controller, VfTable};
use common::kmeans::KMeans;
use common::{Error, Result};
use hotgauge::Pipeline;
use telemetry::{observed_temperature, FeatureSet};
use workloads::WorkloadSpec;

/// Hyper-parameters of the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CochranRedaParams {
    /// Principal components kept.
    pub n_components: usize,
    /// Workload phases (k-means clusters).
    pub n_phases: usize,
    /// Ridge regularisation of the per-phase regressions.
    pub lambda: f64,
    /// Prediction horizon in 80 µs steps (12 = one decision interval).
    pub horizon: usize,
    /// Steps per (workload, VF) extraction run.
    pub steps: usize,
    /// Clustering seed.
    pub seed: u64,
    /// Temperature selector (a sensor index or
    /// [`telemetry::MAX_SENSOR_BANK`]).
    pub sensor_idx: usize,
}

impl Default for CochranRedaParams {
    fn default() -> Self {
        Self {
            n_components: 4,
            n_phases: 8,
            lambda: 1e-3,
            horizon: 12,
            steps: 150,
            seed: 0xC0C4,
            sensor_idx: telemetry::DEFAULT_SENSOR_INDEX,
        }
    }
}

/// The fitted phase-aware temperature predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct CochranRedaModel {
    params: CochranRedaParams,
    features: FeatureSet,
    pca: Pca,
    phases: KMeans,
    /// `regs[phase][vf_idx]`: regression over [components.., current
    /// temperature]; `None` where the (phase, frequency) cell had too few
    /// training rows — the global per-frequency fallback is used instead.
    regs: Vec<Vec<Option<RidgeRegression>>>,
    /// Per-frequency fallback regressions.
    fallback: Vec<Option<RidgeRegression>>,
    vf: VfTable,
}

impl CochranRedaModel {
    /// Fits the baseline on pipeline runs of `workloads` over the whole
    /// VF table, run on every available core by
    /// [`Pipeline::run_fixed_grid`] (rows keep the serial grid order, so
    /// the fit does not depend on the core count).
    ///
    /// `features` should be the counter schema (it may include the
    /// temperature feature; the current temperature is additionally
    /// appended as a regressor either way).
    ///
    /// # Errors
    ///
    /// Propagates pipeline and numerical errors; fails on configurations
    /// with no usable training rows.
    pub fn fit(
        pipeline: &Pipeline,
        vf: &VfTable,
        workloads: &[WorkloadSpec],
        features: &FeatureSet,
        params: &CochranRedaParams,
    ) -> Result<CochranRedaModel> {
        if params.steps <= params.horizon {
            return Err(Error::invalid_config(
                "cochran-reda",
                "steps must exceed the horizon",
            ));
        }
        // Collect per-frequency rows: (counter vector, current temp,
        // future temp).
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut per_freq: Vec<Vec<(Vec<f64>, f64, f64)>> = vec![Vec::new(); vf.len()];
        pipeline.run_fixed_grid(
            workloads,
            &vf.pairs(),
            params.steps,
            common::available_threads(),
            |_, f_idx, out| {
                for t in 0..out.records.len() - params.horizon {
                    let x = features.extract(&out.records[t], params.sensor_idx);
                    let now_temp = observed_temperature(&out.records[t], params.sensor_idx);
                    let future_temp =
                        observed_temperature(&out.records[t + params.horizon], params.sensor_idx);
                    rows.push(x.clone());
                    per_freq[f_idx].push((x, now_temp, future_temp));
                }
                Ok(())
            },
        )?;
        if rows.is_empty() {
            return Err(Error::EmptyDataset("cochran-reda training rows"));
        }
        let pca = Pca::fit(&rows, params.n_components.min(rows[0].len()))?;
        let components: Vec<Vec<f64>> = pca.transform_all(&rows);
        let phases = KMeans::fit(
            &components,
            params.n_phases.min(rows.len()),
            100,
            params.seed,
        )?;

        // Per-(phase, frequency) regressions with a per-frequency
        // fallback for sparse cells.
        let mut regs: Vec<Vec<Option<RidgeRegression>>> = vec![vec![None; vf.len()]; phases.k()];
        let mut fallback: Vec<Option<RidgeRegression>> = vec![None; vf.len()];
        for (f_idx, cell) in per_freq.iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            let mut all_x: Vec<Vec<f64>> = Vec::with_capacity(cell.len());
            let mut all_y: Vec<f64> = Vec::with_capacity(cell.len());
            let mut by_phase: Vec<(Vec<Vec<f64>>, Vec<f64>)> =
                vec![(Vec::new(), Vec::new()); phases.k()];
            for (x, now_temp, future_temp) in cell {
                let mut z = pca.transform(x);
                z.push(*now_temp);
                let phase = phases.assign(&z[..z.len() - 1]);
                by_phase[phase].0.push(z.clone());
                by_phase[phase].1.push(*future_temp);
                all_x.push(z);
                all_y.push(*future_temp);
            }
            fallback[f_idx] = Some(RidgeRegression::fit(&all_x, &all_y, params.lambda)?);
            for (phase, (xs, ys)) in by_phase.into_iter().enumerate() {
                // A per-phase fit needs enough rows to be better than the
                // fallback.
                if xs.len() >= 8 * (params.n_components + 2) {
                    regs[phase][f_idx] = Some(RidgeRegression::fit(&xs, &ys, params.lambda)?);
                }
            }
        }
        Ok(CochranRedaModel {
            params: *params,
            features: features.clone(),
            pca,
            phases,
            regs,
            fallback,
            vf: vf.clone(),
        })
    }

    /// The fitted parameters.
    pub fn params(&self) -> &CochranRedaParams {
        &self.params
    }

    /// The feature schema.
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// Predicts the sensor temperature one horizon ahead if the next
    /// interval runs at VF index `f_idx`, given the current counter
    /// vector and temperature.
    ///
    /// # Panics
    ///
    /// Panics if `f_idx` is out of range for the training VF table.
    pub fn predict_future_temp(&self, counters: &[f64], now_temp: f64, f_idx: usize) -> f64 {
        let mut z = self.pca.transform(counters);
        let phase = self.phases.assign(&z);
        z.push(now_temp);
        let reg = self.regs[phase][f_idx]
            .as_ref()
            .or(self.fallback[f_idx].as_ref());
        match reg {
            Some(r) => r.predict(&z),
            // No data at this frequency at all: assume steady state.
            None => now_temp,
        }
    }

    /// MSE of the future-temperature prediction on held-out pipeline
    /// runs (on every available core, summed in grid order).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn temperature_mse(&self, pipeline: &Pipeline, workloads: &[WorkloadSpec]) -> Result<f64> {
        let mut se = 0.0;
        let mut n = 0usize;
        pipeline.run_fixed_grid(
            workloads,
            &self.vf.pairs(),
            self.params.steps,
            common::available_threads(),
            |_, f_idx, out| {
                for t in 0..out.records.len() - self.params.horizon {
                    let x = self
                        .features
                        .extract(&out.records[t], self.params.sensor_idx);
                    let now_temp = observed_temperature(&out.records[t], self.params.sensor_idx);
                    let truth = observed_temperature(
                        &out.records[t + self.params.horizon],
                        self.params.sensor_idx,
                    );
                    let pred = self.predict_future_temp(&x, now_temp, f_idx);
                    se += (pred - truth) * (pred - truth);
                    n += 1;
                }
                Ok(())
            },
        )?;
        if n == 0 {
            return Err(Error::EmptyDataset("cochran-reda evaluation rows"));
        }
        Ok(se / n as f64)
    }
}

/// The DVFS controller built on the temperature predictor: thermal
/// thresholds (critical temperatures), but compared against the
/// *predicted future* temperature instead of the current reading.
#[derive(Debug, Clone)]
pub struct TempPredController {
    model: CochranRedaModel,
    /// Per-VF-index temperature thresholds (°C); `None` = unconstrained.
    thresholds: Vec<Option<f64>>,
    /// Hysteresis margin for stepping up, °C.
    up_margin_c: f64,
}

impl TempPredController {
    /// Wraps a fitted model with per-frequency thresholds.
    pub fn new(model: CochranRedaModel, thresholds: Vec<Option<f64>>) -> Self {
        Self {
            model,
            thresholds,
            up_margin_c: 2.0,
        }
    }

    fn threshold(&self, idx: usize) -> f64 {
        self.thresholds
            .get(idx)
            .copied()
            .flatten()
            .unwrap_or(f64::INFINITY)
    }
}

impl Controller for TempPredController {
    fn name(&self) -> String {
        "CR-temp".into()
    }

    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
        let rec = ctx.last_record();
        let x = self
            .model
            .features
            .extract(rec, self.model.params.sensor_idx);
        let now_temp = observed_temperature(rec, self.model.params.sensor_idx);
        let idx = ctx.current_idx();
        let pred_hold = self.model.predict_future_temp(&x, now_temp, idx);
        if pred_hold >= self.threshold(idx) {
            return ctx.vf().step_down(idx);
        }
        let up = ctx.vf().step_up(idx);
        if up != idx {
            let pred_up = self.model.predict_future_temp(&x, now_temp, up);
            if pred_up < self.threshold(up) - self.up_margin_c {
                return up;
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boreas_core::RunSpec;
    use floorplan::GridSpec;
    use hotgauge::PipelineConfig;

    fn coarse_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::paper();
        cfg.grid = GridSpec::new(16, 12).unwrap();
        cfg.build().unwrap()
    }

    fn small_vf() -> VfTable {
        use boreas_core::VfPoint;
        use common::units::{GigaHertz, Volts};
        VfTable::new(
            [(3.5, 0.87), (4.0, 0.98), (4.5, 1.15)]
                .iter()
                .map(|&(f, v)| VfPoint {
                    frequency: GigaHertz::new(f),
                    voltage: Volts::new(v),
                })
                .collect(),
        )
        .unwrap()
    }

    fn quick_params() -> CochranRedaParams {
        CochranRedaParams {
            steps: 60,
            n_phases: 4,
            ..CochranRedaParams::default()
        }
    }

    fn counter_features() -> FeatureSet {
        FeatureSet::from_names(&[
            "total_cycles",
            "busy_cycles",
            "committed_instructions",
            "cdb_alu_accesses",
            "cdb_fpu_accesses",
            "LSU_duty_cycle",
            "dcache_read_accesses",
        ])
        .unwrap()
    }

    fn train_workloads() -> Vec<WorkloadSpec> {
        ["gcc", "povray", "mcf", "sjeng"]
            .iter()
            .map(|n| WorkloadSpec::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn fits_and_predicts_plausible_temperatures() {
        let p = coarse_pipeline();
        let model = CochranRedaModel::fit(
            &p,
            &small_vf(),
            &train_workloads(),
            &counter_features(),
            &quick_params(),
        )
        .unwrap();
        // Prediction at a known state is finite and in a physical range.
        let spec = WorkloadSpec::by_name("gcc").unwrap();
        let out = p
            .run_fixed(
                &spec,
                common::units::GigaHertz::new(4.0),
                common::units::Volts::new(0.98),
                40,
            )
            .unwrap();
        let rec = &out.records[20];
        let x = counter_features().extract(rec, 3);
        let now_temp = rec.sensor_temps[3].value();
        for f_idx in 0..3 {
            let pred = model.predict_future_temp(&x, now_temp, f_idx);
            assert!(pred.is_finite());
            assert!((30.0..160.0).contains(&pred), "pred {pred}");
        }
    }

    #[test]
    fn predicted_heating_tracks_truth_on_unseen_workload() {
        let p = coarse_pipeline();
        let model = CochranRedaModel::fit(
            &p,
            &small_vf(),
            &train_workloads(),
            &counter_features(),
            &quick_params(),
        )
        .unwrap();
        let unseen = vec![WorkloadSpec::by_name("gamess").unwrap()];
        let mse = model.temperature_mse(&p, &unseen).unwrap();
        // Within ~12 C RMS on an unseen workload. The gap vs the training
        // set is the baseline's weakness (and the paper's point): phases
        // learned from other workloads transfer imperfectly.
        assert!(mse < 150.0, "future-temp MSE {mse}");
        let train_mse = model.temperature_mse(&p, &train_workloads()).unwrap();
        assert!(
            train_mse < mse,
            "training-set MSE should be lower ({train_mse} vs {mse})"
        );
    }

    #[test]
    fn controller_throttles_when_prediction_crosses_threshold() {
        let p = coarse_pipeline();
        let model = CochranRedaModel::fit(
            &p,
            &small_vf(),
            &train_workloads(),
            &counter_features(),
            &quick_params(),
        )
        .unwrap();
        let mut run = RunSpec::new(&p).vf(small_vf()).steps(96).start(1);
        let spec = WorkloadSpec::by_name("gamess").unwrap();
        // Thresholds low enough that the predictor must throttle.
        let mut hot = TempPredController::new(model.clone(), vec![Some(50.0); 3]);
        let out = run.run(&spec, &mut hot).unwrap();
        assert!(
            out.avg_frequency.value() < 4.0,
            "should throttle below start ({})",
            out.avg_frequency.value()
        );
        // Unconstrained thresholds: rides to the top.
        let mut cool = TempPredController::new(model, vec![None; 3]);
        let out = run.run(&spec, &mut cool).unwrap();
        assert!(out.avg_frequency.value() > 4.0);
        assert_eq!(out.controller, "CR-temp");
    }

    #[test]
    fn fit_validates_configuration() {
        let p = coarse_pipeline();
        let bad = CochranRedaParams {
            steps: 10,
            horizon: 12,
            ..CochranRedaParams::default()
        };
        assert!(CochranRedaModel::fit(
            &p,
            &small_vf(),
            &train_workloads(),
            &counter_features(),
            &bad
        )
        .is_err());
    }
}
