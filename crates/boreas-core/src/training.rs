//! End-to-end Boreas training behind one builder (the Fig. 3 offline
//! flow).
//!
//! [`TrainSpec`] mirrors the closed-loop [`crate::RunSpec`] idiom:
//! pipeline + feature schema in, then chain `vf` / `workloads` /
//! `config` / `threads` / `observe`, and finish with either
//!
//! * [`TrainSpec::fit`] — sweep the workloads over the VF table, extract
//!   the telemetry dataset and train the GBT severity predictor
//!   (histogram trainer, thread-count-invariant); or
//! * [`TrainSpec::fit_thresholds`] — train closed-loop-safe thermal
//!   thresholds for the TH-00 baseline (§III-D / Fig. 4).

use crate::runner::RunSpec;
use crate::vf::VfTable;
use common::Result;
use gbt::{GbtModel, GbtParams};
use hotgauge::Pipeline;
use telemetry::{build_dataset, DatasetSpec, FeatureSet};
use workloads::WorkloadSpec;

/// Configuration of the offline training flow.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Steps per (workload, VF) extraction run.
    pub steps: usize,
    /// Label horizon (12 = one decision interval).
    pub horizon: usize,
    /// Sensor providing `temperature_sensor_data`.
    pub sensor_idx: usize,
    /// GBT hyper-parameters (Table II defaults).
    pub params: GbtParams,
    /// Label form (see [`telemetry::DatasetSpec::label_cap`]).
    pub label_cap: Option<f64>,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            steps: 150,
            horizon: 12,
            sensor_idx: telemetry::MAX_SENSOR_BANK,
            params: GbtParams::default(),
            label_cap: Some(2.0),
        }
    }
}

/// What [`TrainSpec::fit`] produced: the model, the extracted dataset
/// (for importance/CV studies) and the trainer's statistics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The trained severity predictor.
    pub model: GbtModel,
    /// The telemetry dataset the model was fitted on.
    pub dataset: gbt::Dataset,
    /// Row/bin/thread accounting from the underlying trainer.
    pub stats: gbt::TrainStats,
}

/// Builder for the offline training flow.
///
/// Defaults: the full telemetry schema ([`FeatureSet::full`]), the paper
/// VF table, the paper training set ([`WorkloadSpec::train_set`]),
/// [`TrainingConfig::default`], automatic thread count, observability
/// off.
pub struct TrainSpec<'a> {
    pipeline: &'a Pipeline,
    features: FeatureSet,
    vf: VfTable,
    workloads: Vec<WorkloadSpec>,
    config: TrainingConfig,
    threads: usize,
    obs: obs::Obs,
}

impl<'a> TrainSpec<'a> {
    /// Starts a spec over a pipeline.
    pub fn new(pipeline: &'a Pipeline) -> TrainSpec<'a> {
        TrainSpec {
            pipeline,
            features: FeatureSet::full(),
            vf: VfTable::paper(),
            workloads: WorkloadSpec::train_set(),
            config: TrainingConfig::default(),
            threads: 0,
            obs: obs::Obs::default(),
        }
    }

    /// Sets the telemetry feature schema the model is trained on.
    #[must_use]
    pub fn features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self
    }

    /// Sets the VF operating-point table.
    #[must_use]
    pub fn vf(mut self, vf: VfTable) -> Self {
        self.vf = vf;
        self
    }

    /// Sets the training workloads.
    #[must_use]
    pub fn workloads(mut self, workloads: &[WorkloadSpec]) -> Self {
        self.workloads = workloads.to_vec();
        self
    }

    /// Sets the full training configuration.
    #[must_use]
    pub fn config(mut self, config: TrainingConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets just the GBT hyper-parameters (keeps the rest of the
    /// config).
    #[must_use]
    pub fn params(mut self, params: GbtParams) -> Self {
        self.config.params = params;
        self
    }

    /// Sets the steps per (workload, VF) extraction run.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.config.steps = steps;
        self
    }

    /// Sets the trainer thread count (`0` = auto); the trained model is
    /// bit-identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an observability bundle; training emits `train_*`
    /// counters and `train.bin` / `train.grow` spans through it.
    #[must_use]
    pub fn observe(mut self, obs: &obs::Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs the full offline flow: telemetry extraction over every
    /// (workload, VF) pair, then GBT training.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and training errors.
    pub fn fit(&self) -> Result<TrainReport> {
        let points = self.vf.pairs();
        let spec = DatasetSpec {
            steps: self.config.steps,
            horizon: self.config.horizon,
            sensor_idx: self.config.sensor_idx,
            label_cap: self.config.label_cap,
        };
        let dataset = {
            let _span = self.obs.tracer.span("train.extract");
            build_dataset(
                self.pipeline,
                &self.features,
                &self.workloads,
                &points,
                &spec,
            )?
        };
        let report = gbt::TrainSpec::new(&dataset)
            .params(self.config.params)
            .threads(self.threads)
            .observe(&self.obs)
            .fit()?;
        Ok(TrainReport {
            model: report.model,
            dataset,
            stats: report.stats,
        })
    }

    /// Trains closed-loop-safe thermal thresholds (§III-D / Fig. 4's
    /// TH-00).
    ///
    /// The paper's TH-00 is "a thermal model trained on a threshold that
    /// is safe for all workloads in the training set": the raw critical
    /// temperatures (lowest sensor reading coinciding with severity 1.0)
    /// are necessary but not sufficient, because the sensor delay lets a
    /// fast hotspot overshoot before the threshold trips. Starting from
    /// `initial`, the threshold of any VF point at which a training
    /// workload still incurs is lowered (along with all higher VF
    /// points, keeping the profile monotone in risk) by one degree per
    /// pass, until every training workload runs `loop_steps` clean or
    /// `max_iters` passes are exhausted. Runs start at the 3.75 GHz
    /// baseline index of the VF table.
    ///
    /// # Errors
    ///
    /// Propagates closed-loop errors.
    pub fn fit_thresholds(
        &self,
        initial: Vec<Option<f64>>,
        loop_steps: usize,
        max_iters: usize,
    ) -> Result<Vec<Option<f64>>> {
        let mut spec = RunSpec::new(self.pipeline)
            .vf(self.vf.clone())
            .steps(loop_steps)
            .obs(&self.obs);
        let mut thresholds = initial;
        for _ in 0..max_iters {
            let mut clean = true;
            for w in &self.workloads {
                let mut c =
                    crate::controller::ThermalController::from_thresholds(thresholds.clone(), 0.0);
                let out = spec.run(w, &mut c)?;
                if out.incursions == 0 {
                    continue;
                }
                clean = false;
                // Lower the threshold of every frequency at which an
                // incursion was observed (and of all higher frequencies,
                // to keep the threshold profile monotone in risk) — by
                // one degree per offending frequency per training pass.
                let mut offending: Vec<usize> = out
                    .records
                    .iter()
                    .filter(|r| r.max_severity.is_incursion())
                    .filter_map(|r| self.vf.index_of(r.frequency))
                    .collect();
                offending.sort_unstable();
                offending.dedup();
                if let Some(&lowest) = offending.first() {
                    for v in thresholds.iter_mut().skip(lowest).flatten() {
                        *v -= 1.0;
                    }
                }
            }
            if clean {
                break;
            }
        }
        Ok(thresholds)
    }
}

/// The stand-in model of the smoke runs (`fig8_dynamic_runs --smoke`,
/// `fault_campaign --smoke`, `boreas_serve --smoke` and the replay
/// equivalence tests): 30 trees fitted to
/// severity ≈ frequency/5 over 200 synthetic rows, on the one feature
/// `frequency_ghz`. It trains in milliseconds, so CI exercises the ML
/// decision path without the paper's training pipeline; the paper shape
/// does not hold under it. `threads` is the trainer's thread count (`0`
/// = every core); the model is bit-identical for every value.
///
/// # Panics
///
/// Never in practice: the synthetic dataset and parameters are valid.
pub fn smoke_model(threads: usize) -> (GbtModel, FeatureSet) {
    let mut d = gbt::Dataset::new(vec!["frequency_ghz".to_string()]);
    for i in 0..200 {
        let f = 2.0 + 3.0 * (i as f64 / 200.0);
        d.push_row(&[f], f / 5.0, (i % 2) as u32)
            .expect("synthetic row");
    }
    let model = gbt::TrainSpec::new(&d)
        .params(gbt::GbtParams::default().with_estimators(30))
        .threads(threads)
        .fit()
        .expect("smoke model")
        .model;
    let features = FeatureSet::from_names(&["frequency_ghz"]).expect("smoke feature");
    (model, features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::units::{GigaHertz, Volts};

    #[test]
    fn trains_a_usable_model_on_a_tiny_flow() {
        let mut pcfg = hotgauge::PipelineConfig::paper();
        pcfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
        let pipeline = pcfg.build().unwrap();
        // 3 workloads, 3 VF points, short runs, small ensemble.
        let ws = vec![
            WorkloadSpec::by_name("gcc").unwrap(),
            WorkloadSpec::by_name("gamess").unwrap(),
            WorkloadSpec::by_name("mcf").unwrap(),
        ];
        let vf = VfTable::new(
            [(3.0, 0.77), (4.0, 0.98), (5.0, 1.4)]
                .iter()
                .map(|&(f, v)| crate::vf::VfPoint {
                    frequency: GigaHertz::new(f),
                    voltage: Volts::new(v),
                })
                .collect(),
        )
        .unwrap();
        let features = FeatureSet::from_names(&[
            "temperature_sensor_data",
            "frequency_ghz",
            "voltage_v",
            "FPU_cdb_duty_cycle",
            "committed_instructions",
        ])
        .unwrap();
        let cfg = TrainingConfig {
            steps: 60,
            horizon: 12,
            sensor_idx: 3,
            params: GbtParams::default().with_estimators(40),
            label_cap: Some(2.0),
        };
        let report = TrainSpec::new(&pipeline)
            .features(features.clone())
            .vf(vf)
            .workloads(&ws)
            .config(cfg)
            .threads(1)
            .fit()
            .unwrap();
        let (model, data) = (report.model, report.dataset);
        assert_eq!(data.len(), 3 * 3 * 48);
        assert_eq!(report.stats.rows, data.len());
        assert_eq!(report.stats.threads, 1);
        let mse = model.mse_on(&data);
        assert!(mse < 0.02, "training MSE {mse} too high");
        // Severity prediction must increase with frequency for the same
        // activity snapshot.
        let row = data.row(10);
        let lo = model.predict(&row);
        let hi = model.predict(&features.rescale_to_vf(
            &row,
            GigaHertz::new(row[1]),
            GigaHertz::new(5.0),
            Volts::new(1.4),
        ));
        assert!(
            hi > lo,
            "severity prediction should rise with frequency ({lo} -> {hi})"
        );
    }
}
