//! Typed experiment descriptions.
//!
//! A [`Scenario`] is the engine's unit of work: a workload set crossed
//! with either a VF grid (severity sweeps, Fig. 2) or a set of
//! controller specifications and optional fault plans (closed-loop runs,
//! Figs. 7–8 and the fault campaign). Scenarios are plain serialisable
//! data — no trait objects, no closures — which is what makes them
//! hashable into artifact-cache keys and expandable into an explicit job
//! list with a deterministic order.

use boreas_core::{
    BoreasController, ControlStage, Controller, GlobalVfController, ResilientController,
    ThermalController, VfTable,
};
use common::{Error, Result};
use faults::FaultPlan;
use gbt::GbtModel;
use telemetry::FeatureSet;
use workloads::WorkloadSpec;

/// A serialisable recipe for constructing a concrete [`Controller`].
///
/// Specs carry data (models, thresholds, guardbands) rather than built
/// controllers so that a scenario can be hashed for caching and shipped
/// across worker threads. A session run builds one [`ControllerFactory`]
/// per spec it needs; each worker clones its own controller instance
/// from it once and reuses it (with [`Controller::reset`] between jobs).
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerSpec {
    /// The single globally safe operating point (§III-C).
    Global {
        /// VF index to pin.
        idx: usize,
    },
    /// Critical-temperature thresholds over sensor readings (§III-D).
    Thermal {
        /// Per-VF-index critical temperature (`None` = always safe).
        thresholds: Vec<Option<f64>>,
        /// Relaxation in °C (the TH-xx family: 0.0, 5.0, 10.0).
        relax_c: f64,
    },
    /// The Boreas GBT severity predictor (§IV–V).
    Ml {
        /// Trained gradient-boosted-tree model.
        model: GbtModel,
        /// Feature names, in model column order.
        features: Vec<String>,
        /// Prediction guardband (the ML-xx family: 0.00, 0.05, 0.10).
        guardband: f64,
    },
    /// [`ControllerSpec::Ml`] wrapped in the resilient supervisor
    /// (telemetry validation + thermal fallback + global-safe watchdog).
    ResilientMl {
        /// Trained gradient-boosted-tree model.
        model: GbtModel,
        /// Feature names, in model column order.
        features: Vec<String>,
        /// Prediction guardband.
        guardband: f64,
        /// Thermal-fallback thresholds (per VF index).
        fallback: Vec<Option<f64>>,
        /// VF index forced by the watchdog in the global-safe stage.
        safe_idx: usize,
    },
}

common::json_codec! {
    enum ControllerSpec {
        Global { idx } = "Global",
        Thermal { thresholds, relax_c } = "Thermal",
        Ml { model, features, guardband } = "Ml",
        ResilientMl { model, features, guardband, fallback, safe_idx } = "ResilientMl",
    }
}

impl ControllerSpec {
    /// Spec for the globally safe fixed operating point.
    pub fn global(idx: usize) -> Self {
        ControllerSpec::Global { idx }
    }

    /// Spec for a threshold controller with `relax_c` °C of relaxation.
    pub fn thermal(thresholds: Vec<Option<f64>>, relax_c: f64) -> Self {
        ControllerSpec::Thermal {
            thresholds,
            relax_c,
        }
    }

    /// Spec for a Boreas ML controller.
    pub fn ml(model: GbtModel, features: &FeatureSet, guardband: f64) -> Self {
        ControllerSpec::Ml {
            model,
            features: features.names(),
            guardband,
        }
    }

    /// Spec for a resilient Boreas ML controller.
    pub fn resilient_ml(
        model: GbtModel,
        features: &FeatureSet,
        guardband: f64,
        fallback: Vec<Option<f64>>,
        safe_idx: usize,
    ) -> Self {
        ControllerSpec::ResilientMl {
            model,
            features: features.names(),
            guardband,
            fallback,
            safe_idx,
        }
    }

    /// Display label used in result rows and reports (`TH-05`, `ML10`,
    /// `global@4`, `resilient-ML05`).
    pub fn label(&self) -> String {
        match self {
            ControllerSpec::Global { idx } => format!("global@{idx}"),
            ControllerSpec::Thermal { relax_c, .. } => {
                format!("TH-{relax_c:02.0}")
            }
            ControllerSpec::Ml { guardband, .. } => {
                format!("ML{:02.0}", guardband * 100.0)
            }
            ControllerSpec::ResilientMl { guardband, .. } => {
                format!("resilient-ML{:02.0}", guardband * 100.0)
            }
        }
    }

    /// Builds a runnable controller instance from this spec.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown feature names or invalid guardbands.
    pub fn build(&self) -> Result<BuiltController> {
        Ok(ControllerFactory::new(self)?.build())
    }
}

/// Builds any number of controllers from one [`ControllerSpec`]: the
/// spec is checked and its model compiled once, and every controller
/// built afterwards shares that model. A serving daemon holds one
/// controller per die; a private copy of ML05's model per die would
/// cost about 0.2 MB each.
#[derive(Debug, Clone)]
pub struct ControllerFactory(Template);

/// A freshly built controller, cloned for each [`ControllerFactory::build`].
#[derive(Debug, Clone)]
enum Template {
    Global(GlobalVfController),
    Thermal(ThermalController),
    Ml(BoreasController),
    ResilientMl(Box<ResilientController<BoreasController>>),
}

impl ControllerFactory {
    /// Checks `spec` and builds the template its controllers are cloned
    /// from.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown feature names or invalid guardbands.
    pub fn new(spec: &ControllerSpec) -> Result<ControllerFactory> {
        let ml = |model: &GbtModel, features: &[String], guardband: f64| {
            let names: Vec<&str> = features.iter().map(String::as_str).collect();
            let fs = FeatureSet::from_names(&names)?;
            BoreasController::try_new(model.clone(), fs, guardband)
        };
        Ok(ControllerFactory(match spec {
            ControllerSpec::Global { idx } => Template::Global(GlobalVfController::new(*idx)),
            ControllerSpec::Thermal {
                thresholds,
                relax_c,
            } => Template::Thermal(ThermalController::from_thresholds(
                thresholds.clone(),
                *relax_c,
            )),
            ControllerSpec::Ml {
                model,
                features,
                guardband,
            } => Template::Ml(ml(model, features, *guardband)?),
            ControllerSpec::ResilientMl {
                model,
                features,
                guardband,
                fallback,
                safe_idx,
            } => Template::ResilientMl(Box::new(ResilientController::new(
                ml(model, features, *guardband)?,
                ThermalController::from_thresholds(fallback.clone(), 0.0),
                *safe_idx,
            ))),
        }))
    }

    /// A new controller instance, in the state a freshly built one has.
    pub fn build(&self) -> BuiltController {
        match &self.0 {
            Template::Global(c) => BuiltController::Simple(Box::new(c.clone())),
            Template::Thermal(c) => BuiltController::Simple(Box::new(c.clone())),
            Template::Ml(c) => BuiltController::Simple(Box::new(c.clone())),
            Template::ResilientMl(c) => BuiltController::Resilient(c.clone()),
        }
    }
}

/// A controller instance built from a [`ControllerSpec`], owned by one
/// worker thread and reused across jobs.
pub enum BuiltController {
    /// Any plain controller behind the trait object.
    Simple(Box<dyn Controller + Send>),
    /// The resilient wrapper is kept concrete so its degradation log can
    /// be inspected after a run.
    Resilient(Box<ResilientController<BoreasController>>),
}

impl BuiltController {
    /// The controller as a trait object for the closed-loop runner.
    pub fn as_controller(&mut self) -> &mut dyn Controller {
        match self {
            BuiltController::Simple(c) => c.as_mut(),
            BuiltController::Resilient(r) => r.as_mut(),
        }
    }

    /// Worst degradation stage reached during the last run (resilient
    /// controllers only).
    pub fn worst_stage(&self) -> Option<ControlStage> {
        match self {
            BuiltController::Simple(_) => None,
            BuiltController::Resilient(r) => {
                let log = r.log();
                Some(if log.intervals_in(ControlStage::Safe) > 0 {
                    ControlStage::Safe
                } else if log.intervals_in(ControlStage::Fallback) > 0 {
                    ControlStage::Fallback
                } else {
                    ControlStage::Primary
                })
            }
        }
    }
}

/// One fault configuration applied to a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// Display label (e.g. `"stuck@0.25"`).
    pub label: String,
    /// The injection plan.
    pub plan: FaultPlan,
}

common::json_codec! { struct FaultCell { label, plan } }

impl FaultCell {
    /// A labelled fault cell.
    pub fn new(label: impl Into<String>, plan: FaultPlan) -> Self {
        FaultCell {
            label: label.into(),
            plan,
        }
    }
}

/// What a scenario's jobs actually do.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Run every workload at every VF point for `steps` steps at a fixed
    /// operating point (the Fig. 2 grid).
    SeveritySweep,
    /// Run every (workload × fault × controller) combination through the
    /// closed control loop.
    ClosedLoop {
        /// Starting VF index.
        start_idx: usize,
        /// Sensor used for observation (`usize::MAX` = hottest).
        sensor_idx: usize,
        /// Controllers to evaluate.
        controllers: Vec<ControllerSpec>,
        /// Fault cells; empty means a single unfaulted run per
        /// (workload × controller) pair.
        faults: Vec<FaultCell>,
    },
}

common::json_codec! {
    enum ScenarioKind {
        SeveritySweep = "SeveritySweep",
        ClosedLoop { start_idx, sensor_idx, controllers, faults } = "ClosedLoop",
    }
}

/// A fully specified experiment: workloads × VF table × steps × kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name, echoed in the [`crate::SessionReport`].
    pub name: String,
    /// Workloads, in result-row order.
    pub workloads: Vec<WorkloadSpec>,
    /// The VF operating-point table.
    pub vf: VfTable,
    /// Steps per run (closed-loop scenarios: a positive multiple of the
    /// 12-step decision interval).
    pub steps: usize,
    /// Sweep or closed-loop, with kind-specific parameters.
    pub kind: ScenarioKind,
}

common::json_codec! { struct Scenario { name, workloads, vf, steps, kind } }

/// Reference to one expanded job, by index into the scenario's vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobRef {
    /// Fixed-frequency run: `workloads[w]` at `vf.point(vf_idx)`.
    Fixed { w: usize, vf_idx: usize },
    /// Closed-loop run: `workloads[w]` under `controllers[ctrl]`, with
    /// `faults[fault]` injected when present.
    Loop {
        w: usize,
        ctrl: usize,
        fault: Option<usize>,
    },
}

impl Scenario {
    /// A Fig. 2-style severity sweep over the full workload × VF grid.
    pub fn severity_sweep(
        name: impl Into<String>,
        workloads: Vec<WorkloadSpec>,
        vf: VfTable,
        steps: usize,
    ) -> Self {
        Scenario {
            name: name.into(),
            workloads,
            vf,
            steps,
            kind: ScenarioKind::SeveritySweep,
        }
    }

    /// A closed-loop scenario with the paper defaults: start at the
    /// 3.75 GHz baseline index and observe the hottest sensor.
    pub fn closed_loop(
        name: impl Into<String>,
        workloads: Vec<WorkloadSpec>,
        vf: VfTable,
        steps: usize,
        controllers: Vec<ControllerSpec>,
    ) -> Self {
        let start_idx = VfTable::BASELINE_INDEX.min(vf.len().saturating_sub(1));
        Scenario {
            name: name.into(),
            workloads,
            vf,
            steps,
            kind: ScenarioKind::ClosedLoop {
                start_idx,
                sensor_idx: telemetry::MAX_SENSOR_BANK,
                controllers,
                faults: Vec::new(),
            },
        }
    }

    /// Overrides the starting VF index (closed-loop only; no-op for
    /// sweeps).
    #[must_use]
    pub fn with_start(mut self, idx: usize) -> Self {
        if let ScenarioKind::ClosedLoop { start_idx, .. } = &mut self.kind {
            *start_idx = idx;
        }
        self
    }

    /// Overrides the observed sensor (closed-loop only; no-op for
    /// sweeps).
    #[must_use]
    pub fn with_sensor(mut self, idx: usize) -> Self {
        if let ScenarioKind::ClosedLoop { sensor_idx, .. } = &mut self.kind {
            *sensor_idx = idx;
        }
        self
    }

    /// Attaches fault cells (closed-loop only; no-op for sweeps).
    #[must_use]
    pub fn with_faults(mut self, cells: Vec<FaultCell>) -> Self {
        if let ScenarioKind::ClosedLoop { faults, .. } = &mut self.kind {
            *faults = cells;
        }
        self
    }

    /// Validates the scenario before expansion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for empty workload/controller
    /// sets, out-of-range indices, or a closed-loop step count that is
    /// not a positive multiple of the 12-step decision interval, and
    /// propagates fault-plan validation failures.
    pub fn validate(&self) -> Result<()> {
        if self.workloads.is_empty() {
            return Err(Error::invalid_config("scenario", "no workloads"));
        }
        if self.vf.is_empty() {
            return Err(Error::invalid_config("scenario", "empty VF table"));
        }
        if self.steps == 0 {
            return Err(Error::invalid_config("scenario", "steps must be positive"));
        }
        if let ScenarioKind::ClosedLoop {
            start_idx,
            controllers,
            faults,
            ..
        } = &self.kind
        {
            if controllers.is_empty() {
                return Err(Error::invalid_config("scenario", "no controllers"));
            }
            if *start_idx >= self.vf.len() {
                return Err(Error::invalid_config(
                    "scenario",
                    format!(
                        "start index {start_idx} out of range for {}-point VF table",
                        self.vf.len()
                    ),
                ));
            }
            if !self.steps.is_multiple_of(12) {
                return Err(Error::invalid_config(
                    "scenario",
                    format!(
                        "steps must be a positive multiple of 12 (one decision interval), got {}",
                        self.steps
                    ),
                ));
            }
            for cell in faults {
                cell.plan.validate()?;
            }
        }
        Ok(())
    }

    /// Expands the scenario into its job list.
    ///
    /// The order is part of the engine contract (results are returned in
    /// this order): sweeps iterate workload-major then VF index;
    /// closed-loop scenarios iterate workload, then fault cell, then
    /// controller.
    pub(crate) fn jobs(&self) -> Vec<JobRef> {
        match &self.kind {
            ScenarioKind::SeveritySweep => {
                let mut out = Vec::with_capacity(self.workloads.len() * self.vf.len());
                for w in 0..self.workloads.len() {
                    for vf_idx in 0..self.vf.len() {
                        out.push(JobRef::Fixed { w, vf_idx });
                    }
                }
                out
            }
            ScenarioKind::ClosedLoop {
                controllers,
                faults,
                ..
            } => {
                let cells = faults.len().max(1);
                let mut out = Vec::with_capacity(self.workloads.len() * cells * controllers.len());
                for w in 0..self.workloads.len() {
                    if faults.is_empty() {
                        for ctrl in 0..controllers.len() {
                            out.push(JobRef::Loop {
                                w,
                                ctrl,
                                fault: None,
                            });
                        }
                    } else {
                        for fault in 0..faults.len() {
                            for ctrl in 0..controllers.len() {
                                out.push(JobRef::Loop {
                                    w,
                                    ctrl,
                                    fault: Some(fault),
                                });
                            }
                        }
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_workloads() -> Vec<WorkloadSpec> {
        WorkloadSpec::test_set().into_iter().take(2).collect()
    }

    #[test]
    fn sweep_expansion_is_workload_major() {
        let s = Scenario::severity_sweep("t", two_workloads(), VfTable::paper(), 24);
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 2 * VfTable::paper().len());
        assert_eq!(jobs[0], JobRef::Fixed { w: 0, vf_idx: 0 });
        assert_eq!(jobs[1], JobRef::Fixed { w: 0, vf_idx: 1 });
        assert_eq!(
            jobs[VfTable::paper().len()],
            JobRef::Fixed { w: 1, vf_idx: 0 }
        );
    }

    #[test]
    fn closed_loop_expansion_orders_workload_fault_controller() {
        let ctrls = vec![ControllerSpec::global(3), ControllerSpec::global(4)];
        let cells = vec![
            FaultCell::new("a", FaultPlan::new(1)),
            FaultCell::new("b", FaultPlan::new(2)),
        ];
        let s = Scenario::closed_loop("t", two_workloads(), VfTable::paper(), 24, ctrls)
            .with_faults(cells);
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 2 * 2 * 2);
        assert_eq!(
            jobs[0],
            JobRef::Loop {
                w: 0,
                ctrl: 0,
                fault: Some(0)
            }
        );
        assert_eq!(
            jobs[1],
            JobRef::Loop {
                w: 0,
                ctrl: 1,
                fault: Some(0)
            }
        );
        assert_eq!(
            jobs[2],
            JobRef::Loop {
                w: 0,
                ctrl: 0,
                fault: Some(1)
            }
        );
        assert_eq!(
            jobs[4],
            JobRef::Loop {
                w: 1,
                ctrl: 0,
                fault: Some(0)
            }
        );
    }

    #[test]
    fn no_faults_means_one_unfaulted_cell() {
        let ctrls = vec![ControllerSpec::global(3)];
        let s = Scenario::closed_loop("t", two_workloads(), VfTable::paper(), 24, ctrls);
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 2);
        assert!(jobs
            .iter()
            .all(|j| matches!(j, JobRef::Loop { fault: None, .. })));
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let vf = VfTable::paper();
        let s = Scenario::severity_sweep("t", Vec::new(), vf.clone(), 24);
        assert!(s.validate().is_err(), "no workloads");

        let s = Scenario::closed_loop(
            "t",
            two_workloads(),
            vf.clone(),
            13,
            vec![ControllerSpec::global(0)],
        );
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("multiple of 12"), "got: {err}");

        let s = Scenario::closed_loop("t", two_workloads(), vf.clone(), 24, Vec::new());
        assert!(s.validate().is_err(), "no controllers");

        let s = Scenario::closed_loop(
            "t",
            two_workloads(),
            vf.clone(),
            24,
            vec![ControllerSpec::global(0)],
        )
        .with_start(vf.len());
        assert!(s.validate().is_err(), "start out of range");
    }

    #[test]
    fn labels_follow_paper_naming() {
        assert_eq!(ControllerSpec::global(4).label(), "global@4");
        assert_eq!(ControllerSpec::thermal(vec![None], 5.0).label(), "TH-05");
        assert_eq!(ControllerSpec::thermal(vec![None], 0.0).label(), "TH-00");
    }
}
