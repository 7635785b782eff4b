//! The frequency controllers the paper evaluates.

use crate::vf::VfTable;
use common::units::GigaHertz;
use common::{Error, Result};
use gbt::GbtModel;
use hotgauge::StepRecord;
use std::sync::Arc;
use telemetry::FeatureSet;

/// What a controller chose to do at a decision boundary (diagnostics).
///
/// Serialisable: this is the canonical decision type shared by the
/// closed-loop runner, the flight recorder and the serving wire protocol
/// (`boreas-serve`) — no per-layer mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Raise frequency one 250 MHz step.
    StepUp,
    /// Keep the current operating point.
    Hold,
    /// Lower frequency one 250 MHz step.
    StepDown,
}

common::json_codec! { enum Decision { StepUp = "step_up", Hold = "hold", StepDown = "step_down" } }

/// Context handed to a controller at each 960 µs decision boundary.
///
/// Only *observable* state is exposed: the delayed sensor readings and
/// the interval's telemetry. True die temperatures and severities are
/// oracle knowledge and deliberately absent. Fields are private —
/// external frame sources (the online controller, `boreas-serve`) build
/// contexts through [`ControlContext::new`] and never reach into
/// pipeline internals.
#[derive(Debug)]
pub struct ControlContext<'a> {
    /// The legal operating points.
    vf: &'a VfTable,
    /// Index of the point used during the last interval.
    current_idx: usize,
    /// The 12 step records of the last interval (oldest first). Severity
    /// fields are present for *accounting*; controllers must not read
    /// them.
    recent: &'a [StepRecord],
    /// Which sensor the controller may read.
    sensor_idx: usize,
}

impl<'a> ControlContext<'a> {
    /// Builds a decision context from an interval's observed frames and
    /// the index of the operating point they ran at.
    ///
    /// `recent` is oldest-first; `sensor_idx` selects which sensor the
    /// controller may read ([`telemetry::MAX_SENSOR_BANK`] for the bank
    /// maximum).
    pub fn new(
        vf: &'a VfTable,
        current_idx: usize,
        recent: &'a [StepRecord],
        sensor_idx: usize,
    ) -> Self {
        debug_assert!(current_idx < vf.len(), "current index out of VF range");
        Self {
            vf,
            current_idx,
            recent,
            sensor_idx,
        }
    }

    /// The legal operating points.
    pub fn vf(&self) -> &'a VfTable {
        self.vf
    }

    /// Index of the point used during the last interval.
    pub fn current_idx(&self) -> usize {
        self.current_idx
    }

    /// The step records of the last interval (oldest first).
    pub fn recent(&self) -> &'a [StepRecord] {
        self.recent
    }

    /// Which sensor the controller may read by default.
    pub fn sensor_idx(&self) -> usize {
        self.sensor_idx
    }

    /// The newest step record of the interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty (the runner never does this).
    pub fn last_record(&self) -> &StepRecord {
        self.recent.last().expect("non-empty interval")
    }

    /// The delayed temperature of a specific sensor selector.
    pub fn sensor_temp_at(&self, sensor_idx: usize) -> f64 {
        telemetry::observed_temperature(self.last_record(), sensor_idx)
    }
}

/// What a controller can tell the flight recorder about its most recent
/// decision. Every field is optional: simple controllers report nothing,
/// Boreas reports its prediction and guardband, resilient wrappers add
/// their stage and telemetry quality. Serialisable so the serving wire
/// protocol and the flight recorder share it verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControlDiagnostics {
    /// ML severity prediction backing the decision.
    pub predicted_severity: Option<f64>,
    /// Guardband in effect.
    pub guardband: Option<f64>,
    /// Resilience stage after the decision.
    pub stage: Option<crate::resilient::ControlStage>,
    /// Telemetry quality of the interval the decision was based on.
    pub quality: Option<f64>,
}

common::json_codec! { struct ControlDiagnostics { predicted_severity, guardband, stage, quality } }

/// A voltage/frequency selection policy.
pub trait Controller {
    /// Display name (e.g. `"TH-05"`, `"ML05"`).
    fn name(&self) -> String;

    /// Chooses the VF index for the next interval.
    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize;

    /// Clears any per-run state (none by default).
    fn reset(&mut self) {}

    /// Diagnostics for the most recent [`Controller::decide`] call
    /// (nothing by default). The runner reads this right after each
    /// decision to populate the flight recorder.
    fn diagnostics(&self) -> ControlDiagnostics {
        ControlDiagnostics::default()
    }
}

impl<T: Controller + ?Sized> Controller for &mut T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
        (**self).decide(ctx)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn diagnostics(&self) -> ControlDiagnostics {
        (**self).diagnostics()
    }
}

impl<T: Controller + ?Sized> Controller for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
        (**self).decide(ctx)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn diagnostics(&self) -> ControlDiagnostics {
        (**self).diagnostics()
    }
}

/// §III-C: the single globally safe VF limit (3.75 GHz); never moves.
#[derive(Debug, Clone)]
pub struct GlobalVfController {
    idx: usize,
}

impl GlobalVfController {
    /// Creates the controller pinned at `idx` (use the sweep table's
    /// [`crate::SweepTable::global_safe_index`]).
    pub fn new(idx: usize) -> Self {
        Self { idx }
    }
}

impl Controller for GlobalVfController {
    fn name(&self) -> String {
        "global".into()
    }

    fn decide(&mut self, _ctx: &ControlContext<'_>) -> usize {
        self.idx
    }
}

impl Controller for crate::oracle::OracleController {
    fn name(&self) -> String {
        crate::oracle::OracleController::name(self).to_string()
    }

    fn decide(&mut self, _ctx: &ControlContext<'_>) -> usize {
        self.vf_index()
    }
}

/// §III-D / Fig. 4: thermal-threshold control (TH-δ).
///
/// Thresholds are the global critical temperatures measured on the
/// training set; `relax_c` is the TH-05/TH-10 relaxation in degrees. The
/// controller steps down when the sensor reaches the current point's
/// threshold and steps up when the sensor is below the higher point's
/// threshold minus a hold-back margin.
#[derive(Debug, Clone)]
pub struct ThermalController {
    /// Per-VF-index temperature thresholds (°C); `None` = unconstrained.
    thresholds: Vec<Option<f64>>,
    /// Threshold relaxation in degrees (0, 5, 10 in the paper).
    relax_c: f64,
    /// Hysteresis margin for stepping up, °C.
    up_margin_c: f64,
    /// Which sensor the thresholds were calibrated against (the paper's
    /// thermal models read sensor 3, near the ALUs).
    sensor_idx: usize,
}

impl ThermalController {
    /// Builds a controller from explicit thresholds, reading the paper's
    /// default sensor (tsens03).
    pub fn from_thresholds(thresholds: Vec<Option<f64>>, relax_c: f64) -> Self {
        Self {
            thresholds,
            relax_c,
            up_margin_c: 2.0,
            sensor_idx: telemetry::DEFAULT_SENSOR_INDEX,
        }
    }

    /// Overrides which sensor the controller reads.
    #[must_use]
    pub fn with_sensor(mut self, sensor_idx: usize) -> Self {
        self.sensor_idx = sensor_idx;
        self
    }

    fn threshold(&self, idx: usize) -> f64 {
        self.thresholds
            .get(idx)
            .copied()
            .flatten()
            .map_or(f64::INFINITY, |t| t + self.relax_c)
    }
}

impl Controller for ThermalController {
    fn name(&self) -> String {
        format!("TH-{:02.0}", self.relax_c)
    }

    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
        let temp = ctx.sensor_temp_at(self.sensor_idx);
        let idx = ctx.current_idx();
        if temp >= self.threshold(idx) {
            return ctx.vf().step_down(idx);
        }
        let up = ctx.vf().step_up(idx);
        if up != idx && temp < self.threshold(up) - self.up_margin_c {
            return up;
        }
        idx
    }
}

/// §IV–V: Boreas — GBT severity prediction over hardware telemetry with a
/// prediction guardband (ML00/ML05/ML10).
///
/// At each decision the controller predicts the next interval's maximum
/// severity from the current feature vector. If the prediction exceeds
/// `1 − guardband` it steps down; otherwise it re-queries the model with
/// the features rescaled to one VF step higher and steps up when that
/// prediction is also below the threshold.
///
/// Cloning is cheap: clones share the model, which is immutable, and
/// start from the original's decision state.
#[derive(Debug, Clone)]
pub struct BoreasController {
    model: Arc<GbtModel>,
    /// The ensemble compiled to the flat SoA layout at construction; all
    /// per-decision queries run on this (bit-identical to the tree walk,
    /// see `gbt::FlatModel`).
    flat: Arc<gbt::FlatModel>,
    features: FeatureSet,
    /// Severity guardband `g`: threshold is `1 − g` (0.0 / 0.05 / 0.10).
    guardband: f64,
    /// Temperature selector for `temperature_sensor_data` — Boreas
    /// consumes the full hardware telemetry, so it defaults to the bank
    /// maximum ([`telemetry::MAX_SENSOR_BANK`]), matching how the model
    /// was trained.
    sensor_idx: usize,
    /// Hold-candidate prediction of the most recent decision, for
    /// [`Controller::diagnostics`].
    last_prediction: Option<f64>,
}

impl BoreasController {
    /// Wraps a trained model, validating the guardband and the feature
    /// schema.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the guardband is outside
    /// `[0, 1)` or the model was trained on differently named features,
    /// and [`Error::ShapeMismatch`] when the model's arity disagrees with
    /// `features`.
    pub fn try_new(model: GbtModel, features: FeatureSet, guardband: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&guardband) {
            return Err(Error::invalid_config(
                "guardband",
                format!("must be in [0, 1), got {guardband}"),
            ));
        }
        let names = features.names();
        if model.feature_names().len() != names.len() {
            return Err(Error::ShapeMismatch {
                what: "model/feature schema",
                expected: names.len(),
                actual: model.feature_names().len(),
            });
        }
        if model.feature_names() != names.as_slice() {
            return Err(Error::invalid_config(
                "features",
                format!(
                    "model/feature schema mismatch: model was trained on {:?}, controller given {:?}",
                    model.feature_names(),
                    names
                ),
            ));
        }
        Ok(Self {
            flat: Arc::new(model.flatten()),
            model: Arc::new(model),
            features,
            guardband,
            sensor_idx: telemetry::MAX_SENSOR_BANK,
            last_prediction: None,
        })
    }

    /// Overrides the temperature selector (must match training).
    #[must_use]
    pub fn with_sensor(mut self, sensor_idx: usize) -> Self {
        self.sensor_idx = sensor_idx;
        self
    }

    /// The severity threshold the controller enforces (`1 − g`).
    pub fn threshold(&self) -> f64 {
        1.0 - self.guardband
    }

    /// The underlying model.
    pub fn model(&self) -> &GbtModel {
        &self.model
    }

    /// Predicted severity for holding the current VF point.
    pub fn predict_hold(&self, ctx: &ControlContext<'_>) -> f64 {
        let vec = self.features.extract(ctx.last_record(), self.sensor_idx);
        self.flat.predict(&vec)
    }

    /// Predicted severity for moving one VF step up.
    pub fn predict_up(&self, ctx: &ControlContext<'_>) -> f64 {
        let rec = ctx.last_record();
        let vec = self.features.extract(rec, self.sensor_idx);
        let up = ctx.vf().step_up(ctx.current_idx());
        let target = ctx.vf().point(up);
        let what_if = self.features.rescale_to_vf(
            &vec,
            GigaHertz::new(rec.frequency.value()),
            target.frequency,
            target.voltage,
        );
        self.flat.predict(&what_if)
    }

    /// Predicted severities for the interval's decision candidates —
    /// `(hold, step-up)` — evaluated in one lockstep ensemble pass
    /// ([`gbt::FlatModel::predict_pair`]) over two feature rows built on
    /// the stack, so a decision allocates nothing. Bit-identical to
    /// [`gbt::FlatModel::predict_batch`] over the two rows.
    pub fn predict_candidates(&self, ctx: &ControlContext<'_>) -> (f64, f64) {
        let rec = ctx.last_record();
        let n = self.features.len();
        let (mut hold, mut what_if) = (
            [0.0; telemetry::MAX_FEATURES],
            [0.0; telemetry::MAX_FEATURES],
        );
        let (hold, what_if) = (&mut hold[..n], &mut what_if[..n]);
        self.features.extract_into(rec, self.sensor_idx, hold);
        let up = ctx.vf().step_up(ctx.current_idx());
        let target = ctx.vf().point(up);
        self.features.rescale_to_vf_into(
            hold,
            GigaHertz::new(rec.frequency.value()),
            target.frequency,
            target.voltage,
            what_if,
        );
        self.flat.predict_pair(hold, what_if)
    }
}

impl Controller for BoreasController {
    fn name(&self) -> String {
        format!("ML{:02.0}", self.guardband * 100.0)
    }

    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
        let threshold = self.threshold();
        let idx = ctx.current_idx();
        let up = ctx.vf().step_up(idx);
        let (hold_pred, up_pred) = self.predict_candidates(ctx);
        self.last_prediction = Some(hold_pred);
        if hold_pred > threshold {
            return ctx.vf().step_down(idx);
        }
        if up != idx && up_pred <= threshold {
            return up;
        }
        idx
    }

    fn reset(&mut self) {
        self.last_prediction = None;
    }

    fn diagnostics(&self) -> ControlDiagnostics {
        ControlDiagnostics {
            predicted_severity: self.last_prediction,
            guardband: Some(self.guardband),
            stage: None,
            quality: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf::VfTable;
    use common::units::Volts;
    use workloads::WorkloadSpec;

    /// Builds a real 12-step interval by running the pipeline briefly.
    fn make_interval(freq: f64, volt: f64) -> Vec<StepRecord> {
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
        let p = cfg.build().unwrap();
        let spec = WorkloadSpec::by_name("gcc").unwrap();
        let out = p
            .run_fixed(&spec, GigaHertz::new(freq), Volts::new(volt), 12)
            .unwrap();
        out.records
    }

    #[test]
    fn global_controller_never_moves() {
        let vf = VfTable::paper();
        let recent = make_interval(3.75, 0.925);
        let mut c = GlobalVfController::new(VfTable::BASELINE_INDEX);
        let ctx = ControlContext::new(&vf, VfTable::BASELINE_INDEX, &recent, 3);
        assert_eq!(c.decide(&ctx), VfTable::BASELINE_INDEX);
        assert_eq!(c.name(), "global");
    }

    #[test]
    fn thermal_controller_steps_down_when_hot() {
        let vf = VfTable::paper();
        let recent = make_interval(4.0, 0.98);
        // Threshold below any plausible sensor reading -> must step down.
        let mut c = ThermalController::from_thresholds(vec![Some(10.0); vf.len()], 0.0);
        let ctx = ControlContext::new(&vf, 8, &recent, 3);
        assert_eq!(c.decide(&ctx), 7);
        assert_eq!(c.name(), "TH-00");
    }

    #[test]
    fn thermal_controller_steps_up_when_cool() {
        let vf = VfTable::paper();
        let recent = make_interval(3.75, 0.925);
        let mut c = ThermalController::from_thresholds(vec![Some(1000.0); vf.len()], 0.0);
        let ctx = ControlContext::new(&vf, 7, &recent, 3);
        assert_eq!(c.decide(&ctx), 8);
    }

    #[test]
    fn thermal_relaxation_shifts_thresholds() {
        let a = ThermalController::from_thresholds(vec![Some(70.0)], 0.0);
        let b = ThermalController::from_thresholds(vec![Some(70.0)], 5.0);
        assert_eq!(a.threshold(0), 70.0);
        assert_eq!(b.threshold(0), 75.0);
        assert_eq!(b.name(), "TH-05");
        // Missing threshold = unconstrained.
        assert_eq!(a.threshold(5), f64::INFINITY);
    }

    #[test]
    fn thermal_top_of_table_holds() {
        let vf = VfTable::paper();
        let recent = make_interval(5.0, 1.4);
        let mut c = ThermalController::from_thresholds(vec![Some(1000.0); vf.len()], 0.0);
        let ctx = ControlContext::new(&vf, 12, &recent, 3);
        assert_eq!(c.decide(&ctx), 12, "cannot step above the table");
    }

    #[test]
    fn boreas_controller_guardband_logic() {
        // Train a trivial model that predicts severity = frequency / 5,
        // so 4.0 GHz -> 0.8, 4.25 -> 0.85, etc.
        let mut d = gbt::Dataset::new(vec!["frequency_ghz".to_string()]);
        for i in 0..200 {
            let f = 2.0 + 3.0 * (i as f64 / 200.0);
            d.push_row(&[f], f / 5.0, (i % 2) as u32).unwrap();
        }
        let model =
            gbt::GbtModel::train(&d, &gbt::GbtParams::default().with_estimators(60)).unwrap();
        let features = FeatureSet::from_names(&["frequency_ghz"]).unwrap();
        let vf = VfTable::paper();
        let recent = make_interval(4.0, 0.98);
        // current_idx 8 = 4.0 GHz
        let ctx = ControlContext::new(&vf, 8, &recent, 3);
        // Guardband 0: threshold 1.0 -> hold prediction 0.8 is fine, up
        // prediction 0.85 is fine -> step up.
        let mut ml00 = BoreasController::try_new(model.clone(), features.clone(), 0.0).unwrap();
        assert_eq!(ml00.decide(&ctx), 9);
        assert_eq!(ml00.name(), "ML00");
        // Guardband 0.18: threshold 0.82 -> hold 0.8 ok, up 0.85 > 0.82
        // -> hold.
        let mut mid = BoreasController::try_new(model.clone(), features.clone(), 0.18).unwrap();
        assert_eq!(mid.decide(&ctx), 8);
        // Guardband 0.25: threshold 0.75 < hold 0.8 -> step down.
        let mut tight = BoreasController::try_new(model, features, 0.25).unwrap();
        assert_eq!(tight.decide(&ctx), 7);
        assert_eq!(tight.name(), "ML25");
    }

    fn tiny_model() -> GbtModel {
        let mut d = gbt::Dataset::new(vec!["frequency_ghz".to_string()]);
        d.push_row(&[4.0], 0.5, 0).unwrap();
        d.push_row(&[4.5], 0.9, 1).unwrap();
        gbt::GbtModel::train(&d, &gbt::GbtParams::default().with_estimators(1)).unwrap()
    }

    #[test]
    fn batched_candidates_match_individual_predictions() {
        let mut d = gbt::Dataset::new(vec!["frequency_ghz".to_string()]);
        for i in 0..200 {
            let f = 2.0 + 3.0 * (i as f64 / 200.0);
            d.push_row(&[f], f / 5.0, (i % 2) as u32).unwrap();
        }
        let model =
            gbt::GbtModel::train(&d, &gbt::GbtParams::default().with_estimators(60)).unwrap();
        let features = FeatureSet::from_names(&["frequency_ghz"]).unwrap();
        let vf = VfTable::paper();
        let recent = make_interval(4.0, 0.98);
        let c = BoreasController::try_new(model, features, 0.05).unwrap();
        for current_idx in [0, 8, vf.len() - 1] {
            let ctx = ControlContext::new(&vf, current_idx, &recent, 3);
            let (hold, up) = c.predict_candidates(&ctx);
            assert_eq!(hold.to_bits(), c.predict_hold(&ctx).to_bits());
            assert_eq!(up.to_bits(), c.predict_up(&ctx).to_bits());
        }
    }

    #[test]
    fn try_new_rejects_invalid_inputs() {
        let features = FeatureSet::from_names(&["frequency_ghz"]).unwrap();
        // Out-of-range guardbands.
        for g in [-0.1, 1.0, 1.5, f64::NAN] {
            let err = BoreasController::try_new(tiny_model(), features.clone(), g).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::InvalidConfig {
                        what: "guardband",
                        ..
                    }
                ),
                "guardband {g}: unexpected error {err}"
            );
        }
        // Arity mismatch.
        let wide = FeatureSet::from_names(&["frequency_ghz", "voltage_v"]).unwrap();
        let err = BoreasController::try_new(tiny_model(), wide, 0.05).unwrap_err();
        assert!(
            matches!(
                err,
                Error::ShapeMismatch {
                    expected: 2,
                    actual: 1,
                    ..
                }
            ),
            "{err}"
        );
        // Same arity, different feature.
        let other = FeatureSet::from_names(&["voltage_v"]).unwrap();
        let err = BoreasController::try_new(tiny_model(), other, 0.05).unwrap_err();
        assert!(
            matches!(
                err,
                Error::InvalidConfig {
                    what: "features",
                    ..
                }
            ),
            "{err}"
        );
        // The happy path still works.
        assert!(BoreasController::try_new(tiny_model(), features, 0.05).is_ok());
    }
}
