//! Graceful degradation under implausible telemetry.
//!
//! [`ResilientController`] wraps any [`Controller`] and stands between it
//! and the raw interval records. Every decision it:
//!
//! 1. **sanitises** the interval — each sensor reading is checked against
//!    [`telemetry::quality`]'s bounds (finite, in physical range, bounded
//!    rate of change versus the last *accepted* reading of that sensor);
//!    implausible readings are replaced by the last-known-good value, and
//!    insane counter blocks by the last sane block;
//! 2. **scores** the interval — the fraction of fully plausible records;
//! 3. **degrades** when the score drops below a floor of 0.75: the inner
//!    (ML) policy is bypassed in favour of a conservative
//!    thermal-threshold fallback, and after 3 consecutive bad intervals a
//!    watchdog forces the global-safe operating point outright;
//! 4. **recovers** to the primary policy as soon as an interval scores
//!    clean again, and
//! 5. **records** every transition in a queryable [`DegradationLog`].
//!
//! The wrapper only ever *reads* telemetry; accounting (incursions, mean
//! frequency) in [`crate::runner`] stays on the true records, so a
//! degraded run is judged against physical reality, not against its own
//! repaired view of it.

use crate::controller::{ControlContext, ControlDiagnostics, Controller, ThermalController};
use common::units::Celsius;
use common::{Error, Result};
use hotgauge::StepRecord;
use perfsim::IntervalCounters;
use std::fmt;
use telemetry::quality::{counters_plausible, reading_plausible};

/// Which policy is currently in charge of the VF decision.
///
/// Serialisable (lower-snake-case tags) because it travels inside
/// [`ControlDiagnostics`] on the serving wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlStage {
    /// The wrapped (ML) controller decides.
    Primary,
    /// Telemetry quality below the floor: the thermal-threshold fallback
    /// decides on sanitised readings.
    Fallback,
    /// Watchdog fired: the global-safe operating point is forced.
    Safe,
}

common::json_codec! {
    enum ControlStage {
        Primary = "primary", Fallback = "fallback", Safe = "safe",
    }
}

impl fmt::Display for ControlStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ControlStage::Primary => "primary",
            ControlStage::Fallback => "thermal-fallback",
            ControlStage::Safe => "global-safe",
        })
    }
}

/// Minimum fraction of plausible records per interval before the primary
/// policy is trusted.
const QUALITY_FLOOR: f64 = 0.75;

/// Consecutive below-floor intervals before the watchdog forces the
/// global-safe point.
const WATCHDOG_K: usize = 3;

/// One stage transition of the degradation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    /// Zero-based decision interval at which the transition happened.
    pub interval: usize,
    /// Stage in charge before the transition.
    pub from: ControlStage,
    /// Stage in charge after the transition.
    pub to: ControlStage,
    /// Telemetry quality of the triggering interval (fraction plausible).
    pub quality: f64,
    /// Human-readable cause.
    pub reason: String,
}

/// Queryable history of the degradation ladder over one run.
#[derive(Debug, Clone, Default)]
pub struct DegradationLog {
    events: Vec<DegradationEvent>,
    intervals: usize,
    anomalous_intervals: usize,
    repaired_readings: usize,
    repaired_counter_blocks: usize,
    intervals_primary: usize,
    intervals_fallback: usize,
    intervals_safe: usize,
}

impl DegradationLog {
    /// Every recorded stage transition, oldest first.
    pub fn events(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// Decision intervals seen so far.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Intervals whose quality fell below the floor.
    pub fn anomalous_intervals(&self) -> usize {
        self.anomalous_intervals
    }

    /// Individual sensor readings replaced by a last-known-good value.
    pub fn repaired_readings(&self) -> usize {
        self.repaired_readings
    }

    /// Counter blocks replaced by the last sane block.
    pub fn repaired_counter_blocks(&self) -> usize {
        self.repaired_counter_blocks
    }

    /// Intervals decided while `stage` was in charge.
    pub fn intervals_in(&self, stage: ControlStage) -> usize {
        match stage {
            ControlStage::Primary => self.intervals_primary,
            ControlStage::Fallback => self.intervals_fallback,
            ControlStage::Safe => self.intervals_safe,
        }
    }

    /// How many times the ladder transitioned *into* `stage`.
    pub fn entered(&self, stage: ControlStage) -> usize {
        self.events.iter().filter(|e| e.to == stage).count()
    }

    /// `Ok(())` when the primary policy was never bypassed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Degraded`] naming the first transition otherwise.
    pub fn require_clean(&self) -> Result<()> {
        match self.events.first() {
            None => Ok(()),
            Some(e) => Err(Error::degraded(
                "controller",
                format!(
                    "interval {}: {} -> {} ({})",
                    e.interval, e.from, e.to, e.reason
                ),
            )),
        }
    }
}

/// A [`Controller`] wrapper implementing the degradation ladder.
///
/// See the [module docs](self) for the behaviour; construct with
/// [`ResilientController::new`].
#[derive(Debug, Clone)]
pub struct ResilientController<C> {
    inner: C,
    fallback: ThermalController,
    safe_idx: usize,
    /// Last accepted reading per sensor, °C.
    last_good: Vec<Option<f64>>,
    last_good_counters: Option<IntervalCounters>,
    consecutive_anomalous: usize,
    stage: ControlStage,
    interval: usize,
    log: DegradationLog,
    /// Quality of the most recent interval, for
    /// [`Controller::diagnostics`].
    last_quality: Option<f64>,
}

impl<C: Controller> ResilientController<C> {
    /// Wraps `inner`, with `fallback` as the degraded policy and
    /// `safe_idx` as the operating point the watchdog forces.
    pub fn new(inner: C, fallback: ThermalController, safe_idx: usize) -> Self {
        Self {
            inner,
            fallback,
            safe_idx,
            last_good: Vec::new(),
            last_good_counters: None,
            consecutive_anomalous: 0,
            stage: ControlStage::Primary,
            interval: 0,
            log: DegradationLog::default(),
            last_quality: None,
        }
    }

    /// The stage currently in charge.
    pub fn stage(&self) -> ControlStage {
        self.stage
    }

    /// The transition history of the current run.
    pub fn log(&self) -> &DegradationLog {
        &self.log
    }

    /// Unwraps the primary controller.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Repairs one record in place; returns `true` when it was fully
    /// plausible before repair.
    fn sanitize(&mut self, record: &mut StepRecord) -> bool {
        let mut clean = true;
        if self.last_good.len() < record.sensor_temps.len() {
            self.last_good.resize(record.sensor_temps.len(), None);
        }
        for (i, t) in record.sensor_temps.iter_mut().enumerate() {
            let v = t.value();
            if reading_plausible(self.last_good[i], v) {
                self.last_good[i] = Some(v);
            } else {
                clean = false;
                self.log.repaired_readings += 1;
                *t = Celsius::new(self.last_good[i].unwrap_or(Celsius::AMBIENT.value()));
            }
        }
        if counters_plausible(&record.counters) {
            self.last_good_counters = Some(record.counters.clone());
        } else {
            clean = false;
            self.log.repaired_counter_blocks += 1;
            if let Some(c) = &self.last_good_counters {
                record.counters = c.clone();
            }
        }
        clean
    }

    /// Applies the ladder for one interval of quality `q`; records any
    /// transition.
    fn advance_stage(&mut self, q: f64) {
        let anomalous = q < QUALITY_FLOOR;
        if anomalous {
            self.log.anomalous_intervals += 1;
            self.consecutive_anomalous += 1;
        } else {
            self.consecutive_anomalous = 0;
        }
        let next = if self.consecutive_anomalous >= WATCHDOG_K {
            ControlStage::Safe
        } else if anomalous {
            ControlStage::Fallback
        } else {
            ControlStage::Primary
        };
        if next != self.stage {
            let reason = match next {
                ControlStage::Primary => format!("telemetry recovered (quality {q:.2})"),
                ControlStage::Fallback => {
                    format!("telemetry quality {q:.2} below floor {QUALITY_FLOOR:.2}")
                }
                ControlStage::Safe => format!(
                    "watchdog: {} consecutive anomalous intervals",
                    self.consecutive_anomalous
                ),
            };
            self.log.events.push(DegradationEvent {
                interval: self.interval,
                from: self.stage,
                to: next,
                quality: q,
                reason,
            });
            self.stage = next;
        }
    }
}

impl<C: Controller> Controller for ResilientController<C> {
    fn name(&self) -> String {
        format!("resilient({})", self.inner.name())
    }

    fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
        let mut sane: Vec<StepRecord> = ctx.recent().to_vec();
        let mut good = 0usize;
        for r in &mut sane {
            if self.sanitize(r) {
                good += 1;
            }
        }
        let quality = if sane.is_empty() {
            1.0
        } else {
            good as f64 / sane.len() as f64
        };
        self.advance_stage(quality);
        self.last_quality = Some(quality);

        self.log.intervals += 1;
        match self.stage {
            ControlStage::Primary => self.log.intervals_primary += 1,
            ControlStage::Fallback => self.log.intervals_fallback += 1,
            ControlStage::Safe => self.log.intervals_safe += 1,
        }
        self.interval += 1;

        let sane_ctx = ControlContext::new(ctx.vf(), ctx.current_idx(), &sane, ctx.sensor_idx());
        match self.stage {
            ControlStage::Primary => self.inner.decide(&sane_ctx),
            ControlStage::Fallback => self.fallback.decide(&sane_ctx),
            ControlStage::Safe => self.safe_idx,
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.fallback.reset();
        self.last_good.clear();
        self.last_good_counters = None;
        self.consecutive_anomalous = 0;
        self.stage = ControlStage::Primary;
        self.interval = 0;
        self.log = DegradationLog::default();
        self.last_quality = None;
    }

    fn diagnostics(&self) -> ControlDiagnostics {
        // Forward the primary's diagnostics only while it decides; a
        // degraded stage's decision carries no ML prediction.
        let mut diag = match self.stage {
            ControlStage::Primary => self.inner.diagnostics(),
            ControlStage::Fallback | ControlStage::Safe => ControlDiagnostics::default(),
        };
        diag.stage = Some(self.stage);
        diag.quality = self.last_quality;
        diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf::VfTable;
    use common::time::SimTime;
    use common::units::{GigaHertz, Volts, Watts};
    use hotgauge::Severity;
    use perfsim::CounterId;

    /// Primary stand-in that records the sensor temperature it was shown
    /// and always asks for a step up.
    #[derive(Debug, Default)]
    struct Probe {
        seen_temps: Vec<f64>,
    }

    impl Controller for Probe {
        fn name(&self) -> String {
            "probe".into()
        }

        fn decide(&mut self, ctx: &ControlContext<'_>) -> usize {
            self.seen_temps.push(ctx.sensor_temp_at(0));
            ctx.vf().step_up(ctx.current_idx())
        }
    }

    fn record(temp: f64, cycles: f64) -> StepRecord {
        let mut counters = IntervalCounters::zeroed();
        counters.set(CounterId::TotalCycles, cycles);
        StepRecord {
            time: SimTime::from_steps(1),
            counters,
            sensor_temps: vec![Celsius::new(temp)],
            max_temp: Celsius::new(temp),
            max_severity: Severity::new(0.2),
            max_severity_raw: 0.2,
            hotspot_xy: (1.0, 1.0),
            total_power: Watts::new(10.0),
            frequency: GigaHertz::new(3.75),
            voltage: Volts::new(0.925),
        }
    }

    fn interval(temps: &[f64]) -> Vec<StepRecord> {
        temps.iter().map(|&t| record(t, 200_000.0)).collect()
    }

    fn fallback() -> ThermalController {
        // Thresholds low enough that the fallback always steps down.
        ThermalController::from_thresholds(vec![Some(-100.0); 13], 0.0).with_sensor(0)
    }

    fn resilient() -> ResilientController<Probe> {
        ResilientController::new(Probe::default(), fallback(), 0)
    }

    fn decide(rc: &mut ResilientController<Probe>, vf: &VfTable, recent: &[StepRecord]) -> usize {
        rc.decide(&ControlContext::new(vf, 7, recent, 0))
    }

    #[test]
    fn isolated_glitch_repaired_primary_stays() {
        let vf = VfTable::paper();
        let mut rc = resilient();
        let mut recent = interval(&[60.0, 60.1, 60.2, 60.3, 60.4, 60.5, 60.6, 60.7]);
        recent[4].sensor_temps[0] = Celsius::new(f64::NAN);
        let idx = decide(&mut rc, &vf, &recent);
        assert_eq!(idx, 8, "primary (step-up probe) stays in charge");
        assert_eq!(rc.stage(), ControlStage::Primary);
        assert_eq!(rc.log().repaired_readings(), 1);
        assert!(rc.log().events().is_empty());
        rc.log().require_clean().unwrap();
        // The probe saw the repaired value, not the NaN.
        assert!(rc.into_inner().seen_temps[0].is_finite());
    }

    #[test]
    fn quality_collapse_falls_back_to_thermal() {
        let vf = VfTable::paper();
        let mut rc = resilient();
        let recent = interval(&[f64::NAN; 8]);
        let idx = decide(&mut rc, &vf, &recent);
        assert_eq!(idx, vf.step_down(7), "fallback TH controller steps down");
        assert_eq!(rc.stage(), ControlStage::Fallback);
        assert_eq!(rc.log().events().len(), 1);
        assert_eq!(rc.log().events()[0].to, ControlStage::Fallback);
        assert!(rc.log().require_clean().is_err());
    }

    #[test]
    fn watchdog_forces_safe_then_recovers() {
        let vf = VfTable::paper();
        let mut rc = resilient();
        let bad = interval(&[f64::NAN; 8]);
        let good = interval(&[60.0; 8]);
        decide(&mut rc, &vf, &good); // establish last-known-good
        decide(&mut rc, &vf, &bad);
        decide(&mut rc, &vf, &bad);
        assert_eq!(rc.stage(), ControlStage::Fallback);
        let idx = decide(&mut rc, &vf, &bad);
        assert_eq!(idx, 0, "watchdog forces the global-safe index");
        assert_eq!(rc.stage(), ControlStage::Safe);
        let idx = decide(&mut rc, &vf, &good);
        assert_eq!(rc.stage(), ControlStage::Primary);
        assert_eq!(idx, 8, "recovery hands control back to the primary");

        let log = rc.log();
        assert_eq!(log.intervals(), 5);
        assert_eq!(log.anomalous_intervals(), 3);
        assert_eq!(log.intervals_in(ControlStage::Primary), 2);
        assert_eq!(log.intervals_in(ControlStage::Fallback), 2);
        assert_eq!(log.intervals_in(ControlStage::Safe), 1);
        assert_eq!(log.entered(ControlStage::Safe), 1);
        let stages: Vec<_> = log.events().iter().map(|e| e.to).collect();
        assert_eq!(
            stages,
            [
                ControlStage::Fallback,
                ControlStage::Safe,
                ControlStage::Primary
            ]
        );
        // Repairs substituted the last-known-good 60 C reading.
        assert_eq!(log.repaired_readings(), 24);
    }

    #[test]
    fn corrupt_counters_are_replaced() {
        let vf = VfTable::paper();
        let mut rc = resilient();
        let good = interval(&[60.0; 8]);
        decide(&mut rc, &vf, &good);
        let mut zeroed = interval(&[60.0; 8]);
        for r in &mut zeroed {
            r.counters = IntervalCounters::zeroed();
        }
        decide(&mut rc, &vf, &zeroed);
        assert_eq!(rc.log().repaired_counter_blocks(), 8);
        assert_eq!(rc.stage(), ControlStage::Fallback);
    }

    #[test]
    fn reset_clears_ladder_state() {
        let vf = VfTable::paper();
        let mut rc = resilient();
        decide(&mut rc, &vf, &interval(&[f64::NAN; 8]));
        assert_eq!(rc.stage(), ControlStage::Fallback);
        rc.reset();
        assert_eq!(rc.stage(), ControlStage::Primary);
        assert_eq!(rc.log().intervals(), 0);
        assert!(rc.log().events().is_empty());
        rc.log().require_clean().unwrap();
    }

    #[test]
    fn stage_display_names() {
        assert_eq!(ControlStage::Primary.to_string(), "primary");
        assert_eq!(ControlStage::Fallback.to_string(), "thermal-fallback");
        assert_eq!(ControlStage::Safe.to_string(), "global-safe");
    }
}
