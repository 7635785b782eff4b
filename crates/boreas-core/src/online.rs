//! The online control-loop API: push telemetry frames in, get V/f
//! decisions out.
//!
//! Boreas is a *runtime* mitigation method — the paper's controller
//! consumes hardware telemetry each 960 µs control interval and issues
//! V/f decisions online. [`OnlineController`] is that loop extracted
//! from the offline harness: it owns the controller state (the
//! interval window, the operating-point index, the sensor selector)
//! but no pipeline. Any frame source can drive it:
//!
//! * the simulator — [`crate::RunSpec::run`] is a thin replay driver
//!   over this type, so offline results are bit-identical to a
//!   frame-by-frame replay;
//! * a socket — `boreas-serve` keeps one `OnlineController` per die
//!   id and decodes each incoming frame straight into its die's window
//!   ([`OnlineController::observe_with`]);
//! * anything else that can produce [`hotgauge::StepRecord`]s.
//!
//! The contract is [`OnlineController::observe`]: feed one frame per
//! 80 µs step; every [`STEPS_PER_DECISION`]-th frame completes an
//! interval and yields a [`ControlDecision`] for the *next* interval.
//! Between decisions the caller keeps running at
//! [`OnlineController::current_point`].

use crate::controller::{ControlContext, ControlDiagnostics, Controller, Decision};
use crate::vf::{VfPoint, VfTable};
use common::time::STEPS_PER_DECISION;
use common::{Error, Result};
use hotgauge::StepRecord;

/// One 80 µs step of telemetry on the wire: a routing key plus the
/// observable step record.
///
/// This is the canonical streaming unit shared by the serving daemon,
/// the load generator and the replay tests — its binary encoding in
/// `boreas_serve::protocol` round-trips every `f64` bit-exactly, so a
/// frame that crossed a socket decides identically to one that never
/// left the process.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Which independent control loop this frame belongs to (die or
    /// socket id); the serving daemon keys its die table on it.
    pub shard: u32,
    /// Monotonic per-shard sequence number, assigned by the sender.
    pub seq: u64,
    /// The observable telemetry of one step.
    pub record: StepRecord,
}

impl TelemetryFrame {
    /// Wraps a step record for shard `shard` with sequence number `seq`.
    pub fn new(shard: u32, seq: u64, record: StepRecord) -> Self {
        Self { shard, seq, record }
    }
}

/// One decision issued by an [`OnlineController`]: everything the
/// offline runner knows at a decision boundary, in serialisable form —
/// the wire protocol, the flight recorder and the replay driver all
/// consume this one type.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// Zero-based index of the completed interval that triggered this
    /// decision.
    pub interval: u64,
    /// VF index in effect during the completed interval.
    pub from_idx: usize,
    /// VF index chosen for the next interval.
    pub to_idx: usize,
    /// The direction of the move (`to_idx` relative to `from_idx`).
    pub decision: Decision,
    /// Frequency of the chosen point, GHz.
    pub frequency_ghz: f64,
    /// Voltage of the chosen point, V.
    pub voltage_v: f64,
    /// The controller's self-reported diagnostics for this decision.
    pub diagnostics: ControlDiagnostics,
}

common::json_codec! {
    struct ControlDecision {
        interval, from_idx, to_idx, decision, frequency_ghz, voltage_v, diagnostics,
    }
}

/// A push-based control loop around any [`Controller`].
///
/// Owns exactly the state the offline runner used to own inline: the
/// VF table, the sensor selector, the current operating-point index
/// and the window of the interval being accumulated. It never touches
/// a pipeline — frames come from whoever calls
/// [`OnlineController::observe`].
///
/// The window is [`STEPS_PER_DECISION`] record slots, made on the
/// loop's first interval and refilled in place after that: a frame
/// source that writes into the next slot
/// ([`OnlineController::observe_with`]) reuses the slot's buffers, so
/// a loop past its first interval observes and decides without
/// allocating (given a controller that does not allocate).
///
/// ```no_run
/// # use boreas_core::{OnlineController, GlobalVfController, VfTable};
/// # fn demo(frames: Vec<boreas_core::TelemetryFrame>) -> common::Result<()> {
/// let ctrl = GlobalVfController::new(VfTable::BASELINE_INDEX);
/// let mut online = OnlineController::new(ctrl, VfTable::paper())?;
/// for frame in frames {
///     if let Some(d) = online.observe(&frame) {
///         println!("interval {} -> {:.2} GHz", d.interval, d.frequency_ghz);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnlineController<C> {
    controller: C,
    vf: VfTable,
    sensor_idx: usize,
    start_idx: usize,
    current_idx: usize,
    /// Record slots of the interval being accumulated; the first
    /// `filled` hold its frames, oldest first.
    window: Vec<StepRecord>,
    filled: usize,
    frames: u64,
    intervals: u64,
}

impl<C: Controller> OnlineController<C> {
    /// Wraps `controller` over `vf` with the paper defaults: the
    /// bank-maximum sensor selector and the 3.75 GHz baseline start
    /// index. The controller's per-run state is reset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the VF table cannot supply
    /// the baseline start index (see [`OnlineController::start`] to
    /// choose another).
    pub fn new(controller: C, vf: VfTable) -> Result<Self> {
        let start_idx = VfTable::BASELINE_INDEX.min(vf.len().saturating_sub(1));
        if vf.is_empty() {
            return Err(Error::invalid_config("online", "empty VF table"));
        }
        let mut this = Self {
            controller,
            vf,
            sensor_idx: telemetry::MAX_SENSOR_BANK,
            start_idx,
            current_idx: start_idx,
            window: Vec::with_capacity(STEPS_PER_DECISION as usize),
            filled: 0,
            frames: 0,
            intervals: 0,
        };
        this.reset();
        Ok(this)
    }

    /// Overrides the sensor selector the controller reads.
    #[must_use]
    pub fn sensor(mut self, sensor_idx: usize) -> Self {
        self.sensor_idx = sensor_idx;
        self
    }

    /// Overrides the VF index the loop starts at (also the index
    /// [`OnlineController::reset`] returns to).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range index.
    pub fn start(mut self, start_idx: usize) -> Result<Self> {
        if start_idx >= self.vf.len() {
            return Err(Error::invalid_config(
                "online",
                format!("start index {start_idx} out of range"),
            ));
        }
        self.start_idx = start_idx;
        self.current_idx = start_idx;
        Ok(self)
    }

    /// The VF table the loop decides over.
    pub fn vf_table(&self) -> &VfTable {
        &self.vf
    }

    /// The VF index in effect for the interval being accumulated.
    pub fn current_idx(&self) -> usize {
        self.current_idx
    }

    /// The operating point in effect for the interval being accumulated.
    pub fn current_point(&self) -> VfPoint {
        self.vf.point(self.current_idx)
    }

    /// Frames observed since construction or the last reset.
    pub fn frames_observed(&self) -> u64 {
        self.frames
    }

    /// Decisions issued since construction or the last reset.
    pub fn intervals_decided(&self) -> u64 {
        self.intervals
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Clears all per-run state: the window, the frame/interval counts,
    /// the operating point (back to the start index) and the wrapped
    /// controller's own state.
    pub fn reset(&mut self) {
        self.controller.reset();
        self.filled = 0;
        self.frames = 0;
        self.intervals = 0;
        self.current_idx = self.start_idx;
    }

    /// Feeds one telemetry frame into the loop.
    ///
    /// Returns `Some` when the frame completes a
    /// [`STEPS_PER_DECISION`]-step interval: the wrapped controller
    /// decides on exactly the window the offline runner would have
    /// shown it, the loop adopts the chosen index, and the decision is
    /// returned for the caller to act on (route back to the client,
    /// apply to the simulator, log). Shard routing is the caller's job;
    /// the loop reads only `frame.record`.
    pub fn observe(&mut self, frame: &TelemetryFrame) -> Option<ControlDecision> {
        self.observe_record(frame.record.clone())
    }

    /// [`OnlineController::observe`] for an in-process record, without
    /// the wire envelope (the replay driver's entry point).
    pub fn observe_record(&mut self, record: StepRecord) -> Option<ControlDecision> {
        self.observe_with(|slot| *slot = record)
    }

    /// Feeds one frame by writing it into the window's next slot: `fill`
    /// receives that slot holding whatever record it held last (a blank
    /// [`StepRecord::default`] on the loop's first interval) and must
    /// overwrite every field. Otherwise as
    /// [`OnlineController::observe`].
    pub fn observe_with(&mut self, fill: impl FnOnce(&mut StepRecord)) -> Option<ControlDecision> {
        if self.filled == self.window.len() {
            self.window.push(StepRecord::default());
        }
        fill(&mut self.window[self.filled]);
        self.filled += 1;
        self.frames += 1;
        if self.filled < STEPS_PER_DECISION as usize {
            return None;
        }
        self.filled = 0;
        let from_idx = self.current_idx;
        let ctx = ControlContext::new(&self.vf, from_idx, &self.window, self.sensor_idx);
        let to_idx = self.controller.decide(&ctx);
        debug_assert!(to_idx < self.vf.len());
        let diagnostics = self.controller.diagnostics();
        self.current_idx = to_idx;
        let interval = self.intervals;
        self.intervals += 1;
        let point = self.vf.point(to_idx);
        Some(ControlDecision {
            interval,
            from_idx,
            to_idx,
            decision: match to_idx.cmp(&from_idx) {
                std::cmp::Ordering::Greater => Decision::StepUp,
                std::cmp::Ordering::Equal => Decision::Hold,
                std::cmp::Ordering::Less => Decision::StepDown,
            },
            frequency_ghz: point.frequency.value(),
            voltage_v: point.voltage.value(),
            diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{GlobalVfController, ThermalController};
    use common::units::{GigaHertz, Volts};
    use workloads::WorkloadSpec;

    fn make_records(n: usize) -> Vec<StepRecord> {
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
        let p = cfg.build().unwrap();
        let spec = WorkloadSpec::by_name("gcc").unwrap();
        p.run_fixed(&spec, GigaHertz::new(3.75), Volts::new(0.925), n)
            .unwrap()
            .records
    }

    #[test]
    fn decision_cadence_is_one_per_interval() {
        let records = make_records(36);
        let mut online =
            OnlineController::new(GlobalVfController::new(7), VfTable::paper()).unwrap();
        let mut decisions = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let d = online.observe(&TelemetryFrame::new(0, i as u64, r.clone()));
            if (i + 1) % 12 == 0 {
                decisions.push(d.expect("interval boundary"));
            } else {
                assert!(d.is_none(), "frame {i} must not decide");
            }
        }
        assert_eq!(decisions.len(), 3);
        assert_eq!(online.frames_observed(), 36);
        assert_eq!(online.intervals_decided(), 3);
        for (k, d) in decisions.iter().enumerate() {
            assert_eq!(d.interval, k as u64);
            assert_eq!(d.from_idx, 7);
            assert_eq!(d.to_idx, 7);
            assert_eq!(d.decision, Decision::Hold);
            assert_eq!(d.frequency_ghz, 3.75);
        }
    }

    #[test]
    fn loop_applies_decisions_to_its_operating_point() {
        let records = make_records(24);
        // Threshold below any reading: every decision steps down.
        let ctrl = ThermalController::from_thresholds(vec![Some(10.0); 13], 0.0);
        let mut online = OnlineController::new(ctrl, VfTable::paper())
            .unwrap()
            .start(9)
            .unwrap();
        assert_eq!(online.current_idx(), 9);
        for r in &records[..12] {
            online.observe_record(r.clone());
        }
        assert_eq!(online.current_idx(), 8, "stepped down after interval 0");
        for r in &records[12..] {
            online.observe_record(r.clone());
        }
        assert_eq!(online.current_idx(), 7, "stepped down after interval 1");
    }

    #[test]
    fn reset_returns_to_start_and_clears_counts() {
        let records = make_records(12);
        let ctrl = ThermalController::from_thresholds(vec![Some(10.0); 13], 0.0);
        let mut online = OnlineController::new(ctrl, VfTable::paper())
            .unwrap()
            .start(9)
            .unwrap();
        for r in &records {
            online.observe_record(r.clone());
        }
        assert_eq!(online.current_idx(), 8);
        online.reset();
        assert_eq!(online.current_idx(), 9);
        assert_eq!(online.frames_observed(), 0);
        assert_eq!(online.intervals_decided(), 0);
    }

    #[test]
    fn constructors_validate() {
        let vf = VfTable::paper();
        assert!(
            OnlineController::new(GlobalVfController::new(0), vf.clone())
                .unwrap()
                .start(99)
                .is_err(),
            "out-of-range start index"
        );
        assert!(OnlineController::new(GlobalVfController::new(0), vf)
            .unwrap()
            .start(12)
            .is_ok());
    }
}
