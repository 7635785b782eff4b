//! Applying a [`FaultPlan`] to live telemetry.
//!
//! [`FaultInjector`] corrupts [`hotgauge::StepRecord`]s and implements
//! [`boreas_core::ObservationFilter`], so a filtered
//! [`boreas_core::RunSpec`] can feed a controller faulty telemetry while
//! its accounting stays on the true records. It replays bit-identically
//! for a given plan because all randomness is derived statelessly from
//! `(seed, fault, step, lane)`.

use crate::plan::{lane, FaultKind, FaultPlan, FaultTarget};
use boreas_core::ObservationFilter;
use common::units::Celsius;
use hotgauge::StepRecord;
use perfsim::{CounterId, IntervalCounters};
use std::collections::VecDeque;

/// Pristine per-step temperature vectors, newest last, bounded to what
/// [`FaultKind::Late`] faults can reach back to.
#[derive(Debug, Clone, Default)]
struct LateBuffer {
    steps: VecDeque<Vec<f64>>,
    cap: usize,
}

impl LateBuffer {
    fn for_plan(plan: &FaultPlan) -> Self {
        Self {
            steps: VecDeque::new(),
            cap: plan.max_late_steps() + 1,
        }
    }

    fn push(&mut self, temps: Vec<f64>) {
        if self.steps.len() == self.cap {
            self.steps.pop_front();
        }
        self.steps.push_back(temps);
    }

    /// The pristine value of `sensor`, `steps_back` pushes ago (clamped
    /// to the oldest retained step; ambient before any push).
    fn stale(&self, sensor: usize, steps_back: usize) -> f64 {
        let newest = match self.steps.len().checked_sub(1) {
            Some(n) => n,
            None => return Celsius::AMBIENT.value(),
        };
        let idx = newest.saturating_sub(steps_back);
        self.steps[idx]
            .get(sensor)
            .copied()
            .unwrap_or(Celsius::AMBIENT.value())
    }

    fn clear(&mut self) {
        self.steps.clear();
    }
}

/// Corrupts the sensor lanes of `temps` with fault `fault_idx` at `step`.
fn apply_sensor_fault(
    plan: &FaultPlan,
    fault_idx: usize,
    step: usize,
    late: &LateBuffer,
    temps: &mut [f64],
) {
    let fault = &plan.faults()[fault_idx];
    for (sensor, t) in temps.iter_mut().enumerate() {
        if !fault.target.covers(sensor) {
            continue;
        }
        // Lane stride 8 keeps per-sensor value streams disjoint from the
        // FIRE and COUNTER lanes.
        let mut rng = plan.stream(fault_idx, step, lane::VALUE + 8 * sensor as u64);
        match fault.kind {
            FaultKind::StuckAt { value_c } => *t = value_c,
            FaultKind::Dropped => *t = f64::NAN,
            FaultKind::Late { steps } => *t = late.stale(sensor, steps),
            FaultKind::Noise { std_c } => *t += rng.normal(0.0, std_c),
            FaultKind::Spike { amplitude_c } => *t += rng.uniform(-amplitude_c, amplitude_c),
            FaultKind::CounterZero | FaultKind::CounterScramble { .. } => {}
        }
    }
}

/// Corrupts the counter block with fault `fault_idx` at `step`.
fn apply_counter_fault(
    plan: &FaultPlan,
    fault_idx: usize,
    step: usize,
    counters: &mut IntervalCounters,
) {
    match plan.faults()[fault_idx].kind {
        FaultKind::CounterZero => *counters = IntervalCounters::zeroed(),
        FaultKind::CounterScramble { fields } => {
            let mut rng = plan.stream(fault_idx, step, lane::COUNTER);
            for _ in 0..fields {
                let id = CounterId::ALL[rng.next_usize(CounterId::ALL.len())];
                let garbage = match rng.next_usize(3) {
                    0 => f64::NAN,
                    1 => -rng.uniform(1.0, 1e9),
                    _ => rng.uniform(1e12, 1e15),
                };
                counters.set(id, garbage);
            }
        }
        _ => {}
    }
}

/// A deterministic [`StepRecord`] corruptor.
///
/// Feed it each step's record in order (the [`ObservationFilter`]
/// contract); sensor temperatures and interval counters are corrupted
/// per the plan while severity/accounting fields are left untouched.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    late: LateBuffer,
    hooks: Option<InjectorHooks>,
}

/// Flight-recorder wiring attached via [`FaultInjector::observe`].
#[derive(Debug, Clone)]
struct InjectorHooks {
    run: obs::RunLog,
    injected: obs::Counter,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let late = LateBuffer::for_plan(&plan);
        Self {
            plan,
            late,
            hooks: None,
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attaches observability: every fault firing counts into
    /// `faults_injected_total` and lands in the flight recorder as a
    /// [`obs::FlightEvent::FaultInjected`] tagged with the given run.
    /// Injection behaviour — which faults fire, and how — is unchanged.
    pub fn observe(&mut self, obs: &obs::Obs, workload: &str, controller: &str) {
        if !obs.is_enabled() {
            self.hooks = None;
            return;
        }
        self.hooks = Some(InjectorHooks {
            run: obs.flight.run(workload, controller),
            injected: obs
                .metrics
                .counter("faults_injected_total", "Telemetry fault firings"),
        });
    }

    /// Corrupts `record` as observed at `step`. Steps must be presented
    /// in increasing order for [`FaultKind::Late`] faults to see the
    /// right history.
    pub fn corrupt(&mut self, step: usize, record: &mut StepRecord) {
        self.late
            .push(record.sensor_temps.iter().map(|t| t.value()).collect());
        let mut temps: Vec<f64> = record.sensor_temps.iter().map(|t| t.value()).collect();
        for fault_idx in self.plan.active_at(step) {
            let fault = &self.plan.faults()[fault_idx];
            if let Some(hooks) = &self.hooks {
                hooks.injected.inc();
                hooks.run.record(obs::FlightEvent::FaultInjected {
                    step,
                    kind: fault.kind.name().to_string(),
                    sensor: match (fault.kind.is_counter_fault(), fault.target) {
                        (true, _) | (false, FaultTarget::AllSensors) => None,
                        (false, FaultTarget::Sensor(s)) => Some(s),
                    },
                });
            }
            if fault.kind.is_counter_fault() {
                apply_counter_fault(&self.plan, fault_idx, step, &mut record.counters);
            } else {
                apply_sensor_fault(&self.plan, fault_idx, step, &self.late, &mut temps);
            }
        }
        for (t, v) in record.sensor_temps.iter_mut().zip(&temps) {
            *t = Celsius::new(*v);
        }
    }
}

impl ObservationFilter for FaultInjector {
    fn filter(&mut self, step_idx: usize, record: &mut StepRecord) {
        self.corrupt(step_idx, record);
    }

    fn reset(&mut self) {
        self.late.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fault;
    use common::time::SimTime;
    use common::units::{GigaHertz, Volts, Watts};
    use hotgauge::Severity;

    fn record(temps: &[f64]) -> StepRecord {
        let mut counters = IntervalCounters::zeroed();
        counters.set(CounterId::TotalCycles, 200_000.0);
        StepRecord {
            time: SimTime::from_steps(1),
            counters,
            sensor_temps: temps.iter().map(|&t| Celsius::new(t)).collect(),
            max_temp: Celsius::new(60.0),
            max_severity: Severity::new(0.2),
            max_severity_raw: 0.2,
            hotspot_xy: (1.0, 1.0),
            total_power: Watts::new(10.0),
            frequency: GigaHertz::new(3.75),
            voltage: Volts::new(0.925),
        }
    }

    #[test]
    fn stuck_at_latches_targeted_sensor() {
        let plan =
            FaultPlan::new(0).with(Fault::new(FaultKind::StuckAt { value_c: 45.0 }).on_sensor(1));
        let mut inj = FaultInjector::new(plan);
        let mut r = record(&[60.0, 61.0, 62.0]);
        inj.corrupt(0, &mut r);
        assert_eq!(r.sensor_temps[0].value(), 60.0);
        assert_eq!(r.sensor_temps[1].value(), 45.0);
        assert_eq!(r.sensor_temps[2].value(), 62.0);
    }

    #[test]
    fn observed_injection_matches_plain_and_records_flight_events() {
        let plan =
            FaultPlan::new(0).with(Fault::new(FaultKind::StuckAt { value_c: 45.0 }).on_sensor(1));
        let mut plain = FaultInjector::new(plan.clone());
        let mut observed = FaultInjector::new(plan);
        let obs = obs::Obs::new();
        observed.observe(&obs, "bzip2", "TH-00");

        for step in 0..3 {
            let mut a = record(&[60.0, 61.0, 62.0]);
            let mut b = record(&[60.0, 61.0, 62.0]);
            plain.corrupt(step, &mut a);
            observed.corrupt(step, &mut b);
            assert_eq!(a.sensor_temps, b.sensor_temps, "step {step}");
        }

        let events = obs.flight.events();
        assert_eq!(events.len(), 3);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.run.workload, "bzip2");
            assert_eq!(ev.run.controller, "TH-00");
            match &ev.event {
                obs::FlightEvent::FaultInjected { step, kind, sensor } => {
                    assert_eq!(*step, i);
                    assert_eq!(kind, "stuck-at");
                    assert_eq!(*sensor, Some(1));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        let snap = obs.metrics.snapshot();
        let fam = snap
            .family("faults_injected_total")
            .expect("counter family");
        assert_eq!(fam.value, obs::MetricValue::Counter(3));

        observed.observe(&obs::Obs::disabled(), "bzip2", "TH-00");
        let mut r = record(&[60.0, 61.0, 62.0]);
        observed.corrupt(3, &mut r);
        assert_eq!(
            obs.flight.events().len(),
            3,
            "detached injector stops recording"
        );
    }

    #[test]
    fn dropped_reading_becomes_nan() {
        let plan = FaultPlan::new(0).with(Fault::new(FaultKind::Dropped));
        let mut inj = FaultInjector::new(plan);
        let mut r = record(&[60.0, 61.0]);
        inj.corrupt(0, &mut r);
        assert!(r.sensor_temps.iter().all(|t| t.value().is_nan()));
    }

    #[test]
    fn late_reading_reports_stale_value() {
        let plan = FaultPlan::new(0).with(Fault::new(FaultKind::Late { steps: 2 }).during(3, 10));
        let mut inj = FaultInjector::new(plan);
        for (step, t) in [60.0, 61.0, 62.0].iter().enumerate() {
            let mut r = record(&[*t]);
            inj.corrupt(step, &mut r);
            assert_eq!(r.sensor_temps[0].value(), *t, "window not yet open");
        }
        let mut r = record(&[63.0]);
        inj.corrupt(3, &mut r);
        assert_eq!(r.sensor_temps[0].value(), 61.0, "value from two steps ago");
    }

    #[test]
    fn noise_and_spikes_are_deterministic() {
        let plan = FaultPlan::new(42)
            .with(Fault::new(FaultKind::Noise { std_c: 2.0 }))
            .with(Fault::new(FaultKind::Spike { amplitude_c: 10.0 }).with_probability(0.4));
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let mut changed = false;
        for step in 0..64 {
            let mut ra = record(&[60.0, 70.0]);
            let mut rb = record(&[60.0, 70.0]);
            a.corrupt(step, &mut ra);
            b.corrupt(step, &mut rb);
            assert_eq!(ra.sensor_temps, rb.sensor_temps, "step {step}");
            changed |= ra.sensor_temps[0].value() != 60.0;
            // Per-sensor lanes: the two sensors get independent noise.
            assert_ne!(
                ra.sensor_temps[0].value() - 60.0,
                ra.sensor_temps[1].value() - 70.0,
                "step {step}: sensor noise streams must differ"
            );
        }
        assert!(changed, "noise must actually perturb readings");
    }

    #[test]
    fn counter_faults_corrupt_the_block() {
        let plan = FaultPlan::new(7)
            .with(Fault::new(FaultKind::CounterZero).during(0, 1))
            .with(Fault::new(FaultKind::CounterScramble { fields: 3 }).during(1, 2));
        let mut inj = FaultInjector::new(plan);
        let mut r = record(&[60.0]);
        inj.corrupt(0, &mut r);
        assert_eq!(r.counters, IntervalCounters::zeroed());
        let mut r = record(&[60.0]);
        let pristine = r.counters.clone();
        inj.corrupt(1, &mut r);
        assert_ne!(r.counters, pristine);
        assert_eq!(r.sensor_temps[0].value(), 60.0, "sensor lanes untouched");
    }

    #[test]
    fn filter_reset_clears_late_history() {
        let plan = FaultPlan::new(0).with(Fault::new(FaultKind::Late { steps: 5 }));
        let mut inj = FaultInjector::new(plan);
        let mut r = record(&[90.0]);
        inj.corrupt(0, &mut r);
        assert_eq!(r.sensor_temps[0].value(), 90.0, "clamps to oldest retained");
        ObservationFilter::reset(&mut inj);
        let mut r = record(&[55.0]);
        inj.corrupt(0, &mut r);
        assert_eq!(r.sensor_temps[0].value(), 55.0, "history gone after reset");
    }
}
