//! The coupled performance → power → thermal → severity simulation loop.

use crate::mltd::{ArgmaxScratch, MltdMap};
use crate::severity::{Severity, SeverityParams};
use common::time::{SimTime, STEP_MICROS};
use common::units::{Celsius, GigaHertz, Volts, Watts};
use common::Result;
use floorplan::{Floorplan, Grid, GridSpec, SensorSite};
use perfsim::{CoreConfig, CoreModel, IntervalCounters};
use powersim::{PowerConfig, PowerModel};
use std::time::Instant;
use thermal::{SensorBank, ThermalConfig, ThermalGrid};
use workloads::{PhaseEngine, WorkloadSpec};

/// Suite-wide power calibration constant baked into
/// [`PipelineConfig::paper`].
///
/// Chosen (see the `calibration` integration test) so that Fig. 2's shape
/// holds: every workload's 12 ms peak severity stays below 1.0 at
/// 3.75 GHz and reaches 1.0 at 5.0 GHz.
pub const PAPER_POWER_SCALE: f64 = 2.0;

/// Configuration of the full simulation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Grid resolution for power/thermal/severity.
    pub grid: GridSpec,
    /// Core micro-architecture parameters.
    pub core: CoreConfig,
    /// Power model parameters.
    pub power: PowerConfig,
    /// Thermal stack parameters.
    pub thermal: ThermalConfig,
    /// Severity surface parameters.
    pub severity: SeverityParams,
    /// Thermal-sensor read-out delay, µs (the paper's default is 960).
    pub sensor_delay_us: f64,
    /// Thermal-sensor quantisation, °C.
    pub sensor_quant_c: f64,
    /// Root seed for the workload phase engines.
    pub seed: u64,
    /// The core floorplan (defaults to the Skylake-like plan; ablations
    /// substitute e.g. [`Floorplan::skylake_like_scaled_fpu`]).
    pub floorplan: Floorplan,
}

common::json_codec! {
    struct PipelineConfig {
        grid, core, power, thermal, severity, sensor_delay_us, sensor_quant_c, seed, floorplan,
    }
}

impl PipelineConfig {
    /// The configuration used throughout the paper's evaluation:
    /// Skylake-like core, default thermal stack, calibrated power scale,
    /// 960 µs sensor delay, severity per Fig. 1.
    pub fn paper() -> Self {
        Self {
            grid: GridSpec::default(),
            core: CoreConfig::skylake_like(),
            power: PowerConfig {
                scale: PAPER_POWER_SCALE,
                ..PowerConfig::default()
            },
            thermal: ThermalConfig::default(),
            severity: SeverityParams::default(),
            sensor_delay_us: 960.0,
            sensor_quant_c: 0.25,
            seed: 0xB0EA5,
            floorplan: Floorplan::skylake_like(),
        }
    }

    /// Builds the pipeline, validating every sub-configuration.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from any subsystem.
    pub fn build(self) -> Result<Pipeline> {
        self.core.validate()?;
        self.power.validate()?;
        self.thermal.validate()?;
        self.severity.validate()?;
        let plan = self.floorplan.clone();
        plan.validate()?;
        let grid = Grid::rasterize(&plan, self.grid)?;
        let core = CoreModel::new(self.core.clone());
        let power = PowerModel::new(&grid, self.power.clone());
        let mltd = MltdMap::new(&grid, self.severity.mltd_radius_mm);
        Ok(Pipeline {
            plan,
            grid,
            core,
            power,
            mltd,
            cfg: self,
        })
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The immutable, shareable part of the simulation pipeline.
///
/// Holds the floorplan, grid rasterisation and the performance/power
/// models; per-run mutable state lives in [`SimRun`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    plan: Floorplan,
    grid: Grid,
    core: CoreModel,
    power: PowerModel,
    mltd: MltdMap,
    cfg: PipelineConfig,
}

/// Cumulative wall-clock time spent in each simulation kernel, in
/// nanoseconds, accumulated by [`SimRun::step`].
///
/// The four buckets partition the step: performance + power modelling,
/// thermal integration, the pruned severity argmax (with the MLTD of the
/// cells it evaluates), and sensor record/read-out. Timing uses
/// monotonic [`Instant`] samples (a few per 80 µs step — negligible
/// against the kernels themselves) and is kept strictly out of
/// simulation results, so runs stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelBreakdown {
    /// Steps accumulated into the totals.
    pub steps: u64,
    /// Performance counters + power-map construction.
    pub perf_power_ns: u64,
    /// Thermal explicit-Euler integration.
    pub thermal_ns: u64,
    /// Severity argmax, including the MLTD of the cells it evaluates.
    pub mltd_severity_ns: u64,
    /// Sensor recording and delayed read-out (plus record assembly).
    pub sensor_ns: u64,
}

impl KernelBreakdown {
    /// Accumulates `other` into `self` (for aggregating across runs or
    /// engine jobs).
    pub fn merge(&mut self, other: &KernelBreakdown) {
        self.steps += other.steps;
        self.perf_power_ns += other.perf_power_ns;
        self.thermal_ns += other.thermal_ns;
        self.mltd_severity_ns += other.mltd_severity_ns;
        self.sensor_ns += other.sensor_ns;
    }

    /// Total instrumented time across all buckets, ns.
    pub fn total_ns(&self) -> u64 {
        self.perf_power_ns + self.thermal_ns + self.mltd_severity_ns + self.sensor_ns
    }

    /// Folds this breakdown into `tracer` as per-kernel spans
    /// (`pipeline.perf_power`, `pipeline.thermal`,
    /// `pipeline.mltd_severity`, `pipeline.sensors`) plus an aggregate
    /// `pipeline.step` span, so kernel timings land in the same report
    /// as every other span.
    pub fn record_spans(&self, tracer: &obs::Tracer) {
        if self.steps == 0 {
            return;
        }
        tracer.record_many("pipeline.perf_power", self.steps, self.perf_power_ns);
        tracer.record_many("pipeline.thermal", self.steps, self.thermal_ns);
        tracer.record_many("pipeline.mltd_severity", self.steps, self.mltd_severity_ns);
        tracer.record_many("pipeline.sensors", self.steps, self.sensor_ns);
        tracer.record_many("pipeline.step", self.steps, self.total_ns());
    }

    /// One-line human-readable breakdown, e.g. for bench/fig binaries.
    pub fn summary(&self) -> String {
        if self.steps == 0 {
            return "no instrumented steps".into();
        }
        let total = self.total_ns().max(1);
        let pct = |ns: u64| 100.0 * ns as f64 / total as f64;
        format!(
            "{} steps, {:.1} µs/step (perf+power {:.0}%, thermal {:.0}%, mltd+severity {:.0}%, sensors {:.0}%)",
            self.steps,
            self.total_ns() as f64 / self.steps as f64 / 1e3,
            pct(self.perf_power_ns),
            pct(self.thermal_ns),
            pct(self.mltd_severity_ns),
            pct(self.sensor_ns),
        )
    }
}

/// Everything observed in one 80 µs simulation step.
///
/// A record travels the serving wire inside a telemetry frame
/// (`boreas_core::TelemetryFrame`), whose binary encoding in
/// `boreas_serve::protocol` carries every field bit-exactly. The
/// default record (all zeros, no sensors) is a blank slot to decode
/// into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRecord {
    /// End-of-step simulation time.
    pub time: SimTime,
    /// The interval's micro-architectural counters.
    pub counters: IntervalCounters,
    /// Delayed, quantised sensor readings (one per sensor site).
    pub sensor_temps: Vec<Celsius>,
    /// *True* maximum die temperature (oracle knowledge).
    pub max_temp: Celsius,
    /// Maximum Hotspot-Severity over the die (oracle knowledge).
    pub max_severity: Severity,
    /// Unclamped severity of the most severe cell (diagnostics).
    pub max_severity_raw: f64,
    /// Physical location (mm) of the most severe cell.
    pub hotspot_xy: (f64, f64),
    /// Total die power during the step.
    pub total_power: Watts,
    /// Operating point during the step.
    pub frequency: GigaHertz,
    /// Operating voltage during the step.
    pub voltage: Volts,
}

/// Outcome of a fixed-frequency run.
#[derive(Debug, Clone)]
pub struct FixedRunOutcome {
    /// Peak severity over the whole run.
    pub peak_severity: Severity,
    /// Unclamped peak severity (diagnostics/calibration).
    pub peak_severity_raw: f64,
    /// Peak true die temperature.
    pub peak_temp: Celsius,
    /// Mean IPC over the run.
    pub mean_ipc: f64,
    /// Per-step records.
    pub records: Vec<StepRecord>,
    /// Wall-clock time spent in each simulation kernel.
    pub kernel: KernelBreakdown,
}

impl Pipeline {
    /// The floorplan in use.
    pub fn floorplan(&self) -> &Floorplan {
        &self.plan
    }

    /// The rasterised grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Starts a fresh run of `spec` with the paper's seven sensor sites.
    ///
    /// # Errors
    ///
    /// Returns an error if a sensor site cannot be placed (cannot happen
    /// with the built-in floorplan and sites).
    pub fn start_run(&self, spec: &WorkloadSpec) -> Result<SimRun<'_>> {
        self.start_run_with_sensors(spec, SensorSite::paper_seven(&self.plan))
    }

    /// Starts a fresh run with custom sensor sites.
    ///
    /// # Errors
    ///
    /// Returns an error if a sensor site lies outside the die.
    pub fn start_run_with_sensors(
        &self,
        spec: &WorkloadSpec,
        sites: Vec<SensorSite>,
    ) -> Result<SimRun<'_>> {
        let thermal = ThermalGrid::new(&self.grid, self.cfg.thermal.clone());
        let sensors = SensorBank::new(
            sites,
            &self.grid,
            self.cfg.sensor_delay_us,
            self.cfg.sensor_quant_c,
            self.cfg.thermal.ambient,
        )?;
        Ok(SimRun {
            pipeline: self,
            spec: spec.clone(),
            phases: PhaseEngine::new(spec, self.cfg.seed),
            thermal,
            sensors,
            now: SimTime::ZERO,
            scratch: StepScratch::default(),
            kernel: KernelBreakdown::default(),
            hooks: None,
        })
    }

    /// Runs `spec` for `steps` steps at a fixed operating point.
    ///
    /// # Errors
    ///
    /// Propagates run-construction and solver errors.
    pub fn run_fixed(
        &self,
        spec: &WorkloadSpec,
        freq: GigaHertz,
        voltage: Volts,
        steps: usize,
    ) -> Result<FixedRunOutcome> {
        self.run_fixed_observed(spec, freq, voltage, steps, &obs::Obs::disabled())
    }

    /// [`Pipeline::run_fixed`] with telemetry: per-step metrics stream
    /// into `obs` and the run's kernel breakdown is folded into the span
    /// report. Results are identical to an unobserved run.
    ///
    /// # Errors
    ///
    /// Propagates run-construction and solver errors.
    pub fn run_fixed_observed(
        &self,
        spec: &WorkloadSpec,
        freq: GigaHertz,
        voltage: Volts,
        steps: usize,
        obs: &obs::Obs,
    ) -> Result<FixedRunOutcome> {
        let mut run = self.start_run(spec)?;
        run.observe(obs);
        let mut records = Vec::with_capacity(steps);
        for _ in 0..steps {
            records.push(run.step(freq, voltage)?);
        }
        let peak_severity = records
            .iter()
            .map(|r| r.max_severity)
            .fold(Severity::new(0.0), Severity::max);
        let peak_severity_raw = records
            .iter()
            .map(|r| r.max_severity_raw)
            .fold(f64::NEG_INFINITY, f64::max);
        let peak_temp = records
            .iter()
            .map(|r| r.max_temp)
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max);
        let mean_ipc = records.iter().map(|r| r.counters.ipc()).sum::<f64>() / steps.max(1) as f64;
        let kernel = run.kernel();
        kernel.record_spans(&obs.tracer);
        Ok(FixedRunOutcome {
            peak_severity,
            peak_severity_raw,
            peak_temp,
            mean_ipc,
            records,
            kernel,
        })
    }
}

/// Per-run scratch buffers reused by every [`SimRun::step`] so the
/// steady-state loop performs no per-step heap allocation (beyond the
/// record's own `sensor_temps`, which the record must own).
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// The per-cell power map for the current interval.
    power: Vec<f64>,
    /// Per-tile bounds of the severity argmax.
    argmax: ArgmaxScratch,
}

/// Pre-registered metric handles a [`SimRun`] records into, present only
/// when an enabled registry was attached: the unobserved hot path pays a
/// single `Option` branch per step.
#[derive(Debug, Clone)]
struct StepHooks {
    steps: obs::Counter,
    severity: obs::Histogram,
}

/// Mutable per-run simulation state: one workload executing on the
/// pipeline with evolving thermal state.
#[derive(Debug, Clone)]
pub struct SimRun<'a> {
    pipeline: &'a Pipeline,
    spec: WorkloadSpec,
    phases: PhaseEngine,
    thermal: ThermalGrid,
    sensors: SensorBank,
    now: SimTime,
    scratch: StepScratch,
    kernel: KernelBreakdown,
    hooks: Option<StepHooks>,
}

impl SimRun<'_> {
    /// The workload being run.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Current simulation time (start of the next step).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the live thermal state (oracle knowledge).
    pub fn thermal(&self) -> &ThermalGrid {
        &self.thermal
    }

    /// Wall-clock kernel-time totals accumulated so far by this run.
    pub fn kernel(&self) -> KernelBreakdown {
        self.kernel
    }

    /// Attaches observability: subsequent steps count into
    /// `pipeline_steps_total` and feed `pipeline_step_severity`. A
    /// disabled bundle attaches nothing, leaving the hot path untouched.
    /// Simulation results never depend on whether a run is observed.
    pub fn observe(&mut self, obs: &obs::Obs) {
        if !obs.metrics.is_enabled() {
            return;
        }
        self.hooks = Some(StepHooks {
            steps: obs
                .metrics
                .counter("pipeline_steps_total", "Simulation steps executed"),
            severity: obs.metrics.histogram(
                "pipeline_step_severity",
                "Per-step maximum Hotspot-Severity (clamped)",
                &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0],
            ),
        });
    }

    /// Advances one 80 µs step at the given operating point.
    ///
    /// Order within the step: performance counters for the interval →
    /// power map (leakage uses entry temperatures) → thermal integration
    /// → severity on the end-of-step temperature field → sensor sampling.
    ///
    /// The power map is written into a per-run scratch buffer, and the
    /// severity argmax ([`MltdMap::severity_argmax`]) prunes with per-tile
    /// bounds kept in that scratch too, so the steady-state loop
    /// allocates only the record's own `sensor_temps`. The same argmax
    /// pass yields the record's `max_temp`.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solver errors.
    pub fn step(&mut self, freq: GigaHertz, voltage: Volts) -> Result<StepRecord> {
        let p = self.pipeline;
        let t0 = Instant::now();
        let act = self.phases.step();
        let counters = p.core.simulate_step(&self.spec, &act, freq, voltage);
        let intensity = self.spec.heat * act.core;
        p.power.power_map_into(
            &counters,
            intensity,
            voltage,
            freq,
            self.thermal.temperatures(),
            &mut self.scratch.power,
        );
        let total_power = Watts::new(PowerModel::total_power(&self.scratch.power));
        let t1 = Instant::now();
        self.thermal.step(&self.scratch.power, STEP_MICROS as f64)?;
        let t2 = Instant::now();
        self.now = self.now.advance_steps(1);
        let now_us = self.now.as_micros() as f64;
        self.sensors.record(now_us, &self.thermal)?;
        let t3 = Instant::now();

        // Severity over the end-of-step field: only its argmax is kept,
        // so the pruned search computes the exact MLTD of just the cells
        // that can still win (same first-max-wins, row-major cell as a
        // scan over the whole field).
        let top = p.mltd.severity_argmax(
            self.thermal.temperatures(),
            &p.cfg.severity,
            &mut self.scratch.argmax,
        );
        let t4 = Instant::now();
        let max_severity = Severity::new(top.max_raw);
        let nx = p.grid.spec().nx;
        let cell = floorplan::CellIndex::new(top.index % nx, top.index / nx);
        let hotspot_xy = p.grid.cell_center(cell);
        let mut sensor_temps = Vec::new();
        self.sensors.read_temps_into(now_us, &mut sensor_temps);
        let t5 = Instant::now();

        self.kernel.steps += 1;
        self.kernel.perf_power_ns += (t1 - t0).as_nanos() as u64;
        self.kernel.thermal_ns += (t2 - t1).as_nanos() as u64;
        self.kernel.mltd_severity_ns += (t4 - t3).as_nanos() as u64;
        self.kernel.sensor_ns += ((t3 - t2) + (t5 - t4)).as_nanos() as u64;

        if let Some(hooks) = &self.hooks {
            hooks.steps.inc();
            hooks.severity.observe(max_severity.value());
        }

        Ok(StepRecord {
            time: self.now,
            counters,
            sensor_temps,
            max_temp: Celsius::new(top.max_temp),
            max_severity,
            max_severity_raw: top.max_raw,
            hotspot_xy,
            total_power,
            frequency: freq,
            voltage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::paper();
        cfg.grid = GridSpec::new(16, 12).unwrap();
        cfg.build().unwrap()
    }

    #[test]
    fn pipeline_builds_with_paper_config() {
        let p = PipelineConfig::paper().build().unwrap();
        assert_eq!(p.grid().spec(), GridSpec::default());
        assert!(p.floorplan().validate().is_ok());
    }

    #[test]
    fn run_produces_sane_records() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("gcc").unwrap();
        let out = p
            .run_fixed(&spec, GigaHertz::new(4.0), Volts::new(0.98), 25)
            .unwrap();
        assert_eq!(out.records.len(), 25);
        for r in &out.records {
            assert!(r.counters.is_sane());
            assert_eq!(r.sensor_temps.len(), 7);
            assert!(r.max_temp.value() >= 44.9);
            assert!(r.total_power.value() > 0.0);
        }
        assert!(out.mean_ipc > 0.0);
        assert_eq!(out.records.last().unwrap().time.as_micros(), 25 * 80);
    }

    #[test]
    fn severity_increases_with_frequency() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("gromacs").unwrap();
        let lo = p
            .run_fixed(&spec, GigaHertz::new(2.0), Volts::new(0.64), 50)
            .unwrap();
        let hi = p
            .run_fixed(&spec, GigaHertz::new(5.0), Volts::new(1.4), 50)
            .unwrap();
        assert!(
            hi.peak_severity.value() > lo.peak_severity.value(),
            "severity must grow with frequency: {} vs {}",
            lo.peak_severity,
            hi.peak_severity
        );
        assert!(hi.peak_temp > lo.peak_temp);
    }

    #[test]
    fn delayed_sensor_lags_true_temperature_while_heating() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("gamess").unwrap();
        let out = p
            .run_fixed(&spec, GigaHertz::new(5.0), Volts::new(1.4), 40)
            .unwrap();
        let last = out.records.last().unwrap();
        let best_sensor = last.sensor_temps[3].value();
        assert!(
            last.max_temp.value() > best_sensor,
            "true max {} should exceed delayed sensor {}",
            last.max_temp,
            best_sensor
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("bzip2").unwrap();
        let a = p
            .run_fixed(&spec, GigaHertz::new(4.0), Volts::new(0.98), 20)
            .unwrap();
        let b = p
            .run_fixed(&spec, GigaHertz::new(4.0), Volts::new(0.98), 20)
            .unwrap();
        assert_eq!(a.peak_severity, b.peak_severity);
        assert_eq!(a.mean_ipc, b.mean_ipc);
    }

    #[test]
    fn hotspot_location_is_on_die() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("gromacs").unwrap();
        let out = p
            .run_fixed(&spec, GigaHertz::new(4.5), Volts::new(1.15), 30)
            .unwrap();
        for r in &out.records {
            let (x, y) = r.hotspot_xy;
            assert!(x > 0.0 && x < p.floorplan().width());
            assert!(y > 0.0 && y < p.floorplan().height());
        }
    }

    #[test]
    fn custom_sensor_sites_are_respected() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("gcc").unwrap();
        let sites = vec![SensorSite::new("only", 2.0, 1.0)];
        let mut run = p.start_run_with_sensors(&spec, sites).unwrap();
        let r = run.step(GigaHertz::new(4.0), Volts::new(0.98)).unwrap();
        assert_eq!(r.sensor_temps.len(), 1);
    }

    #[test]
    fn observed_run_matches_unobserved_and_records_metrics() {
        let p = quick_pipeline();
        let spec = WorkloadSpec::by_name("bzip2").unwrap();
        let plain = p
            .run_fixed(&spec, GigaHertz::new(4.0), Volts::new(0.98), 20)
            .unwrap();
        let obs = obs::Obs::new();
        let observed = p
            .run_fixed_observed(&spec, GigaHertz::new(4.0), Volts::new(0.98), 20, &obs)
            .unwrap();
        assert_eq!(plain.peak_severity, observed.peak_severity);
        assert_eq!(plain.mean_ipc, observed.mean_ipc);
        assert_eq!(obs.metrics.counter("pipeline_steps_total", "").value(), 20);
        let spans = obs.tracer.stats();
        assert_eq!(spans.get("pipeline.step").unwrap().count, 20);
        assert!(spans.get("pipeline.thermal").is_some());
    }
}
