//! # Boreas — ML-based advanced-hotspot mitigation (ISPASS 2023 reproduction)
//!
//! This is the umbrella crate of the Boreas reproduction workspace. It
//! re-exports the public API of every subsystem so downstream users can
//! depend on a single crate:
//!
//! * [`common`] — units, time, errors, deterministic RNG
//! * [`floorplan`] — Skylake-like core floorplan, grid rasterisation,
//!   k-means thermal-sensor placement
//! * [`workloads`] — 27 SPEC CPU2006-like synthetic workload profiles
//! * [`perfsim`] — analytical out-of-order core model producing the 78
//!   hardware-telemetry counters every 80 µs
//! * [`powersim`] — per-functional-unit dynamic + leakage power model
//! * [`thermal`] — RC-grid thermal solver with a sensor model (placement,
//!   delay, quantisation)
//! * [`hotgauge`] — MLTD and Hotspot-Severity metrics plus the coupled
//!   performance→power→thermal simulation pipeline
//! * [`gbt`] — gradient-boosted regression trees (training, prediction,
//!   gain importance, cross-validation, grid search, hardware-cost model)
//! * [`telemetry`] — feature definitions, dataset extraction, train/test
//!   splitting and gain-based feature selection
//! * [`boreas_core`] — the paper's contribution: the VF table and the
//!   oracle / global / thermal / ML frequency controllers with the
//!   [`boreas_core::RunSpec`] closed-loop runner, plus the resilient
//!   degradation wrapper
//! * [`faults`] — deterministic sensor/telemetry fault injection for
//!   robustness campaigns
//! * [`engine`] — the experiment engine: declarative [`engine::Scenario`]s
//!   executed by a parallel [`engine::Session`] with a persistent
//!   content-addressed artifact cache
//! * [`obs`] — zero-dependency observability: an atomic metrics
//!   registry, structured span tracing, a bounded control-decision
//!   flight recorder, and Prometheus/JSONL exporters with an in-tree
//!   Prometheus linter
//! * [`serve`] — the online mitigation service: a streaming-telemetry
//!   daemon over the push-based [`boreas_core::OnlineController`] API,
//!   with a length-prefixed JSON wire protocol, sharded control loops,
//!   bounded-queue backpressure and a `/metrics` endpoint
//!
//! # Quickstart
//!
//! Describe an experiment as a [`engine::Scenario`] and hand it to a
//! [`engine::Session`]; the session expands it into jobs, runs them on
//! worker threads that live as long as the session and memoizes every
//! job result on disk.
//! Pass an [`obs::Obs`] bundle to watch it work — metrics, span
//! timings and per-decision flight events — and render the snapshot in
//! the Prometheus text format:
//!
//! ```no_run
//! use boreas::prelude::*;
//!
//! # fn main() -> common::Result<()> {
//! let pipeline = PipelineConfig::paper().build()?;
//! let scenario = Scenario::severity_sweep(
//!     "quickstart",
//!     WorkloadSpec::test_set(),
//!     VfTable::paper(),
//!     150,
//! );
//! let obs = Obs::new();
//! let report = Session::new(pipeline, obs.clone())?.run(&scenario)?;
//! for p in report.sweep_points() {
//!     println!("{} @ {:.2} GHz: severity {:.2}", p.workload, p.freq_ghz, p.peak_severity);
//! }
//! println!("{}", report.counters.summary());
//! print!("{}", obs.metrics.snapshot().to_prometheus());
//! # Ok(())
//! # }
//! ```
//!
//! For one-off closed loops (custom controllers, fault filters) drive the
//! [`boreas_core::RunSpec`] runner directly:
//!
//! ```no_run
//! use boreas::prelude::*;
//!
//! # fn main() -> common::Result<()> {
//! let pipeline = PipelineConfig::paper().build()?;
//! let spec = WorkloadSpec::by_name("gromacs")?;
//! let mut controller = GlobalVfController::new(VfTable::BASELINE_INDEX);
//! let out = RunSpec::new(&pipeline).steps(144).run(&spec, &mut controller)?;
//! println!("avg {:.3} GHz, incursions {}", out.avg_frequency.value(), out.incursions);
//! # Ok(())
//! # }
//! ```

pub use boreas_core;
pub use common;
pub use engine;
pub use faults;
pub use floorplan;
pub use gbt;
pub use hotgauge;
pub use obs;
pub use perfsim;
pub use powersim;
pub use serve;
pub use telemetry;
pub use thermal;
pub use workloads;

/// Commonly used items, re-exported for `use boreas::prelude::*`.
pub mod prelude {
    pub use boreas_core::{
        BoreasController, ControlDecision, ControlStage, Controller, CriticalTemps, DegradationLog,
        GlobalVfController, ObservationFilter, OnlineController, OracleController,
        ResilientController, RunSpec, SweepTable, TelemetryFrame, ThermalController, TrainReport,
        TrainSpec, TrainingConfig, VfPoint, VfTable,
    };
    pub use common::time::SimTime;
    pub use common::units::{Celsius, GigaHertz, Volts, Watts};
    pub use common::Result;
    pub use engine::{
        ControllerSpec, FaultCell, QuarantinedJob, RetryPolicy, Scenario, Session, SessionReport,
    };
    pub use faults::{
        EngineFault, EngineFaultKind, EngineFaultPlan, Fault, FaultInjector, FaultKind, FaultPlan,
    };
    pub use gbt::{GbtModel, GbtParams};
    pub use hotgauge::{Pipeline, PipelineConfig, Severity, SeverityParams};
    pub use obs::{FlightEvent, FlightRecorder, Obs, Registry, Tracer};
    pub use serve::{Response, ServeConfig, Server};
    pub use telemetry::{Dataset, DatasetSpec, FeatureSet};
    pub use workloads::WorkloadSpec;
}
