//! Boreas: the paper's contribution — frequency controllers driven by
//! hotspot prediction, and the closed-loop evaluation harness.
//!
//! This crate implements every voltage/frequency selection algorithm the
//! paper evaluates:
//!
//! * [`OracleController`] (§III-B) — perfect knowledge upper bound;
//! * [`GlobalVfController`] (§III-C) — the single globally safe limit;
//! * [`ThermalController`] (§III-D, Fig. 4) — critical-temperature
//!   thresholds from sensor readings, with the TH-00/05/10 relaxations;
//! * [`BoreasController`] (§IV–V) — the GBT severity predictor over
//!   hardware telemetry, with the ML00/05/10 prediction guardbands;
//! * [`ResilientController`] — a wrapper adding telemetry validation,
//!   last-known-good substitution and graceful degradation (ML → TH
//!   fallback → watchdog-forced global-safe) under sensor faults;
//!
//! plus the online control loop and two builders sharing one idiom:
//!
//! * [`OnlineController`] — the push-based decision API: feed
//!   [`TelemetryFrame`]s in, get [`ControlDecision`]s out, one per
//!   960 µs interval. The serving daemon (`boreas-serve`) shards
//!   frames across these; the offline harness replays the simulator
//!   through the same type;
//! * [`RunSpec`] — the closed-loop harness executing any controller
//!   against the hotgauge pipeline at the paper's 960 µs decision
//!   cadence, accounting reliability (hotspot incursions) and
//!   performance (average frequency normalised to the 3.75 GHz
//!   baseline) — a thin replay driver over [`OnlineController`],
//!   bit-identical to the monolithic reference loop it replaced;
//! * [`TrainSpec`] — the offline Fig. 3 flow: telemetry extraction over
//!   the training workloads × VF table, multi-threaded histogram GBT
//!   training ([`TrainSpec::fit`]) and TH-00 threshold training
//!   ([`TrainSpec::fit_thresholds`]).
//!
//! Attach an [`Obs`] bundle via [`RunSpec::obs`] to stream metrics,
//! span timings and per-decision flight events out of a run; the obs
//! handle types ([`Obs`], [`Registry`], [`Tracer`], [`FlightRecorder`],
//! [`FlightEvent`]) are re-exported here so controller code needs no
//! direct `boreas-obs` dependency.

pub mod controller;
pub mod critical;
pub mod online;
pub mod oracle;
pub mod resilient;
pub mod runner;
pub mod training;
pub mod vf;

pub use controller::{
    BoreasController, ControlContext, ControlDiagnostics, Controller, Decision, GlobalVfController,
    ThermalController,
};
pub use critical::CriticalTemps;
pub use obs::{
    Counter, FlightEvent, FlightRecorder, Gauge, Histogram, Obs, Registry, RunLog, SpanReport,
    Tracer,
};
pub use online::{ControlDecision, OnlineController, TelemetryFrame};
pub use oracle::{oracle_frequencies, OracleController, SweepTable};
pub use resilient::{ControlStage, DegradationEvent, DegradationLog, ResilientController};
pub use runner::{ClosedLoopOutcome, ObservationFilter, PassthroughFilter, RunSpec};
pub use training::{smoke_model, TrainReport, TrainSpec, TrainingConfig};
pub use vf::{VfPoint, VfTable};
