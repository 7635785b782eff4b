//! Deterministic sensor/telemetry fault injection.
//!
//! The paper's controllers assume clean telemetry; this crate asks what
//! happens when that assumption breaks. A [`FaultPlan`] describes a
//! seeded, replayable set of faults — stuck-at sensors, dropped or late
//! readings, additive Gaussian noise, transient spikes, zeroed or
//! scrambled counter blocks — each with an activation window and a
//! per-step firing probability. A [`FaultInjector`] applies it: it
//! corrupts the [`hotgauge::StepRecord`] stream a controller observes and
//! plugs into [`boreas_core::RunSpec::filter`] as a
//! [`boreas_core::ObservationFilter`], so reliability accounting stays on
//! the *true* records while the controller sees the faulty ones.
//!
//! All randomness derives statelessly from `(seed, fault, step, lane)`
//! via [`common::rng::SplitMix64`]: a plan replays bit-identically,
//! sample for sample, which the determinism property tests pin down. The
//! `fault_campaign` bench binary sweeps fault type × rate to compare a
//! plain controller against its
//! [`boreas_core::ResilientController`]-wrapped counterpart.
//!
//! Beyond the telemetry path, [`EngineFaultPlan`] (the [`engine`]
//! module) targets the *execution runtime itself* — injected job panics
//! and artifact bit flips — to exercise the engine's supervision layer:
//! retry, quarantine and checksum-verified caching. Engine faults never
//! feed into cache keys or results; they only change how often a job has
//! to try.

pub mod engine;
pub mod inject;
pub mod plan;

pub use engine::{EngineFault, EngineFaultKind, EngineFaultPlan};
pub use inject::FaultInjector;
pub use plan::{Fault, FaultKind, FaultPlan, FaultTarget, StepWindow};
