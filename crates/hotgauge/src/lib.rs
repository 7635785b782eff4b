//! HotGauge-style hotspot metrics and the coupled simulation pipeline.
//!
//! This crate reimplements the two pieces of HotGauge the paper builds
//! on:
//!
//! * the **metrics** — [`mltd`] defines the Maximum Local Temperature
//!   Difference of a die cell and finds the die's most severe cell, and
//!   [`severity`] combines absolute temperature with MLTD into the scalar
//!   *Hotspot-Severity* of Fig. 1 (1.0 = the chip is in immediate danger);
//! * the **pipeline** — [`Pipeline`] couples the performance model
//!   (`perfsim`), the power model (`powersim`) and the thermal solver
//!   (`thermal`) into the per-80 µs simulation loop that every experiment
//!   in the paper runs on, including delayed thermal sensors and
//!   per-step severity evaluation;
//! * the **grid runner** — [`Pipeline::run_fixed_grid`] runs a
//!   workloads × VF-points sweep of fixed-VF runs on every core and hands
//!   the outcomes back in serial order ([`grid`]).
//!
//! # Severity reconstruction
//!
//! The paper specifies three conditions where severity = 1.0: 115 °C at
//! zero MLTD, 80 °C at 40 °C MLTD, and ("somewhere between") ~95 °C at
//! 20 °C MLTD. We use the affine form
//!
//! ```text
//! severity = (T + 0.875·MLTD − T_base) / (T_crit − T_base)
//! ```
//!
//! with `T_base = 45 °C`, `T_crit = 115 °C`, which satisfies the first two
//! points exactly and yields 0.96 for the third — consistent with the
//! paper's wording. All parameters are configurable via
//! [`SeverityParams`].
//!
//! # Examples
//!
//! ```no_run
//! use boreas_hotgauge::{PipelineConfig};
//! use workloads::WorkloadSpec;
//! use common::units::{GigaHertz, Volts};
//!
//! let pipeline = PipelineConfig::paper().build()?;
//! let spec = WorkloadSpec::by_name("gromacs")?;
//! let outcome = pipeline.run_fixed(&spec, GigaHertz::new(4.5), Volts::new(1.15), 150)?;
//! println!("peak severity {:.3}", outcome.peak_severity.value());
//! # Ok::<(), common::Error>(())
//! ```

pub mod grid;
pub mod mltd;
pub mod pipeline;
pub mod severity;

pub use mltd::{ArgmaxScratch, MltdMap, SeverityArgmax};
pub use pipeline::{
    FixedRunOutcome, KernelBreakdown, Pipeline, PipelineConfig, SimRun, StepRecord,
};
pub use severity::{Severity, SeverityParams};
