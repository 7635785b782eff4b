//! Shared foundation types for the Boreas reproduction workspace.
//!
//! This crate provides the strongly-typed physical units, simulation-time
//! representation, error types, deterministic random-number generation,
//! the JSON codec ([`json`]), the flag parser behind every binary
//! ([`cli`]), the worker crew behind every multi-threaded phase
//! ([`crew`]), k-means clustering ([`kmeans`]) and the property-test
//! runner ([`check`]) used by every other crate in the workspace.
//! Keeping them in one place guarantees that, e.g., a
//! [`units::Celsius`] produced by the thermal solver is the same type
//! consumed by the severity metric, and that all stochastic components
//! are reproducible from a single seed.
//!
//! # Examples
//!
//! ```
//! use boreas_common::units::{Celsius, Watts};
//! use boreas_common::time::SimTime;
//!
//! let t = Celsius::new(85.0) + Celsius::new(5.0);
//! assert_eq!(t, Celsius::new(90.0));
//!
//! let p = Watts::new(2.5) * 4.0;
//! assert_eq!(p.value(), 10.0);
//!
//! let now = SimTime::from_micros(960);
//! assert_eq!(now.as_millis_f64(), 0.96);
//! ```

pub mod check;
pub mod cli;
pub mod crew;
pub mod error;
pub mod json;
pub mod kmeans;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use error::{Error, ProtocolKind, Result, ServerKind};
pub use rng::SplitMix64;
pub use time::{SimTime, STEPS_PER_DECISION, STEP_MICROS};

/// One thread per available core (1 if that cannot be read): the default
/// thread count of the GBT trainer, the experiment engine and the
/// fixed-VF sweeps.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
