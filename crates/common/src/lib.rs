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

/// The FNV-1a-64 offset basis: the hash of no bytes, and the state
/// [`fnv1a64`] starts from.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a-64 state `hash` and returns the new
/// state, so a digest over several pieces is one call per piece,
/// starting from [`FNV1A64_OFFSET`]. The digest behind the
/// training-bench prediction digest and the load driver's decision
/// digest.
pub fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        let split = fnv1a64(fnv1a64(FNV1A64_OFFSET, b"foo"), b"bar");
        assert_eq!(split, 0x8594_4171_f739_67e8);
    }
}
