//! Runtime-dispatched SIMD lanes for the Boreas thermal kernel.
//!
//! The thermal solver (`thermal::solver`) is elementwise stencil math —
//! exactly the float operations whose vector forms are IEEE-identical to
//! their scalar forms. This crate provides the two pieces it uses:
//!
//! * [`Isa`] — the instruction-set ladder (AVX2 → SSE2 → scalar),
//!   detected once per process via `is_x86_feature_detected!` and
//!   overridable with the `BOREAS_SIMD` environment variable
//!   (`scalar`, `sse2` or `avx2`) for testing and CI equivalence runs;
//! * [`SimdF64`] + [`F64x2`] / [`F64x4`] — safe lane-wrapper types over
//!   the `core::arch` `f64` vectors, exposing only the exact-rounding
//!   elementwise operations (`add`/`sub`/`mul`/`div`). No FMA, no
//!   horizontal reductions: every lane computes the same IEEE-754
//!   expression the scalar code computes, so results are *bit*-identical
//!   by construction.
//!
//! The MLTD/severity step has no vector path: its pruned argmax
//! (`hotgauge::mltd`) computes the exact MLTD of about 20 cells per
//! step, too few for lanes to pay.
//!
//! # The bit-identity contract
//!
//! Vector `add`/`sub`/`mul`/`div` round each lane exactly like the
//! corresponding scalar instruction — SIMD changes *which registers*
//! hold the values, never the rounding. Divergence can only come from
//! (a) FMA contraction (never emitted: the wrappers call the explicit
//! non-fused intrinsics) or (b) re-associated reductions (the only
//! reduction on the hot path, the thermal package-flux sum, is
//! accumulated in scalar program order by extracting lanes). See
//! DESIGN §14.

use common::{Error, Result};
use std::sync::OnceLock;

/// Environment variable overriding the detected instruction set.
pub const ISA_ENV: &str = "BOREAS_SIMD";

/// The instruction sets the dispatcher can select.
///
/// Ordered by capability: `Scalar < Sse2 < Avx2`, so "is this supported"
/// is a plain comparison against [`Isa::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The plain scalar kernels (the PR 3 fused code, any architecture).
    Scalar,
    /// 128-bit lanes (2 × f64). Baseline on `x86_64`.
    Sse2,
    /// 256-bit lanes (4 × f64).
    Avx2,
}

impl Isa {
    /// Every ISA, best first.
    pub const ALL: [Isa; 3] = [Isa::Avx2, Isa::Sse2, Isa::Scalar];

    /// The best instruction set this CPU supports.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
            // SSE2 is part of the x86_64 baseline.
            Isa::Sse2
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::Scalar
        }
    }

    /// Whether this CPU can execute kernels compiled for `self`.
    pub fn is_supported(self) -> bool {
        self <= Isa::detect()
    }

    /// The ISAs this CPU supports, best first (always ends in `Scalar`).
    pub fn available() -> Vec<Isa> {
        Isa::ALL
            .iter()
            .copied()
            .filter(|i| i.is_supported())
            .collect()
    }

    /// The canonical lowercase name (`"scalar"`, `"sse2"`, `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// Parses a [`ISA_ENV`] override value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for anything other than
    /// `scalar`, `sse2` or `avx2` (case-insensitive).
    pub fn parse(value: &str) -> Result<Isa> {
        match value.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Isa::Scalar),
            "sse2" => Ok(Isa::Sse2),
            "avx2" => Ok(Isa::Avx2),
            other => Err(Error::invalid_config(
                "BOREAS_SIMD",
                format!("unknown ISA {other:?} (expected scalar, sse2 or avx2)"),
            )),
        }
    }

    /// The ISA selected by the environment: the [`ISA_ENV`] override when
    /// set, otherwise [`Isa::detect`]. Not cached — see [`Isa::active`]
    /// for the process-wide selection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the override names an
    /// unknown ISA or one this CPU cannot execute.
    pub fn from_env() -> Result<Isa> {
        match std::env::var(ISA_ENV) {
            Err(_) => Ok(Isa::detect()),
            Ok(value) => {
                let isa = Isa::parse(&value)?;
                if !isa.is_supported() {
                    return Err(Error::invalid_config(
                        "BOREAS_SIMD",
                        format!(
                            "{} requested but this CPU only supports {}",
                            isa.name(),
                            Isa::detect().name()
                        ),
                    ));
                }
                Ok(isa)
            }
        }
    }

    /// The process-wide ISA selection: [`Isa::from_env`], resolved once
    /// and cached. Every kernel constructor reads this, so one process
    /// never silently mixes ISAs.
    ///
    /// # Panics
    ///
    /// Panics when `BOREAS_SIMD` is set to an unknown or unsupported
    /// value — an explicit override that cannot be honoured must never
    /// degrade silently into a different ISA's numbers. Use
    /// [`Isa::from_env`] for fallible handling.
    pub fn active() -> Isa {
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| Isa::from_env().expect("invalid BOREAS_SIMD override"))
    }

    /// The `BOREAS_SIMD` override value, when one is set (reported in
    /// benchmark metadata so cross-ISA comparisons are never silent).
    pub fn env_override() -> Option<String> {
        std::env::var(ISA_ENV).ok()
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest vector any [`Isa`] uses, in `f64` lanes — the size of the
/// stack staging buffers used to spill lanes in program order.
pub const MAX_LANES: usize = 4;

/// A pack of `f64` lanes supporting exactly the elementwise operations
/// the kernels need. Every operation rounds each lane precisely like the
/// scalar `f64` operator — implementations must never use FMA or
/// approximate instructions.
///
/// Implementations whose operations require a CPU feature beyond the
/// compilation baseline (e.g. [`F64x4`] needs AVX) must only be *used*
/// from code compiled with that feature enabled — in this crate and its
/// consumers, from `#[target_feature]` kernel entry points guarded by an
/// [`Isa`] check. The inherent safety is managed by keeping the
/// constructors crate-public to such generic kernels; the slice loads
/// themselves are bounds-checked.
pub trait SimdF64: Copy {
    /// Lanes in this pack.
    const LANES: usize;

    /// Loads `Self::LANES` values from the front of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is shorter than `Self::LANES`.
    fn from_slice(s: &[f64]) -> Self;

    /// One value in every lane.
    fn splat(v: f64) -> Self;

    /// Stores the lanes to the front of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `Self::LANES`.
    fn write_to(self, out: &mut [f64]);

    /// Spills the lanes, in lane order, to the front of a
    /// [`MAX_LANES`]-sized staging buffer (for program-order scalar
    /// accumulation).
    fn spill(self, out: &mut [f64; MAX_LANES]);

    /// Lanewise `+` (exact, no contraction).
    fn add(self, o: Self) -> Self;
    /// Lanewise `-`.
    fn sub(self, o: Self) -> Self;
    /// Lanewise `*`.
    fn mul(self, o: Self) -> Self;
    /// Lanewise `/`.
    fn div(self, o: Self) -> Self;
}

#[cfg(target_arch = "x86_64")]
mod lanes_x86 {
    use super::{SimdF64, MAX_LANES};
    use std::arch::x86_64::*;

    /// Two `f64` lanes over SSE2 (the `x86_64` baseline — safe to use
    /// anywhere on this architecture).
    #[derive(Debug, Clone, Copy)]
    pub struct F64x2(__m128d);

    impl SimdF64 for F64x2 {
        const LANES: usize = 2;

        #[inline(always)]
        fn from_slice(s: &[f64]) -> Self {
            assert!(s.len() >= 2);
            // SAFETY: bounds asserted above; SSE2 is baseline on x86_64.
            F64x2(unsafe { _mm_loadu_pd(s.as_ptr()) })
        }

        #[inline(always)]
        fn splat(v: f64) -> Self {
            F64x2(unsafe { _mm_set1_pd(v) })
        }

        #[inline(always)]
        fn write_to(self, out: &mut [f64]) {
            assert!(out.len() >= 2);
            // SAFETY: bounds asserted above.
            unsafe { _mm_storeu_pd(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn spill(self, out: &mut [f64; MAX_LANES]) {
            unsafe { _mm_storeu_pd(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            F64x2(unsafe { _mm_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            F64x2(unsafe { _mm_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            F64x2(unsafe { _mm_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            F64x2(unsafe { _mm_div_pd(self.0, o.0) })
        }
    }

    /// Four `f64` lanes over AVX. Only constructed inside
    /// `#[target_feature(enable = "avx2")]` kernels reached through an
    /// [`super::Isa::Avx2`] dispatch check.
    #[derive(Debug, Clone, Copy)]
    pub struct F64x4(__m256d);

    impl SimdF64 for F64x4 {
        const LANES: usize = 4;

        #[inline(always)]
        fn from_slice(s: &[f64]) -> Self {
            assert!(s.len() >= 4);
            // SAFETY: bounds asserted; AVX availability guaranteed by the
            // dispatching kernel's Isa check.
            F64x4(unsafe { _mm256_loadu_pd(s.as_ptr()) })
        }

        #[inline(always)]
        fn splat(v: f64) -> Self {
            F64x4(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        fn write_to(self, out: &mut [f64]) {
            assert!(out.len() >= 4);
            // SAFETY: bounds asserted above.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn spill(self, out: &mut [f64; MAX_LANES]) {
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            F64x4(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            F64x4(unsafe { _mm256_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            F64x4(unsafe { _mm256_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            F64x4(unsafe { _mm256_div_pd(self.0, o.0) })
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use lanes_x86::{F64x2, F64x4};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_isas_case_insensitively() {
        assert_eq!(Isa::parse("scalar").unwrap(), Isa::Scalar);
        assert_eq!(Isa::parse("SSE2").unwrap(), Isa::Sse2);
        assert_eq!(Isa::parse("Avx2").unwrap(), Isa::Avx2);
    }

    #[test]
    fn parse_rejects_unknown_isa() {
        let err = Isa::parse("avx512").unwrap_err();
        assert!(
            matches!(
                err,
                Error::InvalidConfig {
                    what: "BOREAS_SIMD",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("avx512"), "{err}");
    }

    #[test]
    fn detect_is_supported_and_scalar_always_is() {
        assert!(Isa::detect().is_supported());
        assert!(Isa::Scalar.is_supported());
        let avail = Isa::available();
        assert_eq!(avail.last().copied(), Some(Isa::Scalar));
        assert_eq!(avail.first().copied(), Some(Isa::detect()));
    }

    #[test]
    fn names_are_consistent() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()).unwrap(), isa);
            assert_eq!(format!("{isa}"), isa.name());
        }
    }
}
