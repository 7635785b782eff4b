//! The deterministic phase engine: evolves a workload's activity over
//! time at the 80 µs step granularity.
//!
//! Three timescales are modelled, mirroring the structure HotGauge
//! observed in real SPEC traces:
//!
//! 1. **slow phases** (hundreds of µs to ms): program phases with
//!    different activity/locality, a square-ish alternation with jittered
//!    transitions;
//! 2. **fast bursts** (tens to hundreds of µs): the power spikes that make
//!    *advanced* hotspots fast and hard to catch with delayed sensors —
//!    amplitude and period come from [`WorkloadSpec::spikiness`] and
//!    [`WorkloadSpec::spike_period_us`];
//! 3. **noise**: small Gaussian jitter on every sample.
//!
//! The burst waveform is normalised so its *time-average* is 1: spiky
//! workloads do not consume more average power than smooth ones, they
//! concentrate the same energy in shorter windows — exactly the property
//! that differentiates gromacs from gamess in the paper.

use crate::spec::WorkloadSpec;
use common::rng::SplitMix64;
use common::time::STEP_MICROS;

/// Instantaneous activity multipliers for one 80 µs step.
///
/// All fields are dimensionless multipliers with long-run mean ≈ 1.0;
/// the perf and power models scale them by workload- and unit-specific
/// constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// Overall switching-activity envelope including bursts.
    pub core: f64,
    /// Envelope without the burst component (slow phase × noise only).
    pub sustained: f64,
    /// Burst multiplier in effect this step (1.0 = off-burst baseline).
    pub burst: f64,
    /// IPC modulation: phases with higher activity commit more.
    pub ipc_scale: f64,
    /// Cache-miss modulation: low-locality phases boost miss rates.
    pub mem_boost: f64,
}

/// Deterministic per-workload activity generator.
///
/// Two engines created with the same spec and seed produce identical
/// streams.
///
/// # Examples
///
/// ```
/// use boreas_workloads::{PhaseEngine, WorkloadSpec};
///
/// let spec = WorkloadSpec::by_name("bzip2")?;
/// let mut a = PhaseEngine::new(&spec, 7);
/// let mut b = PhaseEngine::new(&spec, 7);
/// assert_eq!(a.step(), b.step());
/// # Ok::<(), common::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhaseEngine {
    // Static configuration distilled from the spec.
    phase_period_us: f64,
    phase_depth: f64,
    spike_period_us: f64,
    spike_duty: f64,
    burst_hi: f64,
    burst_lo: f64,
    // Dynamic state.
    now_us: f64,
    rng: SplitMix64,
    phase_high: bool,
    next_phase_flip_us: f64,
    spike_offset_us: f64,
}

impl PhaseEngine {
    /// Creates an engine for `spec` with a deterministic `seed`.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        // Mix the workload identity into the seed so different workloads
        // sharing a root seed still get independent streams. This is
        // FNV-1a's shape with 0x1000_0000_01b3 as the multiplier, not
        // FNV's prime 0x100_0000_01b3, so it is not `common::fnv1a64`:
        // every simulated trace, and every digest pinned on one, derives
        // from these seeds.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in spec.name.bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        let mut rng = SplitMix64::new(seed ^ hash);

        // Burst waveform: during a burst the envelope rises to `hi`;
        // between bursts it drops to `lo`, chosen so the duty-weighted
        // mean is exactly 1 and never negative.
        let duty = spec.spike_duty.clamp(0.05, 0.95);
        let amp = (1.2 * spec.spikiness).min(1.2);
        let hi = 1.0 + amp;
        let lo = ((1.0 - duty * hi) / (1.0 - duty)).max(0.05);
        let spike_offset_us = rng.uniform(0.0, spec.spike_period_us.max(1.0));
        let first_flip = spec.phase_period_us.max(1.0) * rng.uniform(0.6, 1.4);

        Self {
            phase_period_us: spec.phase_period_us.max(1.0),
            phase_depth: spec.phase_depth.clamp(0.0, 1.0),
            spike_period_us: spec.spike_period_us.max(1.0),
            spike_duty: duty,
            burst_hi: hi,
            burst_lo: lo,
            now_us: 0.0,
            rng,
            phase_high: true,
            next_phase_flip_us: first_flip,
            spike_offset_us,
        }
    }

    /// Current simulated time in µs (start of the next step).
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Produces the activity for the next 80 µs step and advances time.
    pub fn step(&mut self) -> Activity {
        // Slow phase alternation with jittered flips.
        while self.now_us >= self.next_phase_flip_us {
            self.phase_high = !self.phase_high;
            let jitter = self.rng.uniform(0.6, 1.4);
            self.next_phase_flip_us += self.phase_period_us * jitter;
        }
        let phase_level = if self.phase_high {
            1.0 + self.phase_depth / 2.0
        } else {
            1.0 - self.phase_depth / 2.0
        };

        // Fast burst: a square wave in workload-local time, integrated
        // exactly over the step window so sub-step bursts contribute their
        // true energy instead of aliasing against the 80 µs sampling.
        let s0 = self.now_us + self.spike_offset_us;
        let frac = burst_overlap_fraction(
            s0,
            STEP_MICROS as f64,
            self.spike_period_us,
            self.spike_duty,
        );
        let burst = self.burst_lo + (self.burst_hi - self.burst_lo) * frac;

        // Multiplicative Gaussian jitter, clamped to stay positive.
        let noise = (1.0 + self.rng.normal(0.0, 0.02)).max(0.2);

        let sustained = phase_level * noise;
        let core = (sustained * burst).max(0.0);

        // Active phases commit more; low phases are often stall-ier and
        // (mildly) less cache friendly.
        let ipc_scale = (0.55 + 0.45 * phase_level) * noise;
        let mem_boost = 1.0 + 0.6 * (1.0 - phase_level).max(0.0) + 0.15 * (burst - 1.0).max(0.0);

        self.now_us += STEP_MICROS as f64;
        Activity {
            core,
            sustained,
            burst,
            ipc_scale,
            mem_boost,
        }
    }

    /// Convenience: produces the next `n` steps.
    pub fn take_steps(&mut self, n: usize) -> Vec<Activity> {
        (0..n).map(|_| self.step()).collect()
    }
}

/// Fraction of the window `[s0, s0 + len)` covered by the periodic burst
/// windows `[k·period, k·period + duty·period)`.
fn burst_overlap_fraction(s0: f64, len: f64, period: f64, duty: f64) -> f64 {
    debug_assert!(period > 0.0 && len > 0.0);
    let on = duty * period;
    // Integral of the indicator from 0 to t.
    let cum = |t: f64| {
        let full = (t / period).floor();
        let rem = t - full * period;
        full * on + rem.min(on)
    };
    ((cum(s0 + len) - cum(s0)) / len).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn engine(name: &str, seed: u64) -> PhaseEngine {
        PhaseEngine::new(&WorkloadSpec::by_name(name).unwrap(), seed)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = engine("gromacs", 3).take_steps(500);
        let b = engine("gromacs", 3).take_steps(500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = engine("gromacs", 3).take_steps(100);
        let b = engine("gromacs", 4).take_steps(100);
        assert_ne!(a, b);
    }

    #[test]
    fn different_workloads_differ_under_same_seed() {
        let a = engine("gromacs", 3).take_steps(100);
        let b = engine("gamess", 3).take_steps(100);
        assert_ne!(a, b);
    }

    #[test]
    fn long_run_mean_is_near_one() {
        for name in ["gromacs", "gamess", "mcf", "bzip2"] {
            let acts = engine(name, 11).take_steps(20_000);
            let mean = acts.iter().map(|a| a.core).sum::<f64>() / acts.len() as f64;
            assert!(
                (mean - 1.0).abs() < 0.12,
                "{name}: mean activity {mean} should be near 1"
            );
        }
    }

    #[test]
    fn spiky_workload_has_larger_peaks_than_smooth() {
        let spiky = engine("gromacs", 5).take_steps(5_000);
        let smooth = engine("gamess", 5).take_steps(5_000);
        let peak = |v: &[Activity]| v.iter().map(|a| a.core).fold(0.0_f64, f64::max);
        assert!(
            peak(&spiky) > peak(&smooth) + 0.2,
            "gromacs peak {} vs gamess peak {}",
            peak(&spiky),
            peak(&smooth)
        );
        // And larger step-to-step swings.
        let swing = |v: &[Activity]| {
            v.windows(2)
                .map(|w| (w[1].core - w[0].core).abs())
                .fold(0.0_f64, f64::max)
        };
        assert!(swing(&spiky) > swing(&smooth));
    }

    #[test]
    fn burst_overlap_fraction_is_exact() {
        // Window [0, 80) against bursts [0, 36) per 120 us period.
        let f = super::burst_overlap_fraction(0.0, 80.0, 120.0, 0.3);
        assert!((f - 36.0 / 80.0).abs() < 1e-12);
        // A window exactly covering one period sees exactly the duty.
        let f = super::burst_overlap_fraction(17.0, 120.0, 120.0, 0.3);
        assert!((f - 0.3).abs() < 1e-12);
        // A window inside the off region sees zero.
        let f = super::burst_overlap_fraction(40.0, 20.0, 120.0, 0.3);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn burst_time_average_is_one() {
        for name in ["gromacs", "libquantum", "lbm", "gamess"] {
            let acts = engine(name, 13).take_steps(30_000);
            let mean = acts.iter().map(|a| a.burst).sum::<f64>() / acts.len() as f64;
            assert!((mean - 1.0).abs() < 0.05, "{name}: mean burst {mean}");
        }
    }

    #[test]
    fn activity_is_always_positive_and_finite() {
        let acts = engine("libquantum", 9).take_steps(10_000);
        for a in acts {
            assert!(a.core > 0.0 && a.core.is_finite());
            assert!(a.ipc_scale > 0.0 && a.ipc_scale.is_finite());
            assert!(a.mem_boost >= 1.0 && a.mem_boost.is_finite());
        }
    }

    #[test]
    fn phase_alternation_happens() {
        // bzip2 has a 1.1 ms phase period and 45% depth; over 50 ms both
        // levels must appear.
        let acts = engine("bzip2", 2).take_steps(625);
        let hi = acts.iter().filter(|a| a.sustained > 1.05).count();
        let lo = acts.iter().filter(|a| a.sustained < 0.95).count();
        assert!(hi > 10, "high phase never sampled ({hi})");
        assert!(lo > 10, "low phase never sampled ({lo})");
    }

    #[test]
    fn burst_waveform_alternates_for_spiky_workload() {
        // gromacs bursts must both rise above and fall below baseline.
        let acts = engine("gromacs", 1).take_steps(1_000);
        let above = acts.iter().filter(|a| a.burst > 1.05).count();
        let below = acts.iter().filter(|a| a.burst < 0.95).count();
        assert!(above > 50, "bursts never rise ({above})");
        assert!(below > 50, "bursts never fall ({below})");
    }

    #[test]
    fn time_advances_by_step() {
        let mut e = engine("gcc", 0);
        assert_eq!(e.now_us(), 0.0);
        e.step();
        assert_eq!(e.now_us(), 80.0);
        e.take_steps(9);
        assert_eq!(e.now_us(), 800.0);
    }
}
