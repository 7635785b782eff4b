//! Shared end-of-run reporting for the figure/table binaries: one
//! observability bundle per process, the standard engine footer, and
//! optional artifact export.
//!
//! A binary hands its [`Spec`] to [`Reporting::parse_env`], which adds
//! the reporting flags and parses argv once. Every such binary takes
//! `--metrics-out <base>`: [`Reporting::finish`] then writes
//! `<base>.prom` (Prometheus text exposition) and `<base>.jsonl`
//! (spans, flight events and metrics as self-describing JSON lines)
//! beside printing the footer. A binary that runs an
//! [`engine::Session`] through [`Reporting::execute`] also declares
//! [`RunFlag::Resume`], so an interrupted sweep picks up from its
//! checkpoint manifest; one that sizes a session or trainer declares
//! [`RunFlag::Threads`] (`0` = one worker per core; results are
//! bit-identical for every value).

use common::cli::{Args, Spec};
use common::{json, Error, Result};
use std::path::{Path, PathBuf};

/// The `(name, speedup)` pairs of a `bench_hotpath`/`bench_training`
/// document or committed baseline, in document order.
pub fn baseline_speedups(doc: &str) -> Result<Vec<(String, f64)>> {
    json::from_str::<json::Json>(doc)?
        .get("kernels")?
        .as_arr("kernels")?
        .iter()
        .map(|k| {
            let name = k.get("name")?.as_str("name")?.to_string();
            Ok((name, k.get("speedup")?.as_f64("speedup")?))
        })
        .collect()
}

/// One line per `(name, speedup)` of `current` that falls more than 25%
/// below the speedup recorded for `name` in the `baseline` document.
pub fn speedup_regressions<'a>(
    current: impl IntoIterator<Item = (&'a str, f64)>,
    baseline: &str,
) -> Result<Vec<String>> {
    let floors = baseline_speedups(baseline)?;
    Ok(current
        .into_iter()
        .filter_map(|(name, speedup)| {
            let (_, base) = floors.iter().find(|(n, _)| n == name)?;
            (speedup < base / 1.25)
                .then(|| format!("{name}: speedup {speedup:.2}x is >25% below baseline {base:.2}x"))
        })
        .collect())
}

/// A reporting flag beyond `--metrics-out`, declared only by the
/// binaries that act on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFlag {
    /// `--resume`: the binary runs its scenario through
    /// [`Reporting::execute`].
    Resume,
    /// `--threads <n>`: the binary sizes a session or trainer with
    /// [`Reporting::threads`].
    Threads,
}

/// Observability + export wiring shared by every bench binary.
///
/// Construct with [`Reporting::parse_env`], attach [`Reporting::obs`]
/// to the experiment/session, and call [`Reporting::finish`] last.
pub struct Reporting {
    /// The live observability bundle for this process.
    pub obs: obs::Obs,
    out: Option<PathBuf>,
    resume: bool,
    threads: usize,
}

impl Reporting {
    /// Declares `--metrics-out` and `extra` on `spec`, then parses the
    /// process arguments ([`Spec::parse_env`]: exits 0 on `--help` and
    /// 2 on a bad argument). Returns the reporting state and the parsed
    /// arguments, which carry the binary's own flags too.
    pub fn parse_env(spec: Spec, extra: &[RunFlag]) -> (Reporting, Args) {
        let args = Self::spec(spec, extra).parse_env();
        (Self::from_args(&args), args)
    }

    fn spec(spec: Spec, extra: &[RunFlag]) -> Spec {
        let spec = spec.value_flag::<PathBuf>(
            "metrics-out",
            "base",
            None,
            "also write <base>.prom and <base>.jsonl",
        );
        extra.iter().fold(spec, |spec, flag| match flag {
            RunFlag::Resume => spec.switch("resume", "continue from the checkpoint manifest"),
            RunFlag::Threads => spec.value_flag::<usize>(
                "threads",
                "n",
                Some("0"),
                "worker threads (0 = one per core); results are identical for every value",
            ),
        })
    }

    fn from_args(args: &Args) -> Reporting {
        Reporting {
            obs: obs::Obs::new(),
            out: args.parsed("metrics-out"),
            resume: args.has("resume"),
            threads: args.parsed("threads").unwrap_or(0),
        }
    }

    /// The export base path, when `--metrics-out` was given.
    pub fn metrics_out(&self) -> Option<&Path> {
        self.out.as_deref()
    }

    /// `true` when `--resume` was declared and given.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// The worker count from `--threads <n>` (`0` = auto, the default
    /// and the value when the flag is not declared).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `scenario` on `session`, honouring `--resume`: with the flag
    /// the scenario's checkpoint manifest is consulted first and only
    /// unfinished jobs are simulated; without it the run starts fresh.
    ///
    /// # Errors
    ///
    /// Propagates [`engine::Session::run`] / [`engine::Session::resume`]
    /// errors.
    pub fn execute(
        &self,
        session: &engine::Session,
        scenario: &engine::Scenario,
    ) -> Result<engine::SessionReport> {
        if self.resume {
            session.resume(scenario)
        } else {
            session.run(scenario)
        }
    }

    /// Prints the standard footer — engine counters, the span table and
    /// the metrics snapshot — and writes the export artifacts when
    /// `--metrics-out` was given.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the artifacts cannot be written.
    pub fn finish(&self, report: Option<&engine::SessionReport>) -> Result<()> {
        if let Some(report) = report {
            println!("\nengine: {}", report.counters.summary());
            if !report.quarantined.is_empty() {
                println!("engine: {} job(s) quarantined:", report.quarantined.len());
                for q in &report.quarantined {
                    println!(
                        "engine:   job {} after {} attempt(s){}: {}",
                        q.index,
                        q.attempts,
                        if q.panicked { " [panic]" } else { "" },
                        q.error
                    );
                }
            }
        }
        // Info-style gauge: which SIMD instruction set produced this
        // run's numbers (the registry has no labels, so the value is the
        // ISA code documented in the help text).
        self.obs
            .metrics
            .gauge(
                "boreas_simd_isa",
                "Active SIMD instruction set (0 = scalar, 1 = sse2, 2 = avx2)",
            )
            .set(simd::Isa::active() as i32 as f64);
        let spans = self.obs.tracer.stats();
        if !spans.is_empty() {
            print!("spans:\n{}", spans.summary());
        }
        let snapshot = self.obs.metrics.snapshot();
        if !snapshot.families.is_empty() {
            print!("metrics:\n{}", snapshot.to_prometheus());
        }
        if let Some(base) = &self.out {
            let (prom, jsonl) = self
                .obs
                .write_artifacts(base)
                .map_err(|e| Error::io("write metrics artifacts", e.to_string()))?;
            println!("metrics: wrote {} and {}", prom.display(), jsonl.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(extra: &[RunFlag], argv: &[&str]) -> Result<(Reporting, Args)> {
        let spec = Spec::new("fig_x", "test binary")
            .switch("smoke", "tiny run")
            .value_flag::<u64>("seed", "n", Some("1"), "seed");
        let args = Reporting::spec(spec, extra).parse(argv.iter().map(|s| (*s).to_string()))?;
        Ok((Reporting::from_args(&args), args))
    }

    #[test]
    fn metrics_out_is_parsed_beside_the_binary_flags() {
        let (r, args) =
            parse(&[], &["--smoke", "--metrics-out", "out/run", "--seed", "7"]).unwrap();
        assert_eq!(r.metrics_out(), Some(Path::new("out/run")));
        assert!(args.has("smoke"));
        assert_eq!(args.value::<u64>("seed"), 7);
        assert!(r.obs.is_enabled());
    }

    #[test]
    fn absent_flag_means_no_export() {
        let (r, _) = parse(&[RunFlag::Resume, RunFlag::Threads], &["--smoke"]).unwrap();
        assert_eq!(r.metrics_out(), None);
        assert!(!r.resume());
        assert_eq!(r.threads(), 0);
    }

    #[test]
    fn resume_and_threads_are_declared_only_on_request() {
        assert!(parse(&[], &["--resume"]).is_err());
        assert!(parse(&[RunFlag::Threads], &["--resume"]).is_err());
        assert!(parse(&[RunFlag::Resume], &["--threads", "4"]).is_err());
        let (r, _) = parse(
            &[RunFlag::Resume, RunFlag::Threads],
            &["--resume", "--threads=4"],
        )
        .unwrap();
        assert!(r.resume());
        assert_eq!(r.threads(), 4);
    }
}
