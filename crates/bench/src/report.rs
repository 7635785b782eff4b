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
//!
//! The kernel benches (`bench_hotpath`, `bench_training`) write one
//! [`KernelBench`] document each and read their committed baselines as
//! the same type, through [`publish`].

use common::cli::{Args, Spec};
use common::{json, json_codec, Error, Result};
use simd::Isa;
use std::path::{Path, PathBuf};

/// A `bench_hotpath` or `bench_training` document: a run's `--out` file,
/// the committed `BENCH_*.json` and the `--check` baselines, whose
/// `comment` key is skipped as unknown. `dataset` is the training set's
/// shape (`bench_training` only); `scaling_floor` is the lowest
/// fastest-2-thread over fastest-1-thread fit speed `bench_training
/// --check` accepts (its baseline only).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBench {
    pub schema: String,
    pub smoke: bool,
    pub dataset: Option<DatasetShape>,
    pub machine: Machine,
    pub kernels: Vec<Kernel>,
    pub scaling_floor: Option<f64>,
}
json_codec! { struct KernelBench { schema, smoke, dataset = None, machine, kernels, scaling_floor = None } }

impl KernelBench {
    /// A document of `kernels` measured on this machine.
    pub fn new(schema: &str, smoke: bool, kernels: Vec<Kernel>) -> KernelBench {
        KernelBench {
            schema: schema.to_string(),
            smoke,
            dataset: None,
            machine: Machine::current(),
            kernels,
            scaling_floor: None,
        }
    }
}

/// Rows and features of a training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetShape {
    pub rows: usize,
    pub features: usize,
}
json_codec! { struct DatasetShape { rows, features } }

/// The host a document was recorded on: OS, architecture, usable cores,
/// and the active, detected and `BOREAS_SIMD`-overridden SIMD ISA
/// (`"any"` or `0` in baselines; a hotpath baseline must name an ISA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    pub os: String,
    pub arch: String,
    pub threads: usize,
    pub simd_isa: Option<String>,
    pub simd_detected: Option<String>,
    pub simd_override: Option<String>,
}
json_codec! { struct Machine { os, arch, threads, simd_isa = None, simd_detected = None, simd_override = None } }

impl Machine {
    /// This process's host.
    pub fn current() -> Machine {
        Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            simd_isa: Some(Isa::active().name().to_string()),
            simd_detected: Some(Isa::detect().name().to_string()),
            simd_override: Isa::env_override(),
        }
    }
}

/// One timed kernel (or training configuration) against its reference:
/// median ns per operation of each, and their ratio `speedup`, the gated
/// number. `ops_per_sec` is `bench_hotpath`'s; `isa_medians_ns` is set
/// for a SIMD kernel, re-measured on each ISA the CPU supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    pub median_ns: f64,
    pub reference_median_ns: f64,
    pub speedup: f64,
    pub ops_per_sec: Option<f64>,
    pub isa_medians_ns: Option<IsaMedians>,
}
json_codec! { struct Kernel { name, median_ns, reference_median_ns, speedup, ops_per_sec = None, isa_medians_ns = None } }

impl Kernel {
    /// A kernel whose median is `median_ns` against its reference's
    /// `reference_median_ns`.
    pub fn new(name: &str, median_ns: f64, reference_median_ns: f64) -> Kernel {
        Kernel {
            name: name.to_string(),
            median_ns,
            reference_median_ns,
            speedup: reference_median_ns / median_ns,
            ops_per_sec: None,
            isa_medians_ns: None,
        }
    }
}

/// A kernel's median per [`Isa`], ns; `None` where the CPU lacks it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IsaMedians {
    pub avx2: Option<f64>,
    pub sse2: Option<f64>,
    pub scalar: Option<f64>,
}
json_codec! { struct IsaMedians { avx2, sse2, scalar } }

/// One line per kernel of `baseline` that `current` either lacks or
/// measured more than 25% below the baseline's speedup.
pub fn speedup_regressions(current: &[Kernel], baseline: &KernelBench) -> Vec<String> {
    baseline
        .kernels
        .iter()
        .filter_map(|floor| {
            let name = &floor.name;
            let Some(k) = current.iter().find(|k| k.name == *name) else {
                return Some(format!("{name}: in the baseline but not measured"));
            };
            (k.speedup < floor.speedup / 1.25).then(|| {
                format!(
                    "{name}: speedup {:.2}x is >25% below baseline {:.2}x",
                    k.speedup, floor.speedup
                )
            })
        })
        .collect()
}

/// Ends a kernel bench: writes `doc` to `out_path` (pretty-printed),
/// exports each kernel's median and speedup as gauges under
/// `--metrics-out`, and with `check_path` reads that baseline and exits
/// 1 when `gate` reports any failure against it. `gate` owns the whole
/// comparison, [`speedup_regressions`] included.
///
/// # Errors
///
/// [`Error::Io`] when a file cannot be written or read; a baseline that
/// is not a [`KernelBench`], or `gate`'s own error.
pub fn publish(
    reporting: &Reporting,
    doc: &KernelBench,
    out_path: &str,
    check_path: Option<&str>,
    gate: impl FnOnce(&KernelBench) -> Result<Vec<String>>,
) -> Result<()> {
    std::fs::write(out_path, json::to_string_pretty(doc)?)
        .map_err(|e| Error::io("write bench results", e.to_string()))?;
    println!("wrote {out_path}");
    if reporting.metrics_out().is_some() {
        let metrics = &reporting.obs.metrics;
        for k in &doc.kernels {
            let name = &k.name;
            metrics
                .gauge(&format!("bench_{name}_median_ns"), "Median kernel time, ns")
                .set(k.median_ns);
            metrics
                .gauge(
                    &format!("bench_{name}_speedup"),
                    "Speedup over the reference",
                )
                .set(k.speedup);
        }
        reporting.finish(None)?;
    }
    let Some(path) = check_path else {
        return Ok(());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::io("read bench baseline", e.to_string()))?;
    let failures = gate(&json::from_str(&text)?)?;
    if failures.is_empty() {
        println!("check vs {path}: ok");
        return Ok(());
    }
    for f in &failures {
        eprintln!("check vs {path}: {f}");
    }
    std::process::exit(1);
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
    fn a_baseline_kernel_that_was_not_measured_fails_the_check() {
        let kept = Kernel::new("kept", 1.0, 2.0);
        let dropped = Kernel::new("dropped", 1.0, 2.0);
        let baseline = KernelBench::new("test", true, vec![kept.clone(), dropped]);
        let failures = speedup_regressions(&[kept], &baseline);
        assert_eq!(failures, ["dropped: in the baseline but not measured"]);
    }

    /// Every committed baseline reads as a document, and each committed
    /// result file is exactly what the writer makes of what the reader
    /// reads from it.
    #[test]
    fn committed_kernel_documents_parse_and_round_trip() {
        for text in [
            include_str!("../baselines/BENCH_hotpath_baseline.json"),
            include_str!("../baselines/BENCH_hotpath_simd_baseline.json"),
            include_str!("../baselines/BENCH_training_baseline.json"),
        ] {
            let baseline: KernelBench = json::from_str(text).unwrap();
            assert!(!baseline.kernels.is_empty());
        }
        for text in [
            include_str!("../../../BENCH_hotpath.json"),
            include_str!("../../../BENCH_training.json"),
        ] {
            let doc: KernelBench = json::from_str(text).unwrap();
            assert_eq!(json::to_string_pretty(&doc).unwrap(), text);
        }
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
