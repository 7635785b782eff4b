//! Benchmark and experiment-regeneration harness for the Boreas
//! reproduction.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). The binaries describe their
//! experiment as an [`engine::Scenario`] and execute it through
//! [`engine::Session`] — the parallel, artifact-cached experiment
//! engine — via the shared [`experiments::Experiment`] context, and
//! share the [`report::Reporting`] footer: engine counters, kernel span
//! timings, the metrics snapshot, and (with `--metrics-out <base>`)
//! Prometheus + JSONL export. The gated `bench_hotpath` and
//! `bench_training` binaries measure the runtime cost of the core
//! components (GBT prediction, thermal step, MLTD sweep, pipeline step,
//! histogram training) against their reference implementations and
//! write one typed [`report::KernelBench`] document each.

pub mod experiments;
pub mod report;

pub use experiments::{Experiment, LOOP_STEPS, RUN_STEPS};
pub use report::{Reporting, RunFlag};
