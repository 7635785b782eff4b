//! Scenario-based experiment engine for the Boreas reproduction.
//!
//! Every figure in the paper is a grid of independent simulations —
//! workloads × operating points for the Fig. 2 severity sweep, workloads
//! × controllers (× fault plans) for the closed-loop evaluations. This
//! crate turns those grids into first-class data and executes them
//! efficiently:
//!
//! * [`Scenario`] — a typed, serialisable experiment description:
//!   workload set, VF table, step budget, and either a severity sweep or
//!   a closed-loop controller matrix with optional [`FaultCell`]s;
//! * [`Session`] — expands a scenario into a deterministic job graph and
//!   runs it on worker threads that live as long as the session and
//!   claim jobs from one shared queue, with per-thread controller reuse,
//!   memoising every job result in a content-addressed [`ArtifactCache`];
//! * [`SessionReport`] — results in scenario order (byte-identical
//!   regardless of thread count) plus [`EngineCounters`]: jobs run vs
//!   cached, per-stage wall time and the cache hit rate.
//!
//! Execution is *supervised* (DESIGN.md §12): a panicking or failing job
//! is isolated by the pool, retried in deterministic waves under the
//! session's [`RetryPolicy`], and quarantined on the report
//! ([`SessionReport::quarantined`]) if it keeps failing — one bad job
//! never aborts a sweep. Completed jobs are checkpointed (artifact +
//! manifest line) as they finish, so a killed run continues from where
//! it stopped via [`Session::resume`] with byte-identical results, and
//! every cached artifact carries a content checksum that quarantines
//! torn or bit-flipped files instead of trusting them.
//!
//! Pass an [`obs::Obs`] bundle to [`Session::new`] (or attach one with
//! [`Session::observe`]) and the session streams execution metrics,
//! span timings and per-decision flight events into it; result-domain
//! metrics (`scenario_*`) are derived from the ordered rows, so cached
//! and fresh replays of the same scenario emit identical values.
//!
//! ```no_run
//! use boreas_core::VfTable;
//! use boreas_engine::{ControllerSpec, Scenario, Session};
//! use hotgauge::PipelineConfig;
//! use workloads::WorkloadSpec;
//!
//! # fn main() -> common::Result<()> {
//! let pipeline = PipelineConfig::paper().build()?;
//! let scenario = Scenario::severity_sweep(
//!     "fig2",
//!     WorkloadSpec::test_set(),
//!     VfTable::paper(),
//!     150,
//! );
//! let obs = obs::Obs::new();
//! let session = Session::new(pipeline, obs.clone())?;
//! let report = session.run(&scenario)?;
//! println!("{}", report.counters.summary());
//! print!("{}", obs.metrics.snapshot().to_prometheus());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod pool;
pub mod scenario;
pub mod session;
pub mod supervisor;

pub use cache::{ArtifactCache, CacheLookup, CACHE_DIR_ENV};
pub use pool::JobOutcome;
pub use scenario::{
    BuiltController, ControllerFactory, ControllerSpec, FaultCell, Scenario, ScenarioKind,
};
pub use session::{
    EngineCounters, JobResult, LoopRunResult, Session, SessionReport, SweepPointResult,
};
pub use supervisor::{QuarantinedJob, RetryPolicy, SupervisedRun, SupervisorEvent};
