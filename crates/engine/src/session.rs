//! The session executor: scenario → job graph → supervised
//! parallel execution with cache memoisation → ordered results +
//! counters + casualty list.
//!
//! Execution is *supervised* (see [`crate::supervisor`]): a panicking
//! or failing job is retried under the session's [`RetryPolicy`] and,
//! if it keeps failing, lands in [`SessionReport::quarantined`] instead
//! of aborting the sweep. Completed jobs are persisted to the artifact
//! cache *as they finish*, together with a checkpoint line in a session
//! manifest, so a killed process can pick up where it left off via
//! [`Session::resume`].
//!
//! A session's worker threads live as long as the session: its first
//! multi-threaded run starts them, every later run posts its jobs to
//! them where they park, and dropping the session joins them (see
//! [`crate::pool`]). Each run builds one [`ControllerFactory`] per
//! controller its misses use, on the calling thread, so a worker's
//! controller is a clone that shares the factory's compiled model.

use crate::cache::{ArtifactCache, CacheLookup};
use crate::pool::Pool;
use crate::scenario::{BuiltController, ControllerFactory, JobRef, Scenario, ScenarioKind};
use crate::supervisor::{self, QuarantinedJob, RetryPolicy, SupervisorEvent};
use boreas_core::{RunSpec, SweepTable};
use common::{Error, Result};
use faults::{EngineFaultPlan, FaultInjector, FaultPlan};
use hotgauge::{Pipeline, PipelineConfig};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use workloads::WorkloadSpec;

/// Severity bucket bounds shared by the engine's result-domain
/// histograms (severity lives in [0, 1] and the interesting action is
/// near the top).
const SEVERITY_BOUNDS: &[f64] = &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0];

/// Frequency bucket bounds spanning the paper VF table (2.0–5.0 GHz).
const FREQUENCY_BOUNDS: &[f64] = &[2.0, 2.5, 3.0, 3.25, 3.5, 3.75, 4.0, 4.5, 5.0];

/// Result of one fixed-frequency sweep job.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointResult {
    /// Workload name.
    pub workload: String,
    /// Severity rank of the workload (Fig. 2 sort order).
    pub rank: usize,
    /// Frequency of the run, GHz.
    pub freq_ghz: f64,
    /// Peak severity over the run (clamped to [0, 1]).
    pub peak_severity: f64,
    /// Unclamped peak severity.
    pub peak_severity_raw: f64,
    /// Peak true die temperature, °C.
    pub peak_temp_c: f64,
    /// Mean IPC of the run.
    pub mean_ipc: f64,
}

common::json_codec! {
    struct SweepPointResult {
        workload, rank, freq_ghz, peak_severity, peak_severity_raw, peak_temp_c, mean_ipc,
    }
}

/// Result of one closed-loop job.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopRunResult {
    /// Workload name.
    pub workload: String,
    /// Controller label (from [`crate::ControllerSpec::label`]).
    pub controller: String,
    /// Fault-cell label, when a fault plan was injected.
    pub fault: Option<String>,
    /// Time-average frequency over the run, GHz.
    pub avg_frequency_ghz: f64,
    /// Average frequency normalised to the 3.75 GHz baseline.
    pub normalized_frequency: f64,
    /// Number of steps whose true severity reached 1.0.
    pub incursions: usize,
    /// Peak severity over the run (clamped to [0, 1]).
    pub peak_severity: f64,
    /// VF index after the final decision.
    pub final_idx: usize,
    /// Frequency at the end of each 960 µs decision interval, GHz.
    pub interval_freq_ghz: Vec<f64>,
    /// Peak true severity within each decision interval.
    pub interval_peak_severity: Vec<f64>,
    /// Worst degradation stage reached (resilient controllers only).
    pub worst_stage: Option<String>,
}

common::json_codec! {
    struct LoopRunResult {
        workload, controller, fault, avg_frequency_ghz, normalized_frequency, incursions,
        peak_severity, final_idx, interval_freq_ghz, interval_peak_severity, worst_stage,
    }
}

/// Result of one engine job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// From a severity-sweep scenario.
    Sweep(SweepPointResult),
    /// From a closed-loop scenario.
    Loop(LoopRunResult),
}

common::json_codec! { enum JobResult { Sweep(point) = "Sweep", Loop(run) = "Loop" } }

impl JobResult {
    /// The sweep point, if this is a sweep result.
    pub fn as_sweep(&self) -> Option<&SweepPointResult> {
        match self {
            JobResult::Sweep(p) => Some(p),
            JobResult::Loop(_) => None,
        }
    }

    /// The loop run, if this is a closed-loop result.
    pub fn as_loop(&self) -> Option<&LoopRunResult> {
        match self {
            JobResult::Loop(r) => Some(r),
            JobResult::Sweep(_) => None,
        }
    }
}

/// Execution accounting for one [`Session::run`].
#[derive(Debug, Clone)]
pub struct EngineCounters {
    /// Worker threads used for the execute stage.
    pub threads: usize,
    /// Worker threads this run started: `threads − 1` on a session's
    /// first multi-threaded run, 0 on every later run and at one
    /// thread. Not part of [`EngineCounters::summary`].
    pub workers_started: usize,
    /// Jobs in the expanded graph.
    pub jobs_total: usize,
    /// Jobs served from the artifact cache.
    pub jobs_cached: usize,
    /// Jobs actually simulated.
    pub jobs_run: usize,
    /// Cache hits confirmed by the checkpoint manifest of an
    /// interrupted earlier run (subset of `jobs_cached`; only nonzero
    /// under [`Session::resume`]).
    pub jobs_resumed: usize,
    /// Jobs that exhausted their retry budget and were quarantined.
    pub jobs_quarantined: usize,
    /// Retry dispatches performed by the supervisor.
    pub retries: usize,
    /// Cache artifacts that failed their checksum and were quarantined
    /// to `<key>.corrupt` during the probe.
    pub artifacts_corrupt: usize,
    /// Wall time expanding the scenario, ms.
    pub expand_ms: f64,
    /// Wall time probing the cache, ms.
    pub probe_ms: f64,
    /// Wall time executing misses, ms (includes in-flight persists).
    pub execute_ms: f64,
    /// Time persisting new artifacts, ms, summed across workers (the
    /// persists happen inside the execute stage, as each job finishes).
    pub persist_ms: f64,
    /// End-to-end wall time, ms.
    pub total_ms: f64,
}

impl EngineCounters {
    /// Fraction of jobs served from cache (0 when there were no jobs).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.jobs_total == 0 {
            0.0
        } else {
            self.jobs_cached as f64 / self.jobs_total as f64
        }
    }

    /// One-line human-readable summary for CLI footers. Supervision
    /// counters (resumed / quarantined / retries / corrupt artifacts)
    /// appear only when nonzero, so a healthy run reads like before.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} jobs ({} cached / {} run, {:.0}% hit rate) on {} threads in {:.0} ms \
             [expand {:.1} | probe {:.1} | execute {:.1} | persist {:.1}]",
            self.jobs_total,
            self.jobs_cached,
            self.jobs_run,
            self.cache_hit_rate() * 100.0,
            self.threads,
            self.total_ms,
            self.expand_ms,
            self.probe_ms,
            self.execute_ms,
            self.persist_ms,
        );
        if self.jobs_resumed > 0 {
            line.push_str(&format!(" resumed={}", self.jobs_resumed));
        }
        if self.retries > 0 {
            line.push_str(&format!(" retries={}", self.retries));
        }
        if self.jobs_quarantined > 0 {
            line.push_str(&format!(" quarantined={}", self.jobs_quarantined));
        }
        if self.artifacts_corrupt > 0 {
            line.push_str(&format!(" corrupt-artifacts={}", self.artifacts_corrupt));
        }
        line
    }
}

/// Results of one scenario run, in the scenario's deterministic job
/// order, plus execution counters and the quarantine casualty list.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The scenario's name.
    pub scenario: String,
    /// One result per *completed* job, in expansion order. When
    /// [`SessionReport::quarantined`] is empty (the healthy case) this
    /// is exactly one result per job.
    pub results: Vec<JobResult>,
    /// Jobs that exhausted their retry budget, ascending by index.
    pub quarantined: Vec<QuarantinedJob>,
    /// Execution accounting.
    pub counters: EngineCounters,
}

impl SessionReport {
    /// `true` when every job completed (nothing quarantined).
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Iterates sweep points (empty for closed-loop scenarios).
    pub fn sweep_points(&self) -> impl Iterator<Item = &SweepPointResult> {
        self.results.iter().filter_map(JobResult::as_sweep)
    }

    /// Iterates closed-loop runs (empty for sweep scenarios).
    pub fn loop_runs(&self) -> impl Iterator<Item = &LoopRunResult> {
        self.results.iter().filter_map(JobResult::as_loop)
    }

    /// Canonical JSON of the result rows (not the counters), for
    /// determinism comparisons and downstream tooling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] when a row holds a non-finite float.
    pub fn results_json(&self) -> Result<String> {
        common::json::to_string(&self.results)
    }

    /// Assembles a [`SweepTable`] from a severity-sweep run (the oracle
    /// and threshold-training input).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `scenario` is not the
    /// severity sweep this report came from, or when quarantined jobs
    /// left holes in the grid.
    pub fn sweep_table(&self, scenario: &Scenario) -> Result<SweepTable> {
        if scenario.kind != ScenarioKind::SeveritySweep {
            return Err(Error::invalid_config(
                "sweep_table",
                "scenario is not a severity sweep",
            ));
        }
        if !self.quarantined.is_empty() {
            let casualties: Vec<String> = self
                .quarantined
                .iter()
                .map(|q| q.index.to_string())
                .collect();
            return Err(Error::invalid_config(
                "sweep_table",
                format!(
                    "sweep grid is incomplete: jobs [{}] were quarantined",
                    casualties.join(", ")
                ),
            ));
        }
        let per_workload = scenario.vf.len();
        if self.results.len() != scenario.workloads.len() * per_workload {
            return Err(Error::invalid_config(
                "sweep_table",
                format!(
                    "report has {} results, scenario expands to {}",
                    self.results.len(),
                    scenario.workloads.len() * per_workload
                ),
            ));
        }
        let names: Vec<String> = scenario.workloads.iter().map(|w| w.name.clone()).collect();
        let peaks: Vec<Vec<f64>> = self
            .results
            .chunks(per_workload)
            .map(|row| {
                row.iter()
                    .map(|r| {
                        r.as_sweep().map(|p| p.peak_severity_raw).ok_or_else(|| {
                            Error::invalid_config("sweep_table", "non-sweep result in report")
                        })
                    })
                    .collect::<Result<Vec<f64>>>()
            })
            .collect::<Result<Vec<Vec<f64>>>>()?;
        SweepTable::from_peaks(names, peaks, scenario.vf.clone())
    }
}

/// Cache key for one job: full provenance as serialisable data. Hashing
/// this (plus the engine version, added by [`ArtifactCache::key_for`])
/// yields the artifact key. Deliberately excludes the retry policy and
/// any [`EngineFaultPlan`]: injected engine faults must never change
/// what a job computes, only how often it has to try.
struct JobKey<'a> {
    schema: &'static str,
    pipeline: &'a PipelineConfig,
    vf: &'a boreas_core::VfTable,
    steps: usize,
    payload: JobKeyPayload<'a>,
}

common::json_codec! { write struct JobKey<'a> { schema, pipeline, vf, steps, payload } }

enum JobKeyPayload<'a> {
    Fixed {
        workload: &'a WorkloadSpec,
        vf_idx: usize,
    },
    Loop {
        workload: &'a WorkloadSpec,
        start_idx: usize,
        sensor_idx: usize,
        controller: &'a crate::ControllerSpec,
        fault: Option<&'a FaultPlan>,
    },
}

common::json_codec! {
    write enum JobKeyPayload<'a> {
        Fixed { workload, vf_idx } = "Fixed",
        Loop { workload, start_idx, sensor_idx, controller, fault } = "Loop",
    }
}

/// Executes [`Scenario`]s against one [`Pipeline`].
///
/// A session owns the simulation pipeline, a thread budget,
/// (optionally) an [`ArtifactCache`], a [`RetryPolicy`] and an
/// [`obs::Obs`] observability bundle; [`Session::run`] expands a
/// scenario into jobs, serves what it can from the cache (verifying
/// content checksums and quarantining corrupt artifacts), simulates the
/// rest on the supervised thread pool and returns results in the
/// scenario's deterministic order — the same bytes whether one thread
/// ran the jobs or sixteen did, with or without observability attached.
/// Recording is strictly off the deterministic path: result-domain
/// metrics are derived from the ordered result rows, so a fully cached
/// replay and a cold run emit identical [`obs::Determinism::Result`]
/// families.
pub struct Session {
    pipeline: Pipeline,
    pool: Pool,
    cache: Option<ArtifactCache>,
    obs: obs::Obs,
    retry: RetryPolicy,
    engine_faults: Option<EngineFaultPlan>,
}

impl Session {
    /// A session with the default artifact cache
    /// (`$BOREAS_CACHE_DIR` or `target/boreas-cache`) and the given
    /// observability bundle (pass `None` to run unobserved; an
    /// [`obs::Obs`] value coerces via `Into`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the cache directory cannot be created.
    pub fn new(pipeline: Pipeline, obs: impl Into<Option<obs::Obs>>) -> Result<Session> {
        Ok(Session {
            pipeline,
            pool: Pool::new(common::available_threads()),
            cache: Some(ArtifactCache::open_default()?),
            obs: obs.into().unwrap_or_default(),
            retry: RetryPolicy::default(),
            engine_faults: None,
        })
    }

    /// A session caching under an explicit directory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the cache directory cannot be created.
    pub fn with_cache_dir(
        pipeline: Pipeline,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Session> {
        Ok(Session {
            pipeline,
            pool: Pool::new(common::available_threads()),
            cache: Some(ArtifactCache::open(dir)?),
            obs: obs::Obs::disabled(),
            retry: RetryPolicy::default(),
            engine_faults: None,
        })
    }

    /// A session that always simulates (no artifact cache) — for
    /// calibration loops that mutate workload parameters between runs.
    pub fn without_cache(pipeline: Pipeline) -> Session {
        Session {
            pipeline,
            pool: Pool::new(common::available_threads()),
            cache: None,
            obs: obs::Obs::disabled(),
            retry: RetryPolicy::default(),
            engine_faults: None,
        }
    }

    /// Overrides the worker-thread count (default: available
    /// parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// Attaches an observability bundle: metrics, span timings and
    /// flight events from every subsequent [`Session::run`] land in
    /// `obs`'s handles.
    #[must_use]
    pub fn observe(mut self, obs: &obs::Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Overrides the retry policy (default:
    /// [`RetryPolicy::default`] — one retry).
    #[must_use]
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Arms an engine-level fault plan: injected job panics and
    /// artifact bit flips, for exercising the supervision layer. Fault
    /// decisions never feed into cache keys or results.
    #[must_use]
    pub fn inject_engine_faults(mut self, plan: EngineFaultPlan) -> Self {
        self.engine_faults = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// The simulation pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The artifact cache, when enabled.
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.cache.as_ref()
    }

    /// The attached observability bundle (disabled by default).
    pub fn obs(&self) -> &obs::Obs {
        &self.obs
    }

    /// Runs `scenario` to completion and returns its report. Job
    /// failures and panics are retried per the session's
    /// [`RetryPolicy`]; jobs that keep failing are reported in
    /// [`SessionReport::quarantined`] rather than aborting the sweep.
    /// Starts a fresh checkpoint manifest (discarding any earlier one
    /// for this scenario) — use [`Session::resume`] to continue an
    /// interrupted run instead.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation, key-derivation and
    /// checkpoint-manifest I/O errors. Simulation errors no longer
    /// abort the run; they quarantine the failing job.
    pub fn run(&self, scenario: &Scenario) -> Result<SessionReport> {
        self.run_inner(scenario, false)
    }

    /// Like [`Session::run`], but first consults the scenario's
    /// checkpoint manifest: jobs recorded as completed by an earlier
    /// (possibly killed) run are restored from the artifact cache and
    /// skipped, and the report's `jobs_resumed` counter says how many.
    /// The results are byte-identical to an uninterrupted [`Session::run`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the session has no cache
    /// (there is nothing to resume from), plus everything
    /// [`Session::run`] can return.
    pub fn resume(&self, scenario: &Scenario) -> Result<SessionReport> {
        if self.cache.is_none() {
            return Err(Error::invalid_config(
                "session resume",
                "resuming requires an artifact cache",
            ));
        }
        self.run_inner(scenario, true)
    }

    fn run_inner(&self, scenario: &Scenario, resume: bool) -> Result<SessionReport> {
        let t_total = Instant::now();
        let _session_span = self.obs.tracer.span("session.run");
        scenario.validate()?;
        let flight = self.obs.flight.run(&scenario.name, "engine");

        let t_expand = Instant::now();
        let jobs = scenario.jobs();
        let n = jobs.len();
        let expand_ms = ms_since(t_expand);
        self.record_stage("session.expand", expand_ms);

        // Open (or reload) the checkpoint manifest before probing, so
        // the probe can tell "cached because a previous run checkpointed
        // it" apart from ordinary cache warmth.
        let mut checkpointed: HashSet<usize> = HashSet::new();
        let manifest = match &self.cache {
            Some(cache) => {
                let path = manifest_path(cache, scenario)?;
                if resume {
                    let (manifest, done) = Manifest::resume(path, n)?;
                    checkpointed = done;
                    Some(manifest)
                } else {
                    Some(Manifest::fresh(path, n)?)
                }
            }
            None => None,
        };

        // Probe the cache serially (cheap: one hash + one small file
        // read per job) so the execute stage only sees genuine misses.
        // Corrupt artifacts are quarantined by the cache and recomputed
        // here like misses.
        let t_probe = Instant::now();
        let mut slots: Vec<Option<JobResult>> = vec![None; n];
        let mut keys: Vec<Option<String>> = vec![None; n];
        let mut artifacts_corrupt = 0usize;
        let mut jobs_resumed = 0usize;
        if let Some(cache) = &self.cache {
            for (idx, job) in jobs.iter().enumerate() {
                let key = ArtifactCache::key_for(&self.job_key(scenario, *job))?;
                match cache.lookup::<JobResult>(&key) {
                    CacheLookup::Hit(result) => {
                        if checkpointed.contains(&idx) {
                            jobs_resumed += 1;
                        }
                        slots[idx] = Some(result);
                    }
                    CacheLookup::Miss => {}
                    CacheLookup::Corrupt => {
                        artifacts_corrupt += 1;
                        flight.record(obs::FlightEvent::ArtifactCorrupt { key: key.clone() });
                    }
                }
                keys[idx] = Some(key);
            }
        }
        let jobs_cached = slots.iter().filter(|s| s.is_some()).count();
        if resume {
            flight.record(obs::FlightEvent::Resumed {
                jobs_resumed,
                jobs_total: n,
            });
        }
        let probe_ms = ms_since(t_probe);
        self.record_stage("session.probe", probe_ms);

        let misses: Vec<(usize, JobRef)> = jobs
            .iter()
            .enumerate()
            .filter(|(idx, _)| slots[*idx].is_none())
            .map(|(idx, job)| (idx, *job))
            .collect();
        let jobs_run = misses.len();
        let factories = factories(scenario, &misses);

        let job_ms = self.obs.metrics.histogram(
            "engine_job_ms",
            "Wall time of each simulated (cache-miss) job, ms",
            &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0],
        );
        let persist_ns = AtomicU64::new(0);
        let t_execute = Instant::now();
        let supervised = supervisor::run_supervised(
            &self.retry,
            &self.pool,
            misses,
            WorkerState::default,
            |state, idx, job, attempt| {
                if let Some(plan) = &self.engine_faults {
                    if let Some(message) = plan.panic_for(idx, attempt) {
                        panic!("{message}");
                    }
                }
                let _job_span = self.obs.tracer.span("engine.job");
                let t_job = Instant::now();
                let result = self
                    .execute(scenario, &factories, state, *job)
                    .map_err(|e| e.to_string())?;
                job_ms.observe(ms_since(t_job));
                // Persist immediately (artifact first, then the
                // checkpoint line): a kill after this point cannot lose
                // the finished job.
                let t_persist = Instant::now();
                if let (Some(cache), Some(key)) = (&self.cache, keys[idx].as_ref()) {
                    cache.put(key, &result).map_err(|e| e.to_string())?;
                    if let Some(plan) = &self.engine_faults {
                        if let Some(seed) = plan.bitflip_for(idx) {
                            let _ = cache.corrupt_artifact(key, seed);
                        }
                    }
                    if let Some(manifest) = &manifest {
                        manifest.mark_done(idx, key).map_err(|e| e.to_string())?;
                    }
                }
                persist_ns.fetch_add(t_persist.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(result)
            },
            |event| self.record_supervisor_event(&flight, &event),
        );
        let execute_ms = ms_since(t_execute);
        self.record_stage("session.execute", execute_ms);
        let persist_ms = persist_ns.load(Ordering::Relaxed) as f64 / 1e6;
        self.record_stage("session.persist", persist_ms);

        for (idx, result) in supervised.completed {
            slots[idx] = Some(result);
        }
        let quarantined = supervised.quarantined;
        let results: Vec<JobResult> = slots.into_iter().flatten().collect();
        debug_assert_eq!(
            results.len() + quarantined.len(),
            n,
            "every job is either completed or quarantined"
        );
        self.record_metrics(n, jobs_cached, jobs_run, &results);
        let m = &self.obs.metrics;
        if m.is_enabled() {
            m.counter("engine_retries_total", "Supervisor retry dispatches")
                .add(supervised.retries as u64);
            m.counter(
                "engine_quarantined_total",
                "Jobs that exhausted their retry budget",
            )
            .add(quarantined.len() as u64);
            m.counter(
                "engine_artifacts_corrupt_total",
                "Cache artifacts that failed their checksum",
            )
            .add(artifacts_corrupt as u64);
            m.counter(
                "engine_jobs_resumed_total",
                "Jobs restored from a checkpoint manifest",
            )
            .add(jobs_resumed as u64);
        }
        Ok(SessionReport {
            scenario: scenario.name.clone(),
            results,
            quarantined,
            counters: EngineCounters {
                threads: self.pool.threads(),
                workers_started: supervised.workers_started,
                jobs_total: n,
                jobs_cached,
                jobs_run,
                jobs_resumed,
                jobs_quarantined: 0,
                retries: supervised.retries,
                artifacts_corrupt,
                expand_ms,
                probe_ms,
                execute_ms,
                persist_ms,
                total_ms: ms_since(t_total),
            },
        }
        .finalise())
    }

    fn record_supervisor_event(&self, flight: &obs::RunLog, event: &SupervisorEvent) {
        if !flight.is_enabled() {
            return;
        }
        match event {
            SupervisorEvent::AttemptFailed {
                index,
                attempt,
                panicked: true,
                message,
            } => flight.record(obs::FlightEvent::JobPanicked {
                index: *index,
                attempt: *attempt,
                message: message.clone(),
            }),
            SupervisorEvent::AttemptFailed { .. } => {}
            SupervisorEvent::Retried { index, attempt } => {
                flight.record(obs::FlightEvent::JobRetried {
                    index: *index,
                    attempt: *attempt,
                });
            }
            SupervisorEvent::Quarantined { .. } => {}
        }
    }

    fn record_stage(&self, name: &'static str, ms: f64) {
        if self.obs.tracer.is_enabled() {
            self.obs.tracer.record(name, (ms * 1e6) as u64);
        }
    }

    /// Execution-domain accounting plus result-domain metrics derived
    /// from the ordered rows — the latter are byte-identical for cached
    /// and fresh replays of the same scenario, whatever the thread
    /// count.
    fn record_metrics(&self, total: usize, cached: usize, run: usize, results: &[JobResult]) {
        let m = &self.obs.metrics;
        if !m.is_enabled() {
            return;
        }
        m.counter("engine_jobs_total", "Jobs in expanded scenario graphs")
            .add(total as u64);
        m.counter(
            "engine_jobs_cached_total",
            "Jobs served from the artifact cache",
        )
        .add(cached as u64);
        m.counter("engine_jobs_run_total", "Jobs actually simulated")
            .add(run as u64);

        let rows = m.result_counter(
            "scenario_results_total",
            "Result rows produced, in scenario order",
        );
        let incursions = m.result_counter(
            "scenario_incursions_total",
            "Hotspot incursion steps summed over closed-loop rows",
        );
        let peak = m.result_histogram(
            "scenario_peak_severity",
            "Peak severity of each result row",
            SEVERITY_BOUNDS,
        );
        let freq = m.result_histogram(
            "scenario_avg_frequency_ghz",
            "Time-average frequency of each closed-loop row, GHz",
            FREQUENCY_BOUNDS,
        );
        rows.add(results.len() as u64);
        for result in results {
            match result {
                JobResult::Sweep(p) => peak.observe(p.peak_severity),
                JobResult::Loop(r) => {
                    peak.observe(r.peak_severity);
                    freq.observe(r.avg_frequency_ghz);
                    incursions.add(r.incursions as u64);
                }
            }
        }
    }

    fn job_key<'a>(&'a self, scenario: &'a Scenario, job: JobRef) -> JobKey<'a> {
        let payload = match (job, &scenario.kind) {
            (JobRef::Fixed { w, vf_idx }, _) => JobKeyPayload::Fixed {
                workload: &scenario.workloads[w],
                vf_idx,
            },
            (
                JobRef::Loop { w, ctrl, fault },
                ScenarioKind::ClosedLoop {
                    start_idx,
                    sensor_idx,
                    controllers,
                    faults,
                },
            ) => JobKeyPayload::Loop {
                workload: &scenario.workloads[w],
                start_idx: *start_idx,
                sensor_idx: *sensor_idx,
                controller: &controllers[ctrl],
                fault: fault.map(|f| &faults[f].plan),
            },
            (JobRef::Loop { .. }, ScenarioKind::SeveritySweep) => {
                unreachable!("loop job in a sweep scenario")
            }
        };
        JobKey {
            schema: "boreas-engine job v1",
            pipeline: self.pipeline.config(),
            vf: &scenario.vf,
            steps: scenario.steps,
            payload,
        }
    }

    fn execute(
        &self,
        scenario: &Scenario,
        factories: &[Option<Result<ControllerFactory>>],
        state: &mut WorkerState,
        job: JobRef,
    ) -> Result<JobResult> {
        match (job, &scenario.kind) {
            (JobRef::Fixed { w, vf_idx }, _) => {
                let spec = &scenario.workloads[w];
                let point = scenario.vf.point(vf_idx);
                let out = self.pipeline.run_fixed_observed(
                    spec,
                    point.frequency,
                    point.voltage,
                    scenario.steps,
                    &self.obs,
                )?;
                Ok(JobResult::Sweep(SweepPointResult {
                    workload: spec.name.clone(),
                    rank: spec.severity_rank,
                    freq_ghz: point.frequency.value(),
                    peak_severity: out.peak_severity.value(),
                    peak_severity_raw: out.peak_severity_raw,
                    peak_temp_c: out.peak_temp.value(),
                    mean_ipc: out.mean_ipc,
                }))
            }
            (
                JobRef::Loop { w, ctrl, fault },
                ScenarioKind::ClosedLoop {
                    start_idx,
                    sensor_idx,
                    controllers,
                    faults,
                },
            ) => {
                let spec = &scenario.workloads[w];
                let factory = factories[ctrl]
                    .as_ref()
                    .expect("a factory for every controller a miss runs")
                    .as_ref()
                    .map_err(Clone::clone)?;
                let controller = state.controller(ctrl, factory);
                let mut run_spec = RunSpec::new(&self.pipeline)
                    .vf(scenario.vf.clone())
                    .sensor(*sensor_idx)
                    .steps(scenario.steps)
                    .start(*start_idx)
                    .obs(&self.obs);
                // The injector is stateful (per-run RNG streams), so each
                // job gets a fresh one built from the cell's plan.
                let mut injector;
                let cell = fault.map(|f| &faults[f]);
                if let Some(cell) = cell {
                    injector = FaultInjector::new(cell.plan.clone());
                    injector.observe(&self.obs, &spec.name, &controllers[ctrl].label());
                    run_spec = run_spec.filter(&mut injector);
                }
                let out = run_spec.run(spec, controller.as_controller())?;
                Ok(JobResult::Loop(LoopRunResult {
                    workload: spec.name.clone(),
                    controller: controllers[ctrl].label(),
                    fault: cell.map(|c| c.label.clone()),
                    avg_frequency_ghz: out.avg_frequency.value(),
                    normalized_frequency: out.normalized_frequency,
                    incursions: out.incursions,
                    peak_severity: out.peak_severity.value(),
                    final_idx: out.final_idx,
                    interval_freq_ghz: out.interval_frequencies(),
                    interval_peak_severity: out.interval_peak_severities(),
                    worst_stage: controller.worst_stage().map(|s| s.to_string()),
                }))
            }
            (JobRef::Loop { .. }, ScenarioKind::SeveritySweep) => {
                unreachable!("loop job in a sweep scenario")
            }
        }
    }
}

impl SessionReport {
    /// Syncs derived counters after assembly.
    fn finalise(mut self) -> SessionReport {
        self.counters.jobs_quarantined = self.quarantined.len();
        self
    }
}

/// Checkpoint manifest: one append-only file per (cache, scenario)
/// recording which jobs have been persisted, so a killed sweep resumes
/// from its last completed job instead of from zero.
///
/// The format is deliberately plain text (`done <index> <key>` lines
/// under a `boreas-manifest v1 jobs=<n>` header) rather than JSON: it
/// must stay parseable after a mid-write kill, and the reader simply
/// ignores a torn final line.
struct Manifest {
    file: Mutex<std::fs::File>,
}

const MANIFEST_MAGIC: &str = "boreas-manifest v1";

/// The manifest lives next to the artifacts, keyed by the scenario's
/// full provenance so two scenarios never share a checkpoint.
fn manifest_path(cache: &ArtifactCache, scenario: &Scenario) -> Result<PathBuf> {
    let key = ArtifactCache::key_for(scenario)?;
    Ok(cache.root().join(format!("manifest-{key}.log")))
}

impl Manifest {
    /// Starts a fresh manifest, truncating any previous checkpoint.
    fn fresh(path: PathBuf, jobs: usize) -> Result<Manifest> {
        let mut file =
            std::fs::File::create(&path).map_err(|e| manifest_io(&path, "cannot create", &e))?;
        writeln!(file, "{MANIFEST_MAGIC} jobs={jobs}")
            .map_err(|e| manifest_io(&path, "cannot write header", &e))?;
        Ok(Manifest {
            file: Mutex::new(file),
        })
    }

    /// Loads the completed-job set from an existing checkpoint and
    /// reopens it for appending. A missing, header-less or
    /// differently-sized manifest starts fresh (the scenario changed or
    /// there is simply nothing to resume).
    fn resume(path: PathBuf, jobs: usize) -> Result<(Manifest, HashSet<usize>)> {
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(_) => return Ok((Self::fresh(path, jobs)?, HashSet::new())),
        };
        let mut lines = raw.split('\n');
        let header_ok = lines
            .next()
            .is_some_and(|h| h == format!("{MANIFEST_MAGIC} jobs={jobs}"));
        if !header_ok {
            return Ok((Self::fresh(path, jobs)?, HashSet::new()));
        }
        let mut done = HashSet::new();
        for line in lines {
            // `done <index> <key>`; torn or foreign lines are skipped —
            // worst case the job reruns, which is merely slower.
            let mut parts = line.split(' ');
            if parts.next() != Some("done") {
                continue;
            }
            let (Some(idx), Some(_key), None) = (parts.next(), parts.next(), parts.next()) else {
                continue;
            };
            if let Ok(idx) = idx.parse::<usize>() {
                if idx < jobs {
                    done.insert(idx);
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| manifest_io(&path, "cannot reopen", &e))?;
        Ok((
            Manifest {
                file: Mutex::new(file),
            },
            done,
        ))
    }

    /// Appends one checkpoint line; a single `write` keeps the line
    /// intact under concurrent appends from pool workers.
    fn mark_done(&self, index: usize, key: &str) -> Result<()> {
        let line = format!("done {index} {key}\n");
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| Error::io("session manifest", format!("cannot checkpoint: {e}")))
    }
}

fn manifest_io(path: &std::path::Path, what: &str, e: &std::io::Error) -> Error {
    Error::io(
        "session manifest",
        format!("{what} {}: {e}", path.display()),
    )
}

/// One factory per controller of a closed-loop scenario that `misses`
/// run (`None` for the rest, and nothing for a sweep). A spec that does
/// not build keeps its error, which fails each job that needs it.
fn factories(
    scenario: &Scenario,
    misses: &[(usize, JobRef)],
) -> Vec<Option<Result<ControllerFactory>>> {
    let ScenarioKind::ClosedLoop { controllers, .. } = &scenario.kind else {
        return Vec::new();
    };
    let mut used = vec![false; controllers.len()];
    for (_, job) in misses {
        if let JobRef::Loop { ctrl, .. } = job {
            used[*ctrl] = true;
        }
    }
    controllers
        .iter()
        .zip(used)
        .map(|(spec, used)| used.then(|| ControllerFactory::new(spec)))
        .collect()
}

/// Per-worker reusable state: controllers cloned from the run's
/// factories once per thread, reset (inside [`RunSpec::run`]) between
/// jobs.
#[derive(Default)]
struct WorkerState {
    controllers: Vec<Option<BuiltController>>,
}

impl WorkerState {
    fn controller(&mut self, idx: usize, factory: &ControllerFactory) -> &mut BuiltController {
        if self.controllers.len() <= idx {
            self.controllers.resize_with(idx + 1, || None);
        }
        self.controllers[idx].get_or_insert_with(|| factory.build())
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
