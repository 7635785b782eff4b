//! A session's worker threads outlive its runs: consecutive runs on one
//! [`Session`] reuse the threads its first multi-threaded run started,
//! give the results a fresh one-thread session gives, serve two callers
//! that share the session, and survive a run whose jobs panicked.

use boreas_core::VfTable;
use boreas_engine::{ControllerSpec, RetryPolicy, Scenario, Session};
use faults::{EngineFault, EngineFaultKind, EngineFaultPlan};
use hotgauge::PipelineConfig;
use workloads::WorkloadSpec;

/// Silences the default panic hook for the panics these tests inject on
/// purpose; everything else still prints.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()));
            if !message.is_some_and(|m| m.contains("injected engine fault")) {
                default(info);
            }
        }));
    });
}

/// A 4-point VF table spanning the paper's range.
fn small_vf() -> VfTable {
    let paper = VfTable::paper();
    let points: Vec<_> = paper.points().iter().step_by(4).copied().collect();
    VfTable::new(points).expect("valid subset table")
}

/// Closed loops of three test workloads under a global, a thermal and an
/// ML controller; `rotate` shifts the workload order so that each run
/// of a sequence is a different scenario.
fn closed_loop(rotate: usize) -> Scenario {
    let vf = VfTable::paper();
    let (model, features) = boreas_core::smoke_model(0);
    let controllers = vec![
        ControllerSpec::global(VfTable::BASELINE_INDEX),
        ControllerSpec::thermal(vec![Some(70.0); vf.len()], 0.0),
        ControllerSpec::ml(model, &features, 0.05),
    ];
    let mut workloads: Vec<WorkloadSpec> = WorkloadSpec::test_set().into_iter().take(3).collect();
    workloads.rotate_left(rotate % 3);
    Scenario::closed_loop(format!("workers-{rotate}"), workloads, vf, 48, controllers)
}

#[test]
fn consecutive_runs_reuse_the_workers_and_match_one_thread() {
    let pipeline = PipelineConfig::paper().build().expect("pipeline");
    let scenarios: Vec<Scenario> = (0..3).map(closed_loop).collect();
    let reference: Vec<String> = scenarios
        .iter()
        .map(|scenario| {
            let report = Session::without_cache(pipeline.clone())
                .threads(1)
                .run(scenario)
                .expect("one-thread run");
            assert_eq!(report.counters.workers_started, 0, "one thread starts none");
            report.results_json().unwrap()
        })
        .collect();

    for threads in [2, 4] {
        let session = Session::without_cache(pipeline.clone()).threads(threads);
        let mut started = Vec::new();
        for (scenario, want) in scenarios.iter().zip(&reference) {
            let report = session.run(scenario).expect("run");
            assert!(report.is_complete());
            assert_eq!(&report.results_json().unwrap(), want, "{threads} threads");
            started.push(report.counters.workers_started);
        }
        assert_eq!(started, [threads - 1, 0, 0], "{threads} threads");
    }
}

#[test]
fn two_threads_share_one_session() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Session>();

    let pipeline = PipelineConfig::paper().build().expect("pipeline");
    let scenarios: Vec<Scenario> = (0..2).map(closed_loop).collect();
    let reference: Vec<String> = scenarios
        .iter()
        .map(|scenario| {
            let session = Session::without_cache(pipeline.clone()).threads(1);
            session.run(scenario).unwrap().results_json().unwrap()
        })
        .collect();

    // Both callers' runs go through the session's one worker set, one
    // batch at a time; only the first batch starts the worker.
    let session = Session::without_cache(pipeline).threads(2);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = scenarios
            .iter()
            .map(|scenario| scope.spawn(|| session.run(scenario).expect("run")))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    for (report, want) in reports.iter().zip(&reference) {
        assert_eq!(&report.results_json().unwrap(), want);
    }
    let started: usize = reports.iter().map(|r| r.counters.workers_started).sum();
    assert_eq!(started, 1);
}

#[test]
fn a_run_after_panicking_jobs_completes_every_job() {
    quiet_injected_panics();
    let pipeline = PipelineConfig::paper().build().expect("pipeline");
    let workloads = |n| WorkloadSpec::test_set().into_iter().take(n).collect();
    // Jobs 4..8 of the first run panic on every attempt; the second
    // run has only jobs 0..4, so the same fault plan leaves it clean.
    let plan = (4..8).fold(EngineFaultPlan::new(3), |plan, job| {
        plan.with(
            EngineFault::new(EngineFaultKind::JobPanic {
                fail_attempts: usize::MAX,
            })
            .on_job(job),
        )
    });
    let faulted = Scenario::severity_sweep("panics", workloads(2), small_vf(), 24);
    let clean = Scenario::severity_sweep("after-panics", workloads(1), small_vf(), 24);

    let session = Session::without_cache(pipeline.clone())
        .threads(2)
        .retry_policy(RetryPolicy::no_retries())
        .inject_engine_faults(plan);
    let first = session.run(&faulted).expect("a run with panicking jobs");
    let quarantined: Vec<usize> = first.quarantined.iter().map(|q| q.index).collect();
    assert_eq!(quarantined, [4, 5, 6, 7]);
    assert_eq!(first.counters.workers_started, 1);

    let second = session.run(&clean).expect("the clean run");
    assert!(second.is_complete(), "{:?}", second.quarantined);
    assert_eq!(second.results.len(), 4, "every job completed");
    assert_eq!(
        second.counters.workers_started, 0,
        "the same worker serves on"
    );
    let reference = Session::without_cache(pipeline)
        .threads(1)
        .run(&clean)
        .expect("one-thread run");
    assert_eq!(second.results, reference.results);
}
