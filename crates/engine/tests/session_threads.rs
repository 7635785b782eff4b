//! Dropping a [`Session`] joins its worker threads. The process's thread
//! count is read from `/proc/self/task`, so this binary holds this one
//! test: another test's threads would move the count.

#![cfg(target_os = "linux")]

use boreas_core::VfTable;
use boreas_engine::{Scenario, Session};
use hotgauge::PipelineConfig;
use std::time::{Duration, Instant};
use workloads::WorkloadSpec;

/// Threads of this process.
fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Waits up to 5 s for the thread count to read `want`: a joined thread
/// can linger in `/proc` for a moment after `join` returns.
fn settles_at(want: usize) -> usize {
    let start = Instant::now();
    loop {
        let now = threads_now();
        if now == want || start.elapsed() > Duration::from_secs(5) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn dropping_a_session_joins_its_workers() {
    let pipeline = PipelineConfig::paper().build().expect("pipeline");
    let paper = VfTable::paper();
    let vf = VfTable::new(paper.points().iter().step_by(4).copied().collect()).unwrap();
    let workloads: Vec<WorkloadSpec> = WorkloadSpec::test_set().into_iter().take(2).collect();
    let scenario = Scenario::severity_sweep("threads", workloads, vf, 24);

    let before = threads_now();
    let session = Session::without_cache(pipeline).threads(3);
    assert_eq!(threads_now(), before, "no thread before the first run");
    for _ in 0..2 {
        let report = session.run(&scenario).expect("run");
        assert!(report.is_complete());
        assert_eq!(threads_now(), before + 2, "two workers park between runs");
    }
    drop(session);
    assert_eq!(settles_at(before), before, "the workers were joined");
}
