//! `Pipeline::run_fixed_grid` joins its worker threads on every way out:
//! success, a failed run, and a panicking visit. The process's thread
//! count is read from `/proc/self/task`, so this binary holds this one
//! test: another test's threads would move the count.

#![cfg(target_os = "linux")]

use boreas_hotgauge::PipelineConfig;
use common::units::{GigaHertz, Volts};
use floorplan::GridSpec;
use std::panic::{self, AssertUnwindSafe};
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
fn every_way_out_of_the_grid_joins_its_workers() {
    let mut cfg = PipelineConfig::paper();
    cfg.grid = GridSpec::new(16, 12).unwrap();
    let p = cfg.build().unwrap();
    let mut workloads: Vec<WorkloadSpec> = ["gcc", "gromacs", "bzip2", "mcf"]
        .iter()
        .map(|n| WorkloadSpec::by_name(n).unwrap())
        .collect();
    let points = [
        (GigaHertz::new(4.0), Volts::new(0.98)),
        (GigaHertz::new(4.5), Volts::new(1.15)),
    ];
    let before = threads_now();

    p.run_fixed_grid(&workloads, &points, 6, 4, |_, _, _| Ok(()))
        .unwrap();
    assert_eq!(settles_at(before), before, "after a clean grid");

    let mut visits = 0;
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        p.run_fixed_grid(&workloads, &points, 6, 4, |_, _, _| {
            visits += 1;
            assert!(visits < 3, "third visit panics");
            Ok(())
        })
    }));
    assert!(caught.is_err());
    assert_eq!(settles_at(before), before, "after a panicking visit");

    workloads[1].heat = f64::NAN;
    let result = p.run_fixed_grid(&workloads, &points, 6, 4, |_, _, _| Ok(()));
    assert!(result.is_err());
    assert_eq!(settles_at(before), before, "after a failed run");
}
