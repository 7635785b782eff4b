//! A fit joins its worker threads before it returns: they are a crew
//! that lives for one fit, not scoped threads, so a missed join would
//! leak them silently. The process's thread count is read from
//! `/proc/self/task`, so this binary holds this one test: another
//! test's threads would move the count.

#![cfg(target_os = "linux")]

use boreas_gbt::{Dataset, GbtParams, TrainSpec};
use std::time::{Duration, Instant};

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
fn a_fit_joins_its_worker_threads() {
    // Four features, so a 4-thread fit runs four workers.
    let mut d = Dataset::new((0..4).map(|f| format!("x{f}")).collect());
    for i in 0..2_000 {
        let x: Vec<f64> = (0..4).map(|f| ((i * (17 + f)) % 101) as f64).collect();
        d.push_row(&x, x[0] - 0.5 * x[3], 0).expect("finite row");
    }
    let spec = TrainSpec::new(&d)
        .params(GbtParams::default().with_estimators(5))
        .threads(4);

    let before = threads_now();
    for fit in 0..2 {
        let report = spec.fit().expect("fit");
        assert_eq!(report.stats.threads, 4);
        assert_eq!(settles_at(before), before, "after fit {fit}");
    }
}
