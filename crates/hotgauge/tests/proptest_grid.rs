//! `Pipeline::run_fixed_grid` against the serial `for w { for p {
//! run_fixed } }` loop it replaces, kept here as the oracle: the same
//! outcomes visited in the same order, and the same first error, at any
//! thread count.

use boreas_hotgauge::{FixedRunOutcome, Pipeline, PipelineConfig};
use common::check::{self, Gen};
use common::units::{GigaHertz, Volts};
use common::{Error, Result};
use floorplan::GridSpec;
use std::panic::{self, AssertUnwindSafe};
use workloads::WorkloadSpec;

// The grid runner shares one pipeline between threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Pipeline>();
};

const NAMES: [&str; 5] = ["gcc", "gromacs", "bzip2", "mcf", "gamess"];

const POINTS: [(f64, f64); 4] = [(3.75, 0.925), (4.0, 0.98), (4.5, 1.15), (5.0, 1.4)];

fn quick_pipeline() -> Pipeline {
    let mut cfg = PipelineConfig::paper();
    cfg.grid = GridSpec::new(16, 12).unwrap();
    cfg.build().unwrap()
}

/// A random grid of 1–3 workloads × 1–3 VF points.
fn grid(g: &mut Gen) -> (Vec<WorkloadSpec>, Vec<(GigaHertz, Volts)>) {
    let workloads = g.vec(1..=3, |g| WorkloadSpec::by_name(g.pick(&NAMES)).unwrap());
    let points = g.vec(1..=3, |g| {
        let (f, v) = g.pick(&POINTS);
        (GigaHertz::new(f), Volts::new(v))
    });
    (workloads, points)
}

/// The thread counts every property runs at: 1, 2 and 4, and more
/// threads than the grid has jobs.
fn thread_counts(jobs: usize) -> [usize; 4] {
    [1, 2, 4, jobs + 3]
}

/// The serial oracle: each (w, p) job's outcome or error in grid order,
/// stopping after the first error as a `?` in the loop would.
fn serial(
    p: &Pipeline,
    workloads: &[WorkloadSpec],
    points: &[(GigaHertz, Volts)],
    steps: usize,
) -> (Vec<(usize, usize, FixedRunOutcome)>, Result<()>) {
    let mut visited = Vec::new();
    for (w_idx, w) in workloads.iter().enumerate() {
        for (p_idx, &(f, v)) in points.iter().enumerate() {
            match p.run_fixed(w, f, v, steps) {
                Ok(out) => visited.push((w_idx, p_idx, out)),
                Err(e) => return (visited, Err(e)),
            }
        }
    }
    (visited, Ok(()))
}

/// The grid runner's visits and result.
fn parallel(
    p: &Pipeline,
    workloads: &[WorkloadSpec],
    points: &[(GigaHertz, Volts)],
    steps: usize,
    threads: usize,
) -> (Vec<(usize, usize, FixedRunOutcome)>, Result<()>) {
    let mut visited = Vec::new();
    let result = p.run_fixed_grid(workloads, points, steps, threads, |w, p, out| {
        visited.push((w, p, out));
        Ok(())
    });
    (visited, result)
}

/// Everything but the wall-clock kernel timings.
fn assert_same(
    got: &[(usize, usize, FixedRunOutcome)],
    want: &[(usize, usize, FixedRunOutcome)],
    threads: usize,
) {
    assert_eq!(got.len(), want.len(), "visits at {threads} threads");
    for ((gw, gp, g), (ww, wp, w)) in got.iter().zip(want) {
        assert_eq!((gw, gp), (ww, wp), "visit order at {threads} threads");
        assert_eq!(
            g.records, w.records,
            "job ({ww}, {wp}) at {threads} threads"
        );
        assert_eq!(g.peak_severity, w.peak_severity);
        assert_eq!(g.peak_severity_raw.to_bits(), w.peak_severity_raw.to_bits());
        assert_eq!(g.peak_temp, w.peak_temp);
        assert_eq!(g.mean_ipc.to_bits(), w.mean_ipc.to_bits());
        assert_eq!(g.kernel.steps, w.kernel.steps);
    }
}

#[test]
fn the_grid_visits_in_grid_order_and_equals_serial_run_fixed() {
    let p = quick_pipeline();
    check::cases(24, |g| {
        let (workloads, points) = grid(g);
        let steps = g.usize_in(1..=20);
        let (want, ok) = serial(&p, &workloads, &points, steps);
        ok.unwrap();
        for threads in thread_counts(want.len()) {
            let (got, result) = parallel(&p, &workloads, &points, steps, threads);
            result.unwrap();
            assert_same(&got, &want, threads);
        }
    });
}

/// A workload whose runs all fail: a NaN heat scalar makes the power map
/// non-finite, which the thermal solver rejects on the first step.
fn broken(name: &str) -> WorkloadSpec {
    let mut w = WorkloadSpec::by_name(name).unwrap();
    w.heat = f64::NAN;
    w
}

#[test]
fn a_failing_job_returns_the_serial_loops_error_and_nothing_after_it() {
    let p = quick_pipeline();
    check::cases(16, |g| {
        let (mut workloads, points) = grid(g);
        let bad = g.usize_in(0..=workloads.len());
        workloads.insert(bad, broken("gromacs"));
        let (want, err) = serial(&p, &workloads, &points, 8);
        let err = err.expect_err("the broken workload fails");
        assert!(matches!(err, Error::Numerical(_)), "{err}");
        assert_eq!(want.len(), bad * points.len());
        for threads in thread_counts(workloads.len() * points.len()) {
            let (got, result) = parallel(&p, &workloads, &points, 8, threads);
            assert_eq!(result, Err(err.clone()), "at {threads} threads");
            assert_same(&got, &want, threads);
        }
    });
}

#[test]
fn an_error_from_visit_stops_the_grid_at_that_job() {
    let p = quick_pipeline();
    check::cases(16, |g| {
        let (workloads, points) = grid(g);
        let jobs = workloads.len() * points.len();
        let k = g.usize_in(0..jobs);
        for threads in thread_counts(jobs) {
            let mut seen = Vec::new();
            let result = p.run_fixed_grid(&workloads, &points, 4, threads, |w, q, _| {
                let j = w * points.len() + q;
                seen.push(j);
                if j == k {
                    return Err(Error::Numerical(format!("stop at {j}")));
                }
                Ok(())
            });
            assert_eq!(result, Err(Error::Numerical(format!("stop at {k}"))));
            assert_eq!(seen, (0..=k).collect::<Vec<_>>(), "at {threads} threads");
        }
    });
}

#[test]
fn a_panicking_visit_propagates_instead_of_hanging() {
    let p = quick_pipeline();
    let workloads: Vec<WorkloadSpec> = NAMES
        .iter()
        .map(|n| WorkloadSpec::by_name(n).unwrap())
        .collect();
    let points: Vec<(GigaHertz, Volts)> = POINTS
        .iter()
        .map(|&(f, v)| (GigaHertz::new(f), Volts::new(v)))
        .collect();
    for threads in [1, 2, 4] {
        for k in [0, 3, 19] {
            let mut visits = 0;
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                p.run_fixed_grid(&workloads, &points, 4, threads, |w, q, _| {
                    visits += 1;
                    assert!(w * points.len() + q != k, "visit {k} panics");
                    Ok(())
                })
            }));
            let payload = caught.expect_err("the visit's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the visit's own message");
            assert_eq!(message, &format!("visit {k} panics"));
            assert_eq!(visits, k + 1, "at {threads} threads");
        }
    }
}
