//! Calibration helper: sweeps every workload over the VF table and prints
//! peak severities, used to pin `PAPER_POWER_SCALE` and the per-workload
//! `heat` values so the Fig. 2 shape holds (all safe at 3.75 GHz, none at
//! 5.0 GHz, oracle frequencies spread 3.75–4.75 GHz monotone in rank).
//!
//! Sweeps run through an uncached [`engine::Session`] (caching would be
//! wrong here: the auto mode mutates workload heats between iterations).
//!
//! Usage: `cargo run --release -p boreas-bench --bin calibrate --
//! [--auto] [--scale S] [--steps N] [--iters N] [--threads N]
//! [--metrics-out BASE]`.

use boreas_bench::{Reporting, RunFlag};
use boreas_core::VfTable;
use common::cli::Spec;
use engine::{Scenario, Session, SweepPointResult};
use hotgauge::PipelineConfig;
use workloads::WorkloadSpec;

/// Target oracle frequency for a severity rank: the Fig. 2 band layout.
fn target_oracle_freq(rank: usize) -> f64 {
    match rank {
        0..=2 => 4.75,
        3..=7 => 4.5,
        8..=14 => 4.25,
        15..=24 => 4.0,
        _ => 3.75,
    }
}

/// Builds the uncached session, honouring the shared `--threads` flag.
fn session_for(pipeline: hotgauge::Pipeline, reporting: &Reporting) -> Session {
    let session = Session::without_cache(pipeline).observe(&reporting.obs);
    if reporting.threads() > 0 {
        session.threads(reporting.threads())
    } else {
        session
    }
}

/// Runs the full workload × VF sweep through an uncached session.
fn sweep(
    session: &Session,
    vf: &VfTable,
    suite: &[WorkloadSpec],
    steps: usize,
) -> Vec<SweepPointResult> {
    let scenario = Scenario::severity_sweep("calibrate", suite.to_vec(), vf.clone(), steps);
    let report = session.run(&scenario).expect("calibration sweep");
    report.sweep_points().cloned().collect()
}

fn auto_calibrate(scale: f64, steps: usize, iterations: usize, reporting: &Reporting) {
    let mut cfg = PipelineConfig::paper();
    cfg.power.scale = scale;
    let pipeline = cfg.build().expect("paper config builds");
    let session = session_for(pipeline, reporting);
    let vf = VfTable::paper();
    let mut suite = WorkloadSpec::by_severity_rank();

    for iter in 0..iterations {
        let points = sweep(&session, &vf, &suite, steps);
        let mut max_err: f64 = 0.0;
        for w in &mut suite {
            let f_t = target_oracle_freq(w.severity_rank);
            let measured = points
                .iter()
                .find(|p| p.workload == w.name && (p.freq_ghz - f_t).abs() < 1e-9)
                .expect("sweep covers target frequency")
                .peak_severity_raw;
            let target = 0.96;
            let err = (measured - target).abs();
            max_err = max_err.max(err);
            let ratio = (target / measured.max(1e-3)).clamp(0.3, 4.0);
            w.heat *= ratio;
        }
        eprintln!("# iter {iter}: max |sev err| at target freqs = {max_err:.4}");
    }
    println!("// Calibrated heats (scale = {scale}, steps = {steps}):");
    let mut by_name = suite.clone();
    by_name.sort_by_key(|w| w.severity_rank);
    for w in &by_name {
        println!("(\"{}\", {:.4}),", w.name, w.heat);
    }
    // Final verification sweep.
    print_sweep(&session, &vf, &suite, steps);
}

fn print_sweep(session: &Session, vf: &VfTable, suite: &[WorkloadSpec], steps: usize) {
    let points = sweep(session, vf, suite, steps);
    print!("{:<12} {:>4}", "workload", "rank");
    for p in vf.points() {
        print!(" {:>5.2}", p.frequency.value());
    }
    println!("  oracle");
    for w in suite {
        let row: Vec<&SweepPointResult> = points.iter().filter(|p| p.workload == w.name).collect();
        print!("{:<12} {:>4}", w.name, w.severity_rank);
        let mut oracle = None;
        for p in &row {
            print!(" {:>5.2}", p.peak_severity_raw);
        }
        for p in row.iter().rev() {
            if p.peak_severity_raw < 1.0 {
                oracle = Some(p.freq_ghz);
                break;
            }
        }
        println!("  {oracle:?}");
    }
}

fn main() {
    let (reporting, args) = Reporting::parse_env(
        Spec::new("calibrate", "workload heat calibration sweep")
            .switch("auto", "fit each workload's heat to its Fig. 2 band")
            .value_flag::<f64>("scale", "s", Some("1.0"), "power scale of the pipeline")
            .value_flag::<usize>("steps", "n", Some("150"), "steps per sweep point")
            .value_flag::<usize>("iters", "n", Some("4"), "--auto fitting iterations"),
        &[RunFlag::Threads],
    );
    let scale = args.value::<f64>("scale");
    let steps = args.value::<usize>("steps");
    if args.has("auto") {
        auto_calibrate(scale, steps, args.value("iters"), &reporting);
        reporting.finish(None).expect("reporting");
        return;
    }

    let mut cfg = PipelineConfig::paper();
    cfg.power.scale = scale;
    let pipeline = cfg.build().expect("paper config builds");
    let session = session_for(pipeline, &reporting);
    let vf = VfTable::paper();
    let suite = WorkloadSpec::by_severity_rank();

    println!("# scale = {scale}, steps = {steps}");
    print_sweep(&session, &vf, &suite, steps);
    reporting.finish(None).expect("reporting");
}
