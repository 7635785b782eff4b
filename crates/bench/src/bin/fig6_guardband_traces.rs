//! Fig. 6: frequency vs max severity for bzip2 under ML00 / ML05 / ML10.
//!
//! Paper shape: ML00 (no guardband) reaches severity 1.0 in several
//! steps; ML05 rides close to 1 without ever reaching it; ML10 is safe
//! but conservative. All three guardbands run as one
//! [`engine::Scenario`] through the shared cached session.

use boreas_bench::experiments::{Experiment, LOOP_STEPS};
use boreas_bench::{Reporting, RunFlag};
use common::cli::Spec;
use engine::{ControllerSpec, Scenario};
use workloads::WorkloadSpec;

fn main() {
    let (reporting, args) = Reporting::parse_env(
        Spec::new("fig6_guardband_traces", "Fig. 6: guardband traces").positionals(
            "workload",
            0..=1,
            "workload [default: bzip2]",
        ),
        &[RunFlag::Resume],
    );
    let name = args.positionals().first().map_or("bzip2", String::as_str);
    let exp = Experiment::paper()
        .expect("paper config")
        .observe(&reporting.obs);
    let (model, features) = exp.boreas_model().expect("model");
    let spec = WorkloadSpec::by_name(name).expect("workload");

    let controllers: Vec<ControllerSpec> = [0.0, 0.05, 0.10]
        .iter()
        .map(|&g| ControllerSpec::ml(model.clone(), &features, g))
        .collect();
    let scenario = Scenario::closed_loop(
        "fig6-guardband-traces",
        vec![spec],
        exp.vf.clone(),
        LOOP_STEPS,
        controllers,
    );
    let session = exp.session().expect("session");
    let report = reporting.execute(&session, &scenario).expect("closed loop");

    println!("Fig. 6: {name} under ML guardbands\n");
    for (out, g) in report.loop_runs().zip([0.0, 0.05, 0.10]) {
        println!(
            "{} (threshold {:.2}): avg {:.3} GHz, peak severity {:.2}, incursions {}{}",
            out.controller,
            1.0 - g,
            out.avg_frequency_ghz,
            out.peak_severity,
            out.incursions,
            if out.incursions > 0 {
                "  << UNSAFE"
            } else {
                ""
            }
        );
        print!("  f(GHz) per ms:  ");
        for f in &out.interval_freq_ghz {
            print!("{f:.2} ");
        }
        println!();
        print!("  max sev per ms: ");
        for s in &out.interval_peak_severity {
            print!("{s:.2} ");
        }
        println!("\n");
    }
    reporting.finish(Some(&report)).expect("reporting");
}
