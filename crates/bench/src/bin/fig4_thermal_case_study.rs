//! Fig. 4: frequency vs max severity for gromacs and gamess under the
//! thermal models TH-00 / TH-05 / TH-10.
//!
//! Paper shape: TH-00 is safe for both; relaxing the thresholds by 5 or
//! 10 degrees causes hotspot incursions on gromacs while gamess stays
//! reliable and simply runs faster. All six runs are one
//! [`engine::Scenario`] executed (and cached) by the shared session.

use boreas_bench::experiments::{Experiment, LOOP_STEPS};
use boreas_bench::{Reporting, RunFlag};
use common::cli::Spec;
use engine::{ControllerSpec, Scenario};
use workloads::WorkloadSpec;

fn main() {
    let (reporting, _) = Reporting::parse_env(
        Spec::new("fig4_thermal_case_study", "Fig. 4: TH-00/05/10 case study"),
        &[RunFlag::Resume],
    );
    let exp = Experiment::paper()
        .expect("paper config")
        .observe(&reporting.obs);
    let thresholds = exp.trained_thresholds().expect("trained thresholds");

    let workloads: Vec<WorkloadSpec> = ["gromacs", "gamess"]
        .iter()
        .map(|n| WorkloadSpec::by_name(n).expect("workload"))
        .collect();
    let controllers: Vec<ControllerSpec> = [0.0, 5.0, 10.0]
        .iter()
        .map(|&relax| ControllerSpec::thermal(thresholds.clone(), relax))
        .collect();
    let scenario = Scenario::closed_loop(
        "fig4-thermal-case-study",
        workloads,
        exp.vf.clone(),
        LOOP_STEPS,
        controllers,
    );
    let session = exp.session().expect("session");
    let report = reporting.execute(&session, &scenario).expect("closed loop");

    let mut rows = report.loop_runs();
    for name in ["gromacs", "gamess"] {
        println!("== {name}");
        for _ in 0..3 {
            let out = rows.next().expect("six rows");
            assert_eq!(out.workload, name);
            println!(
                "  {}: avg {:.3} GHz ({:+.1}% vs baseline), peak severity {:.2}, incursions {}{}",
                out.controller,
                out.avg_frequency_ghz,
                (out.normalized_frequency - 1.0) * 100.0,
                out.peak_severity,
                out.incursions,
                if out.incursions > 0 {
                    "  << UNSAFE"
                } else {
                    ""
                }
            );
            print!("        f(GHz) per ms: ");
            for f in &out.interval_freq_ghz {
                print!("{f:.2} ");
            }
            println!();
            print!("        max sev per ms: ");
            for s in &out.interval_peak_severity {
                print!("{s:.2} ");
            }
            println!();
        }
    }
    reporting.finish(Some(&report)).expect("reporting");
}
