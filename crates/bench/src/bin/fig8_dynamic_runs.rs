//! Fig. 8: dynamic closed-loop traces of every unseen test workload
//! under TH-00 and Boreas (ML05) for 150 timesteps (12 ms).
//!
//! Paper shape: Boreas runs at the same frequency or one-two 250 MHz
//! steps above the thermal model (except hmmer), and no test workload
//! ever reaches severity 1.0 under either controller.
//!
//! Both controllers over all test workloads form one
//! [`engine::Scenario`]; the per-interval traces come straight off the
//! engine's result rows.
//!
//! Usage: `fig8_dynamic_runs [--smoke] [--threads N] [--metrics-out BASE]
//! [--resume]`.
//! `--smoke` shrinks the grid to 2 workloads × 48 steps with cheap
//! stand-in controllers (flat 70 °C thermal thresholds, a tiny
//! frequency-only GBT model) so CI can exercise the full
//! engine/controller/observability path in seconds; `--threads` sets
//! both the engine worker count and the trainer thread count (output is
//! bit-identical for every value); `--metrics-out` exports the
//! observability artifacts (`BASE.prom`, `BASE.jsonl`).

use boreas_bench::experiments::{Experiment, LOOP_STEPS};
use boreas_bench::{Reporting, RunFlag};
use common::cli::Spec;
use engine::{ControllerSpec, Scenario};
use workloads::WorkloadSpec;

/// Smoke-mode stand-ins: flat thermal thresholds and the
/// [`boreas_core::smoke_model`] — the paper shape does not hold under
/// them, but every code path (thermal + ML decisions, flight events,
/// metrics) still runs.
fn smoke_controllers(vf_len: usize, threads: usize) -> Vec<ControllerSpec> {
    let (model, features) = boreas_core::smoke_model(threads);
    vec![
        ControllerSpec::thermal(vec![Some(70.0); vf_len], 0.0),
        ControllerSpec::ml(model, &features, 0.05),
    ]
}

fn main() {
    let (reporting, args) = Reporting::parse_env(
        Spec::new("fig8_dynamic_runs", "Fig. 8: TH-00 vs ML05 closed loops")
            .switch("smoke", "2 workloads x 48 steps, stand-in controllers"),
        &[RunFlag::Resume, RunFlag::Threads],
    );
    let smoke = args.has("smoke");
    let exp = Experiment::paper()
        .expect("paper config")
        .observe(&reporting.obs);

    let (name, tests, steps, controllers) = if smoke {
        let tests: Vec<WorkloadSpec> = WorkloadSpec::test_set().into_iter().take(2).collect();
        let controllers = smoke_controllers(exp.vf.len(), reporting.threads());
        ("fig8-smoke", tests, 48, controllers)
    } else {
        let thresholds = exp.trained_thresholds().expect("trained thresholds");
        let (model, features) = exp.boreas_model().expect("model");
        let controllers = vec![
            ControllerSpec::thermal(thresholds, 0.0),
            ControllerSpec::ml(model, &features, 0.05),
        ];
        (
            "fig8-dynamic-runs",
            WorkloadSpec::test_set(),
            LOOP_STEPS,
            controllers,
        )
    };

    let scenario = Scenario::closed_loop(name, tests.clone(), exp.vf.clone(), steps, controllers);
    let mut session = exp.session().expect("session");
    if reporting.threads() > 0 {
        session = session.threads(reporting.threads());
    }
    let report = reporting
        .execute(&session, &scenario)
        .expect("dynamic runs");
    let rows: Vec<_> = report.loop_runs().collect();

    let mut any_incursion = false;
    for (w_idx, w) in tests.iter().enumerate() {
        println!("== {}", w.name);
        let pair = &rows[w_idx * 2..w_idx * 2 + 2];
        for row in pair {
            assert_eq!(row.workload, w.name, "engine row order");
            println!(
                "  {:<6} avg {:.3} GHz, peak severity {:.3}, incursions {}",
                row.controller, row.avg_frequency_ghz, row.peak_severity, row.incursions
            );
            print!("    f(GHz):  ");
            for f in &row.interval_freq_ghz {
                print!("{f:.2} ");
            }
            println!();
            print!("    max sev: ");
            for s in &row.interval_peak_severity {
                print!("{s:.2} ");
            }
            println!();
            any_incursion |= row.incursions > 0;
        }
        println!(
            "  Boreas vs TH-00: {:+.1}%\n",
            (pair[1].avg_frequency_ghz / pair[0].avg_frequency_ghz - 1.0) * 100.0
        );
    }
    println!(
        "any incursion across all test workloads and both controllers: {} (paper: none)",
        if any_incursion { "YES (!)" } else { "no" }
    );

    reporting.finish(Some(&report)).expect("reporting");
}
