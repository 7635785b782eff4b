//! Fig. 7: average frequency of every model on the unseen test
//! workloads, normalised to the 3.75 GHz baseline.
//!
//! Paper shape: TH-00 ≈ +5.7 % over baseline; ML05 ≈ TH-00 + 4.5 % with
//! zero incursions; ML00 fastest but unreliable; ML10 safe but barely
//! better than TH (and worse on hmmer).
//!
//! The workload × controller matrix is one [`engine::Scenario`]; the
//! [`engine::Session`] runs it in parallel and memoises every cell.

use boreas_bench::experiments::{Experiment, LOOP_STEPS};
use boreas_bench::{Reporting, RunFlag};
use boreas_core::VfTable;
use common::cli::Spec;
use engine::{ControllerSpec, Scenario};
use workloads::WorkloadSpec;

fn main() {
    let (reporting, _) = Reporting::parse_env(
        Spec::new("fig7_avg_frequency", "Fig. 7: average frequency per model"),
        &[RunFlag::Resume],
    );
    let exp = Experiment::paper()
        .expect("paper config")
        .observe(&reporting.obs);
    let thresholds = exp.trained_thresholds().expect("trained thresholds");
    let (model, features) = exp.boreas_model().expect("boreas model");
    let tests = WorkloadSpec::test_set();

    // Column order of the Fig. 7 table; the trailing baseline row is a
    // sanity check, not a column.
    let controllers = vec![
        ControllerSpec::thermal(thresholds, 0.0),
        ControllerSpec::ml(model.clone(), &features, 0.0),
        ControllerSpec::ml(model.clone(), &features, 0.05),
        ControllerSpec::ml(model, &features, 0.10),
        ControllerSpec::global(VfTable::BASELINE_INDEX),
    ];
    let labels: Vec<String> = controllers.iter().map(ControllerSpec::label).collect();
    let n_cols = labels.len() - 1; // baseline column is hidden

    let scenario = Scenario::closed_loop(
        "fig7-avg-frequency",
        tests.clone(),
        exp.vf.clone(),
        LOOP_STEPS,
        controllers,
    );
    let session = exp.session().expect("session");
    let report = reporting
        .execute(&session, &scenario)
        .expect("closed-loop matrix");
    let rows: Vec<_> = report.loop_runs().collect();

    print!("{:<12}", "workload");
    for label in labels.iter().take(n_cols) {
        print!(" {:>8}", label);
    }
    println!("   (normalised avg frequency; * = incursions)");

    let mut sums = vec![0.0; n_cols];
    let mut incur = vec![0usize; n_cols];
    for (w_idx, w) in tests.iter().enumerate() {
        print!("{:<12}", w.name);
        for col in 0..n_cols {
            let row = rows[w_idx * labels.len() + col];
            assert_eq!(row.workload, w.name, "engine row order");
            sums[col] += row.normalized_frequency;
            incur[col] += row.incursions;
            print!(
                " {:>7.4}{}",
                row.normalized_frequency,
                if row.incursions > 0 { "*" } else { " " }
            );
        }
        println!();
    }
    print!("{:<12}", "AVG");
    for col in 0..n_cols {
        print!(
            " {:>7.4}{}",
            sums[col] / tests.len() as f64,
            if incur[col] > 0 { "*" } else { " " }
        );
    }
    println!();

    // Baseline sanity and the headline deltas.
    let baseline = rows[n_cols]; // workload 0, last column
    assert!((baseline.normalized_frequency - 1.0).abs() < 1e-9);
    let th = sums[0] / tests.len() as f64;
    let ml05 = sums[2] / tests.len() as f64;
    println!("\nTH-00 over baseline: {:+.1}%", (th - 1.0) * 100.0);
    println!(
        "ML05 over TH-00:     {:+.1}%  (paper: +4.5%)",
        (ml05 / th - 1.0) * 100.0
    );

    reporting.finish(Some(&report)).expect("reporting");
}
