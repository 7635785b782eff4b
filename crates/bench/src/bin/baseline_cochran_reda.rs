//! §IV-C comparative study: the Cochran & Reda temperature-prediction
//! baseline (PCA + k-means phases + per-phase linear regression) against
//! TH-00 and Boreas (ML05) on the unseen test workloads.
//!
//! The paper's argument: predicting *temperature* — however well — still
//! misses MLTD-driven hotspots, so a temperature predictor must use the
//! same conservative thresholds as a plain thermal controller and cannot
//! close the gap to severity prediction.

use baselines::{CochranRedaModel, CochranRedaParams, TempPredController};
use boreas_bench::experiments::{Experiment, LOOP_STEPS, RUN_STEPS};
use boreas_core::{BoreasController, Controller, RunSpec, ThermalController};
use telemetry::FeatureSet;
use workloads::WorkloadSpec;

fn main() {
    common::cli::Spec::new("baseline_cochran_reda", "§IV-C Cochran & Reda baseline").parse_env();
    let exp = Experiment::paper().expect("paper config");
    let thresholds = exp.trained_thresholds().expect("thresholds");
    let (model, features) = exp.boreas_model().expect("boreas model");

    // Fit the baseline on the same training workloads with a
    // counters-only schema (C&R predict temperature *from counters*).
    let counter_names: Vec<&str> = FeatureSet::full()
        .names()
        .iter()
        .filter(|n| *n != telemetry::TEMPERATURE_FEATURE)
        .map(|n| Box::leak(n.clone().into_boxed_str()) as &str)
        .collect();
    let counters = FeatureSet::from_names(&counter_names).expect("counter schema");
    let params = CochranRedaParams {
        steps: RUN_STEPS,
        ..CochranRedaParams::default()
    };
    eprintln!("fitting Cochran & Reda baseline (PCA + phases + per-phase regressions) ...");
    let cr = CochranRedaModel::fit(
        &exp.pipeline,
        &exp.vf,
        &WorkloadSpec::train_set(),
        &counters,
        &params,
    )
    .expect("baseline fit");
    let cr_mse = cr
        .temperature_mse(&exp.pipeline, &WorkloadSpec::test_set())
        .expect("eval");
    println!(
        "Cochran-Reda future-temperature MSE on unseen workloads: {cr_mse:.2} C^2 ({:.1} C RMS)\n",
        cr_mse.sqrt()
    );

    let mut run = RunSpec::new(&exp.pipeline).steps(LOOP_STEPS);
    println!(
        "{:<12} {:>9} {:>9} {:>9}   (normalised avg frequency; * = incursions)",
        "workload", "TH-00", "CR-temp", "ML05"
    );
    let mut sums = [0.0f64; 3];
    let mut incur = [0usize; 3];
    let tests = WorkloadSpec::test_set();
    for w in &tests {
        print!("{:<12}", w.name);
        let mut th: Box<dyn Controller> =
            Box::new(ThermalController::from_thresholds(thresholds.clone(), 0.0));
        let mut crc: Box<dyn Controller> =
            Box::new(TempPredController::new(cr.clone(), thresholds.clone()));
        let mut ml: Box<dyn Controller> = Box::new(
            BoreasController::try_new(model.clone(), features.clone(), 0.05)
                .expect("schema matches"),
        );
        for (i, c) in [&mut th, &mut crc, &mut ml].into_iter().enumerate() {
            let out = run.run(w, c.as_mut()).expect("closed loop");
            sums[i] += out.normalized_frequency;
            incur[i] += out.incursions;
            print!(
                " {:>8.4}{}",
                out.normalized_frequency,
                if out.incursions > 0 { "*" } else { " " }
            );
        }
        println!();
    }
    print!("{:<12}", "AVG");
    for i in 0..3 {
        print!(
            " {:>8.4}{}",
            sums[i] / tests.len() as f64,
            if incur[i] > 0 { "*" } else { " " }
        );
    }
    println!(
        "\n\nCR-temp vs TH-00: {:+.1}%   ML05 vs TH-00: {:+.1}%",
        (sums[1] / sums[0] - 1.0) * 100.0,
        (sums[2] / sums[0] - 1.0) * 100.0
    );
    println!(
        "(the temperature predictor is bound by the same conservative thresholds as TH; \
         severity prediction is what unlocks the headroom)"
    );
}
