//! Table IV: top-20 attributes by normalised gain, and the §IV-B
//! feature-selection claim that they carry ~99 % of the total gain with
//! no accuracy loss versus all 78 features.

use boreas_bench::experiments::{Experiment, RUN_STEPS};
use telemetry::{build_dataset, DatasetSpec, FeatureSet, TEMPERATURE_FEATURE};
use workloads::WorkloadSpec;

fn main() {
    common::cli::Spec::new("table4_feature_importance", "Table IV: feature importance").parse_env();
    let exp = Experiment::paper().expect("paper config");
    let full = exp.full_model().expect("full model");
    let importance = full.feature_importance();

    println!("Table IV: top 20 of 78 attributes by normalised gain\n");
    let mut cum = 0.0;
    for (i, (name, gain)) in importance.iter().take(20).enumerate() {
        cum += gain;
        println!("{:>3}. {:<32} {:>6.2}%", i + 1, name, gain * 100.0);
    }
    println!(
        "\ncumulative gain of top 20: {:.1}% (paper: 99%)",
        cum * 100.0
    );
    let temp_gain = importance
        .iter()
        .find(|(n, _)| n == TEMPERATURE_FEATURE)
        .map(|(_, g)| *g)
        .unwrap_or(0.0);
    println!(
        "temperature_sensor_data gain: {:.1}% (paper: 78.1%, the dominant attribute)",
        temp_gain * 100.0
    );

    // Accuracy with top-20 vs all-78 on the unseen test workloads.
    let (top20, features20) = exp.boreas_model().expect("top-20 model");
    let points = exp.vf.pairs();
    let spec = DatasetSpec {
        steps: RUN_STEPS,
        horizon: 12,
        sensor_idx: 3,
        label_cap: Some(2.0),
    };
    let test_full = build_dataset(
        &exp.pipeline,
        &FeatureSet::full(),
        &WorkloadSpec::test_set(),
        &points,
        &spec,
    )
    .expect("test dataset");
    let test_20 = build_dataset(
        &exp.pipeline,
        &features20,
        &WorkloadSpec::test_set(),
        &points,
        &spec,
    )
    .expect("test dataset");
    println!(
        "\ntest MSE, all 78 features: {:.5}",
        full.mse_on(&test_full)
    );
    println!(
        "test MSE, top 20 features: {:.5} (paper: no loss)",
        top20.mse_on(&test_20)
    );
}
