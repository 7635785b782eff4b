//! Table II: the Boreas model parameters and dataset statistics.

use boreas_bench::experiments::{Experiment, RUN_STEPS};
use boreas_core::{TrainSpec, TrainingConfig, VfTable};
use workloads::WorkloadSpec;

fn main() {
    common::cli::Spec::new("table2_model_params", "Table II: model parameters").parse_env();
    let exp = Experiment::paper().expect("paper config");
    let (model, features) = exp.boreas_model().expect("model");
    let cfg = TrainingConfig::default();
    let params = model.params();

    // Count the dataset the deployed model trains on.
    let vf = VfTable::paper();
    let train_data = TrainSpec::new(&exp.pipeline)
        .features(features.clone())
        .vf(vf.clone())
        .workloads(&WorkloadSpec::train_set())
        .config(cfg)
        .fit()
        .expect("training flow")
        .dataset;

    println!("Table II: Boreas model parameters (paper values in parentheses)\n");
    println!(
        "Dataset          {} train instances from the Table III workloads ({} steps x {} VF points x 20 workloads; paper: 500K total / 411K train)",
        train_data.len(),
        RUN_STEPS - 12,
        vf.len()
    );
    println!(
        "Features         {} attributes: temperature sensor data + microarchitectural counters (paper: 20, Table IV)",
        features.len()
    );
    println!(
        "Hyperparameters  alpha = {} (0.3), gamma = {} (0), max_depth = {} (3), n_estimators = {} (223)",
        params.learning_rate, params.gamma, params.max_depth, params.n_estimators
    );
    println!("\nTraining MSE: {:.5}", model.mse_on(&train_data));
}
