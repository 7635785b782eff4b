//! §IV-A "Grid search CV": leave-one-application-out grid search over
//! the GBT hyper-parameters, the model-selection flow behind Table II.
//!
//! Uses a reduced extraction (fewer workloads/steps) so the full grid ×
//! folds product stays interactive; pass `--paper` for the full training
//! set (slow).

use boreas_bench::experiments::{Experiment, RUN_STEPS};
use boreas_core::{TrainSpec, TrainingConfig, VfTable};
use gbt::{grid_search, GbtParams};
use workloads::WorkloadSpec;

fn main() {
    let args = common::cli::Spec::new("grid_search_cv", "§IV-A GBT hyper-parameter grid search")
        .switch("paper", "full training set (slow)")
        .parse_env();
    let full = args.has("paper");
    let exp = Experiment::paper().expect("paper config");
    let (_, features) = exp.boreas_model().expect("feature schema");
    let vf = VfTable::paper();

    let workloads: Vec<WorkloadSpec> = if full {
        WorkloadSpec::train_set()
    } else {
        [
            "gcc", "povray", "mcf", "sjeng", "milc", "lbm", "namd", "soplex",
        ]
        .iter()
        .map(|n| WorkloadSpec::by_name(n).expect("workload"))
        .collect()
    };
    let steps = if full { RUN_STEPS } else { 80 };
    let data = TrainSpec::new(&exp.pipeline)
        .features(features)
        .vf(vf)
        .workloads(&workloads)
        .config(TrainingConfig {
            steps,
            params: GbtParams::default().with_estimators(1),
            ..TrainingConfig::default()
        })
        .fit()
        .expect("dataset extraction")
        .dataset;
    println!(
        "grid search over {} instances from {} workloads, leave-one-application-out\n",
        data.len(),
        workloads.len()
    );

    let mut grid = Vec::new();
    for &trees in &[64usize, 128, 223] {
        for &depth in &[2usize, 3, 4] {
            for &lr in &[0.1f64, 0.3] {
                grid.push(
                    GbtParams::default()
                        .with_estimators(trees)
                        .with_depth(depth)
                        .with_learning_rate(lr),
                );
            }
        }
    }
    let results = grid_search(&data, &grid).expect("grid search");
    println!(
        "{:>6} {:>6} {:>6} {:>12} {:>12}",
        "trees", "depth", "alpha", "mean_mse", "std_mse"
    );
    for r in &results {
        println!(
            "{:>6} {:>6} {:>6.2} {:>12.5} {:>12.5}",
            r.params.n_estimators,
            r.params.max_depth,
            r.params.learning_rate,
            r.cv.mean_mse,
            r.cv.std_mse
        );
    }
    let best = &results[0];
    println!(
        "\nbest: {} trees x depth {} at alpha {} (paper's pick: 223 x 3 at 0.3)",
        best.params.n_estimators, best.params.max_depth, best.params.learning_rate
    );
}
