//! Fig. 9: cross-validated MSE versus model size in bytes.
//!
//! Paper shape: tiny models (a couple of shallow trees) predict poorly;
//! MSE falls as the ensemble grows until the model starts overfitting the
//! training applications, after which held-out MSE rises again. The
//! deployed model sits at the elbow, under 14 KB.
//!
//! The leave-one-application-out CV of the paper is expensive (one
//! retrain per training workload per configuration); to keep this binary
//! interactive it uses a stratified subset of folds by default — pass
//! `--full` for the complete 20-fold CV.

use boreas_bench::experiments::{Experiment, RUN_STEPS};
use boreas_core::{TrainSpec, TrainingConfig, VfTable};
use gbt::{GbtModel, GbtParams};
use workloads::WorkloadSpec;

fn main() {
    let args = common::cli::Spec::new("fig9_mse_vs_size", "Fig. 9: CV MSE versus model size")
        .switch("full", "complete 20-fold CV (slow)")
        .parse_env();
    let full_cv = args.has("full");
    let exp = Experiment::paper().expect("paper config");
    let (_, features) = exp.boreas_model().expect("model");
    let vf = VfTable::paper();

    // Extract the training dataset once.
    let data = TrainSpec::new(&exp.pipeline)
        .features(features)
        .vf(vf)
        .workloads(&WorkloadSpec::train_set())
        .config(TrainingConfig {
            steps: RUN_STEPS,
            params: GbtParams::default().with_estimators(1),
            ..TrainingConfig::default()
        })
        .fit()
        .expect("dataset extraction")
        .dataset;

    // Fold subset: every 4th training group unless --full.
    let groups = data.distinct_groups();
    let folds: Vec<u32> = if full_cv {
        groups
    } else {
        groups.into_iter().step_by(4).collect()
    };

    println!("Fig. 9: held-out (leave-one-application-out) MSE vs model size\n");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12}",
        "trees", "depth", "bytes", "cv_mse", "train_mse"
    );
    let configs: Vec<(usize, usize)> = vec![
        (1, 1),
        (2, 1),
        (4, 2),
        (8, 2),
        (16, 2),
        (32, 3),
        (64, 3),
        (128, 3),
        (223, 3),
        (400, 3),
        (223, 5),
        (400, 6),
        (800, 6),
    ];
    let mut best: Option<(f64, usize, usize, usize)> = None;
    for (trees, depth) in configs {
        let params = GbtParams::default()
            .with_estimators(trees)
            .with_depth(depth);
        // Manual CV over the chosen folds.
        let mut fold_mse = Vec::new();
        for &g in &folds {
            let (val, train) = data.split_by_group(g);
            let model = GbtModel::train(&train, &params).expect("train");
            fold_mse.push(model.mse_on(&val));
        }
        let cv = common::stats::mean(&fold_mse);
        let full_model = GbtModel::train(&data, &params).expect("train");
        let train_mse = full_model.mse_on(&data);
        let bytes = full_model.cost().weight_bytes;
        println!("{trees:>8} {depth:>6} {bytes:>12} {cv:>12.5} {train_mse:>12.5}");
        if best.is_none_or(|(b, _, _, _)| cv < b) {
            best = Some((cv, trees, depth, bytes));
        }
    }
    let (cv, trees, depth, bytes) = best.expect("at least one config");
    println!(
        "\nbest CV: {cv:.5} at {trees} trees x depth {depth} = {bytes} bytes \
         (paper: 223 x 3 < 14 KB, MSE 0.0094)"
    );
}
