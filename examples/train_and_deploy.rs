//! Train a Boreas severity predictor end to end and deploy it against a
//! thermal-only controller on an unseen workload.
//!
//! This is the paper's full Fig. 3 flow at a reduced scale so it finishes
//! in seconds: a handful of training workloads, a compact feature set and
//! a small ensemble. For the full-scale reproduction use the binaries in
//! `crates/bench` (`fig7_avg_frequency`, `fig8_dynamic_runs`).
//!
//! Run with: `cargo run --release --example train_and_deploy`

use boreas::prelude::*;

fn main() -> Result<()> {
    let pipeline = PipelineConfig::paper().build()?;
    let vf = VfTable::paper();

    // A reduced training set: six training workloads spanning the
    // severity range.
    let train: Vec<WorkloadSpec> = ["mcf", "gobmk", "lbm", "sphinx3", "gcc", "povray"]
        .iter()
        .map(|n| WorkloadSpec::by_name(n))
        .collect::<Result<_>>()?;

    // A compact telemetry schema: the sensor plus a few Table IV
    // attributes.
    let features = FeatureSet::from_names(&[
        "temperature_sensor_data",
        "total_cycles",
        "busy_cycles",
        "committed_instructions",
        "cdb_alu_accesses",
        "cdb_fpu_accesses",
        "LSU_duty_cycle",
        "frequency_ghz",
        "voltage_v",
    ])?;

    println!(
        "training GBT severity predictor on {} workloads ...",
        train.len()
    );
    let cfg = TrainingConfig {
        steps: 100,
        params: GbtParams::default().with_estimators(120).with_max_bins(64),
        ..TrainingConfig::default()
    };
    let report = TrainSpec::new(&pipeline)
        .features(features.clone())
        .vf(vf.clone())
        .workloads(&train)
        .config(cfg)
        .fit()?;
    let (model, data) = (report.model, report.dataset);
    println!(
        "trained on {} instances ({} threads, {} trees); training MSE {:.5}; \
         model cost: {} ops, {} bytes",
        data.len(),
        report.stats.threads,
        report.stats.trees,
        model.mse_on(&data),
        model.cost().total_ops(),
        model.cost().weight_bytes,
    );

    // The hyper-parameters travel with the model: a serialised model
    // round-trips its full training config, `max_bins` included.
    let restored = GbtModel::from_json(&model.to_json()?)?;
    assert_eq!(restored.params(), model.params());
    println!(
        "round-tripped model config: {} trees x depth {}, max_bins {}",
        restored.params().n_estimators,
        restored.params().max_depth,
        restored.params().max_bins,
    );

    // Deploy: Boreas (5% guardband) vs a conservative thermal threshold,
    // on a workload the model never saw.
    let unseen = WorkloadSpec::by_name("bzip2")?;
    let mut run = RunSpec::new(&pipeline).steps(144);
    let mut boreas = BoreasController::try_new(model, features, 0.05).expect("schema matches");
    let mut thermal = ThermalController::from_thresholds(
        vec![
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            Some(55.0),
            Some(50.0),
            Some(45.0),
            Some(42.0),
            Some(42.0),
        ],
        0.0,
    );

    for (label, c) in [
        ("TH-00", &mut thermal as &mut dyn Controller),
        ("ML05", &mut boreas),
    ] {
        let out = run.run(&unseen, c)?;
        println!(
            "{label}: avg {:.3} GHz ({:+.1}% vs 3.75 GHz baseline), peak severity {}, incursions {}",
            out.avg_frequency.value(),
            (out.normalized_frequency - 1.0) * 100.0,
            out.peak_severity,
            out.incursions,
        );
    }

    // Deployed for real, the very same controller runs *online*: it
    // never touches a pipeline, only consumes telemetry frames — here
    // pushed from the simulator, in production streamed to the
    // `boreas_serve` daemon over a socket (see the README serving
    // quickstart). Every 12th frame completes a 960 µs interval and
    // yields the decision governing the next one.
    println!(
        "\nonline deployment: streaming {unseen} frame by frame",
        unseen = unseen.name
    );
    let mut online = OnlineController::new(&mut boreas as &mut dyn Controller, vf)?;
    let mut sim = pipeline.start_run(&unseen)?;
    for seq in 0..144u64 {
        let point = online.current_point();
        let record = sim.step(point.frequency, point.voltage)?;
        if let Some(d) = online.observe(&TelemetryFrame::new(0, seq, record)) {
            println!(
                "interval {:>2}: {:<8} -> {:.2} GHz (predicted severity {:.3})",
                d.interval,
                format!("{:?}", d.decision),
                d.frequency_ghz,
                d.diagnostics.predicted_severity.unwrap_or(f64::NAN),
            );
        }
    }
    println!(
        "online loop: {} frames observed, {} decisions issued",
        online.frames_observed(),
        online.intervals_decided(),
    );
    Ok(())
}
