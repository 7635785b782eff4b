//! Ablation: sensor read-out delay vs controller performance.
//!
//! The paper stresses that Boreas keeps its precision "even with a
//! conservative thermal sensor delay" (960 µs), while temperature-only
//! control degrades: longer delays drag the measured critical
//! temperatures down (§III-D1), stealing headroom from TH. Here both
//! controller families are re-derived at each delay (critical temps +
//! trained thresholds for TH, retrained model for ML05) and compared on
//! the test set. Each delay point runs as one [`engine::Scenario`]; the
//! delay lives in the pipeline config and the retrained model in the
//! controller spec, so every cell keys distinctly in the artifact cache.

use boreas_bench::experiments::LOOP_STEPS;
use boreas_bench::{Reporting, RunFlag};
use boreas_core::{CriticalTemps, TrainSpec, VfTable};
use common::cli::Spec;
use engine::{ControllerSpec, Scenario, Session};
use hotgauge::PipelineConfig;
use telemetry::FeatureSet;
use workloads::WorkloadSpec;

fn main() {
    let (reporting, _) = Reporting::parse_env(
        Spec::new("ablation_sensor_delay", "ablation: sensor read-out delay"),
        &[RunFlag::Resume],
    );
    println!(
        "{:>10} {:>10} {:>8} {:>10} {:>8}   (normalised avg frequency over the test set)",
        "delay", "TH-00", "TH inc", "ML05", "ML inc"
    );
    for delay_us in [0.0, 180.0, 480.0, 960.0, 1920.0] {
        let mut cfg = PipelineConfig::paper();
        cfg.sensor_delay_us = delay_us;
        let pipeline = cfg.build().expect("config builds");
        let vf = VfTable::paper();

        // TH: critical temps at this delay, trained safe on the training set.
        let crit = CriticalTemps::measure(
            &pipeline,
            &WorkloadSpec::train_set(),
            &vf,
            telemetry::DEFAULT_SENSOR_INDEX,
            150,
        )
        .expect("critical temps");
        let thresholds = TrainSpec::new(&pipeline)
            .vf(vf.clone())
            .fit_thresholds(crit.global_thresholds(), LOOP_STEPS, 60)
            .expect("threshold training");

        // ML05: retrained at this delay (the sensor feature changes).
        let features = FeatureSet::full();
        let model = TrainSpec::new(&pipeline)
            .features(features.clone())
            .vf(vf.clone())
            .fit()
            .expect("training")
            .model;

        let scenario = Scenario::closed_loop(
            "ablation-sensor-delay",
            WorkloadSpec::test_set(),
            vf,
            LOOP_STEPS,
            vec![
                ControllerSpec::thermal(thresholds, 0.0),
                ControllerSpec::ml(model, &features, 0.05),
            ],
        );
        let session = Session::new(pipeline, reporting.obs.clone()).expect("session");
        let report = reporting
            .execute(&session, &scenario)
            .expect("closed loops");

        let mut th_sum = 0.0;
        let mut th_inc = 0usize;
        let mut ml_sum = 0.0;
        let mut ml_inc = 0usize;
        let rows: Vec<_> = report.loop_runs().collect();
        for pair in rows.chunks(2) {
            let (th, ml) = (pair[0], pair[1]);
            th_sum += th.normalized_frequency;
            th_inc += th.incursions;
            ml_sum += ml.normalized_frequency;
            ml_inc += ml.incursions;
        }
        let n = (rows.len() / 2) as f64;
        println!(
            "{:>8.0}us {:>10.4} {:>8} {:>10.4} {:>8}",
            delay_us,
            th_sum / n,
            th_inc,
            ml_sum / n,
            ml_inc
        );
    }
    println!(
        "\n(TH loses headroom as the delay grows — at 2x the paper's delay it falls back toward the \
         baseline — while Boreas's average frequency barely moves because the counters lead the \
         thermals. Note the 5% guardband is tuned for the paper's 960 us point: at other delays \
         the temperature feature's error profile changes and the guardband needs retuning to stay \
         incursion-free.)"
    );
    reporting.finish(None).expect("reporting");
}
