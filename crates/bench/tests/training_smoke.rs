//! Integration: the fig8 `--smoke` path driven through `TrainSpec`.
//!
//! Reproduces the smoke-mode model ([`boreas_core::smoke_model`]) and
//! closed loop of `fig8_dynamic_runs --smoke` and pins its metrics, so the unified
//! training API cannot silently drift the CI smoke path: the tiny
//! frequency-only GBT model must be bit-identical at 1 and 4 trainer
//! threads, and the 2-workload closed loop must produce the same
//! digest at 1 and 4 engine worker threads.

use engine::{ControllerSpec, Scenario, Session};
use workloads::WorkloadSpec;

/// The fig8 smoke dataset: severity ≈ frequency/5 over 200 rows.
fn smoke_dataset() -> gbt::Dataset {
    let mut d = gbt::Dataset::new(vec!["frequency_ghz".to_string()]);
    for i in 0..200 {
        let f = 2.0 + 3.0 * (i as f64 / 200.0);
        d.push_row(&[f], f / 5.0, (i % 2) as u32)
            .expect("synthetic row");
    }
    d
}

fn smoke_model(threads: usize) -> gbt::TrainReport {
    gbt::TrainSpec::new(&smoke_dataset())
        .params(gbt::GbtParams::default().with_estimators(30))
        .threads(threads)
        .fit()
        .expect("tiny model")
}

/// One line per closed-loop row with bit-exact floats — any divergence
/// between two runs shows up as a digest diff.
fn loop_digest(report: &engine::SessionReport) -> String {
    report
        .loop_runs()
        .map(|r| {
            format!(
                "{} {} {:016x} {:016x} {}",
                r.workload,
                r.controller,
                r.avg_frequency_ghz.to_bits(),
                r.peak_severity.to_bits(),
                r.incursions
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_smoke_loop(threads: usize) -> engine::SessionReport {
    let pipeline = hotgauge::PipelineConfig::paper().build().expect("pipeline");
    let (model, features) = boreas_core::smoke_model(threads);
    let vf = boreas_core::VfTable::paper();
    let tests: Vec<WorkloadSpec> = WorkloadSpec::test_set().into_iter().take(2).collect();
    let controllers = vec![
        ControllerSpec::thermal(vec![Some(70.0); vf.len()], 0.0),
        ControllerSpec::ml(model, &features, 0.05),
    ];
    let scenario = Scenario::closed_loop("fig8-smoke-test", tests, vf, 48, controllers);
    Session::without_cache(pipeline)
        .threads(threads)
        .run(&scenario)
        .expect("smoke loop")
}

#[test]
fn smoke_model_is_thread_invariant_and_histogram_trained() {
    let r1 = smoke_model(1);
    let r4 = smoke_model(4);
    assert!(r1.stats.total_bins > 0);
    assert_eq!(r1.stats.trees, 30);
    assert_eq!(r1.stats.threads, 1);
    assert_eq!(r4.stats.threads, 4);
    for i in 0..=60 {
        let f = 2.0 + 3.0 * (i as f64 / 60.0);
        assert_eq!(
            r1.model.predict(&[f]).to_bits(),
            r4.model.predict(&[f]).to_bits(),
            "prediction at {f} GHz differs between 1 and 4 trainer threads"
        );
    }
    // The binaries' shared stand-in is this model.
    assert_eq!(boreas_core::smoke_model(1).0, r1.model);
    // The smoke model's shape is pinned: severity ≈ f/5 over the
    // training range.
    let p = r1.model.predict(&[4.0]);
    assert!((p - 0.8).abs() < 0.02, "severity at 4 GHz drifted: {p}");
}

#[test]
fn fig8_smoke_loop_reproduces_pinned_metrics_at_any_thread_count() {
    let report1 = run_smoke_loop(1);
    let report4 = run_smoke_loop(4);
    assert_eq!(
        loop_digest(&report1),
        loop_digest(&report4),
        "smoke closed loop diverged between 1 and 4 threads"
    );

    let rows: Vec<_> = report1.loop_runs().collect();
    assert_eq!(rows.len(), 4, "2 workloads x 2 controllers");
    for r in &rows {
        // Pinned smoke-loop invariants: the stand-in controllers keep
        // every run on the VF table's frequency range and the ML
        // stand-in (severity ≈ f/5, guardband 5%) never incurs.
        assert!(
            r.avg_frequency_ghz >= 3.0 && r.avg_frequency_ghz <= 5.0,
            "{}/{}: avg frequency {} off the table",
            r.workload,
            r.controller,
            r.avg_frequency_ghz
        );
        assert!(
            r.peak_severity.is_finite(),
            "{}/{}: non-finite severity",
            r.workload,
            r.controller
        );
    }
}
