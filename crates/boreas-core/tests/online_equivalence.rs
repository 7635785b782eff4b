//! Replay equivalence: the offline harness and the online control loop
//! are the same loop.
//!
//! `RunSpec::run` is a thin replay driver over [`OnlineController`];
//! these tests pin the contract from both sides:
//!
//! * a hand-rolled frame-by-frame replay (the serving deployment shape:
//!   step the simulator at the loop's current point, wrap each record
//!   in a [`TelemetryFrame`], apply each decision to the next interval)
//!   reproduces the fig8 `--smoke` decision trace bit-for-bit;
//! * `RunSpec::run` matches the pre-online monolithic loop
//!   (`RunSpec::run_reference`) bit-for-bit over randomized workloads,
//!   budgets and start indices.

use boreas_core::{
    BoreasController, ClosedLoopOutcome, Controller, OnlineController, RunSpec, TelemetryFrame,
    ThermalController, VfTable,
};
use common::check;
use hotgauge::{Pipeline, StepRecord};
use workloads::{WorkloadSpec, ALL_WORKLOADS};

fn quick_pipeline() -> Pipeline {
    let mut cfg = hotgauge::PipelineConfig::paper();
    cfg.grid = floorplan::GridSpec::new(16, 12).unwrap();
    cfg.build().unwrap()
}

/// The fig8 `--smoke` ML05 stand-in: [`boreas_core::smoke_model`]
/// behind a 5% guardband.
fn smoke_ml_controller() -> BoreasController {
    let (model, features) = boreas_core::smoke_model(0);
    BoreasController::try_new(model, features, 0.05).unwrap()
}

/// Replays `spec` frame-by-frame the way a serving deployment would:
/// the simulator is just a frame source, every record crosses the
/// [`TelemetryFrame`] envelope, and each decision governs the next
/// interval. No `RunSpec` involved.
fn replay_online(
    pipeline: &Pipeline,
    spec: &WorkloadSpec,
    controller: &mut dyn Controller,
    steps: usize,
    start_idx: usize,
) -> (Vec<StepRecord>, Vec<boreas_core::ControlDecision>, usize) {
    let mut online = OnlineController::new(controller, VfTable::paper())
        .unwrap()
        .start(start_idx)
        .unwrap();
    let mut run = pipeline.start_run(spec).unwrap();
    let mut records = Vec::with_capacity(steps);
    let mut decisions = Vec::new();
    let mut idx = start_idx;
    for seq in 0..steps {
        let point = online.current_point();
        let record = run.step(point.frequency, point.voltage).unwrap();
        records.push(record.clone());
        if seq + 1 == steps {
            break; // the final interval's decision has nothing to govern
        }
        let frame = TelemetryFrame::new(0, seq as u64, record);
        if let Some(d) = online.observe(&frame) {
            idx = d.to_idx;
            decisions.push(d);
        }
    }
    (records, decisions, idx)
}

/// Bit-level comparison of two outcomes' observable traces.
fn assert_bit_identical(a: &ClosedLoopOutcome, b: &ClosedLoopOutcome) {
    assert_eq!(a.records.len(), b.records.len());
    for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
        assert_record_bits(ra, rb, i);
    }
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.final_idx, b.final_idx);
    assert_eq!(
        a.avg_frequency.value().to_bits(),
        b.avg_frequency.value().to_bits()
    );
    assert_eq!(a.incursions, b.incursions);
    assert_eq!(
        a.peak_severity.value().to_bits(),
        b.peak_severity.value().to_bits()
    );
}

fn assert_record_bits(a: &StepRecord, b: &StepRecord, step: usize) {
    assert_eq!(a.time, b.time, "step {step}: time");
    assert_eq!(
        a.frequency.value().to_bits(),
        b.frequency.value().to_bits(),
        "step {step}: frequency"
    );
    assert_eq!(
        a.max_severity.value().to_bits(),
        b.max_severity.value().to_bits(),
        "step {step}: severity"
    );
    assert_eq!(
        a.total_power.value().to_bits(),
        b.total_power.value().to_bits(),
        "step {step}: power"
    );
    assert_eq!(a, b, "step {step}: full record");
}

/// The acceptance criterion: the fig8 `--smoke` decision trace produced
/// by `RunSpec::run` is byte-identical to the same scenario replayed
/// frame-by-frame through `OnlineController`.
#[test]
fn fig8_smoke_trace_survives_online_replay() {
    let pipeline = quick_pipeline();
    let steps = 48;
    for spec in WorkloadSpec::test_set().iter().take(2) {
        // TH-00: the flat-70 thermal baseline of the fig8 sweep.
        let mut thermal = ThermalController::from_thresholds(vec![Some(70.0); 13], 0.0);
        let offline = RunSpec::new(&pipeline)
            .steps(steps)
            .run(spec, &mut thermal)
            .unwrap();
        let (records, decisions, final_idx) = replay_online(
            &pipeline,
            spec,
            &mut thermal,
            steps,
            VfTable::BASELINE_INDEX,
        );
        assert_eq!(records.len(), offline.records.len());
        for (i, (ra, rb)) in offline.records.iter().zip(&records).enumerate() {
            assert_record_bits(ra, rb, i);
        }
        assert_eq!(
            offline.decisions,
            decisions.iter().map(|d| d.decision).collect::<Vec<_>>()
        );
        assert_eq!(offline.final_idx, final_idx);

        // ML05: the smoke GBT model over the same frames.
        let mut ml = smoke_ml_controller();
        let offline = RunSpec::new(&pipeline)
            .steps(steps)
            .run(spec, &mut ml)
            .unwrap();
        let (records, decisions, final_idx) =
            replay_online(&pipeline, spec, &mut ml, steps, VfTable::BASELINE_INDEX);
        for (i, (ra, rb)) in offline.records.iter().zip(&records).enumerate() {
            assert_record_bits(ra, rb, i);
        }
        assert_eq!(
            offline.decisions,
            decisions.iter().map(|d| d.decision).collect::<Vec<_>>()
        );
        assert_eq!(offline.final_idx, final_idx);
        // The replay's decision stream carries the full serialisable
        // record: interval numbering and operating points must chain.
        for (k, d) in decisions.iter().enumerate() {
            assert_eq!(d.interval, k as u64);
            if k > 0 {
                assert_eq!(d.from_idx, decisions[k - 1].to_idx);
            }
        }
    }
}

/// `RunSpec::run` (the online replay driver) matches the monolithic
/// reference loop bit-for-bit on the smoke ML controller too.
#[test]
fn run_matches_reference_on_smoke_ml() {
    let pipeline = quick_pipeline();
    let spec = WorkloadSpec::by_name("gromacs").unwrap();
    let mut ml = smoke_ml_controller();
    let a = RunSpec::new(&pipeline)
        .steps(96)
        .run(&spec, &mut ml)
        .unwrap();
    let b = RunSpec::new(&pipeline)
        .steps(96)
        .run_reference(&spec, &mut ml)
        .unwrap();
    assert_bit_identical(&a, &b);
}

/// Randomized replay equivalence: any workload, any interval budget,
/// any start index, a moving thermal controller — `run` and
/// `run_reference` agree bit-for-bit.
#[test]
fn run_matches_reference() {
    check::cases(6, |g| {
        let (widx, intervals) = (g.usize_in(0..27), g.usize_in(1..6));
        let (start, threshold) = (g.usize_in(0..13), g.f64_in(55.0..75.0));
        let mut cfg = hotgauge::PipelineConfig::paper();
        cfg.grid = floorplan::GridSpec::new(8, 6).unwrap();
        let pipeline = cfg.build().unwrap();
        let spec = ALL_WORKLOADS[widx].clone();
        let steps = intervals * 12;
        let mut c = ThermalController::from_thresholds(vec![Some(threshold); 13], 0.0);
        let a = RunSpec::new(&pipeline)
            .steps(steps)
            .start(start)
            .run(&spec, &mut c)
            .unwrap();
        let b = RunSpec::new(&pipeline)
            .steps(steps)
            .start(start)
            .run_reference(&spec, &mut c)
            .unwrap();
        assert_bit_identical(&a, &b);
    });
}
