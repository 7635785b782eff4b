//! Building training/evaluation datasets from pipeline runs.

use crate::features::{FeatureSet, MAX_FEATURES};
use common::Result;
use gbt::Dataset;
use hotgauge::Pipeline;
use workloads::WorkloadSpec;

// The VF table type lives in boreas-core, which depends on this crate;
// to avoid a cycle the builder takes explicit (frequency, voltage) pairs.

/// Parameters of the dataset-extraction run.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Steps to simulate per (workload, VF) run.
    pub steps: usize,
    /// Label horizon: the label of an instance at step `t` is the maximum
    /// severity over steps `t+1 ..= t+horizon` (12 = the 960 µs decision
    /// interval).
    pub horizon: usize,
    /// Sensor used for `temperature_sensor_data`.
    pub sensor_idx: usize,
    /// Label form: `None` trains on the clamped `[0, 1]` severity;
    /// `Some(cap)` trains on the *unclamped* severity capped at `cap`.
    ///
    /// The capped-raw form preserves gradient information past the danger
    /// point (a state at raw severity 1.4 is more dangerous than one at
    /// 1.05, but both clamp to 1.0), which keeps the regressor from
    /// squashing its predictions just below 1.0 in exactly the region the
    /// controller's guardband has to discriminate.
    pub label_cap: Option<f64>,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            steps: 150,
            horizon: 12,
            sensor_idx: crate::features::MAX_SENSOR_BANK,
            label_cap: Some(2.0),
        }
    }
}

/// Runs every workload at every given VF point and extracts one instance
/// per step: features at step `t`, label = max severity over the next
/// `horizon` steps, group = the workload's index in `workloads`.
///
/// The fixed-VF runs go through [`Pipeline::run_fixed_grid`] on every
/// available core, and rows are appended in the serial workload-major
/// order, so the dataset is bit-identical at any core count. Its columns
/// are sized up front for exactly `workloads × vf_points × (steps −
/// horizon)` rows.
///
/// # Errors
///
/// Propagates pipeline errors; returns an error if `spec.steps` is not
/// greater than `spec.horizon`.
pub fn build_dataset(
    pipeline: &Pipeline,
    features: &FeatureSet,
    workloads: &[WorkloadSpec],
    vf_points: &[(common::units::GigaHertz, common::units::Volts)],
    spec: &DatasetSpec,
) -> Result<Dataset> {
    build_dataset_on(
        pipeline,
        features,
        workloads,
        vf_points,
        spec,
        common::available_threads(),
    )
}

/// [`build_dataset`] on `threads` threads (clamped to `1..=runs`): the
/// dataset is the same at every thread count.
///
/// # Errors
///
/// As [`build_dataset`].
pub fn build_dataset_on(
    pipeline: &Pipeline,
    features: &FeatureSet,
    workloads: &[WorkloadSpec],
    vf_points: &[(common::units::GigaHertz, common::units::Volts)],
    spec: &DatasetSpec,
    threads: usize,
) -> Result<Dataset> {
    if spec.steps <= spec.horizon {
        return Err(common::Error::invalid_config(
            "dataset",
            format!(
                "steps ({}) must exceed horizon ({})",
                spec.steps, spec.horizon
            ),
        ));
    }
    let rows_per_run = spec.steps - spec.horizon;
    let mut data = Dataset::with_capacity(
        features.names(),
        workloads.len() * vf_points.len() * rows_per_run,
    );
    let mut buf = [0.0; MAX_FEATURES];
    let row = &mut buf[..features.len()];
    pipeline.run_fixed_grid(
        workloads,
        vf_points,
        spec.steps,
        threads,
        |w_idx, _, out| {
            let records = &out.records;
            for t in 0..rows_per_run {
                features.extract_into(&records[t], spec.sensor_idx, row);
                let label = records[t + 1..=t + spec.horizon]
                    .iter()
                    .map(|r| match spec.label_cap {
                        Some(cap) => r.max_severity_raw.min(cap),
                        None => r.max_severity.value(),
                    })
                    .fold(0.0f64, f64::max);
                data.push_row(row, label, w_idx as u32)?;
            }
            Ok(())
        },
    )?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::units::{GigaHertz, Volts};
    use floorplan::GridSpec;
    use hotgauge::PipelineConfig;

    fn quick_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::paper();
        cfg.grid = GridSpec::new(16, 12).unwrap();
        cfg.build().unwrap()
    }

    /// The serial extraction `build_dataset` replaced, kept as its
    /// oracle: one `run_fixed` per (workload, point) in grid order, one
    /// owned row per step.
    fn serial_reference(
        p: &Pipeline,
        features: &FeatureSet,
        workloads: &[WorkloadSpec],
        vf: &[(GigaHertz, Volts)],
        spec: &DatasetSpec,
    ) -> Dataset {
        let mut data = Dataset::new(features.names());
        for (w_idx, w) in workloads.iter().enumerate() {
            for &(freq, voltage) in vf {
                let records = p.run_fixed(w, freq, voltage, spec.steps).unwrap().records;
                for t in 0..records.len() - spec.horizon {
                    let row = features.extract(&records[t], spec.sensor_idx);
                    let label = records[t + 1..=t + spec.horizon]
                        .iter()
                        .map(|r| match spec.label_cap {
                            Some(cap) => r.max_severity_raw.min(cap),
                            None => r.max_severity.value(),
                        })
                        .fold(0.0f64, f64::max);
                    data.push_row(&row, label, w_idx as u32).unwrap();
                }
            }
        }
        data
    }

    /// Bit-exact digest of every column, target and group.
    fn digest(d: &Dataset) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        for f in 0..d.num_features() {
            d.column(f).iter().for_each(|v| eat(v.to_bits()));
        }
        d.targets().iter().for_each(|v| eat(v.to_bits()));
        d.groups().iter().for_each(|&g| eat(u64::from(g)));
        h
    }

    #[test]
    fn extraction_on_any_thread_count_equals_the_serial_reference() {
        const NAMES: [&str; 5] = ["gcc", "gromacs", "bzip2", "mcf", "gamess"];
        const POINTS: [(f64, f64); 4] = [(3.75, 0.925), (4.0, 0.98), (4.5, 1.15), (5.0, 1.4)];
        let p = quick_pipeline();
        common::check::cases(12, |g| {
            let ws = g.vec(1..=3, |g| WorkloadSpec::by_name(g.pick(&NAMES)).unwrap());
            let vf = g.vec(1..=3, |g| {
                let (f, v) = g.pick(&POINTS);
                (GigaHertz::new(f), Volts::new(v))
            });
            let horizon = g.usize_in(1..=12);
            let spec = DatasetSpec {
                steps: horizon + g.usize_in(1..=20),
                horizon,
                sensor_idx: g.pick(&[0, 3, 6, crate::features::MAX_SENSOR_BANK]),
                label_cap: g.option(|g| g.f64_in(0.5..2.0)),
            };
            let features = if g.u8() < 128 {
                FeatureSet::full()
            } else {
                FeatureSet::from_names(&["ipc", crate::TEMPERATURE_FEATURE, "ROB_reads"]).unwrap()
            };
            let want = serial_reference(&p, &features, &ws, &vf, &spec);
            let jobs = ws.len() * vf.len();
            assert_eq!(want.len(), jobs * (spec.steps - spec.horizon));
            for threads in [1, 2, 4, jobs + 1] {
                let got = build_dataset_on(&p, &features, &ws, &vf, &spec, threads).unwrap();
                assert_eq!(got.len(), want.len(), "rows at {threads} threads");
                assert_eq!(digest(&got), digest(&want), "at {threads} threads");
            }
        });
    }

    #[test]
    fn builds_expected_row_count() {
        let p = quick_pipeline();
        let features = FeatureSet::full();
        let ws = vec![
            WorkloadSpec::by_name("gcc").unwrap(),
            WorkloadSpec::by_name("bzip2").unwrap(),
        ];
        let vf = [
            (GigaHertz::new(4.0), Volts::new(0.98)),
            (GigaHertz::new(4.5), Volts::new(1.15)),
        ];
        let spec = DatasetSpec {
            steps: 40,
            horizon: 12,
            sensor_idx: 3,
            label_cap: Some(2.0),
        };
        let d = build_dataset(&p, &features, &ws, &vf, &spec).unwrap();
        assert_eq!(d.len(), 2 * 2 * (40 - 12));
        assert_eq!(d.num_features(), 78);
        assert_eq!(d.distinct_groups(), vec![0, 1]);
    }

    #[test]
    fn clamped_labels_stay_in_unit_interval() {
        let p = quick_pipeline();
        let features = FeatureSet::full();
        let ws = vec![WorkloadSpec::by_name("gromacs").unwrap()];
        let vf = [(GigaHertz::new(5.0), Volts::new(1.4))];
        let d = build_dataset(
            &p,
            &features,
            &ws,
            &vf,
            &DatasetSpec {
                steps: 40,
                horizon: 12,
                sensor_idx: 3,
                label_cap: None,
            },
        )
        .unwrap();
        for &y in d.targets() {
            assert!((0.0..=1.0).contains(&y));
        }
        // gromacs at 5 GHz must show dangerous labels.
        assert!(d.targets().iter().any(|&y| y > 0.9));
    }

    #[test]
    fn raw_labels_exceed_one_but_respect_cap() {
        let p = quick_pipeline();
        let features = FeatureSet::full();
        let ws = vec![WorkloadSpec::by_name("gromacs").unwrap()];
        let vf = [(GigaHertz::new(5.0), Volts::new(1.4))];
        let d = build_dataset(
            &p,
            &features,
            &ws,
            &vf,
            &DatasetSpec {
                steps: 60,
                horizon: 12,
                sensor_idx: 3,
                label_cap: Some(1.6),
            },
        )
        .unwrap();
        assert!(
            d.targets().iter().any(|&y| y > 1.0),
            "raw labels must pass 1.0"
        );
        assert!(d.targets().iter().all(|&y| y <= 1.6 + 1e-12));
    }

    #[test]
    fn horizon_must_be_smaller_than_steps() {
        let p = quick_pipeline();
        let features = FeatureSet::full();
        let ws = vec![WorkloadSpec::by_name("gcc").unwrap()];
        let vf = [(GigaHertz::new(4.0), Volts::new(0.98))];
        let err = build_dataset(
            &p,
            &features,
            &ws,
            &vf,
            &DatasetSpec {
                steps: 12,
                horizon: 12,
                sensor_idx: 3,
                label_cap: Some(2.0),
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn label_looks_ahead_not_behind() {
        // Heating run: labels (future max severity) must be >= the
        // severity observable at the instance's own step most of the time.
        let p = quick_pipeline();
        let features = FeatureSet::full();
        let ws = vec![WorkloadSpec::by_name("gamess").unwrap()];
        let vf = [(GigaHertz::new(4.5), Volts::new(1.15))];
        let spec = DatasetSpec {
            steps: 50,
            horizon: 12,
            sensor_idx: 3,
            label_cap: Some(2.0),
        };
        let d = build_dataset(&p, &features, &ws, &vf, &spec).unwrap();
        let out = p.run_fixed(&ws[0], vf[0].0, vf[0].1, spec.steps).unwrap();
        let mut ahead = 0;
        let n = d.len();
        for t in 0..n {
            if d.targets()[t] >= out.records[t].max_severity.value() - 1e-9 {
                ahead += 1;
            }
        }
        assert!(
            ahead as f64 > 0.9 * n as f64,
            "labels should mostly dominate current severity while heating ({ahead}/{n})"
        );
    }
}
