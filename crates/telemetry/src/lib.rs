//! Hardware telemetry: feature definitions, dataset extraction and
//! feature selection (§IV-B of the paper).
//!
//! The paper's models consume 78 *system attributes*: the 77
//! micro-architectural counters of [`perfsim::CounterId`] plus
//! `temperature_sensor_data` (the delayed reading of the default thermal
//! sensor). This crate provides:
//!
//! * [`FeatureSet`] — an ordered selection of those attributes with
//!   extraction from pipeline [`hotgauge::StepRecord`]s, including the
//!   *what-if rescaling* the controller uses to query the model at a
//!   candidate frequency one step higher;
//! * [`dataset`] — the instance builder: one row per 80 µs step, label =
//!   maximum Hotspot-Severity over the **next 12 steps** (the controller
//!   horizon), group = workload, swept over the whole VF table;
//! * [`split`] — the Table III workload-exclusive train/test construction;
//! * [`selection`] — the gain-based iterative feature-selection study
//!   that reduces 78 attributes to the top 20 of Table IV;
//! * [`quality`] — plausibility checks for sensor readings and counter
//!   blocks (range, rate-of-change, sanity), the measurement side of the
//!   fault-tolerant control loop.

pub mod dataset;
pub mod features;
pub mod quality;
pub mod selection;
pub mod split;

pub use dataset::{build_dataset, build_dataset_on, DatasetSpec};
pub use features::{
    observed_temperature, FeatureId, FeatureSet, DEFAULT_SENSOR_INDEX, MAX_FEATURES,
    MAX_SENSOR_BANK, TEMPERATURE_FEATURE,
};
pub use gbt::Dataset;
pub use selection::{select_top_features, selection_curve, SelectionPoint};
pub use split::{build_test_dataset, build_train_dataset, TrainTest};
