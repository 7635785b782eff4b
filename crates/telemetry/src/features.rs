//! Feature identities and extraction.

use common::units::{GigaHertz, Volts};
use common::{Error, Result};
use hotgauge::StepRecord;
use perfsim::CounterId;

/// Name of the thermal-sensor feature (the paper's top attribute with
/// 78 % of the total gain, Table IV).
pub const TEMPERATURE_FEATURE: &str = "temperature_sensor_data";

/// Index of the default single sensor (tsens03, near the ALUs) within
/// the paper's seven-sensor bank.
pub const DEFAULT_SENSOR_INDEX: usize = 3;

/// Sentinel sensor index meaning "the maximum reading over the four
/// well-placed sensors tsens00–tsens03".
///
/// Production parts report the hottest reading of a sensor bank (Tjmax
/// tracking); hotspots form in different functional units depending on
/// the workload class (FPU for floating-point, LSU/scheduler for integer
/// and memory codes), so the bank maximum is the observable that tracks
/// "the hottest spot wherever it is". This is the default observable for
/// the controllers and the `temperature_sensor_data` feature.
pub const MAX_SENSOR_BANK: usize = usize::MAX;

/// The temperature observable for a given sensor selector: a single
/// sensor's delayed reading, or the bank maximum for
/// [`MAX_SENSOR_BANK`].
///
/// # Panics
///
/// Panics if a concrete `sensor_idx` is out of range or the record has
/// no sensors.
pub fn observed_temperature(record: &StepRecord, sensor_idx: usize) -> f64 {
    if sensor_idx == MAX_SENSOR_BANK {
        record.sensor_temps[..record.sensor_temps.len().min(4)]
            .iter()
            .map(|t| t.value())
            .fold(f64::NEG_INFINITY, f64::max)
    } else {
        record.sensor_temps[sensor_idx].value()
    }
}

/// The most features a [`FeatureSet`] holds: every counter and the
/// sensor temperature, each at most once.
pub const MAX_FEATURES: usize = perfsim::NUM_COUNTERS + 1;

/// One feature: a micro-architectural counter or the sensor temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureId {
    /// A counter from the performance model.
    Counter(CounterId),
    /// The delayed thermal-sensor reading.
    SensorTemp,
}

impl FeatureId {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureId::Counter(c) => c.name(),
            FeatureId::SensorTemp => TEMPERATURE_FEATURE,
        }
    }

    /// Parses a canonical name.
    pub fn from_name(name: &str) -> Option<FeatureId> {
        if name == TEMPERATURE_FEATURE {
            Some(FeatureId::SensorTemp)
        } else {
            CounterId::from_name(name).map(FeatureId::Counter)
        }
    }

    /// Whether the feature is *extensive*: a per-interval count that
    /// scales with the cycle budget (as opposed to intensive rates,
    /// duties and state). Used by the controller's what-if rescaling.
    pub fn is_extensive(self) -> bool {
        match self {
            FeatureId::SensorTemp => false,
            FeatureId::Counter(c) => !matches!(
                c,
                CounterId::Ipc
                    | CounterId::FrequencyGhz
                    | CounterId::VoltageV
                    | CounterId::IfuDutyCycle
                    | CounterId::LsuDutyCycle
                    | CounterId::AluCdbDutyCycle
                    | CounterId::MulCdbDutyCycle
                    | CounterId::FpuCdbDutyCycle
                    | CounterId::DecodeDutyCycle
                    | CounterId::RenameDutyCycle
                    | CounterId::RobDutyCycle
                    | CounterId::SchedulerDutyCycle
                    | CounterId::DcacheDutyCycle
                    | CounterId::IcacheDutyCycle
                    | CounterId::L2DutyCycle
                    | CounterId::AvgRobOccupancy
                    | CounterId::AvgRsOccupancy
                    | CounterId::AvgLsqOccupancy
                    | CounterId::MemoryLevelParallelism
            ),
        }
    }
}

/// An ordered set of features: the model's input schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSet {
    ids: Vec<FeatureId>,
}

impl FeatureSet {
    /// The full 78-attribute set: every counter plus the sensor
    /// temperature.
    pub fn full() -> Self {
        let mut ids: Vec<FeatureId> = CounterId::ALL
            .iter()
            .copied()
            .map(FeatureId::Counter)
            .collect();
        ids.push(FeatureId::SensorTemp);
        Self { ids }
    }

    /// Builds a set from canonical names, preserving order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown names and
    /// [`Error::InvalidConfig`] for duplicates or an empty list.
    pub fn from_names(names: &[&str]) -> Result<Self> {
        if names.is_empty() {
            return Err(Error::invalid_config(
                "features",
                "feature set cannot be empty",
            ));
        }
        let mut ids = Vec::with_capacity(names.len());
        for &n in names {
            let id = FeatureId::from_name(n).ok_or_else(|| Error::not_found("feature", n))?;
            if ids.contains(&id) {
                return Err(Error::invalid_config(
                    "features",
                    format!("duplicate feature `{n}`"),
                ));
            }
            ids.push(id);
        }
        Ok(Self { ids })
    }

    /// The features, in schema order.
    pub fn ids(&self) -> &[FeatureId] {
        &self.ids
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the set is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Names in schema order (owned, for [`gbt::Dataset::new`]).
    pub fn names(&self) -> Vec<String> {
        self.ids.iter().map(|id| id.name().to_string()).collect()
    }

    /// Extracts the feature vector from a pipeline step record, reading
    /// the sensor at `sensor_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `sensor_idx` is out of range for the record's sensors.
    pub fn extract(&self, record: &StepRecord, sensor_idx: usize) -> Vec<f64> {
        // Collected, not zero-filled and overwritten: `vec![0.0; n]`
        // allocates through `calloc`, which glibc serves past its
        // per-thread cache, and over tens of thousands of short-lived
        // rows that leaves megabytes of freed heap resident for the rest
        // of the process. Bulk extraction uses `extract_into` instead.
        self.ids
            .iter()
            .map(|&id| feature_value(id, record, sensor_idx))
            .collect()
    }

    /// [`FeatureSet::extract`] into a caller-owned row of exactly
    /// [`FeatureSet::len`] values (at most [`MAX_FEATURES`], so a stack
    /// array holds any set's row).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not match this schema's arity, or as
    /// [`FeatureSet::extract`].
    pub fn extract_into(&self, record: &StepRecord, sensor_idx: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.ids.len(), "feature row arity mismatch");
        for (v, &id) in out.iter_mut().zip(&self.ids) {
            *v = feature_value(id, record, sensor_idx);
        }
    }

    /// Rewrites a feature vector as if the interval had run at a
    /// different VF point: extensive counts scale with the cycle budget
    /// (∝ frequency), intensive rates are kept, and the frequency/voltage
    /// features are replaced. This is the controller's "would one step
    /// higher be safe?" query (§V-A).
    ///
    /// # Panics
    ///
    /// Panics if `vec` does not match this schema's arity.
    pub fn rescale_to_vf(
        &self,
        vec: &[f64],
        from_freq: GigaHertz,
        to_freq: GigaHertz,
        to_voltage: Volts,
    ) -> Vec<f64> {
        assert_eq!(vec.len(), self.ids.len(), "feature vector arity mismatch");
        let ratio = to_freq.value() / from_freq.value().max(1e-9);
        // Collected, like `extract`, rather than zero-filled.
        self.ids
            .iter()
            .zip(vec)
            .map(|(&id, &v)| rescaled(id, v, ratio, to_freq, to_voltage))
            .collect()
    }

    /// [`FeatureSet::rescale_to_vf`] into a caller-owned row.
    ///
    /// # Panics
    ///
    /// Panics if `vec` or `out` does not match this schema's arity.
    pub fn rescale_to_vf_into(
        &self,
        vec: &[f64],
        from_freq: GigaHertz,
        to_freq: GigaHertz,
        to_voltage: Volts,
        out: &mut [f64],
    ) {
        assert_eq!(vec.len(), self.ids.len(), "feature vector arity mismatch");
        assert_eq!(out.len(), self.ids.len(), "feature row arity mismatch");
        let ratio = to_freq.value() / from_freq.value().max(1e-9);
        for ((o, &id), &v) in out.iter_mut().zip(&self.ids).zip(vec) {
            *o = rescaled(id, v, ratio, to_freq, to_voltage);
        }
    }
}

/// Feature `id` of `record`, reading the sensor at `sensor_idx`.
fn feature_value(id: FeatureId, record: &StepRecord, sensor_idx: usize) -> f64 {
    match id {
        FeatureId::Counter(c) => record.counters.get(c),
        FeatureId::SensorTemp => observed_temperature(record, sensor_idx),
    }
}

/// Feature `id`'s value `v` rescaled to a VF point: see
/// [`FeatureSet::rescale_to_vf`].
fn rescaled(id: FeatureId, v: f64, ratio: f64, to_freq: GigaHertz, to_voltage: Volts) -> f64 {
    match id {
        FeatureId::Counter(CounterId::FrequencyGhz) => to_freq.value(),
        FeatureId::Counter(CounterId::VoltageV) => to_voltage.value(),
        _ if id.is_extensive() => v * ratio,
        _ => v,
    }
}

impl Default for FeatureSet {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfsim::NUM_COUNTERS;

    #[test]
    fn full_set_has_78_attributes() {
        let f = FeatureSet::full();
        assert_eq!(f.len(), NUM_COUNTERS + 1);
        assert_eq!(f.len(), 78, "the paper's 78 system attributes");
        assert_eq!(
            f.names().last().map(String::as_str),
            Some(TEMPERATURE_FEATURE)
        );
    }

    #[test]
    fn from_names_roundtrip_and_errors() {
        let f = FeatureSet::from_names(&["ipc", TEMPERATURE_FEATURE, "ROB_reads"]).unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f.names()[1], TEMPERATURE_FEATURE);
        assert!(FeatureSet::from_names(&["bogus"]).is_err());
        assert!(FeatureSet::from_names(&["ipc", "ipc"]).is_err());
        assert!(FeatureSet::from_names(&[]).is_err());
    }

    #[test]
    fn extensive_classification() {
        assert!(FeatureId::Counter(CounterId::CommittedInstructions).is_extensive());
        assert!(FeatureId::Counter(CounterId::DcacheReadMisses).is_extensive());
        assert!(!FeatureId::Counter(CounterId::Ipc).is_extensive());
        assert!(!FeatureId::Counter(CounterId::LsuDutyCycle).is_extensive());
        assert!(!FeatureId::SensorTemp.is_extensive());
    }

    #[test]
    fn rescale_scales_counts_and_swaps_vf() {
        let f = FeatureSet::from_names(&[
            "committed_instructions",
            "ipc",
            "frequency_ghz",
            "voltage_v",
            TEMPERATURE_FEATURE,
        ])
        .unwrap();
        let v = vec![1000.0, 1.5, 4.0, 0.98, 80.0];
        let out = f.rescale_to_vf(
            &v,
            GigaHertz::new(4.0),
            GigaHertz::new(4.25),
            Volts::new(1.065),
        );
        assert!((out[0] - 1062.5).abs() < 1e-9, "counts scale by 4.25/4.0");
        assert_eq!(out[1], 1.5, "ipc unchanged");
        assert_eq!(out[2], 4.25);
        assert_eq!(out[3], 1.065);
        assert_eq!(out[4], 80.0, "temperature unchanged");
    }
}
