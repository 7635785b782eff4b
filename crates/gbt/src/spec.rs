//! The unified training entry point: a [`TrainSpec`] builder mirroring
//! the runner's `RunSpec` idiom (dataset → params → threads → obs →
//! [`TrainSpec::fit`]).
//!
//! The spec runs the binned, multi-threaded trainer of the `hist`
//! module, bit-identical at any thread count. The seed's exact-greedy
//! scan stays as [`crate::GbtModel::train_reference`], the equivalence
//! oracle the tests compare it against.
//!
//! ```
//! use boreas_gbt::{Dataset, GbtParams, TrainSpec};
//!
//! let mut d = Dataset::new(vec!["x".into()]);
//! for i in 0..100 {
//!     let x = i as f64 / 10.0;
//!     d.push_row(&[x], 2.0 * x, 0)?;
//! }
//! let report = TrainSpec::new(&d)
//!     .params(GbtParams::default().with_estimators(20))
//!     .threads(2)
//!     .fit()?;
//! assert!((report.model.predict(&[5.0]) - 10.0).abs() < 0.5);
//! assert_eq!(report.stats.rows, 100);
//! # Ok::<(), common::Error>(())
//! ```

use crate::dataset::Dataset;
use crate::hist;
use crate::model::GbtModel;
use crate::params::GbtParams;
use common::{Error, Result};

/// What one [`TrainSpec::fit`] run did, beside the model itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainStats {
    /// Training rows.
    pub rows: usize,
    /// Feature columns.
    pub features: usize,
    /// Worker threads actually used (after `0 = auto` resolution).
    pub threads: usize,
    /// Trees grown.
    pub trees: usize,
    /// Sum of per-feature bin counts.
    pub total_bins: usize,
    /// Nanoseconds spent starting the fit's workers and quantising the
    /// dataset on them.
    pub bin_ns: u64,
    /// Nanoseconds spent boosting.
    pub grow_ns: u64,
    /// Of `grow_ns`: building node histograms.
    pub hist_ns: u64,
    /// Of `grow_ns`: searching histograms for splits.
    pub split_ns: u64,
    /// Of `grow_ns`: routing rows to child nodes and, after each tree's
    /// last level, updating their predictions and gradients.
    pub route_ns: u64,
}

/// A trained model plus its training statistics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The trained ensemble.
    pub model: GbtModel,
    /// How training went.
    pub stats: TrainStats,
}

/// Builder for one training run.
///
/// Defaults: [`GbtParams::default`], automatic thread count,
/// observability off.
pub struct TrainSpec<'a> {
    data: &'a Dataset,
    params: GbtParams,
    threads: usize,
    obs: obs::Obs,
}

impl<'a> TrainSpec<'a> {
    /// Starts a spec over a training dataset.
    pub fn new(data: &'a Dataset) -> TrainSpec<'a> {
        TrainSpec {
            data,
            params: GbtParams::default(),
            threads: 0,
            obs: obs::Obs::default(),
        }
    }

    /// Sets the hyper-parameters.
    #[must_use]
    pub fn params(mut self, params: GbtParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the worker thread count; `0` (the default) uses the
    /// machine's available parallelism. The trained model is
    /// bit-identical for every value.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Attaches an observability bundle: `fit` emits `train_*` counters
    /// and `train.bin` / `train.grow` spans through it, plus the
    /// `train.hist` / `train.split` / `train.route` phases of
    /// `train.grow`.
    #[must_use]
    pub fn observe(mut self, obs: &obs::Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs training.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] for an empty dataset or
    /// [`Error::InvalidConfig`] for invalid hyper-parameters.
    pub fn fit(&self) -> Result<TrainReport> {
        self.params.validate()?;
        if self.data.is_empty() {
            return Err(Error::EmptyDataset("gbt training set"));
        }
        let threads = if self.threads == 0 {
            common::available_threads()
        } else {
            self.threads
        };

        let fit = hist::fit(self.data, &self.params, threads);
        let model = GbtModel::from_parts(
            fit.base_score,
            fit.trees,
            self.params,
            self.data.feature_names().to_vec(),
        );

        let stats = TrainStats {
            rows: self.data.len(),
            features: self.data.num_features(),
            threads,
            trees: model.num_trees(),
            total_bins: fit.total_bins,
            bin_ns: fit.phases.bin_ns,
            grow_ns: fit.phases.grow_ns,
            hist_ns: fit.phases.hist_ns,
            split_ns: fit.phases.split_ns,
            route_ns: fit.phases.route_ns,
        };
        self.emit(&stats);
        Ok(TrainReport { model, stats })
    }

    fn emit(&self, stats: &TrainStats) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs
            .metrics
            .counter("train_runs_total", "GBT training runs")
            .inc();
        self.obs
            .metrics
            .counter("train_rows_total", "Rows consumed by GBT training")
            .add(stats.rows as u64);
        self.obs
            .metrics
            .counter("train_trees_total", "Trees grown by GBT training")
            .add(stats.trees as u64);
        self.obs.tracer.record("train.bin", stats.bin_ns);
        self.obs.tracer.record("train.hist", stats.hist_ns);
        self.obs.tracer.record("train.split", stats.split_ns);
        self.obs.tracer.record("train.route", stats.route_ns);
        self.obs.tracer.record("train.grow", stats.grow_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..n {
            let x0 = ((i * 37) % 113) as f64 / 113.0;
            let x1 = ((i * 91) % 71) as f64 / 71.0;
            d.push_row(&[x0, x1], (3.0 * x0).sin() + x1 * x1, 0)
                .unwrap();
        }
        d
    }

    #[test]
    fn histogram_fit_produces_a_usable_model() {
        let d = wave(500);
        let report = TrainSpec::new(&d)
            .params(GbtParams::default().with_estimators(50))
            .threads(1)
            .fit()
            .unwrap();
        assert!(report.model.mse_on(&d) < 0.01);
        assert_eq!(report.stats.rows, 500);
        assert_eq!(report.stats.features, 2);
        assert_eq!(report.stats.trees, 50);
        assert!(report.stats.total_bins > 0);
        assert_eq!(report.stats.threads, 1);
    }

    #[test]
    fn fit_is_thread_count_invariant() {
        let d = wave(2000);
        let params = GbtParams::default().with_estimators(15);
        let spec = |t| {
            TrainSpec::new(&d)
                .params(params)
                .threads(t)
                .fit()
                .unwrap()
                .model
        };
        let one = spec(1);
        assert_eq!(one, spec(2));
        assert_eq!(one, spec(4));
        assert_eq!(one, spec(0)); // auto resolves to some count; same model
    }

    #[test]
    fn histogram_agrees_with_reference_on_prebinned_data() {
        // Every feature has < 256 distinct values, so the histogram path
        // sees the exact candidate-split space. Predictions agree to
        // float-association noise.
        let d = wave(600);
        let params = GbtParams::default().with_estimators(30);
        let hist = TrainSpec::new(&d).params(params).threads(1).fit().unwrap();
        let exact = GbtModel::train_reference(&d, &params).unwrap();
        for i in (0..d.len()).step_by(7) {
            let row = d.row(i);
            let (a, b) = (hist.model.predict(&row), exact.predict(&row));
            assert!((a - b).abs() < 1e-9, "row {i}: hist {a} vs exact {b}");
        }
    }

    #[test]
    fn obs_hooks_record_training() {
        let d = wave(200);
        let obs = obs::Obs::new();
        TrainSpec::new(&d)
            .params(GbtParams::default().with_estimators(5))
            .observe(&obs)
            .fit()
            .unwrap();
        let snap = obs.metrics.snapshot();
        let val = |name: &str| match snap.family(name).unwrap().value {
            obs::MetricValue::Counter(v) => v,
            ref other => panic!("{name}: {other:?}"),
        };
        assert_eq!(val("train_runs_total"), 1);
        assert_eq!(val("train_rows_total"), 200);
        assert_eq!(val("train_trees_total"), 5);
        assert!(obs.tracer.stats().get("train.grow").is_some());
    }

    #[test]
    fn invalid_params_and_empty_data_error() {
        let d = wave(10);
        assert!(TrainSpec::new(&d)
            .params(GbtParams::default().with_estimators(0))
            .fit()
            .is_err());
        let empty = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            TrainSpec::new(&empty).fit(),
            Err(Error::EmptyDataset(_))
        ));
    }
}
