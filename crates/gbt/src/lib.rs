//! Gradient-boosted regression trees, from scratch.
//!
//! A self-contained reimplementation of the XGBoost-style GBT regressor
//! the paper trains for severity prediction (§IV-A):
//!
//! * squared-error objective trained on residuals, starting from the mean
//!   of the targets;
//! * **one trainer** behind the [`TrainSpec`] builder, a LightGBM-style
//!   histogram path ([`binned`]): feature quantisation into ≤256 bins,
//!   per-node histogram accumulation with a deterministic block-ordered
//!   reduction (bit-identical at any thread count), and the
//!   parent−sibling subtraction trick, every phase of a fit (binning,
//!   histograms, split search, routing) split by feature or by row range
//!   across one worker set per fit. The seed's exact greedy scan stays
//!   as [`GbtModel::train_reference`], the oracle the tests compare the
//!   histogram trainer against;
//! * split finding with the second-order gain
//!   `½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − (G_L+G_R)²/(H_L+H_R+λ)] − γ`,
//!   learning-rate `α` (the paper's `alpha = 0.3`), `max_depth`, and
//!   `n_estimators`;
//! * **total-gain feature importance** ([`GbtModel::feature_importance`]),
//!   the quantity behind Table IV and the feature-selection study;
//! * **leave-one-group-out cross-validation** and **grid search**
//!   ([`cv`]), the paper's modified LOOCV where a whole application is
//!   held out per fold;
//! * a **hardware-cost model** ([`GbtModel::cost`]): weight bytes (the
//!   "< 14 KB" of §V-E) and per-prediction comparison/addition counts
//!   (the "~1000 operations").
//!
//! # Examples
//!
//! ```
//! use boreas_gbt::{Dataset, GbtModel, GbtParams};
//!
//! // y = 2 x0 + noiseless
//! let mut d = Dataset::new(vec!["x0".into()]);
//! for i in 0..200 {
//!     let x = i as f64 / 10.0;
//!     d.push_row(&[x], 2.0 * x, 0)?;
//! }
//! let model = GbtModel::train(&d, &GbtParams::default())?;
//! let pred = model.predict(&[5.0]);
//! assert!((pred - 10.0).abs() < 0.5);
//! # Ok::<(), common::Error>(())
//! ```

pub mod binned;
pub mod cv;
pub mod dataset;
pub mod flat;
mod hist;
pub mod model;
pub mod params;
pub mod spec;
pub mod tree;

pub use binned::{BinCuts, BinnedDataset};
pub use cv::{grid_search, leave_one_group_out, CvOutcome, GridResult};
pub use dataset::Dataset;
pub use flat::FlatModel;
pub use hist::BLOCK_ROWS;
pub use model::{GbtModel, PredictionCost};
pub use params::GbtParams;
pub use spec::{TrainReport, TrainSpec, TrainStats};
pub use tree::RegressionTree;
