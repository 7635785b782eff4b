//! Prior-work baselines (§II-C / §IV-C of the paper).
//!
//! The paper contrasts Boreas with *temperature-only* machine-learning
//! approaches, specifically Cochran & Reda (DAC 2010): performance
//! counters are reduced with **PCA**, workload **phases** are clustered
//! with k-means ([`common::kmeans`]) over the principal components, and
//! a **per-phase linear regression** predicts the future temperature,
//! which a threshold controller then acts on. Everything here is
//! implemented from scratch:
//!
//! * [`pca`] — principal component analysis via a cyclic Jacobi
//!   eigendecomposition of the covariance matrix;
//! * [`linreg`] — ridge-regularised ordinary least squares via normal
//!   equations and Gaussian elimination;
//! * [`cochran_reda`] — the assembled phase-aware temperature predictor
//!   and its DVFS controller, pluggable into the same
//!   [`boreas_core::RunSpec`] closed loop as Boreas.
//!
//! # Examples
//!
//! ```
//! use boreas_baselines::pca::Pca;
//!
//! // Two perfectly correlated features compress to one component.
//! let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
//! let pca = Pca::fit(&rows, 1)?;
//! assert!(pca.explained_variance_ratio()[0] > 0.999);
//! # Ok::<(), common::Error>(())
//! ```

// Dense matrix kernels index several buffers by the same loop variable;
// iterator rewrites obscure the row/column arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod cochran_reda;
pub mod linreg;
pub mod pca;

pub use cochran_reda::{CochranRedaModel, CochranRedaParams, TempPredController};
pub use linreg::RidgeRegression;
pub use pca::Pca;
