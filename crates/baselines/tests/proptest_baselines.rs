//! Property tests for the baseline numerics (PCA, ridge, k-means).

use boreas_baselines::{Pca, RidgeRegression};
use common::check::{self, Gen};
use common::kmeans::KMeans;

fn rows(g: &mut Gen, max_len: usize) -> Vec<Vec<f64>> {
    g.vec(8..max_len, |g| g.vec(3..=3, |g| g.f64_in(-100.0..100.0)))
}

#[test]
fn pca_variance_ratios_form_a_distribution() {
    check::cases(32, |g| {
        let data = rows(g, 80);
        let pca = Pca::fit(&data, 3).unwrap();
        let ratios = pca.explained_variance_ratio();
        assert!(ratios.iter().all(|&r| (0.0..=1.0 + 1e-9).contains(&r)));
        let total: f64 = ratios.iter().sum();
        assert!(total <= 1.0 + 1e-9);
        // Descending order.
        for pair in ratios.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12);
        }
    });
}

#[test]
fn pca_transform_is_finite() {
    check::cases(32, |g| {
        let data = rows(g, 60);
        let pca = Pca::fit(&data, 2).unwrap();
        for row in &data {
            for v in pca.transform(row) {
                assert!(v.is_finite());
            }
        }
    });
}

#[test]
fn ridge_never_beats_ols_on_training_mse() {
    check::cases(32, |g| {
        let data = rows(g, 60);
        let lambda = g.f64_in(0.1..100.0);
        let targets: Vec<f64> = data.iter().map(|r| r[0] * 0.5 - r[1] * 0.2 + 1.0).collect();
        let ols = RidgeRegression::fit(&data, &targets, 1e-9).unwrap();
        let ridge = RidgeRegression::fit(&data, &targets, lambda).unwrap();
        assert!(ols.mse(&data, &targets) <= ridge.mse(&data, &targets) + 1e-6);
    });
}

#[test]
fn regression_residuals_are_centred() {
    check::cases(32, |g| {
        let data = rows(g, 60);
        let targets: Vec<f64> = data.iter().map(|r| r[0] - 2.0 * r[2] + 5.0).collect();
        let m = RidgeRegression::fit(&data, &targets, 0.0).unwrap();
        let mean_residual: f64 = data
            .iter()
            .zip(&targets)
            .map(|(r, &y)| y - m.predict(r))
            .sum::<f64>()
            / data.len() as f64;
        // OLS with an (unregularised) intercept has zero-mean residuals.
        assert!(mean_residual.abs() < 1e-6, "mean residual {mean_residual}");
    });
}

#[test]
fn kmeans_assign_returns_nearest_centroid() {
    check::cases(32, |g| {
        let data = rows(g, 60);
        let k = g.usize_in(1..=data.len().min(4));
        let km = KMeans::fit(&data, k, 50, 3).unwrap();
        for p in &data {
            let a = km.assign(p);
            let d_assigned: f64 = km.centroids()[a]
                .iter()
                .zip(p)
                .map(|(c, x)| (c - x) * (c - x))
                .sum();
            for c in km.centroids() {
                let d: f64 = c.iter().zip(p).map(|(cv, x)| (cv - x) * (cv - x)).sum();
                assert!(d_assigned <= d + 1e-9);
            }
        }
    });
}
