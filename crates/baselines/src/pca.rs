//! Principal component analysis from scratch.
//!
//! Standardises the inputs, builds the covariance matrix and
//! diagonalises it with the cyclic Jacobi method (robust and dependency-
//! free; the feature counts here are ≤ 78, far below where Jacobi's
//! O(d³) per sweep matters).

use common::{Error, Result};

/// A fitted PCA projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Per-feature means (for centring).
    mean: Vec<f64>,
    /// Per-feature standard deviations (for scaling; 1.0 for constants).
    scale: Vec<f64>,
    /// `components[k][f]`: weight of feature `f` in component `k`,
    /// ordered by descending eigenvalue.
    components: Vec<Vec<f64>>,
    /// Eigenvalues of the kept components.
    eigenvalues: Vec<f64>,
    /// Sum of all eigenvalues (total variance).
    total_variance: f64,
}

impl Pca {
    /// Fits a `k`-component PCA to row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] for empty input,
    /// [`Error::ShapeMismatch`] for ragged rows, and
    /// [`Error::InvalidConfig`] if `k` is zero or exceeds the feature
    /// count.
    pub fn fit(rows: &[Vec<f64>], k: usize) -> Result<Pca> {
        if rows.is_empty() {
            return Err(Error::EmptyDataset("pca input"));
        }
        let d = rows[0].len();
        if k == 0 || k > d {
            return Err(Error::invalid_config(
                "pca",
                format!("k = {k} must be in 1..={d}"),
            ));
        }
        for r in rows {
            if r.len() != d {
                return Err(Error::ShapeMismatch {
                    what: "pca row",
                    expected: d,
                    actual: r.len(),
                });
            }
        }
        let n = rows.len() as f64;
        let mut mean = vec![0.0; d];
        for r in rows {
            for (m, &v) in mean.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut scale = vec![0.0; d];
        for r in rows {
            for f in 0..d {
                let c = r[f] - mean[f];
                scale[f] += c * c;
            }
        }
        for s in &mut scale {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: centring already zeroes it
            }
        }

        // Covariance of the standardised data.
        let mut cov = vec![vec![0.0; d]; d];
        for r in rows {
            let z: Vec<f64> = (0..d).map(|f| (r[f] - mean[f]) / scale[f]).collect();
            for i in 0..d {
                for j in i..d {
                    cov[i][j] += z[i] * z[j];
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                cov[i][j] /= n;
                cov[j][i] = cov[i][j];
            }
        }

        let (eigenvalues_all, vectors) = jacobi_eigen(cov, 100);
        // Sort descending by eigenvalue.
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| {
            eigenvalues_all[b]
                .partial_cmp(&eigenvalues_all[a])
                .expect("finite eigenvalues")
        });
        let total_variance: f64 = eigenvalues_all.iter().map(|&e| e.max(0.0)).sum();
        let components: Vec<Vec<f64>> = order[..k]
            .iter()
            .map(|&c| (0..d).map(|f| vectors[f][c]).collect())
            .collect();
        let eigenvalues: Vec<f64> = order[..k]
            .iter()
            .map(|&c| eigenvalues_all[c].max(0.0))
            .collect();
        Ok(Pca {
            mean,
            scale,
            components,
            eigenvalues,
            total_variance,
        })
    }

    /// Eigenvalues of the kept components, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Fraction of the total variance captured by each kept component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues
            .iter()
            .map(|e| e / self.total_variance)
            .collect()
    }

    /// Projects one row onto the kept components.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong arity.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.mean.len(), "pca transform arity");
        let z: Vec<f64> = (0..row.len())
            .map(|f| (row[f] - self.mean[f]) / self.scale[f])
            .collect();
        self.components
            .iter()
            .map(|c| c.iter().zip(&z).map(|(w, v)| w * v).sum())
            .collect()
    }

    /// Projects many rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
/// Returns `(eigenvalues, vectors)` with `vectors[row][col]`: column `c`
/// is the eigenvector of `eigenvalues[c]`.
fn jacobi_eigen(mut a: Vec<Vec<f64>>, max_sweeps: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let d = a.len();
    let mut v = vec![vec![0.0; d]; d];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..d {
            for j in i + 1..d {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-20 {
            break;
        }
        for p in 0..d {
            for q in p + 1..d {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..d {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for k in 0..d {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let eigenvalues: Vec<f64> = (0..d).map(|i| a[i][i]).collect();
    (eigenvalues, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                let noise = ((i * 7919) % 97) as f64 / 97.0;
                vec![x, 3.0 * x + 0.001 * noise, 0.01 * noise]
            })
            .collect()
    }

    #[test]
    fn first_component_captures_correlated_variance() {
        let pca = Pca::fit(&correlated_rows(200), 2).unwrap();
        let ratios = pca.explained_variance_ratio();
        assert!(ratios[0] > 0.6, "first component ratio {}", ratios[0]);
        assert!(ratios[0] >= ratios[1], "eigenvalues must be sorted");
    }

    #[test]
    fn transform_decorrelates() {
        let rows = correlated_rows(300);
        let pca = Pca::fit(&rows, 2).unwrap();
        let proj = pca.transform_all(&rows);
        let n = proj.len() as f64;
        let m0 = proj.iter().map(|p| p[0]).sum::<f64>() / n;
        let m1 = proj.iter().map(|p| p[1]).sum::<f64>() / n;
        let cov01 = proj.iter().map(|p| (p[0] - m0) * (p[1] - m1)).sum::<f64>() / n;
        assert!(
            cov01.abs() < 1e-6,
            "components must be uncorrelated, cov {cov01}"
        );
    }

    #[test]
    fn projection_is_centred() {
        let rows = correlated_rows(100);
        let pca = Pca::fit(&rows, 3).unwrap();
        let proj = pca.transform_all(&rows);
        for k in 0..3 {
            let mean = proj.iter().map(|p| p[k]).sum::<f64>() / proj.len() as f64;
            assert!(mean.abs() < 1e-9, "component {k} mean {mean}");
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let rows = correlated_rows(150);
        let pca = Pca::fit(&rows, 3).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = pca.components[i]
                    .iter()
                    .zip(&pca.components[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "({i},{j}) dot {dot}");
            }
        }
    }

    #[test]
    fn constant_features_are_harmless() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 42.0]).collect();
        let pca = Pca::fit(&rows, 2).unwrap();
        let proj = pca.transform(&rows[10]);
        assert!(proj.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn input_validation() {
        assert!(Pca::fit(&[], 1).is_err());
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Pca::fit(&rows, 1).is_err());
        let rows = vec![vec![1.0, 2.0]; 5];
        assert!(Pca::fit(&rows, 0).is_err());
        assert!(Pca::fit(&rows, 3).is_err());
    }

    #[test]
    fn jacobi_recovers_known_spectrum() {
        // diag(5, 2) rotated by 45 degrees.
        let a = vec![vec![3.5, 1.5], vec![1.5, 3.5]];
        let (mut eig, _) = jacobi_eigen(a, 50);
        eig.sort_by(|x, y| y.partial_cmp(x).unwrap());
        assert!((eig[0] - 5.0).abs() < 1e-9);
        assert!((eig[1] - 2.0).abs() < 1e-9);
    }
}
