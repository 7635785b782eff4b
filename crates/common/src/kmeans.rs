//! k-means clustering in arbitrary dimension: hotspot locations into
//! sensor sites (`floorplan::placement`) and PCA components into
//! workload phases (the Cochran & Reda baseline).

use crate::rng::SplitMix64;
use crate::{Error, Result};

/// A fitted k-means clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    assignment: Vec<usize>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Fits `k` clusters to row-major points: k-means++ seeding, then at
    /// most `max_iters` Lloyd iterations, stopping once an iteration
    /// after the first changes no assignment. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] for no points,
    /// [`Error::ShapeMismatch`] for ragged rows, and
    /// [`Error::InvalidConfig`] if `k` is zero or exceeds the point
    /// count.
    pub fn fit(points: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> Result<KMeans> {
        if points.is_empty() {
            return Err(Error::EmptyDataset("kmeans points"));
        }
        let d = points[0].len();
        for p in points {
            if p.len() != d {
                return Err(Error::ShapeMismatch {
                    what: "kmeans point",
                    expected: d,
                    actual: p.len(),
                });
            }
        }
        if k == 0 || k > points.len() {
            return Err(Error::invalid_config(
                "kmeans",
                format!("k = {k} must be in 1..={}", points.len()),
            ));
        }
        let mut rng = SplitMix64::new(seed);
        // k-means++ seeding: first centroid uniform, then proportional to
        // squared distance from the nearest existing centroid.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.next_usize(points.len())].clone());
        while centroids.len() < k {
            let d2: Vec<f64> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| dist2(p, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = d2.iter().sum();
            let chosen = if total <= 0.0 {
                rng.next_usize(points.len())
            } else {
                let mut target = rng.next_f64() * total;
                let mut idx = points.len() - 1;
                for (i, &w) in d2.iter().enumerate() {
                    target -= w;
                    if target <= 0.0 {
                        idx = i;
                        break;
                    }
                }
                idx
            };
            centroids.push(points[chosen].clone());
        }

        let mut assignment = vec![0usize; points.len()];
        let mut iterations = 0;
        for iter in 0..max_iters {
            iterations = iter + 1;
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let best = (0..k)
                    .min_by(|&a, &b| {
                        dist2(p, &centroids[a])
                            .partial_cmp(&dist2(p, &centroids[b]))
                            .expect("finite")
                    })
                    .expect("k >= 1");
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (i, p) in points.iter().enumerate() {
                counts[assignment[i]] += 1;
                for (s, &v) in sums[assignment[i]].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for (c, (s, &n)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if n > 0 {
                    for (cv, &sv) in c.iter_mut().zip(s) {
                        *cv = sv / n as f64;
                    }
                }
            }
            if !changed && iter > 0 {
                break;
            }
        }
        let inertia = points
            .iter()
            .zip(&assignment)
            .map(|(p, &a)| dist2(p, &centroids[a]))
            .sum();
        Ok(KMeans {
            centroids,
            assignment,
            inertia,
            iterations,
        })
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// `assignment()[i]` is the centroid index of input point `i`.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Total within-cluster sum of squared distances at convergence.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The nearest centroid of a point.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn assign(&self, point: &[f64]) -> usize {
        (0..self.centroids.len())
            .min_by(|&a, &b| {
                dist2(point, &self.centroids[a])
                    .partial_cmp(&dist2(point, &self.centroids[b]))
                    .expect("finite")
            })
            .expect("k >= 1")
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kmeans dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..30 {
            let j = i as f64 * 0.01;
            pts.push(vec![0.0 + j, 0.0, 1.0]);
            pts.push(vec![5.0 + j, 5.0, -1.0]);
            pts.push(vec![-5.0 + j, 5.0, 0.0]);
        }
        pts
    }

    #[test]
    fn separates_three_blobs() {
        let km = KMeans::fit(&blobs(), 3, 100, 11).unwrap();
        assert_eq!(km.k(), 3);
        // Points of the same blob share an assignment.
        let pts = blobs();
        let a0 = km.assign(&pts[0]);
        let a1 = km.assign(&pts[1]);
        let a2 = km.assign(&pts[2]);
        assert_ne!(a0, a1);
        assert_ne!(a1, a2);
        assert_ne!(a0, a2);
        for chunk in pts.chunks(3) {
            assert_eq!(km.assign(&chunk[0]), a0);
            assert_eq!(km.assign(&chunk[1]), a1);
            assert_eq!(km.assign(&chunk[2]), a2);
        }
        assert!(km.inertia() < 1.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = KMeans::fit(&blobs(), 3, 100, 7).unwrap();
        let b = KMeans::fit(&blobs(), 3, 100, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        assert!(KMeans::fit(&[], 1, 10, 0).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(KMeans::fit(&ragged, 1, 10, 0).is_err());
        let pts = vec![vec![1.0]];
        assert!(KMeans::fit(&pts, 0, 10, 0).is_err());
        assert!(KMeans::fit(&pts, 2, 10, 0).is_err());
    }
}
