//! Flat ensemble layout walked many trees at a time.
//!
//! [`crate::RegressionTree`] stores each tree as its own `Vec<Node>` of
//! ~48-byte nodes, and its walk branches on a leaf flag at every node.
//! [`FlatModel`] compiles a trained [`GbtModel`] into one contiguous
//! array of 24-byte nodes covering *all* trees — split feature,
//! threshold (the value, for a leaf) and child pair — plus each tree's
//! root and depth.
//!
//! **Lockstep walk.** A leaf's children are itself, so a walk that
//! takes more steps than a tree is deep stays on the leaf it reached.
//! That removes the leaf test: trees are walked [`LANES`] at a time,
//! each step moves every lane one level down with the branch-free
//! `go_right = !(row[f] < threshold)`, and a chunk takes as many steps
//! as its deepest tree. The lanes are independent load chains, so the
//! CPU overlaps their latencies instead of waiting out one tree's
//! compare → load → compare chain before starting the next; the two
//! candidate rows of a control decision ([`FlatModel::predict_pair`])
//! walk side by side in the same pass.
//!
//! Predictions are **bit-identical** to the tree walk
//! ([`GbtModel::predict`] / [`GbtModel::predict_batch`]): the same
//! comparisons run against the same thresholds, leaf values are added
//! one at a time in tree order onto the accumulator start value each
//! oracle uses, and the final affine step is the same
//! `base_score + learning_rate * sum` expression. The equivalence is
//! pinned by property tests in `tests/proptest_flat.rs`.

use crate::model::GbtModel;

/// Trees one lockstep pass walks side by side.
pub const LANES: usize = 16;

/// One node of the flat layout.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    /// Split threshold for an internal node; the leaf value for a leaf.
    threshold: f64,
    /// Split feature; 0 for a leaf, whose children ignore the compare.
    feature: u32,
    /// `[left, right]` child indices (ensemble-global); `[self, self]`
    /// for a leaf.
    children: [u32; 2],
}

/// A compiled, traversal-only view of a [`GbtModel`].
///
/// Build once with [`GbtModel::flatten`] (or [`FlatModel::from_model`])
/// and reuse for every query; the ML controllers compile their model at
/// construction and answer their two-candidate per-interval queries
/// from the flat layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatModel {
    base_score: f64,
    learning_rate: f64,
    /// Every tree's nodes, tree after tree.
    nodes: Vec<FlatNode>,
    /// Root node index of each tree, in ensemble order.
    roots: Vec<u32>,
    /// Steps from each tree's root to its deepest leaf.
    depths: Vec<u32>,
}

impl FlatModel {
    /// Compiles `model` into the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble holds more than `u32::MAX − 1` nodes
    /// (unreachable with realistic hyper-parameters).
    pub fn from_model(model: &GbtModel) -> FlatModel {
        let total: usize = model.trees().iter().map(|t| t.nodes().len()).sum();
        assert!(total < u32::MAX as usize, "ensemble too large to flatten");
        let mut nodes = Vec::with_capacity(total);
        let mut roots = Vec::with_capacity(model.num_trees());
        let mut depths = Vec::with_capacity(model.num_trees());
        for tree in model.trees() {
            let base = nodes.len() as u32;
            roots.push(base);
            for (i, n) in tree.nodes().iter().enumerate() {
                nodes.push(if n.is_leaf {
                    let own = base + i as u32;
                    FlatNode {
                        threshold: n.value,
                        feature: 0,
                        children: [own, own],
                    }
                } else {
                    FlatNode {
                        threshold: n.threshold,
                        feature: n.feature,
                        children: [base + n.left, base + n.right],
                    }
                });
            }
            depths.push(leaf_depth(tree.nodes()));
        }
        FlatModel {
            base_score: model.base_score(),
            learning_rate: model.params().learning_rate,
            nodes,
            roots,
            depths,
        }
    }

    /// Number of trees in the compiled ensemble.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Adds the leaf values that each of the `R` rows reaches in the
    /// first `k` trees onto its accumulator, one leaf at a time in tree
    /// order: the one walker behind every prediction.
    // `!(a < b)` is NOT `a >= b` under NaN; the negated form keeps the
    // tree-walk's exact branch polarity, which the bit-identity contract
    // depends on.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn leaf_sums<const R: usize>(
        &self,
        rows: [&[f64]; R],
        k: usize,
        mut acc: [f64; R],
    ) -> [f64; R] {
        let k = k.min(self.roots.len());
        for (roots, depths) in self.roots[..k]
            .chunks(LANES)
            .zip(self.depths[..k].chunks(LANES))
        {
            // A short last chunk repeats its first tree in the spare
            // lanes, which are walked but never summed.
            let mut lane = [roots[0]; LANES];
            lane[..roots.len()].copy_from_slice(roots);
            let mut at = [lane; R];
            let depth = depths.iter().copied().max().unwrap_or(0);
            for _ in 0..depth {
                for (row, at) in rows.iter().zip(&mut at) {
                    for i in at.iter_mut() {
                        let n = &self.nodes[*i as usize];
                        // Both children load with the node, so the step's
                        // chain is node → feature value → compare →
                        // select. `<` goes left, everything else (NaN
                        // included) right, exactly as the tree walk
                        // branches.
                        let [left, right] = n.children;
                        *i = if !(row[n.feature as usize] < n.threshold) {
                            right
                        } else {
                            left
                        };
                    }
                }
            }
            for (acc, at) in acc.iter_mut().zip(&at) {
                for &i in &at[..roots.len()] {
                    *acc += self.nodes[i as usize].threshold;
                }
            }
        }
        acc
    }

    /// The model's output for a leaf sum.
    fn finish(&self, sum: f64) -> f64 {
        self.base_score + self.learning_rate * sum
    }

    /// Predicts one row; bit-identical to [`GbtModel::predict`].
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.predict_with(row, self.roots.len())
    }

    /// Predicts using only the first `k` trees; bit-identical to
    /// [`GbtModel::predict_with`].
    pub fn predict_with(&self, row: &[f64], k: usize) -> f64 {
        // `Iterator::sum` over `f64`, which the oracle uses, starts at
        // -0.0.
        let [sum] = self.leaf_sums([row], k, [-0.0]);
        self.finish(sum)
    }

    /// Predicts two rows in one lockstep pass — the hold and step-up
    /// candidates of a control decision — without allocating;
    /// bit-identical to [`FlatModel::predict_batch`] over `[a, b]`.
    pub fn predict_pair(&self, a: &[f64], b: &[f64]) -> (f64, f64) {
        let [a, b] = self.leaf_sums([a, b], self.roots.len(), [0.0; 2]);
        (self.finish(a), self.finish(b))
    }

    /// Predicts a batch of rows; bit-identical to
    /// [`GbtModel::predict_batch`].
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(rows, &mut out);
        out
    }

    /// [`FlatModel::predict_batch`] into a caller-owned buffer (cleared
    /// first), so steady-state batched queries allocate nothing. Rows
    /// walk two at a time.
    pub fn predict_batch_into(&self, rows: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        for pair in rows.chunks(2) {
            match pair {
                [a, b] => {
                    let (a, b) = self.predict_pair(a, b);
                    out.extend([a, b]);
                }
                [a] => {
                    // The oracle's batch accumulators start at +0.0.
                    let [sum] = self.leaf_sums([a], self.roots.len(), [0.0]);
                    out.push(self.finish(sum));
                }
                _ => unreachable!("chunks of at most two rows"),
            }
        }
    }
}

/// Steps from the root of a tree (`nodes[0]`) to its deepest leaf.
///
/// # Panics
///
/// Panics if a path is longer than the tree has nodes (the children
/// form a cycle), or a child index is out of range.
fn leaf_depth(nodes: &[crate::tree::Node]) -> u32 {
    let mut deepest = 0;
    let mut stack = vec![(0u32, 0u32)];
    while let Some((i, depth)) = stack.pop() {
        assert!((depth as usize) < nodes.len(), "tree children form a cycle");
        let n = &nodes[i as usize];
        if n.is_leaf {
            deepest = deepest.max(depth);
        } else {
            stack.push((n.left, depth + 1));
            stack.push((n.right, depth + 1));
        }
    }
    deepest
}

impl GbtModel {
    /// Compiles this model into the lockstep [`FlatModel`] layout.
    pub fn flatten(&self) -> FlatModel {
        FlatModel::from_model(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::params::GbtParams;

    fn model() -> GbtModel {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..300 {
            let x0 = (i % 19) as f64 / 19.0;
            let x1 = (i % 7) as f64;
            d.push_row(&[x0, x1], x0 * 2.0 + (x1 - 3.0).powi(2), 0)
                .unwrap();
        }
        GbtModel::train(&d, &GbtParams::default().with_estimators(30)).unwrap()
    }

    #[test]
    fn flat_predict_matches_tree_walk_bitwise() {
        let m = model();
        let flat = m.flatten();
        assert_eq!(flat.num_trees(), m.num_trees());
        for i in 0..40 {
            let row = [(i % 19) as f64 / 19.0 + 0.01, (i % 7) as f64 - 0.5];
            assert_eq!(m.predict(&row).to_bits(), flat.predict(&row).to_bits());
            for k in [0, 1, 7, 30, 99] {
                assert_eq!(
                    m.predict_with(&row, k).to_bits(),
                    flat.predict_with(&row, k).to_bits()
                );
            }
        }
    }

    #[test]
    fn flat_batch_matches_model_batch_bitwise() {
        let m = model();
        let flat = m.flatten();
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 19) as f64 / 19.0, (i % 7) as f64])
            .collect();
        let a = m.predict_batch(&rows);
        let b = flat.predict_batch(&rows);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let mut buf = vec![99.0; 3];
        flat.predict_batch_into(&rows, &mut buf);
        assert_eq!(buf, b);
        assert!(flat.predict_batch(&[]).is_empty());
    }

    #[test]
    fn node_count_matches_trees() {
        let m = model();
        let flat = m.flatten();
        let total: usize = m.trees().iter().map(|t| t.nodes().len()).sum();
        assert_eq!(flat.num_nodes(), total);
    }
}
