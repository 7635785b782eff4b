//! Column-major tabular dataset for training and evaluation.

use common::{Error, Result};

/// A regression dataset: named feature columns, a target column, and a
/// *group* label per row (the workload each instance came from), used for
/// the paper's leave-one-application-out cross-validation.
///
/// Stored column-major because exact-greedy split finding scans one
/// feature at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    feature_names: Vec<String>,
    /// `columns[f][i]` = feature `f` of row `i`.
    columns: Vec<Vec<f64>>,
    targets: Vec<f64>,
    groups: Vec<u32>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names.
    ///
    /// # Panics
    ///
    /// Panics if `feature_names` is empty or contains duplicates.
    pub fn new(feature_names: Vec<String>) -> Self {
        Self::with_capacity(feature_names, 0)
    }

    /// Creates an empty dataset with room for exactly `rows` rows in
    /// every column, so a builder that knows its row count up front
    /// never grows (and so never over-allocates) a column.
    ///
    /// # Panics
    ///
    /// Panics if `feature_names` is empty or contains duplicates.
    pub fn with_capacity(feature_names: Vec<String>, rows: usize) -> Self {
        assert!(!feature_names.is_empty(), "need at least one feature");
        let mut sorted = feature_names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), feature_names.len(), "duplicate feature names");
        let columns = (0..feature_names.len())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        Self {
            feature_names,
            columns,
            targets: Vec::with_capacity(rows),
            groups: Vec::with_capacity(rows),
        }
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `features` has the wrong arity
    /// or [`Error::Numerical`] for non-finite values.
    pub fn push_row(&mut self, features: &[f64], target: f64, group: u32) -> Result<()> {
        if features.len() != self.columns.len() {
            return Err(Error::ShapeMismatch {
                what: "dataset row",
                expected: self.columns.len(),
                actual: features.len(),
            });
        }
        if !features.iter().all(|v| v.is_finite()) || !target.is_finite() {
            return Err(Error::Numerical("non-finite value in dataset row".into()));
        }
        for (col, &v) in self.columns.iter_mut().zip(features) {
            col.push(v);
        }
        self.targets.push(target);
        self.groups.push(group);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// One feature column.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn column(&self, f: usize) -> &[f64] {
        &self.columns[f]
    }

    /// The targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The group labels.
    pub fn groups(&self) -> &[u32] {
        &self.groups
    }

    /// The distinct group labels, ascending.
    pub fn distinct_groups(&self) -> Vec<u32> {
        let mut g = self.groups.clone();
        g.sort_unstable();
        g.dedup();
        g
    }

    /// Materialises one row (feature order).
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.columns.iter().map(|c| c[i]).collect()
    }

    /// Splits into (rows whose group == `held_out`, the rest), preserving
    /// order — the paper's leave-one-application-out fold construction.
    pub fn split_by_group(&self, held_out: u32) -> (Dataset, Dataset) {
        let mut val = Dataset::new(self.feature_names.clone());
        let mut train = Dataset::new(self.feature_names.clone());
        for i in 0..self.len() {
            let dst = if self.groups[i] == held_out {
                &mut val
            } else {
                &mut train
            };
            let row = self.row(i);
            dst.push_row(&row, self.targets[i], self.groups[i])
                .expect("row copied from a valid dataset");
        }
        (val, train)
    }

    /// Returns a dataset restricted to the named feature columns (in the
    /// given order) — used by the feature-selection study.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if a name is unknown.
    pub fn select_features(&self, names: &[&str]) -> Result<Dataset> {
        let mut idx = Vec::with_capacity(names.len());
        for &n in names {
            let i = self
                .feature_names
                .iter()
                .position(|f| f == n)
                .ok_or_else(|| Error::not_found("feature", n))?;
            idx.push(i);
        }
        let mut out = Dataset::new(names.iter().map(|s| s.to_string()).collect());
        out.columns = idx.iter().map(|&i| self.columns[i].clone()).collect();
        out.targets = self.targets.clone();
        out.groups = self.groups.clone();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push_row(&[1.0, 10.0], 0.1, 0).unwrap();
        d.push_row(&[2.0, 20.0], 0.2, 0).unwrap();
        d.push_row(&[3.0, 30.0], 0.3, 1).unwrap();
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.column(1), &[10.0, 20.0, 30.0]);
        assert_eq!(d.row(2), vec![3.0, 30.0]);
        assert_eq!(d.targets(), &[0.1, 0.2, 0.3]);
        assert_eq!(d.distinct_groups(), vec![0, 1]);
    }

    #[test]
    fn a_dataset_filled_to_its_capacity_holds_exactly_that_many_rows() {
        let mut d = Dataset::with_capacity(vec!["a".into(), "b".into()], 3);
        for i in 0..3 {
            d.push_row(&[f64::from(i), 1.0], 0.5, i).unwrap();
        }
        assert_eq!(d, {
            let mut s = Dataset::new(vec!["a".into(), "b".into()]);
            (0..3).for_each(|i| s.push_row(&[f64::from(i), 1.0], 0.5, i).unwrap());
            s
        });
        assert!(d.columns.iter().all(|c| c.capacity() == 3));
        assert_eq!((d.targets.capacity(), d.groups.capacity()), (3, 3));
    }

    #[test]
    fn arity_and_finiteness_checked() {
        let mut d = sample();
        assert!(matches!(
            d.push_row(&[1.0], 0.0, 0),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            d.push_row(&[1.0, f64::NAN], 0.0, 0),
            Err(Error::Numerical(_))
        ));
        assert!(matches!(
            d.push_row(&[1.0, 2.0], f64::INFINITY, 0),
            Err(Error::Numerical(_))
        ));
    }

    #[test]
    fn group_split_is_a_partition() {
        let d = sample();
        let (val, train) = d.split_by_group(0);
        assert_eq!(val.len(), 2);
        assert_eq!(train.len(), 1);
        assert!(val.groups().iter().all(|&g| g == 0));
        assert!(train.groups().iter().all(|&g| g == 1));
        assert_eq!(val.num_features(), 2);
    }

    #[test]
    fn select_features_projects_columns() {
        let d = sample();
        let p = d.select_features(&["b"]).unwrap();
        assert_eq!(p.num_features(), 1);
        assert_eq!(p.column(0), &[10.0, 20.0, 30.0]);
        assert_eq!(p.targets(), d.targets());
        assert!(d.select_features(&["zz"]).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        Dataset::new(vec!["a".into(), "a".into()]);
    }
}
