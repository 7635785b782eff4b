//! Feature quantisation: bin cuts and the binned (u8-coded) dataset.
//!
//! Histogram-based training never looks at raw feature values while
//! growing trees; it works on per-feature integer bin codes computed
//! once per dataset. [`BinCuts`] holds the per-feature cut points
//! (at most `max_bins - 1` of them, so codes always fit a `u8`);
//! [`BinnedDataset`] holds the row-major code matrix.
//!
//! Cut placement mirrors the exact-greedy reference: when a feature has
//! at most `max_bins` distinct values, the cuts are exactly the
//! midpoints between consecutive distinct values — the same candidate
//! thresholds the exact scan considers — so histogram training on such
//! *pre-binned* data explores the identical split space. Features with
//! more distinct values get quantile cuts (equal-rank spacing over the
//! sorted column).
//!
//! There is one binning path, `bin_column`: one radix sort of the
//! column's rows by value, the cuts from its distinct values, and one
//! walk of the sorted order that codes every row with a single pointer
//! into the cuts. A fit runs it on its worker set, each worker
//! over its own features (`crate::hist`), and the calling thread then
//! assembles the row-major matrix. [`BinnedDataset::build`] starts a
//! worker set for binning alone. Cuts and codes are the same for every
//! thread count.

use crate::dataset::Dataset;
use common::{Error, Result};

/// Hard ceiling on the bin count: codes are stored as `u8`.
pub const MAX_BINS_LIMIT: usize = 256;

/// Per-feature cut points; bin `b` of feature `f` covers
/// `cuts[f][b-1] <= x < cuts[f][b]` (with open outer edges).
#[derive(Debug, Clone, PartialEq)]
pub struct BinCuts {
    cuts: Vec<Vec<f64>>,
    max_bins: usize,
}

impl BinCuts {
    /// Number of features covered.
    pub fn num_features(&self) -> usize {
        self.cuts.len()
    }

    /// The `max_bins` these cuts were fitted with.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Number of bins of feature `f` (`cuts + 1`, at least 1).
    pub fn num_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// Sum of bin counts over all features.
    pub fn total_bins(&self) -> usize {
        (0..self.num_features()).map(|f| self.num_bins(f)).sum()
    }

    /// Feature `f`'s cuts, strictly increasing.
    pub fn feature_cuts(&self, f: usize) -> &[f64] {
        &self.cuts[f]
    }

    /// The threshold realising a split that sends bins `0..=b` of
    /// feature `f` left: rows with `x < threshold(f, b)` are exactly the
    /// rows coded `<= b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a valid cut index of feature `f`.
    pub fn threshold(&self, f: usize, b: usize) -> f64 {
        self.cuts[f][b]
    }
}

/// Buffers for binning a run of columns, reused across them: the radix
/// sort's two row buffers.
#[derive(Default)]
pub(crate) struct BinBuffers {
    rows: [Vec<u32>; 2],
}

impl BinBuffers {
    /// Buffers sized for columns of `rows` values.
    pub(crate) fn with_rows(rows: usize) -> BinBuffers {
        BinBuffers {
            rows: [Vec::with_capacity(rows), Vec::with_capacity(rows)],
        }
    }
}

/// Bins one column — the only binning path — into `codes` (one per
/// row) and returns its cuts. Sorts the column's rows once by value
/// ([`sort_rows`]), takes the cuts from the distinct sorted values
/// ([`cuts_of`]), then codes every row in one walk of the sorted order
/// with a single pointer into the cuts: a row's code is the number of
/// cuts `<= x`. A code depends only on the value, so the order among
/// equal values does not matter.
pub(crate) fn bin_column(
    col: &[f64],
    max_bins: usize,
    codes: &mut [u8],
    buffers: &mut BinBuffers,
) -> Vec<f64> {
    let order = sort_rows(col, &mut buffers.rows);
    let cuts = cuts_of(col, order, max_bins);
    assert!(
        cuts.len() < MAX_BINS_LIMIT,
        "{} cuts overflow a u8 bin code",
        cuts.len()
    );
    let mut code = 0;
    for &r in order {
        let x = col[r as usize];
        while code < cuts.len() && cuts[code] <= x {
            code += 1;
        }
        codes[r as usize] = code as u8;
    }
    cuts
}

/// Bits of the radix sort's digits: six passes cover a 64-bit key.
const DIGIT_BITS: u32 = 11;

/// `x`'s sort key: unsigned integer order of keys is `f64::total_cmp`
/// order, which puts `-0.0` right before `0.0`.
fn key_of(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Sorts `col`'s row indices by value: a least-significant-digit radix
/// sort on [`key_of`] that skips every digit all keys share. Returns the
/// sorted rows, which live in one of `buffers`.
fn sort_rows<'b>(col: &[f64], buffers: &'b mut [Vec<u32>; 2]) -> &'b [u32] {
    const PASSES: usize = 64_usize.div_ceil(DIGIT_BITS as usize);
    let digit = |r: u32, pass: usize| {
        (key_of(col[r as usize]) >> (pass as u32 * DIGIT_BITS)) as usize & ((1 << DIGIT_BITS) - 1)
    };
    let [rows, spare] = buffers;
    rows.clear();
    rows.extend(0..col.len() as u32);
    spare.resize(rows.len(), 0);
    let mut counts = [[0u32; 1 << DIGIT_BITS]; PASSES];
    for &r in rows.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(r, pass)] += 1;
        }
    }
    for (pass, count) in counts.iter_mut().enumerate() {
        if count.iter().any(|&n| n as usize == rows.len()) {
            continue;
        }
        let mut at = 0;
        for n in count.iter_mut() {
            (*n, at) = (at, at + *n);
        }
        for &r in rows.iter() {
            let slot = &mut count[digit(r, pass)];
            spare[*slot as usize] = r;
            *slot += 1;
        }
        std::mem::swap(rows, spare);
    }
    rows
}

/// `col`'s distinct values in ascending order, given its rows in that
/// order. `==` merges `-0.0` and `0.0`, as `Vec::dedup` does; which
/// zero stands for both cannot change a midpoint with a non-zero
/// neighbour.
fn distinct<'a>(col: &'a [f64], order: &'a [u32]) -> impl Iterator<Item = f64> + 'a {
    let mut last = None;
    order
        .iter()
        .map(|&r| col[r as usize])
        .filter(move |&x| last.replace(x) != Some(x))
}

/// Cuts for one column, given its rows in ascending value order:
/// midpoints between consecutive distinct values when there are at most
/// `max_bins` of them, quantile midpoints otherwise. Cuts are strictly
/// increasing.
fn cuts_of(col: &[f64], order: &[u32], max_bins: usize) -> Vec<f64> {
    let count = distinct(col, order).count();
    let mut cuts = Vec::new();
    let mut prev = None;
    let mut b = 1;
    for (i, x) in distinct(col, order).enumerate() {
        if count <= max_bins {
            cuts.extend(prev.map(|p| midpoint(p, x)));
        } else if b < max_bins && i == b * count / max_bins {
            // Quantile cuts over the distinct values: even rank spacing
            // keeps every bin populated regardless of the value
            // distribution. The ranks ascend strictly, as count > max_bins.
            let cut = midpoint(prev.expect("rank ≥ 1"), x);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
            b += 1;
        }
        prev = Some(x);
    }
    cuts
}

/// The exact-greedy candidate threshold between two adjacent values.
fn midpoint(a: f64, b: f64) -> f64 {
    (a + b) / 2.0
}

/// A dataset quantised against its fitted [`BinCuts`]: one `u8` code
/// per (row, feature), stored row-major so the histogram accumulation
/// inner loop streams each row's codes sequentially.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    cuts: BinCuts,
    codes: Vec<u8>,
    n_rows: usize,
    n_features: usize,
    /// Cumulative bin offsets per feature into a flat histogram
    /// (`offsets[f]..offsets[f] + num_bins(f)`).
    offsets: Vec<u32>,
    targets: Vec<f64>,
}

impl BinnedDataset {
    /// Quantises `data` on a worker set of `threads` (`min(threads,
    /// features)` threads, the calling thread included; worker `k` of
    /// `t` bins the features `[k·nf/t, (k+1)·nf/t)`), as a fit does
    /// before it grows trees. The cuts and codes are bit-identical for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDataset`] for an empty dataset and
    /// [`Error::InvalidConfig`] when `max_bins` is outside `2..=256`.
    pub fn build(data: &Dataset, max_bins: usize, threads: usize) -> Result<BinnedDataset> {
        if !(2..=MAX_BINS_LIMIT).contains(&max_bins) {
            return Err(Error::invalid_config(
                "binning",
                format!("max_bins must be in 2..={MAX_BINS_LIMIT}, got {max_bins}"),
            ));
        }
        if data.is_empty() {
            return Err(Error::EmptyDataset("binning input"));
        }
        Ok(crate::hist::bin(data, max_bins, threads))
    }

    /// Assembles the row-major code matrix from column-major blocks of
    /// consecutive features, in feature order (each block holds its
    /// features' codes one column after another), and each feature's
    /// cuts. Each block is freed once copied, so the matrix and its
    /// source never both exist whole.
    pub(crate) fn from_blocks(
        cuts: Vec<Vec<f64>>,
        blocks: Vec<Vec<u8>>,
        max_bins: usize,
        targets: &[f64],
    ) -> BinnedDataset {
        let n_rows = targets.len();
        let n_features = cuts.len();
        let mut codes = vec![0u8; n_rows * n_features];
        let mut first = 0;
        for block in blocks {
            let columns: Vec<&[u8]> = block.chunks_exact(n_rows).collect();
            let features = first..first + columns.len();
            for (r, row) in codes.chunks_exact_mut(n_features).enumerate() {
                for (code, col) in row[features.clone()].iter_mut().zip(&columns) {
                    *code = col[r];
                }
            }
            first = features.end;
        }
        assert_eq!(first, n_features, "one code column per feature");
        let cuts = BinCuts { cuts, max_bins };
        let mut offsets = Vec::with_capacity(n_features + 1);
        let mut acc = 0u32;
        for f in 0..n_features {
            offsets.push(acc);
            acc += cuts.num_bins(f) as u32;
        }
        offsets.push(acc);
        BinnedDataset {
            cuts,
            codes,
            n_rows,
            n_features,
            offsets,
            targets: targets.to_vec(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.n_features
    }

    /// The cuts the codes were produced with.
    pub fn cuts(&self) -> &BinCuts {
        &self.cuts
    }

    /// The training targets, in row order.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Total histogram width (sum of per-feature bin counts).
    pub fn total_bins(&self) -> usize {
        self.offsets[self.n_features] as usize
    }

    /// Flat-histogram offset of feature `f`'s bin 0.
    pub(crate) fn offset(&self, f: usize) -> u32 {
        self.offsets[f]
    }

    /// Row `r`'s bin codes, one per feature: the number of feature `f`'s
    /// cuts `<= x`.
    pub fn row_codes(&self, r: usize) -> &[u8] {
        &self.codes[r * self.n_features..(r + 1) * self.n_features]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..20 {
            d.push_row(&[(i % 4) as f64, i as f64], i as f64, 0)
                .unwrap();
        }
        d
    }

    #[test]
    fn prebinned_feature_gets_midpoint_cuts() {
        let d = toy();
        let binned = BinnedDataset::build(&d, 256, 1).unwrap();
        let cuts = binned.cuts();
        // Feature a has distinct values {0,1,2,3} -> cuts at 0.5, 1.5, 2.5.
        assert_eq!(cuts.num_bins(0), 4);
        assert_eq!(cuts.threshold(0, 0), 0.5);
        assert_eq!(cuts.threshold(0, 1), 1.5);
        assert_eq!(cuts.threshold(0, 2), 2.5);
        // Row i holds a = i % 4, which is its own bin.
        for r in 0..20 {
            assert_eq!(binned.row_codes(r)[0], (r % 4) as u8);
        }
    }

    #[test]
    fn quantile_cuts_cover_wide_columns() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..1000 {
            d.push_row(&[i as f64], 0.0, 0).unwrap();
        }
        let binned = BinnedDataset::build(&d, 16, 1).unwrap();
        assert_eq!(binned.cuts().num_bins(0), 16);
        // Codes span all bins and are monotone in the value.
        let codes: Vec<u8> = (0..1000).map(|r| binned.row_codes(r)[0]).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*codes.first().unwrap(), 0);
        assert_eq!(*codes.last().unwrap(), 15);
    }

    #[test]
    fn bin_boundaries_agree_with_strict_less_than() {
        let d = toy();
        for max_bins in [4, 256] {
            let binned = BinnedDataset::build(&d, max_bins, 1).unwrap();
            let cuts = binned.cuts();
            for f in 0..2 {
                for b in 0..cuts.num_bins(f) - 1 {
                    let thr = cuts.threshold(f, b);
                    for (r, &v) in d.column(f).iter().enumerate() {
                        let code = binned.row_codes(r)[f];
                        assert_eq!(v < thr, code as usize <= b, "f={f} v={v} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn constant_feature_has_one_bin() {
        let mut d = Dataset::new(vec!["c".into()]);
        for _ in 0..10 {
            d.push_row(&[7.0], 1.0, 0).unwrap();
        }
        let binned = BinnedDataset::build(&d, 64, 1).unwrap();
        assert_eq!(binned.cuts().num_bins(0), 1);
        assert!((0..10).all(|r| binned.row_codes(r)[0] == 0));
    }

    #[test]
    fn max_bins_bounds_are_enforced() {
        let d = toy();
        assert!(BinnedDataset::build(&d, 1, 1).is_err());
        assert!(BinnedDataset::build(&d, 257, 1).is_err());
        assert!(BinnedDataset::build(&d, 2, 1).is_ok());
        let empty = Dataset::new(vec!["x".into()]);
        assert!(BinnedDataset::build(&empty, 16, 1).is_err());
    }

    #[test]
    fn offsets_partition_the_flat_histogram() {
        let d = toy();
        let binned = BinnedDataset::build(&d, 256, 1).unwrap();
        assert_eq!(binned.offset(0), 0);
        assert_eq!(binned.offset(1) as usize, binned.cuts().num_bins(0));
        assert_eq!(
            binned.total_bins(),
            binned.cuts().num_bins(0) + binned.cuts().num_bins(1)
        );
        assert_eq!(binned.len(), 20);
        assert_eq!(binned.num_features(), 2);
    }
}
