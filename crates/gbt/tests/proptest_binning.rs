//! Property test for binning: cuts and codes from the worker-set path
//! ([`BinnedDataset::build`], which sorts each column once and codes it
//! in one walk) against an oracle that stably sorts a copy of each
//! column, `dedup`s it and binary-searches every value, at 1–4 threads.

use boreas_gbt::{BinnedDataset, Dataset, BLOCK_ROWS};
use common::check::{self, Gen};

/// The oracle's cuts for one column: midpoints between consecutive
/// distinct values when there are at most `max_bins` of them, quantile
/// midpoints otherwise.
fn oracle_cuts(col: &[f64], max_bins: usize) -> Vec<f64> {
    let mut sorted = col.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    sorted.dedup();
    let distinct = sorted.len();
    let mut cuts = Vec::new();
    if distinct <= max_bins {
        for w in sorted.windows(2) {
            cuts.push((w[0] + w[1]) / 2.0);
        }
    } else {
        for b in 1..max_bins {
            let rank = b * distinct / max_bins;
            let cut = (sorted[rank - 1] + sorted[rank]) / 2.0;
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
    }
    cuts
}

/// The oracle's code: the number of cuts `<= x`.
fn oracle_code(cuts: &[f64], x: f64) -> u8 {
    cuts.partition_point(|&c| c <= x) as u8
}

/// Row counts: tiny, around one and two accumulation blocks, random.
fn arb_rows(g: &mut Gen) -> usize {
    match g.usize_in(0..3) {
        0 => g.usize_in(1..40),
        1 => g.pick(&[
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            2 * BLOCK_ROWS,
            2 * BLOCK_ROWS + 1,
        ]),
        _ => g.usize_in(1..=2 * BLOCK_ROWS + 2),
    }
}

/// One column of `rows` values, of one of several shapes.
fn arb_column(g: &mut Gen, rows: usize) -> Vec<f64> {
    match g.usize_in(0..6) {
        // Constant, possibly a signed zero.
        0 => vec![g.pick(&[0.0, -0.0, 7.25, -3.0]); rows],
        // Few distinct values with many ties, both zeros included.
        1 => {
            let pool = [-0.0, 0.0, 1.0, -2.5, 3.75, 1e-300, -1e300];
            (0..rows).map(|_| g.pick(&pool)).collect()
        }
        // Mostly distinct: more values than any `max_bins`.
        2 => (0..rows).map(|_| g.f64_in(-1e3..1e3)).collect(),
        // Signed zeros in random order around a few other values.
        3 => (0..rows)
            .map(|_| match g.usize_in(0..4) {
                0 => -0.0,
                1 => 0.0,
                2 => g.pick(&[-1.0, 1.0]),
                _ => g.f64_in(-1.0..1.0),
            })
            .collect(),
        // Runs of adjacent floats: midpoints round onto the values
        // themselves, so values equal cuts and cuts can repeat.
        4 => {
            let base = g.f64_in(-10.0..10.0);
            (0..rows)
                .map(|_| f64::from_bits(base.to_bits() + g.u64_in(0..6)))
                .collect()
        }
        // Small integers: as many distinct values as `max_bins`, or one
        // more, are both common.
        _ => {
            let k = g.pick(&[2, 3, 16, 17, 255, 256, 257]);
            (0..rows).map(|_| g.usize_in(0..k) as f64).collect()
        }
    }
}

/// Cuts and codes of every feature are bit-identical to the oracle's at
/// 1, 2, 3 and 4 binning threads.
#[test]
fn binning_matches_the_oracle_at_every_thread_count() {
    check::cases(128, |g| {
        let rows = arb_rows(g);
        let nf = g.usize_in(1..7);
        let any = g.usize_in(2..=256);
        let max_bins = g.pick(&[2, 3, 16, 17, 255, 256, any]);
        let columns: Vec<Vec<f64>> = (0..nf).map(|_| arb_column(g, rows)).collect();
        let mut data = Dataset::new((0..nf).map(|f| format!("x{f}")).collect());
        for r in 0..rows {
            let row: Vec<f64> = columns.iter().map(|c| c[r]).collect();
            data.push_row(&row, 0.0, 0).expect("finite row");
        }
        let oracle: Vec<Vec<f64>> = columns.iter().map(|c| oracle_cuts(c, max_bins)).collect();
        for threads in 1..=4 {
            let binned = BinnedDataset::build(&data, max_bins, threads).expect("binning");
            for (f, (col, cuts)) in columns.iter().zip(&oracle).enumerate() {
                let got: Vec<u64> = binned
                    .cuts()
                    .feature_cuts(f)
                    .iter()
                    .map(|c| c.to_bits())
                    .collect();
                let want: Vec<u64> = cuts.iter().map(|c| c.to_bits()).collect();
                assert_eq!(got, want, "cuts of feature {f} at {threads} threads");
                for (r, &x) in col.iter().enumerate() {
                    assert_eq!(
                        binned.row_codes(r)[f],
                        oracle_code(cuts, x),
                        "code of row {r} (x = {x:e}), feature {f}, {threads} threads"
                    );
                }
            }
        }
    });
}

/// Both orders of `-0.0` and `0.0` give one distinct value, so the
/// same cuts and codes as a column with only `0.0`.
#[test]
fn signed_zeros_are_one_value_in_either_order() {
    for col in [[-0.0, 0.0, 1.0, -1.0], [0.0, -0.0, 1.0, -1.0]] {
        let mut data = Dataset::new(vec!["x".into()]);
        for x in col {
            data.push_row(&[x], 0.0, 0).expect("finite row");
        }
        let binned = BinnedDataset::build(&data, 256, 1).expect("binning");
        assert_eq!(binned.cuts().feature_cuts(0), [-0.5, 0.5]);
        let codes: Vec<u8> = (0..4).map(|r| binned.row_codes(r)[0]).collect();
        assert_eq!(codes, [1, 1, 2, 0]);
    }
}
