//! Property tests for the histogram trainer: the thread-count
//! determinism contract and exact-greedy equivalence on pre-binned data.

use boreas_gbt::{Dataset, GbtModel, GbtParams, TrainSpec, BLOCK_ROWS};
use common::check::{self, Gen};

/// A random continuous dataset: `nf` features, `rows` rows, bounded
/// finite values, three target groups.
fn arb_dataset(g: &mut Gen) -> Dataset {
    let nf = g.usize_in(1..5);
    let mut d = Dataset::new((0..nf).map(|f| format!("x{f}")).collect());
    for r in 0..g.usize_in(12..120) {
        let row = g.vec(nf..=nf, |g| g.f64_in(-100.0..100.0));
        d.push_row(&row, g.f64_in(-10.0..10.0), (r % 3) as u32)
            .expect("finite row");
    }
    d
}

/// A dataset whose features take at most `distinct` values each — with
/// `max_bins >= distinct` the binned view is lossless, so histogram and
/// exact-greedy training see the same split candidates.
fn arb_prebinned_dataset(g: &mut Gen, distinct: usize) -> Dataset {
    let nf = g.usize_in(1..4);
    let mut d = Dataset::new((0..nf).map(|f| format!("x{f}")).collect());
    for r in 0..g.usize_in(16..100) {
        let row = g.vec(nf..=nf, |g| g.usize_in(0..distinct) as f64);
        d.push_row(&row, g.f64_in(-5.0..5.0), (r % 2) as u32)
            .expect("finite row");
    }
    d
}

fn arb_params(g: &mut Gen) -> GbtParams {
    GbtParams::default()
        .with_depth(g.usize_in(1..4))
        .with_estimators(g.usize_in(1..7))
        .with_learning_rate(g.pick(&[0.1, 0.3, 1.0]))
}

fn train_hist(data: &Dataset, params: &GbtParams, threads: usize) -> GbtModel {
    TrainSpec::new(data)
        .params(*params)
        .threads(threads)
        .fit()
        .expect("histogram training")
        .model
}

/// 1, 2 and 4 trainer threads produce bit-identical models on any
/// dataset and hyper-parameter mix.
#[test]
fn training_is_bit_identical_across_thread_counts() {
    check::cases(256, |g| {
        let data = arb_dataset(g);
        let params = arb_params(g);
        let m1 = train_hist(&data, &params, 1);
        let m2 = train_hist(&data, &params, 2);
        let m4 = train_hist(&data, &params, 4);
        for r in 0..data.len() {
            let row = data.row(r);
            let p1 = m1.predict(&row);
            assert_eq!(
                p1.to_bits(),
                m2.predict(&row).to_bits(),
                "row {r} differs between 1 and 2 threads"
            );
            assert_eq!(
                p1.to_bits(),
                m4.predict(&row).to_bits(),
                "row {r} differs between 1 and 4 threads"
            );
        }
    });
}

/// Row counts at the accumulation block edges.
const EDGE_ROWS: [usize; 6] = [
    1,
    BLOCK_ROWS - 1,
    BLOCK_ROWS,
    BLOCK_ROWS + 1,
    2 * BLOCK_ROWS,
    2 * BLOCK_ROWS + 1,
];

/// Models trained at 2, 3, 4 and 8 threads predict every row
/// bit-identically to the 1-thread model, on datasets of one to three
/// accumulation blocks with fewer, as many and more features than
/// threads. A third of the cases fill part of a third block: float
/// addition commutes, so only three or more block partials make the
/// order of the block merge observable.
#[test]
fn multi_block_training_is_bit_identical_across_thread_counts() {
    check::cases(40, |g| {
        let rows = match g.usize_in(0..3) {
            0 => g.pick(&EDGE_ROWS),
            1 => g.usize_in(1..=3 * BLOCK_ROWS),
            _ => g.usize_in(2 * BLOCK_ROWS + 2..=3 * BLOCK_ROWS),
        };
        let nf = g.pick(&[1, 2, 3, 4, 5, 8, 9]);
        let mut data = Dataset::new((0..nf).map(|f| format!("x{f}")).collect());
        for r in 0..rows {
            let row = g.vec(nf..=nf, |g| g.f64_in(-100.0..100.0));
            data.push_row(&row, g.f64_in(-10.0..10.0), (r % 3) as u32)
                .expect("finite row");
        }
        let params = GbtParams::default()
            .with_depth(g.usize_in(1..4))
            .with_estimators(g.usize_in(1..4));
        let m1 = train_hist(&data, &params, 1);
        let p1: Vec<u64> = (0..rows)
            .map(|r| m1.predict(&data.row(r)).to_bits())
            .collect();
        for threads in [2, 3, 4, 8] {
            let m = train_hist(&data, &params, threads);
            for (r, &bits) in p1.iter().enumerate() {
                assert_eq!(
                    bits,
                    m.predict(&data.row(r)).to_bits(),
                    "row {r} of {rows} x {nf} differs between 1 and {threads} threads"
                );
            }
        }
    });
}

/// On pre-binned data (every feature takes fewer distinct values
/// than `max_bins`) the histogram trainer sees exactly the split
/// candidates of the exact-greedy reference, so the two models
/// agree on every training row up to summation-order rounding.
#[test]
fn histogram_equals_exact_reference_on_prebinned_data() {
    check::cases(256, |g| {
        let data = arb_prebinned_dataset(g, 12);
        let params = arb_params(g);
        let hist = train_hist(&data, &params, 2);
        let exact = GbtModel::train_reference(&data, &params).expect("reference training");
        for r in 0..data.len() {
            let row = data.row(r);
            let (h, e) = (hist.predict(&row), exact.predict(&row));
            assert!(
                (h - e).abs() <= 1e-6 * (1.0 + e.abs()),
                "row {r}: histogram {h} vs exact {e}"
            );
        }
    });
}

/// Trains at 1 thread and asserts that 2, 3 and 4 threads give the same
/// model, compared through `Debug` so NaN leaf values compare too.
fn assert_thread_invariant(data: &Dataset, params: &GbtParams) -> GbtModel {
    let m1 = train_hist(data, params, 1);
    let want = format!("{m1:?}");
    for threads in 2..=4 {
        let got = format!("{:?}", train_hist(data, params, threads));
        assert!(got == want, "model differs between 1 and {threads} threads");
    }
    m1
}

/// Columns `f` and `f + h` are equal, so every split on `f + h` ties
/// with the same split on `f`, and at 2 threads the two belong to
/// different workers (3 and 4 threads cut elsewhere). The serial scan
/// keeps the lower feature, so every thread count must split only on
/// features below `h`, with bit-identical models.
#[test]
fn tied_splits_across_workers_take_the_lower_feature() {
    check::cases(48, |g| {
        let h = g.usize_in(1..5);
        let rows = g.usize_in(20..600);
        let mut data = Dataset::new((0..2 * h).map(|f| format!("x{f}")).collect());
        for r in 0..rows {
            let half: Vec<f64> = (0..h)
                .map(|_| match g.usize_in(0..2) {
                    0 => g.usize_in(0..8) as f64,
                    _ => g.f64_in(-10.0..10.0),
                })
                .collect();
            let y = half[0] + g.f64_in(-1.0..1.0);
            let row: Vec<f64> = half.iter().chain(&half).copied().collect();
            data.push_row(&row, y, (r % 3) as u32).expect("finite row");
        }
        let model = assert_thread_invariant(&data, &arb_params(g));
        let splits: Vec<u32> = model
            .trees()
            .iter()
            .flat_map(|t| t.nodes().iter().filter(|n| !n.is_leaf).map(|n| n.feature))
            .collect();
        assert!(!splits.is_empty(), "the target depends on x0");
        assert!(
            splits.iter().all(|&f| (f as usize) < h),
            "split on a duplicate column: {splits:?} with h = {h}"
        );
    });
}

/// With `λ = 0` and `min_child_weight = 0`, a bin prefix with no rows
/// has the gain 0/0 = NaN. NaN never compares greater, so the serial
/// scan keeps a node's first candidate if that one is NaN and skips
/// every later NaN; the workers' reduction must choose alike.
#[test]
fn nan_gains_reduce_like_the_serial_scan() {
    check::cases(64, |g| {
        let data = arb_dataset(g);
        let params = GbtParams {
            lambda: 0.0,
            min_child_weight: 0.0,
            ..arb_params(g)
        };
        assert_thread_invariant(&data, &params);
    });
}
