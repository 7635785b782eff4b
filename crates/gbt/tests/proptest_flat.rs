//! Equivalence property tests pinning the flat SoA inference layout
//! ([`FlatModel`]) bit-identical to the recursive tree walk
//! ([`GbtModel::predict`]).

use boreas_gbt::{Dataset, GbtModel, GbtParams};
use common::check::{self, Gen};
use std::ops::RangeBounds;

fn dataset_from(rows: &[[f64; 3]], coef: (f64, f64)) -> Dataset {
    let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
    for (i, &[a, b, c]) in rows.iter().enumerate() {
        let y = coef.0 * a + coef.1 * (b - 50.0).abs() + 0.1 * c;
        d.push_row(&[a, b, c], y, (i % 4) as u32)
            .expect("valid row");
    }
    d
}

/// `len` rows of three features, each drawn from `lo..hi`.
fn triples(g: &mut Gen, len: impl RangeBounds<usize>, lo: f64, hi: f64) -> Vec<[f64; 3]> {
    g.vec(len, |g| [(); 3].map(|_| g.f64_in(lo..hi)))
}

#[test]
fn flat_predictions_are_bit_identical() {
    check::cases(24, |g| {
        let rows = triples(g, 30..100, 0.0, 100.0);
        let queries = triples(g, 1..30, -10.0, 110.0);
        let (c0, c1) = (g.f64_in(-2.0..2.0), g.f64_in(-2.0..2.0));
        let trees = g.usize_in(1..40);
        let data = dataset_from(&rows, (c0, c1));
        let model =
            GbtModel::train(&data, &GbtParams::default().with_estimators(trees)).expect("train");
        let flat = model.flatten();
        for row in &queries {
            assert_eq!(model.predict(row).to_bits(), flat.predict(row).to_bits());
        }
    });
}

/// The flat batch agrees bit for bit with the tree-walk batch (the
/// oracle) and with flat single-row predictions, for batch sizes
/// from empty to 64 rows.
#[test]
fn flat_batch_matches_single_predictions() {
    check::cases(24, |g| {
        let rows = triples(g, 30..80, 0.0, 100.0);
        let queries = triples(g, 0..=64, -10.0, 110.0);
        let data = dataset_from(&rows, (1.2, 0.7));
        let model =
            GbtModel::train(&data, &GbtParams::default().with_estimators(15)).expect("train");
        let flat = model.flatten();
        let query_rows: Vec<Vec<f64>> = queries.iter().map(|row| row.to_vec()).collect();
        let batch = flat.predict_batch(&query_rows);
        let oracle = model.predict_batch(&query_rows);
        assert_eq!(batch.len(), query_rows.len());
        assert_eq!(oracle.len(), query_rows.len());
        for ((got, want), row) in batch.iter().zip(&oracle).zip(&query_rows) {
            assert_eq!(got.to_bits(), want.to_bits());
            assert_eq!(got.to_bits(), flat.predict(row).to_bits());
        }
    });
}

/// Truncated-ensemble prediction (used by fig9's size sweep) must
/// agree between layouts as well.
#[test]
fn flat_predict_with_matches_model() {
    check::cases(24, |g| {
        let rows = triples(g, 30..60, 0.0, 100.0);
        let k = g.usize_in(1..20);
        let data = dataset_from(&rows, (0.8, 1.3));
        let model =
            GbtModel::train(&data, &GbtParams::default().with_estimators(20)).expect("train");
        let flat = model.flatten();
        let probe = [13.0, 77.0, 42.0];
        assert_eq!(
            model.predict_with(&probe, k).to_bits(),
            flat.predict_with(&probe, k).to_bits()
        );
    });
}

// ------------------------------------------------------- lockstep walk

use boreas_gbt::flat::LANES;
use boreas_gbt::tree::Node;

/// Features the hand-built ensembles split on.
const FEATURES: usize = 5;

/// A leaf value or base score: mostly random, sometimes a signed zero,
/// so the accumulator's start value shows in the sum's sign.
fn weight(g: &mut Gen) -> f64 {
    match g.usize_in(0..8) {
        0 => -0.0,
        1 => 0.0,
        _ => g.f64_in(-2.0..2.0),
    }
}

/// Appends a subtree of depth at most `depth` (exactly `depth` when
/// `full`) to `nodes`; returns its root index.
fn grow(g: &mut Gen, nodes: &mut Vec<Node>, depth: usize, full: bool, zeros: bool) -> u32 {
    let at = nodes.len();
    let value = if zeros {
        0.0 * weight(g).signum()
    } else {
        weight(g)
    };
    nodes.push(Node {
        feature: 0,
        threshold: 0.0,
        left: 0,
        right: 0,
        value,
        is_leaf: true,
        gain: 0.0,
    });
    if depth > 0 && (full || g.usize_in(0..3) > 0) {
        let feature = g.usize_in(0..FEATURES) as u32;
        let threshold = g.f64_in(0.0..100.0);
        let left = grow(g, nodes, depth - 1, full, zeros);
        let right = grow(g, nodes, depth - 1, full, zeros);
        nodes[at] = Node {
            feature,
            threshold,
            left,
            right,
            value: 0.0,
            is_leaf: false,
            gain: 1.0,
        };
    }
    at as u32
}

/// Steps from `nodes[i]` to its deepest leaf.
fn depth_of(nodes: &[Node], i: u32) -> usize {
    let n = &nodes[i as usize];
    if n.is_leaf {
        0
    } else {
        1 + depth_of(nodes, n.left).max(depth_of(nodes, n.right))
    }
}

/// An ensemble of `trees` hand-built trees of mixed depth: single
/// leaves, stumps, random shapes and full trees of depth `max_depth`
/// side by side. With `zeros`, every leaf and the base score are signed
/// zeros.
fn mixed_ensemble(g: &mut Gen, trees: usize, max_depth: usize, zeros: bool) -> GbtModel {
    let tree_json: Vec<String> = (0..trees)
        .map(|_| {
            let (depth, full) = match g.usize_in(0..4) {
                0 => (0, true),
                1 => (1, true),
                2 => (max_depth, true),
                _ => (g.usize_in(0..=max_depth), false),
            };
            let mut nodes = Vec::new();
            grow(g, &mut nodes, depth, full, zeros);
            format!(
                "{{\"nodes\":{},\"depth\":{}}}",
                common::json::to_string(&nodes).expect("finite nodes"),
                depth_of(&nodes, 0)
            )
        })
        .collect();
    let base = if zeros {
        0.0 * weight(g).signum()
    } else {
        weight(g)
    };
    let params = GbtParams::default()
        .with_estimators(trees)
        .with_depth(max_depth)
        .with_learning_rate(g.f64_in(0.01..1.0));
    let names: Vec<String> = (0..FEATURES).map(|f| format!("f{f}")).collect();
    let text = format!(
        "{{\"base_score\":{},\"trees\":[{}],\"params\":{},\"feature_names\":{}}}",
        common::json::to_string(&base).expect("finite base"),
        tree_json.join(","),
        common::json::to_string(&params).expect("params"),
        common::json::to_string(&names).expect("names"),
    );
    GbtModel::from_json(&text).expect("a well-formed ensemble")
}

/// A query row; now and then a NaN, which both walks send right.
fn query(g: &mut Gen) -> Vec<f64> {
    (0..FEATURES)
        .map(|_| {
            if g.usize_in(0..16) == 0 {
                f64::NAN
            } else {
                g.f64_in(-10.0..110.0)
            }
        })
        .collect()
}

/// Tree counts around the lockstep width, mixed depths 1–6: every
/// prediction entry is bit-identical to the tree walk, and so is every
/// truncated prediction across the chunk boundaries.
#[test]
fn lockstep_walk_is_bit_identical_on_mixed_depth_ensembles() {
    check::cases(48, |g| {
        let trees = g.pick(&[1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1]);
        let max_depth = g.usize_in(1..=6);
        let zeros = g.usize_in(0..6) == 0;
        let model = mixed_ensemble(g, trees, max_depth, zeros);
        let flat = model.flatten();
        assert_eq!(flat.num_trees(), trees);
        let rows: Vec<Vec<f64>> = g.vec(0..=7, query);
        for row in &rows {
            assert_eq!(model.predict(row).to_bits(), flat.predict(row).to_bits());
            for k in 0..=trees + 1 {
                assert_eq!(
                    model.predict_with(row, k).to_bits(),
                    flat.predict_with(row, k).to_bits(),
                    "k = {k} of {trees} trees"
                );
            }
        }
        let oracle = model.predict_batch(&rows);
        let batch = flat.predict_batch(&rows);
        assert_eq!(batch.len(), rows.len());
        for (got, want) in batch.iter().zip(&oracle) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        for pair in rows.chunks_exact(2) {
            let (a, b) = flat.predict_pair(&pair[0], &pair[1]);
            let want = model.predict_batch(pair);
            assert_eq!(
                [a.to_bits(), b.to_bits()],
                [want[0].to_bits(), want[1].to_bits()]
            );
        }
    });
}
