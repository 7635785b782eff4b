//! Histogram-based tree growth with deterministic parallel reduction.
//!
//! The LightGBM-style recipe on top of [`crate::binned`]:
//!
//! * per-node **gradient/count histograms** — one `(Σg, rows)` cell per
//!   feature bin — accumulated by streaming the row-major code matrix;
//! * the **parent − sibling subtraction trick**: per split only the
//!   smaller child's histogram is accumulated from rows; the larger
//!   child's is the elementwise difference from the parent's;
//! * split finding as a prefix scan over bins with the same XGBoost
//!   gain `½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ` the exact
//!   path uses (squared loss ⇒ hessians are row counts, kept as exact
//!   `u32`s).
//!
//! # Parallelism and determinism
//!
//! One fit starts one worker set ([`Workers`]): the calling thread plus
//! `min(threads, features) − 1` scoped threads that live until the last
//! tree is grown. Each level sends every worker the same job (the
//! tree's gradient and the level's row→node map); worker `k` of `t`
//! owns the contiguous features `[k·nf/t, (k+1)·nf/t)` and builds those
//! features' bins of every node histogram. Workers never share a bin, so
//! no thread merges another's partials; the calling thread copies each
//! worker's slice into place.
//!
//! Results are **bit-identical at any thread count**, and identical to
//! a single-threaded fit. Rows are cut into fixed [`BLOCK_ROWS`]-sized
//! blocks; for each block, in block order, a worker accumulates the
//! block's rows into a zeroed partial and adds the partial into its
//! running total. Each bin's gradient sum is therefore the same float
//! reduction whichever worker owns the bin. One thread runs the same
//! code over all features.

use crate::binned::BinnedDataset;
use crate::params::GbtParams;
use crate::tree::{Node, RegressionTree};
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// Rows per accumulation block. Fixed — never derived from the thread
/// count — because block boundaries define the float-merge order.
pub const BLOCK_ROWS: usize = 4096;

/// Sentinel in the per-level row→slot map: row not in any node that is
/// being accumulated this level.
const SKIP: u16 = u16::MAX;

/// One node's histogram: per-bin gradient sums and row counts, flat
/// across all features (`BinnedDataset::offset` indexing).
#[derive(Clone)]
struct Hist {
    g: Vec<f64>,
    n: Vec<u32>,
}

impl Hist {
    fn zeroed(width: usize) -> Hist {
        Hist {
            g: vec![0.0; width],
            n: vec![0; width],
        }
    }

    /// `self ← self − other` elementwise (the subtraction trick).
    fn subtract(&mut self, other: &Hist) {
        for (a, b) in self.g.iter_mut().zip(&other.g) {
            *a -= b;
        }
        for (a, b) in self.n.iter_mut().zip(&other.n) {
            *a -= b;
        }
    }
}

/// A frontier node during level-wise growth.
struct FrontNode {
    id: u32,
    g: f64,
    n: u32,
    /// `Some` once this node's histogram is available.
    hist: Option<Hist>,
    /// `true` → accumulate from rows; `false` → subtract from parent.
    accumulate: bool,
    /// For subtract nodes: the parent's histogram (taken at split time)
    /// and the sibling's frontier index to subtract once it is ready.
    parent_hist: Option<Hist>,
    sibling: usize,
}

/// The best split found for one node.
#[derive(Clone, Copy)]
struct Best {
    gain: f64,
    feature: u32,
    bin: u16,
    g_left: f64,
    n_left: u32,
}

/// One level's accumulation job, sent to every worker: the tree's
/// gradient and the level's row→slot map (`row_slot[r]` selects which
/// of the `n_slots` node histograms row `r` belongs to, [`SKIP`] for
/// none).
#[derive(Clone)]
struct Job {
    grad: Arc<[f64]>,
    row_slot: Arc<[u16]>,
    n_slots: usize,
}

/// The features worker `k` of `t` owns: `[k·nf/t, (k+1)·nf/t)`.
fn feature_range(k: usize, t: usize, nf: usize) -> Range<usize> {
    k * nf / t..(k + 1) * nf / t
}

/// Accumulates `job` over one contiguous feature range. Returns the
/// range's bins of every slot, slot-major (`slot × range_bins + local
/// bin`). `partial` is the caller's reused block buffer.
///
/// Per block, in block order, the rows accumulate into a zeroed
/// partial that is then added into the running total — each bin's sum
/// is the same float reduction for any split of the features, and so
/// for any worker count. Counts are integers and skip the partial.
fn accumulate_features(
    binned: &BinnedDataset,
    job: &Job,
    features: Range<usize>,
    partial: &mut Vec<f64>,
) -> Hist {
    let lo = binned.offset(features.start);
    let range_bins = (binned.offset(features.end) - lo) as usize;
    let local: Vec<u32> = features.clone().map(|f| binned.offset(f) - lo).collect();
    let mut total = Hist::zeroed(job.n_slots * range_bins);
    partial.clear();
    partial.resize(total.g.len(), 0.0);
    let n_rows = binned.len();
    for start in (0..n_rows).step_by(BLOCK_ROWS) {
        partial.fill(0.0);
        for r in start..(start + BLOCK_ROWS).min(n_rows) {
            let slot = job.row_slot[r];
            if slot == SKIP {
                continue;
            }
            let g = job.grad[r];
            let base = slot as usize * range_bins;
            let codes = &binned.row_codes(r)[features.clone()];
            for (&code, &off) in codes.iter().zip(&local) {
                let idx = base + (off + u32::from(code)) as usize;
                partial[idx] += g;
                total.n[idx] += 1;
            }
        }
        for (a, b) in total.g.iter_mut().zip(partial.iter()) {
            *a += b;
        }
    }
    total
}

/// The per-fit worker set (see the module docs). The calling thread is
/// worker 0; workers `1..t` are scoped threads, each fed one [`Job`] per
/// level on its own channel and answering on its own reply channel.
///
/// A worker that panics drops its reply sender, so the calling thread's
/// `recv` fails and it panics in turn; unwinding drops the job senders,
/// which ends the other workers, and the scope re-raises the panic.
struct Workers<'a> {
    binned: &'a BinnedDataset,
    jobs: Vec<Sender<Job>>,
    replies: Vec<Receiver<Hist>>,
    /// Calling thread's reused block buffer.
    partial: Vec<f64>,
}

impl<'a> Workers<'a> {
    /// Starts `min(threads, n_features) − 1` workers inside `scope`.
    fn start<'scope>(
        scope: &'scope Scope<'scope, 'a>,
        binned: &'a BinnedDataset,
        threads: usize,
    ) -> Workers<'a> {
        let nf = binned.num_features();
        let t = threads.min(nf).max(1);
        let (mut jobs, mut replies) = (Vec::new(), Vec::new());
        for k in 1..t {
            let (job_tx, job_rx) = channel::<Job>();
            let (reply_tx, reply_rx) = channel();
            scope.spawn(move || {
                let mut partial = Vec::new();
                while let Ok(job) = job_rx.recv() {
                    let share =
                        accumulate_features(binned, &job, feature_range(k, t, nf), &mut partial);
                    // Release the gradient and row map before replying, so
                    // the next tree's gradient reuses their memory.
                    drop(job);
                    if reply_tx.send(share).is_err() {
                        return;
                    }
                }
            });
            jobs.push(job_tx);
            replies.push(reply_rx);
        }
        Workers {
            binned,
            jobs,
            replies,
            partial: Vec::new(),
        }
    }

    /// Builds the `job.n_slots` node histograms of one level: every
    /// worker accumulates its features, and the calling thread copies
    /// each worker's slice into place.
    fn accumulate(&mut self, job: Job) -> Vec<Hist> {
        for tx in &self.jobs {
            tx.send(job.clone()).expect("histogram worker died");
        }
        let binned = self.binned;
        let t = self.jobs.len() + 1;
        let nf = binned.num_features();
        let total_bins = binned.total_bins();
        let mut hists = vec![Hist::zeroed(total_bins); job.n_slots];
        let own = accumulate_features(binned, &job, feature_range(0, t, nf), &mut self.partial);
        let shares = std::iter::once(own).chain(
            self.replies
                .iter()
                .map(|rx| rx.recv().expect("histogram worker died")),
        );
        for (k, share) in shares.enumerate() {
            let range = feature_range(k, t, nf);
            let lo = binned.offset(range.start) as usize;
            let width = binned.offset(range.end) as usize - lo;
            for (s, hist) in hists.iter_mut().enumerate() {
                let src = s * width..(s + 1) * width;
                hist.g[lo..lo + width].copy_from_slice(&share.g[src.clone()]);
                hist.n[lo..lo + width].copy_from_slice(&share.n[src]);
            }
        }
        hists
    }
}

/// Scans one node's histogram for its best split (bin-boundary prefix
/// scan). Features ascending, boundaries ascending, strict `>` — the
/// same first-wins tie-breaking as the exact-greedy reference.
fn best_split(
    binned: &BinnedDataset,
    hist: &Hist,
    g: f64,
    n: u32,
    params: &GbtParams,
) -> Option<Best> {
    let h = f64::from(n);
    let lambda = params.lambda;
    let parent_score = g * g / (h + lambda);
    let mut best: Option<Best> = None;
    for f in 0..binned.num_features() {
        let nb = binned.cuts().num_bins(f);
        if nb < 2 {
            continue;
        }
        let off = binned.offset(f) as usize;
        let mut gl = 0.0f64;
        let mut nl = 0u32;
        for b in 0..nb - 1 {
            gl += hist.g[off + b];
            nl += hist.n[off + b];
            let hl = f64::from(nl);
            let hr = f64::from(n - nl);
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gr = g - gl;
            let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                - params.gamma;
            if best.is_none_or(|x| gain > x.gain) {
                best = Some(Best {
                    gain,
                    feature: f as u32,
                    bin: b as u16,
                    g_left: gl,
                    n_left: nl,
                });
            }
        }
    }
    best
}

/// Grows one tree on the binned dataset and gradient vector. Returns the
/// tree (with real-valued thresholds, interchangeable with the exact
/// path's trees) and each row's final node id, which the boosting loop
/// uses to update predictions without re-walking trees.
fn grow_tree(
    workers: &mut Workers,
    grad: &Arc<[f64]>,
    params: &GbtParams,
    phases: &mut Phases,
) -> (RegressionTree, Vec<u32>) {
    let binned = workers.binned;
    let n_rows = binned.len();
    let lambda = params.lambda;

    let mut nodes: Vec<Node> = vec![Node::leaf(0.0)];
    let mut node_of_row: Vec<u32> = vec![0; n_rows];

    let mut frontier = vec![FrontNode {
        id: 0,
        g: 0.0, // filled from the root histogram below
        n: n_rows as u32,
        hist: None,
        accumulate: true,
        parent_hist: None,
        sibling: usize::MAX,
    }];

    let mut depth_reached = 0usize;
    for depth in 0..params.max_depth {
        if frontier.is_empty() {
            break;
        }

        // 1. Histograms: accumulate the marked nodes in one pass …
        let mut clock = Instant::now();
        let accum: Vec<usize> = (0..frontier.len())
            .filter(|&i| frontier[i].accumulate)
            .collect();
        if !accum.is_empty() {
            let mut slot_of_id = vec![SKIP; nodes.len()];
            for (slot, &i) in accum.iter().enumerate() {
                slot_of_id[frontier[i].id as usize] = slot as u16;
            }
            let row_slot: Arc<[u16]> = node_of_row
                .iter()
                .map(|&id| slot_of_id[id as usize])
                .collect();
            let hists = workers.accumulate(Job {
                grad: Arc::clone(grad),
                row_slot,
                n_slots: accum.len(),
            });
            for (&i, hist) in accum.iter().zip(hists) {
                frontier[i].hist = Some(hist);
            }
        }
        // … then derive the subtract nodes from parent − sibling.
        for i in 0..frontier.len() {
            if frontier[i].accumulate || frontier[i].hist.is_some() {
                continue;
            }
            let mut parent = frontier[i]
                .parent_hist
                .take()
                .expect("subtract node has parent hist");
            let sib = frontier[i].sibling;
            parent.subtract(
                frontier[sib]
                    .hist
                    .as_ref()
                    .expect("sibling accumulated first"),
            );
            frontier[i].hist = Some(parent);
        }
        if depth == 0 {
            // Root totals come off its own histogram: every row lands in
            // exactly one bin of feature 0.
            let root = &mut frontier[0];
            let hist = root.hist.as_ref().expect("root accumulated");
            let nb0 = binned.cuts().num_bins(0);
            root.g = hist.g[..nb0].iter().sum();
            debug_assert_eq!(hist.n[..nb0].iter().sum::<u32>(), root.n);
        }
        phases.hist_ns += lap(&mut clock);

        // 2. Split or finalise each frontier node.
        let mut next: Vec<FrontNode> = Vec::new();
        // Per-node routing info for this level, looked up via node id.
        let mut split_of_id: Vec<Option<(u32, u16, u32)>> = vec![None; nodes.len()];
        for fnode in &mut frontier {
            let (id, g_node, n_node) = (fnode.id, fnode.g, fnode.n);
            let best = {
                let hist = fnode.hist.as_ref().expect("frontier histogram ready");
                best_split(binned, hist, g_node, n_node, params)
            };
            match best {
                Some(b) if b.gain > 0.0 => {
                    let left_id = nodes.len() as u32;
                    let right_id = left_id + 1;
                    nodes.push(Node::leaf(0.0));
                    nodes.push(Node::leaf(0.0));
                    let node = &mut nodes[id as usize];
                    node.is_leaf = false;
                    node.feature = b.feature;
                    node.threshold = binned.cuts().threshold(b.feature as usize, b.bin as usize);
                    node.left = left_id;
                    node.right = right_id;
                    node.gain = b.gain;
                    split_of_id[id as usize] = Some((b.feature, b.bin, left_id));
                    depth_reached = depth + 1;

                    let (gl, nl) = (b.g_left, b.n_left);
                    let (gr, nr) = (g_node - gl, n_node - nl);
                    // Accumulate the smaller child, subtract the larger;
                    // ties go left so the choice is deterministic.
                    let left_small = nl <= nr;
                    let parent_hist = fnode.hist.take();
                    let (left_parent, right_parent) = if left_small {
                        (None, parent_hist)
                    } else {
                        (parent_hist, None)
                    };
                    let base = next.len();
                    next.push(FrontNode {
                        id: left_id,
                        g: gl,
                        n: nl,
                        hist: None,
                        accumulate: left_small,
                        parent_hist: left_parent,
                        sibling: base + 1,
                    });
                    next.push(FrontNode {
                        id: right_id,
                        g: gr,
                        n: nr,
                        hist: None,
                        accumulate: !left_small,
                        parent_hist: right_parent,
                        sibling: base,
                    });
                }
                _ => {
                    nodes[id as usize].value = -g_node / (f64::from(n_node) + lambda);
                }
            }
        }

        phases.split_ns += lap(&mut clock);

        // 3. Route rows of split nodes to their children by bin code.
        if !next.is_empty() {
            for (r, id) in node_of_row.iter_mut().enumerate() {
                if let Some((f, bin, left_id)) = split_of_id[*id as usize] {
                    let code = binned.row_codes(r)[f as usize];
                    *id = if u16::from(code) <= bin {
                        left_id
                    } else {
                        left_id + 1
                    };
                }
            }
        }
        phases.route_ns += lap(&mut clock);
        frontier = next;
    }

    // Nodes still on the frontier at max depth become leaves.
    for fnode in &frontier {
        nodes[fnode.id as usize].value = -fnode.g / (f64::from(fnode.n) + lambda);
    }

    (
        RegressionTree::from_parts(nodes, depth_reached),
        node_of_row,
    )
}

/// Wall time of each tree-growth phase, summed over a fit's levels
/// (each phase is timed once per level, not per row).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Phases {
    /// Histogram build: row→slot map, accumulation, subtraction.
    pub hist_ns: u64,
    /// Split search over every frontier node's histogram.
    pub split_ns: u64,
    /// Routing rows of split nodes to their children.
    pub route_ns: u64,
}

/// Nanoseconds since `clock`, which restarts.
fn lap(clock: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*clock).as_nanos() as u64;
    *clock = now;
    ns
}

/// Boosts a full ensemble on a binned dataset. Returns
/// `(base_score, trees, phases)`; the caller assembles the
/// [`crate::GbtModel`]. One [`Workers`] set of `threads` serves every
/// level of every tree.
///
/// Prediction updates route rows through the freshly grown tree by
/// their stored node assignment, so no float comparisons are re-run;
/// the resulting ensemble still predicts raw feature rows because the
/// trees carry the real-valued cut thresholds (`x < threshold` agrees
/// with `code <= bin` by construction of [`crate::BinCuts`]).
pub(crate) fn boost(
    binned: &BinnedDataset,
    params: &GbtParams,
    threads: usize,
) -> (f64, Vec<RegressionTree>, Phases) {
    let n = binned.len();
    let targets = binned.targets();
    let base_score = targets.iter().sum::<f64>() / n as f64;

    let mut preds = vec![base_score; n];
    let mut trees = Vec::with_capacity(params.n_estimators);
    let mut phases = Phases::default();
    std::thread::scope(|scope| {
        let mut workers = Workers::start(scope, binned, threads);
        for _ in 0..params.n_estimators {
            let grad: Arc<[f64]> = preds.iter().zip(targets).map(|(p, y)| p - y).collect();
            let (tree, node_of_row) = grow_tree(&mut workers, &grad, params, &mut phases);
            let nodes = tree.nodes();
            for (p, &id) in preds.iter_mut().zip(&node_of_row) {
                *p += params.learning_rate * nodes[id as usize].value;
            }
            trees.push(tree);
        }
    });
    (base_score, trees, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// Grows one tree on a one-worker set.
    fn grow(
        binned: &BinnedDataset,
        grad: &[f64],
        params: &GbtParams,
    ) -> (RegressionTree, Vec<u32>) {
        std::thread::scope(|scope| {
            let mut workers = Workers::start(scope, binned, 1);
            grow_tree(&mut workers, &grad.into(), params, &mut Phases::default())
        })
    }

    fn step_data() -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push_row(&[x], if x < 0.5 { 1.0 } else { 3.0 }, 0)
                .unwrap();
        }
        d
    }

    #[test]
    fn single_split_recovers_step_function() {
        let d = step_data();
        let binned = BinnedDataset::from_dataset(&d, 256).unwrap();
        let params = GbtParams {
            lambda: 0.0,
            max_depth: 1,
            ..GbtParams::default()
        };
        let grad: Vec<f64> = d.targets().iter().map(|y| -y).collect();
        let (tree, node_of_row) = grow(&binned, &grad, &params);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.num_leaves(), 2);
        let root = tree.nodes()[0];
        assert!(!root.is_leaf);
        assert!(
            (root.threshold - 0.495).abs() < 0.006,
            "threshold {}",
            root.threshold
        );
        assert!((tree.predict(&[0.1]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[0.9]) - 3.0).abs() < 1e-9);
        // Row→node assignments agree with walking the tree.
        for (r, &node) in node_of_row.iter().enumerate() {
            let leaf = node as usize;
            assert!(tree.nodes()[leaf].is_leaf);
            assert_eq!(tree.nodes()[leaf].value, tree.predict(&d.row(r)));
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        // > 1 block so the parallel path actually splits work.
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..10_000 {
            let a = ((i * 37) % 101) as f64 / 101.0;
            let b = ((i * 61) % 257) as f64 / 257.0;
            d.push_row(&[a, b], (a * 3.0 + b).sin(), 0).unwrap();
        }
        let binned = BinnedDataset::from_dataset(&d, 64).unwrap();
        let params = GbtParams::default().with_estimators(8);
        let one = boost(&binned, &params, 1);
        let two = boost(&binned, &params, 2);
        let four = boost(&binned, &params, 4);
        assert_eq!(one.0.to_bits(), two.0.to_bits());
        assert_eq!(one.1, two.1);
        assert_eq!(one.1, four.1);
    }

    #[test]
    fn a_dead_worker_fails_the_fit_instead_of_hanging() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..100 {
            let x = i as f64;
            d.push_row(&[x, 100.0 - x], x, 0).unwrap();
        }
        let binned = BinnedDataset::from_dataset(&d, 64).unwrap();
        let grad: Vec<f64> = d.targets().iter().map(|y| -y).collect();
        let params = GbtParams::default();
        let fit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let mut workers = Workers::start(scope, &binned, 2);
                // Worker 1 stays alive; its reply channel is swapped for
                // one whose sender is gone, as if the worker had died.
                workers.replies[0] = channel().1;
                grow_tree(&mut workers, &grad.into(), &params, &mut Phases::default())
            })
        }));
        assert!(fit.is_err());
    }

    #[test]
    fn subtraction_trick_matches_direct_accumulation() {
        // Grow to depth 2 and verify every internal node's children
        // stats are consistent (gl + gr == g etc. exactly for counts).
        let d = step_data();
        let binned = BinnedDataset::from_dataset(&d, 256).unwrap();
        let grad: Vec<f64> = d.targets().iter().map(|y| -y).collect();
        let params = GbtParams {
            lambda: 0.0,
            max_depth: 3,
            ..GbtParams::default()
        };
        let (tree, node_of_row) = grow(&binned, &grad, &params);
        // Leaf populations partition the rows.
        let mut counts = vec![0u32; tree.nodes().len()];
        for &id in &node_of_row {
            counts[id as usize] += 1;
        }
        let leaf_total: u32 = tree
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_leaf)
            .map(|(i, _)| counts[i])
            .sum();
        assert_eq!(leaf_total, d.len() as u32);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let d = step_data();
        let binned = BinnedDataset::from_dataset(&d, 256).unwrap();
        let grad: Vec<f64> = d.targets().iter().map(|y| -y).collect();
        let params = GbtParams {
            gamma: 1e9,
            ..GbtParams::default()
        };
        let (tree, _) = grow(&binned, &grad, &params);
        assert_eq!(tree.num_leaves(), 1);
        // The lone leaf predicts -mean(g) = mean(y) at lambda-damped rate.
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let d = step_data();
        let binned = BinnedDataset::from_dataset(&d, 256).unwrap();
        let grad: Vec<f64> = d.targets().iter().map(|y| -y).collect();
        let params = GbtParams {
            min_child_weight: 60.0,
            ..GbtParams::default()
        };
        let (tree, _) = grow(&binned, &grad, &params);
        assert_eq!(tree.num_leaves(), 1);
    }
}
