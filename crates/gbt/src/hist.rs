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
//! [`fit`] sets up one worker set ([`Workers`]: a [`Crew`] and one
//! [`Worker`] per member) before it bins, and every phase of the fit
//! runs on it: the calling thread plus `min(threads, features) − 1`
//! crew threads that live until the last tree is grown. Worker `k` of
//! `t` owns the features `[k·nf/t, (k+1)·nf/t)` and the rows
//! `[k·n/t, (k+1)·n/t)`:
//!
//! | phase | split by | the worker's share |
//! |---|---|---|
//! | bin | feature | each column's sort, cuts and codes ([`crate::binned`]) |
//! | hist | feature | its slice of every frontier node's histogram, from rows or parent − sibling, kept across levels |
//! | split | feature | each node's best split over its features |
//! | route | row | its rows to their child nodes and the next level's row→slot map; after a tree's last level, its rows' predictions and gradients |
//!
//! The calling thread is worker 0; beside its own share it only
//! assembles the code matrix after binning, reduces the workers' best
//! splits and grows the tree. Workers never share a histogram bin or
//! write the same row, so no thread merges another's partials. Each
//! phase is one run of the crew, whose board hands the phase to every
//! member at once; a worker that panics fails the fit with its own
//! panic instead of hanging it.
//!
//! Results are **bit-identical at any thread count**, and identical to
//! a single-threaded fit. Rows are cut into fixed [`BLOCK_ROWS`]-sized
//! blocks; for each block, in block order, a worker accumulates the
//! block's rows into a zeroed partial and adds the partial into its
//! running total. Each bin's gradient sum is therefore the same float
//! reduction whichever worker owns the bin. Split search reduces the
//! workers' bests in worker order, which is feature order, with the
//! serial scan's first-wins rule ([`reduce`]). Binning and routing
//! produce integers, so any split of their work is exact. One thread
//! runs the same code over all features and rows.

use crate::binned::{bin_column, BinBuffers, BinnedDataset};
use crate::dataset::Dataset;
use crate::params::GbtParams;
use crate::tree::{Node, RegressionTree};
use common::crew::Crew;
use std::ops::Range;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Rows per accumulation block. Fixed — never derived from the thread
/// count — because block boundaries define the float-merge order.
pub const BLOCK_ROWS: usize = 4096;

/// Sentinel in the per-level row→slot map: row not in any node that is
/// being accumulated this level.
const SKIP: u16 = u16::MAX;

/// One node's histogram, or one worker's feature slice of it: one
/// `[Σg, rows]` cell per bin, flat across features
/// (`BinnedDataset::offset` indexing, relative to the first feature).
/// Row counts are whole numbers far below 2⁵³, so they are exact in an
/// `f64`, and a cell's two sums update together.
#[derive(Default)]
struct Hist {
    cells: Vec<[f64; 2]>,
}

impl Hist {
    fn zeroed(width: usize) -> Hist {
        Hist {
            cells: vec![[0.0; 2]; width],
        }
    }

    /// `self ← self − other` elementwise (the subtraction trick).
    fn subtract(&mut self, other: &Hist) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a[0] -= b[0];
            a[1] -= b[1];
        }
    }
}

/// Where a frontier node's histogram comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Accumulated from rows. Slots number these nodes in frontier
    /// order; `Growth::slot` maps each row to one of them or [`SKIP`].
    Rows,
    /// The previous level's node `parent` minus this level's node
    /// `sibling`, which is accumulated from rows.
    Subtract { parent: usize, sibling: usize },
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

/// One worker's split search over one node.
#[derive(Clone, Copy, Default)]
struct Scan {
    /// The first candidate of greatest non-NaN gain.
    best: Option<Best>,
    /// The worker's first candidate, when its gain is NaN.
    nan_first: Option<Best>,
}

/// A split node's routing: rows coded `<= bin` on `feature` go to node
/// `left`, the others to `left + 1`.
#[derive(Clone, Copy)]
struct Branch {
    feature: u32,
    bin: u16,
    left: u32,
}

/// One phase of a fit; every worker runs its own share of it.
enum Task {
    /// Bin the worker's features.
    Bin,
    /// Build the worker's slice of each frontier node's histogram.
    Hist(Vec<Source>),
    /// Search each frontier node `(Σg, rows)` over the worker's features.
    Split(Vec<(f64, u32)>),
    /// Route the worker's rows through this level's splits (`branches`,
    /// by node id) and map them to the next level's slots (by node id).
    Route {
        branches: Vec<Option<Branch>>,
        slot_of_id: Vec<u16>,
    },
    /// Route the worker's rows through the tree's last level, add each
    /// leaf's value (`values`, by node id) to their predictions, and
    /// set their gradients and slots for the next tree.
    Finish {
        branches: Vec<Option<Branch>>,
        values: Vec<f64>,
    },
}

/// What tree growth shares: the codes and each row's entries, allocated
/// only once binning has freed its buffers. A row's entries are written
/// only by the worker that owns the row, during `Route` and `Finish`,
/// and read by every worker during `Hist`. `Relaxed` suffices because
/// every phase is one run of the fit's crew, and the crew's board lock
/// orders the runs: a member's writes come before it locks the board to
/// count itself done (release); the calling thread, whose own writes
/// come before its run returns, locks the board to see every member
/// done (acquire) and again to post the next phase (release), which
/// each member locks the board to take (acquire).
struct Growth {
    binned: BinnedDataset,
    /// Each row's prediction (`f64` bits).
    pred: Box<[AtomicU64]>,
    /// Each row's gradient for the tree being grown (`f64` bits).
    grad: Box<[AtomicU64]>,
    /// Each row's node in the tree being grown (after `Finish`, its leaf).
    node: Box<[AtomicU32]>,
    /// Each row's histogram slot at the current level.
    slot: Box<[AtomicU16]>,
}

impl Growth {
    /// Every row at the root, predicted `base_score`.
    fn new(binned: BinnedDataset, base_score: f64) -> Growth {
        let n = binned.len();
        Growth {
            pred: (0..n)
                .map(|_| AtomicU64::new(base_score.to_bits()))
                .collect(),
            grad: binned
                .targets()
                .iter()
                .map(|y| AtomicU64::new((base_score - y).to_bits()))
                .collect(),
            node: (0..n).map(|_| AtomicU32::new(0)).collect(),
            slot: (0..n).map(|_| AtomicU16::new(0)).collect(),
            binned,
        }
    }
}

/// One worker's state; worker 0 lives on the calling thread.
struct Worker {
    features: Range<usize>,
    rows: Range<usize>,
    /// The worker's slice of each frontier node's histogram.
    level: Vec<Hist>,
    /// Reused block buffer.
    partial: Vec<[f64; 2]>,
    /// Binning buffers and the code block, until `Task::Bin`. The
    /// calling thread allocates them, so they return to its heap.
    binning: Option<(BinBuffers, Vec<u8>)>,
    /// From `Task::Bin` until the calling thread takes them: the
    /// worker's features' cuts and their codes, column-major.
    binned: Option<(Vec<Vec<f64>>, Vec<u8>)>,
    /// From `Task::Split` until the calling thread takes them: the
    /// worker's scan of each frontier node.
    scans: Vec<Scan>,
}

impl Worker {
    fn new(data: &Dataset, k: usize, t: usize) -> Worker {
        let (nf, n) = (data.num_features(), data.len());
        let features = k * nf / t..(k + 1) * nf / t;
        Worker {
            binning: Some((BinBuffers::with_rows(n), vec![0; n * features.len()])),
            features,
            rows: k * n / t..(k + 1) * n / t,
            level: Vec::new(),
            partial: Vec::new(),
            binned: None,
            scans: Vec::new(),
        }
    }

    /// Bins the worker's features into its code block, one column after
    /// another.
    fn bin(&mut self, workers: &Workers) {
        let (mut buffers, mut codes) = self.binning.take().expect("a worker bins once");
        let data = workers.data;
        let cuts = self
            .features
            .clone()
            .zip(codes.chunks_exact_mut(data.len()))
            .map(|(f, col)| bin_column(data.column(f), workers.params.max_bins, col, &mut buffers))
            .collect();
        self.binned = Some((cuts, codes));
    }

    /// Builds the next level's histogram slices: the accumulated nodes
    /// first, then each subtract node from its parent, which is moved
    /// out of the previous level.
    fn build_level(&mut self, workers: &Workers, plan: &[Source]) {
        let n_slots = plan.iter().filter(|s| matches!(s, Source::Rows)).count();
        let mut accumulated = accumulate(
            workers.growth(),
            self.features.clone(),
            n_slots,
            &mut self.partial,
        )
        .into_iter();
        let mut parents = std::mem::take(&mut self.level);
        let mut level: Vec<Hist> = plan
            .iter()
            .map(|source| match source {
                Source::Rows => accumulated.next().expect("one histogram per slot"),
                Source::Subtract { .. } => Hist::default(),
            })
            .collect();
        for (i, source) in plan.iter().enumerate() {
            if let Source::Subtract { parent, sibling } = *source {
                let mut hist = std::mem::take(&mut parents[parent]);
                hist.subtract(&level[sibling]);
                level[i] = hist;
            }
        }
        self.level = level;
    }

    /// Searches each frontier node, given its `(Σg, rows)`, over the
    /// worker's features.
    fn scan(&self, workers: &Workers, totals: &[(f64, u32)]) -> Vec<Scan> {
        let binned = &workers.growth().binned;
        totals
            .iter()
            .zip(&self.level)
            .map(|(&(g, n), hist)| {
                best_split(binned, self.features.clone(), hist, g, n, &workers.params)
            })
            .collect()
    }

    /// Runs the worker's share of `task`.
    fn handle(&mut self, workers: &Workers, task: &Task) {
        match task {
            Task::Bin => self.bin(workers),
            Task::Hist(plan) => self.build_level(workers, plan),
            Task::Split(totals) => self.scans = self.scan(workers, totals),
            Task::Route {
                branches,
                slot_of_id,
            } => {
                let growth = workers.growth();
                route(growth, self.rows.clone(), branches, |r, id| {
                    growth.slot[r].store(slot_of_id[id as usize], Relaxed);
                });
            }
            Task::Finish { branches, values } => {
                let growth = workers.growth();
                let (targets, lr) = (growth.binned.targets(), workers.params.learning_rate);
                route(growth, self.rows.clone(), branches, |r, id| {
                    let p = f64::from_bits(growth.pred[r].load(Relaxed)) + lr * values[id as usize];
                    growth.pred[r].store(p.to_bits(), Relaxed);
                    growth.grad[r].store((p - targets[r]).to_bits(), Relaxed);
                    growth.slot[r].store(0, Relaxed);
                });
            }
        }
    }
}

/// A fit's worker set: what its workers share, its crew, and member
/// `k`'s [`Worker`] in slot `k`.
struct Workers<'d> {
    data: &'d Dataset,
    params: GbtParams,
    /// Set by the calling thread once the workers have binned.
    growth: OnceLock<Growth>,
    crew: Crew,
    slots: Vec<Mutex<Worker>>,
}

impl<'d> Workers<'d> {
    /// The worker set of `threads` for a fit of `data` (see the module
    /// docs); its threads start on its first phase.
    fn new(data: &'d Dataset, params: GbtParams, threads: usize) -> Workers<'d> {
        let t = threads.min(data.num_features()).max(1);
        Workers {
            data,
            params,
            growth: OnceLock::new(),
            crew: Crew::new(t),
            slots: (0..t)
                .map(|k| Mutex::new(Worker::new(data, k, t)))
                .collect(),
        }
    }

    fn growth(&self) -> &Growth {
        self.growth.get().expect("binned before growth")
    }

    /// Member `k`'s worker. Only member `k` locks it during a phase, and
    /// only the calling thread between phases. A worker that panicked
    /// is never read again: the phase re-raises the panic.
    fn slot(&self, k: usize) -> MutexGuard<'_, Worker> {
        self.slots[k].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `task` on every member.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a member that panics.
    fn run(&self, task: Task) {
        let handle = |k: usize| self.slot(k).handle(self, &task);
        self.crew.run(|| handle(0), &handle);
    }
}

/// Moves each of `rows` to its node under `branches` (this level's
/// splits, by node id), records it in `Growth::node` and passes the row
/// and its node to `visit`. A table of one entry is the root's: every
/// row starts a tree there, whatever leaf the previous tree left in
/// `Growth::node`.
fn route(
    growth: &Growth,
    rows: Range<usize>,
    branches: &[Option<Branch>],
    mut visit: impl FnMut(usize, u32),
) {
    let from_root = branches.len() == 1;
    for r in rows {
        let id = if from_root {
            0
        } else {
            growth.node[r].load(Relaxed)
        };
        let id = match branches[id as usize] {
            Some(b) if u16::from(growth.binned.row_codes(r)[b.feature as usize]) <= b.bin => b.left,
            Some(b) => b.left + 1,
            None => id,
        };
        growth.node[r].store(id, Relaxed);
        visit(r, id);
    }
}

/// Accumulates the rows of `n_slots` nodes over one contiguous feature
/// range. Returns each slot's histogram slice. `partial` is the
/// caller's reused block buffer.
///
/// Per block, in block order, the rows accumulate into a zeroed
/// partial that is then added into the running total — each bin's sum
/// is the same float reduction for any split of the features, and so
/// for any worker count. Counts are whole numbers, so their sums are
/// exact in any order.
fn accumulate(
    growth: &Growth,
    features: Range<usize>,
    n_slots: usize,
    partial: &mut Vec<[f64; 2]>,
) -> Vec<Hist> {
    let binned = &growth.binned;
    let lo = binned.offset(features.start);
    let width = (binned.offset(features.end) - lo) as usize;
    let local: Vec<u32> = features.clone().map(|f| binned.offset(f) - lo).collect();
    let mut totals: Vec<Hist> = (0..n_slots).map(|_| Hist::zeroed(width)).collect();
    partial.clear();
    partial.resize(n_slots * width, [0.0; 2]);
    let n_rows = binned.len();
    for start in (0..n_rows).step_by(BLOCK_ROWS) {
        partial.fill([0.0; 2]);
        for r in start..(start + BLOCK_ROWS).min(n_rows) {
            let slot = growth.slot[r].load(Relaxed);
            if slot == SKIP {
                continue;
            }
            let g = f64::from_bits(growth.grad[r].load(Relaxed));
            let slot = slot as usize;
            let part = &mut partial[slot * width..(slot + 1) * width];
            let codes = &binned.row_codes(r)[features.clone()];
            for (&code, &off) in codes.iter().zip(&local) {
                let cell = &mut part[(off + u32::from(code)) as usize];
                cell[0] += g;
                cell[1] += 1.0;
            }
        }
        for (total, part) in totals.iter_mut().zip(partial.chunks_exact(width)) {
            for (a, b) in total.cells.iter_mut().zip(part) {
                a[0] += b[0];
                a[1] += b[1];
            }
        }
    }
    totals
}

/// Scans one node's histogram slice for its best split over `features`
/// (bin-boundary prefix scan): features ascending, boundaries
/// ascending, strict `>` — the same first-wins tie-breaking as the
/// exact-greedy reference.
fn best_split(
    binned: &BinnedDataset,
    features: Range<usize>,
    hist: &Hist,
    g: f64,
    n: u32,
    params: &GbtParams,
) -> Scan {
    let h = f64::from(n);
    let lambda = params.lambda;
    let parent_score = g * g / (h + lambda);
    let lo = binned.offset(features.start);
    let mut scan = Scan::default();
    for f in features {
        let nb = binned.cuts().num_bins(f);
        if nb < 2 {
            continue;
        }
        let off = (binned.offset(f) - lo) as usize;
        let (mut gl, mut hl) = (0.0f64, 0.0f64);
        for b in 0..nb - 1 {
            let [g_bin, n_bin] = hist.cells[off + b];
            gl += g_bin;
            hl += n_bin;
            let hr = h - hl;
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gr = g - gl;
            let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                - params.gamma;
            // Reached only by an improvement or while nothing is best:
            // a NaN gain then is this worker's first candidate, unless
            // an earlier one was NaN too.
            if scan.best.is_none_or(|x| gain > x.gain) {
                let candidate = Some(Best {
                    gain,
                    feature: f as u32,
                    bin: b as u16,
                    g_left: gl,
                    n_left: hl as u32,
                });
                if !gain.is_nan() {
                    scan.best = candidate;
                } else if scan.nan_first.is_none() {
                    scan.nan_first = candidate;
                }
            }
        }
    }
    scan
}

/// Reduces one node's scans, in worker order, to the serial scan's
/// choice: a candidate replaces the best so far only with a strictly
/// greater gain. A NaN gain never compares greater, so a node whose
/// very first candidate has a NaN gain keeps it, and a NaN gain after
/// the first candidate is never chosen.
fn reduce<'a>(scans: impl Iterator<Item = &'a Scan>) -> Option<Best> {
    let mut best: Option<Best> = None;
    for scan in scans {
        best = match best {
            None => scan.nan_first.or(scan.best),
            Some(b) => match scan.best {
                Some(c) if c.gain > b.gain => Some(c),
                _ => Some(b),
            },
        };
    }
    best
}

/// Grows one tree from the gradients in `Growth::grad`. Returns the tree
/// (with real-valued thresholds, interchangeable with the exact path's
/// trees); its `Finish` has added the tree to every row's prediction
/// and set the next tree's gradients.
fn grow_tree(workers: &Workers, phases: &mut Phases) -> RegressionTree {
    let binned = &workers.growth().binned;
    let params = &workers.params;
    let leaf = |g: f64, n: u32| -g / (f64::from(n) + params.lambda);

    let mut nodes: Vec<Node> = vec![Node::leaf(0.0)];
    // Frontier nodes as (id, Σg, rows); the root's Σg comes off its
    // histogram below.
    let mut frontier = vec![(0u32, 0.0, binned.len() as u32)];
    let mut plan = vec![Source::Rows];
    let mut depth_reached = 0usize;
    let mut clock = Instant::now();
    for depth in 0..params.max_depth {
        // 1. Histograms: accumulate the `Rows` nodes, subtract the rest.
        workers.run(Task::Hist(plan));
        if depth == 0 {
            // Every row lands in exactly one bin of feature 0, which
            // worker 0 — this thread — owns.
            let own = workers.slot(0);
            let root = &own.level[0];
            let nb0 = binned.cuts().num_bins(0);
            frontier[0].1 = root.cells[..nb0].iter().map(|cell| cell[0]).sum();
            debug_assert_eq!(
                root.cells[..nb0].iter().map(|cell| cell[1]).sum::<f64>(),
                f64::from(frontier[0].2)
            );
        }
        phases.hist_ns += lap(&mut clock);

        // 2. Split or finalise each frontier node.
        workers.run(Task::Split(
            frontier.iter().map(|&(_, g, n)| (g, n)).collect(),
        ));
        let scans: Vec<Vec<Scan>> = (0..workers.slots.len())
            .map(|k| std::mem::take(&mut workers.slot(k).scans))
            .collect();
        let mut next = Vec::new();
        let mut next_plan = Vec::new();
        let mut branches = vec![None; nodes.len()];
        for (i, &(id, g_node, n_node)) in frontier.iter().enumerate() {
            match reduce(scans.iter().map(|worker| &worker[i])) {
                Some(b) if b.gain > 0.0 => {
                    let left = nodes.len() as u32;
                    nodes.push(Node::leaf(0.0));
                    nodes.push(Node::leaf(0.0));
                    let node = &mut nodes[id as usize];
                    node.is_leaf = false;
                    node.feature = b.feature;
                    node.threshold = binned.cuts().threshold(b.feature as usize, b.bin as usize);
                    node.left = left;
                    node.right = left + 1;
                    node.gain = b.gain;
                    branches[id as usize] = Some(Branch {
                        feature: b.feature,
                        bin: b.bin,
                        left,
                    });
                    depth_reached = depth + 1;

                    let (gl, nl) = (b.g_left, b.n_left);
                    let (gr, nr) = (g_node - gl, n_node - nl);
                    next.push((left, gl, nl));
                    next.push((left + 1, gr, nr));
                    // Accumulate the smaller child, subtract the larger;
                    // ties go left so the choice is deterministic.
                    let base = next_plan.len();
                    if nl <= nr {
                        next_plan.push(Source::Rows);
                        next_plan.push(Source::Subtract {
                            parent: i,
                            sibling: base,
                        });
                    } else {
                        next_plan.push(Source::Subtract {
                            parent: i,
                            sibling: base + 1,
                        });
                        next_plan.push(Source::Rows);
                    }
                }
                _ => nodes[id as usize].value = leaf(g_node, n_node),
            }
        }
        phases.split_ns += lap(&mut clock);

        // 3. Route rows of split nodes to their children by bin code.
        if next.is_empty() || depth + 1 == params.max_depth {
            // Nodes still on the frontier at max depth become leaves.
            for &(id, g, n) in &next {
                nodes[id as usize].value = leaf(g, n);
            }
            let values = nodes.iter().map(|node| node.value).collect();
            workers.run(Task::Finish { branches, values });
            phases.route_ns += lap(&mut clock);
            break;
        }
        let mut slot_of_id = vec![SKIP; nodes.len()];
        let accumulated = next.iter().zip(&next_plan);
        let rows = accumulated.filter(|(_, source)| matches!(source, Source::Rows));
        for (slot, (&(id, _, _), _)) in rows.enumerate() {
            slot_of_id[id as usize] = slot as u16;
        }
        workers.run(Task::Route {
            branches,
            slot_of_id,
        });
        phases.route_ns += lap(&mut clock);
        frontier = next;
        plan = next_plan;
    }
    RegressionTree::from_parts(nodes, depth_reached)
}

/// Wall time of each phase of a fit; the tree phases are summed over
/// its levels (each timed once per level, not per row).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Phases {
    /// Starting the workers, binning on them and assembling the codes.
    pub bin_ns: u64,
    /// Growing every tree: the three phases below and the calling
    /// thread's tree bookkeeping.
    pub grow_ns: u64,
    /// Histogram build: accumulation and subtraction.
    pub hist_ns: u64,
    /// Split search over every frontier node's histogram.
    pub split_ns: u64,
    /// Routing rows of split nodes to their children, and after each
    /// tree's last level the prediction and gradient updates.
    pub route_ns: u64,
}

/// Nanoseconds since `clock`, which restarts.
fn lap(clock: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*clock).as_nanos() as u64;
    *clock = now;
    ns
}

/// A fitted ensemble's parts; the caller assembles the
/// [`crate::GbtModel`].
pub(crate) struct Fit {
    pub base_score: f64,
    pub trees: Vec<RegressionTree>,
    pub total_bins: usize,
    pub phases: Phases,
}

/// Bins every feature on `workers`.
fn bin_on(workers: &Workers) -> BinnedDataset {
    workers.run(Task::Bin);
    let (mut cuts, mut blocks) = (Vec::new(), Vec::new());
    for k in 0..workers.slots.len() {
        let (worker_cuts, block) = workers.slot(k).binned.take().expect("every worker bins");
        cuts.extend(worker_cuts);
        blocks.push(block);
    }
    BinnedDataset::from_blocks(
        cuts,
        blocks,
        workers.params.max_bins,
        workers.data.targets(),
    )
}

/// Quantises `data` on a worker set of `threads`; `max_bins` must be in
/// `2..=256` and `data` non-empty (see [`BinnedDataset::build`]).
pub(crate) fn bin(data: &Dataset, max_bins: usize, threads: usize) -> BinnedDataset {
    let params = GbtParams {
        max_bins,
        ..GbtParams::default()
    };
    bin_on(&Workers::new(data, params, threads))
}

/// Boosts a full ensemble on `data` with one worker set of `threads`:
/// it bins the dataset, then serves every level of every tree.
/// `params` must be valid and `data` non-empty.
///
/// Prediction updates route rows through the freshly grown tree by
/// their bin codes, so no float comparisons are re-run; the resulting
/// ensemble still predicts raw feature rows because the trees carry the
/// real-valued cut thresholds (`x < threshold` agrees with `code <= bin`
/// by construction of [`crate::BinCuts`]).
pub(crate) fn fit(data: &Dataset, params: &GbtParams, threads: usize) -> Fit {
    let mut clock = Instant::now();
    let base_score = data.targets().iter().sum::<f64>() / data.len() as f64;
    let mut phases = Phases::default();
    let workers = Workers::new(data, *params, threads);
    let growth = Growth::new(bin_on(&workers), base_score);
    assert!(workers.growth.set(growth).is_ok(), "a fit bins once");
    phases.bin_ns = lap(&mut clock);
    let trees = (0..params.n_estimators)
        .map(|_| grow_tree(&workers, &mut phases))
        .collect();
    phases.grow_ns = lap(&mut clock);
    Fit {
        base_score,
        trees,
        total_bins: workers.growth().binned.total_bins(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Grows one tree on a one-worker set from gradients `−y`. Returns
    /// the tree and each row's leaf.
    fn grow(data: &Dataset, params: &GbtParams) -> (RegressionTree, Vec<u32>) {
        let workers = Workers::new(data, *params, 1);
        let growth = Growth::new(bin_on(&workers), 0.0);
        assert!(workers.growth.set(growth).is_ok());
        let tree = grow_tree(&workers, &mut Phases::default());
        let node = &workers.growth().node;
        let leaves = node.iter().map(|id| id.load(Relaxed)).collect();
        (tree, leaves)
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

    /// Two features, one per worker of a two-worker set.
    fn two_feature_data() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..300 {
            let x = i as f64;
            d.push_row(&[x % 10.0, 300.0 - x], x, 0).unwrap();
        }
        d
    }

    #[test]
    fn single_split_recovers_step_function() {
        let d = step_data();
        let params = GbtParams {
            lambda: 0.0,
            max_depth: 1,
            ..GbtParams::default()
        };
        let (tree, node_of_row) = grow(&d, &params);
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
        let params = GbtParams {
            max_bins: 64,
            ..GbtParams::default().with_estimators(8)
        };
        let one = fit(&d, &params, 1);
        for threads in [2, 4] {
            let other = fit(&d, &params, threads);
            assert_eq!(one.base_score.to_bits(), other.base_score.to_bits());
            assert_eq!(one.trees, other.trees, "{threads} threads");
        }
    }

    #[test]
    fn a_dead_worker_fails_the_fit_instead_of_hanging() {
        // Feature b is worker 1's; a code past its last bin makes worker
        // 1 panic while it accumulates the root, and worker 0 (this
        // thread) must see that panic instead of waiting for worker 1.
        let d = two_feature_data();
        let workers = Workers::new(&d, GbtParams::default(), 2);
        let n = d.len();
        let mut codes = vec![0; 2 * n];
        let cuts = (0..2)
            .map(|f| {
                let col = &mut codes[f * n..(f + 1) * n];
                bin_column(d.column(f), 16, col, &mut BinBuffers::default())
            })
            .collect();
        codes[n + 7] = u8::MAX;
        let fit = catch_unwind(AssertUnwindSafe(|| {
            let binned = BinnedDataset::from_blocks(cuts, vec![codes], 16, d.targets());
            assert!(workers.growth.set(Growth::new(binned, 0.0)).is_ok());
            grow_tree(&workers, &mut Phases::default())
        }));
        assert!(fit.is_err());
    }

    #[test]
    fn a_worker_that_dies_while_binning_fails_the_fit() {
        // Worker 1 bins feature b, whose 300 distinct values need more
        // cuts than a u8 code can count; worker 0 bins feature a fine.
        let d = two_feature_data();
        let params = GbtParams {
            max_bins: 300,
            ..GbtParams::default()
        };
        let fit = catch_unwind(AssertUnwindSafe(|| fit(&d, &params, 2)));
        assert!(fit.is_err());
    }

    #[test]
    fn subtraction_trick_matches_direct_accumulation() {
        // Grow to depth 3: every subtracted histogram's counts must
        // match the rows routed to its node, and leaf populations must
        // partition the rows.
        let d = step_data();
        let params = GbtParams {
            lambda: 0.0,
            max_depth: 3,
            ..GbtParams::default()
        };
        let (tree, node_of_row) = grow(&d, &params);
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
        let params = GbtParams {
            gamma: 1e9,
            ..GbtParams::default()
        };
        let (tree, _) = grow(&d, &params);
        assert_eq!(tree.num_leaves(), 1);
        // The lone leaf predicts -mean(g) = mean(y) at lambda-damped rate.
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let d = step_data();
        let params = GbtParams {
            min_child_weight: 60.0,
            ..GbtParams::default()
        };
        let (tree, _) = grow(&d, &params);
        assert_eq!(tree.num_leaves(), 1);
    }

    fn best(gain: f64, feature: u32) -> Best {
        Best {
            gain,
            feature,
            bin: 0,
            g_left: 0.0,
            n_left: 0,
        }
    }

    #[test]
    fn reduce_keeps_the_serial_scans_first_wins_rule() {
        let scan = |best: Option<Best>, nan_first: Option<Best>| Scan { best, nan_first };
        let pick = |scans: &[Scan]| reduce(scans.iter()).map(|b| b.feature);
        // Equal gains: the earlier worker's (lower) feature wins.
        let tie = [
            scan(Some(best(2.0, 1)), None),
            scan(Some(best(2.0, 5)), None),
        ];
        assert_eq!(pick(&tie), Some(1));
        // A later worker wins only with a strictly greater gain.
        let later = [
            scan(Some(best(2.0, 1)), None),
            scan(Some(best(3.0, 5)), None),
        ];
        assert_eq!(pick(&later), Some(5));
        // A worker with no candidate is skipped.
        let empty = [scan(None, None), scan(Some(best(1.0, 6)), None)];
        assert_eq!(pick(&empty), Some(6));
        // A NaN first candidate sticks, as in the serial scan ...
        let stuck = [
            scan(Some(best(1.0, 2)), Some(best(f64::NAN, 0))),
            scan(Some(best(9.0, 5)), None),
        ];
        assert_eq!(pick(&stuck), Some(0));
        // ... but a later worker's NaN first candidate does not.
        let skipped = [
            scan(Some(best(1.0, 0)), None),
            scan(Some(best(3.0, 6)), Some(best(f64::NAN, 5))),
        ];
        assert_eq!(pick(&skipped), Some(6));
    }
}
