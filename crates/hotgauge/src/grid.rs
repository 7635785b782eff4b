//! Fixed-VF sweeps on every core: [`Pipeline::run_fixed_grid`].
//!
//! Training-set extraction, critical temperatures, the Fig. 2 sweep table
//! and the Cochran–Reda baseline all run every workload at every VF point
//! for a fixed number of steps. Each of those runs is independent and
//! deterministic, so the grid runner spreads them over threads and hands
//! their outcomes back on the calling thread in the serial, workload-major
//! order: whatever the caller builds from them is bit-identical at any
//! thread count. The threads are a per-grid [`Crew`]: the calling
//! thread delivers outcomes in order and runs jobs while it waits, the
//! crew's members claim and run jobs.

use crate::pipeline::{FixedRunOutcome, Pipeline};
use common::crew::Crew;
use common::units::{GigaHertz, Volts};
use common::Result;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use workloads::WorkloadSpec;

/// Jobs claimed but not yet visited, per thread: a finished outcome waits
/// for its visit in memory, so this bounds how many do.
const WINDOW_PER_THREAD: usize = 2;

/// The claim counter and the finished outcomes, under one lock.
struct Board {
    /// The next job to claim, in grid order.
    next: usize,
    /// Jobs handed to the visitor so far; job `visited` is the next one.
    visited: usize,
    /// Finished, not yet visited outcomes, by job index.
    done: BTreeMap<usize, Result<FixedRunOutcome>>,
    /// Set when the caller leaves (return, error or panic) or a member
    /// panics: nobody claims another job.
    closed: bool,
}

/// What the calling thread and the crew's members share.
struct Shared<'a> {
    pipeline: &'a Pipeline,
    workloads: &'a [WorkloadSpec],
    points: &'a [(GigaHertz, Volts)],
    steps: usize,
    jobs: usize,
    window: usize,
    board: Mutex<Board>,
    /// Signalled when an outcome is posted, a visit frees a window place,
    /// or the board closes.
    wake: Condvar,
}

impl Shared<'_> {
    /// Locks the board. Nothing panics while holding the lock (runs and
    /// visits happen outside it), so a poisoned lock still holds
    /// consistent state.
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'b>(&self, board: MutexGuard<'b, Board>) -> MutexGuard<'b, Board> {
        self.wake
            .wait(board)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// `true` when job `board.next` exists and lies inside the window.
    fn claimable(&self, board: &Board) -> bool {
        board.next < self.jobs && board.next < board.visited + self.window
    }

    /// Runs job `j`: workload `j / points`, VF point `j % points`.
    fn run(&self, j: usize) -> Result<FixedRunOutcome> {
        let (freq, voltage) = self.points[j % self.points.len()];
        self.pipeline.run_fixed(
            &self.workloads[j / self.points.len()],
            freq,
            voltage,
            self.steps,
        )
    }

    /// Claims job `board.next`, runs it outside the lock and posts its
    /// outcome; returns the board locked again.
    fn run_next<'b>(&'b self, mut board: MutexGuard<'b, Board>) -> MutexGuard<'b, Board> {
        let j = board.next;
        board.next += 1;
        drop(board);
        let outcome = self.run(j);
        let mut board = self.lock();
        board.done.insert(j, outcome);
        self.wake.notify_all();
        board
    }

    /// A crew member: claims jobs in grid order while the window has
    /// room, and posts each outcome for the calling thread to visit.
    fn work(&self) {
        let _close = CloseGuard {
            shared: self,
            on_return: false,
        };
        let mut board = self.lock();
        while !board.closed && board.next < self.jobs {
            board = if self.claimable(&board) {
                self.run_next(board)
            } else {
                self.wait(board)
            };
        }
    }

    /// The calling thread: visits finished outcomes in grid order, and
    /// runs a job itself whenever the next outcome is not ready yet.
    /// Only a panicking member closes the board while the caller is
    /// here; the crew re-raises that panic.
    fn deliver(
        &self,
        visit: &mut impl FnMut(usize, usize, FixedRunOutcome) -> Result<()>,
    ) -> Result<()> {
        let mut board = self.lock();
        while !board.closed && board.visited < self.jobs {
            let j = board.visited;
            if let Some(outcome) = board.done.remove(&j) {
                board.visited += 1;
                drop(board);
                self.wake.notify_all();
                visit(j / self.points.len(), j % self.points.len(), outcome?)?;
                board = self.lock();
            } else if self.claimable(&board) {
                board = self.run_next(board);
            } else {
                board = self.wait(board);
            }
        }
        Ok(())
    }
}

/// Closes the board when its thread unwinds, and also when it returns if
/// `on_return` is set (the calling thread's guard), so no thread waits
/// for a party that has left. A member that runs out of jobs returns
/// without closing: the caller still has outcomes to visit.
struct CloseGuard<'s, 'a> {
    shared: &'s Shared<'a>,
    on_return: bool,
}

impl Drop for CloseGuard<'_, '_> {
    fn drop(&mut self) {
        if self.on_return || std::thread::panicking() {
            self.shared.lock().closed = true;
            self.shared.wake.notify_all();
        }
    }
}

impl Pipeline {
    /// Runs every `workloads` × `points` pair for `steps` steps with
    /// [`Pipeline::run_fixed`], on `threads` threads, and hands each
    /// outcome to `visit(w_idx, p_idx, outcome)` on the calling thread in
    /// workload-major order — the order of a serial
    /// `for w { for p { run_fixed } }` loop.
    ///
    /// The calling thread is one of the `threads` (clamped to
    /// `1..=jobs`); the others are the members of a crew that lives for
    /// this call and claim jobs in grid order from a shared counter. A
    /// job is claimed only while fewer than `2 × threads` jobs are
    /// claimed and not yet visited, so at most that many outcomes wait
    /// out of order. Every run is independent and
    /// deterministic, so what `visit` sees does not depend on `threads`.
    ///
    /// # Errors
    ///
    /// Returns the first error in grid order — a failed run or an error
    /// returned by `visit` — exactly as the serial loop would, after every
    /// thread has stopped. No job is visited after it.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of a run or of `visit`, after every thread has
    /// stopped claiming jobs.
    pub fn run_fixed_grid(
        &self,
        workloads: &[WorkloadSpec],
        points: &[(GigaHertz, Volts)],
        steps: usize,
        threads: usize,
        mut visit: impl FnMut(usize, usize, FixedRunOutcome) -> Result<()>,
    ) -> Result<()> {
        let jobs = workloads.len() * points.len();
        if jobs == 0 {
            return Ok(());
        }
        let threads = threads.clamp(1, jobs);
        let shared = Shared {
            pipeline: self,
            workloads,
            points,
            steps,
            jobs,
            window: WINDOW_PER_THREAD * threads,
            board: Mutex::new(Board {
                next: 0,
                visited: 0,
                done: BTreeMap::new(),
                closed: false,
            }),
            wake: Condvar::new(),
        };
        Crew::new(threads).run(
            || {
                let _close = CloseGuard {
                    shared: &shared,
                    on_return: true,
                };
                shared.deliver(&mut visit)
            },
            &|_| shared.work(),
        )
    }
}
