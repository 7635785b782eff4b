//! Persistent execution pool with per-job panic isolation.
//!
//! A [`Pool`] of `t` threads is a job queue over one [`Crew`]: the
//! calling thread plus `t − 1` worker threads that the crew starts on
//! the pool's first multi-threaded batch and keeps parked between
//! batches, until the pool drops and joins them. Every thread of a
//! batch, the caller's included, runs the same share: claim jobs until
//! the queue is empty.
//!
//! Jobs are tagged with their index in the scenario's deterministic
//! expansion order before being scattered across threads, so the caller
//! can reassemble results positionally no matter which thread ran what.
//! Workers claim jobs one at a time from one `Mutex`-guarded iterator:
//! a job is a whole simulated run (milliseconds), so the lock is taken
//! a few hundred times per sweep and never contended for long.
//! Per-thread state (built controllers, scratch buffers) is created by
//! the `init` closure when a thread claims its first job of a batch and
//! reused across every job that thread executes in the batch.
//!
//! Every job body runs under `catch_unwind`: a panicking job produces a
//! per-job [`JobOutcome::Panicked`] instead of unwinding through the
//! batch and losing it. A thread whose job panicked discards its state
//! and rebuilds it with `init` before the next job, since the panic may
//! have left it half-mutated.

use common::crew::Crew;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

/// What became of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<R> {
    /// The job ran to completion.
    Completed(R),
    /// The job panicked; the worker survived and rebuilt its state.
    Panicked {
        /// Downcast panic payload (`&str`/`String`), or a placeholder.
        message: String,
    },
}

impl<R> JobOutcome<R> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<R> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            JobOutcome::Panicked { .. } => None,
        }
    }
}

/// The outcomes of one [`Pool::run`] batch.
#[derive(Debug)]
pub struct Batch<R> {
    /// `(index, outcome)`, one per input job, in unspecified order;
    /// callers place results by index.
    pub outcomes: Vec<(usize, JobOutcome<R>)>,
    /// Worker threads this batch started: `threads − 1` on the pool's
    /// first multi-threaded batch, 0 on every other.
    pub workers_started: usize,
}

/// A calling thread plus worker threads that live as long as the pool
/// (see the [module docs](self)).
pub struct Pool {
    crew: Crew,
    /// Set by the first batch that runs on the crew: the one whose run
    /// starts the crew's threads, if it has any.
    started: AtomicBool,
}

impl Pool {
    /// A pool of `threads` threads (clamped to ≥ 1), the caller's
    /// included. No thread starts until a batch needs one.
    pub fn new(threads: usize) -> Pool {
        Pool {
            crew: Crew::new(threads),
            started: AtomicBool::new(false),
        }
    }

    /// Threads a batch runs on, the caller's included.
    pub fn threads(&self) -> usize {
        self.crew.threads()
    }

    /// Runs `jobs` and returns one outcome per job; panics are contained
    /// per job.
    ///
    /// With one thread (or at most one job) everything runs on the
    /// calling thread, in job order, which is the reference order for
    /// determinism tests.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `init` (outside any job's `catch_unwind`),
    /// after every thread has left the batch.
    pub fn run<J, R, S>(
        &self,
        jobs: Vec<(usize, J)>,
        init: impl Fn() -> S + Sync,
        exec: impl Fn(&mut S, J) -> R + Sync,
    ) -> Batch<R>
    where
        J: Send,
        R: Send,
    {
        let inline = jobs.len() <= 1;
        let results = Mutex::new(Vec::with_capacity(jobs.len()));
        let queue = Mutex::new(jobs.into_iter());
        let share = |_: usize| {
            let mut state = None;
            let mut done = Vec::new();
            // Jobs run under `catch_unwind`, so the queue lock is never
            // held across a panic; recover it anyway.
            let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            while let Some((idx, job)) = claim() {
                let state = state.get_or_insert_with(&init);
                done.push((idx, guarded(state, &init, &exec, job)));
            }
            // A panic elsewhere cannot poison this sink into losing
            // results: recover the guard and extend anyway.
            results
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(done);
        };
        let workers_started = if inline {
            share(0);
            0
        } else {
            // The crew serialises runs and starts its threads in its
            // first one, before that run's caller share: the share that
            // first sets the flag is the batch that started them. A
            // one-thread crew starts none.
            self.crew.run(
                || {
                    let first = !self.started.swap(true, Relaxed);
                    share(0);
                    if first {
                        self.threads() - 1
                    } else {
                        0
                    }
                },
                &share,
            )
        };
        Batch {
            outcomes: results.into_inner().unwrap_or_else(PoisonError::into_inner),
            workers_started,
        }
    }
}

/// Runs one job under `catch_unwind`; on panic the worker state is
/// rebuilt from `init` (the unwound body may have left it half-mutated).
fn guarded<J, R, S>(
    state: &mut S,
    init: &impl Fn() -> S,
    exec: &impl Fn(&mut S, J) -> R,
    job: J,
) -> JobOutcome<R> {
    match catch_unwind(AssertUnwindSafe(|| exec(state, job))) {
        Ok(result) => JobOutcome::Completed(result),
        Err(payload) => {
            *state = init();
            JobOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            }
        }
    }
}

/// Best-effort extraction of the conventional `&str`/`String` payloads.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Silences the default panic hook for tests that inject panics on
    /// purpose; installed once per process.
    pub(crate) fn quiet_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.payload();
                let text = msg
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| msg.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if text.contains("deliberate test panic") || text.contains("injected engine fault")
                {
                    return;
                }
                default(info);
            }));
        });
    }

    /// The completed values by index; panics on a panicked job.
    fn completed<R>(batch: Batch<R>) -> Vec<(usize, R)> {
        let mut out: Vec<(usize, R)> = batch
            .outcomes
            .into_iter()
            .map(|(idx, outcome)| (idx, outcome.completed().expect("job completed")))
            .collect();
        out.sort_by_key(|(idx, _)| *idx);
        out
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            // The second batch runs on the workers the first one started.
            for batch in 0..2 {
                let jobs: Vec<(usize, u64)> = (0..97).map(|i| (i, i as u64)).collect();
                let inits = AtomicUsize::new(0);
                let out = pool.run(
                    jobs,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0u64
                    },
                    |state, job| {
                        *state += 1;
                        job * 3
                    },
                );
                let expected = if batch == 0 { threads - 1 } else { 0 };
                assert_eq!(out.workers_started, expected, "batch {batch}");
                let out = completed(out);
                assert_eq!(out.len(), 97);
                for (idx, val) in out {
                    assert_eq!(val, idx as u64 * 3);
                }
                assert!(
                    inits.load(Ordering::Relaxed) <= threads,
                    "at most one state per thread"
                );
            }
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let batch = Pool::new(4).run(Vec::<(usize, ())>::new(), || (), |(), ()| ());
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.workers_started, 0, "nothing to run, nothing started");
    }

    #[test]
    fn worker_state_is_reused_across_jobs() {
        let jobs: Vec<(usize, ())> = (0..16).map(|i| (i, ())).collect();
        let out = completed(Pool::new(1).run(
            jobs,
            || 0usize,
            |count, ()| {
                *count += 1;
                *count
            },
        ));
        let max_seen = out.iter().map(|(_, c)| *c).max().unwrap();
        assert_eq!(max_seen, 16, "single worker sees every job in one state");
    }

    #[test]
    fn panicking_job_does_not_lose_siblings() {
        quiet_panics();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for _ in 0..2 {
                let jobs: Vec<(usize, u64)> = (0..24).map(|i| (i, i as u64)).collect();
                let mut out = pool
                    .run(
                        jobs,
                        || (),
                        |(), job| {
                            if job % 7 == 3 {
                                panic!("deliberate test panic on {job}");
                            }
                            job * 2
                        },
                    )
                    .outcomes;
                out.sort_by_key(|(idx, _)| *idx);
                assert_eq!(out.len(), 24, "one outcome per job");
                for (idx, outcome) in out {
                    match outcome {
                        JobOutcome::Completed(v) => {
                            assert_ne!(idx as u64 % 7, 3);
                            assert_eq!(v, idx as u64 * 2);
                        }
                        JobOutcome::Panicked { message } => {
                            assert_eq!(idx as u64 % 7, 3);
                            assert!(message.contains("deliberate test panic"), "{message}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn state_is_rebuilt_after_a_panic() {
        quiet_panics();
        let inits = AtomicUsize::new(0);
        let jobs: Vec<(usize, usize)> = (0..6).map(|i| (i, i)).collect();
        let out = Pool::new(1).run(
            jobs,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, job| {
                *seen += 1;
                if job == 2 {
                    panic!("deliberate test panic");
                }
                *seen
            },
        );
        // init ran once up front and once after the single panic.
        assert_eq!(inits.load(Ordering::Relaxed), 2);
        // Jobs after the panic count from a fresh state.
        let last = out
            .outcomes
            .iter()
            .find(|(idx, _)| *idx == 5)
            .and_then(|(_, o)| o.clone().completed())
            .unwrap();
        assert_eq!(last, 3, "jobs 3,4,5 ran on the rebuilt state");
    }

    #[test]
    fn a_panic_outside_a_job_re_raises_and_the_pool_serves_on() {
        quiet_panics();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(
                    (0..8).map(|i| (i, ())).collect(),
                    || -> u8 { panic!("deliberate test panic in init") },
                    |_, ()| (),
                )
            }));
            assert!(caught.is_err(), "{threads} threads: init's panic re-raises");
            let out = completed(pool.run((0..8).map(|i| (i, i)).collect(), || (), |(), i| i));
            assert_eq!(out, (0..8).map(|i| (i, i)).collect::<Vec<_>>());
        }
    }
}
