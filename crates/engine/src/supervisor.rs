//! Deterministic retry and quarantine on top of the isolated pool.
//!
//! The pool ([`crate::pool`]) turns panics into per-job
//! [`JobOutcome`]s; this module decides what happens next. Failed jobs
//! are re-dispatched in *waves*: wave `k` runs every job whose first `k`
//! attempts failed, so the attempt number a job sees is a pure function
//! of how often it failed — never of wall-clock time, thread count or
//! scheduling order. Jobs that exhaust [`RetryPolicy::max_attempts`]
//! land in a [`QuarantinedJob`] list instead of aborting the sweep: the
//! caller gets every healthy result plus a precise casualty report.
//!
//! Jobs stay owned by the supervisor and cross into the pool by
//! reference, so a panic mid-job can never consume the payload — a
//! panicked job is always retryable.

use crate::pool::{JobOutcome, Pool};

/// How failed jobs are retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (1 = no retries). Clamped to ≥ 1.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    /// One retry — enough to absorb a transient fault
    /// without hiding a deterministic bug behind many repeats.
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 2 }
    }
}

impl RetryPolicy {
    /// A policy that never retries: first failure goes straight to
    /// quarantine.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }

    /// Builder: total attempts per job.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> RetryPolicy {
        self.max_attempts = max_attempts;
        self
    }
}

/// A job that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedJob {
    /// Index in the scenario's deterministic expansion order.
    pub index: usize,
    /// Attempts actually made.
    pub attempts: usize,
    /// The last attempt's failure (panic message or job error).
    pub error: String,
    /// Whether the final failure was a caught panic.
    pub panicked: bool,
}

/// Lifecycle notifications emitted while a supervised batch runs, in
/// deterministic (wave, index) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// An attempt failed (panic or job-level error).
    AttemptFailed {
        /// Job index.
        index: usize,
        /// 0-based attempt that failed.
        attempt: usize,
        /// Whether the failure was a caught panic (vs a returned error).
        panicked: bool,
        /// Failure message.
        message: String,
    },
    /// A job is being re-dispatched in the next wave.
    Retried {
        /// Job index.
        index: usize,
        /// 0-based attempt about to run.
        attempt: usize,
    },
    /// A job exhausted its attempts and was quarantined.
    Quarantined {
        /// Job index.
        index: usize,
        /// Attempts made.
        attempts: usize,
        /// Final failure message.
        message: String,
    },
}

/// Outcome of a supervised batch: completed results (unspecified order,
/// place by index) plus the jobs that exhausted retries (ascending
/// index).
#[derive(Debug)]
pub struct SupervisedRun<R> {
    /// `(index, result)` for every job that eventually succeeded.
    pub completed: Vec<(usize, R)>,
    /// Jobs that failed every attempt, ascending by index.
    pub quarantined: Vec<QuarantinedJob>,
    /// Retry dispatches performed (sum over jobs of attempts − 1).
    pub retries: usize,
    /// Worker threads the pool started for this run (see
    /// [`Batch::workers_started`](crate::pool::Batch::workers_started)).
    pub workers_started: usize,
}

/// Runs `jobs` on `pool` under `policy`, retrying failures in
/// deterministic waves.
///
/// `exec` receives `(state, index, &job, attempt)` and returns
/// `Ok(result)` or `Err(message)`; panics inside `exec` are caught by
/// the pool and treated exactly like returned errors, after rebuilding
/// the worker state via `init`. The attempt counter passed to `exec` is
/// keyed purely by how many times that job index has failed, so a rerun
/// of the same scenario replays the identical attempt sequence.
pub fn run_supervised<J, R, S>(
    policy: &RetryPolicy,
    pool: &Pool,
    jobs: Vec<(usize, J)>,
    init: impl Fn() -> S + Sync,
    exec: impl Fn(&mut S, usize, &J, usize) -> Result<R, String> + Sync,
    mut observer: impl FnMut(SupervisorEvent),
) -> SupervisedRun<R>
where
    J: Sync,
    R: Send,
{
    let max_attempts = policy.max_attempts.max(1);
    let mut completed = Vec::with_capacity(jobs.len());
    let mut quarantined = Vec::new();
    let mut retries = 0usize;
    let mut workers_started = 0usize;
    // Indices still in flight; the jobs themselves never leave this
    // function, so a panicked attempt can always be re-dispatched.
    let mut wave: Vec<usize> = (0..jobs.len()).collect();

    for attempt in 0..max_attempts {
        if wave.is_empty() {
            break;
        }
        let tasks: Vec<(usize, (usize, &J))> = wave
            .iter()
            .map(|&slot| (jobs[slot].0, (slot, &jobs[slot].1)))
            .collect();
        let batch = pool.run(tasks, &init, |state, (slot, job): (usize, &J)| {
            let index = jobs[slot].0;
            (slot, exec(state, index, job, attempt))
        });
        workers_started += batch.workers_started;

        let mut failed: Vec<(usize, bool, String)> = Vec::new();
        for (index, outcome) in batch.outcomes {
            match outcome {
                JobOutcome::Completed((_, Ok(result))) => completed.push((index, result)),
                JobOutcome::Completed((slot, Err(message))) => {
                    failed.push((slot, false, message));
                }
                JobOutcome::Panicked { message } => {
                    // The pool tagged the outcome with the job's public
                    // index; map it back to its slot for redispatch.
                    let slot = wave
                        .iter()
                        .copied()
                        .find(|&s| jobs[s].0 == index)
                        .expect("panicked outcome maps to an in-flight slot");
                    failed.push((slot, true, message));
                }
            }
        }
        // Deterministic event + redispatch order regardless of which
        // thread finished first.
        failed.sort_by_key(|(slot, ..)| jobs[*slot].0);

        let mut next = Vec::with_capacity(failed.len());
        for (slot, panicked, message) in failed {
            let index = jobs[slot].0;
            observer(SupervisorEvent::AttemptFailed {
                index,
                attempt,
                panicked,
                message: message.clone(),
            });
            if attempt + 1 < max_attempts {
                observer(SupervisorEvent::Retried {
                    index,
                    attempt: attempt + 1,
                });
                retries += 1;
                next.push(slot);
            } else {
                observer(SupervisorEvent::Quarantined {
                    index,
                    attempts: attempt + 1,
                    message: message.clone(),
                });
                quarantined.push(QuarantinedJob {
                    index,
                    attempts: attempt + 1,
                    error: message,
                    panicked,
                });
            }
        }
        wave = next;
    }

    quarantined.sort_by_key(|q| q.index);
    SupervisedRun {
        completed,
        quarantined,
        retries,
        workers_started,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quiet() {
        crate::pool::tests::quiet_panics();
    }

    #[test]
    fn transient_failures_succeed_on_retry() {
        quiet();
        let policy = RetryPolicy::default(); // 2 attempts
        for threads in [1, 2, 4] {
            let jobs: Vec<(usize, u32)> = (0..12).map(|i| (i, i as u32)).collect();
            let mut events = Vec::new();
            let run = run_supervised(
                &policy,
                &Pool::new(threads),
                jobs,
                || (),
                |(), idx, job, attempt| {
                    if idx % 5 == 2 && attempt == 0 {
                        Err(format!("transient fault on {job}"))
                    } else {
                        Ok(job * 10)
                    }
                },
                |e| events.push(e),
            );
            assert!(run.quarantined.is_empty());
            assert_eq!(run.completed.len(), 12);
            assert_eq!(run.retries, 2, "jobs 2 and 7 each retried once");
            let mut sorted = run.completed;
            sorted.sort_by_key(|(idx, _)| *idx);
            for (idx, v) in sorted {
                assert_eq!(v, idx as u32 * 10);
            }
            let retried: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    SupervisorEvent::Retried { index, .. } => Some(*index),
                    _ => None,
                })
                .collect();
            assert_eq!(retried, vec![2, 7], "deterministic redispatch order");
        }
    }

    #[test]
    fn persistent_failures_are_quarantined_not_fatal() {
        quiet();
        let policy = RetryPolicy::default().with_max_attempts(3);
        let attempts_seen = AtomicUsize::new(0);
        let jobs: Vec<(usize, ())> = (0..8).map(|i| (i, ())).collect();
        let run = run_supervised(
            &policy,
            &Pool::new(2),
            jobs,
            || (),
            |(), idx, (), _attempt| {
                if idx == 5 {
                    attempts_seen.fetch_add(1, Ordering::Relaxed);
                    Err("always broken".to_string())
                } else {
                    Ok(idx)
                }
            },
            |_| {},
        );
        assert_eq!(run.completed.len(), 7, "healthy jobs all survive");
        assert_eq!(run.quarantined.len(), 1);
        let q = &run.quarantined[0];
        assert_eq!((q.index, q.attempts), (5, 3));
        assert_eq!(q.error, "always broken");
        assert!(!q.panicked);
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicked_jobs_are_retried_and_recover() {
        quiet();
        let policy = RetryPolicy::default();
        for threads in [1, 2, 4] {
            let run = run_supervised(
                &policy,
                &Pool::new(threads),
                (0..6).map(|i| (i, i)).collect::<Vec<(usize, usize)>>(),
                || (),
                |(), _idx, job, attempt| {
                    if *job == 3 && attempt == 0 {
                        panic!("deliberate test panic");
                    }
                    Ok(*job)
                },
                |_| {},
            );
            assert!(
                run.quarantined.is_empty(),
                "panicked job recovered on retry"
            );
            assert_eq!(run.completed.len(), 6);
            assert_eq!(run.retries, 1);
        }
    }

    #[test]
    fn exhausted_panics_keep_their_flag_and_message() {
        quiet();
        let run = run_supervised(
            &RetryPolicy::no_retries(),
            &Pool::new(2),
            (0..4).map(|i| (i, ())).collect::<Vec<(usize, ())>>(),
            || (),
            |(), idx, (), _attempt| {
                if idx == 1 {
                    panic!("deliberate test panic: poisoned cell");
                }
                Ok(idx)
            },
            |_| {},
        );
        assert_eq!(run.completed.len(), 3);
        assert_eq!(run.quarantined.len(), 1);
        let q = &run.quarantined[0];
        assert!(q.panicked);
        assert_eq!(q.attempts, 1);
        assert!(q.error.contains("poisoned cell"), "{}", q.error);
    }

    #[test]
    fn attempt_numbers_are_independent_of_thread_count() {
        quiet();
        let policy = RetryPolicy::default().with_max_attempts(4);
        let mut transcripts = Vec::new();
        for threads in [1, 2, 4] {
            let mut log = Vec::new();
            let run = run_supervised(
                &policy,
                &Pool::new(threads),
                (0..9).map(|i| (i, ())).collect::<Vec<(usize, ())>>(),
                || (),
                |(), idx, (), attempt| {
                    if idx % 4 == 1 && attempt < idx % 3 {
                        Err(format!("fail {idx}@{attempt}"))
                    } else {
                        Ok(idx)
                    }
                },
                |e| log.push(e),
            );
            assert!(run.quarantined.is_empty());
            transcripts.push(log);
        }
        assert_eq!(transcripts[0], transcripts[1]);
        assert_eq!(transcripts[1], transcripts[2]);
    }

    #[test]
    fn sparse_nonmonotonic_indices_are_supported() {
        quiet();
        // Public indices need not be 0..n or sorted — the supervisor
        // keys everything off slots internally.
        let jobs = vec![(42usize, "a"), (7, "b"), (100, "c")];
        let run = run_supervised(
            &RetryPolicy::default(),
            &Pool::new(2),
            jobs,
            || (),
            |(), idx, job, attempt| {
                if idx == 7 && attempt == 0 {
                    panic!("deliberate test panic");
                }
                Ok(format!("{idx}:{job}"))
            },
            |_| {},
        );
        assert!(run.quarantined.is_empty());
        let mut done = run.completed;
        done.sort_by_key(|(idx, _)| *idx);
        let labels: Vec<String> = done.into_iter().map(|(_, s)| s).collect();
        assert_eq!(labels, vec!["7:b", "42:a", "100:c"]);
    }
}
