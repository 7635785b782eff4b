//! Property tests for the supervised runtime: panicking jobs never lose
//! sibling results, quarantine accounting is exact, and the whole
//! supervision transcript is independent of the thread count.

use boreas_engine::pool::Pool;
use boreas_engine::supervisor::{run_supervised, RetryPolicy, SupervisorEvent};
use common::check;

/// Silences the default panic hook for the panics this suite injects on
/// purpose; everything else still prints.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                });
            if !message.is_some_and(|m| m.contains("deliberate test panic")) {
                default(info);
            }
        }));
    });
}

/// One deterministic supervised run: job `i` panics on its first
/// `fail_counts[i]` attempts, then returns `i * 10`. Returns
/// `(completed, quarantined(index, attempts), retries, transcript)` with
/// the completed list sorted for comparison.
#[allow(clippy::type_complexity)]
fn run_once(
    fail_counts: &[usize],
    max_attempts: usize,
    pool: &Pool,
) -> (
    Vec<(usize, usize)>,
    Vec<(usize, usize, bool)>,
    usize,
    Vec<SupervisorEvent>,
) {
    let jobs: Vec<(usize, usize)> = (0..fail_counts.len()).map(|i| (i, i)).collect();
    let policy = RetryPolicy::no_retries().with_max_attempts(max_attempts);
    let mut transcript = Vec::new();
    let run = run_supervised(
        &policy,
        pool,
        jobs,
        || (),
        |(), index, job, attempt| {
            assert_eq!(index, *job, "payload rides with its index");
            if attempt < fail_counts[*job] {
                panic!("deliberate test panic: job {job} attempt {attempt}");
            }
            Ok(*job * 10)
        },
        |event| transcript.push(event),
    );
    let mut completed = run.completed;
    completed.sort_unstable_by_key(|(index, _)| *index);
    let quarantined = run
        .quarantined
        .iter()
        .map(|q| (q.index, q.attempts, q.panicked))
        .collect();
    (completed, quarantined, run.retries, transcript)
}

/// Whatever subset of jobs panics (for however many attempts), every
/// job ends up either completed with the right value or quarantined
/// with exact attempt accounting — and the outcome, including the
/// event transcript, is identical on 1, 2 and 4 threads. Each thread
/// count's pool serves every case, so its workers run one batch after
/// another between parks.
#[test]
fn panicking_jobs_never_lose_results() {
    let pools = [Pool::new(1), Pool::new(2), Pool::new(4)];
    check::cases(256, |g| {
        let fail_counts = g.vec(0..12, |g| g.usize_in(0..4));
        let max_attempts = g.usize_in(1..4);
        quiet_injected_panics();
        let reference = run_once(&fail_counts, max_attempts, &pools[0]);
        let (completed, quarantined, retries, _) = &reference;

        // Exact partition: job i completes iff it recovers within the
        // attempt budget, otherwise it is quarantined as a panic with
        // every attempt accounted for.
        let mut want_completed = Vec::new();
        let mut want_quarantined = Vec::new();
        let mut want_retries = 0usize;
        for (i, &f) in fail_counts.iter().enumerate() {
            if f < max_attempts {
                want_completed.push((i, i * 10));
                want_retries += f;
            } else {
                want_quarantined.push((i, max_attempts, true));
                want_retries += max_attempts - 1;
            }
        }
        assert_eq!(completed, &want_completed);
        assert_eq!(quarantined, &want_quarantined);
        assert_eq!(*retries, want_retries);

        for pool in &pools[1..] {
            let other = run_once(&fail_counts, max_attempts, pool);
            assert_eq!(&reference, &other, "threads = {}", pool.threads());
        }
    });
}
