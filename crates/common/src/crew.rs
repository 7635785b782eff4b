//! The one worker crew behind every multi-threaded phase of the
//! workspace: the experiment engine's pool, the GBT trainer's fit and
//! the fixed-VF grid runner.
//!
//! A [`Crew`] of `t` threads is the calling thread plus `t − 1` member
//! threads that it starts on its first multi-threaded run and keeps
//! parked on one `Mutex`/`Condvar` board between runs, until the crew
//! drops and joins them. A run posts one borrowed closure to every
//! parked member, runs the caller's own share inline and waits until
//! every member has finished. Parked threads do not pay a freshly
//! spawned thread's first-run scheduling delay (up to 4 ms on a busy
//! 2-vCPU host), and one hand-off costs a lock, a broadcast and a
//! decrement per member.
//!
//! A member that panics is not lost: its panic is caught, the member
//! parks again, and [`Crew::run`] re-raises the first such panic, with
//! its own payload, once every member has left the run. A panic of the
//! caller's share also waits for every member before it unwinds out of
//! the run, so a member never touches a borrow that has ended.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A calling thread plus member threads that live as long as the crew
/// (see the [module docs](self)).
pub struct Crew {
    threads: usize,
    board: Arc<Board>,
    /// The member threads, started on the first multi-threaded run. The
    /// lock is held for a whole run, so runs from two threads sharing
    /// the crew run one after the other.
    members: Mutex<Vec<JoinHandle<()>>>,
}

impl Crew {
    /// A crew of `threads` threads (clamped to ≥ 1), the caller's
    /// included. No thread starts until a run needs one.
    pub fn new(threads: usize) -> Crew {
        Crew {
            threads: threads.max(1),
            board: Arc::new(Board {
                state: Mutex::new(State {
                    task: None,
                    run: 0,
                    running: 0,
                    panic: None,
                    closed: false,
                }),
                wake: Condvar::new(),
            }),
            members: Mutex::new(Vec::new()),
        }
    }

    /// Threads a run uses, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `worker(k)` on members `k = 1..threads` while the calling
    /// thread runs `caller`, and returns `caller`'s result once every
    /// member has finished. A one-thread crew runs only `caller`.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `caller`, or else the first panic of a
    /// member with that panic's payload, after every member has left
    /// the run. The crew serves the next run either way.
    pub fn run<R>(&self, caller: impl FnOnce() -> R, worker: &(dyn Fn(usize) + Sync)) -> R {
        if self.threads == 1 {
            return caller();
        }
        let mut members = self.members.lock().unwrap_or_else(PoisonError::into_inner);
        if members.is_empty() {
            *members = (1..self.threads)
                .map(|k| {
                    let board = Arc::clone(&self.board);
                    std::thread::Builder::new()
                        .name(format!("boreas-crew-{k}"))
                        .spawn(move || work(&board, k))
                        .expect("spawn a crew thread")
                })
                .collect();
        }
        let board = &*self.board;
        // SAFETY: only the lifetime is erased (same pointer, same
        // vtable). Members dereference the pointer only between this
        // post and their decrement of `running`, and `Posted`'s drop,
        // which runs when this function returns or unwinds, waits until
        // `running` is 0 and takes the pointer back off the board. So
        // no member touches `worker` after this borrow ends: the
        // contract `std::thread::scope` keeps for its spawned threads.
        let task = Task(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                worker,
            )
        });
        board.update(|state| {
            state.task = Some(task);
            state.run += 1;
            state.running = members.len();
            state.panic = None;
        });
        let posted = Posted(board);
        let out = caller();
        drop(posted);
        if let Some(payload) = board.lock().panic.take() {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.board.update(|state| state.closed = true);
        let members = self
            .members
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in members.drain(..) {
            // A member catches every panic of its share, so its thread
            // only ends by returning.
            let _ = handle.join();
        }
    }
}

/// A posted run's worker, its borrow's lifetime erased.
#[derive(Clone, Copy)]
struct Task(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so calling it from another thread
// through a shared reference is sound; how long the pointer stays valid
// is `Crew::run`'s business.
unsafe impl Send for Task {}

/// What the calling thread and the members share.
struct State {
    /// The posted run's worker while it runs.
    task: Option<Task>,
    /// Counts posted runs; a member runs each one once.
    run: u64,
    /// Members that have not yet finished the posted run.
    running: usize,
    /// The first panic a member raised in the posted run.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the crew drops: the members return.
    closed: bool,
}

/// The board and the one condvar both sides wait on: members for a new
/// run or the close, the calling thread for `running` to reach 0.
struct Board {
    state: Mutex<State>,
    wake: Condvar,
}

impl Board {
    /// Locks the state. Nothing panics while holding the lock, so a
    /// poisoned lock still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn update(&self, change: impl FnOnce(&mut State)) {
        change(&mut self.lock());
        self.wake.notify_all();
    }
}

/// Waits, on drop, until every member has finished the posted run, then
/// takes the run's worker off the board. Runs on unwind too.
struct Posted<'a>(&'a Board);

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        while state.running > 0 {
            state = self.0.wait(state);
        }
        state.task = None;
    }
}

/// Member `k`'s loop: run each posted run's worker once, park in
/// between, return once the crew closes.
fn work(board: &Board, k: usize) {
    let mut seen = 0;
    loop {
        let task = {
            let mut state = board.lock();
            loop {
                if state.closed {
                    return;
                }
                match state.task {
                    Some(task) if state.run != seen => {
                        seen = state.run;
                        break task;
                    }
                    _ => state = board.wait(state),
                }
            }
        };
        // SAFETY: the pointer was posted by `Crew::run`, which does not
        // return before `running` drops to 0 below (see there).
        let ran = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(k) }));
        board.update(|state| {
            if let Err(payload) = ran {
                state.panic.get_or_insert(payload);
            }
            state.running -= 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
    use std::time::Duration;

    /// Silences the default panic hook for the panics these tests raise
    /// on purpose; installed once per process.
    fn quiet_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !panic_text(info.payload()).contains("deliberate test panic") {
                    default(info);
                }
            }));
        });
    }

    fn panic_text(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// Runs `task` on `crew`: member `k` (the caller is member 0) writes
    /// `k + task` into its own slot, and panics on task `k + 100`.
    /// Returns the slots in member order.
    fn echo(crew: &Crew, task: usize) -> Vec<usize> {
        let slots: Vec<Mutex<Option<usize>>> =
            (0..crew.threads()).map(|_| Mutex::new(None)).collect();
        let member = |k: usize| {
            if task == k + 100 {
                panic!("deliberate test panic: member {k} told to die");
            }
            *slots[k].lock().unwrap() = Some(k + task);
        };
        crew.run(|| member(0), &member);
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every member ran"))
            .collect()
    }

    fn started(crew: &Crew) -> bool {
        !crew.members.lock().unwrap().is_empty()
    }

    #[test]
    fn every_member_runs_once_per_run_with_its_own_index() {
        for threads in 1..=4 {
            let crew = Crew::new(threads);
            assert!(!started(&crew), "no thread before the first run");
            for task in 0..50 {
                let want: Vec<usize> = (0..threads).map(|k| k + task).collect();
                assert_eq!(echo(&crew, task), want, "{threads} threads");
            }
            let runs: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            for _ in 0..20 {
                crew.run(|| runs[0].fetch_add(1, Relaxed), &|k| {
                    runs[k].fetch_add(1, Relaxed);
                });
            }
            assert!(
                runs.iter().all(|n| n.load(Relaxed) == 20),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn caller_runs_on_the_calling_thread() {
        let here = std::thread::current().id();
        for threads in 1..=3 {
            let crew = Crew::new(threads);
            let elsewhere = AtomicUsize::new(0);
            let on = crew.run(|| std::thread::current().id(), &|_| {
                if std::thread::current().id() != here {
                    elsewhere.fetch_add(1, Relaxed);
                }
            });
            assert_eq!(on, here);
            assert_eq!(
                elsewhere.load(Relaxed),
                threads - 1,
                "members run elsewhere"
            );
        }
    }

    #[test]
    fn a_member_panic_reaches_the_caller_after_every_member_left() {
        quiet_panics();
        for doomed in 1..3 {
            let crew = Crew::new(3);
            assert_eq!(echo(&crew, 7), [7, 8, 9]);
            // The other members are still working when the doomed one
            // panics; the run must wait for them before re-raising.
            let finished = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                crew.run(|| {}, &|k| {
                    if k == doomed {
                        panic!("deliberate test panic: member {k} told to die");
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Relaxed);
                })
            }));
            let payload = caught.expect_err("the member's panic re-raises");
            assert_eq!(
                panic_text(payload.as_ref()),
                format!("deliberate test panic: member {doomed} told to die")
            );
            assert_eq!(finished.load(Relaxed), 1, "the other member had left");
            // Through `echo` too, then the same crew serves on.
            assert!(catch_unwind(AssertUnwindSafe(|| echo(&crew, doomed + 100))).is_err());
            assert_eq!(echo(&crew, 7), [7, 8, 9], "member {doomed}");
        }
    }

    #[test]
    fn a_caller_panic_releases_the_members() {
        quiet_panics();
        let crew = Crew::new(3);
        // The members wait for the caller's signal; a caller that panics
        // instead must still let them leave, or the run would hang.
        let go = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            crew.run(
                || {
                    let _release = Release(&go);
                    panic!("deliberate test panic on the calling thread")
                },
                &|_| {
                    while !go.load(Relaxed) {
                        std::thread::yield_now();
                    }
                },
            )
        }));
        let payload = caught.expect_err("the caller's panic re-raises");
        assert!(panic_text(payload.as_ref()).contains("on the calling thread"));
        assert!(catch_unwind(AssertUnwindSafe(|| echo(&crew, 100))).is_err());
        assert_eq!(echo(&crew, 1), [1, 2, 3], "the crew serves on");
    }

    /// Sets its flag on drop, as a grid caller's close guard does.
    struct Release<'a>(&'a AtomicBool);

    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.store(true, Relaxed);
        }
    }

    #[test]
    fn a_one_thread_crew_starts_no_thread() {
        let crew = Crew::new(1);
        let out = crew.run(|| 5, &|_| unreachable!("a one-thread crew has no member"));
        assert_eq!(out, 5);
        assert!(!started(&crew));
        assert_eq!(Crew::new(0).threads(), 1, "clamped to one thread");
    }
}
