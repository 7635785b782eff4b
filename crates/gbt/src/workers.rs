//! The hand-off between a fit's calling thread and its worker threads.
//!
//! A [`Crew`] runs one task at a time on all of its members at once.
//! Member 0 is the calling thread, which runs its share inline; members
//! `1..t` are scoped threads that sleep between tasks. Each thread
//! member has one `Mutex`/`Condvar` slot that carries a task in and the
//! reply out, so no generic channel is involved.
//!
//! A member that panics marks its slot `gone` as its thread unwinds, and
//! the calling thread's wait for that member's reply then panics instead
//! of hanging. Dropping the crew, which also happens while the calling
//! thread unwinds, closes every slot: the other members return, and the
//! enclosing `std::thread::scope` re-raises the panic.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// One member's share of the work: what it does with each task.
pub(crate) trait Handler: Send {
    /// A phase of the work, the same for every member.
    type Task: Send + Sync;
    /// One member's result of a task.
    type Reply: Send;

    /// Runs this member's share of `task`.
    fn handle(&mut self, task: &Self::Task) -> Self::Reply;
}

/// One thread member's hand-off state.
struct State<T, R> {
    task: Option<Arc<T>>,
    reply: Option<R>,
    /// Set when the crew is dropped: the member returns.
    closed: bool,
    /// Set when the member's thread ends, by return or by panic.
    gone: bool,
}

/// The slot of one thread member: its state and the one condvar that
/// both sides wait on (each waits only while the other owes it).
struct Slot<T, R> {
    state: Mutex<State<T, R>>,
    wake: Condvar,
}

impl<T, R> Slot<T, R> {
    fn new() -> Slot<T, R> {
        Slot {
            state: Mutex::new(State {
                task: None,
                reply: None,
                closed: false,
                gone: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Locks the state. No thread panics while holding the lock except
    /// through [`Slot::reply`], which releases it first, so a poisoned
    /// lock still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, State<T, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State<T, R>>) -> MutexGuard<'a, State<T, R>> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn update(&self, change: impl FnOnce(&mut State<T, R>)) {
        change(&mut self.lock());
        self.wake.notify_all();
    }

    /// The member's next task; `None` once the crew is closed.
    fn next_task(&self) -> Option<Arc<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(task) = state.task.take() {
                return Some(task);
            }
            state = self.wait(state);
        }
    }

    /// The member's reply to the posted task.
    ///
    /// # Panics
    ///
    /// Panics if the member's thread ended without replying.
    fn reply(&self) -> R {
        let mut state = self.lock();
        loop {
            if let Some(reply) = state.reply.take() {
                return reply;
            }
            if state.gone {
                drop(state);
                panic!("training worker died");
            }
            state = self.wait(state);
        }
    }
}

/// Marks a member's slot gone when its thread ends.
struct Gone<'a, T, R>(&'a Slot<T, R>);

impl<T, R> Drop for Gone<'_, T, R> {
    fn drop(&mut self) {
        self.0.update(|state| state.gone = true);
    }
}

/// A calling thread and its worker threads (see the module docs).
pub(crate) struct Crew<H: Handler> {
    own: H,
    slots: Vec<Arc<Slot<H::Task, H::Reply>>>,
}

impl<H: Handler> Crew<H> {
    /// Starts one scoped thread per member after the first; member 0
    /// stays with the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub(crate) fn start<'scope>(scope: &'scope Scope<'scope, '_>, members: Vec<H>) -> Crew<H>
    where
        H: 'scope,
    {
        let mut members = members.into_iter();
        let own = members.next().expect("a crew has a member 0");
        let slots = members
            .map(|mut member| {
                let slot = Arc::new(Slot::new());
                let theirs = Arc::clone(&slot);
                scope.spawn(move || {
                    let _gone = Gone(&theirs);
                    while let Some(task) = theirs.next_task() {
                        let reply = member.handle(&task);
                        drop(task);
                        theirs.update(|state| state.reply = Some(reply));
                    }
                });
                slot
            })
            .collect();
        Crew { own, slots }
    }

    /// Member 0, the calling thread's share.
    pub(crate) fn own(&self) -> &H {
        &self.own
    }

    /// Runs `task` on every member; returns the replies in member order.
    ///
    /// # Panics
    ///
    /// Panics if a member panics.
    pub(crate) fn run(&mut self, task: H::Task) -> Vec<H::Reply> {
        let task = Arc::new(task);
        for slot in &self.slots {
            slot.update(|state| state.task = Some(Arc::clone(&task)));
        }
        let mut replies = Vec::with_capacity(self.slots.len() + 1);
        replies.push(self.own.handle(&task));
        replies.extend(self.slots.iter().map(|slot| slot.reply()));
        replies
    }
}

impl<H: Handler> Drop for Crew<H> {
    fn drop(&mut self) {
        for slot in &self.slots {
            slot.update(|state| state.closed = true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Member `k` replies `k + task`, and panics on task `k + 100`.
    struct Echo(usize);

    impl Handler for Echo {
        type Task = usize;
        type Reply = usize;
        fn handle(&mut self, task: &usize) -> usize {
            assert_ne!(*task, self.0 + 100, "member {} told to die", self.0);
            self.0 + task
        }
    }

    #[test]
    fn replies_come_back_in_member_order() {
        std::thread::scope(|scope| {
            let mut crew = Crew::start(scope, (0..4).map(Echo).collect());
            for task in 0..50 {
                assert_eq!(crew.run(task), [task, task + 1, task + 2, task + 3]);
            }
        });
    }

    #[test]
    fn a_member_that_panics_fails_the_run() {
        for doomed in 1..3 {
            let run = catch_unwind(AssertUnwindSafe(|| {
                std::thread::scope(|scope| {
                    let mut crew = Crew::start(scope, (0..3).map(Echo).collect());
                    crew.run(7);
                    crew.run(doomed + 100)
                })
            }));
            assert!(run.is_err(), "member {doomed}");
        }
    }

    #[test]
    fn a_panic_on_the_calling_thread_releases_the_members() {
        let run = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let mut crew = Crew::start(scope, (0..3).map(Echo).collect());
                crew.run(100)
            })
        }));
        assert!(run.is_err());
    }
}
