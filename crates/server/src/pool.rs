//! The query pool: a fixed set of persistent worker threads fed by one
//! queue, with a caller-runs join.
//!
//! A submitted query becomes a [`Task`] with three states — queued,
//! running, done. Whoever claims a queued task first runs it: a pool
//! worker that pops it from the queue, or the client blocked in
//! [`Task::join`] when no worker has claimed it yet. The client path
//! therefore never waits behind a busy worker for a query it could run
//! itself, and a query joined right after submission usually runs on the
//! client's own thread, with no hand-off between threads. A task
//! claimed by its joiner stays in the queue as a stale entry; the worker
//! that pops it sees it already claimed and moves on.
//!
//! [`Task::run`] is the one function that runs a task, on either thread.
//! It catches a panic in the task body, so a worker survives a panicking
//! query and the joiner is woken; [`Task::join`] hands the panic payload
//! back for the handle to re-raise.
//!
//! The workers start with the first submission. Dropping the
//! [`QueryPool`] closes the queue: workers drain what is still queued
//! (detached queries run to completion), then exit and are joined, so
//! building and dropping servers leaks no threads.
//!
//! Locks come from `std::sync` and recover from poisoning
//! ([`PoisonError::into_inner`]): no task body runs while one is held, so
//! a poisoned lock only means some unrelated holder unwound, and the
//! state it guards is always consistent.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use rpq_core::EvalResponse;

/// A task body: the whole served evaluation, admission slot and metrics
/// record included.
pub(crate) type Job = Box<dyn FnOnce() -> EvalResponse + Send>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// One `State` lives inside each task's `Arc`; boxing the response would
// only add an allocation per query.
#[allow(clippy::large_enum_variant)]
enum State {
    Queued(Job),
    Running,
    Done(thread::Result<EvalResponse>),
    /// The joiner took the result.
    Taken,
}

/// One submitted query, shared by its handle and the queue.
pub(crate) struct Task {
    state: Mutex<State>,
    done: Condvar,
}

impl Task {
    /// Claim the task if it is still queued and run it on this thread.
    /// Returns whether this call ran it.
    pub(crate) fn run(&self) -> bool {
        let job = {
            let mut state = lock(&self.state);
            match std::mem::replace(&mut *state, State::Running) {
                State::Queued(job) => job,
                other => {
                    *state = other;
                    return false;
                }
            }
        };
        let out = catch_unwind(AssertUnwindSafe(job));
        *lock(&self.state) = State::Done(out);
        self.done.notify_all();
        true
    }

    /// Run the task here if no worker has claimed it yet (caller-runs),
    /// otherwise wait for the worker to finish it; returns the body's
    /// result or its panic payload. Call at most once.
    pub(crate) fn join(&self) -> thread::Result<EvalResponse> {
        self.run();
        let mut state = lock(&self.state);
        loop {
            match std::mem::replace(&mut *state, State::Taken) {
                State::Done(out) => return out,
                other => {
                    *state = other;
                    state = wait(&self.done, state);
                }
            }
        }
    }

    /// Has the body finished (returned or panicked)?
    pub(crate) fn is_finished(&self) -> bool {
        matches!(*lock(&self.state), State::Done(_) | State::Taken)
    }

    /// Has some thread claimed the task (it is running or done)?
    #[cfg(test)]
    pub(crate) fn is_claimed(&self) -> bool {
        !matches!(*lock(&self.state), State::Queued(_))
    }
}

struct Queue {
    tasks: VecDeque<Arc<Task>>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Shared {
    /// Pop the next task, blocking while the queue is empty and open;
    /// `None` once it is closed and drained.
    fn next(&self) -> Option<Arc<Task>> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(task) = q.tasks.pop_front() {
                return Some(task);
            }
            if q.closed {
                return None;
            }
            q = wait(&self.ready, q);
        }
    }
}

/// A fixed set of persistent workers over one task queue. See the
/// module docs.
pub(crate) struct QueryPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Started by the first submission, so a server that only answers
    /// synchronous `Session::run` calls starts no thread.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl QueryPool {
    /// A pool of `threads` workers (at least one), started lazily.
    pub(crate) fn new(threads: usize) -> QueryPool {
        QueryPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    tasks: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
            }),
            threads: threads.max(1),
            workers: OnceLock::new(),
        }
    }

    /// Start the workers. A worker the OS refuses to start is skipped:
    /// queued tasks still run on their joiners, and whatever is left runs
    /// when the pool drops.
    fn start(&self) -> Vec<JoinHandle<()>> {
        (0..self.threads)
            .filter_map(|i| {
                let shared = self.shared.clone();
                thread::Builder::new()
                    .name(format!("rpq-query-{i}"))
                    .spawn(move || {
                        while let Some(task) = shared.next() {
                            task.run();
                        }
                    })
                    .ok()
            })
            .collect()
    }

    /// Queue `job`; the returned task is the handle's side of it.
    pub(crate) fn submit(&self, job: Job) -> Arc<Task> {
        self.workers.get_or_init(|| self.start());
        let task = Arc::new(Task {
            state: Mutex::new(State::Queued(job)),
            done: Condvar::new(),
        });
        lock(&self.shared.queue).tasks.push_back(task.clone());
        self.shared.ready.notify_one();
        task
    }

    /// Worker threads this pool started.
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.workers.get().map_or(0, Vec::len)
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.ready.notify_all();
        for worker in self.workers.take().into_iter().flatten() {
            // A worker never unwinds (task panics are caught in
            // `Task::run`), so there is no payload to forward.
            let _ = worker.join();
        }
        // Only reachable with tasks left when no worker could start.
        while let Some(task) = self.shared.next() {
            task.run();
        }
    }
}
