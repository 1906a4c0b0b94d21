//! The persistent worker pool behind [`Engine::submit`](crate::Engine::submit).
//!
//! Earlier versions of the engine spun up scoped threads per `solve_batch`
//! call; a service cannot afford that (thread churn, no way to accept work
//! while a batch runs, no per-request budgets).  This module replaces it
//! with a fixed pool of long-lived workers fed from a mutex/condvar queue:
//!
//! * [`Engine::submit`](crate::Engine::submit) enqueues a job and hands
//!   back a [`SolveHandle`] — block on it or cancel it;
//!   [`Engine::submit_notify`](crate::Engine::submit_notify) also runs a
//!   completion hook, so a front end can block until woken instead of
//!   polling handles,
//! * every job runs under a [`SolveContext`] assembled from the request's
//!   budget (the deadline clock starts at submission, so queue time counts)
//!   and the handle's cancel flag,
//! * a panicking solver is caught and surfaces as `CcsError::Internal`; the
//!   worker thread survives and keeps serving requests,
//! * dropping the last engine clone shuts the pool down in bounded time:
//!   queued jobs fail with `CcsError::Cancelled` without running, in-flight
//!   jobs are cancelled cooperatively, and every outstanding handle still
//!   completes.
//!
//! The pool is started lazily on first use, so engines that only ever call
//! the synchronous [`Engine::solve`](crate::Engine::solve) never spawn a
//! thread.

use crate::engine::{EngineCore, Solution};
use crate::policy::SolveRequest;
use ccs_core::{CancelFlag, CcsError, Instance, Result, SolveContext};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work for the pool: an instance, its request, the engine core
/// that routes and runs it, and the ticket the result is delivered to.
pub(crate) struct Job {
    pub(crate) inst: Arc<Instance>,
    pub(crate) req: SolveRequest,
    pub(crate) core: Arc<EngineCore>,
    pub(crate) ticket: Arc<Ticket>,
}

/// A completion hook ([`Engine::submit_notify`](crate::Engine::submit_notify)).
pub(crate) type Hook = Box<dyn FnOnce() + Send>;

/// The shared state between a [`SolveHandle`] and the worker executing its
/// job.
pub(crate) struct Ticket {
    slot: Mutex<Slot>,
    done: Condvar,
    finished: AtomicBool,
    cancel: CancelFlag,
    /// Absolute deadline derived from the request budget at submission.
    deadline: Option<Instant>,
}

struct Slot {
    /// `None` while pending/running, `Some` once the worker delivered.
    result: Option<Result<Solution>>,
    /// Taken and run by [`Ticket::complete`].
    hook: Option<Hook>,
}

impl Ticket {
    pub(crate) fn new(budget: Option<Duration>, hook: Hook) -> Self {
        Ticket {
            slot: Mutex::new(Slot {
                result: None,
                hook: Some(hook),
            }),
            done: Condvar::new(),
            finished: AtomicBool::new(false),
            cancel: CancelFlag::new(),
            deadline: budget.map(|b| Instant::now() + b),
        }
    }

    /// Publishes the result, then runs the hook — every path that ends a job
    /// (a run, a panic, cancellation at pool shutdown) goes through here.
    fn complete(&self, result: Result<Solution>) {
        let hook = {
            let mut slot = self.slot.lock().expect("ticket lock never poisoned");
            slot.result = Some(result);
            self.finished.store(true, Ordering::Release);
            self.done.notify_all();
            slot.hook.take()
        };
        // Outside the lock, and after `finished`: whoever the hook wakes sees
        // the job finished.
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// A handle to a submitted request: wait on it or cancel it.
///
/// Dropping the handle does not cancel the job — it keeps running and its
/// result is discarded on completion (fire and forget).
pub struct SolveHandle {
    ticket: Arc<Ticket>,
}

impl SolveHandle {
    pub(crate) fn new(ticket: Arc<Ticket>) -> Self {
        SolveHandle { ticket }
    }

    /// Whether the job has finished (successfully or not); once it has,
    /// [`SolveHandle::wait`] returns without blocking.
    pub fn is_finished(&self) -> bool {
        self.ticket.finished.load(Ordering::Acquire)
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(self) -> Result<Solution> {
        let slot = self.ticket.slot.lock().expect("ticket lock never poisoned");
        let mut slot = self
            .ticket
            .done
            .wait_while(slot, |slot| slot.result.is_none())
            .expect("ticket lock never poisoned");
        slot.result
            .take()
            .expect("wait_while exits only with a result")
    }

    /// Requests cooperative cancellation: the run fails with
    /// [`CcsError::Cancelled`] at its next checkpoint (or before it starts,
    /// if still queued).  Idempotent; has no effect on finished jobs.
    pub fn cancel(&self) {
        self.ticket.cancel.cancel();
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// The cancel flag of the job each worker is currently executing, so
    /// shutdown can interrupt in-flight work at its next checkpoint.
    inflight: Mutex<Vec<Option<CancelFlag>>>,
}

/// A fixed-size pool of persistent worker threads.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `workers` (at least one) threads.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            inflight: Mutex::new(vec![None; workers]),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccs-worker-{i}"))
                    .stack_size(ccs_core::par::WORKER_STACK_BYTES)
                    // Workers solve side by side, so each solves on one
                    // core: a nested fan-out would compete with the pool.
                    .spawn(move || ccs_core::par::serially(|| worker_loop(&shared, i)))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted but not yet picked up by a worker.
    pub(crate) fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool queue lock never poisoned")
            .len()
    }

    /// Enqueues a job; some idle worker picks it up.
    pub(crate) fn submit(&self, job: Job) {
        let mut queue = self
            .shared
            .queue
            .lock()
            .expect("pool queue lock never poisoned");
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Shutdown is bounded, not graceful-to-completion: queued jobs are
        // failed with `Cancelled` without running, and in-flight jobs are
        // cancelled cooperatively (they stop at their next checkpoint).
        // Every outstanding `SolveHandle` still completes, so no waiter
        // hangs.
        self.shared.shutdown.store(true, Ordering::Release);
        for flag in self
            .shared
            .inflight
            .lock()
            .expect("pool inflight lock never poisoned")
            .iter()
            .flatten()
        {
            flag.cancel();
        }
        let backlog: Vec<Job> = {
            let mut queue = self
                .shared
                .queue
                .lock()
                .expect("pool queue lock never poisoned");
            queue.drain(..).collect()
        };
        for job in backlog {
            job.ticket.complete(Err(CcsError::Cancelled));
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock never poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("pool queue lock never poisoned");
            }
        };

        // Publish the job's cancel flag, then re-check shutdown: either the
        // pool's drop sees the flag and cancels it, or we see the shutdown
        // it set first — the job cannot slip through and run unbounded.
        shared
            .inflight
            .lock()
            .expect("pool inflight lock never poisoned")[worker] = Some(job.ticket.cancel.clone());
        if shared.shutdown.load(Ordering::Acquire) {
            job.ticket.complete(Err(CcsError::Cancelled));
            continue;
        }

        let mut ctx = SolveContext::unbounded()
            .with_cancel(job.ticket.cancel.clone())
            .with_stats(job.core.stats());
        if let Some(deadline) = job.ticket.deadline {
            ctx = ctx.with_deadline(deadline);
        }
        // A panicking solver must not take the worker down with it: deliver
        // it as an internal error and keep serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            job.core.execute(&job.inst, &job.req, &ctx)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solver panicked".to_string());
            Err(CcsError::internal(format!("solver panicked: {msg}")))
        });
        shared
            .inflight
            .lock()
            .expect("pool inflight lock never poisoned")[worker] = None;
        job.ticket.complete(outcome);
    }
}
