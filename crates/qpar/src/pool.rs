//! The persistent worker pool behind [`crate::map_owned`] /
//! [`crate::for_each_owned`].
//!
//! ## Design: ownership-passing, no `unsafe`
//!
//! Workers are plain `std::thread::spawn` threads that live for the rest
//! of the process, popping jobs from a shared queue. A job is a
//! `Box<dyn FnOnce() + Send + 'static>`: it **owns** everything it
//! touches (its input stripe, an `Arc` of the map closure, the result
//! channel). That ownership transfer is the whole safety story — no
//! lifetime erasure, no `unsafe`, nothing borrowed ever reaches a thread
//! that could outlive the borrow. The cost is that borrowing callers
//! (the in-place gate kernels handing out disjoint `&mut` slices) cannot
//! use the pool; they stay on the scoped-thread executor
//! ([`crate::for_each_threads`]), which remains the fallback everywhere.
//!
//! ## Queue and completion protocol
//!
//! One `mpsc` channel feeds all workers (the receiver sits behind a
//! mutex; workers block on `recv`). Each [`run_owned`] call creates its
//! own return channel and tags jobs with their stripe index, so
//! concurrent calls from different threads never see each other's
//! results and completion order cannot perturb output order. Stripe 0
//! runs on the calling thread — identical to the scoped executor — so a
//! single-worker pool still overlaps caller and worker.
//!
//! ## Panic and nesting behavior
//!
//! Worker panics are caught ([`std::panic::catch_unwind`]), shipped back
//! through the return channel and re-raised on the calling thread —
//! matching [`crate::map_threads`]. A job that itself calls
//! [`crate::map_owned`] takes the scoped-thread fallback for its nested
//! fan-out (a worker blocking on its own pool could deadlock the
//! queue); the [`in_worker`] thread-local makes that detection free.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// Hard cap on pool workers: fan-outs beyond this stripe count queue
/// behind the existing workers instead of spawning more.
pub const MAX_POOL_WORKERS: usize = 16;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs currently sitting in the queue (enqueued, not yet started).
static QUEUE_DEPTH: qobs::LazyGauge = qobs::LazyGauge::new("qpar_queue_depth");
/// Time a job spent queued before a worker picked it up.
static JOB_WAIT_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qpar_job_wait_ns");
/// Time a job spent executing on a worker.
static JOB_RUN_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qpar_job_run_ns");

/// Wraps a queued job with queue-depth / wait / run instrumentation.
/// One relaxed load when observability is off.
fn instrumented(job: Job) -> Job {
    if !qobs::enabled() {
        return job;
    }
    QUEUE_DEPTH.add(1);
    let queued = std::time::Instant::now();
    Box::new(move || {
        QUEUE_DEPTH.sub(1);
        JOB_WAIT_NS.record_duration(queued.elapsed());
        let start = std::time::Instant::now();
        job();
        JOB_RUN_NS.record_duration(start.elapsed());
    })
}

struct Pool {
    sender: Sender<Job>,
    /// Receiver end shared by every worker.
    receiver: Arc<Mutex<Receiver<Job>>>,
    /// Workers successfully spawned so far.
    workers: AtomicUsize,
    /// Guards worker spawning (so two racing fan-outs do not overshoot).
    grow: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Thread-local pool toggle; on unless inside [`with_enabled`]`(false, …)`.
    static LOCAL_ENABLED: Cell<bool> = const { Cell::new(true) };
    /// Set for the lifetime of every pool worker thread.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the pooled executor is enabled for this thread: always, except
/// inside a [`with_enabled`]`(false, …)` scope (how the equivalence suites
/// reach the scoped-thread fallback).
pub fn enabled() -> bool {
    LOCAL_ENABLED.with(Cell::get)
}

/// Runs `f` with the pool forced on or off for the calling thread
/// (restores the previous setting on exit, even on panic).
pub fn with_enabled<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_ENABLED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_ENABLED.with(|c| c.replace(on)));
    f()
}

/// Whether the calling thread is itself a pool worker (nested fan-outs
/// must not block on the queue they are draining).
pub fn in_worker() -> bool {
    IS_WORKER.with(Cell::get)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let (sender, receiver) = channel::<Job>();
        Pool {
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            workers: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    })
}

/// Ensures at least `min(wanted, MAX_POOL_WORKERS)` workers exist;
/// returns the live worker count (0 when spawning fails entirely).
fn ensure_workers(wanted: usize) -> usize {
    let p = pool();
    let target = wanted.min(MAX_POOL_WORKERS);
    if p.workers.load(Ordering::Acquire) >= target {
        return p.workers.load(Ordering::Acquire);
    }
    let _g = p.grow.lock().expect("pool grow lock poisoned");
    let mut have = p.workers.load(Ordering::Acquire);
    while have < target {
        let receiver = Arc::clone(&p.receiver);
        let spawned = std::thread::Builder::new()
            .name(format!("qpar-pool-{have}"))
            .spawn(move || {
                IS_WORKER.with(|c| c.set(true));
                loop {
                    let job = {
                        let rx = receiver.lock().expect("pool queue lock poisoned");
                        rx.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // sender gone: process is exiting
                    }
                }
            });
        if spawned.is_err() {
            break;
        }
        have += 1;
        p.workers.store(have, Ordering::Release);
    }
    have
}

/// Whether a fan-out of `threads` stripes should take the pooled
/// executor right now: pool enabled for this thread, not already inside
/// a worker, more than one stripe, and at least one worker available.
pub fn active(threads: usize) -> bool {
    threads > 1 && enabled() && !in_worker() && ensure_workers(threads - 1) > 0
}

/// Runs owned jobs on the pool, returning their results in job order.
/// Job 0 executes on the calling thread (the scoped executor's stripe-0
/// convention); the rest are queued. Panics from any job are re-raised
/// on the calling thread after all jobs have finished.
///
/// Callers are expected to have checked [`active`]; if no worker exists
/// the queued jobs would never run, so this falls back to running every
/// job inline.
pub fn run_owned<R: Send + 'static>(jobs: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 || ensure_workers(n - 1) == 0 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let (tx, rx) = channel::<(usize, std::thread::Result<R>)>();
    let mut jobs = VecDeque::from(jobs);
    let first = jobs.pop_front().expect("n >= 1");
    for (i, job) in jobs.into_iter().enumerate() {
        let tx = tx.clone();
        let wrapped: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            // A receiver that hung up (caller panicked) is not our
            // problem; dropping the result is fine then.
            let _ = tx.send((i + 1, result));
        });
        pool()
            .sender
            .send(instrumented(wrapped))
            .expect("pool queue receiver lives as long as the process");
    }
    drop(tx);
    let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    slots[0] = Some(catch_unwind(AssertUnwindSafe(first)));
    for _ in 1..n {
        let (i, result) = rx.recv().expect("every queued job reports exactly once");
        slots[i] = Some(result);
    }
    let mut out = Vec::with_capacity(n);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for slot in slots {
        match slot.expect("all slots filled") {
            Ok(r) => out.push(r),
            Err(p) => panic = Some(p),
        }
    }
    if let Some(p) = panic {
        resume_unwind(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_owned_preserves_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..24)
            .map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i * 7);
                job
            })
            .collect();
        let got = run_owned(jobs);
        assert_eq!(got, (0..24).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn run_owned_handles_empty_and_single() {
        assert_eq!(run_owned::<u8>(Vec::new()), Vec::<u8>::new());
        let one: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 9)];
        assert_eq!(run_owned(one), vec![9]);
    }

    #[test]
    fn run_owned_propagates_panics_after_draining() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8)
            .map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                    assert!(i != 5, "boom");
                    i
                });
                job
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| run_owned(jobs)));
        assert!(result.is_err());
    }

    #[test]
    fn with_enabled_overrides_and_restores() {
        let ambient = enabled();
        assert!(!with_enabled(false, enabled));
        assert!(with_enabled(true, enabled));
        assert_eq!(enabled(), ambient);
    }

    #[test]
    fn workers_are_capped() {
        assert!(ensure_workers(1000) <= MAX_POOL_WORKERS);
    }
}
