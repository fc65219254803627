//! **fs-exec** — a deterministic parallel execution engine for the
//! standalone simulator.
//!
//! The standalone runner trains each round's sampled clients between two
//! dispatch barriers: client handlers are independent of one another until
//! the server reduces their replies. That independence is what this crate
//! exploits: a fixed-size [`WorkerPool`] executes client jobs concurrently
//! while the caller *adopts results in a fixed order*, so every observable
//! artifact (reports, RNG streams, virtual-time accounting) stays
//! bit-identical to serial execution.
//!
//! Design constraints, in order of priority:
//!
//! 1. **Determinism first.** The pool never decides ordering — callers
//!    submit jobs, keep the [`JobHandle`]s, and join them in the order the
//!    serial simulator would have produced them. [`WorkerPool::run_ordered`]
//!    packages the common fan-out/ordered-collect shape.
//! 2. **Serial fallback is the identity.** With `threads <= 1` the pool
//!    spawns no threads and runs each job inline at `spawn` time, making the
//!    parallel code path structurally identical to the serial one. A
//!    `parallelism = 1` run therefore exercises the exact pre-pool code.
//! 3. **Panics propagate.** A panicking job re-raises its payload at
//!    `join()` on the submitting thread, preserving `should_panic` test
//!    semantics and the runner's crash diagnostics.
//!
//! Built on the vendored `crossbeam` channel (an MPMC queue): workers loop
//! on `recv()` and exit when the pool drops the sender side.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A unit of work shipped to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handle to one submitted job's result.
///
/// `join()` blocks until the job finishes and returns its output; if the
/// job panicked, the panic is re-raised here, on the joining thread.
/// `try_join()` is the non-panicking variant: it reports both failure modes
/// as a typed [`JoinError`] so runners can degrade gracefully (e.g. mark a
/// client failed) instead of tearing down the whole course.
pub struct JobHandle<T> {
    rx: mpsc::Receiver<std::thread::Result<T>>,
}

/// Why a job produced no result.
pub enum JoinError {
    /// The job panicked; the payload is the panic value, suitable for
    /// re-raising via [`std::panic::resume_unwind`].
    Panicked(Box<dyn std::any::Any + Send + 'static>),
    /// The worker dropped the job without reporting a result — the pool
    /// died between accepting the job and running it. Indicates a pool bug.
    Lost,
}

impl fmt::Debug for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Panicked(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                write!(f, "Panicked({msg:?})")
            }
            JoinError::Lost => write!(f, "Lost"),
        }
    }
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Panicked(_) => write!(f, "job panicked"),
            JoinError::Lost => write!(f, "worker dropped the job without reporting"),
        }
    }
}

impl std::error::Error for JoinError {}

impl<T> JobHandle<T> {
    /// Waits for the job; a panicking or lost job comes back as a typed
    /// error instead of unwinding the joining thread.
    pub fn try_join(self) -> Result<T, JoinError> {
        match self.rx.recv() {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(payload)) => Err(JoinError::Panicked(payload)),
            // The result sender is dropped only after a send or if the
            // worker died between catch_unwind and send.
            Err(_) => Err(JoinError::Lost),
        }
    }

    /// Waits for the job and returns its result, re-raising its panic.
    pub fn join(self) -> T {
        match self.try_join() {
            Ok(value) => value,
            Err(JoinError::Panicked(payload)) => resume_unwind(payload),
            #[expect(
                clippy::panic,
                reason = "a lost job means the pool itself is broken; there is no caller-side recovery"
            )]
            Err(JoinError::Lost) => panic!("fs-exec: worker dropped a job without reporting"),
        }
    }
}

/// A scoped pool of OS worker threads executing submitted jobs.
///
/// Dropping the pool closes the job queue and joins every worker, so no job
/// outlives the pool (poor man's scoped threads — jobs still require
/// `'static` captures, which the simulator satisfies by *moving* client
/// state into jobs and back out through [`JobHandle::join`]).
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers. `threads <= 1` creates no
    /// threads at all: jobs run inline at `spawn` time (serial identity).
    /// `threads == 0` is resolved via [`std::thread::available_parallelism`].
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 {
            return Self {
                tx: None,
                workers: Vec::new(),
                threads: 1,
            };
        }
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        #[expect(
            clippy::expect_used,
            reason = "OS thread spawn failing at pool construction is unrecoverable resource exhaustion"
        )]
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("fs-exec-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("fs-exec: spawn worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
            threads,
        }
    }

    /// Number of workers (1 means inline/serial execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits a job and returns a handle to its eventual result.
    ///
    /// In inline mode the job runs right here, before `spawn` returns —
    /// exactly the serial execution order.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let job = move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            // receiver gone means the caller dropped the handle; the job's
            // effects were side-effect-free by contract, so ignore
            let _ = tx.send(result);
        };
        match &self.tx {
            #[expect(
                clippy::unreachable,
                reason = "the pool owns both channel ends; a send failure violates the type's own invariant"
            )]
            Some(pool_tx) => {
                if pool_tx.send(Box::new(job)).is_err() {
                    unreachable!("fs-exec: pool workers alive while pool exists");
                }
            }
            None => job(),
        }
        JobHandle { rx }
    }

    /// Fans `items` out to the pool and returns outputs in input order —
    /// the deterministic reduce: result `i` is item `i`'s output no matter
    /// which worker ran it or when it finished.
    pub fn run_ordered<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + Clone + 'static,
    {
        let handles: Vec<JobHandle<T>> = items
            .into_iter()
            .map(|item| {
                let f = f.clone();
                self.spawn(move || f(item))
            })
            .collect();
        handles.into_iter().map(JobHandle::join).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // closing the channel makes every worker's recv() fail → clean exit
        self.tx.take();
        for w in self.workers.drain(..) {
            // a worker panicking outside a job is a pool bug; surface it
            if let Err(payload) = w.join() {
                resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn run_ordered_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_ordered((0..64u64).collect(), |i| i * i);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn inline_mode_runs_jobs_at_spawn_time() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let handle = pool.spawn(move || r.fetch_add(1, Ordering::SeqCst));
        // job already executed, before join
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        handle.join();
    }

    #[test]
    fn all_jobs_complete_across_workers() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..100)
            .map(|_| {
                let c = counter.clone();
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn try_join_reports_panics_as_typed_errors() {
        let pool = WorkerPool::new(2);
        let ok = pool.spawn(|| 7u32);
        let bad = pool.spawn(|| -> u32 { panic!("job exploded") });
        assert_eq!(ok.try_join().unwrap(), 7);
        let err = bad.try_join().unwrap_err();
        assert!(matches!(err, JoinError::Panicked(_)));
        let rendered = format!("{err:?}");
        assert!(rendered.contains("job exploded"), "got {rendered}");
        assert_eq!(err.to_string(), "job panicked");
        // the pool survives: later jobs still run and join cleanly
        assert_eq!(pool.spawn(|| 1 + 1).try_join().unwrap(), 2);
    }

    #[test]
    fn join_propagates_panics() {
        let pool = WorkerPool::new(2);
        let ok = pool.spawn(|| 7u32);
        let bad = pool.spawn(|| -> u32 { panic!("job exploded") });
        assert_eq!(ok.join(), 7);
        let err = catch_unwind(AssertUnwindSafe(|| bad.join())).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job exploded"), "got panic payload {msg:?}");
        // pool survives a panicking job
        assert_eq!(pool.spawn(|| 1 + 1).join(), 2);
    }

    #[test]
    fn inline_join_propagates_panics() {
        let pool = WorkerPool::new(1);
        let bad = pool.spawn(|| -> u32 { panic!("inline boom") });
        assert!(catch_unwind(AssertUnwindSafe(|| bad.join())).is_err());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        let out = pool.run_ordered(vec![1, 2, 3], |i| i * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..10 {
                let c = counter.clone();
                // fire-and-forget: handles dropped, results discarded
                let _ = pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop waits for the queue to drain
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
