//! Persistent per-rank worker pool for phase execution.
//!
//! The blocked executor used to spawn a fresh `std::thread::scope` of
//! workers for *every phase of every sweep* — `γ · sweeps` thread
//! creations per rank per timestep. A [`WorkerPool`] is created once per
//! compiled plan (or shared across a solver plan's sweeps) and its workers park
//! between phases: dispatching a phase is one mutex lock plus a condvar
//! broadcast, and steady-state execution performs **zero thread spawns**
//! (asserted by [`WorkerPool::threads_spawned`] staying flat while
//! [`WorkerPool::dispatches`] grows).
//!
//! The calling rank thread always participates as worker 0, so a pool for
//! `t`-way threading holds `t − 1` parked workers and `t = 1` needs no pool
//! at all.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One dispatched phase: a type-erased `Fn(worker_index)` plus how many
/// workers (including the caller) should run it.
#[derive(Clone, Copy)]
struct Job {
    /// Borrow of the caller's closure with the lifetime erased. Valid
    /// because [`WorkerPool::run`] does not return until every worker has
    /// checked back in (`remaining == 0`).
    ptr: *const (dyn Fn(usize) + Sync),
    nworkers: usize,
}

// SAFETY: the pointee is `Sync` (it is a `&dyn Fn(usize) + Sync`), and the
// borrow outlives every access (see `Job::ptr`).
unsafe impl Send for Job {}

struct Ctrl {
    /// Incremented per dispatch; workers run when it moves past what they
    /// have seen, which makes missed wakeups impossible.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet checked in for the current epoch.
    remaining: usize,
    shutdown: bool,
    /// First worker panic of the current epoch, re-raised on the caller.
    panicked: Option<Box<dyn Any + Send>>,
}

struct Shared {
    m: Mutex<Ctrl>,
    /// Signaled by the caller when a new epoch (or shutdown) is posted.
    work: Condvar,
    /// Signaled by workers when `remaining` hits zero.
    done: Condvar,
}

/// A fixed set of parked worker threads executing one phase closure at a
/// time. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    dispatches: AtomicU64,
}

impl WorkerPool {
    /// Spawn `nworkers` parked threads (the caller participates as worker 0
    /// on top of these; pass `threads − 1` for `t`-way execution).
    pub fn new(nworkers: usize) -> Self {
        let shared = Arc::new(Shared {
            m: Mutex::new(Ctrl {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panicked: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..nworkers)
            .map(|ti| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mp-sweep-worker-{}", ti + 1))
                    .spawn(move || worker_loop(&shared, ti))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            dispatches: AtomicU64::new(0),
        }
    }

    /// Threads this pool owns (excluding the caller). Flat across a
    /// steady-state window — the zero-spawn assertion.
    pub fn threads_spawned(&self) -> usize {
        self.handles.len()
    }

    /// Phases dispatched through the pool so far.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Run `f(0) … f(nworkers − 1)` across the caller (worker 0) and the
    /// pool, returning when all of them finish. `nworkers` beyond
    /// `threads_spawned() + 1` is capped. Worker panics propagate.
    pub fn run(&self, nworkers: usize, f: &(dyn Fn(usize) + Sync)) {
        if let Err(payload) = self.try_run(nworkers, f) {
            resume_unwind(payload);
        }
    }

    /// Like [`WorkerPool::run`], but a panic on any worker — including the
    /// caller's own worker-0 share — comes back as a value instead of
    /// unwinding, so error-plumbed executors can abort the surrounding run
    /// and return a typed error. The first panic of the dispatch wins; the
    /// pool stays usable afterwards. Always waits for every worker to
    /// check in before returning (the dispatched borrow must outlive all
    /// use even when worker 0 unwinds early).
    pub fn try_run(
        &self,
        nworkers: usize,
        f: &(dyn Fn(usize) + Sync),
    ) -> Result<(), Box<dyn Any + Send>> {
        let nw = nworkers.clamp(1, self.handles.len() + 1);
        if nw <= 1 {
            return catch_unwind(AssertUnwindSafe(|| f(0)));
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        {
            let mut c = self.shared.m.lock().unwrap();
            debug_assert_eq!(c.remaining, 0, "overlapping dispatch");
            // SAFETY: erase the borrow's lifetime; `try_run` blocks below
            // until every worker checked in, so the borrow outlives all use.
            let ptr: *const (dyn Fn(usize) + Sync) = f;
            let ptr: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(ptr) };
            c.job = Some(Job { ptr, nworkers: nw });
            c.epoch += 1;
            // Every pool worker checks in, even those idle this epoch
            // (`ti + 1 >= nw`), so `remaining == 0` means nobody still
            // holds the erased pointer.
            c.remaining = self.handles.len();
            self.shared.work.notify_all();
        }
        // The caller is worker 0 — do our share before blocking.
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let mut c = self.shared.m.lock().unwrap();
        while c.remaining > 0 {
            c = self.shared.done.wait(c).unwrap();
        }
        c.job = None;
        let worker_panic = c.panicked.take();
        drop(c);
        match (caller, worker_panic) {
            (Err(payload), _) => Err(payload),
            (Ok(()), Some(payload)) => Err(payload),
            (Ok(()), None) => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = self.shared.m.lock().unwrap();
            c.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, ti: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut c = shared.m.lock().unwrap();
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen {
                    seen = c.epoch;
                    break c.job.expect("epoch advanced without a job");
                }
                c = shared.work.wait(c).unwrap();
            }
        };
        if ti + 1 < job.nworkers {
            // SAFETY: the dispatching `run` call is blocked until we check
            // in below, so the erased borrow is live.
            let f = unsafe { &*job.ptr };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(ti + 1))) {
                let mut c = shared.m.lock().unwrap();
                if c.panicked.is_none() {
                    c.panicked = Some(payload);
                }
                c.remaining -= 1;
                if c.remaining == 0 {
                    shared.done.notify_all();
                }
                continue;
            }
        }
        let mut c = shared.m.lock().unwrap();
        c.remaining -= 1;
        if c.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_worker_exactly_once_per_dispatch() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads_spawned(), 3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..=10u64 {
            pool.run(4, &|wi| {
                hits[wi].fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(pool.dispatches(), round);
            for (wi, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst) as u64, round, "worker {wi}");
            }
        }
        assert_eq!(pool.threads_spawned(), 3, "steady state must not spawn");
    }

    #[test]
    fn narrow_dispatch_leaves_excess_workers_idle() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        // Only 2 of the 4 potential workers have jobs this phase.
        pool.run(2, &|wi| {
            hits[wi].fetch_add(1, Ordering::SeqCst);
        });
        let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1, 1, 0, 0]);
        // And the pool is immediately reusable at a different width.
        pool.run(4, &|wi| {
            hits[wi].fetch_add(1, Ordering::SeqCst);
        });
        let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![2, 2, 1, 1]);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(3);
        let hit = AtomicUsize::new(0);
        pool.run(1, &|wi| {
            assert_eq!(wi, 0);
            hit.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert_eq!(pool.dispatches(), 0, "inline runs are not dispatches");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|wi| {
                if wi == 2 {
                    panic!("worker 2 exploded");
                }
            });
        }));
        assert!(res.is_err());
        // The pool survives a panic and keeps working.
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn try_run_returns_panics_as_values() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run(3, &|wi| {
                if wi == 1 {
                    panic!("worker 1 exploded");
                }
            })
            .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"worker 1 exploded"));
        // The caller's own worker-0 share is caught too, and the pool
        // stays usable after both kinds of failure.
        let err = pool
            .try_run(3, &|wi| {
                if wi == 0 {
                    panic!("caller exploded");
                }
            })
            .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"caller exploded"));
        let hits = AtomicUsize::new(0);
        assert!(pool
            .try_run(3, &|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            })
            .is_ok());
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn mutable_shards_via_worker_index() {
        // The executor's pattern: each worker mutates its own scratch slot
        // through a raw base pointer indexed by worker id.
        struct SendPtr(*mut u64);
        unsafe impl Send for SendPtr {}
        unsafe impl Sync for SendPtr {}
        let pool = WorkerPool::new(3);
        let mut scratch = [0u64; 4];
        let base = SendPtr(scratch.as_mut_ptr());
        pool.run(4, &move |wi| {
            // Capture the whole SendPtr (not its raw-pointer field) so the
            // closure stays Sync under edition-2021 disjoint capture.
            let base = &base;
            // SAFETY: each worker index is dispatched exactly once per run,
            // so slot `wi` is exclusively ours.
            unsafe { *base.0.add(wi) = (wi as u64 + 1) * 10 };
        });
        assert_eq!(scratch, [10, 20, 30, 40]);
    }
}
