//! A small shared worker pool for the blocked matrix kernels.
//!
//! The pool is process-global and lazy: no threads exist until the first
//! parallel kernel dispatch, after which workers are reused for the life
//! of the process (they block on an idle channel between dispatches, so
//! an idle pool costs nothing but a few kilobytes of stack). The pool
//! grows on demand up to [`MAX_POOL_WORKERS`]; it never shrinks.
//!
//! Thread-count resolution, in priority order:
//!
//! 1. [`set_threads`] — programmatic override (CLI `--threads` flags call
//!    this), `0` clears the override;
//! 2. the `MALEVA_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! Steps 2 and 3 are resolved once per process.
//!
//! The resolved count controls how many row partitions a kernel splits
//! its output into, **not** how many OS threads exist: requesting 8
//! threads on a single-core machine still produces 8 deterministic
//! partitions (serviced by however many workers the OS schedules), which
//! is what makes thread-count sweeps in the determinism tests meaningful
//! everywhere. Results are bit-identical for every thread count because
//! each partition owns a disjoint set of output rows and per-row
//! summation order never changes (see `kernels`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A unit of work executed on a pool worker. Jobs must own their data
/// (`'static`) and report results through their own channel.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hard ceiling on resolved thread counts and spawned pool workers.
pub const MAX_POOL_WORKERS: usize = 64;

/// Multiply-add count (`m * k * n` for a GEMM) above which partitioning
/// a product across the pool pays for the input copies it requires.
///
/// This is the single source of truth for the dispatch decision: every
/// backend that can go parallel asks [`parallel_worthwhile`], and
/// `kernels` re-exports the constant for backward compatibility. Below
/// the threshold the copies and channel round-trip cost more than the
/// arithmetic saves (measured in `linalg_bench`; see DESIGN.md §10).
pub const PARALLEL_WORK_THRESHOLD: usize = 4_000_000;

/// Whether a product with `work` multiply-adds should be partitioned
/// across the pool. Engages exactly at [`PARALLEL_WORK_THRESHOLD`]
/// (`work >= threshold`), which the unit tests pin.
#[inline]
pub fn parallel_worthwhile(work: usize) -> bool {
    work >= PARALLEL_WORK_THRESHOLD
}

/// `0` means "no override"; anything else wins over env and hardware.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count used by parallel kernels (`0` clears the
/// override and falls back to `MALEVA_THREADS` / hardware detection).
/// Values are clamped to [`MAX_POOL_WORKERS`].
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The thread count `MALEVA_THREADS` selects: its value when it is a
/// positive integer, else [`std::thread::available_parallelism`];
/// clamped to [`MAX_POOL_WORKERS`] and always at least 1.
fn threads_from_env(value: Option<&str>) -> usize {
    value
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(MAX_POOL_WORKERS)
}

/// The thread count parallel kernels will partition work into right now.
///
/// Always at least 1. See the module docs for the resolution order; the
/// environment and the hardware are read on the first call that finds
/// no override, and never again.
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced.min(MAX_POOL_WORKERS);
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| threads_from_env(std::env::var("MALEVA_THREADS").ok().as_deref()))
}

struct PoolState {
    sender: Sender<Job>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    spawned: usize,
}

static POOL: OnceLock<Mutex<PoolState>> = OnceLock::new();

fn pool() -> &'static Mutex<PoolState> {
    POOL.get_or_init(|| {
        let (sender, receiver) = channel();
        Mutex::new(PoolState {
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            spawned: 0,
        })
    })
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return, // sender gone: process is tearing down
            }
        };
        // A panicking job must not take the worker down with it; the
        // job's result channel is simply dropped, which the dispatching
        // kernel observes as a RecvError and escalates.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

/// Enqueues `jobs` on the shared pool, spawning workers as needed so at
/// least `min(jobs.len(), MAX_POOL_WORKERS)` workers exist.
pub(crate) fn submit(jobs: Vec<Job>) {
    let mut state = pool().lock().unwrap_or_else(PoisonError::into_inner);
    let want = jobs.len().min(MAX_POOL_WORKERS);
    while state.spawned < want {
        let rx = Arc::clone(&state.receiver);
        let id = state.spawned;
        std::thread::Builder::new()
            .name(format!("maleva-linalg-{id}"))
            .spawn(move || worker_loop(rx))
            .expect("failed to spawn linalg pool worker");
        state.spawned += 1;
    }
    for job in jobs {
        // Send can only fail if every receiver is gone, which cannot
        // happen while the pool state (and its receiver Arc) is alive.
        state
            .sender
            .send(job)
            .expect("linalg pool receiver disappeared");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn effective_threads_is_positive() {
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn env_threads_resolve_to_a_positive_clamped_count() {
        let hardware = threads_from_env(None);
        assert!((1..=MAX_POOL_WORKERS).contains(&hardware));
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 5 ")), 5);
        assert_eq!(threads_from_env(Some("1000")), MAX_POOL_WORKERS);
        for ignored in ["0", "-2", "many", ""] {
            assert_eq!(threads_from_env(Some(ignored)), hardware, "{ignored:?}");
        }
    }

    #[test]
    fn parallel_dispatch_engages_exactly_at_threshold() {
        // The pooled path must engage at `work >= threshold`, not one
        // element sooner or later — backends and docs both promise it.
        assert!(!parallel_worthwhile(PARALLEL_WORK_THRESHOLD - 1));
        assert!(parallel_worthwhile(PARALLEL_WORK_THRESHOLD));
        assert!(parallel_worthwhile(PARALLEL_WORK_THRESHOLD + 1));
        assert!(!parallel_worthwhile(0));
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        set_threads(3);
        assert_eq!(effective_threads(), 3);
        set_threads(MAX_POOL_WORKERS + 100);
        assert_eq!(effective_threads(), MAX_POOL_WORKERS);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn submitted_jobs_all_run() {
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let tx = tx.clone();
                Box::new(move || {
                    tx.send(i).expect("collector alive");
                }) as Job
            })
            .collect();
        submit(jobs);
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        submit(vec![Box::new(|| panic!("deliberate test panic")) as Job]);
        // The pool must still service later jobs.
        let (tx, rx) = mpsc::channel();
        submit(vec![Box::new(move || {
            tx.send(42u32).expect("collector alive");
        }) as Job]);
        assert_eq!(rx.recv().expect("job ran"), 42);
    }
}
