//! Std-only scoped-thread worker pool for embarrassingly parallel loops.
//!
//! The ILP's constraint generation and the Monte Carlo sweep share the same
//! shape of hot loop: evaluate N independent jobs (paths, samples) and
//! collect the results in order. [`parallel_gen`] runs such loops across
//! `std::thread::scope` workers without any external dependency, falling
//! back to a plain serial loop when only one worker is available or the job
//! is trivially small.
//!
//! # Determinism
//!
//! Workers claim indices from a shared atomic counter but write each result
//! into its own slot, so the returned `Vec` is always in input order — the
//! output is identical to the serial loop regardless of scheduling. Callers
//! stay reproducible as long as each job is a pure function of its index.
//!
//! # Sizing
//!
//! The pool size is `min(jobs / MIN_JOBS_PER_WORKER, threads())` where
//! [`threads`] defaults to [`std::thread::available_parallelism`] and can be
//! pinned with the `FBB_THREADS` environment variable (e.g. `FBB_THREADS=1`
//! forces every loop serial — useful for benchmark baselines and bisection).
//! Dividing by [`MIN_JOBS_PER_WORKER`] keeps the pool from spawning when
//! each worker would get so little work that thread startup dominates —
//! small loops run serially instead of paying for threads that slow them
//! down.
//!
//! # One budget, read per loop
//!
//! Every loop sizes itself from [`threads`], which reads `FBB_THREADS` on
//! each call. That per-call read is deliberate: tests and benches change
//! the variable at runtime, and an embedding process can set it in-process
//! to pin every solve serial. A daemon (`fbb serve --workers N`) fixes the
//! number of *solve workers* once at startup, but the loops inside each
//! solve still size themselves here, from the same environment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Worker-thread budget for parallel loops.
///
/// Reads the `FBB_THREADS` environment variable (clamped to ≥ 1) on every
/// call — so tests and benches can toggle it at runtime — and falls back to
/// [`std::thread::available_parallelism`], which is cached: on Linux it
/// walks cgroup files and costs microseconds per query, far too slow for a
/// function consulted inside allocator hot loops.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var("FBB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Minimum jobs a worker must be able to claim before spawning it pays off.
///
/// Spawning an OS thread costs tens of microseconds; a worker that will only
/// ever claim one or two jobs of comparable size loses that startup cost.
/// The benchmark that exposed this (`sta_engine`, Monte Carlo over 64 dies)
/// showed the pool *slowing the loop down* when the per-worker share fell
/// below a handful of jobs, so [`worker_count`] refuses to spread jobs
/// thinner than this.
pub const MIN_JOBS_PER_WORKER: usize = 4;

/// Number of workers a loop over `jobs` items would use.
///
/// At most `jobs / MIN_JOBS_PER_WORKER` workers are spawned (never more
/// than [`threads`]); loops too small to feed every worker at least
/// [`MIN_JOBS_PER_WORKER`] jobs shrink the pool, down to `1` — fully
/// serial, no threads spawned.
pub fn worker_count(jobs: usize) -> usize {
    workers_for(threads(), jobs)
}

/// [`worker_count`] for an explicit thread budget; budget `0` is treated
/// as `1` — fully serial.
fn workers_for(budget: usize, jobs: usize) -> usize {
    budget.min(jobs / MIN_JOBS_PER_WORKER).max(1)
}

/// Runs `f(0..n)` across the worker pool and returns the results in index
/// order. Equivalent to `(0..n).map(f).collect()` but concurrent.
///
/// `f` must be safe to call from multiple threads; results are deterministic
/// when `f` is a pure function of its index.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub fn parallel_gen<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    gen_with_budget(threads(), n, f)
}

/// [`parallel_gen`] for an explicit thread budget, still subject to the
/// [`MIN_JOBS_PER_WORKER`] clamp.
fn gen_with_budget<R, F>(budget: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers_for(budget, n);
    let serial = workers <= 1 || n <= 1;
    if fbb_telemetry::is_enabled() {
        // NOTE: `par_*` counters legitimately vary with `FBB_THREADS` (the
        // serial/parallel split depends on the worker budget); determinism
        // comparisons across thread counts must exclude them.
        fbb_telemetry::counter("par_loops", 1);
        fbb_telemetry::counter("par_jobs", n as u64);
        if !serial {
            fbb_telemetry::counter("par_parallel_loops", 1);
            fbb_telemetry::counter("par_workers_spawned", workers as u64);
        }
    }
    if serial {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_matches_serial_map() {
        let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
        assert_eq!(parallel_gen(257, |i| i * i), expect);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_gen(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_gen(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1) == 1);
        assert!(worker_count(10_000) >= 1);
        assert!(worker_count(10_000) <= threads());
    }

    #[test]
    fn small_loops_stay_serial() {
        // Below MIN_JOBS_PER_WORKER jobs there is nothing to split,
        // whatever the thread budget says.
        for jobs in 0..MIN_JOBS_PER_WORKER {
            assert_eq!(worker_count(jobs), 1, "jobs={jobs}");
        }
        // And the pool never spreads jobs thinner than the threshold.
        for jobs in [8, 64, 1000] {
            assert!(worker_count(jobs) <= jobs / MIN_JOBS_PER_WORKER, "jobs={jobs}");
        }
    }

    #[test]
    fn explicit_budget_ignores_env() {
        // A fixed budget must behave identically whatever FBB_THREADS says;
        // these are pure-arithmetic checks, no env mutation required.
        assert_eq!(workers_for(0, 10_000), 1);
        assert_eq!(workers_for(1, 10_000), 1);
        assert_eq!(workers_for(4, 10_000), 4);
        assert_eq!(workers_for(4, 8), 2); // MIN_JOBS_PER_WORKER clamp
        let expect: Vec<usize> = (0..257).map(|i| i * 3).collect();
        assert_eq!(gen_with_budget(1, 257, |i| i * 3), expect);
        assert_eq!(gen_with_budget(8, 257, |i| i * 3), expect);
    }

    #[test]
    fn panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            parallel_gen(64, |i| {
                if i == 17 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
