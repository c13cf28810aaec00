//! Bounded worker pool for coarse-grained parallel work: experiment grid
//! cells, fleet shards and lint files.
//!
//! [`run_indexed`] runs `n` independent jobs across at most [`max_jobs`]
//! scoped threads (the caller participates as one worker) and returns the
//! results **in index order**, so parallel execution is observationally
//! identical to a serial loop. Every call spawns and joins its threads, so
//! a job must be worth far more than a thread round trip: y-search, whose
//! per-decision work is a few microseconds, runs on the deciding thread
//! instead (`paldia_core::ysearch`).
//!
//! Concurrency cap resolution, highest priority first:
//!
//! 1. [`set_jobs`] — process-wide programmatic override (`repro --jobs N`);
//! 2. the `PALDIA_JOBS` environment variable;
//! 3. `std::thread::available_parallelism()`.
//!
//! Nested calls run inline on the calling worker: a pool job that itself
//! calls [`run_indexed`] (e.g. an experiment cell whose fleet runs sharded)
//! executes serially instead of oversubscribing the host. This also keeps
//! nested work deterministic regardless of the outer pool's schedule.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Set the process-wide worker cap. `0` clears the override.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The effective worker cap: [`set_jobs`], else `PALDIA_JOBS`, else
/// `available_parallelism()`.
pub fn max_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("PALDIA_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True while the current thread is executing a pool job; used by nested
/// calls to fall back to inline serial execution.
pub fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Run `f(0) .. f(n-1)` across at most [`max_jobs`] threads and return the
/// results in index order. Workers claim indices from a shared counter, so
/// load imbalance between jobs does not idle threads; the deterministic
/// index-order merge makes the output independent of scheduling.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let jobs = max_jobs().min(n);
    if jobs <= 1 || in_pool() {
        return (0..n).map(f).collect();
    }

    // A worker that hits a panicking job stops claiming further indices and
    // carries the payload back; the submitter re-raises it (lowest job index
    // first, so concurrent failures surface deterministically) instead of
    // dying on a bare `JoinHandle::join` error with the context lost.
    type Panic = Box<dyn std::any::Any + Send + 'static>;
    let next = AtomicUsize::new(0);
    let work = |out: &mut Vec<(usize, T)>| -> Result<(), (usize, Panic)> {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return Ok(());
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => out.push((i, v)),
                Err(payload) => return Err((i, payload)),
            }
        }
    };

    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut failures: Vec<(usize, Panic)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs - 1)
            .map(|_| {
                s.spawn(|| {
                    IN_POOL.with(|c| c.set(true));
                    let mut out = Vec::new();
                    let status = work(&mut out);
                    (out, status)
                })
            })
            .collect();
        // The calling thread is the last worker.
        IN_POOL.with(|c| c.set(true));
        let status = work(&mut tagged);
        IN_POOL.with(|c| c.set(false));
        if let Err(fail) = status {
            failures.push(fail);
        }
        for h in handles {
            let (out, status) = h
                .join()
                .expect("invariant: pool workers catch their jobs' panics");
            tagged.extend(out);
            if let Err(fail) = status {
                failures.push(fail);
            }
        }
    });
    if let Some((i, payload)) = failures.into_iter().min_by_key(|&(i, _)| i) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        match msg {
            Some(m) => resume_unwind(Box::new(format!("pool job {i} panicked: {m}"))),
            None => resume_unwind(payload),
        }
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_job() {
        assert!(run_indexed(0, |i| i).is_empty());
        assert_eq!(run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_calls_run_inline() {
        let out = run_indexed(4, |i| {
            assert!(in_pool() || max_jobs() == 1);
            // The nested call must not deadlock or reorder.
            run_indexed(3, move |j| i * 10 + j)
        });
        assert_eq!(out[2], vec![20, 21, 22]);
    }

    /// Serializes the tests that touch the process-global jobs override.
    static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn panicking_job_reaches_the_submitter_with_its_index() {
        let _guard = JOBS_LOCK.lock().unwrap();
        // Force real worker threads so the panic crosses a join.
        set_jobs(2);
        let caught = std::panic::catch_unwind(|| {
            run_indexed(8, |i| {
                if i == 3 {
                    panic!("shard 3 diverged");
                }
                i
            })
        });
        set_jobs(0);
        let payload = caught.expect_err("the job panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic message");
        assert!(msg.contains("pool job 3"), "missing job index: {msg}");
        assert!(msg.contains("shard 3 diverged"), "missing cause: {msg}");
    }

    #[test]
    fn jobs_override_round_trips() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(3);
        assert_eq!(max_jobs(), 3);
        set_jobs(0);
        assert!(max_jobs() >= 1);
    }
}
