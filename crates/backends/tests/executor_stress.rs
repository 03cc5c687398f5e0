//! Concurrent-caller stress of the process-wide shared executor pool.
//!
//! `ExecutorPool::shared(n)` is the resource the solve service multiplexes
//! tenants onto: many service workers (and backend instances) call into
//! one pool per thread budget at once. These tests hammer that path from
//! many OS threads simultaneously and check the pool's contract holds
//! under contention: one pool instance per budget, every submitted job
//! runs exactly once, counters stay consistent, and nothing deadlocks.

// ORDERING: the counters here only tally completions; `Relaxed` suffices
// because `ExecutorPool::run` itself is the synchronization point — it
// does not return until every job has finished.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use gaia_backends::exec::{ExecutorPool, Job};

#[test]
fn shared_returns_one_pool_per_budget_under_concurrent_first_access() {
    // 16 threads race the OnceLock + HashMap initialization for the same
    // budgets; every caller must observe the same Arc per budget.
    let barrier = Arc::new(Barrier::new(16));
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let budget = 2 + (i % 2); // budgets 2 and 3
                (budget, ExecutorPool::shared(budget))
            })
        })
        .collect();
    let pools: Vec<(usize, Arc<ExecutorPool>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for budget in [2usize, 3] {
        let mut iter = pools.iter().filter(|(b, _)| *b == budget);
        let (_, first) = iter.next().expect("at least one caller per budget");
        assert_eq!(first.threads(), budget);
        for (_, p) in iter {
            assert!(
                Arc::ptr_eq(first, p),
                "two callers got distinct pools for budget {budget}"
            );
        }
    }
}

#[test]
fn concurrent_callers_share_one_pool_without_losing_jobs() {
    const CALLERS: usize = 12;
    const LAUNCHES: usize = 25;
    const JOBS: usize = 8;
    // The shared pools are process-global and the tests of this binary run
    // concurrently: the exact counter deltas below hold only on a budget
    // no sibling test launches on (they use 2, 3 and 4).
    const BUDGET: usize = 5;

    let pool = ExecutorPool::shared(BUDGET);
    let launches_before = pool.launch_count();
    let jobs_before = pool.jobs_run_count();

    let executed = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(CALLERS));
    let handles: Vec<_> = (0..CALLERS)
        .map(|_| {
            let executed = Arc::clone(&executed);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let pool = ExecutorPool::shared(BUDGET);
                barrier.wait();
                for _ in 0..LAUNCHES {
                    // Per-launch completion sum proves `run` returned only
                    // after every one of *its own* jobs finished, even with
                    // 11 other callers feeding the same queue.
                    let local = AtomicU64::new(0);
                    let jobs: Vec<Job<'_>> = (0..JOBS)
                        .map(|_| {
                            let local = &local;
                            let executed = Arc::clone(&executed);
                            Box::new(move || {
                                local.fetch_add(1, Ordering::Relaxed);
                                executed.fetch_add(1, Ordering::Relaxed);
                            }) as Job<'_>
                        })
                        .collect();
                    pool.run(jobs);
                    assert_eq!(local.load(Ordering::Relaxed), JOBS as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no caller may deadlock or panic");
    }

    let total = (CALLERS * LAUNCHES * JOBS) as u64;
    assert_eq!(executed.load(Ordering::Relaxed), total);
    // Counter deltas are exact: jobs run exactly once, launches counted
    // exactly once per `run`, with no double-execution under contention.
    assert_eq!(pool.jobs_run_count() - jobs_before, total);
    assert_eq!(
        pool.launch_count() - launches_before,
        (CALLERS * LAUNCHES) as u64
    );
}

#[test]
fn mixed_budget_callers_do_not_interfere() {
    // Callers on different budgets use different pools concurrently;
    // each pool's job accounting stays internally consistent.
    let barrier = Arc::new(Barrier::new(6));
    let handles: Vec<_> = [2usize, 3, 4, 2, 3, 4]
        .into_iter()
        .map(|budget| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let pool = ExecutorPool::shared(budget);
                barrier.wait();
                let hits = AtomicU64::new(0);
                for _ in 0..10 {
                    let jobs: Vec<Job<'_>> = (0..budget)
                        .map(|_| {
                            let hits = &hits;
                            Box::new(move || {
                                hits.fetch_add(1, Ordering::Relaxed);
                            }) as Job<'_>
                        })
                        .collect();
                    pool.run(jobs);
                }
                assert_eq!(hits.load(Ordering::Relaxed), (10 * budget) as u64);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
