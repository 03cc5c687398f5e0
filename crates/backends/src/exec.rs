//! Persistent executor pool: the single launch choke point for all
//! parallel backends.
//!
//! The paper's frameworks (CUDA, HIP, SYCL, OpenMP) all launch kernels onto
//! a *persistent* runtime — a context, queue, or team that outlives each
//! individual launch. Our previous CPU reproduction instead spawned fresh OS
//! threads inside every `aprod1`/`aprod2` call (two spawn waves per LSQR
//! iteration, thousands per solve), which pSTL-Bench (Laso et al., 2024)
//! identifies as exactly the kind of runtime overhead that dominates
//! parallel-STL scalability at small-to-mid problem sizes. [`ExecutorPool`]
//! fixes that: workers are spawned **once**, parked on a condvar, and reused
//! across every launch; `run` provides the scoped-borrow semantics the
//! kernels need (jobs may borrow the caller's stack) with the classic
//! scoped-pool latch protocol.
//!
//! Telemetry (launch count, inline-vs-pooled, spawn-vs-reuse, worker wait
//! time) is recorded here — at the single choke point — instead of being
//! re-implemented per backend.
//!
//! ORDERING: the pool uses three atomic protocols. (1) Latch completion:
//! each worker decrements `remaining` with `AcqRel` and the launcher
//! spin-loads it with `Acquire`, so every job's writes happen-before the
//! launcher observes zero; the `panicked` flag is written `Relaxed` but
//! *before* the decrement, so it rides the same release sequence. (2)
//! Shutdown: the `Release` store in `drop` pairs with the workers'
//! `Acquire` loads. (3) Statistics and schedule-controller counters
//! (`launches`, `jobs_run`, `decisions`) are independent event counts read
//! only for reporting — `Relaxed` is the weakest correct ordering.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work submitted to the pool. Jobs may borrow from the caller's
/// stack; [`ExecutorPool::run`] guarantees they complete before it returns.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Schedule-exploration hooks (`sched-test` feature).
///
/// The policy-grid proptest only ever observes the interleavings the OS
/// happens to schedule, so a racy `Aprod2Strategy` could pass forever. This
/// module lets a test harness *own* worker progress at the pool's single
/// launch choke point: a [`sched::ScheduleController`] installed on an
/// [`ExecutorPool`] via [`ExecutorPool::set_schedule`] applies a seeded
/// random permutation to job pickup order, injects forced preemption at
/// [`sched::preempt_point`] probe points, skews job start times
/// (barrier-skew), and busy-blocks a seeded subset of executing workers
/// (worker starvation). With the feature off, the pool carries no
/// controller state and `preempt_point` is an empty `#[inline(always)]`
/// function — zero cost.
#[cfg(feature = "sched-test")]
pub mod sched {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use super::Job;

    /// SplitMix64 finalizer: the hash behind every seeded decision.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Busy-wait for `ns` nanoseconds. Spinning (instead of sleeping)
    /// keeps the perturbation granularity well below the OS timer slack,
    /// so schedules stay in the microsecond regime the races live in.
    fn spin(ns: u64) {
        // gaia-analyze: allow(timing): the schedule perturbator needs a raw
        // monotonic clock to busy-wait for nanoseconds; this is not a
        // measurement and never reaches a report.
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    /// Adverse-schedule generator for one exploration run.
    ///
    /// All decisions derive from the seed: the job-pickup permutation is an
    /// exact function of `(seed, launch)`, while preemption decisions also
    /// fold in a global decision counter (true cross-thread determinism is
    /// not achievable on OS threads; the counter keeps every probe call
    /// making a *different* seeded decision instead of all-or-nothing).
    #[derive(Debug)]
    pub struct ScheduleController {
        seed: u64,
        /// Permute the order jobs are pushed to the queue (seeded
        /// Fisher-Yates), so workers pick them up in adversarial order.
        pub shuffle: bool,
        /// Probability (per mille) that a [`preempt_point`] probe yields
        /// and spins, widening any load→store race window around it.
        pub preempt_permille: u32,
        /// Maximum spin per forced preemption, nanoseconds.
        pub preempt_max_ns: u64,
        /// Maximum seeded start delay per job (barrier skew): some jobs of
        /// a wave start late, so others race far ahead.
        pub skew_max_ns: u64,
        /// Starve one of `lane_count` job lanes: every job whose index
        /// falls in the victim lane busy-blocks its executing worker for
        /// [`ScheduleController::starve_ns`], forcing the remaining lanes
        /// to drain the queue.
        pub starve_lane: Option<u64>,
        /// Modulus for [`ScheduleController::starve_lane`].
        pub lane_count: u64,
        /// Busy-block per starved job, nanoseconds.
        pub starve_ns: u64,
        launches: AtomicU64,
        decisions: AtomicU64,
        /// Probe calls seen, by `tag % PROBE_SLOTS`.
        probes: [AtomicU64; PROBE_SLOTS],
    }

    /// Slots of the per-tag probe counter. The launch layer's tags are
    /// 1–4 and the `gaia-verify` canary's `0xBAD` lands in slot 5, so no
    /// two tags in use share a slot.
    const PROBE_SLOTS: usize = 8;

    impl ScheduleController {
        /// A controller with every perturbation off (identity schedule).
        pub fn quiet(seed: u64) -> Self {
            ScheduleController {
                seed,
                shuffle: false,
                preempt_permille: 0,
                preempt_max_ns: 0,
                skew_max_ns: 0,
                starve_lane: None,
                lane_count: 4,
                starve_ns: 0,
                launches: AtomicU64::new(0),
                decisions: AtomicU64::new(0),
                probes: Default::default(),
            }
        }

        /// How many times jobs governed by this controller reached the
        /// [`preempt_point`] tagged `tag` — the evidence that an
        /// exploration actually entered the code it claims to perturb.
        pub fn probe_count(&self, tag: u32) -> u64 {
            self.probes[tag as usize % PROBE_SLOTS].load(Ordering::Relaxed)
        }

        /// The seeded mixed scenario the exploration driver replays: the
        /// seed picks an emphasis (preempt-heavy, barrier-skew, starvation,
        /// or all three) plus its magnitudes. Shuffling is always on.
        pub fn from_seed(seed: u64) -> Self {
            let r = mix(seed);
            let mut c = ScheduleController::quiet(seed);
            c.shuffle = true;
            match r % 4 {
                0 => {
                    c.preempt_permille = 400 + (mix(r) % 600) as u32;
                    c.preempt_max_ns = 2_000 + mix(r ^ 1) % 20_000;
                }
                1 => {
                    c.skew_max_ns = 10_000 + mix(r ^ 2) % 90_000;
                }
                2 => {
                    c.starve_lane = Some(mix(r ^ 3) % 4);
                    c.starve_ns = 50_000 + mix(r ^ 4) % 150_000;
                }
                _ => {
                    c.preempt_permille = 250;
                    c.preempt_max_ns = 2_000 + mix(r ^ 5) % 10_000;
                    c.skew_max_ns = 5_000 + mix(r ^ 6) % 40_000;
                    c.starve_lane = Some(mix(r ^ 7) % 4);
                    c.starve_ns = 30_000 + mix(r ^ 8) % 70_000;
                }
            }
            c
        }

        /// A race-hostile controller: every probe preempts with a wide
        /// spin. Used by the `BrokenStrategy` canary to prove the harness
        /// detects write-write races.
        pub fn race_window(seed: u64) -> Self {
            let mut c = ScheduleController::from_seed(seed);
            c.shuffle = true;
            c.preempt_permille = 1000;
            c.preempt_max_ns = 30_000;
            c
        }

        fn next_launch(&self) -> u64 {
            self.launches.fetch_add(1, Ordering::Relaxed)
        }

        /// Seeded Fisher-Yates permutation of the enqueue order.
        fn permute<T>(&self, launch: u64, items: &mut [T]) {
            if !self.shuffle {
                return;
            }
            let mut state = mix(self.seed ^ mix(launch ^ 0x5ced_u64));
            for i in (1..items.len()).rev() {
                state = mix(state);
                items.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }

        /// Start-of-job perturbation: barrier skew + lane starvation.
        fn on_job_start(&self, launch: u64, job: usize) {
            if let Some(victim) = self.starve_lane {
                if job as u64 % self.lane_count == victim {
                    spin(self.starve_ns);
                }
            }
            if self.skew_max_ns > 0 {
                let h = mix(self.seed ^ mix(launch) ^ (job as u64) << 17);
                spin(h % self.skew_max_ns);
            }
        }

        /// One probe decision: yield/spin with the configured probability.
        fn maybe_preempt(&self, launch: u64, job: usize, tag: u32) {
            self.probes[tag as usize % PROBE_SLOTS].fetch_add(1, Ordering::Relaxed);
            if self.preempt_permille == 0 {
                return;
            }
            let n = self.decisions.fetch_add(1, Ordering::Relaxed);
            let h = mix(self.seed ^ mix(launch ^ (job as u64) << 21 ^ u64::from(tag) << 42) ^ n);
            if (h % 1000) < u64::from(self.preempt_permille) {
                std::thread::yield_now();
                if self.preempt_max_ns > 0 {
                    spin(mix(h) % self.preempt_max_ns);
                }
            }
        }
    }

    thread_local! {
        /// The controller governing the job this thread is currently
        /// executing (a stack: empty outside pool jobs).
        static ACTIVE: RefCell<Vec<(Arc<ScheduleController>, u64, usize)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Probe point for kernels under test: when the executing thread is
    /// running a pool job governed by a controller, this may yield and
    /// spin (a forced preemption), deterministically seeded. `tag`
    /// distinguishes call sites. No-op (and `#[inline(always)]` empty)
    /// when the `sched-test` feature is off or no controller is installed.
    pub fn preempt_point(tag: u32) {
        ACTIVE.with(|a| {
            if let Some((ctrl, launch, job)) = a.borrow().last() {
                ctrl.maybe_preempt(*launch, *job, tag);
            }
        });
    }

    /// Wrap a launch's jobs under `ctrl`: permute the enqueue order and
    /// interpose the per-job start perturbation + probe-point context.
    pub(super) fn apply<'scope>(
        ctrl: &Arc<ScheduleController>,
        mut jobs: Vec<Job<'scope>>,
    ) -> Vec<Job<'scope>> {
        let launch = ctrl.next_launch();
        ctrl.permute(launch, &mut jobs);
        jobs.into_iter()
            .enumerate()
            .map(|(idx, job)| {
                let ctrl = Arc::clone(ctrl);
                Box::new(move || {
                    ACTIVE.with(|a| a.borrow_mut().push((Arc::clone(&ctrl), launch, idx)));
                    ctrl.on_job_start(launch, idx);
                    job();
                    ACTIVE.with(|a| {
                        a.borrow_mut().pop();
                    });
                }) as Job<'scope>
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn permutation_is_a_seeded_bijection() {
            let ctrl = ScheduleController::from_seed(7);
            let mut a: Vec<usize> = (0..16).collect();
            let mut b: Vec<usize> = (0..16).collect();
            ctrl.permute(3, &mut a);
            ctrl.permute(3, &mut b);
            assert_eq!(a, b, "same (seed, launch) => same permutation");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>());
            let mut c: Vec<usize> = (0..16).collect();
            ctrl.permute(4, &mut c);
            assert_ne!(a, c, "different launches permute differently");
        }

        #[test]
        fn preempt_point_outside_a_job_is_a_noop() {
            // Must not panic or deadlock when no controller is active.
            preempt_point(0);
        }
    }
}

/// No-op twin of the schedule-exploration hooks: with the `sched-test`
/// feature off, the probe compiles to nothing.
#[cfg(not(feature = "sched-test"))]
pub mod sched {
    /// Probe point for kernels under test; empty without `sched-test`.
    #[inline(always)]
    pub fn preempt_point(_tag: u32) {}
}

/// Completion latch for one `run` call: counts outstanding jobs and wakes
/// the submitting thread when the last one finishes.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    lock: Mutex<()>,
    all_done: Condvar,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(jobs),
            panicked: AtomicBool::new(false),
            lock: Mutex::new(()),
            all_done: Condvar::new(),
        }
    }

    fn complete(&self, job_panicked: bool) {
        if job_panicked {
            self.panicked.store(true, Ordering::Relaxed);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the lock so a waiter between its check and its wait
            // cannot miss the notification.
            let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.remaining.load(Ordering::Acquire) > 0 {
            g = self
                .all_done
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One enqueued job plus the latch of the `run` call it belongs to.
struct Batch {
    task: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

struct Shared {
    queue: Mutex<VecDeque<Batch>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop(&self) -> Option<Batch> {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

/// Execute one batch entry, catching panics so a failing kernel chunk never
/// unwinds across the pool (the latch records it and `run` re-raises).
fn execute(batch: Batch) {
    let result = catch_unwind(AssertUnwindSafe(batch.task));
    batch.latch.complete(result.is_err());
}

/// A persistent pool of parked worker threads with scoped launches.
///
/// `threads` is the total parallelism of a launch: the pool spawns
/// `threads - 1` OS workers and the **calling thread participates** in
/// draining the queue, so `threads == 1` means a pool with no workers at
/// all (every launch runs inline — the serial fast path).
pub struct ExecutorPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    launches: AtomicU64,
    jobs_run: AtomicU64,
    /// Installed schedule-exploration controller (`sched-test` only):
    /// every launch consults it to permute and perturb its jobs.
    #[cfg(feature = "sched-test")]
    schedule: Mutex<Option<Arc<sched::ScheduleController>>>,
}

impl std::fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .field("launches", &self.launches.load(Ordering::Relaxed))
            .finish()
    }
}

impl ExecutorPool {
    /// Create a pool with the given total parallelism (`threads - 1`
    /// workers are spawned; the caller is the remaining lane).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let n_workers = threads - 1;
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gaia-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        gaia_telemetry::record_pool_spawn(n_workers as u64);
        ExecutorPool {
            shared,
            workers,
            threads,
            launches: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
            #[cfg(feature = "sched-test")]
            schedule: Mutex::new(None),
        }
    }

    /// Install (or clear, with `None`) a schedule-exploration controller:
    /// subsequent launches on this pool run under its seeded permutation
    /// and perturbation. Returns the controller it replaces, whose
    /// counters say what the launches under it reached. Only compiled with
    /// the `sched-test` feature.
    #[cfg(feature = "sched-test")]
    pub fn set_schedule(
        &self,
        ctrl: Option<sched::ScheduleController>,
    ) -> Option<Arc<sched::ScheduleController>> {
        let mut slot = self.schedule.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, ctrl.map(Arc::new))
    }

    /// A process-wide shared pool for the given thread budget. Backends
    /// constructed via the registry all share one pool per budget, so a
    /// grid of policies costs one set of workers, not one per backend.
    pub fn shared(threads: usize) -> Arc<ExecutorPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ExecutorPool>>>> = OnceLock::new();
        let threads = threads.max(1);
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = pools.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(threads)
                .or_insert_with(|| Arc::new(ExecutorPool::new(threads))),
        )
    }

    /// Total parallelism of this pool (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of `run` launches since creation (inline launches included).
    pub fn launch_count(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// Number of jobs executed since creation.
    pub fn jobs_run_count(&self) -> u64 {
        self.jobs_run.load(Ordering::Relaxed)
    }

    /// Run a batch of jobs to completion. Jobs may borrow from the caller's
    /// stack: `run` does not return until every job has finished (or
    /// panicked, in which case `run` panics after all jobs settle, so no
    /// borrow ever outlives this call).
    pub fn run<'scope>(&self, jobs: Vec<Job<'scope>>) {
        if jobs.is_empty() {
            return;
        }
        #[cfg(feature = "sched-test")]
        let jobs = {
            let ctrl = self
                .schedule
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            match ctrl {
                Some(ctrl) => sched::apply(&ctrl, jobs),
                None => jobs,
            }
        };
        let n_jobs = jobs.len() as u64;
        let first = self.launches.fetch_add(1, Ordering::Relaxed) == 0;
        self.jobs_run.fetch_add(n_jobs, Ordering::Relaxed);

        // Serial fast path: no workers, or nothing to overlap.
        if self.workers.is_empty() || jobs.len() == 1 {
            gaia_telemetry::record_pool_launch(n_jobs, !first, true);
            for job in jobs {
                job();
            }
            return;
        }
        gaia_telemetry::record_pool_launch(n_jobs, !first, false);

        let latch = Arc::new(Latch::new(jobs.len()));
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for job in jobs {
                // SAFETY: `run` never returns before `latch.wait()` observes
                // every job complete, and panicking jobs are caught by
                // `execute`, so no job (or borrow inside it) outlives the
                // 'scope lifetime despite the 'static erasure below.
                let task: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute::<Job<'scope>, Job<'static>>(job) };
                q.push_back(Batch {
                    task,
                    latch: Arc::clone(&latch),
                });
            }
        }
        self.shared.work_ready.notify_all();

        // The caller participates: drain the queue alongside the workers.
        while let Some(batch) = self.shared.pop() {
            execute(batch);
        }
        latch.wait();
        if latch.panicked.load(Ordering::Relaxed) {
            panic!("executor pool job panicked");
        }
    }

    /// Convenience: apply `f` to each range with its chunk index, one job
    /// per range, via [`ExecutorPool::run`].
    pub fn parallel_for<F>(&self, ranges: Vec<Range<usize>>, f: F)
    where
        F: Fn(usize, Range<usize>) + Send + Sync,
    {
        let f = &f;
        let jobs: Vec<Job<'_>> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| Box::new(move || f(i, r)) as Job<'_>)
            .collect();
        self.run(jobs);
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Acquire the queue lock so parked workers can't miss the wake.
            let _g = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(batch) = q.pop_front() {
                    break Some(batch);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                if gaia_telemetry::is_enabled() {
                    // gaia-analyze: allow(timing): this clock read *is* the
                    // telemetry measurement — it feeds
                    // record_pool_wait_nanos at the pool choke point.
                    let parked = Instant::now();
                    q = shared
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                    gaia_telemetry::record_pool_wait_nanos(parked.elapsed().as_nanos() as u64);
                } else {
                    q = shared
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        match batch {
            Some(batch) => execute(batch),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_reused_across_launches() {
        let pool = ExecutorPool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.parallel_for(crate::launch::split_ranges(100, 8), |_, r| {
                counter.fetch_add(r.len(), Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.launch_count(), 10);
        assert_eq!(pool.jobs_run_count(), 80);
    }

    #[test]
    fn scoped_borrows_are_written_back() {
        let pool = ExecutorPool::new(3);
        let mut data = vec![0usize; 64];
        let ranges = crate::launch::split_ranges(data.len(), 6);
        {
            let mut rest = data.as_mut_slice();
            let mut jobs: Vec<Job<'_>> = Vec::new();
            for r in ranges {
                let (mine, tail) = rest.split_at_mut(r.len());
                rest = tail;
                jobs.push(Box::new(move || {
                    for (i, v) in mine.iter_mut().enumerate() {
                        *v = r.start + i;
                    }
                }));
            }
            pool.run(jobs);
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ExecutorPool::new(1);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicUsize::new(0);
        pool.parallel_for(crate::launch::split_ranges(10, 4), |_, r| {
            counter.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panicking_job_propagates_after_batch_settles() {
        let pool = ExecutorPool::new(4);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> = (0..8)
                .map(|i| {
                    let done = &done;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }) as Job<'_>
                })
                .collect();
            pool.run(jobs);
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 7);
        // The pool must stay usable after a panicked batch.
        let counter = AtomicUsize::new(0);
        pool.parallel_for(crate::launch::split_ranges(20, 5), |_, r| {
            counter.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    /// The shutdown/panic edge from the verification issue: a job panicking
    /// mid-batch must leave the process-wide **shared** pool reusable — the
    /// next `run` (from this or any other handle to the same pool) succeeds
    /// and the latch protocol is not poisoned. Uses a thread budget no
    /// other test shares so the cached pool's state is entirely ours.
    #[test]
    fn shared_pool_survives_a_panicking_batch() {
        let pool = ExecutorPool::shared(9);
        let before = pool.launch_count();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> = (0..12)
                .map(|i| {
                    Box::new(move || {
                        if i % 5 == 2 {
                            panic!("chunk failure");
                        }
                    }) as Job<'_>
                })
                .collect();
            pool.run(jobs);
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");

        // The same cached pool instance must serve later launches: workers
        // alive, queue drained, latch per-run (nothing poisoned).
        let again = ExecutorPool::shared(9);
        assert!(Arc::ptr_eq(&pool, &again));
        let counter = AtomicUsize::new(0);
        again.parallel_for(crate::launch::split_ranges(96, 12), |_, r| {
            counter.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 96);
        assert_eq!(again.launch_count(), before + 2);
    }

    #[test]
    fn shared_pools_are_cached_per_budget() {
        let a = ExecutorPool::shared(3);
        let b = ExecutorPool::shared(3);
        let c = ExecutorPool::shared(5);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.threads(), 3);
        assert_eq!(c.threads(), 5);
    }

    #[test]
    fn empty_launch_is_a_noop() {
        let pool = ExecutorPool::new(2);
        pool.run(Vec::new());
        assert_eq!(pool.launch_count(), 0);
    }
}
