//! The [`World`] (shared collective state) and per-rank [`Communicator`].

use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::collectives::{combine, CollOp, ReduceOp};
use crate::fault::{FaultKind, FaultPlan};

/// Why a world was torn down before every rank finished — or never
/// launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// A rank panicked (injected fault or real bug) mid-run.
    RankFailure {
        /// The rank that died.
        rank: usize,
    },
    /// A rank waited longer than the configured collective timeout.
    CollectiveTimeout {
        /// The rank whose wait expired.
        rank: usize,
    },
    /// The caller refused to launch: the work splits into `max_ranks`
    /// parts at most, so some of the `ranks` asked for would own nothing.
    /// Launching the same world again cannot succeed; a smaller one can.
    WorldTooLarge {
        /// The world size asked for.
        ranks: usize,
        /// The largest world the work can be split across.
        max_ranks: usize,
    },
}

/// Panic payload used when a fault plan kills a rank. Public so callers
/// (and the quiet panic hook) can recognize injected failures.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic {
    /// The rank being killed.
    pub rank: usize,
}

/// Panic payload used to fail the *sibling* ranks of an aborted world, so
/// no rank blocks forever on a collective a dead rank will never join.
#[derive(Debug, Clone, Copy)]
pub struct WorldAborted(pub AbortCause);

/// Failure summary returned by [`try_run`] when any rank died.
#[derive(Debug, Clone)]
pub struct FaultError {
    /// Primary cause, when the world abort path recorded one.
    pub cause: Option<AbortCause>,
    /// Every rank whose thread panicked (injected, aborted, or real).
    pub panicked: Vec<usize>,
    /// Human-readable summary.
    pub message: String,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for FaultError {}

/// Optional failure knobs of a [`World`].
#[derive(Default, Clone)]
pub struct WorldOptions {
    /// Deterministic fault schedule consulted at every collective call.
    pub faults: Option<Arc<FaultPlan>>,
    /// Abort the world if any rank waits longer than this inside one
    /// collective (stragglers beyond the bound become detected timeouts).
    pub collective_timeout: Option<Duration>,
}

/// Shared state of one communicator world.
///
/// Collectives are globally ordered: every rank must call the same
/// collective operation in the same sequence (standard MPI contract).
/// The implementation is a sense-reversing barrier carrying a payload:
/// each rank deposits its contribution under the lock; the last arriver
/// combines all contributions (in rank order, for determinism) and flips
/// the sense; woken ranks pick up an `Arc` of the result.
///
/// A world can be *aborted* ([`World::abort`]): every rank parked in (or
/// later entering) a collective panics with [`WorldAborted`] instead of
/// deadlocking on a rank that will never arrive. [`try_run`] converts
/// those panics into a [`FaultError`].
pub struct World {
    size: usize,
    round: Mutex<Round>,
    cv: Condvar,
    opts: WorldOptions,
}

struct Round {
    arrived: usize,
    sense: bool,
    op: Option<CollOp>,
    contributions: Vec<Option<Vec<f64>>>,
    result: Option<Arc<Vec<Vec<f64>>>>,
    aborted: Option<AbortCause>,
}

impl World {
    /// Create a world of `size` ranks with no fault injection.
    pub fn new(size: usize) -> Arc<Self> {
        World::with_options(size, WorldOptions::default())
    }

    /// Create a world with fault-injection / timeout options.
    pub fn with_options(size: usize, opts: WorldOptions) -> Arc<Self> {
        assert!(size > 0, "world needs at least one rank");
        Arc::new(World {
            size,
            round: Mutex::new(Round {
                arrived: 0,
                sense: false,
                op: None,
                contributions: vec![None; size],
                result: None,
                aborted: None,
            }),
            cv: Condvar::new(),
            opts,
        })
    }

    /// Communicator handle for `rank`.
    pub fn communicator(self: &Arc<Self>, rank: usize) -> Communicator {
        assert!(rank < self.size, "rank {rank} out of range");
        Communicator {
            rank,
            world: Arc::clone(self),
            fault_seq: Cell::new(0),
        }
    }

    /// Lock the round, tolerating poisoning: a rank that panics while
    /// parked in `Condvar::wait` poisons the mutex, but the round state is
    /// still consistent (the abort flag is what matters from then on).
    fn lock_round(&self) -> MutexGuard<'_, Round> {
        match self.round.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Mark the world failed and wake every parked rank. First cause wins.
    pub fn abort(&self, cause: AbortCause) {
        let mut round = self.lock_round();
        if round.aborted.is_none() {
            round.aborted = Some(cause);
        }
        self.cv.notify_all();
    }

    /// The abort cause, if the world has failed.
    pub fn aborted(&self) -> Option<AbortCause> {
        self.lock_round().aborted
    }

    fn collective(
        &self,
        rank: usize,
        op: CollOp,
        contribution: Option<Vec<f64>>,
    ) -> Arc<Vec<Vec<f64>>> {
        let mut round = self.lock_round();
        if let Some(cause) = round.aborted {
            drop(round);
            std::panic::panic_any(WorldAborted(cause));
        }
        match round.op {
            None => round.op = Some(op),
            Some(existing) => assert_eq!(
                existing, op,
                "collective mismatch: rank {rank} called {op:?} while the round runs {existing:?}"
            ),
        }
        assert!(
            round.contributions[rank].is_none() || contribution.is_none(),
            "rank {rank} contributed twice to one round"
        );
        round.contributions[rank] = contribution;
        round.arrived += 1;
        let my_sense = round.sense;
        if round.arrived == self.size {
            // Last arriver: combine in rank order and release the others.
            let contribs = std::mem::replace(&mut round.contributions, vec![None; self.size]);
            round.result = Some(Arc::new(combine(op, contribs)));
            round.arrived = 0;
            round.op = None;
            round.sense = !round.sense;
            self.cv.notify_all();
            return Arc::clone(round.result.as_ref().expect("result just set"));
        }
        // gaia-analyze: allow(timing): collective timeouts need a real
        // deadline clock — this detects hung ranks, it measures nothing.
        let deadline = self.opts.collective_timeout.map(|t| Instant::now() + t);
        loop {
            round = match deadline {
                None => match self.cv.wait(round) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                },
                Some(deadline) => {
                    // gaia-analyze: allow(timing): deadline check for the
                    // hung-rank timeout above, not a measurement.
                    let now = Instant::now();
                    if now >= deadline {
                        // This rank's wait expired: fail the whole world
                        // (MPI jobs die collectively on a lost rank).
                        if round.aborted.is_none() {
                            round.aborted = Some(AbortCause::CollectiveTimeout { rank });
                        }
                        let cause = round.aborted.expect("just set");
                        drop(round);
                        self.cv.notify_all();
                        std::panic::panic_any(WorldAborted(cause));
                    }
                    match self.cv.wait_timeout(round, deadline - now) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
            if let Some(cause) = round.aborted {
                drop(round);
                std::panic::panic_any(WorldAborted(cause));
            }
            if round.sense != my_sense {
                return Arc::clone(round.result.as_ref().expect("result set by last arriver"));
            }
        }
    }
}

/// Per-rank handle into a [`World`]. Clone-free; create one per rank.
pub struct Communicator {
    rank: usize,
    world: Arc<World>,
    /// Per-rank collective sequence number; with the globally ordered
    /// collective contract this is identical across ranks at each call
    /// site, which is what makes fault schedules reproducible.
    fault_seq: Cell<u64>,
}

impl Communicator {
    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Collective calls made so far on this rank (the fault-schedule
    /// sequence number of the *next* collective).
    pub fn collective_seq(&self) -> u64 {
        self.fault_seq.get()
    }

    /// Consult the fault plan at the entry of a collective; `payload` is
    /// this rank's contribution when the op carries one (bit-flips mutate
    /// it in place before it is deposited).
    fn inject(&self, payload: Option<&mut [f64]>) {
        let seq = self.fault_seq.get();
        self.fault_seq.set(seq + 1);
        let Some(plan) = &self.world.opts.faults else {
            return;
        };
        match plan.poll(self.rank, seq, payload) {
            None => {}
            Some(FaultKind::RankPanic) => {
                self.world
                    .abort(AbortCause::RankFailure { rank: self.rank });
                std::panic::panic_any(InjectedPanic { rank: self.rank });
            }
            Some(FaultKind::Straggle { millis }) => {
                // Bounded delay: with no collective timeout configured the
                // siblings simply wait; with one, a long enough straggle
                // becomes a detected timeout.
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(FaultKind::BitFlip { .. }) => {} // already applied in place
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.inject(None);
        self.world
            .collective(self.rank, CollOp::Barrier, Some(Vec::new()));
    }

    /// Element-wise allreduce of `buf` in place; all ranks must pass
    /// equal-length buffers.
    pub fn allreduce(&self, op: ReduceOp, buf: &mut [f64]) {
        let mut contribution = buf.to_vec();
        self.inject(Some(&mut contribution));
        let result = self
            .world
            .collective(self.rank, CollOp::Allreduce(op), Some(contribution));
        buf.copy_from_slice(&result[0]);
    }

    /// Scalar allreduce convenience.
    pub fn allreduce_scalar(&self, op: ReduceOp, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce(op, &mut buf);
        buf[0]
    }

    /// Gather every rank's buffer on every rank (buffers may differ in
    /// length). Returns one `Vec` per rank, in rank order.
    pub fn allgather(&self, buf: &[f64]) -> Vec<Vec<f64>> {
        self.inject(None);
        let result = self
            .world
            .collective(self.rank, CollOp::Allgather, Some(buf.to_vec()));
        result.as_ref().clone()
    }

    /// Broadcast `buf` from `root` to every rank. On non-root ranks `buf`
    /// is resized to the root's length.
    pub fn bcast(&self, root: usize, buf: &mut Vec<f64>) {
        self.inject(None);
        let contribution = (self.rank == root).then(|| buf.clone());
        let result = self
            .world
            .collective(self.rank, CollOp::Bcast { root }, contribution);
        buf.clear();
        buf.extend_from_slice(&result[0]);
    }
}

/// Run `f` on `size` ranks (threads) sharing one world; returns the
/// per-rank results in rank order.
pub fn run<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Communicator) -> R + Sync,
{
    try_run(size, WorldOptions::default(), f).expect("rank panicked")
}

/// Fault-aware variant of [`run`]: execute `f` on `size` ranks under
/// `opts`. Any rank panic (injected or real) aborts the whole world —
/// sibling ranks parked in collectives fail fast instead of deadlocking —
/// and is reported as a [`FaultError`] naming the panicked ranks.
pub fn try_run<R, F>(size: usize, opts: WorldOptions, f: F) -> Result<Vec<R>, FaultError>
where
    R: Send,
    F: Fn(Communicator) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let world = World::with_options(size, opts);
    // gaia-analyze: allow(thread-spawn): each simulated MPI rank is a peer
    // OS thread with its own blocking collectives — pool jobs must not
    // block on each other, so the executor pool is the wrong tool here.
    let outcomes: Vec<Result<R, Box<dyn std::any::Any + Send>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let comm = world.communicator(rank);
                let f = &f;
                let world = Arc::clone(&world);
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(comm)));
                    if out.is_err() {
                        // A panic anywhere (fault plan, backend kernel,
                        // assertion) must not strand the other ranks.
                        world.abort(AbortCause::RankFailure { rank });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread itself crashed"))
            .collect()
    });

    let panicked: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(rank, o)| o.is_err().then_some(rank))
        .collect();
    if panicked.is_empty() {
        return Ok(outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|_| unreachable!("checked: no rank panicked")))
            .collect());
    }
    let cause = world.aborted();
    // Distinguish injected faults from genuine bugs in the message; the
    // payloads themselves are recognized by the quiet panic hook.
    let injected = outcomes.iter().any(|o| {
        o.as_ref().err().is_some_and(|p| {
            p.downcast_ref::<InjectedPanic>().is_some()
                || p.downcast_ref::<WorldAborted>().is_some()
        })
    });
    Err(FaultError {
        cause,
        panicked: panicked.clone(),
        message: format!(
            "{} rank(s) {:?} failed ({}), cause {:?}",
            panicked.len(),
            panicked,
            if injected { "injected fault" } else { "panic" },
            cause
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sum_is_replicated() {
        for size in [1usize, 2, 3, 8] {
            let out = run(size, |c| {
                c.allreduce_scalar(ReduceOp::Sum, (c.rank() + 1) as f64)
            });
            let want = (size * (size + 1) / 2) as f64;
            assert_eq!(out, vec![want; size]);
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let out = run(5, |c| {
            let max = c.allreduce_scalar(ReduceOp::Max, c.rank() as f64);
            let min = c.allreduce_scalar(ReduceOp::Min, c.rank() as f64);
            (max, min)
        });
        assert!(out.iter().all(|&(mx, mn)| mx == 4.0 && mn == 0.0));
    }

    #[test]
    fn vector_allreduce_is_elementwise() {
        let out = run(3, |c| {
            let mut buf = vec![c.rank() as f64, 10.0 * c.rank() as f64];
            c.allreduce(ReduceOp::Sum, &mut buf);
            buf
        });
        assert_eq!(out, vec![vec![3.0, 30.0]; 3]);
    }

    #[test]
    fn bcast_replicates_root_buffer() {
        let out = run(4, |c| {
            let mut buf = if c.rank() == 2 {
                vec![1.0, 2.0, 3.0]
            } else {
                vec![]
            };
            c.bcast(2, &mut buf);
            buf
        });
        assert_eq!(out, vec![vec![1.0, 2.0, 3.0]; 4]);
    }

    #[test]
    fn allgather_keeps_rank_order_with_ragged_buffers() {
        let out = run(3, |c| {
            let mine = vec![c.rank() as f64; c.rank()];
            c.allgather(&mine)
        });
        let want = vec![vec![], vec![1.0], vec![2.0, 2.0]];
        assert!(out.iter().all(|o| *o == want));
    }

    #[test]
    fn many_back_to_back_collectives_do_not_interleave() {
        let out = run(4, |c| {
            let mut acc = 0.0;
            for i in 0..200 {
                acc += c.allreduce_scalar(ReduceOp::Sum, i as f64 + c.rank() as f64);
                if i % 17 == 0 {
                    c.barrier();
                }
            }
            acc
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn reduction_order_is_deterministic_across_runs() {
        // Values chosen so floating-point addition order matters.
        let values = [1e16, 1.0, -1e16, 1.0];
        let first = run(4, |c| c.allreduce_scalar(ReduceOp::Sum, values[c.rank()]));
        for _ in 0..10 {
            let again = run(4, |c| c.allreduce_scalar(ReduceOp::Sum, values[c.rank()]));
            assert_eq!(first, again);
        }
    }

    #[test]
    fn single_rank_world_is_trivial() {
        let out = run(1, |c| {
            c.barrier();
            let mut buf = vec![5.0];
            c.allreduce(ReduceOp::Sum, &mut buf);
            c.bcast(0, &mut buf);
            buf[0]
        });
        assert_eq!(out, vec![5.0]);
    }

    mod faulty {
        use super::*;
        use crate::fault::{install_quiet_panic_hook, FaultKind, FaultPlan, FaultSpec};

        fn opts(plan: Arc<FaultPlan>) -> WorldOptions {
            WorldOptions {
                faults: Some(plan),
                collective_timeout: None,
            }
        }

        #[test]
        fn scripted_rank_panic_fails_the_world_without_deadlock() {
            install_quiet_panic_hook();
            let plan = Arc::new(FaultPlan::scripted(7).with_event(0, 1, 2, FaultKind::RankPanic));
            let err = try_run(3, opts(Arc::clone(&plan)), |c| {
                let mut acc = 0.0;
                for i in 0..10 {
                    acc += c.allreduce_scalar(ReduceOp::Sum, i as f64);
                }
                acc
            })
            .expect_err("rank 1 must die");
            assert!(err.panicked.contains(&1), "panicked: {:?}", err.panicked);
            assert_eq!(err.cause, Some(AbortCause::RankFailure { rank: 1 }));
            let injected = plan.events();
            assert_eq!(injected.len(), 1);
            assert_eq!(injected[0].kind, FaultKind::RankPanic);
        }

        #[test]
        fn scripted_bitflip_corrupts_exactly_one_contribution() {
            let plan = Arc::new(FaultPlan::scripted(9).with_event(
                0,
                0,
                0,
                FaultKind::BitFlip { bit: 52 },
            ));
            let clean = run(2, |c| {
                c.allreduce_scalar(ReduceOp::Sum, (c.rank() + 1) as f64)
            });
            let dirty = try_run(2, opts(plan), |c| {
                c.allreduce_scalar(ReduceOp::Sum, (c.rank() + 1) as f64)
            })
            .expect("bit-flip must not kill ranks");
            // All ranks agree on the (corrupted) result, which differs from
            // the clean run by exactly rank 0's flipped contribution.
            assert_eq!(dirty[0], dirty[1]);
            assert_ne!(dirty[0], clean[0]);
            let delta = dirty[0] - clean[0];
            let flipped = f64::from_bits(1.0f64.to_bits() ^ (1u64 << 52));
            assert!((delta - (flipped - 1.0)).abs() < 1e-12, "delta {delta}");
        }

        #[test]
        fn straggler_is_tolerated_without_timeout() {
            let plan = Arc::new(FaultPlan::scripted(3).with_event(
                0,
                1,
                1,
                FaultKind::Straggle { millis: 20 },
            ));
            let out = try_run(3, opts(plan), |c| {
                let a = c.allreduce_scalar(ReduceOp::Sum, 1.0);
                let b = c.allreduce_scalar(ReduceOp::Sum, 2.0);
                a + b
            })
            .expect("straggle is benign without a timeout");
            assert_eq!(out, vec![9.0; 3]);
        }

        #[test]
        fn dead_rank_with_collective_timeout_is_detected() {
            install_quiet_panic_hook();
            // Rank 2 dies on its first collective; the survivors' waits
            // expire and the world reports a failure instead of hanging.
            let plan = Arc::new(FaultPlan::scripted(11).with_event(0, 2, 0, FaultKind::RankPanic));
            let err = try_run(
                3,
                WorldOptions {
                    faults: Some(plan),
                    collective_timeout: Some(Duration::from_millis(200)),
                },
                |c| c.allreduce_scalar(ReduceOp::Sum, 1.0),
            )
            .expect_err("world must fail");
            assert!(!err.panicked.is_empty());
            assert!(err.cause.is_some());
        }

        #[test]
        fn probabilistic_plan_is_reproducible_end_to_end() {
            install_quiet_panic_hook();
            let spec = FaultSpec {
                panic_ppm: 0,
                ..FaultSpec::heavy()
            };
            let runs: Vec<Vec<f64>> = (0..2)
                .map(|_| {
                    let plan = Arc::new(FaultPlan::new(42, spec));
                    try_run(4, opts(plan), |c| {
                        let mut acc = 0.0;
                        for i in 0..50 {
                            acc += c.allreduce_scalar(ReduceOp::Sum, i as f64 + c.rank() as f64);
                        }
                        acc
                    })
                    .expect("no panics with panic_ppm=0")
                })
                .collect();
            assert_eq!(runs[0], runs[1], "same seed must give the same run");
        }
    }
}
