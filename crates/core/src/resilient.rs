//! Resilient distributed solve: a supervisor with checkpoint-based
//! recovery.
//!
//! Production AVU-GSR campaigns run for weeks across CINECA batch
//! allocations; node failures, network corruption, and numerical
//! breakdowns are operational facts, not edge cases. This module wraps
//! [`crate::distributed::try_solve_hybrid`] in the retry loop such a
//! campaign needs:
//!
//! * **detect** — rank panics and collective timeouts surface as
//!   [`gaia_mpi_sim::FaultError`] (and so does a world refused for having
//!   more ranks than stars, which is never retried at that size, only
//!   degraded); corrupted arithmetic trips the
//!   per-iteration health
//!   guards ([`crate::health`]) and stops the solve with
//!   [`StopReason::NumericalBreakdown`];
//! * **recover** — the supervisor restores the last good periodic
//!   checkpoint (taken every [`RecoveryPolicy::checkpoint_every`]
//!   iterations, optionally persisted through a
//!   [`CheckpointRotation`]), re-keys the fault schedule
//!   ([`FaultPlan::set_attempt`]) and re-launches after an exponential
//!   backoff;
//! * **degrade** — when a rank-count tier exhausts its retry budget and
//!   [`RecoveryPolicy::on_unrecoverable`] allows it, the world is
//!   relaunched at half the ranks, down to a fault-free single-rank
//!   [`Lsqr`] + [`SeqBackend`] solve as the floor.
//!
//! Because the simulated collectives are rank-order deterministic and
//! checkpoints are bit-exact, a recovered solve at the original rank
//! count finishes **bit-identical** to an uninterrupted one — the
//! integration tests assert exactly that. Every fault, retry, restore,
//! and degradation is recorded both in the returned [`RecoveryReport`]
//! and in `gaia-telemetry`'s resilience counters.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gaia_backends::{Backend, SeqBackend};
use gaia_mpi_sim::{AbortCause, FaultEvent, FaultKind, FaultPlan, WorldOptions};
use gaia_sparse::SparseSystem;
use gaia_telemetry::ResilienceCell;

use crate::cancel::CancellationToken;
use crate::checkpoint::{Checkpoint, CheckpointRotation};
use crate::config::LsqrConfig;
use crate::distributed::{try_solve_hybrid, DistOptions};
use crate::lsqr::{Lsqr, LsqrState};
use crate::solution::{Solution, StopReason};

/// What to do when a rank-count tier exhausts its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnUnrecoverable {
    /// Halve the rank count and try again with a fresh retry budget,
    /// bottoming out at a fault-free single-rank solve. This is the
    /// "finish the campaign at any speed" mode of a production run.
    Degrade,
    /// Give up and return [`Unrecoverable`].
    Fail,
}

/// Retry/checkpoint policy of the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Relaunches allowed per rank-count tier after the initial attempt.
    pub max_retries: usize,
    /// Base backoff before a relaunch. The actual pause is a **capped
    /// full-jitter** draw: uniform in `[0, min(backoff_cap, backoff ·
    /// 2^min(retry, 6))]` (see [`jittered_backoff`]), so concurrent
    /// supervisors never retry in lockstep. `Duration::ZERO` disables
    /// waiting entirely.
    pub backoff: Duration,
    /// Hard ceiling of the exponential growth; no single pause exceeds it.
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter draw. Give concurrent tenants
    /// distinct seeds to decorrelate their retries (anti-thundering-herd);
    /// a fixed seed keeps chaos sweeps reproducible.
    pub jitter_seed: u64,
    /// Assemble and store a recovery checkpoint every this many
    /// iterations; `0` disables periodic checkpointing (recovery then
    /// restarts from the beginning, or from [`ResilienceOptions::resume`]).
    pub checkpoint_every: usize,
    /// Tier-exhaustion behaviour.
    pub on_unrecoverable: OnUnrecoverable,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0,
            checkpoint_every: 8,
            on_unrecoverable: OnUnrecoverable::Degrade,
        }
    }
}

/// Inputs of [`solve_resilient`] beyond the system/config themselves.
#[derive(Default)]
pub struct ResilienceOptions<'a> {
    /// Retry/checkpoint policy.
    pub policy: RecoveryPolicy,
    /// Fault schedule driving the simulated world (chaos runs); `None`
    /// runs fault-free (the supervisor still guards against numerical
    /// breakdowns and real panics).
    pub faults: Option<Arc<FaultPlan>>,
    /// Collective timeout handed to the world, so dead-rank hangs become
    /// detected [`AbortCause::CollectiveTimeout`]s instead of deadlocks.
    pub collective_timeout: Option<Duration>,
    /// Start from a previously checkpointed state (e.g. restored from
    /// disk by the CLI) instead of from scratch.
    pub resume: Option<LsqrState>,
    /// Also persist every periodic checkpoint to this on-disk rotation,
    /// so recovery survives process death, not just rank death.
    pub persist: Option<&'a CheckpointRotation>,
    /// Cooperative cancellation (deadline or explicit), threaded into
    /// every launch — distributed attempts and the single-rank floor
    /// alike. A cancelled solve returns `Ok` with
    /// [`StopReason::Cancelled`] (the last checkpoint is preserved);
    /// the supervisor never retries past a fired token.
    pub cancel: Option<CancellationToken>,
}

/// How one launch of the distributed solve ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The solve ran to a normal stop (converged or iteration limit).
    Completed(StopReason),
    /// A health guard tripped mid-solve.
    Breakdown,
    /// The world died (rank panic or collective timeout).
    Failed {
        /// Primary abort cause, when recorded.
        cause: Option<AbortCause>,
        /// Human-readable failure summary.
        message: String,
    },
}

/// One launch, as recorded in the supervisor's log.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Fault-schedule attempt number ([`FaultPlan::attempt`]) of the
    /// launch.
    pub attempt: u64,
    /// World size of the launch.
    pub n_ranks: usize,
    /// Iteration of the checkpoint the launch resumed from, if any.
    pub resumed_from: Option<usize>,
    /// How the launch ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock seconds the launch took.
    pub seconds: f64,
}

/// A completed resilient solve: the solution plus the recovery story.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The final solution.
    pub solution: Solution,
    /// Rank count of the successful launch (smaller than requested if
    /// the supervisor degraded).
    pub final_ranks: usize,
    /// Every launch, in order.
    pub attempts: Vec<AttemptRecord>,
    /// The resilience counters recorded into `gaia-telemetry`.
    pub telemetry: ResilienceCell,
    /// Every injected fault, from the plan's event log.
    pub fault_events: Vec<FaultEvent>,
}

/// The supervisor ran out of options under [`OnUnrecoverable::Fail`].
#[derive(Debug)]
pub struct Unrecoverable {
    /// Every launch attempted before giving up.
    pub attempts: Vec<AttemptRecord>,
    /// Summary of the last failure.
    pub message: String,
}

impl std::fmt::Display for Unrecoverable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecoverable after {} attempt(s): {}",
            self.attempts.len(),
            self.message
        )
    }
}

impl std::error::Error for Unrecoverable {}

/// SplitMix64 finalizer: a cheap, well-mixed deterministic hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Capped **full-jitter** exponential backoff, deterministic in
/// `(seed, retry_index)`: the pause before retry `retry_index` is drawn
/// uniformly from `[0, min(cap, base · 2^min(retry_index, 6))]`. Full
/// jitter (AWS architecture-blog style) spreads concurrent retriers
/// across the whole window instead of synchronizing them at the
/// exponential ceiling — the thundering-herd fix a multi-tenant serving
/// layer needs — while the seed keeps every sweep reproducible.
pub fn jittered_backoff(base: Duration, cap: Duration, retry_index: u32, seed: u64) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let ceiling = base.saturating_mul(1 << retry_index.min(6)).min(cap);
    if ceiling.is_zero() {
        return Duration::ZERO;
    }
    let draw = splitmix64(seed ^ ((retry_index as u64) << 32 | 0x5EED));
    // `ceiling` ≤ `cap` which is user-bounded; nanosecond counts fit u64
    // for anything under ~584 years.
    let span_nanos = ceiling.as_nanos().min(u64::MAX as u128) as u64;
    Duration::from_nanos(draw % (span_nanos + 1))
}

fn lock_state(slot: &Mutex<Option<LsqrState>>) -> std::sync::MutexGuard<'_, Option<LsqrState>> {
    // A rank that panics while rank 0 holds the sink lock poisons it;
    // the stored state is always a complete snapshot, so keep using it.
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Solve `sys` on `n_ranks` ranks under the supervisor: detect rank
/// failures, collective timeouts, and numerical breakdowns; recover from
/// the last good checkpoint with exponential backoff; degrade the rank
/// count when a tier is exhausted (policy permitting). See the module
/// docs for the full contract.
pub fn solve_resilient<F>(
    sys: &SparseSystem,
    n_ranks: usize,
    config: &LsqrConfig,
    backend_for: F,
    opts: &ResilienceOptions<'_>,
) -> Result<RecoveryReport, Unrecoverable>
where
    F: Fn(usize) -> Box<dyn Backend> + Sync,
{
    if opts.faults.is_some() {
        gaia_mpi_sim::install_quiet_panic_hook();
    }
    let policy = opts.policy;
    let last_good: Mutex<Option<LsqrState>> = Mutex::new(opts.resume.clone());
    let sink = |st: &LsqrState| {
        if let Some(rot) = opts.persist {
            // Persistence is best-effort: losing a disk snapshot costs
            // process-death recovery, not rank-death recovery.
            let _ = rot.save(st.itn, &Checkpoint::capture(sys, config, st));
        }
        *lock_state(&last_good) = Some(st.clone());
    };

    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut cell = ResilienceCell::default();
    let mut recovery_seconds = 0.0f64;
    let mut attempt_no: u64 = opts.faults.as_ref().map(|p| p.attempt()).unwrap_or(0);
    let mut ranks = n_ranks.max(1);
    let mut retries_left = policy.max_retries;

    loop {
        // A fired token between launches means the deadline struck during
        // a failure or backoff: finalize the last good checkpoint as a
        // Cancelled partial solve instead of burning another attempt.
        if opts.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            let solver = Lsqr::new(sys, &SeqBackend, *config);
            let mut st = lock_state(&last_good)
                .clone()
                .unwrap_or_else(|| solver.init_state());
            st.stopped = Some(StopReason::Cancelled);
            let sol = solver.finish(st);
            return Ok(finalize(
                sol,
                ranks,
                attempts,
                cell,
                recovery_seconds,
                opts.faults.as_deref(),
            ));
        }
        if let Some(plan) = &opts.faults {
            plan.set_attempt(attempt_no);
        }
        let resume = lock_state(&last_good).clone();
        let resumed_from = resume.as_ref().map(|s| s.itn);
        let dist = DistOptions {
            world: WorldOptions {
                faults: opts.faults.clone(),
                collective_timeout: opts.collective_timeout,
            },
            resume: resume.as_ref(),
            checkpoint_every: policy.checkpoint_every,
            checkpoint_sink: Some(&sink),
            cancel: opts.cancel.clone(),
        };
        // gaia-analyze: allow(timing): attempt wall time feeds the
        // supervisor's retry report, not a perf counter.
        let t_launch = Instant::now();
        let result = try_solve_hybrid(sys, ranks, config, &backend_for, &dist);
        let seconds = t_launch.elapsed().as_secs_f64();

        match result {
            Ok(sol) if sol.stop != StopReason::NumericalBreakdown => {
                attempts.push(AttemptRecord {
                    attempt: attempt_no,
                    n_ranks: ranks,
                    resumed_from,
                    outcome: AttemptOutcome::Completed(sol.stop),
                    seconds,
                });
                return Ok(finalize(
                    sol,
                    ranks,
                    attempts,
                    cell,
                    recovery_seconds,
                    opts.faults.as_deref(),
                ));
            }
            Ok(sol) => {
                cell.breakdowns += 1;
                recovery_seconds += seconds;
                attempts.push(AttemptRecord {
                    attempt: attempt_no,
                    n_ranks: ranks,
                    resumed_from,
                    outcome: AttemptOutcome::Breakdown,
                    seconds,
                });
                drop(sol);
            }
            Err(err) => {
                match err.cause {
                    Some(AbortCause::CollectiveTimeout { .. }) => cell.timeouts += 1,
                    // Refused, not failed: the same world would be refused
                    // again, so this tier has no retry worth its backoff.
                    Some(AbortCause::WorldTooLarge { .. }) => retries_left = 0,
                    _ => {}
                }
                recovery_seconds += seconds;
                attempts.push(AttemptRecord {
                    attempt: attempt_no,
                    n_ranks: ranks,
                    resumed_from,
                    outcome: AttemptOutcome::Failed {
                        cause: err.cause,
                        message: err.message,
                    },
                    seconds,
                });
            }
        }

        // The launch failed (world death or breakdown): retry within the
        // tier, then degrade or give up.
        if retries_left > 0 {
            let retry_index = (policy.max_retries - retries_left) as u32;
            retries_left -= 1;
            cell.retries += 1;
            if lock_state(&last_good).is_some() {
                cell.checkpoint_restores += 1;
            }
            let pause = jittered_backoff(
                policy.backoff,
                policy.backoff_cap,
                retry_index,
                policy.jitter_seed,
            );
            if !pause.is_zero() {
                std::thread::sleep(pause);
                recovery_seconds += pause.as_secs_f64();
            }
            attempt_no += 1;
            continue;
        }

        match policy.on_unrecoverable {
            OnUnrecoverable::Fail => {
                let message = match &attempts.last().expect("just pushed").outcome {
                    AttemptOutcome::Failed { message, .. } => message.clone(),
                    AttemptOutcome::Breakdown => "numerical breakdown persisted".into(),
                    AttemptOutcome::Completed(_) => unreachable!("completed launches return"),
                };
                record_on_failure(&mut cell, recovery_seconds, opts.faults.as_deref());
                return Err(Unrecoverable { attempts, message });
            }
            OnUnrecoverable::Degrade if ranks > 1 => {
                ranks = (ranks / 2).max(1);
                cell.degradations += 1;
                retries_left = policy.max_retries;
                attempt_no += 1;
            }
            OnUnrecoverable::Degrade => {
                // Floor: fault-free single-rank solve on the reference
                // backend — no simulated world, so nothing left to kill.
                cell.degradations += 1;
                attempt_no += 1;
                let resume = lock_state(&last_good).clone();
                let resumed_from = resume.as_ref().map(|s| s.itn);
                if resume.is_some() {
                    cell.checkpoint_restores += 1;
                }
                // gaia-analyze: allow(timing): attempt wall time feeds the
                // supervisor's retry report, not a perf counter.
                let t_launch = Instant::now();
                let mut solver = Lsqr::new(sys, &SeqBackend, *config);
                if let Some(token) = &opts.cancel {
                    solver = solver.with_cancel(token.clone());
                }
                let sol = match resume {
                    Some(st) => solver.run_from(st),
                    None => solver.run(),
                };
                attempts.push(AttemptRecord {
                    attempt: attempt_no,
                    n_ranks: 1,
                    resumed_from,
                    outcome: AttemptOutcome::Completed(sol.stop),
                    seconds: t_launch.elapsed().as_secs_f64(),
                });
                return Ok(finalize(
                    sol,
                    1,
                    attempts,
                    cell,
                    recovery_seconds,
                    opts.faults.as_deref(),
                ));
            }
        }
    }
}

/// Fold the plan's event log into the counters, record everything into
/// `gaia-telemetry`, and assemble the report.
fn finalize(
    solution: Solution,
    final_ranks: usize,
    attempts: Vec<AttemptRecord>,
    mut cell: ResilienceCell,
    recovery_seconds: f64,
    plan: Option<&FaultPlan>,
) -> RecoveryReport {
    let fault_events = record_on_failure(&mut cell, recovery_seconds, plan);
    RecoveryReport {
        solution,
        final_ranks,
        attempts,
        telemetry: cell,
        fault_events,
    }
}

fn record_on_failure(
    cell: &mut ResilienceCell,
    recovery_seconds: f64,
    plan: Option<&FaultPlan>,
) -> Vec<FaultEvent> {
    let events = plan.map(|p| p.events()).unwrap_or_default();
    for e in &events {
        match e.kind {
            FaultKind::RankPanic => cell.rank_panics += 1,
            FaultKind::BitFlip { .. } => cell.bit_flips += 1,
            FaultKind::Straggle { .. } => cell.straggles += 1,
        }
    }
    cell.recovery_seconds = recovery_seconds;
    gaia_telemetry::record_resilience(cell);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::solve_distributed;
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    fn system(seed: u64) -> SparseSystem {
        Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate()
    }

    fn seq_backends() -> impl Fn(usize) -> Box<dyn Backend> + Sync {
        |_| Box::new(SeqBackend) as Box<dyn Backend>
    }

    fn zero_backoff(policy: RecoveryPolicy) -> RecoveryPolicy {
        RecoveryPolicy {
            backoff: Duration::ZERO,
            ..policy
        }
    }

    #[test]
    fn jittered_backoff_stays_within_the_exponential_ceiling_and_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        for seed in [0u64, 1, 7, 42, u64::MAX] {
            for retry in 0..16u32 {
                let d = jittered_backoff(base, cap, retry, seed);
                let ceiling = base.saturating_mul(1 << retry.min(6)).min(cap);
                assert!(
                    d <= ceiling,
                    "retry {retry} seed {seed}: {d:?} exceeds {ceiling:?}"
                );
                assert!(d <= cap, "cap must bound every pause");
            }
        }
        // Zero base disables waiting entirely, whatever the retry index.
        assert_eq!(jittered_backoff(Duration::ZERO, cap, 5, 9), Duration::ZERO);
    }

    #[test]
    fn jittered_backoff_is_deterministic_but_decorrelated_across_seeds() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(5);
        let draws = |seed: u64| -> Vec<Duration> {
            (0..8)
                .map(|i| jittered_backoff(base, cap, i, seed))
                .collect()
        };
        assert_eq!(draws(7), draws(7), "same seed must reproduce exactly");
        assert_ne!(
            draws(7),
            draws(8),
            "distinct seeds must not retry in lockstep"
        );
        // Full jitter actually spreads: the draws are not all pinned to
        // the ceiling (which is what plain exponential backoff would do).
        let ds = draws(7);
        assert!(
            (0..8u32).any(|i| {
                let ceiling = base.saturating_mul(1 << i.min(6)).min(cap);
                ds[i as usize] < ceiling
            }),
            "jitter never moved off the ceiling: {ds:?}"
        );
    }

    #[test]
    fn a_world_with_more_ranks_than_stars_is_degraded_or_given_up_never_retried() {
        let sys = system(506);
        let cfg = LsqrConfig::new();
        let too_many = sys.layout().n_stars as usize + 1;
        let policy = |on_unrecoverable| ResilienceOptions {
            policy: RecoveryPolicy {
                max_retries: 3,
                backoff: Duration::from_secs(3600),
                backoff_cap: Duration::from_secs(3600),
                on_unrecoverable,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        let refused = |a: &AttemptRecord| {
            matches!(
                a.outcome,
                AttemptOutcome::Failed {
                    cause: Some(AbortCause::WorldTooLarge { .. }),
                    ..
                }
            )
        };

        // An hour of back-off per retry: this returns only if none is taken.
        let report = solve_resilient(
            &sys,
            too_many,
            &cfg,
            seq_backends(),
            &policy(OnUnrecoverable::Degrade),
        )
        .expect("half the ranks is a world that runs");
        assert_eq!(report.attempts.len(), 2, "{:?}", report.attempts);
        assert!(refused(&report.attempts[0]));
        assert_eq!(report.final_ranks, too_many / 2);
        assert_eq!(report.telemetry.retries, 0);
        assert_eq!(report.telemetry.degradations, 1);
        assert!(report.solution.stop.converged());
        let reference = solve_distributed(&sys, too_many / 2, &cfg);
        assert_eq!(report.solution.x, reference.x);

        let err = solve_resilient(
            &sys,
            too_many,
            &cfg,
            seq_backends(),
            &policy(OnUnrecoverable::Fail),
        )
        .expect_err("nothing may run at a refused size under Fail");
        assert_eq!(err.attempts.len(), 1, "{:?}", err.attempts);
        assert!(refused(&err.attempts[0]));
        assert!(err.message.contains("star"), "{err}");
    }

    #[test]
    fn cancelled_supervisor_returns_cancelled_without_retrying() {
        let sys = system(504);
        let cfg = LsqrConfig::new();
        let token = CancellationToken::new();
        token.cancel();
        let report = solve_resilient(
            &sys,
            2,
            &cfg,
            seq_backends(),
            &ResilienceOptions {
                policy: zero_backoff(RecoveryPolicy::default()),
                cancel: Some(token),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.solution.stop, StopReason::Cancelled);
        assert!(
            report.attempts.is_empty(),
            "a pre-fired token must not launch: {:?}",
            report.attempts
        );
        assert!(!report.solution.stop.converged());
    }

    #[test]
    fn fault_free_run_is_a_single_attempt_and_matches_plain_distributed() {
        let sys = system(500);
        let cfg = LsqrConfig::new();
        let reference = solve_distributed(&sys, 3, &cfg);
        let report = solve_resilient(
            &sys,
            3,
            &cfg,
            seq_backends(),
            &ResilienceOptions {
                policy: zero_backoff(RecoveryPolicy::default()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.final_ranks, 3);
        assert!(report.telemetry.is_empty(), "{:?}", report.telemetry);
        assert_eq!(report.solution.x, reference.x, "must be bit-identical");
    }

    #[test]
    fn scripted_panic_recovers_from_checkpoint_bit_identically() {
        let sys = system(501);
        let cfg = LsqrConfig::new();
        let reference = solve_distributed(&sys, 2, &cfg);
        // Kill rank 1 mid-run (seq 20 is deep enough that a cadence-2
        // checkpoint exists); the retry resumes and must land exactly on
        // the fault-free trajectory.
        let plan = Arc::new(FaultPlan::scripted(0).with_event(0, 1, 20, FaultKind::RankPanic));
        let report = solve_resilient(
            &sys,
            2,
            &cfg,
            seq_backends(),
            &ResilienceOptions {
                policy: zero_backoff(RecoveryPolicy {
                    checkpoint_every: 2,
                    ..RecoveryPolicy::default()
                }),
                faults: Some(plan),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.attempts.len(), 2, "{:?}", report.attempts);
        assert!(matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Failed { .. }
        ));
        assert!(report.attempts[1].resumed_from.is_some(), "restored");
        assert_eq!(report.telemetry.rank_panics, 1);
        assert_eq!(report.telemetry.retries, 1);
        assert_eq!(report.telemetry.checkpoint_restores, 1);
        assert_eq!(report.solution.x, reference.x, "must be bit-identical");
    }

    #[test]
    fn fail_policy_surfaces_unrecoverable_with_the_attempt_log() {
        let sys = system(502);
        let cfg = LsqrConfig::new();
        // Panic at the very first collective of every attempt.
        let plan = Arc::new(
            FaultPlan::scripted(0)
                .with_event(0, 0, 0, FaultKind::RankPanic)
                .with_event(1, 0, 0, FaultKind::RankPanic),
        );
        let err = solve_resilient(
            &sys,
            2,
            &cfg,
            seq_backends(),
            &ResilienceOptions {
                policy: zero_backoff(RecoveryPolicy {
                    max_retries: 1,
                    on_unrecoverable: OnUnrecoverable::Fail,
                    ..RecoveryPolicy::default()
                }),
                faults: Some(plan),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.attempts.len(), 2);
        assert!(err.to_string().contains("unrecoverable"), "{err}");
    }

    #[test]
    fn degrade_policy_falls_back_to_single_rank_and_still_solves() {
        let sys = system(503);
        let cfg = LsqrConfig::new();
        let reference = crate::lsqr::solve(&sys, &SeqBackend, &cfg);
        // Kill every multi-rank attempt immediately; the supervisor must
        // walk 2 ranks -> 1 rank -> fault-free floor and still converge.
        let plan = Arc::new(
            FaultPlan::scripted(0)
                .with_event(0, 0, 0, FaultKind::RankPanic)
                .with_event(1, 0, 0, FaultKind::RankPanic),
        );
        let report = solve_resilient(
            &sys,
            2,
            &cfg,
            seq_backends(),
            &ResilienceOptions {
                policy: zero_backoff(RecoveryPolicy {
                    max_retries: 0,
                    on_unrecoverable: OnUnrecoverable::Degrade,
                    ..RecoveryPolicy::default()
                }),
                faults: Some(plan),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.final_ranks, 1);
        assert_eq!(report.telemetry.degradations, 2);
        assert!(report.solution.stop.converged(), "{:?}", report.solution);
        // No checkpoint survived (both worlds died at seq 0), so the
        // floor solve starts fresh and matches the plain single-rank
        // solver it delegates to.
        assert_eq!(report.solution.x, reference.x);
    }
}
