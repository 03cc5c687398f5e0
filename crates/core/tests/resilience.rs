//! End-to-end resilience: fault injection, checkpoint recovery, and the
//! health guards, driven the way a chaos campaign drives them.
//!
//! The headline acceptance test kills a rank mid-solve on the first
//! attempt and corrupts an `allreduce` payload on the retry; the
//! supervisor must recover from periodic checkpoints both times and land
//! **bit-identical** on the fault-free distributed trajectory.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gaia_backends::chaos::{ChaosBackend, ChaosMode, ChaosTarget};
use gaia_backends::{Backend, SeqBackend};
use gaia_lsqr::distributed::DistOptions;
use gaia_lsqr::lsqr::LsqrState;
use gaia_lsqr::resilient::{AttemptOutcome, ResilienceOptions};
use gaia_lsqr::{
    solve, solve_distributed, solve_resilient, try_solve_hybrid, Lsqr, LsqrConfig, RecoveryPolicy,
    StopReason,
};
use gaia_mpi_sim::{install_quiet_panic_hook, FaultKind, FaultPlan};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SparseSystem, SystemLayout};

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

fn no_backoff(policy: RecoveryPolicy) -> RecoveryPolicy {
    RecoveryPolicy {
        backoff: Duration::ZERO,
        ..policy
    }
}

/// Interrupt a single-rank solve at *every* iteration in turn; each
/// checkpoint round-trip must resume onto the bit-exact trajectory.
#[test]
fn crash_at_every_iteration_resumes_bit_identically() {
    let sys = system(600);
    let cfg = LsqrConfig::new();
    let solver = Lsqr::new(&sys, &SeqBackend, cfg);
    let direct = solver.run();
    assert!(direct.stop.converged());

    let mut state = solver.init_state();
    for cut in 1..=direct.iterations {
        assert!(solver.step(&mut state).is_none() || cut == direct.iterations);
        // Round-trip through the checkpoint container, as a real restart would.
        let ckpt = gaia_lsqr::Checkpoint::capture(&sys, &cfg, &state);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let restored = gaia_lsqr::Checkpoint::read_from(buf.as_slice())
            .unwrap()
            .restore(&sys, &cfg)
            .unwrap();
        let resumed = solver.run_from(restored);
        assert_eq!(resumed.x, direct.x, "cut at iteration {cut}");
        assert_eq!(resumed.iterations, direct.iterations);
        assert_eq!(resumed.stop, direct.stop);
    }
}

/// Every periodic snapshot a distributed solve emits must resume — at the
/// same rank count — onto the bit-exact uninterrupted trajectory.
#[test]
fn distributed_periodic_checkpoints_resume_bit_identically() {
    let sys = system(601);
    let cfg = LsqrConfig::new();
    let n_ranks = 3;
    let reference = solve_distributed(&sys, n_ranks, &cfg);
    assert!(reference.stop.converged());

    let snapshots: Mutex<Vec<LsqrState>> = Mutex::new(Vec::new());
    let sink = |st: &LsqrState| snapshots.lock().unwrap().push(st.clone());
    let opts = DistOptions {
        checkpoint_every: 4,
        checkpoint_sink: Some(&sink),
        ..Default::default()
    };
    let sol = try_solve_hybrid(&sys, n_ranks, &cfg, |_| Box::new(SeqBackend), &opts).unwrap();
    assert_eq!(sol.x, reference.x, "checkpointing must not alter the run");

    let snapshots = snapshots.into_inner().unwrap();
    assert!(
        snapshots.len() >= 2,
        "expected several snapshots, got {}",
        snapshots.len()
    );
    for st in &snapshots {
        let resume = DistOptions {
            resume: Some(st),
            ..Default::default()
        };
        let resumed =
            try_solve_hybrid(&sys, n_ranks, &cfg, |_| Box::new(SeqBackend), &resume).unwrap();
        assert_eq!(
            resumed.x, reference.x,
            "resume from iteration {} deviates",
            st.itn
        );
        assert_eq!(resumed.iterations, reference.iterations);
    }
}

/// The acceptance scenario: rank death on attempt 0, corrupted allreduce
/// on attempt 1; the supervisor restores periodic checkpoints both times
/// and converges bit-identical to the fault-free distributed run.
#[test]
fn panic_then_corruption_recovers_bit_identically() {
    install_quiet_panic_hook();
    let sys = system(602);
    let cfg = LsqrConfig::new();
    let reference = solve_distributed(&sys, 2, &cfg);
    assert!(reference.stop.converged());
    assert!(
        reference.iterations > 10,
        "need a long enough run for mid-flight faults, got {}",
        reference.iterations
    );

    // An iteration makes three collectives: the `aprod2` vector
    // allreduce of its Golub–Kahan pass, the `‖u‖` scalar, the stop
    // verdict; the start makes two (`‖b‖`, `aprod2`), each checkpoint
    // one allgather. Attempt 0 (fresh, cadence 2): seq 19 is iteration
    // 6's aprod2 — after the iteration-4 checkpoint. Attempt 1 (resumed
    // from itn 4): seq 7 is iteration 7's aprod2, after the iteration-6
    // checkpoint; bit 62 blows the payload word up to ~1e305, which the
    // health guards must catch before the iteration-8 checkpoint can
    // persist the damage.
    let plan = Arc::new(
        FaultPlan::scripted(0)
            .with_event(0, 1, 19, FaultKind::RankPanic)
            .with_event(1, 0, 7, FaultKind::BitFlip { bit: 62 }),
    );
    let report = solve_resilient(
        &sys,
        2,
        &cfg,
        seq_backends(),
        &ResilienceOptions {
            policy: no_backoff(RecoveryPolicy {
                checkpoint_every: 2,
                ..RecoveryPolicy::default()
            }),
            faults: Some(plan.clone()),
            ..Default::default()
        },
    )
    .unwrap();

    assert_eq!(report.attempts.len(), 3, "{:#?}", report.attempts);
    assert!(matches!(
        report.attempts[0].outcome,
        AttemptOutcome::Failed { .. }
    ));
    assert_eq!(report.attempts[1].outcome, AttemptOutcome::Breakdown);
    assert_eq!(report.attempts[1].resumed_from, Some(4));
    assert!(matches!(
        report.attempts[2].outcome,
        AttemptOutcome::Completed(_)
    ));
    assert_eq!(report.attempts[2].resumed_from, Some(6));

    assert_eq!(report.telemetry.rank_panics, 1);
    assert_eq!(report.telemetry.bit_flips, 1);
    assert_eq!(report.telemetry.breakdowns, 1);
    assert_eq!(report.telemetry.retries, 2);
    assert_eq!(report.telemetry.checkpoint_restores, 2);
    assert_eq!(report.fault_events.len(), 2);

    assert_eq!(report.final_ranks, 2);
    assert!(report.solution.stop.converged(), "{:?}", report.solution);
    assert_eq!(
        report.solution.x, reference.x,
        "recovered solve must be bit-identical to the fault-free run"
    );
    assert_eq!(report.solution.iterations, reference.iterations);
}

/// A NaN escaping a kernel must stop the solver as a numerical breakdown
/// within one iteration — not propagate, not "converge".
#[test]
fn nan_kernel_output_is_a_breakdown_within_one_iteration() {
    let sys = system(603);
    let cfg = LsqrConfig::new();
    // aprod2 call 0 is the initialization; call k (k >= 1) is iteration k.
    let poisoned_call = 5;
    let chaos = ChaosBackend::new(
        SeqBackend,
        ChaosTarget::Aprod2,
        ChaosMode::Nan,
        poisoned_call,
    );
    let sol = solve(&sys, &chaos, &cfg);
    assert_eq!(sol.stop, StopReason::NumericalBreakdown);
    assert_eq!(
        sol.iterations, poisoned_call,
        "breakdown must be caught in the poisoned iteration"
    );
    assert!(!sol.stop.converged());
}

/// `seq`, except that its Golub–Kahan pass number `at` (pass 0 is
/// iteration 1's) writes NaN into row `row` of `u` between the two
/// products, so `Aᵀu` reads it too.
struct PoisonsInsidePass {
    passes: AtomicUsize,
    at: usize,
    row: usize,
}

impl Backend for PoisonsInsidePass {
    fn name(&self) -> String {
        "poisons-inside-pass".into()
    }
    fn description(&self) -> &'static str {
        "seq with one NaN row written inside one Golub–Kahan pass"
    }
    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        SeqBackend.aprod1(sys, x, out);
    }
    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        SeqBackend.aprod2(sys, y, out);
    }
    fn gk_products(
        &self,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        gaia_backends::blas::scal(u, -alfa);
        SeqBackend.aprod1(sys, x, u);
        // ORDERING: `Relaxed`: a pass count on the solving thread only.
        if self.passes.fetch_add(1, Ordering::Relaxed) == self.at {
            u[self.row] = f64::NAN;
        }
        SeqBackend.aprod2(sys, u, out);
    }
}

/// A row poisoned inside the fused pass stops the solve as a breakdown in
/// that same iteration, resident and on every rank of a distributed solve.
#[test]
fn nan_inside_the_fused_pass_is_a_breakdown_in_that_iteration() {
    let sys = system(605);
    let cfg = LsqrConfig::new();
    let poisoned = || PoisonsInsidePass {
        passes: AtomicUsize::new(0),
        at: 3,
        row: 7,
    };
    let sol = solve(&sys, &poisoned(), &cfg);
    assert_eq!(sol.stop, StopReason::NumericalBreakdown);
    assert_eq!(
        sol.iterations, 4,
        "breakdown must be caught in pass 3's iteration"
    );

    let sol = try_solve_hybrid(
        &sys,
        3,
        &cfg,
        |rank| {
            if rank == 2 {
                Box::new(poisoned()) as Box<dyn Backend>
            } else {
                Box::new(SeqBackend)
            }
        },
        &DistOptions::default(),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::NumericalBreakdown);
    assert_eq!(sol.iterations, 4);
}

/// The same guard holds distributed: one rank's poisoned kernel stops
/// every rank in the same iteration via the piggybacked health flag.
#[test]
fn distributed_nan_breakdown_stops_all_ranks() {
    let sys = system(604);
    let cfg = LsqrConfig::new();
    let poisoned_call = 3;
    let sol = try_solve_hybrid(
        &sys,
        3,
        &cfg,
        |rank| {
            if rank == 1 {
                Box::new(ChaosBackend::new(
                    SeqBackend,
                    ChaosTarget::Aprod2,
                    ChaosMode::Nan,
                    poisoned_call,
                )) as Box<dyn Backend>
            } else {
                Box::new(SeqBackend)
            }
        },
        &DistOptions::default(),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::NumericalBreakdown);
    assert_eq!(sol.iterations, poisoned_call);
}

/// A deadline that fires in the very iteration a kernel poisons must not
/// win: the stop is a breakdown on every path, and the poisoned state is
/// never handed to the checkpoint sink a supervisor would resume from.
#[test]
fn breakdown_outranks_cancellation_in_the_same_iteration() {
    use gaia_lsqr::CancellationToken;

    let sys = system(606);
    let cfg = LsqrConfig::new();
    // aprod2 call 1 is iteration 1, where the pre-cancelled token is
    // first looked at.
    let poisoned = || ChaosBackend::new(SeqBackend, ChaosTarget::Aprod2, ChaosMode::Nan, 1);
    let token = CancellationToken::new();
    token.cancel();

    let chaos = poisoned();
    let resident = Lsqr::new(&sys, &chaos, cfg).with_cancel(token.clone());
    assert_eq!(resident.run().stop, StopReason::NumericalBreakdown);

    let sunk: Mutex<Vec<LsqrState>> = Mutex::new(Vec::new());
    let sink = |st: &LsqrState| sunk.lock().unwrap().push(st.clone());
    let sol = try_solve_hybrid(
        &sys,
        3,
        &cfg,
        |rank| {
            if rank == 1 {
                Box::new(poisoned()) as Box<dyn Backend>
            } else {
                Box::new(SeqBackend)
            }
        },
        &DistOptions {
            checkpoint_every: 1,
            checkpoint_sink: Some(&sink),
            cancel: Some(token),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::NumericalBreakdown);
    assert_eq!(sol.iterations, 1);
    for st in sunk.into_inner().unwrap() {
        let vectors = [&st.x, &st.v, &st.w, &st.u];
        assert!(
            vectors.iter().all(|v| v.iter().all(|e| e.is_finite())),
            "a poisoned state reached the checkpoint sink at iteration {}",
            st.itn
        );
    }
}

/// With health guards off, the supervisor still recovers a poisoned rank
/// via the degrade path when the kernel panics outright.
#[test]
fn kernel_panic_degrades_to_a_clean_backend() {
    install_quiet_panic_hook();
    let sys = system(605);
    let cfg = LsqrConfig::new();
    // The degraded tier still runs the distributed path (at 1 rank), so
    // that is the bit-exact reference, not the plain solver.
    let reference = solve_distributed(&sys, 1, &cfg);
    // Rank 1's kernel dies on every attempt at 2 ranks; the supervisor
    // must degrade to the single-rank floor and still converge.
    let report = solve_resilient(
        &sys,
        2,
        &cfg,
        |rank| {
            if rank == 1 {
                Box::new(ChaosBackend::new(
                    SeqBackend,
                    ChaosTarget::Aprod1,
                    ChaosMode::Panic,
                    2,
                )) as Box<dyn Backend>
            } else {
                Box::new(SeqBackend)
            }
        },
        &ResilienceOptions {
            policy: no_backoff(RecoveryPolicy {
                max_retries: 0,
                checkpoint_every: 0,
                ..RecoveryPolicy::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.final_ranks, 1);
    assert!(report.solution.stop.converged());
    assert_eq!(report.solution.x, reference.x);
}

/// Deadline semantics, checkpoint half: a solve cancelled mid-iteration
/// leaves a *loadable* on-disk checkpoint behind, across three distinct
/// backends. (The outcome half — DeadlineExceeded never carries a
/// partial solution — is asserted at the service layer in `gaia-serve`.)
#[test]
fn cancelled_solve_persists_a_loadable_checkpoint_across_backends() {
    use gaia_lsqr::{CancellationToken, CheckpointRotation};

    for backend in ["seq", "chunked-t2", "atomic-t2"] {
        // A few-thousand-row system with zero tolerances: iterations are
        // milliseconds each and convergence is dozens of iterations away,
        // so the watcher thread below always cancels mid-solve.
        let sys = Generator::new(
            GeneratorConfig::new(SystemLayout::small())
                .seed(707)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate();
        let mut endless = LsqrConfig::new();
        endless.atol = 0.0;
        endless.btol = 0.0;
        endless.conlim = 1e300;
        endless.max_iters = 2_000_000;

        let stem = std::env::temp_dir().join(format!("gaia-cancel-ckpt-{backend}"));
        let rotation = CheckpointRotation::new(&stem, 2);
        rotation.clear();

        let token = CancellationToken::new();
        // Cancel as soon as the first periodic checkpoint hits disk, so
        // cancellation is guaranteed to strike between iterations.
        let watcher = {
            let token = token.clone();
            let rotation = CheckpointRotation::new(&stem, 2);
            std::thread::spawn(move || {
                while rotation.latest().is_none() {
                    std::thread::sleep(Duration::from_micros(200));
                }
                token.cancel();
            })
        };

        let report = solve_resilient(
            &sys,
            2,
            &endless,
            |_| gaia_backends::registry::backend_by_name(backend, 2).unwrap(),
            &ResilienceOptions {
                policy: no_backoff(RecoveryPolicy {
                    checkpoint_every: 2,
                    ..RecoveryPolicy::default()
                }),
                persist: Some(&rotation),
                cancel: Some(token),
                ..Default::default()
            },
        )
        .unwrap();
        watcher.join().unwrap();

        assert_eq!(
            report.solution.stop,
            StopReason::Cancelled,
            "{backend}: cancellation must interrupt the endless config"
        );
        assert!(!report.solution.stop.converged());

        // The last checkpoint is loadable and resumes to convergence
        // under normal tolerances.
        let (itn, ckpt) = rotation
            .latest()
            .unwrap_or_else(|| panic!("{backend}: cancelled solve left no checkpoint"));
        assert!(itn >= 1 && itn <= report.solution.iterations);
        let cfg = LsqrConfig::new();
        let state = ckpt
            .restore(&sys, &endless)
            .unwrap_or_else(|e| panic!("{backend}: checkpoint not loadable: {e}"));
        let solver = Lsqr::new(&sys, &SeqBackend, cfg);
        let resumed = solver.run_from(state);
        assert!(
            resumed.stop.converged(),
            "{backend}: resume from the cancel checkpoint must converge"
        );
        rotation.clear();
    }
}
