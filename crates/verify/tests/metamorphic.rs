//! Metamorphic and trajectory acceptance tests across every backend.
//!
//! The cheap fixed-iteration properties (scaling equivariances, trajectory
//! agreement) run over the full committed corpus; the solve-to-convergence
//! properties subsample it (every third seed) to keep the suite's wall
//! time reasonable — the `verify` binary covers the full cross product.

use std::sync::Mutex;

use gaia_backends::{backend_by_name, SeqBackend};
use gaia_lsqr::distributed::{try_solve_hybrid, DistOptions};
use gaia_lsqr::lsqr::{Lsqr, LsqrState};
use gaia_lsqr::{LsqrConfig, TrajectorySample};
use gaia_sparse::fuzz;
use gaia_verify::metamorphic::{self, PropertyOutcome, BACKENDS, THREADS};
use gaia_verify::{corpus, trajectory};

fn full_corpus() -> Vec<u64> {
    corpus::corpus_seeds()
}

fn subsampled_corpus() -> Vec<u64> {
    corpus::corpus_seeds().into_iter().step_by(3).collect()
}

fn assert_all_passed(outcomes: Vec<PropertyOutcome>) {
    let failures: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.passed)
        .map(|o| {
            format!(
                "{} / {} / seed {}: {}",
                o.property, o.backend, o.seed, o.detail
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} checks failed:\n{}",
        failures.len(),
        outcomes.len(),
        failures.join("\n")
    );
}

#[test]
fn rhs_scaling_equivariance_holds_on_every_backend() {
    let mut outcomes = Vec::new();
    for backend in BACKENDS {
        for &seed in &full_corpus() {
            outcomes.push(metamorphic::check_rhs_scaling(seed, backend));
        }
    }
    assert_all_passed(outcomes);
}

#[test]
fn column_scaling_equivariance_holds_on_every_backend() {
    let mut outcomes = Vec::new();
    for backend in BACKENDS {
        for &seed in &full_corpus() {
            outcomes.push(metamorphic::check_column_scaling(seed, backend));
        }
    }
    assert_all_passed(outcomes);
}

#[test]
fn row_permutation_invariance_holds_on_every_backend() {
    let mut outcomes = Vec::new();
    for backend in BACKENDS {
        for &seed in &subsampled_corpus() {
            outcomes.push(metamorphic::check_row_permutation(seed, backend));
        }
    }
    assert_all_passed(outcomes);
}

#[test]
fn known_solutions_converge_on_every_backend() {
    let mut outcomes = Vec::new();
    for backend in BACKENDS {
        for &seed in &subsampled_corpus() {
            outcomes.push(metamorphic::check_known_solution(seed, backend));
        }
    }
    assert_all_passed(outcomes);
}

#[test]
fn checkpoint_resume_agrees_with_uninterrupted_solves() {
    let mut outcomes = Vec::new();
    for backend in BACKENDS {
        for &seed in &full_corpus() {
            outcomes.push(metamorphic::check_checkpoint_resume(seed, backend));
        }
    }
    assert_all_passed(outcomes);
}

#[test]
fn checkpoint_resume_is_bitwise_at_one_thread_for_every_registry_name() {
    let mut outcomes = Vec::new();
    for backend in gaia_backends::backend_names() {
        for &seed in &full_corpus() {
            outcomes.push(metamorphic::check_checkpoint_resume_single_thread(
                seed, backend,
            ));
        }
    }
    assert_all_passed(outcomes);
}

#[test]
fn lsqr_trajectories_stay_within_the_ulp_budget_on_every_backend() {
    let mut failures = Vec::new();
    for backend in BACKENDS.iter().filter(|b| **b != "seq") {
        for &seed in &full_corpus() {
            let t = trajectory::compare_with_seq(seed, backend, THREADS);
            if !t.within_budget() {
                failures.push(format!(
                    "{} / seed {}: {} ulp on {} at iteration {}",
                    t.backend, t.seed, t.max_ulp, t.worst_scalar, t.worst_iteration
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "trajectory divergence exceeded {} ulp:\n{}",
        trajectory::TRAJECTORY_ULP_BUDGET,
        failures.join("\n")
    );
}

/// The distributed row of the differential matrix: a solve sharded over
/// 1–4 ranks (`seq` on each, or `atomic-t2`, whose rank block runs the
/// one-launch Golub–Kahan pass on its view) runs the same recurrence as
/// the resident one, with `‖u‖` and `Aᵀu` summed rank by rank instead of
/// row by row. Its per-iteration scalars, read off a checkpoint taken at
/// every iteration, must stay within the budget every backend is held to.
#[test]
fn distributed_trajectories_stay_within_the_ulp_budget_at_every_rank_count() {
    let iters = trajectory::TRAJECTORY_ITERS;
    let cfg = LsqrConfig::fixed_iterations(iters);
    let mut failures = Vec::new();
    for &seed in &full_corpus() {
        let sys = fuzz::system_from_seed(seed);
        let reference = Lsqr::new(&sys, &SeqBackend, cfg).trajectory(iters);
        // A rank holds at least one star; the smallest corpus systems
        // have two.
        let max_ranks = sys.layout().n_stars.min(4) as usize;
        for (name, ranks) in ["seq", "atomic-t2"]
            .into_iter()
            .flat_map(|name| (1..=max_ranks).map(move |ranks| (name, ranks)))
        {
            let got: Mutex<Vec<TrajectorySample>> = Mutex::new(Vec::new());
            let sink = |st: &LsqrState| got.lock().unwrap().push(st.sample());
            let opts = DistOptions {
                checkpoint_every: 1,
                checkpoint_sink: Some(&sink),
                ..Default::default()
            };
            let backend_for = |_| backend_by_name(name, 2).expect("a registry name");
            try_solve_hybrid(&sys, ranks, &cfg, backend_for, &opts).unwrap();
            // No checkpoint follows the iteration that stops the solve.
            let got = got.into_inner().unwrap();
            assert_eq!(got.len(), iters - 1, "seed {seed}, {name} on {ranks} ranks");
            let subject = format!("distributed-{name}-r{ranks}");
            let t = trajectory::divergence(&subject, seed, &reference[1..iters], &got);
            if !t.within_budget() {
                failures.push(format!(
                    "{} / seed {}: {} ulp on {} at iteration {}",
                    t.backend, t.seed, t.max_ulp, t.worst_scalar, t.worst_iteration
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "trajectory divergence exceeded {} ulp:\n{}",
        trajectory::TRAJECTORY_ULP_BUDGET,
        failures.join("\n")
    );
}

/// Calibration helper, not a gate: prints the observed worst-case ULP
/// divergence per backend over the corpus so [`trajectory::TRAJECTORY_ULP_BUDGET`]
/// can be re-derived after solver or kernel changes. Run with
/// `cargo test -p gaia-verify --test metamorphic -- --ignored --nocapture`.
#[test]
#[ignore = "calibration printer, not a gate"]
fn print_trajectory_divergence_calibration() {
    for backend in BACKENDS.iter().filter(|b| **b != "seq") {
        let mut worst = trajectory::compare_with_seq(0, backend, THREADS);
        for &seed in &full_corpus() {
            let t = trajectory::compare_with_seq(seed, backend, THREADS);
            if t.max_ulp > worst.max_ulp {
                worst = t;
            }
        }
        println!(
            "{:<12} worst {} ulp ({} at iteration {}, seed {})",
            worst.backend, worst.max_ulp, worst.worst_scalar, worst.worst_iteration, worst.seed
        );
    }
}
