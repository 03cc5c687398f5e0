//! Cross-backend LSQR trajectory agreement, measured in ULPs.
//!
//! Final solutions can agree while intermediate iterates quietly diverge —
//! the classic way a subtly wrong reduction slips through solution-level
//! tests. This module runs a fixed number of LSQR iterations on every
//! backend and compares the **per-iteration scalars** (α, β, ρ̄, φ̄, ‖r‖,
//! ‖Aᵀr‖) against the sequential reference. Parallel backends reduce in a
//! different order than the sequential one, so exact equality is not
//! expected even from schedule-deterministic backends; the divergence must
//! instead stay within a calibrated ULP budget.

use gaia_backends::{backend_by_name, SeqBackend};
use gaia_lsqr::lsqr::Lsqr;
use gaia_lsqr::{LsqrConfig, TrajectorySample};
use gaia_sparse::fuzz;
use serde::Serialize;

use crate::ulp;

/// Iterations compared per (backend, seed). Rounding divergence compounds
/// per iteration, so more iterations need a larger budget; 12 exercises
/// several full update cycles while the scalars are still far from the
/// convergence noise floor.
pub const TRAJECTORY_ITERS: usize = 12;

/// Maximum accepted ULP distance between a backend's trajectory scalars
/// and the sequential reference. Calibrated by measurement over the
/// committed corpus: the observed worst case is 111 ULP (β under the
/// replicated reduction at iteration 12, seed 3); the budget leaves
/// ~590× headroom above that, while a genuinely wrong reduction (lost
/// update, wrong chunk boundary) lands many orders of magnitude higher.
/// Re-derive with the ignored `print_trajectory_divergence_calibration`
/// test after solver or kernel changes.
pub const TRAJECTORY_ULP_BUDGET: u64 = 1 << 16;

/// Scalars whose absolute difference is below this floor are treated as
/// equal. It is far below rounding noise at the corpus's O(1–100) scalar
/// magnitudes, so it never masks a real divergence there; it only guards
/// the degenerate near-zero regime (φ̄, ‖Aᵀr‖ decaying at convergence),
/// where ULP distance counts every denormal across the zero crossing
/// while the values are numerically indistinguishable.
pub const ABS_FLOOR: f64 = 1e-14;

/// Worst divergence of one backend's trajectory from the reference.
#[derive(Debug, Clone, Serialize)]
pub struct TrajectoryDivergence {
    /// Backend under test.
    pub backend: String,
    /// Corpus seed that generated the system.
    pub seed: u64,
    /// Iterations actually compared.
    pub iterations: usize,
    /// Maximum ULP distance over all scalars and iterations.
    pub max_ulp: u64,
    /// Scalar that realized the maximum (`none` if bit-identical).
    pub worst_scalar: String,
    /// Iteration index that realized the maximum.
    pub worst_iteration: usize,
}

impl TrajectoryDivergence {
    /// True iff the divergence stayed within [`TRAJECTORY_ULP_BUDGET`].
    pub fn within_budget(&self) -> bool {
        self.max_ulp <= TRAJECTORY_ULP_BUDGET
    }
}

fn scalars(s: &TrajectorySample) -> [(&'static str, f64); 6] {
    [
        ("alfa", s.alfa),
        ("beta", s.beta),
        ("rhobar", s.rhobar),
        ("phibar", s.phibar),
        ("rnorm", s.rnorm),
        ("arnorm", s.arnorm),
    ]
}

/// Run [`TRAJECTORY_ITERS`] iterations of `backend_name` and the sequential
/// reference on the system of `seed` and report the worst per-scalar ULP
/// divergence.
pub fn compare_with_seq(seed: u64, backend_name: &str, threads: usize) -> TrajectoryDivergence {
    let sys = fuzz::system_from_seed(seed);
    let cfg = LsqrConfig::fixed_iterations(TRAJECTORY_ITERS);
    let reference = Lsqr::new(&sys, &SeqBackend, cfg).trajectory(TRAJECTORY_ITERS);
    let be = backend_by_name(backend_name, threads)
        .unwrap_or_else(|| panic!("unknown backend {backend_name:?}"));
    let got = Lsqr::new(&sys, &be, cfg).trajectory(TRAJECTORY_ITERS);
    divergence(backend_name, seed, &reference, &got)
}

/// Worst per-scalar ULP divergence between two trajectories of the system
/// of `seed`, sample by sample; `subject` names the path that produced
/// `got` (a backend, or any other way of running the recurrence).
pub fn divergence(
    subject: &str,
    seed: u64,
    reference: &[TrajectorySample],
    got: &[TrajectorySample],
) -> TrajectoryDivergence {
    assert_eq!(
        reference.len(),
        got.len(),
        "fixed-iteration trajectories must have equal length"
    );

    let mut worst: (u64, &'static str, usize) = (0, "none", 0);
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(r.itn, g.itn, "samples must pair up by iteration");
        for ((label, a), (_, b)) in scalars(r).into_iter().zip(scalars(g)) {
            if (a - b).abs() <= ABS_FLOOR {
                continue;
            }
            let d = ulp::ulp_distance(a, b);
            if d > worst.0 {
                worst = (d, label, r.itn);
            }
        }
    }
    gaia_telemetry::record_verify_ulp(worst.0);
    TrajectoryDivergence {
        backend: subject.into(),
        seed,
        iterations: got.last().map_or(0, |s| s.itn),
        max_ulp: worst.0,
        worst_scalar: worst.1.into(),
        worst_iteration: worst.2,
    }
}
