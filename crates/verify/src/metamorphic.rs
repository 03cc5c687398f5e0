//! Metamorphic solver properties: invariants a correct LSQR must satisfy
//! regardless of backend, checked without any external oracle.
//!
//! Each property transforms a seeded input system and states how the
//! solution must respond. For backends with a fixed reduction order the
//! scaling properties hold **bitwise** (the transformations are exact
//! powers of two, which commute with IEEE-754 rounding); for
//! reduction-order-nondeterministic backends they hold within
//! [`NONDET_TOLERANCE`].

use gaia_backends::registry::fixed_plan;
use gaia_backends::{backend_by_name, Backend};
use gaia_lsqr::checkpoint::Checkpoint;
use gaia_lsqr::lsqr::Lsqr;
use gaia_lsqr::{solve, LsqrConfig};
use gaia_sparse::{fuzz, Generator, GeneratorConfig, Rhs, ASTRO_PARAMS_PER_STAR};
use serde::Serialize;

use crate::schedule::expect_bitwise;

/// Backends exercised by the suite: the sequential reference plus every
/// conflict strategy the paper's ports map onto, the stream-overlapped
/// budget, the production-style hybrid composition, and the
/// owner-computes plan.
pub const BACKENDS: &[&str] = &[
    "seq",
    "atomic",
    "casloop",
    "replicated",
    "striped",
    "streamed",
    "hybrid",
    "chunked",
];

/// Worker threads handed to every parallel backend under test.
pub const THREADS: usize = 4;

/// Iteration count for the fixed-iteration (bitwise) properties — long
/// enough to exercise the full update cycle, short of any stopping rule.
pub const FIXED_ITERS: usize = 12;

/// Tolerance for equivariance properties on nondeterministic backends,
/// where the two runs differ by reduction-order rounding noise.
pub const NONDET_TOLERANCE: f64 = 1e-7;

/// Tolerance for agreement between two independent solves-to-convergence.
pub const CONVERGED_TOLERANCE: f64 = 1e-5;

/// Relative residual a noise-free (consistent) system must reach.
pub const RESIDUAL_TOLERANCE: f64 = 1e-6;

/// Relative residual-norm agreement between an interrupted-and-resumed
/// solve and an uninterrupted one on a *nondeterministic* backend at
/// [`THREADS`] workers. The two runs sample independent reduction orders,
/// which at the iteration limit shifts the convergence phase: measured
/// differences between two *uninterrupted* solves of one corpus system
/// reach 1.8e-3 (`striped`, 40 pairs a seed), past this bound, so the
/// check fails now and then on the barely overdetermined seeds without
/// any fault in the resume path. It is a check of that spread, not of
/// resume; [`check_checkpoint_resume_single_thread`] holds resume bitwise
/// on every registry name.
pub const RESUME_RNORM_TOLERANCE: f64 = 1e-3;

/// Whether `backend` reduces in a fixed order, making whole runs
/// bitwise-reproducible. Classified by policy, not by spelling: the
/// sequential reference, plus every registry name — suffixed or not —
/// whose one plan resolves all three colliding blocks by a strategy that
/// [`expect_bitwise`] holds to bitwise stability. `tuned` picks its plan
/// per system shape, so it promises nothing.
pub fn is_deterministic(backend: &str) -> bool {
    backend == "seq"
        || fixed_plan(backend, THREADS).is_some_and(|plan| {
            [plan.spec.att, plan.spec.instr, plan.spec.glob]
                .into_iter()
                .all(expect_bitwise)
        })
}

/// A property checker: (seed, backend name) → outcome.
pub type PropertyCheck = fn(u64, &str) -> PropertyOutcome;

/// Outcome of one (property, backend, seed) check.
#[derive(Debug, Clone, Serialize)]
pub struct PropertyOutcome {
    /// Property name (e.g. `rhs-scaling`).
    pub property: String,
    /// Backend under test.
    pub backend: String,
    /// Corpus seed that generated the system.
    pub seed: u64,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable measurement (error magnitudes, stop reasons).
    pub detail: String,
}

fn outcome(
    property: &str,
    backend: &str,
    seed: u64,
    passed: bool,
    detail: String,
) -> PropertyOutcome {
    gaia_telemetry::record(|t| {
        t.verify.properties += 1;
        t.verify.property_failures += u64::from(!passed);
    });
    PropertyOutcome {
        property: property.into(),
        backend: backend.into(),
        seed,
        passed,
        detail,
    }
}

fn backend(name: &str) -> Box<dyn Backend> {
    backend_by_name(name, THREADS).unwrap_or_else(|| panic!("unknown backend {name:?}"))
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// **RHS scaling equivariance**: `b → 2b` must give `x → 2x`. Doubling is
/// exact in IEEE-754, so β doubles exactly, `u = b/β` is bit-identical, the
/// whole bidiagonalization repeats, and only the φ̄ chain (hence `x`)
/// doubles — bitwise on deterministic backends.
pub fn check_rhs_scaling(seed: u64, backend_name: &str) -> PropertyOutcome {
    let sys = fuzz::system_from_seed(seed);
    let mut scaled = sys.clone();
    scaled.set_known_terms(sys.known_terms().iter().map(|v| 2.0 * v).collect());

    let cfg = LsqrConfig::fixed_iterations(FIXED_ITERS);
    let be = backend(backend_name);
    let x = solve(&sys, &be, &cfg).x;
    let x2 = solve(&scaled, &be, &cfg).x;
    let doubled: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();

    let (passed, detail) = if is_deterministic(backend_name) {
        (bitwise_eq(&x2, &doubled), "bitwise x(2b) == 2·x(b)".into())
    } else {
        let err = max_abs_diff(&x2, &doubled);
        (
            err.is_finite() && err <= NONDET_TOLERANCE,
            format!("max |x(2b) − 2·x(b)| = {err:.3e}"),
        )
    };
    outcome("rhs-scaling", backend_name, seed, passed, detail)
}

/// **Column-scaling equivariance**: doubling column `j` of `A` under the
/// Jacobi preconditioner leaves the preconditioned trajectory untouched
/// (the column norm doubles exactly, its inverse halves exactly, and the
/// products `2a · d/2` round identically) and exactly halves `x_j`.
pub fn check_column_scaling(seed: u64, backend_name: &str) -> PropertyOutcome {
    let sys = fuzz::system_from_seed(seed);
    // Target an astrometric column: each star block is dense in its five
    // columns, so the scaled column always carries coefficients.
    let layout = *sys.layout();
    let col = (seed % layout.n_stars) * ASTRO_PARAMS_PER_STAR as u64 + (seed / 7) % 5;
    let mut scaled = sys.clone();
    let touched = scaled.scale_column(col, 2.0);
    assert!(touched > 0, "astro column {col} has no coefficients");

    // fixed_iterations keeps precondition = true, which this property needs.
    let cfg = LsqrConfig::fixed_iterations(FIXED_ITERS);
    let be = backend(backend_name);
    let x = solve(&sys, &be, &cfg).x;
    let xs = solve(&scaled, &be, &cfg).x;
    let mut want = x.clone();
    want[col as usize] /= 2.0;

    let (passed, detail) = if is_deterministic(backend_name) {
        (
            bitwise_eq(&xs, &want),
            format!("bitwise: x_j halves (col {col}), others unchanged"),
        )
    } else {
        let err = max_abs_diff(&xs, &want);
        (
            err.is_finite() && err <= NONDET_TOLERANCE,
            format!("col {col}: max |x_scaled − want| = {err:.3e}"),
        )
    };
    outcome("column-scaling", backend_name, seed, passed, detail)
}

/// **Row-permutation invariance**: reordering observations within a star
/// (and constraint rows among themselves) describes the same least-squares
/// problem, so two solves-to-convergence must agree on `x`.
pub fn check_row_permutation(seed: u64, backend_name: &str) -> PropertyOutcome {
    let sys = fuzz::system_from_seed(seed);
    let mut permuted = sys.clone();
    permuted
        .permute_rows(&fuzz::permutation_within_stars(seed ^ 0x00b5, sys.layout()))
        .expect("fuzz permutations are always valid");

    let cfg = LsqrConfig::new().compute_var(false).max_iters(600);
    let be = backend(backend_name);
    let a = solve(&sys, &be, &cfg);
    let p = solve(&permuted, &be, &cfg);
    let err = max_abs_diff(&a.x, &p.x);
    let passed = err.is_finite() && err <= CONVERGED_TOLERANCE;
    outcome(
        "row-permutation",
        backend_name,
        seed,
        passed,
        format!(
            "max |x − x_perm| = {err:.3e} (stop {:?} / {:?})",
            a.stop, p.stop
        ),
    )
}

/// **Known-solution residual convergence**: on a noise-free system
/// synthesized as `b = A·x_true`, the solve must drive the independently
/// recomputed relative residual ‖b − Ax‖/‖b‖ below [`RESIDUAL_TOLERANCE`]
/// (rank-deficient layouts may converge to a different minimizer than
/// `x_true`, but a consistent system always admits a zero residual).
pub fn check_known_solution(seed: u64, backend_name: &str) -> PropertyOutcome {
    let config = GeneratorConfig::new(fuzz::layout_from_seed(seed))
        .seed(seed ^ 0x0f2ee5eed)
        .rhs(Rhs::FromTrueSolution { noise_sigma: 0.0 });
    let (sys, truth) = Generator::new(config).generate_with_truth();
    let truth = truth.expect("Rhs::FromTrueSolution always yields a truth vector");

    let be = backend(backend_name);
    let sol = solve(
        &sys,
        &be,
        &LsqrConfig::new().compute_var(false).max_iters(800),
    );

    let bnorm = sys.known_terms().iter().map(|v| v * v).sum::<f64>().sqrt();
    let rnorm = (0..sys.n_rows())
        .map(|r| {
            let d = sys.row_dot(r, &sol.x) - sys.known_terms()[r];
            d * d
        })
        .sum::<f64>()
        .sqrt();
    let rel = rnorm / bnorm;
    let xerr = max_abs_diff(&sol.x, &truth);
    let passed = rel.is_finite() && rel <= RESIDUAL_TOLERANCE;
    outcome(
        "known-solution",
        backend_name,
        seed,
        passed,
        format!(
            "‖b − Ax‖/‖b‖ = {rel:.3e}, max |x − x_true| = {xerr:.3e}, stop {:?} after {}",
            sol.stop, sol.iterations
        ),
    )
}

/// **Checkpoint/resume identity**: interrupting a solve, round-tripping the
/// state through the serialized checkpoint format, and resuming must agree
/// with the uninterrupted solve. The serialized state must restore
/// bit-identically on *every* backend; the resumed solve must then match
/// the uninterrupted one bitwise on deterministic backends. On
/// nondeterministic backends the two runs are independent samples of the
/// reduction order, and on ill-conditioned systems their iterates drift
/// apart along flat directions — so the invariant compared there is the
/// *residual norm* (what LSQR minimizes, so it is insensitive to
/// flat-direction drift in `x`), which must agree to
/// [`RESUME_RNORM_TOLERANCE`] relative.
pub fn check_checkpoint_resume(seed: u64, backend_name: &str) -> PropertyOutcome {
    let bitwise = is_deterministic(backend_name);
    resume("checkpoint-resume", seed, backend_name, THREADS, bitwise)
}

/// **Checkpoint/resume identity at one thread**: with one worker every
/// registry name sums in one fixed order, so on every name — the
/// nondeterministic ones included — the resumed solve must equal the
/// uninterrupted one bitwise, in iterate, iteration count and stop.
pub fn check_checkpoint_resume_single_thread(seed: u64, backend_name: &str) -> PropertyOutcome {
    resume("checkpoint-resume-t1", seed, backend_name, 1, true)
}

/// Interrupt a solve of corpus system `seed` on `backend_name` at
/// `threads` workers after 7 steps, round-trip its state through a
/// checkpoint, resume it to the limit and compare with an uninterrupted
/// solve: bitwise when `bitwise`, else by [`RESUME_RNORM_TOLERANCE`].
fn resume(
    property: &str,
    seed: u64,
    backend_name: &str,
    threads: usize,
    bitwise: bool,
) -> PropertyOutcome {
    let sys = fuzz::system_from_seed(seed);
    let cfg = LsqrConfig::new().compute_var(false).max_iters(60);
    let be = backend_by_name(backend_name, threads)
        .unwrap_or_else(|| panic!("unknown backend {backend_name:?}"));
    let solver = Lsqr::new(&sys, &be, cfg);
    let direct = solver.run();

    let mut state = solver.init_state();
    for _ in 0..7 {
        if state.is_done() {
            break;
        }
        solver.step(&mut state);
    }
    let mut buf = Vec::new();
    Checkpoint::capture(&sys, &cfg, &state)
        .write_to(&mut buf)
        .expect("in-memory checkpoint serialization");
    let restored = Checkpoint::read_from(buf.as_slice())
        .expect("checkpoint round-trip")
        .restore(&sys, &cfg)
        .expect("checkpoint restore");
    let state_round_trip = restored == state;
    let resumed = solver.run_from(restored);

    let (passed, detail) = if bitwise {
        (
            state_round_trip
                && bitwise_eq(&resumed.x, &direct.x)
                && resumed.iterations == direct.iterations
                && resumed.stop == direct.stop,
            format!(
                "state round-trip {state_round_trip}, bitwise resume (stop {:?} at {} vs {:?} at {})",
                resumed.stop, resumed.iterations, direct.stop, direct.iterations
            ),
        )
    } else {
        let rdiff = (resumed.rnorm - direct.rnorm).abs() / (1.0 + direct.rnorm.abs());
        (
            state_round_trip && rdiff.is_finite() && rdiff <= RESUME_RNORM_TOLERANCE,
            format!("state round-trip {state_round_trip}, relative |Δrnorm| = {rdiff:.3e}"),
        )
    };
    outcome(property, backend_name, seed, passed, detail)
}

/// Every property checker, with its name (drives the CLI and the suites).
pub fn all_checks() -> Vec<(&'static str, PropertyCheck)> {
    vec![
        ("rhs-scaling", check_rhs_scaling),
        ("column-scaling", check_column_scaling),
        ("row-permutation", check_row_permutation),
        ("known-solution", check_known_solution),
        ("checkpoint-resume", check_checkpoint_resume),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_follows_the_policy_not_the_spelling() {
        // Suffixed and newer names used to fall through a literal list
        // into the nondeterministic class and its 1e-7 tolerance.
        for name in ["chunked-t4", "tiled", "tiled-t2-c3", "hybrid-t8", "ell-t1"] {
            assert!(is_deterministic(name), "{name}");
        }
        for name in [
            "atomic-t2",
            "casloop-t4-c2",
            "striped-t3",
            "tuned",
            "tuned-t4",
        ] {
            assert!(!is_deterministic(name), "{name}");
        }
        for name in ["cuda", "chunked-t0", "chunked-x4"] {
            assert!(!is_deterministic(name), "{name}");
        }
        // Bare names answer as the literal list did.
        let fixed_order = [
            "seq",
            "chunked",
            "replicated",
            "streamed",
            "hybrid",
            "unrolled",
            "blocked",
            "ell",
        ];
        for name in BACKENDS
            .iter()
            .chain(["rayon", "unrolled", "blocked", "ell"].iter())
        {
            assert_eq!(is_deterministic(name), fixed_order.contains(name), "{name}");
        }
    }
}
