//! LSMR — the companion algorithm to LSQR (Fong & Saunders, SISC 2011).
//!
//! The AVU-GSR line of work discusses algorithmic alternatives to its
//! customized LSQR; LSMR is the natural candidate: it runs on exactly the
//! same two sparse products per iteration (so every backend and the whole
//! performance-portability analysis transfer unchanged) but applies a
//! second QR factorization so that `‖Aᵀr‖` — the least-squares optimality
//! measure — decreases *monotonically*, which makes early stopping safer
//! on noisy systems. This module implements it as an extension, sharing
//! the solver configuration, preconditioning, and output types with LSQR.
//!
//! The implementation follows the reference `LSMR` (and its SciPy
//! translation). It has no bidiagonalization or stopping rules of its
//! own: it starts and steps the Golub–Kahan process of
//! [`OperatorLsqr`] and stops on LSQR's `atol`/`btol`/`conlim` cascade,
//! so the two solvers differ only in the rotations that turn the
//! bidiagonal into `x`.

use gaia_backends::{blas::d2norm, Backend};
use gaia_sparse::SparseSystem;

use crate::config::LsqrConfig;
use crate::lsqr::OperatorLsqr;
use crate::operator::{Operator, OperatorError, SystemOperator};
use crate::solution::{IterationStats, Solution, StopReason};

/// Solve `min ‖A x − b‖` with LSMR on any backend. Accepts the same
/// configuration as LSQR; `compute_var` is ignored (LSMR has no cheap
/// `var` recurrence, so `Solution::var` comes back empty and
/// `standard_errors()` returns `None`).
pub fn solve_lsmr<B: Backend + ?Sized>(
    sys: &SparseSystem,
    backend: &B,
    cfg: &LsqrConfig,
) -> Solution {
    OperatorLsqr::new(SystemOperator::new(sys, backend), *cfg)
        .and_then(|solver| lsmr(&solver))
        .expect("resident operator cannot fail")
}

/// LSMR over the Golub–Kahan process of `solver`'s operator.
fn lsmr<O: Operator>(solver: &OperatorLsqr<O>) -> Result<Solution, OperatorError> {
    let cfg = solver.config();
    let m = solver.operator().n_rows();
    let n = solver.operator().n_cols();
    let damp = cfg.damp;

    let (mut u, mut v, mut alpha, mut beta) = solver.gk_start()?;
    let normb = beta;
    let mut x = vec![0.0f64; n];
    let mut history = Vec::new();

    if alpha * beta == 0.0 {
        return Ok(Solution {
            x,
            var: Vec::new(),
            stop: StopReason::TrivialSolution,
            iterations: 0,
            rnorm: normb,
            arnorm: 0.0,
            anorm: 0.0,
            acond: 0.0,
            xnorm: 0.0,
            bnorm: normb,
            n_rows: m,
            history,
        });
    }

    // LSMR state (names follow the reference implementation).
    let mut h = v.clone();
    let mut hbar = vec![0.0f64; n];
    let mut zetabar = alpha * beta;
    let mut alphabar = alpha;
    let mut rho = 1.0f64;
    let mut rhobar = 1.0f64;
    let mut cbar = 1.0f64;
    let mut sbar = 0.0f64;

    // Residual-norm estimation state.
    let mut betadd = beta;
    let mut betad = 0.0f64;
    let mut rhodold = 1.0f64;
    let mut tautildeold = 0.0f64;
    let mut thetatilde = 0.0f64;
    let mut zeta = 0.0f64;
    let mut dnorm_sq = 0.0f64;

    // ‖A‖ and cond(A) estimation state.
    let mut norm_a2 = alpha * alpha;
    let mut maxrbar = 0.0f64;
    let mut minrbar = 1e100f64;

    let mut istop = StopReason::IterationLimit;
    let mut itn = 0usize;
    let mut normr = beta;
    let mut normar = alpha * beta;
    let mut norma = norm_a2.sqrt();
    let mut conda = 1.0;

    while itn < cfg.max_iters {
        itn += 1;
        // gaia-analyze: allow(timing): per-iteration wall time is solver
        // output (convergence traces), recorded via telemetry when enabled.
        let t_iter = std::time::Instant::now();

        solver.gk_step(&mut u, &mut v, &mut alpha, &mut beta)?;

        // Construct rotation \hat{P} (eliminates damping).
        let alphahat = d2norm(alphabar, damp);
        let chat = alphabar / alphahat;
        let shat = damp / alphahat;

        // Rotation P_k.
        let rhoold = rho;
        rho = d2norm(alphahat, beta);
        let c = alphahat / rho;
        let s = beta / rho;
        let thetanew = s * alpha;
        alphabar = c * alpha;

        // Rotation \bar{P}_k.
        let rhobarold = rhobar;
        let zetaold = zeta;
        let thetabar = sbar * rho;
        let rhotemp = cbar * rho;
        rhobar = d2norm(cbar * rho, thetanew);
        cbar = cbar * rho / rhobar;
        sbar = thetanew / rhobar;
        zeta = cbar * zetabar;
        zetabar *= -sbar;

        // Update hbar, x, h.
        let hbar_scale = thetabar * rho / (rhoold * rhobarold);
        for i in 0..n {
            hbar[i] = h[i] - hbar_scale * hbar[i];
        }
        let x_scale = zeta / (rho * rhobar);
        for i in 0..n {
            x[i] += x_scale * hbar[i];
        }
        let h_scale = thetanew / rho;
        for i in 0..n {
            h[i] = v[i] - h_scale * h[i];
        }

        // Residual-norm estimate ‖r‖.
        let betaacute = chat * betadd;
        let betacheck = -shat * betadd;
        let betahat = c * betaacute;
        betadd = -s * betaacute;
        let thetatildeold = thetatilde;
        let rhotildeold = d2norm(rhodold, thetabar);
        let ctildeold = rhodold / rhotildeold;
        let stildeold = thetabar / rhotildeold;
        thetatilde = stildeold * rhobar;
        rhodold = ctildeold * rhobar;
        betad = -stildeold * betad + ctildeold * betahat;
        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold;
        let taud = (zeta - thetatilde * tautildeold) / rhodold;
        dnorm_sq += betacheck * betacheck;
        normr = (dnorm_sq + (betad - taud) * (betad - taud) + betadd * betadd).sqrt();

        // ‖A‖, cond(A), ‖Aᵀr‖, ‖x‖ estimates.
        norm_a2 += beta * beta;
        norma = norm_a2.sqrt();
        norm_a2 += alpha * alpha;
        maxrbar = maxrbar.max(rhobarold);
        if itn > 1 {
            minrbar = minrbar.min(rhobarold);
        }
        conda = maxrbar.max(rhotemp) / minrbar.min(rhotemp);
        normar = zetabar.abs();
        history.push(IterationStats {
            iteration: itn,
            rnorm: normr,
            arnorm: normar,
            anorm: norma,
            acond: conda,
            xnorm: gaia_backends::blas::nrm2(&x),
            seconds: t_iter.elapsed().as_secs_f64(),
        });
        if let Some(reason) = solver.stop_rule(history.last().expect("just pushed"), normb) {
            istop = reason;
            break;
        }
    }

    solver.scaling().unscale_solution(&mut x);
    let xnorm = gaia_backends::blas::nrm2(&x);
    Ok(Solution {
        x,
        var: Vec::new(),
        stop: istop,
        iterations: itn,
        rnorm: normr,
        arnorm: normar,
        anorm: norma,
        acond: conda,
        xnorm,
        bnorm: normb,
        n_rows: m,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::solve;
    use gaia_backends::{backend_by_name, SeqBackend};
    use gaia_sparse::dense::DenseMatrix;
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    fn system(seed: u64, noise: f64) -> gaia_sparse::SparseSystem {
        Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: noise }),
        )
        .generate()
    }

    #[test]
    fn lsmr_matches_dense_least_squares() {
        let sys = system(501, 1e-3);
        let sol = solve_lsmr(&sys, &SeqBackend, &LsqrConfig::new().max_iters(20_000));
        assert!(sol.stop.converged(), "{:?}", sol.stop);
        let dense = DenseMatrix::from_sparse(&sys);
        let x_ls = dense.least_squares(sys.known_terms());
        let err: f64 = sol
            .x
            .iter()
            .zip(&x_ls)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let scale: f64 = x_ls.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / scale < 1e-6, "relative error {}", err / scale);
    }

    #[test]
    fn lsmr_and_lsqr_agree() {
        let sys = system(502, 1e-6);
        let lsqr = solve(&sys, &SeqBackend, &LsqrConfig::new());
        let lsmr = solve_lsmr(&sys, &SeqBackend, &LsqrConfig::new());
        let max_diff = lsqr
            .x
            .iter()
            .zip(&lsmr.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-7, "LSQR vs LSMR differ by {max_diff}");
    }

    #[test]
    fn lsmr_arnorm_is_monotone() {
        // LSMR's defining property: ‖Aᵀr‖ decreases monotonically (LSQR's
        // does not in general).
        let sys = system(503, 1e-2);
        let sol = solve_lsmr(&sys, &SeqBackend, &LsqrConfig::new().max_iters(200));
        for w in sol.history.windows(2) {
            assert!(
                w[1].arnorm <= w[0].arnorm * (1.0 + 1e-9),
                "‖Aᵀr‖ increased: {} -> {} at iter {}",
                w[0].arnorm,
                w[1].arnorm,
                w[1].iteration
            );
        }
    }

    #[test]
    fn lsmr_runs_on_parallel_backends() {
        let sys = system(504, 1e-8);
        let seq = solve_lsmr(&sys, &SeqBackend, &LsqrConfig::new());
        let atomic = backend_by_name("atomic", 4).unwrap();
        let par = solve_lsmr(&sys, &atomic, &LsqrConfig::new());
        let max_diff = seq
            .x
            .iter()
            .zip(&par.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-8);
    }

    #[test]
    fn lsmr_zero_rhs_is_trivial() {
        let mut sys = system(505, 0.0);
        sys.set_known_terms(vec![0.0; sys.n_rows()]);
        let sol = solve_lsmr(&sys, &SeqBackend, &LsqrConfig::new());
        assert_eq!(sol.stop, StopReason::TrivialSolution);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lsmr_has_no_variance_estimates() {
        let sys = system(506, 1e-6);
        let sol = solve_lsmr(&sys, &SeqBackend, &LsqrConfig::new());
        assert!(sol.var.is_empty());
        assert!(sol.standard_errors().is_none());
    }
}
