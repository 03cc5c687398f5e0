//! The preconditioned LSQR solver (Paige & Saunders, ACM TOMS 1982).
//!
//! Structure of one iteration (the object of every measurement in the
//! paper): one `aprod1` (`u ← A v − α u`, paper Eq. 3), one `aprod2`
//! (`v ← Aᵀ u − β v`, paper Eq. 4), two norms, and the plane-rotation
//! bookkeeping that updates `x`, `w`, and the convergence estimates.
//! The sparse products, the BLAS-1 work and the two reductions a sharded
//! matrix needs are delegated to an [`Operator`]; this file holds the only
//! copy of the recurrence, its stopping rules, and the hook where health
//! guards and cancellation stop it, so resident ([`Lsqr`]), out-of-core
//! ([`crate::ooc`]) and distributed ([`crate::distributed`]) solves differ
//! in their operator and in nothing else.
//!
//! With preconditioning enabled the solver works on `min ‖(A D) y − b‖`
//! (`D` from [`ColumnScaling`]) and maps `y`, `var` back to the original
//! variables before returning, so callers never see preconditioned
//! quantities. The residual norm `‖b − A x‖` is identical in both spaces.
//!
//! The solver is *resumable*: the full Golub–Kahan state lives in a
//! serializable [`LsqrState`], advanced one iteration at a time by
//! [`Lsqr::step`]. [`Lsqr::run`] is the ordinary solve loop on top;
//! [`crate::checkpoint`] persists/restores the state, mirroring the
//! production pipeline's restart files (long AVU-GSR runs at CINECA are
//! checkpointed between job allocations).

use std::time::Instant;

use gaia_backends::{blas::d2norm, Backend};
use gaia_sparse::SparseSystem;
use serde::{Deserialize, Serialize};

use crate::cancel::CancellationToken;
use crate::config::LsqrConfig;
use crate::operator::{Operator, OperatorError, SystemOperator};
use crate::precond::ColumnScaling;
use crate::solution::{IterationStats, Solution, StopReason};

/// LSQR solver bound to a generic [`Operator`] — the numerics core every
/// entry point (resident [`Lsqr`], out-of-core [`crate::ooc`], each rank
/// of [`crate::distributed`]) runs on.
/// Products are fallible, so every driver method returns `Result`; the
/// resident wrapper unwraps them (its operator cannot fail).
pub struct OperatorLsqr<O: Operator> {
    op: O,
    config: LsqrConfig,
    scaling: ColumnScaling,
    cancel: Option<CancellationToken>,
}

/// LSQR solver bound to a resident system, a backend, and a configuration.
pub struct Lsqr<'a, B: Backend + ?Sized> {
    inner: OperatorLsqr<SystemOperator<'a, B>>,
}

/// Convenience wrapper: build an [`Lsqr`] and run it.
pub fn solve<B: Backend + ?Sized>(
    sys: &SparseSystem,
    backend: &B,
    config: &LsqrConfig,
) -> Solution {
    Lsqr::new(sys, backend, *config).run()
}

/// Convenience wrapper: build an [`OperatorLsqr`] over any operator and
/// run it, propagating operator failures (I/O, checksum, budget).
pub fn solve_operator<O: Operator>(op: O, config: &LsqrConfig) -> Result<Solution, OperatorError> {
    OperatorLsqr::new(op, *config)?.try_run()
}

/// The complete mutable state of a solve between iterations.
///
/// Everything needed to continue the bidiagonalization is here — vectors
/// in the *preconditioned* space, plane-rotation scalars, and the norm
/// estimators — so a state serialized after iteration `k` and restored
/// into a fresh process continues bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LsqrState {
    /// Iterations completed.
    pub itn: usize,
    /// Solution accumulator (preconditioned space).
    pub x: Vec<f64>,
    /// Right bidiagonalization vector.
    pub v: Vec<f64>,
    /// Search-direction vector.
    pub w: Vec<f64>,
    /// Left bidiagonalization vector (length `n_rows`).
    pub u: Vec<f64>,
    /// Accumulated `var` estimates (empty when disabled).
    pub var: Vec<f64>,
    /// Current α.
    pub alfa: f64,
    /// Current β.
    pub beta: f64,
    /// Plane-rotation state.
    pub rhobar: f64,
    /// Residual-norm recursion state.
    pub phibar: f64,
    /// Frobenius-norm estimate of `A`.
    pub anorm: f64,
    /// Condition estimate.
    pub acond: f64,
    /// Σ‖d_k‖².
    pub ddnorm: f64,
    /// Damped-residual accumulator.
    pub res2: f64,
    /// Current residual norm.
    pub rnorm: f64,
    /// Current ‖Aᵀr‖ estimate.
    pub arnorm: f64,
    /// ‖x‖ estimator state.
    pub xnorm: f64,
    /// ‖x‖ estimator state.
    pub xxnorm: f64,
    /// ‖x‖ estimator state.
    pub z: f64,
    /// ‖x‖ estimator state.
    pub cs2: f64,
    /// ‖x‖ estimator state.
    pub sn2: f64,
    /// ‖b‖ (fixed after initialization).
    pub bnorm: f64,
    /// Stop reason once decided.
    pub stopped: Option<StopReason>,
    /// Per-iteration diagnostics.
    pub history: Vec<IterationStats>,
}

impl LsqrState {
    /// True once a stopping rule has fired.
    pub fn is_done(&self) -> bool {
        self.stopped.is_some()
    }

    /// Freeze the bidiagonalization coefficients of the current iteration
    /// into a [`TrajectorySample`] (for cross-backend trajectory
    /// comparison; see [`Lsqr::trajectory`]).
    pub fn sample(&self) -> TrajectorySample {
        TrajectorySample {
            itn: self.itn,
            alfa: self.alfa,
            beta: self.beta,
            rhobar: self.rhobar,
            phibar: self.phibar,
            rnorm: self.rnorm,
            arnorm: self.arnorm,
        }
    }
}

/// The per-iteration Golub–Kahan coefficients of one LSQR step — the
/// quantities two backends must agree on (within a ULP budget) for their
/// trajectories to be considered equivalent. Every term below is a scalar
/// produced by the iteration's two sparse products and two norms, so any
/// reduction-order divergence between backends shows up here first, long
/// before it is visible in the final solution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectorySample {
    /// Iteration the sample was taken after (0 = initialization).
    pub itn: usize,
    /// Bidiagonalization α (norm of the right vector).
    pub alfa: f64,
    /// Bidiagonalization β (norm of the left vector).
    pub beta: f64,
    /// Plane-rotation state ρ̄.
    pub rhobar: f64,
    /// Residual-recursion state φ̄.
    pub phibar: f64,
    /// Residual-norm estimate.
    pub rnorm: f64,
    /// ‖Aᵀr‖ estimate.
    pub arnorm: f64,
}

/// Stop flags [`Operator::agree`] takes the maximum of: the higher one wins
/// when shards disagree, or when both hold in one iteration.
const CANCEL: f64 = 1.0;
const BREAKDOWN: f64 = 2.0;

impl<O: Operator> OperatorLsqr<O> {
    /// Create a solver instance. Panics on invalid configuration; fails
    /// when the operator cannot produce its column norms.
    pub fn new(op: O, config: LsqrConfig) -> Result<Self, OperatorError> {
        config.validate().expect("invalid LSQR configuration");
        let scaling = if config.precondition {
            ColumnScaling::from_norms(op.column_norms()?)
        } else {
            ColumnScaling::identity(op.n_cols())
        };
        Ok(OperatorLsqr {
            op,
            config,
            scaling,
            cancel: None,
        })
    }

    /// Attach a cancellation token (see [`Lsqr::with_cancel`]).
    pub fn with_cancel(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsqrConfig {
        &self.config
    }

    /// The operator the solver runs against.
    pub fn operator(&self) -> &O {
        &self.op
    }

    /// Initialize the Golub–Kahan state (`β u = b`, `α v = (A D)ᵀ u`).
    pub fn try_init_state(&self) -> Result<LsqrState, OperatorError> {
        let op = &self.op;
        let cfg = &self.config;
        let n = op.n_cols();
        let d = self.scaling.inv_norms();

        let mut u: Vec<f64> = op.known_terms().to_vec();
        let mut v = vec![0.0f64; n];
        let mut w = vec![0.0f64; n];
        let var = vec![0.0f64; if cfg.compute_var { n } else { 0 }];
        let mut tmp_n = vec![0.0f64; n];

        let bnorm = op.row_nrm2(&u);
        let beta = bnorm;
        let mut alfa = 0.0;
        if beta > 0.0 {
            op.scal(&mut u, 1.0 / beta);
            op.aprod2(&u, &mut tmp_n)?;
            for i in 0..n {
                v[i] = tmp_n[i] * d[i];
            }
            alfa = op.nrm2(&v);
        }
        if alfa > 0.0 {
            op.scal(&mut v, 1.0 / alfa);
            w.copy_from_slice(&v);
        }
        let arnorm = alfa * beta;
        let stopped = (arnorm == 0.0).then_some(StopReason::TrivialSolution);

        Ok(LsqrState {
            itn: 0,
            x: vec![0.0f64; n],
            v,
            w,
            u,
            var,
            alfa,
            beta,
            rhobar: alfa,
            phibar: beta,
            anorm: 0.0,
            acond: 0.0,
            ddnorm: 0.0,
            res2: 0.0,
            rnorm: beta,
            arnorm,
            xnorm: 0.0,
            xxnorm: 0.0,
            z: 0.0,
            cs2: -1.0,
            sn2: 0.0,
            bnorm,
            stopped,
            history: Vec::new(),
        })
    }

    /// Advance one LSQR iteration. Returns the stop reason once a rule
    /// fires; `None` means "keep iterating". Calling `try_step` on a
    /// finished state is a no-op returning the existing reason.
    pub fn try_step(&self, s: &mut LsqrState) -> Result<Option<StopReason>, OperatorError> {
        if let Some(reason) = s.stopped {
            return Ok(Some(reason));
        }
        let op = &self.op;
        let cfg = &self.config;
        let n = op.n_cols();
        let d = self.scaling.inv_norms();
        let eps = f64::EPSILON;
        let ctol = if cfg.conlim.is_finite() && cfg.conlim > 0.0 {
            1.0 / cfg.conlim
        } else {
            0.0
        };
        let damp = cfg.damp;
        let dampsq = damp * damp;
        let mut tmp_n = vec![0.0f64; n];

        s.itn += 1;
        // gaia-analyze: allow(timing): per-iteration wall time is solver
        // output (convergence traces), recorded via telemetry when enabled.
        let t_iter = Instant::now();

        // Bidiagonalization: u ← (A D) v − α u.
        op.scal(&mut s.u, -s.alfa);
        for i in 0..n {
            tmp_n[i] = s.v[i] * d[i];
        }
        op.aprod1(&tmp_n, &mut s.u)?;
        s.beta = op.row_nrm2(&s.u);

        if s.beta > 0.0 {
            op.scal(&mut s.u, 1.0 / s.beta);
            s.anorm = (s.anorm * s.anorm + s.alfa * s.alfa + s.beta * s.beta + dampsq).sqrt();
            // v ← D Aᵀ u − β v.
            op.scal(&mut s.v, -s.beta);
            tmp_n.iter_mut().for_each(|t| *t = 0.0);
            op.aprod2(&s.u, &mut tmp_n)?;
            for i in 0..n {
                s.v[i] += tmp_n[i] * d[i];
            }
            s.alfa = op.nrm2(&s.v);
            if s.alfa > 0.0 {
                op.scal(&mut s.v, 1.0 / s.alfa);
            }
        }

        // Plane rotation eliminating the damping parameter.
        let rhobar1 = d2norm(s.rhobar, damp);
        let cs1 = s.rhobar / rhobar1;
        let sn1 = damp / rhobar1;
        let psi = sn1 * s.phibar;
        s.phibar *= cs1;

        // Plane rotation eliminating β.
        let rho = d2norm(rhobar1, s.beta);
        let cs = rhobar1 / rho;
        let sn = s.beta / rho;
        let theta = sn * s.alfa;
        s.rhobar = -cs * s.alfa;
        let phi = cs * s.phibar;
        s.phibar *= sn;
        let tau = sn * phi;

        // Update x and w; accumulate var and ‖d_k‖².
        let t1 = phi / rho;
        let t2 = -theta / rho;
        let t3 = 1.0 / rho;
        let mut dknorm_sq = 0.0;
        if cfg.compute_var {
            for i in 0..n {
                let wi = s.w[i];
                let dk = t3 * wi;
                dknorm_sq += dk * dk;
                s.var[i] += dk * dk;
                s.x[i] += t1 * wi;
                s.w[i] = s.v[i] + t2 * wi;
            }
        } else {
            for i in 0..n {
                let wi = s.w[i];
                let dk = t3 * wi;
                dknorm_sq += dk * dk;
                s.x[i] += t1 * wi;
                s.w[i] = s.v[i] + t2 * wi;
            }
        }
        s.ddnorm += dknorm_sq;

        // Estimate ‖x‖.
        let delta = s.sn2 * rho;
        let gambar = -s.cs2 * rho;
        let rhs = phi - delta * s.z;
        let zbar = rhs / gambar;
        s.xnorm = (s.xxnorm + zbar * zbar).sqrt();
        let gamma = d2norm(gambar, theta);
        s.cs2 = gambar / gamma;
        s.sn2 = theta / gamma;
        s.z = rhs / gamma;
        s.xxnorm += s.z * s.z;

        // Convergence estimates.
        s.acond = s.anorm * s.ddnorm.sqrt();
        let res1 = s.phibar * s.phibar;
        s.res2 += psi * psi;
        s.rnorm = (res1 + s.res2).sqrt();
        s.arnorm = s.alfa * tau.abs();

        let test1 = s.rnorm / s.bnorm;
        let test2 = if s.anorm * s.rnorm > 0.0 {
            s.arnorm / (s.anorm * s.rnorm)
        } else {
            f64::INFINITY
        };
        let test3 = 1.0 / s.acond.max(eps);
        let t1c = test1 / (1.0 + s.anorm * s.xnorm / s.bnorm);
        let rtol = cfg.btol + cfg.atol * s.anorm * s.xnorm / s.bnorm;

        s.history.push(IterationStats {
            iteration: s.itn,
            rnorm: s.rnorm,
            arnorm: s.arnorm,
            anorm: s.anorm,
            acond: s.acond,
            xnorm: s.xnorm,
            seconds: t_iter.elapsed().as_secs_f64(),
        });

        // Health guards and cancellation share one hook point, after the
        // iterate is fully updated and before the convergence tests: a
        // poisoned state must stop as NumericalBreakdown within the
        // iteration that broke it, not fall through tests whose NaN
        // comparisons are all false, and a cancelled state is always a
        // checkpoint of a complete iteration. Breakdown outranks
        // cancellation, so a poisoned state is never reported as
        // `Cancelled` and never reaches a checkpoint sink. The verdict and
        // the iteration's wall time pass through `Operator::agree`: every
        // shard of a sharded operator stops at the same iteration for the
        // same reason, and records "the iteration time maximized among
        // all MPI processes", which is what the paper measures.
        let verdict = if crate::health::check_state(&cfg.health, s).is_some() {
            BREAKDOWN
        } else if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            CANCEL
        } else {
            0.0
        };
        let stats = s.history.last_mut().expect("just pushed");
        let (seconds, verdict) = op.agree(stats.seconds, verdict);
        stats.seconds = seconds;
        if verdict >= BREAKDOWN {
            s.stopped = Some(StopReason::NumericalBreakdown);
            return Ok(s.stopped);
        }
        if verdict >= CANCEL {
            s.stopped = Some(StopReason::Cancelled);
            return Ok(s.stopped);
        }

        // Stopping tests, machine-precision first (as in lsqr.f).
        let mut stop = None;
        if s.itn >= cfg.max_iters {
            stop = Some(StopReason::IterationLimit);
        }
        if 1.0 + test3 <= 1.0 {
            stop = Some(StopReason::ConditionMachinePrecision);
        }
        if 1.0 + test2 <= 1.0 {
            stop = Some(StopReason::LeastSquaresMachinePrecision);
        }
        if 1.0 + t1c <= 1.0 {
            stop = Some(StopReason::ResidualMachinePrecision);
        }
        if test3 <= ctol {
            stop = Some(StopReason::ConditionLimit);
        }
        if test2 <= cfg.atol {
            stop = Some(StopReason::LeastSquaresConverged);
        }
        if test1 <= rtol {
            stop = Some(StopReason::ResidualSmall);
        }
        s.stopped = stop;
        Ok(stop)
    }

    /// Finalize a state into a [`Solution`] (unscales the preconditioned
    /// variables; the state may be finished or mid-flight).
    pub fn finish(&self, state: LsqrState) -> Solution {
        let mut x = state.x;
        let mut var = state.var;
        self.scaling.unscale_solution(&mut x);
        if self.config.compute_var {
            self.scaling.unscale_variance(&mut var);
        }
        let xnorm = gaia_backends::blas::nrm2(&x);
        Solution {
            x,
            var,
            stop: state.stopped.unwrap_or(StopReason::IterationLimit),
            iterations: state.itn,
            rnorm: state.rnorm,
            arnorm: state.arnorm,
            anorm: state.anorm,
            acond: state.acond,
            xnorm,
            bnorm: state.bnorm,
            n_rows: self.op.n_rows(),
            history: state.history,
        }
    }

    /// Capture the iterate trajectory (see [`Lsqr::trajectory`]).
    pub fn try_trajectory(&self, max_iters: usize) -> Result<Vec<TrajectorySample>, OperatorError> {
        let mut state = self.try_init_state()?;
        let mut samples = Vec::with_capacity(max_iters + 1);
        samples.push(state.sample());
        while state.itn < max_iters && !state.is_done() {
            self.try_step(&mut state)?;
            samples.push(state.sample());
        }
        Ok(samples)
    }

    /// Continue a (possibly restored) state to completion.
    pub fn try_run_from(&self, mut state: LsqrState) -> Result<Solution, OperatorError> {
        while !state.is_done() {
            self.try_step(&mut state)?;
        }
        Ok(self.finish(state))
    }

    /// Run the solve from scratch.
    pub fn try_run(&self) -> Result<Solution, OperatorError> {
        // The trivial b = 0 case matches the reference implementation:
        // rnorm reports ‖b‖ and x = 0.
        let state = self.try_init_state()?;
        if state.stopped == Some(StopReason::TrivialSolution) {
            return Ok(self.finish(state));
        }
        self.try_run_from(state)
    }
}

impl<'a, B: Backend + ?Sized> Lsqr<'a, B> {
    /// Create a solver instance. Panics on invalid configuration.
    pub fn new(sys: &'a SparseSystem, backend: &'a B, config: LsqrConfig) -> Self {
        let inner = OperatorLsqr::new(SystemOperator::new(sys, backend), config)
            .expect("resident operator cannot fail");
        Lsqr { inner }
    }

    /// Attach a cancellation token: [`Lsqr::step`] checks it once per
    /// iteration at the health-guard hook point and stops with
    /// [`StopReason::Cancelled`] when it fires, always on a completed
    /// iteration (the state remains a valid checkpoint).
    pub fn with_cancel(mut self, token: CancellationToken) -> Self {
        self.inner = self.inner.with_cancel(token);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsqrConfig {
        self.inner.config()
    }

    /// Initialize the Golub–Kahan state (`β u = b`, `α v = (A D)ᵀ u`).
    pub fn init_state(&self) -> LsqrState {
        self.inner
            .try_init_state()
            .expect("resident operator cannot fail")
    }

    /// Advance one LSQR iteration. Returns the stop reason once a rule
    /// fires; `None` means "keep iterating". Calling `step` on a finished
    /// state is a no-op returning the existing reason.
    pub fn step(&self, s: &mut LsqrState) -> Option<StopReason> {
        self.inner
            .try_step(s)
            .expect("resident operator cannot fail")
    }

    /// Finalize a state into a [`Solution`] (unscales the preconditioned
    /// variables; the state may be finished or mid-flight).
    pub fn finish(&self, state: LsqrState) -> Solution {
        self.inner.finish(state)
    }

    /// Capture the iterate trajectory: initialize, then step at most
    /// `max_iters` times, sampling (α, β, ρ̄, φ̄, residual estimates) after
    /// initialization and after every completed iteration. The trajectory
    /// is what cross-backend verification compares per-iteration — two
    /// backends whose final solutions agree may still have divergent
    /// reduction orders, and that divergence is visible (and bounded)
    /// here, iterations before it compounds into the solution.
    pub fn trajectory(&self, max_iters: usize) -> Vec<TrajectorySample> {
        self.inner
            .try_trajectory(max_iters)
            .expect("resident operator cannot fail")
    }

    /// Continue a (possibly restored) state to completion.
    pub fn run_from(&self, state: LsqrState) -> Solution {
        self.inner
            .try_run_from(state)
            .expect("resident operator cannot fail")
    }

    /// Run the solve from scratch.
    pub fn run(&self) -> Solution {
        self.inner.try_run().expect("resident operator cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_backends::{all_backends, SeqBackend};
    use gaia_sparse::dense::DenseMatrix;
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    fn consistent_system(seed: u64) -> (gaia_sparse::SparseSystem, Vec<f64>) {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 0.0 });
        let (sys, truth) = Generator::new(cfg).generate_with_truth();
        (sys, truth.unwrap())
    }

    #[test]
    fn recovers_noiseless_truth() {
        let (sys, x_true) = consistent_system(101);
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::new());
        assert!(sol.stop.converged(), "stop = {:?}", sol.stop);
        let err: f64 = sol
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let scale: f64 = x_true.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / scale < 1e-7, "relative error {}", err / scale);
    }

    #[test]
    fn matches_dense_normal_equations_with_noise() {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(102)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-2 });
        let (sys, _) = Generator::new(cfg).generate_with_truth();
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::new().max_iters(5_000));
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
        assert!(
            err / scale < 1e-6,
            "relative error vs dense LS: {}",
            err / scale
        );
    }

    #[test]
    fn all_backends_agree_on_the_solution() {
        let (sys, _) = consistent_system(103);
        let reference = solve(&sys, &SeqBackend, &LsqrConfig::new());
        for backend in all_backends(4) {
            let sol = solve(&sys, &backend, &LsqrConfig::new());
            let diff: f64 = sol
                .x
                .iter()
                .zip(&reference.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-6, "backend {} deviates by {diff}", backend.name());
        }
    }

    #[test]
    fn fixed_iterations_runs_exactly_n() {
        let (sys, _) = consistent_system(104);
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::fixed_iterations(7));
        assert_eq!(sol.iterations, 7);
        assert_eq!(sol.stop, StopReason::IterationLimit);
        assert_eq!(sol.history.len(), 7);
        assert!(sol.var.is_empty());
    }

    #[test]
    fn zero_rhs_returns_trivial_solution() {
        let (mut sys, _) = consistent_system(105);
        sys.set_known_terms(vec![0.0; sys.n_rows()]);
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::new());
        assert_eq!(sol.stop, StopReason::TrivialSolution);
        assert!(sol.x.iter().all(|&v| v == 0.0));
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn preconditioning_speeds_up_convergence() {
        // On the Gaia structure, column scaling should not slow LSQR down;
        // typically it reduces iterations substantially.
        let cfg = GeneratorConfig::new(SystemLayout::small())
            .seed(106)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 0.0 });
        let (sys, _) = Generator::new(cfg).generate_with_truth();
        let with = solve(
            &sys,
            &SeqBackend,
            &LsqrConfig::new().precondition(true).max_iters(10_000),
        );
        let without = solve(
            &sys,
            &SeqBackend,
            &LsqrConfig::new().precondition(false).max_iters(10_000),
        );
        assert!(with.stop.converged());
        assert!(
            with.iterations <= without.iterations + 5,
            "precond {} vs plain {}",
            with.iterations,
            without.iterations
        );
    }

    #[test]
    fn residual_norm_estimate_matches_direct_recomputation() {
        let (sys, _) = consistent_system(107);
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::new().max_iters(50));
        // Recompute ‖b − A x‖ directly.
        let mut r: Vec<f64> = sys.known_terms().to_vec();
        let mut ax = vec![0.0; sys.n_rows()];
        SeqBackend.aprod1(&sys, &sol.x, &mut ax);
        for (ri, &axi) in r.iter_mut().zip(&ax) {
            *ri -= axi;
        }
        let direct = gaia_backends::blas::nrm2(&r);
        assert!(
            (sol.rnorm - direct).abs() <= 1e-8 * (1.0 + direct),
            "estimated {} vs direct {}",
            sol.rnorm,
            direct
        );
    }

    #[test]
    fn history_rnorm_is_monotonically_nonincreasing() {
        let (sys, _) = consistent_system(108);
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::new());
        for wpair in sol.history.windows(2) {
            assert!(
                wpair[1].rnorm <= wpair[0].rnorm * (1.0 + 1e-12),
                "rnorm increased: {} -> {}",
                wpair[0].rnorm,
                wpair[1].rnorm
            );
        }
    }

    #[test]
    fn damped_solve_shrinks_solution_norm() {
        let (sys, _) = consistent_system(109);
        let plain = solve(&sys, &SeqBackend, &LsqrConfig::new());
        let damped = solve(&sys, &SeqBackend, &LsqrConfig::new().damp(1.0));
        assert!(damped.xnorm < plain.xnorm);
    }

    #[test]
    fn standard_errors_are_finite_and_positive() {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(110)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-3 });
        let (sys, _) = Generator::new(cfg).generate_with_truth();
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::new());
        let se = sol.standard_errors().expect("var computed");
        assert_eq!(se.len(), sys.n_cols());
        assert!(se.iter().all(|&s| s.is_finite() && s >= 0.0));
        assert!(se.iter().any(|&s| s > 0.0));
    }

    #[test]
    fn stepping_api_matches_run() {
        let (sys, _) = consistent_system(111);
        let solver = Lsqr::new(&sys, &SeqBackend, LsqrConfig::new());
        let direct = solver.run();
        let mut state = solver.init_state();
        let mut steps = 0;
        while solver.step(&mut state).is_none() {
            steps += 1;
            assert!(steps < 100_000, "runaway stepping loop");
        }
        let stepped = solver.finish(state);
        assert_eq!(stepped.x, direct.x);
        assert_eq!(stepped.iterations, direct.iterations);
        assert_eq!(stepped.stop, direct.stop);
    }

    #[test]
    fn trajectory_matches_the_stepping_api() {
        let (sys, _) = consistent_system(114);
        let solver = Lsqr::new(&sys, &SeqBackend, LsqrConfig::new());
        let traj = solver.trajectory(10);
        assert_eq!(traj[0].itn, 0);
        assert!(traj.len() <= 11);
        let mut state = solver.init_state();
        for sample in &traj[1..] {
            solver.step(&mut state);
            assert_eq!(state.itn, sample.itn);
            assert_eq!(state.alfa.to_bits(), sample.alfa.to_bits());
            assert_eq!(state.beta.to_bits(), sample.beta.to_bits());
            assert_eq!(state.rhobar.to_bits(), sample.rhobar.to_bits());
            assert_eq!(state.rnorm.to_bits(), sample.rnorm.to_bits());
        }
    }

    #[test]
    fn step_after_stop_is_a_noop() {
        let (sys, _) = consistent_system(112);
        let solver = Lsqr::new(&sys, &SeqBackend, LsqrConfig::fixed_iterations(3));
        let mut state = solver.init_state();
        while solver.step(&mut state).is_none() {}
        let x_before = state.x.clone();
        assert_eq!(solver.step(&mut state), Some(StopReason::IterationLimit));
        assert_eq!(state.x, x_before);
        assert_eq!(state.itn, 3);
    }

    #[test]
    fn cancelled_token_stops_on_the_next_iteration_boundary() {
        use crate::cancel::CancellationToken;
        let (sys, _) = consistent_system(115);
        let token = CancellationToken::new();
        let solver = Lsqr::new(&sys, &SeqBackend, LsqrConfig::new()).with_cancel(token.clone());
        let mut state = solver.init_state();
        solver.step(&mut state);
        assert!(state.stopped.is_none(), "un-cancelled token must not stop");
        token.cancel();
        assert_eq!(solver.step(&mut state), Some(StopReason::Cancelled));
        // The stop landed on a completed iteration: the state is intact
        // and finalizable, but the solution is explicitly non-converged.
        assert_eq!(state.itn, 2);
        assert_eq!(state.history.len(), 2);
        let sol = solver.finish(state);
        assert_eq!(sol.stop, StopReason::Cancelled);
        assert!(!sol.stop.converged());
    }

    #[test]
    fn mid_flight_finish_yields_partial_solution() {
        let (sys, _) = consistent_system(113);
        let solver = Lsqr::new(&sys, &SeqBackend, LsqrConfig::new());
        let mut state = solver.init_state();
        for _ in 0..2 {
            solver.step(&mut state);
        }
        let partial = solver.finish(state);
        assert_eq!(partial.iterations, 2);
        let full = solver.run();
        assert!(partial.rnorm >= full.rnorm);
    }
}
