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
//! [`OperatorLsqr::try_step`]. [`OperatorLsqr::try_drive`] is the one
//! solve loop on top: it starts or resumes a state, steps it to a stop
//! and hands a checkpoint sink a snapshot every `every` iterations and at
//! the stop. Every solve — [`Lsqr::run`], [`solve_operator`], each
//! distributed rank, the resilient supervisor's single-rank floor and the
//! CLI — runs it;
//! [`crate::checkpoint`] persists/restores the state, mirroring the
//! production pipeline's restart files (long AVU-GSR runs at CINECA are
//! checkpointed between job allocations). [`crate::lsmr`] runs the same
//! Golub–Kahan step and stop-rule cascade.

use std::sync::{Mutex, PoisonError};
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
    /// The step's two column-space buffers, `D∘v` and `Aᵀû`, allocated
    /// once: a step allocates nothing the size of the system.
    scratch: Mutex<[Vec<f64>; 2]>,
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
        let n = op.n_cols();
        Ok(OperatorLsqr {
            op,
            config,
            scaling,
            cancel: None,
            scratch: Mutex::new([vec![0.0; n], vec![0.0; n]]),
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

    /// The column scaling `D` the solver works in.
    pub(crate) fn scaling(&self) -> &ColumnScaling {
        &self.scaling
    }

    /// Start the Golub–Kahan bidiagonalization of `A D`: `β u = b`,
    /// `α v = D Aᵀ u`. Returns `(u, v, α, β)`; LSQR and LSMR both start here.
    pub(crate) fn gk_start(&self) -> Result<(Vec<f64>, Vec<f64>, f64, f64), OperatorError> {
        let op = &self.op;
        let mut u: Vec<f64> = op.known_terms().to_vec();
        let mut v = vec![0.0f64; op.n_cols()];
        let beta = op.row_nrm2(&u);
        let mut alfa = 0.0;
        if beta > 0.0 {
            op.scal(&mut u, 1.0 / beta);
            op.aprod2(&u, &mut v)?;
            self.scaling.apply_in_place(&mut v);
            alfa = op.nrm2(&v);
        }
        if alfa > 0.0 {
            op.scal(&mut v, 1.0 / alfa);
        }
        Ok((u, v, alfa, beta))
    }

    /// One Golub–Kahan step, the iteration's two products and two norms:
    /// `β u ← (A D) v − α u`, then, unless `β = 0`, `α v ← D Aᵀ u − β v`.
    /// One [`Operator::gk_products`] pass computes the unnormalised `û`
    /// and `Aᵀû`; `u = û/β` and `Aᵀu = (Aᵀû)/β` follow. LSQR and LSMR
    /// both step here.
    pub(crate) fn gk_step(
        &self,
        u: &mut [f64],
        v: &mut [f64],
        alfa: &mut f64,
        beta: &mut f64,
    ) -> Result<(), OperatorError> {
        let op = &self.op;
        let d = self.scaling.inv_norms();
        // Both buffers are rewritten before they are read, so one a
        // panicking step left behind is as good as new.
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let [dv, atu] = &mut *scratch;
        self.scaling.apply(v, dv);
        atu.fill(0.0);
        op.gk_products(dv, *alfa, u, atu)?;
        *beta = op.row_nrm2(u);
        if *beta > 0.0 {
            let inv = 1.0 / *beta;
            op.scal(u, inv);
            for ((vi, &ai), &di) in v.iter_mut().zip(&*atu).zip(d) {
                *vi = -*beta * *vi + ai * inv * di;
            }
            *alfa = op.nrm2(v);
            if *alfa > 0.0 {
                op.scal(v, 1.0 / *alfa);
            }
        }
        Ok(())
    }

    /// The stopping tests of `lsqr.f` and LSMR, machine precision first:
    /// a later rule overrides an earlier one.
    pub(crate) fn stop_rule(&self, it: &IterationStats, bnorm: f64) -> Option<StopReason> {
        let cfg = &self.config;
        let ctol = if cfg.conlim.is_finite() && cfg.conlim > 0.0 {
            1.0 / cfg.conlim
        } else {
            0.0
        };
        let test1 = it.rnorm / bnorm;
        let test2 = if it.anorm * it.rnorm > 0.0 {
            it.arnorm / (it.anorm * it.rnorm)
        } else {
            f64::INFINITY
        };
        let test3 = 1.0 / it.acond.max(f64::EPSILON);
        let t1 = test1 / (1.0 + it.anorm * it.xnorm / bnorm);
        let rtol = cfg.btol + cfg.atol * it.anorm * it.xnorm / bnorm;

        let mut stop = None;
        if it.iteration >= cfg.max_iters {
            stop = Some(StopReason::IterationLimit);
        }
        if 1.0 + test3 <= 1.0 {
            stop = Some(StopReason::ConditionMachinePrecision);
        }
        if 1.0 + test2 <= 1.0 {
            stop = Some(StopReason::LeastSquaresMachinePrecision);
        }
        if 1.0 + t1 <= 1.0 {
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
        stop
    }

    /// Initialize the Golub–Kahan state (`β u = b`, `α v = (A D)ᵀ u`).
    pub fn try_init_state(&self) -> Result<LsqrState, OperatorError> {
        let n = self.op.n_cols();
        let (u, v, alfa, beta) = self.gk_start()?;
        let mut w = vec![0.0f64; n];
        if alfa > 0.0 {
            w.copy_from_slice(&v);
        }
        let var = vec![0.0f64; if self.config.compute_var { n } else { 0 }];
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
            bnorm: beta,
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
        let cfg = &self.config;
        let n = self.op.n_cols();
        let damp = cfg.damp;

        s.itn += 1;
        // gaia-analyze: allow(timing): per-iteration wall time is solver
        // output (convergence traces), recorded via telemetry when enabled.
        let t_iter = Instant::now();

        // ‖A‖ grows by the α this step starts from and the β it finds.
        let alfa = s.alfa;
        self.gk_step(&mut s.u, &mut s.v, &mut s.alfa, &mut s.beta)?;
        if s.beta > 0.0 {
            s.anorm = (s.anorm * s.anorm + alfa * alfa + s.beta * s.beta + damp * damp).sqrt();
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
        let verdict = if crate::health::check_step(&cfg.health, s).is_some() {
            BREAKDOWN
        } else if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            CANCEL
        } else {
            0.0
        };
        let stats = s.history.last_mut().expect("just pushed");
        let (seconds, verdict) = self.op.agree(stats.seconds, verdict);
        stats.seconds = seconds;
        s.stopped = if verdict >= BREAKDOWN {
            Some(StopReason::NumericalBreakdown)
        } else if verdict >= CANCEL {
            Some(StopReason::Cancelled)
        } else {
            self.stop_rule(stats, s.bnorm)
        };
        Ok(s.stopped)
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

    /// The solve loop every entry point runs: start fresh (`start` is
    /// `None`) or resume a given state, and step until a stopping rule
    /// fires or `itn` reaches `max_iters`. With `every > 0`, `sink`
    /// receives the state after every `every`-th iteration and once more
    /// at the stop — whatever stopped it except `NumericalBreakdown`, whose
    /// poisoned state must never reach a sink — so the newest snapshot is
    /// always the state the solve ended on, and a resume continues exactly
    /// where the limit or a deadline struck. A stop on a multiple of
    /// `every` is handed over once. `every = 0`: never.
    ///
    /// A resumed state stopped by `IterationLimit` or `Cancelled` goes on
    /// while `itn < max_iters`, so a run can be extended by resuming it
    /// under a larger limit; a converged or broken-down state stays final.
    pub fn try_drive(
        &self,
        start: Option<LsqrState>,
        every: usize,
        mut sink: impl FnMut(&LsqrState),
    ) -> Result<LsqrState, OperatorError> {
        let max_iters = self.config.max_iters;
        let mut state = match start {
            Some(state) => state,
            None => self.try_init_state()?,
        };
        if matches!(
            state.stopped,
            Some(StopReason::IterationLimit | StopReason::Cancelled)
        ) && state.itn < max_iters
        {
            state.stopped = None;
        }
        while state.stopped.is_none() && state.itn < max_iters {
            let stop = self.try_step(&mut state)?;
            let due = every > 0
                && match stop {
                    None => state.itn % every == 0,
                    Some(reason) => reason != StopReason::NumericalBreakdown,
                };
            if due {
                sink(&state);
            }
        }
        Ok(state)
    }

    /// Continue a (possibly restored) state to completion.
    pub fn try_run_from(&self, state: LsqrState) -> Result<Solution, OperatorError> {
        Ok(self.finish(self.try_drive(Some(state), 0, |_| {})?))
    }

    /// Run the solve from scratch.
    pub fn try_run(&self) -> Result<Solution, OperatorError> {
        Ok(self.finish(self.try_drive(None, 0, |_| {})?))
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

    /// Forwards the products and two BLAS-1 calls to `seq`, as a
    /// measuring wrapper does, but not the Golub–Kahan pass: the solver
    /// then runs the trait's default pass over the forwarded products.
    struct ForwardsProducts;

    impl Backend for ForwardsProducts {
        fn name(&self) -> String {
            "forwards-products".into()
        }
        fn description(&self) -> &'static str {
            "seq behind a wrapper that keeps the default pass"
        }
        fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
            SeqBackend.aprod1(sys, x, out);
        }
        fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
            SeqBackend.aprod2(sys, y, out);
        }
        fn scal(&self, v: &mut [f64], s: f64) {
            SeqBackend.scal(v, s);
        }
        fn nrm2(&self, v: &[f64]) -> f64 {
            SeqBackend.nrm2(v)
        }
    }

    #[test]
    fn a_wrapper_without_the_fused_pass_solves_bitwise_like_seq() {
        let (sys, _) = consistent_system(116);
        let fused = solve(&sys, &SeqBackend, &LsqrConfig::new());
        let forwarded = solve(&sys, &ForwardsProducts, &LsqrConfig::new());
        assert_eq!(fused.iterations, forwarded.iterations);
        assert_eq!(fused.stop, forwarded.stop);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused.x), bits(&forwarded.x));
        assert_eq!(bits(&fused.var), bits(&forwarded.var));
        let rnorms = |s: &Solution| {
            s.history
                .iter()
                .map(|h| h.rnorm.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(rnorms(&fused), rnorms(&forwarded));
    }

    /// The step's scratch buffers keep the solver shareable across threads.
    #[test]
    fn solvers_stay_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Lsqr<'static, SeqBackend>>();
        send_sync::<Lsqr<'static, dyn Backend>>();
        send_sync::<OperatorLsqr<SystemOperator<'static, dyn Backend>>>();
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

    /// The sink sees every `every`-th state and the state at the stop,
    /// once even when the stop falls on the cadence.
    #[test]
    fn drive_hands_the_sink_the_stop_once() {
        let (sys, _) = consistent_system(116);
        let drive = |max_iters: usize, every: usize| {
            let cfg = LsqrConfig::fixed_iterations(max_iters);
            let solver = OperatorLsqr::new(SystemOperator::new(&sys, &SeqBackend), cfg).unwrap();
            let mut seen = Vec::new();
            solver
                .try_drive(None, every, |s| seen.push((s.itn, s.stopped)))
                .unwrap();
            seen
        };
        let limit = Some(StopReason::IterationLimit);
        assert_eq!(drive(6, 3), vec![(3, None), (6, limit)]);
        assert_eq!(drive(5, 2), vec![(2, None), (4, None), (5, limit)]);
        assert!(drive(5, 0).is_empty());
    }

    /// A state stopped by `NumericalBreakdown` never reaches the sink, not
    /// even on the cadence.
    #[test]
    fn drive_hands_the_sink_no_broken_down_state() {
        let (mut sys, _) = consistent_system(117);
        let mut b = sys.known_terms().to_vec();
        b[0] = f64::NAN;
        sys.set_known_terms(b);
        let cfg = LsqrConfig::fixed_iterations(5).health(crate::health::HealthConfig::default_on());
        let solver = OperatorLsqr::new(SystemOperator::new(&sys, &SeqBackend), cfg).unwrap();
        let mut seen = 0;
        let state = solver.try_drive(None, 1, |_| seen += 1).unwrap();
        assert_eq!(state.stopped, Some(StopReason::NumericalBreakdown));
        assert_eq!(state.itn, 1, "the breakdown is a step's stop");
        assert_eq!(seen, 0);
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
