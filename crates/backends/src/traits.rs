//! The [`Backend`] trait: what the LSQR solver needs from a compute engine.

use gaia_sparse::SparseSystem;

use crate::blas;
use crate::launch::LaunchPlan;

/// A compute backend able to evaluate the two AVU-GSR sparse products and
/// the handful of BLAS-1 operations LSQR needs between them.
///
/// Both products are *accumulating*, matching the classic `aprod(mode, ...)`
/// contract of Paige & Saunders' LSQR:
///
/// * `aprod1`: `out[r] += Σ_c A[r,c] · x[c]` for every row `r`;
/// * `aprod2`: `out[c] += Σ_r A[r,c] · y[r]` for every column `c`.
///
/// Implementations must be deterministic *up to floating-point reduction
/// order*; tests compare backends with a tolerance proportional to the
/// system size.
pub trait Backend: Send + Sync {
    /// Stable identifier (used in reports and the registry).
    fn name(&self) -> String;

    /// One-line description of the strategy.
    fn description(&self) -> &'static str;

    /// `out += A x`. `x.len() == sys.n_cols()`, `out.len() == sys.n_rows()`.
    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]);

    /// `out += Aᵀ y`. `y.len() == sys.n_rows()`, `out.len() == sys.n_cols()`.
    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]);

    /// One Golub–Kahan pass: `u ← A x − α u`, then `out += Aᵀ u` with the
    /// new `u`. The default is the two products in turn, after scaling
    /// `u` with [`blas::scal`] (never `self.scal`: a caller's BLAS-1 does
    /// not go through its backend). An override of a deterministic backend
    /// must return the same bits; [`crate::SeqBackend`] visits each row of
    /// the matrix once for both products ([`crate::kernels::gk_pass`]).
    /// The `atomic` and `casloop` plans run it as one launch whose
    /// publishes land in schedule order, so they are held to the tolerance
    /// their products always were, not to the bits ([`crate::LaunchPlan::gk_products`]).
    fn gk_products(
        &self,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        blas::scal(u, -alfa);
        self.aprod1(sys, x, u);
        self.aprod2(sys, u, out);
    }

    /// The launch plan this backend executes, when it is plan-driven.
    /// Registry construction statically verifies the returned plan via
    /// [`LaunchPlan::analyze_canonical`]; ad-hoc backends (sequential,
    /// rayon, CSR) return `None` and skip the check.
    fn launch_plan(&self) -> Option<LaunchPlan> {
        None
    }

    /// Euclidean norm. Overridable with a parallel implementation.
    fn nrm2(&self, v: &[f64]) -> f64 {
        blas::nrm2(v)
    }

    /// `v *= s`.
    fn scal(&self, v: &mut [f64], s: f64) {
        blas::scal(v, s);
    }

    /// `y += a·x`.
    fn axpy(&self, y: &mut [f64], a: f64, x: &[f64]) {
        blas::axpy(y, a, x);
    }

    /// Check argument shapes; call at the top of `aprod1`.
    fn check_aprod1(&self, sys: &SparseSystem, x: &[f64], out: &[f64]) {
        assert_eq!(x.len(), sys.n_cols(), "aprod1: x length mismatch");
        assert_eq!(out.len(), sys.n_rows(), "aprod1: out length mismatch");
    }

    /// Check argument shapes; call at the top of `aprod2`.
    fn check_aprod2(&self, sys: &SparseSystem, y: &[f64], out: &[f64]) {
        assert_eq!(y.len(), sys.n_rows(), "aprod2: y length mismatch");
        assert_eq!(out.len(), sys.n_cols(), "aprod2: out length mismatch");
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn description(&self) -> &'static str {
        (**self).description()
    }
    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        (**self).aprod1(sys, x, out)
    }
    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        (**self).aprod2(sys, y, out)
    }
    fn gk_products(
        &self,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        (**self).gk_products(sys, x, alfa, u, out)
    }
    fn launch_plan(&self) -> Option<LaunchPlan> {
        (**self).launch_plan()
    }
    fn nrm2(&self, v: &[f64]) -> f64 {
        (**self).nrm2(v)
    }
    fn scal(&self, v: &mut [f64], s: f64) {
        (**self).scal(v, s)
    }
    fn axpy(&self, y: &mut [f64], a: f64, x: &[f64]) {
        (**self).axpy(y, a, x)
    }
}
