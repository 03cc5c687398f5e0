//! The [`Operator`] abstraction: what LSQR needs from a linear system.
//!
//! [`crate::lsqr::Lsqr`] historically took a resident
//! [`SparseSystem`] plus a [`Backend`]. Paper-scale systems
//! (§V-B capacity gating: 10/30/60 GB observation matrices) do not fit in
//! memory, so the solver numerics are factored over this trait instead:
//! an operator supplies the two sparse products, the right-hand side, and
//! the column norms the Jacobi preconditioner scales by — however it
//! stores the matrix. [`SystemOperator`] is the resident adapter;
//! [`crate::ooc::TiledOperator`] streams spilled row tiles under a
//! capacity budget; the rank-local operator of [`crate::distributed`]
//! holds one shard of the rows and reduces over the ranks
//! ([`Operator::row_nrm2`], [`Operator::agree`]).
//!
//! Operator products are *fallible* (an out-of-core operator can hit I/O
//! errors or checksum mismatches mid-product); the resident adapter never
//! fails, which is how the infallible [`crate::lsqr::Lsqr`] API keeps its
//! historical shape on top of the fallible
//! [`crate::lsqr::OperatorLsqr`] core.

use gaia_backends::{blas, Backend};
use gaia_sparse::SparseSystem;

use crate::checkpoint::TileProvenance;

/// Error from a fallible operator product — an I/O failure, checksum
/// mismatch, or budget violation raised by an out-of-core implementation.
#[derive(Debug)]
pub struct OperatorError(Box<dyn std::error::Error + Send + Sync>);

impl OperatorError {
    /// Wrap any error type.
    pub fn new(e: impl std::error::Error + Send + Sync + 'static) -> Self {
        OperatorError(Box::new(e))
    }

    /// The wrapped error.
    pub fn inner(&self) -> &(dyn std::error::Error + Send + Sync) {
        self.0.as_ref()
    }
}

impl std::fmt::Display for OperatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operator error: {}", self.0)
    }
}

impl std::error::Error for OperatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.0.as_ref())
    }
}

impl From<gaia_sparse::TileError> for OperatorError {
    fn from(e: gaia_sparse::TileError) -> Self {
        OperatorError::new(e)
    }
}

/// A linear operator LSQR can run against: shape, right-hand side,
/// column norms for preconditioning, the two accumulating sparse
/// products, the backend's BLAS-1 kernels, and the two reductions a
/// row-sharded operator needs.
pub trait Operator {
    /// Number of rows (observations + constraints).
    fn n_rows(&self) -> usize;

    /// Number of columns (unknowns).
    fn n_cols(&self) -> usize;

    /// The right-hand side `b` (always memory-resident: `O(n_rows)` of it
    /// is needed every iteration).
    fn known_terms(&self) -> &[f64];

    /// Euclidean column norms of `A`, for [`crate::ColumnScaling`].
    fn column_norms(&self) -> Result<Vec<f64>, OperatorError>;

    /// `out += A x` (accumulating, like [`Backend::aprod1`]).
    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError>;

    /// `out += Aᵀ y` (accumulating, like [`Backend::aprod2`]).
    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError>;

    /// Euclidean norm (backend-overridable).
    fn nrm2(&self, v: &[f64]) -> f64 {
        blas::nrm2(v)
    }

    /// `v *= s` (backend-overridable).
    fn scal(&self, v: &mut [f64], s: f64) {
        blas::scal(v, s);
    }

    /// Euclidean norm of a row-space vector (`u`, `b`). An operator that
    /// holds only a shard of the rows reduces this over all shards.
    fn row_nrm2(&self, u: &[f64]) -> f64 {
        self.nrm2(u)
    }

    /// Agree on one iteration's wall time and stop flag: the maximum of
    /// each over every shard of the operator, so all shards record the
    /// same time and take the same stop decision. One shard agrees with
    /// itself.
    fn agree(&self, seconds: f64, flag: f64) -> (f64, f64) {
        (seconds, flag)
    }

    /// Tile-set provenance, when the matrix is backed by an on-disk
    /// `gaia-tiles/v2` spill directory — recorded into checkpoints so a
    /// resume can verify it is reading the same matrix.
    fn provenance(&self) -> Option<TileProvenance> {
        None
    }
}

/// The memory-resident adapter: a [`SparseSystem`] driven through a
/// [`Backend`], with every product infallible.
#[derive(Debug)]
pub struct SystemOperator<'a, B: Backend + ?Sized> {
    sys: &'a SparseSystem,
    backend: &'a B,
}

impl<'a, B: Backend + ?Sized> SystemOperator<'a, B> {
    /// Bind a system to a backend.
    pub fn new(sys: &'a SparseSystem, backend: &'a B) -> Self {
        SystemOperator { sys, backend }
    }

    /// The underlying system.
    pub fn system(&self) -> &'a SparseSystem {
        self.sys
    }

    /// The backend driving the products.
    pub fn backend(&self) -> &'a B {
        self.backend
    }
}

impl<B: Backend + ?Sized> Operator for SystemOperator<'_, B> {
    fn n_rows(&self) -> usize {
        self.sys.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.sys.n_cols()
    }

    fn known_terms(&self) -> &[f64] {
        self.sys.known_terms()
    }

    fn column_norms(&self) -> Result<Vec<f64>, OperatorError> {
        Ok(self.sys.column_norms())
    }

    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        self.backend.aprod1(self.sys, x, out);
        Ok(())
    }

    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        self.backend.aprod2(self.sys, y, out);
        Ok(())
    }

    fn nrm2(&self, v: &[f64]) -> f64 {
        self.backend.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        self.backend.scal(v, s);
    }
}
