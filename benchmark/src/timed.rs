//! `Timed<T>`: the wrapper that measures a layer from outside.
//!
//! Wrapping a registry backend times the calls LSQR makes into
//! `gaia-backends` (`aprod1`, `aprod2` and the BLAS-1 calls); wrapping a
//! `TiledOperator` times the out-of-core products of `gaia-lsqr`, whose
//! nested backend calls are then its children. Every call forwards
//! unchanged, so a wrapped solve is bitwise identical to a plain one.

use std::sync::Arc;

use gaia_backends::{Backend, LaunchPlan};
use gaia_lsqr::checkpoint::TileProvenance;
use gaia_lsqr::{Operator, OperatorError};
use gaia_sparse::SparseSystem;

use crate::trace::{SpanGuard, Trace};

/// Forwards to `inner`, recording one span per call.
pub struct Timed<T> {
    inner: T,
    trace: Arc<Trace>,
    /// A span that lasts as long as the wrapper, e.g. the life of one
    /// simulated rank; closed when the wrapper is dropped.
    _life: Option<SpanGuard>,
}

impl<T> Timed<T> {
    /// Wrap `inner`; spans nest under the caller's open span.
    pub fn new(inner: T, trace: &Arc<Trace>) -> Self {
        Timed {
            inner,
            trace: Arc::clone(trace),
            _life: None,
        }
    }

    /// Wrap `inner` and keep `life` open until the wrapper is dropped.
    pub fn with_life(inner: T, trace: &Arc<Trace>, life: SpanGuard) -> Self {
        Timed {
            inner,
            trace: Arc::clone(trace),
            _life: Some(life),
        }
    }
}

impl<B: Backend> Backend for Timed<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        let _span = self.trace.span("backends.aprod1", "backends");
        self.inner.aprod1(sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        let _span = self.trace.span("backends.aprod2", "backends");
        self.inner.aprod2(sys, y, out);
    }

    fn launch_plan(&self) -> Option<LaunchPlan> {
        self.inner.launch_plan()
    }

    fn nrm2(&self, v: &[f64]) -> f64 {
        let _span = self.trace.span("backends.blas", "backends");
        self.inner.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        let _span = self.trace.span("backends.blas", "backends");
        self.inner.scal(v, s);
    }

    fn axpy(&self, y: &mut [f64], a: f64, x: &[f64]) {
        let _span = self.trace.span("backends.blas", "backends");
        self.inner.axpy(y, a, x);
    }
}

impl<O: Operator> Operator for Timed<O> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }

    fn known_terms(&self) -> &[f64] {
        self.inner.known_terms()
    }

    fn column_norms(&self) -> Result<Vec<f64>, OperatorError> {
        let _span = self.trace.span("core.ooc.column_norms", "core");
        self.inner.column_norms()
    }

    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let _span = self.trace.span("core.ooc.aprod1", "core");
        self.inner.aprod1(x, out)
    }

    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let _span = self.trace.span("core.ooc.aprod2", "core");
        self.inner.aprod2(y, out)
    }

    // The BLAS-1 calls of a tiled operator go straight to its backend,
    // which is itself wrapped: no second span here.
    fn nrm2(&self, v: &[f64]) -> f64 {
        self.inner.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        self.inner.scal(v, s);
    }

    fn provenance(&self) -> Option<TileProvenance> {
        self.inner.provenance()
    }
}
