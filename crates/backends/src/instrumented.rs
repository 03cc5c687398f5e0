//! [`InstrumentedBackend`]: wrap any [`Backend`] so every `aprod1`/`aprod2`
//! call and every Golub–Kahan pass (`gk`) is timed whole (scheduling +
//! kernels + joins) into the telemetry registry's per-phase cells, complementing the per-(phase, block) cells
//! the kernels record themselves. The wrapper is free when the `telemetry`
//! feature is off — the probes compile to nothing and calls forward
//! straight to the inner backend.

use gaia_sparse::SparseSystem;
use gaia_telemetry::Phase;

use crate::kernels::coefficient_count;
use crate::traits::Backend;

const F64: u64 = std::mem::size_of::<f64>() as u64;

/// Analytic estimate of bytes one full `aprod1` touches: every stored
/// coefficient and its paired operand read once, every output read and
/// written once.
pub fn aprod1_bytes(sys: &SparseSystem) -> u64 {
    2 * coefficient_count(sys) * F64 + 2 * sys.n_rows() as u64 * F64
}

/// Analytic estimate of bytes one full `aprod2` touches: coefficients and
/// the `y` operand read once per nonzero, plus a read-modify-write of the
/// output slot per nonzero.
pub fn aprod2_bytes(sys: &SparseSystem) -> u64 {
    4 * coefficient_count(sys) * F64
}

/// A [`Backend`] decorator recording whole-call wall time and analytic
/// memory traffic for both sparse products and the pass that runs them
/// back to back (its traffic is counted as the two products', an upper
/// bound for a pass that reads the matrix once).
pub struct InstrumentedBackend<B> {
    inner: B,
}

impl<B: Backend> InstrumentedBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        InstrumentedBackend { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Backend> Backend for InstrumentedBackend<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        let mut t = gaia_telemetry::call_scope(Phase::Aprod1);
        t.add_bytes(aprod1_bytes(sys));
        self.inner.aprod1(sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        let mut t = gaia_telemetry::call_scope(Phase::Aprod2);
        t.add_bytes(aprod2_bytes(sys));
        self.inner.aprod2(sys, y, out);
    }

    /// Forwarded, so a wrapped backend runs the pass it runs unwrapped,
    /// timed as one whole `gk` call; its kernels record their own cells
    /// (one `gk/*` call per row loop of a fused pass).
    fn gk_products(
        &self,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        let mut t = gaia_telemetry::call_scope(Phase::Gk);
        t.add_bytes(aprod1_bytes(sys) + aprod2_bytes(sys));
        self.inner.gk_products(sys, x, alfa, u, out);
    }

    fn launch_plan(&self) -> Option<crate::launch::LaunchPlan> {
        self.inner.launch_plan()
    }

    fn nrm2(&self, v: &[f64]) -> f64 {
        self.inner.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        self.inner.scal(v, s)
    }

    fn axpy(&self, y: &mut [f64], a: f64, x: &[f64]) {
        self.inner.axpy(y, a, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_seq::SeqBackend;
    use crate::{Aprod2Spec, Aprod2Strategy, ExecutorPool, LaunchPlan, PlannedBackend, Tuning};
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    #[test]
    fn wrapper_forwards_results_unchanged() {
        let _alone = CALL_CELLS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(21)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.31).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.37).cos()).collect();
        let plain = SeqBackend;
        let wrapped = InstrumentedBackend::new(SeqBackend);
        assert_eq!(wrapped.name(), plain.name());

        let mut want1 = vec![0.0; sys.n_rows()];
        plain.aprod1(&sys, &x, &mut want1);
        let mut got1 = vec![0.0; sys.n_rows()];
        wrapped.aprod1(&sys, &x, &mut got1);
        assert_eq!(got1, want1);

        let mut want2 = vec![0.0; sys.n_cols()];
        plain.aprod2(&sys, &y, &mut want2);
        let mut got2 = vec![0.0; sys.n_cols()];
        wrapped.aprod2(&sys, &y, &mut got2);
        assert_eq!(got2, want2);

        assert_eq!(wrapped.nrm2(&x), plain.nrm2(&x));
    }

    /// Held by every test here that records whole calls: the registry's
    /// call cells are process-global.
    static CALL_CELLS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// `(u, out)` after one pass from non-zero `u` and `out`.
    fn pass(b: &dyn Backend, sys: &SparseSystem) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.29).sin()).collect();
        let mut u: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.43).cos()).collect();
        let mut out: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        b.gk_products(sys, &x, 1.25, &mut u, &mut out);
        (u, out)
    }

    /// The wrapper forwards the pass: `seq`'s comes back bit for bit, and
    /// a plan with a one-launch pass runs that one launch, not the two
    /// products the trait's default would make.
    #[test]
    fn wrapper_forwards_the_pass() {
        let _alone = CALL_CELLS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(23)).generate();
        let want = pass(&SeqBackend, &sys);
        assert_eq!(pass(&InstrumentedBackend::new(SeqBackend), &sys), want);

        // A thread count of its own, so no other test launches on the
        // shared pool this one counts.
        let plan = LaunchPlan::new(
            Tuning::with_threads(11),
            Aprod2Spec::uniform(Aprod2Strategy::Atomic),
        );
        let wrapped = InstrumentedBackend::new(PlannedBackend::new("atomic", "test", plan));
        let pool = ExecutorPool::shared(11);
        let (launches, jobs) = (pool.launch_count(), pool.jobs_run_count());
        let got = pass(&wrapped, &sys);
        assert_eq!(pool.launch_count() - launches, 1);
        assert_eq!(pool.jobs_run_count() - jobs, 11);
        for (g, w) in got.0.iter().chain(&got.1).zip(want.0.iter().chain(&want.1)) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn byte_model_scales_with_the_system() {
        let tiny = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(1)).generate();
        let small = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(1)).generate();
        assert!(aprod1_bytes(&tiny) > 0);
        assert!(aprod2_bytes(&tiny) > 0);
        assert!(aprod1_bytes(&small) > aprod1_bytes(&tiny));
        assert!(aprod2_bytes(&small) > aprod2_bytes(&tiny));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn whole_calls_land_in_the_phase_cells() {
        let _alone = CALL_CELLS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(22)).generate();
        let x: Vec<f64> = vec![1.0; sys.n_cols()];
        let y: Vec<f64> = vec![1.0; sys.n_rows()];
        let wrapped = InstrumentedBackend::new(SeqBackend);
        gaia_telemetry::reset();
        let mut out1 = vec![0.0; sys.n_rows()];
        wrapped.aprod1(&sys, &x, &mut out1);
        let mut out2 = vec![0.0; sys.n_cols()];
        wrapped.aprod2(&sys, &y, &mut out2);
        let _ = pass(&wrapped, &sys);
        let snap = gaia_telemetry::snapshot();
        assert_eq!(snap.calls.len(), 3);
        // One pass is one `gk` call, not an `aprod1` and an `aprod2` call.
        for (phase, bytes) in [
            ("aprod2", aprod2_bytes(&sys)),
            ("gk", aprod1_bytes(&sys) + aprod2_bytes(&sys)),
        ] {
            let cell = snap.calls.iter().find(|c| c.phase == phase).unwrap();
            assert_eq!((cell.calls, cell.bytes), (1, bytes), "{phase}");
        }
        let a1 = snap.calls.iter().find(|c| c.phase == "aprod1").unwrap();
        assert_eq!(a1.calls, 1);
        assert_eq!(a1.bytes, aprod1_bytes(&sys));
        // The per-kernel cells saw the same call, broken down by block.
        assert!(snap
            .kernels
            .iter()
            .any(|c| c.phase == "aprod1" && c.block == "astro"));
        assert!(snap
            .kernels
            .iter()
            .any(|c| c.phase == "aprod2" && c.block == "att"));
        gaia_telemetry::reset();
    }
}
