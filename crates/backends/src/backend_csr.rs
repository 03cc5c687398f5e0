//! Generic-CSR backend — the measured counterpart of the §V-B
//! amd-lab-notes SpMV comparison.
//!
//! This backend ignores the structured storage entirely: it converts the
//! system to CSR once (cached per system pointer is not possible without
//! interior mutability, so conversion happens on construction against a
//! specific system) and runs the textbook scalar SpMV / SpMVᵀ kernels.
//! Comparing it against the structured backends (`gaia-bench
//! spmv_labnotes`) quantifies, on real hardware, what the paper's storage
//! scheme buys: less index metadata per non-zero and block-specialized
//! inner loops.

use std::sync::Arc;

use gaia_sparse::csr::CsrMatrix;
use gaia_sparse::SparseSystem;

use crate::exec::{ExecutorPool, Job};
use crate::launch::split_ranges;
use crate::registry::tuned_name;
use crate::traits::Backend;
use crate::tuning::Tuning;

/// Backend running generic CSR kernels over a pre-converted matrix.
///
/// Unlike the other backends it is bound to one system at construction
/// ([`CsrBackend::for_system`]); calling it with a different system
/// panics. `aprod2` uses per-chunk privatization (the conflict pattern
/// of CSRᵀ is unstructured, so that is the only safe generic strategy).
/// CSR has no block structure for [`crate::LaunchPlan`] to partition, so
/// this backend submits its row-chunk jobs to the pool directly.
pub struct CsrBackend {
    tuning: Tuning,
    pool: Arc<ExecutorPool>,
    csr: CsrMatrix,
    n_rows: usize,
    n_cols: usize,
}

impl CsrBackend {
    /// Convert `sys` and bind the backend to it.
    pub fn for_system(sys: &SparseSystem, threads: usize) -> Self {
        let tuning = Tuning::with_threads(threads);
        CsrBackend {
            tuning,
            pool: ExecutorPool::shared(tuning.threads),
            csr: CsrMatrix::from_system(sys),
            n_rows: sys.n_rows(),
            n_cols: sys.n_cols(),
        }
    }

    /// Storage bytes of the CSR mirror (for footprint comparisons).
    pub fn storage_bytes(&self) -> u64 {
        self.csr.storage_bytes()
    }

    fn check_binding(&self, sys: &SparseSystem) {
        assert_eq!(
            (sys.n_rows(), sys.n_cols()),
            (self.n_rows, self.n_cols),
            "CsrBackend is bound to a specific system"
        );
    }
}

impl Backend for CsrBackend {
    fn name(&self) -> String {
        tuned_name("csr", self.tuning)
    }

    fn description(&self) -> &'static str {
        "generic CSR SpMV kernels (amd-lab-notes comparison), privatized transpose"
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.check_aprod1(sys, x, out);
        self.check_binding(sys);
        let csr = &self.csr;
        let ranges = split_ranges(self.n_rows, self.tuning.chunk_count(self.n_rows));
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for range in ranges {
            let (mine, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push(Box::new(move || csr.spmv_range(x, range, mine)));
        }
        self.pool.run(jobs);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.check_aprod2(sys, y, out);
        self.check_binding(sys);
        let csr = &self.csr;
        let n_cols = self.n_cols;
        let ranges = split_ranges(self.n_rows, self.tuning.chunk_count(self.n_rows));
        let mut privates: Vec<Vec<f64>> = vec![vec![0.0; n_cols]; ranges.len()];
        {
            let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
            for (private, rows) in privates.iter_mut().zip(ranges) {
                jobs.push(Box::new(move || csr.spmv_t_range(y, rows, private)));
            }
            self.pool.run(jobs);
        }
        // Column-parallel reduction of the private buffers.
        let privates = &privates;
        let mut red_jobs: Vec<Job<'_>> = Vec::new();
        let mut rest = out;
        for own in split_ranges(n_cols, self.tuning.chunk_count(n_cols)) {
            let (mine, tail) = rest.split_at_mut(own.len());
            rest = tail;
            red_jobs.push(Box::new(move || {
                for private in privates {
                    for (slot, &v) in mine.iter_mut().zip(&private[own.start..own.end]) {
                        *slot += v;
                    }
                }
            }));
        }
        self.pool.run(red_jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_seq::SeqBackend;
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    #[test]
    fn csr_backend_matches_seq() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(99)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.81).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.83).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        for threads in [1, 4] {
            let b = CsrBackend::for_system(&sys, threads);
            let mut got1 = vec![0.0; sys.n_rows()];
            b.aprod1(&sys, &x, &mut got1);
            let mut got2 = vec![0.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut got2);
            for (g, w) in got1.iter().zip(&want1) {
                assert!((g - w).abs() < 1e-10);
            }
            for (g, w) in got2.iter().zip(&want2) {
                assert!((g - w).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn csr_backend_satisfies_the_adjoint_identity() {
        use gaia_sparse::Rhs;
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(100)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 0.0 });
        let (sys, truth) = Generator::new(cfg).generate_with_truth();
        let x_true = truth.unwrap();
        let b = CsrBackend::for_system(&sys, 2);
        // Adjoint identity, the property LSQR needs.
        let mut ax = vec![0.0; sys.n_rows()];
        b.aprod1(&sys, &x_true, &mut ax);
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.03).sin()).collect();
        let mut aty = vec![0.0; sys.n_cols()];
        b.aprod2(&sys, &y, &mut aty);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, c)| a * c).sum();
        let rhs: f64 = x_true.iter().zip(&aty).map(|(a, c)| a * c).sum();
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    #[should_panic(expected = "bound to a specific system")]
    fn wrong_system_is_rejected() {
        let a = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(1)).generate();
        let b = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(1)).generate();
        let backend = CsrBackend::for_system(&a, 2);
        let x = vec![0.0; b.n_cols()];
        let mut out = vec![0.0; b.n_rows()];
        backend.aprod1(&b, &x, &mut out);
    }
}
