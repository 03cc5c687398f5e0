//! Sequential reference backend.

use gaia_sparse::SparseSystem;

use crate::kernels;
use crate::traits::Backend;

/// Single-threaded backend, built directly from the per-block kernels. It
/// is the correctness oracle every parallel backend is tested against, and
/// plays the role of the paper's production reference solution (§V-C).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqBackend;

impl Backend for SeqBackend {
    fn name(&self) -> String {
        "seq".to_string()
    }

    fn description(&self) -> &'static str {
        "sequential reference (oracle)"
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.check_aprod1(sys, x, out);
        kernels::aprod1_range(sys, x, 0..sys.n_rows(), out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.check_aprod2(sys, y, out);
        let [astro, att, instr, glob] = sys.sections_mut(out);
        kernels::aprod2_astro(sys, y, 0..sys.layout().n_stars as usize, astro);
        kernels::aprod2_att(sys, y, 0..sys.n_rows(), att);
        kernels::aprod2_instr(sys, y, 0..sys.n_obs_rows(), instr);
        kernels::aprod2_glob(sys, y, 0..sys.n_obs_rows(), glob);
    }

    /// The pass as one row loop ([`kernels::gk_pass`]) over the whole
    /// system: bitwise equal to the default.
    fn gk_products(
        &self,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        self.check_aprod1(sys, x, u);
        self.check_aprod2(sys, u, out);
        kernels::gk_pass(sys, x, alfa, u, sys.sections_mut(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_sparse::dense::DenseMatrix;
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    #[test]
    fn seq_matches_dense_oracle() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(21)).generate();
        let d = DenseMatrix::from_sparse(&sys);
        let b = SeqBackend;
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.31).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();

        let mut got1 = vec![0.25; sys.n_rows()]; // non-zero start: accumulate semantics
        let mut want1 = vec![0.25; sys.n_rows()];
        b.aprod1(&sys, &x, &mut got1);
        d.mat_vec_acc(&x, &mut want1);
        for (g, w) in got1.iter().zip(&want1) {
            assert!((g - w).abs() < 1e-10);
        }

        let mut got2 = vec![-0.5; sys.n_cols()];
        let mut want2 = vec![-0.5; sys.n_cols()];
        b.aprod2(&sys, &y, &mut got2);
        d.mat_t_vec_acc(&y, &mut want2);
        for (g, w) in got2.iter().zip(&want2) {
            assert!((g - w).abs() < 1e-10);
        }
    }
}
