//! Rayon backend — the "tuning-oblivious runtime" analogue of C++ PSTL.

use gaia_sparse::system::ASTRO_NNZ_PER_ROW;
use gaia_sparse::SparseSystem;
use rayon::prelude::*;

use crate::kernels;
use crate::traits::Backend;

/// Parallel-iterator backend. The `rayon` it runs on is this workspace's
/// offline stand-in (`vendor/rayon`): items are split into contiguous
/// batches, one per core, on scoped threads — no work stealing — so that
/// is what the `rayon` row of any measurement here measures.
///
/// C++ PSTL "completely mask\[s\] any low-level parallel runtime library" and
/// offers "no specific directive to tune the number of threads and blocks"
/// (§IV-e); rayon plays exactly that role in Rust — the global pool decides
/// the split, the programmer expresses only the parallel shape:
///
/// * `aprod1`: `par_chunks_mut` over output rows;
/// * `aprod2` astrometric: `par_chunks_mut(5)` over the astro section —
///   each 5-wide chunk *is* one star's block, so the block-diagonal
///   structure maps 1:1 onto disjoint mutable chunks;
/// * `aprod2` attitude/instrumental/global: parallel fold into per-task
///   private buffers, then a parallel reduction (the PSTL-idiomatic
///   `transform_reduce` shape).
#[derive(Debug, Clone, Copy, Default)]
pub struct RayonBackend;

/// Row chunk size for `aprod1`; mirrors PSTL's fixed default of 256
/// threads per block that the paper observes via `nsys` (§V-B).
const APROD1_CHUNK: usize = 256;

impl Backend for RayonBackend {
    fn name(&self) -> String {
        "rayon".to_string()
    }

    fn description(&self) -> &'static str {
        "parallel iterators on vendor/rayon: contiguous batches on scoped threads, no work stealing (C++ PSTL analogue)"
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.check_aprod1(sys, x, out);
        out.par_chunks_mut(APROD1_CHUNK)
            .enumerate()
            .for_each(|(chunk_idx, chunk)| {
                let start = chunk_idx * APROD1_CHUNK;
                kernels::aprod1_range(sys, x, start..start + chunk.len(), chunk);
            });
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.check_aprod2(sys, y, out);
        let [astro, att_out, instr_out, glob_out] = sys.sections_mut(out);
        let (n_att, n_instr) = (att_out.len(), instr_out.len());
        let shared_len = n_att + n_instr + glob_out.len();

        // Astrometric: one 5-wide chunk per star, embarrassingly parallel.
        astro
            .par_chunks_mut(ASTRO_NNZ_PER_ROW)
            .enumerate()
            .for_each(|(star, slot)| {
                kernels::aprod2_astro(sys, y, star..star + 1, slot);
            });

        // Shared sections: fold row chunks into private buffers, reduce.
        let rows = sys.n_rows();
        let chunk = (rows / (rayon::current_num_threads() * 4).max(1)).max(64);
        let reduced = (0..rows)
            .into_par_iter()
            .step_by(chunk)
            .map(|start| {
                let range = start..(start + chunk).min(rows);
                let mut private = vec![0.0f64; shared_len];
                {
                    let (att, rest) = private.split_at_mut(n_att);
                    let (instr, glob) = rest.split_at_mut(n_instr);
                    let obs = range.start..range.end.min(sys.n_obs_rows());
                    kernels::aprod2_att(sys, y, range, att);
                    if !obs.is_empty() {
                        kernels::aprod2_instr(sys, y, obs.clone(), instr);
                        kernels::aprod2_glob(sys, y, obs, glob);
                    }
                }
                private
            })
            .reduce(
                || vec![0.0f64; shared_len],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
        let shared = att_out.iter_mut().chain(instr_out).chain(glob_out);
        for (slot, v) in shared.zip(&reduced) {
            *slot += v;
        }
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        v.par_iter_mut().for_each(|x| *x *= s);
    }

    fn axpy(&self, y: &mut [f64], a: f64, x: &[f64]) {
        assert_eq!(y.len(), x.len(), "axpy length mismatch");
        y.par_iter_mut().zip(x.par_iter()).for_each(|(yi, &xi)| {
            *yi += a * xi;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_seq::SeqBackend;
    use crate::blas;
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    #[test]
    fn rayon_matches_seq() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(71)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.53).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.59).cos()).collect();
        let seq = SeqBackend;
        let r = RayonBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut got1 = vec![0.0; sys.n_rows()];
        r.aprod1(&sys, &x, &mut got1);
        for (g, w) in got1.iter().zip(&want1) {
            assert!((g - w).abs() < 1e-10);
        }
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        let mut got2 = vec![0.0; sys.n_cols()];
        r.aprod2(&sys, &y, &mut got2);
        for (g, w) in got2.iter().zip(&want2) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn parallel_blas_matches_sequential() {
        let r = RayonBackend;
        let v: Vec<f64> = (0..100_000).map(|i| ((i as f64) * 0.001).sin()).collect();
        assert!((r.nrm2(&v) - blas::nrm2(&v)).abs() < 1e-9 * blas::nrm2(&v));
        let mut a = v.clone();
        let mut b = v.clone();
        r.scal(&mut a, 1.7);
        blas::scal(&mut b, 1.7);
        assert_eq!(a, b);
        let mut ya = v.clone();
        let mut yb = v.clone();
        r.axpy(&mut ya, -0.3, &v);
        blas::axpy(&mut yb, -0.3, &v);
        assert_eq!(ya, yb);
    }

    #[test]
    fn rayon_nrm2_extreme_values() {
        let r = RayonBackend;
        let mut v = vec![0.0f64; 200_000];
        v[0] = 1e300;
        v[199_999] = 1e300;
        let want = (2.0f64).sqrt() * 1e300;
        assert!((r.nrm2(&v) - want).abs() / want < 1e-12);
        assert_eq!(r.nrm2(&[0.0; 10]), 0.0);
    }
}
