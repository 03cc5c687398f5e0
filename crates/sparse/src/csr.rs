//! Generic CSR (compressed sparse row) mirror of a system.
//!
//! §V-B cross-checks the solver against generic SpMV kernels
//! (amd-lab-notes): the AVU-GSR storage scheme replaces per-non-zero
//! column indices with two per-row indices for 17 of its 24 entries,
//! which is both a memory and a bandwidth saving over CSR. This module
//! materializes the CSR form of a [`SparseSystem`] so the claim can be
//! *measured* on real hardware (`gaia-bench spmv_labnotes` times
//! [`CsrMatrix::spmv_range`] against the structured `aprod1`) and the
//! footprint difference quantified.

use serde::{Deserialize, Serialize};

use crate::system::SparseSystem;

/// A CSR matrix (`f64` values, `u32` column indices, `usize` row
/// pointers), the format of the amd-lab-notes scalar SpMV kernels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Convert a system to CSR (columns sorted within each row).
    pub fn from_system(sys: &SparseSystem) -> Self {
        assert!(
            sys.n_cols() <= u32::MAX as usize,
            "CSR mirror limited to u32 column indices"
        );
        let n_rows = sys.n_rows();
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(24);
        for row in 0..n_rows {
            entries.clear();
            entries.extend(sys.row_entries(row).map(|(c, v)| (c as u32, v)));
            entries.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &entries {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n_rows,
            n_cols: sys.n_cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the CSR arrays (values + column indices + row pointers) —
    /// the quantity compared against
    /// [`crate::footprint::device_bytes`] in the storage-scheme study.
    pub fn storage_bytes(&self) -> u64 {
        (self.values.len() * 8 + self.col_idx.len() * 4 + self.row_ptr.len() * 8) as u64
    }

    /// One row's entries.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// `out += A x` over a row range (the scalar amd-lab-notes kernel).
    pub fn spmv_range(&self, x: &[f64], rows: std::ops::Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_cols);
        debug_assert_eq!(out.len(), rows.len());
        for (i, r) in rows.enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            out[i] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::generator::{Generator, GeneratorConfig};
    use crate::layout::SystemLayout;

    fn sys() -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(55)).generate()
    }

    #[test]
    fn csr_matches_dense_mirror() {
        let s = sys();
        let csr = CsrMatrix::from_system(&s);
        let d = DenseMatrix::from_sparse(&s);
        let x: Vec<f64> = (0..s.n_cols()).map(|i| (i as f64 * 0.19).sin()).collect();
        let mut want = vec![0.0; s.n_rows()];
        d.mat_vec_acc(&x, &mut want);
        let mut got = vec![0.0; s.n_rows()];
        csr.spmv_range(&x, 0..s.n_rows(), &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn csr_rows_are_sorted_and_complete() {
        let s = sys();
        let csr = CsrMatrix::from_system(&s);
        assert_eq!(csr.n_rows(), s.n_rows());
        assert_eq!(csr.n_cols(), s.n_cols());
        let mut total = 0;
        for r in 0..csr.n_rows() {
            let (cols, vals) = csr.row(r);
            assert_eq!(cols.len(), vals.len());
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "row {r} not strictly sorted");
            }
            total += cols.len();
        }
        assert_eq!(total, csr.nnz());
        assert_eq!(total as u64, s.layout().nnz_total());
    }

    #[test]
    fn structured_storage_beats_csr_on_metadata() {
        // The §III-B storage argument, measured: CSR stores one 4-byte
        // column index per non-zero; the structured scheme stores two
        // 8-byte row indices + six 4-byte instrument columns per row.
        let s = sys();
        let csr = CsrMatrix::from_system(&s);
        let structured_meta = crate::footprint::index_bytes(s.layout());
        let csr_meta = (csr.nnz() * 4 + (csr.n_rows() + 1) * 8) as u64;
        assert!(
            structured_meta < csr_meta,
            "structured {structured_meta} vs CSR {csr_meta}"
        );
    }

    #[test]
    fn empty_rows_are_representable() {
        // Constraint rows only touch attitude columns; CSR must handle
        // them like any other row (and a hypothetical empty row works).
        let s = sys();
        let csr = CsrMatrix::from_system(&s);
        let last = csr.n_rows() - 1; // a constraint row
        let (cols, _) = csr.row(last);
        assert_eq!(cols.len(), 12);
    }
}
