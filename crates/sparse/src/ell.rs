//! ELL-style (slot-major) mirror of a [`SparseSystem`].
//!
//! The production storage is row-major: the 5/12/6 coefficients of a row
//! sit contiguously, which is ideal for one thread walking one row. GPU
//! SpMV literature (and the amd-lab-notes kernels the paper benchmarks
//! against) instead favours ELLPACK: because every AVU-GSR row stores a
//! *fixed* number of non-zeros per block, the value arrays transpose
//! losslessly into slot-major order — `values[slot][row]` — so that
//! consecutive rows of one slot are contiguous. On CPUs this is the
//! layout auto-vectorizers want for the row-parallel `aprod1` gather and
//! it keeps the per-slot stream of `aprod2` reads sequential.
//!
//! The transpose is a pure permutation of the stored values — no
//! arithmetic — so the round-trip `SparseSystem` → [`EllSystem`] →
//! `SparseSystem` is bit-identical, which the tests assert. Backends pick
//! the layout per [`MatrixLayout`] carried by their launch plan, not by
//! code path: the same kernels exist in row-major and ELL flavours and
//! the tuner decides which wins on a given shape.

use serde::{Deserialize, Serialize};

use crate::layout::{ColumnBlocks, SystemLayout};
use crate::system::{SparseSystem, ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW};

/// Which physical value layout a kernel reads.
///
/// Carried by `LaunchPlan` in `gaia-backends`; defined here so the sparse
/// crate can account its footprint honestly and convert between forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MatrixLayout {
    /// Production row-major arrays (`values[row][slot]`).
    #[default]
    RowMajor,
    /// ELL-style slot-major transpose (`values[slot][row]`).
    Ell,
}

impl MatrixLayout {
    /// Stable name used in profiles and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            MatrixLayout::RowMajor => "row-major",
            MatrixLayout::Ell => "ell",
        }
    }

    /// Parse a profile / CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "row-major" => Some(MatrixLayout::RowMajor),
            "ell" => Some(MatrixLayout::Ell),
            _ => None,
        }
    }

    /// All layouts, for tuner sweeps.
    pub const ALL: [MatrixLayout; 2] = [MatrixLayout::RowMajor, MatrixLayout::Ell];
}

impl std::fmt::Display for MatrixLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Slot-major mirror of a [`SparseSystem`].
///
/// Every value array is transposed so slot `k` of all rows is contiguous:
/// `astro_slot(k)[row] == values_astro[row * 5 + k]`, and likewise for the
/// attitude (12 slots over all rows incl. constraints) and instrumental
/// (6 value slots + 6 column slots) blocks. The attitude offsets and known
/// terms are copied verbatim; the global block already stores one value
/// per row so it is shared as-is. Like the source, the mirror derives each
/// row's astrometric start from its star instead of storing it.
#[derive(Debug, Clone, PartialEq)]
pub struct EllSystem {
    layout: SystemLayout,
    /// The source's column space and first star, so a row block's mirror
    /// converts back to a row block.
    cols: ColumnBlocks,
    star0: u64,
    /// `5 × n_obs_rows`, slot-major.
    astro: Vec<f64>,
    /// `12 × n_rows`, slot-major.
    att: Vec<f64>,
    /// `6 × n_obs_rows`, slot-major.
    instr: Vec<f64>,
    /// `6 × n_obs_rows`, slot-major columns matching `instr`.
    instr_col: Vec<u32>,
    /// `n_obs_rows × n_glob_params`, copied row-major (≤ 1 slot).
    glob: Vec<f64>,
    matrix_index_att: Vec<u32>,
    known_terms: Vec<f64>,
}

/// Transpose `rows × slots` row-major into `slots × rows` slot-major.
fn transpose<T: Copy + Default>(src: &[T], rows: usize, slots: usize) -> Vec<T> {
    debug_assert_eq!(src.len(), rows * slots);
    let mut dst = vec![T::default(); src.len()];
    for row in 0..rows {
        for k in 0..slots {
            dst[k * rows + row] = src[row * slots + k];
        }
    }
    dst
}

/// Inverse of [`transpose`]: slot-major back to row-major.
fn untranspose<T: Copy + Default>(src: &[T], rows: usize, slots: usize) -> Vec<T> {
    debug_assert_eq!(src.len(), rows * slots);
    let mut dst = vec![T::default(); src.len()];
    for row in 0..rows {
        for k in 0..slots {
            dst[row * slots + k] = src[k * rows + row];
        }
    }
    dst
}

impl EllSystem {
    /// Build the slot-major mirror of `sys`. Pure data movement: every
    /// stored value keeps its exact bit pattern.
    pub fn from_system(sys: &SparseSystem) -> Self {
        let n_obs = sys.n_obs_rows();
        let n_rows = sys.n_rows();
        EllSystem {
            layout: *sys.layout(),
            cols: sys.columns(),
            star0: sys.star0(),
            astro: transpose(sys.values_astro(), n_obs, ASTRO_NNZ_PER_ROW),
            att: transpose(sys.values_att(), n_rows, ATT_NNZ_PER_ROW),
            instr: transpose(sys.values_instr(), n_obs, INSTR_NNZ_PER_ROW),
            instr_col: transpose(sys.instr_col(), n_obs, INSTR_NNZ_PER_ROW),
            glob: sys.values_glob().to_vec(),
            matrix_index_att: sys.matrix_index_att().to_vec(),
            known_terms: sys.known_terms().to_vec(),
        }
    }

    /// Reconstruct the row-major [`SparseSystem`]. The inverse permutation
    /// of [`EllSystem::from_system`]; the result is bit-identical to the
    /// original in every stored array.
    pub fn to_system(&self) -> Result<SparseSystem, crate::system::SystemError> {
        let n_obs = self.layout.n_obs_rows() as usize;
        let n_rows = self.layout.n_rows() as usize;
        let mut sys = SparseSystem::from_parts_at(
            self.cols,
            self.star0,
            self.layout,
            untranspose(&self.astro, n_obs, ASTRO_NNZ_PER_ROW),
            untranspose(&self.att, n_rows, ATT_NNZ_PER_ROW),
            untranspose(&self.instr, n_obs, INSTR_NNZ_PER_ROW),
            self.glob.clone(),
            self.matrix_index_att.clone(),
            untranspose(&self.instr_col, n_obs, INSTR_NNZ_PER_ROW),
            vec![0.0; n_rows],
        )?;
        sys.set_known_terms(self.known_terms.clone());
        Ok(sys)
    }

    /// The layout this mirror was built from.
    pub fn layout(&self) -> &SystemLayout {
        &self.layout
    }

    /// Astrometric slot `k` (`k < 5`): one value per observation row.
    #[inline]
    pub fn astro_slot(&self, k: usize) -> &[f64] {
        let n = self.layout.n_obs_rows() as usize;
        &self.astro[k * n..(k + 1) * n]
    }

    /// Attitude slot `k` (`k < 12`): one value per row (obs + constraints).
    #[inline]
    pub fn att_slot(&self, k: usize) -> &[f64] {
        let n = self.layout.n_rows() as usize;
        &self.att[k * n..(k + 1) * n]
    }

    /// Instrumental value slot `k` (`k < 6`): one value per observation row.
    #[inline]
    pub fn instr_slot(&self, k: usize) -> &[f64] {
        let n = self.layout.n_obs_rows() as usize;
        &self.instr[k * n..(k + 1) * n]
    }

    /// Instrumental column slot `k` (`k < 6`), matching
    /// [`EllSystem::instr_slot`].
    #[inline]
    pub fn instr_col_slot(&self, k: usize) -> &[u32] {
        let n = self.layout.n_obs_rows() as usize;
        &self.instr_col[k * n..(k + 1) * n]
    }

    /// `matrixIndexAtt` (copied verbatim from the source system).
    #[inline]
    pub fn matrix_index_att(&self) -> &[u32] {
        &self.matrix_index_att
    }

    /// Global values (row-major; ≤ 1 per observation row).
    #[inline]
    pub fn values_glob(&self) -> &[f64] {
        &self.glob
    }

    /// Bytes held by this mirror (values + indices + known terms), for
    /// honest footprint accounting: the ELL mirror duplicates the resident
    /// arrays, it does not replace them.
    pub fn resident_bytes(&self) -> u64 {
        crate::footprint::ell_mirror_bytes(&self.layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};

    fn sys(seed: u64) -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(seed)).generate()
    }

    fn assert_bit_identical(a: &SparseSystem, b: &SparseSystem) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.values_astro()), bits(b.values_astro()));
        assert_eq!(bits(a.values_att()), bits(b.values_att()));
        assert_eq!(bits(a.values_instr()), bits(b.values_instr()));
        assert_eq!(bits(a.values_glob()), bits(b.values_glob()));
        assert_eq!(bits(a.known_terms()), bits(b.known_terms()));
        assert_eq!(a.matrix_index_att(), b.matrix_index_att());
        assert_eq!(a.instr_col(), b.instr_col());
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for seed in [1u64, 7, 42] {
            let original = sys(seed);
            let ell = EllSystem::from_system(&original);
            let back = ell.to_system().expect("round-trip must re-validate");
            assert_bit_identical(&original, &back);
        }
    }

    #[test]
    fn double_conversion_is_stable() {
        let original = sys(7);
        let once = EllSystem::from_system(&original);
        let back = once.to_system().unwrap();
        let twice = EllSystem::from_system(&back);
        assert_eq!(once, twice);
    }

    #[test]
    fn slots_match_row_major_views() {
        let s = sys(3);
        let ell = EllSystem::from_system(&s);
        for row in 0..s.n_obs_rows() {
            let (astro, _) = s.astro_row(row);
            for (k, &v) in astro.iter().enumerate() {
                assert_eq!(ell.astro_slot(k)[row].to_bits(), v.to_bits());
            }
            let (instr, cols) = s.instr_row(row);
            for k in 0..INSTR_NNZ_PER_ROW {
                assert_eq!(ell.instr_slot(k)[row].to_bits(), instr[k].to_bits());
                assert_eq!(ell.instr_col_slot(k)[row], cols[k]);
            }
        }
        for row in 0..s.n_rows() {
            let (att, _) = s.att_row(row);
            for (k, &v) in att.iter().enumerate() {
                assert_eq!(ell.att_slot(k)[row].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn layout_names_round_trip() {
        for l in MatrixLayout::ALL {
            assert_eq!(MatrixLayout::parse(l.as_str()), Some(l));
        }
        assert_eq!(MatrixLayout::parse("csr"), None);
        assert_eq!(MatrixLayout::default(), MatrixLayout::RowMajor);
    }
}
