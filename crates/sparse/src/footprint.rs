//! Byte-exact memory accounting.
//!
//! The paper gates which problem sizes run on which GPU by device memory:
//! "the GPU memory occupancy is closely related to the size of the A matrix
//! (copied only once before the main iteration cycle)" (§V-B). The 10 GB
//! problem runs everywhere, 30 GB excludes the 15 GB Tesla T4, and 60 GB
//! only fits the H100 (96 GB) and MI250X.
//!
//! "Problem size" in the paper (and in the artifact's runtime `GB` argument)
//! is the footprint of the reduced matrix plus its index arrays and known
//! terms — the data copied to the device before the LSQR loop. The solver's
//! per-iteration work vectors are accounted separately.
//!
//! Two figures, kept apart on purpose:
//!
//! * **Device bytes** ([`device_bytes`], [`DEVICE_BYTES_PER_OBS_ROW`],
//!   240 B a row) describe the production artifact: both `long` row-index
//!   arrays (`matrixIndexAstro`, `matrixIndexAtt`) included. They define
//!   the paper's problem size, which layouts are scaled to and bandwidth
//!   figures are divided by.
//! * **Resident bytes** ([`resident_bytes`], [`RESIDENT_BYTES_PER_OBS_ROW`],
//!   228 B a row) are what a [`crate::SparseSystem`] here actually holds:
//!   no `matrixIndexAstro` (a row's astrometric start is derived from its
//!   star) and `u32` attitude offsets. Tile budgets charge these.

use crate::layout::{BlockKind, SystemLayout};
use crate::{INSTR_PARAMS_PER_ROW, NNZ_PER_ROW};

/// Size of one stored coefficient (`double`).
pub const VALUE_BYTES: u64 = 8;
/// Size of one `matrixIndex{Astro,Att}` entry (`long`).
pub const ROW_INDEX_BYTES: u64 = 8;
/// Size of one `instrCol` entry (`int`), as in the production code.
pub const INSTR_COL_BYTES: u64 = 4;

/// Device bytes contributed by a single observation row in the production
/// layout: 24 coefficients, one known term, two row indices, six
/// instrument column indices.
pub const DEVICE_BYTES_PER_OBS_ROW: u64 = NNZ_PER_ROW as u64 * VALUE_BYTES
    + VALUE_BYTES
    + 2 * ROW_INDEX_BYTES
    + INSTR_PARAMS_PER_ROW as u64 * INSTR_COL_BYTES;

/// Size of one attitude offset as a [`crate::SparseSystem`] holds it (`u32`).
pub const ATT_OFFSET_BYTES: u64 = 4;

/// Bytes a [`crate::SparseSystem`] holds per observation row: 24
/// coefficients, one known term, one `u32` attitude offset, six `u32`
/// instrument columns.
pub const RESIDENT_BYTES_PER_OBS_ROW: u64 = NNZ_PER_ROW as u64 * VALUE_BYTES
    + VALUE_BYTES
    + ATT_OFFSET_BYTES
    + INSTR_PARAMS_PER_ROW as u64 * INSTR_COL_BYTES;

/// Bytes of coefficient storage for one block (values only).
pub fn block_bytes(layout: &SystemLayout, kind: BlockKind) -> u64 {
    layout.nnz(kind) * VALUE_BYTES
}

/// Bytes of index metadata (`matrixIndexAstro`, `matrixIndexAtt`,
/// `instrCol`).
pub fn index_bytes(layout: &SystemLayout) -> u64 {
    let astro_idx = layout.n_obs_rows() * ROW_INDEX_BYTES;
    let att_idx = layout.n_rows() * ROW_INDEX_BYTES;
    let instr_idx = layout.n_obs_rows() * INSTR_PARAMS_PER_ROW as u64 * INSTR_COL_BYTES;
    astro_idx + att_idx + instr_idx
}

/// Bytes of the known-terms vector `b`.
pub fn known_terms_bytes(layout: &SystemLayout) -> u64 {
    layout.n_rows() * VALUE_BYTES
}

/// Total bytes resident on the device before the LSQR loop starts — the
/// paper's "problem size".
pub fn device_bytes(layout: &SystemLayout) -> u64 {
    let values: u64 = BlockKind::ALL.iter().map(|&k| block_bytes(layout, k)).sum();
    values + index_bytes(layout) + known_terms_bytes(layout)
}

/// Bytes a [`crate::SparseSystem`] of this layout holds: every block's
/// values, the `u32` attitude offsets, the instrument columns and the known
/// terms ([`RESIDENT_BYTES_PER_OBS_ROW`] a row, constraint rows their
/// attitude part). What a tile budget charges for a loaded tile.
pub fn resident_bytes(layout: &SystemLayout) -> u64 {
    let values: u64 = BlockKind::ALL.iter().map(|&k| block_bytes(layout, k)).sum();
    let instr_idx = layout.n_obs_rows() * INSTR_PARAMS_PER_ROW as u64 * INSTR_COL_BYTES;
    values + layout.n_rows() * ATT_OFFSET_BYTES + instr_idx + known_terms_bytes(layout)
}

/// Bytes of the LSQR work vectors (`x`, `v`, `w`, `var` of length `n_cols`;
/// `u`/`b̃` of length `n_rows`).
pub fn solver_workspace_bytes(layout: &SystemLayout) -> u64 {
    4 * layout.n_cols() * VALUE_BYTES + layout.n_rows() * VALUE_BYTES
}

/// Total device-resident bytes during the solve.
pub fn total_device_bytes(layout: &SystemLayout) -> u64 {
    device_bytes(layout) + solver_workspace_bytes(layout)
}

/// Bytes *read* by one `aprod1` pass over a block (coefficients, indices,
/// the gathered slice of `x`, and the streamed update of `b̃`). Used by the
/// GPU simulator's roofline model.
pub fn aprod1_traffic_bytes(layout: &SystemLayout, kind: BlockKind) -> u64 {
    let rows = match kind {
        BlockKind::Attitude => layout.n_rows(),
        _ => layout.n_obs_rows(),
    };
    let coeff = layout.nnz(kind) * VALUE_BYTES;
    let idx = match kind {
        BlockKind::Astrometric => rows * ROW_INDEX_BYTES,
        BlockKind::Attitude => rows * ROW_INDEX_BYTES,
        BlockKind::Instrumental => rows * INSTR_PARAMS_PER_ROW as u64 * INSTR_COL_BYTES,
        BlockKind::Global => 0,
    };
    // Gathered x elements (one load per non-zero; caches make this an upper
    // bound, the simulator applies a per-platform reuse factor) plus the
    // read-modify-write of b̃.
    let x_gather = layout.nnz(kind) * VALUE_BYTES;
    let b_rmw = 2 * rows * VALUE_BYTES;
    coeff + idx + x_gather + b_rmw
}

/// Bytes moved by one `aprod2` pass over a block (transpose product).
pub fn aprod2_traffic_bytes(layout: &SystemLayout, kind: BlockKind) -> u64 {
    let rows = match kind {
        BlockKind::Attitude => layout.n_rows(),
        _ => layout.n_obs_rows(),
    };
    let coeff = layout.nnz(kind) * VALUE_BYTES;
    let idx = match kind {
        BlockKind::Astrometric => rows * ROW_INDEX_BYTES,
        BlockKind::Attitude => rows * ROW_INDEX_BYTES,
        BlockKind::Instrumental => rows * INSTR_PARAMS_PER_ROW as u64 * INSTR_COL_BYTES,
        BlockKind::Global => 0,
    };
    let b_read = rows * VALUE_BYTES;
    // Scattered atomic (or owned, for astro) updates of x̃: read+write per nnz.
    let x_rmw = 2 * layout.nnz(kind) * VALUE_BYTES;
    coeff + idx + b_read + x_rmw
}

/// Floating-point operations of one `aprod1` pass over a block
/// (multiply-add per non-zero).
pub fn aprod_flops(layout: &SystemLayout, kind: BlockKind) -> u64 {
    2 * layout.nnz(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_obs_row_is_240() {
        // 24×8 values + 8 known term + 2×8 row indices + 6×4 instr cols.
        assert_eq!(DEVICE_BYTES_PER_OBS_ROW, 240);
    }

    #[test]
    fn resident_bytes_per_obs_row_is_228() {
        // 24×8 values + 8 known term + 4 attitude offset + 6×4 instr cols.
        assert_eq!(RESIDENT_BYTES_PER_OBS_ROW, 228);
        let l = SystemLayout::small();
        let (n_obs, n_constr) = (l.n_obs_rows(), l.n_constraint_rows);
        // A constraint row holds 12 values, a known term and an offset.
        let constr_row = 12 * VALUE_BYTES + VALUE_BYTES;
        assert_eq!(
            resident_bytes(&l),
            n_obs * RESIDENT_BYTES_PER_OBS_ROW + n_constr * (constr_row + ATT_OFFSET_BYTES)
        );
        assert_eq!(
            device_bytes(&l),
            n_obs * DEVICE_BYTES_PER_OBS_ROW + n_constr * (constr_row + ROW_INDEX_BYTES)
        );
    }

    #[test]
    fn device_bytes_close_to_rows_times_row_bytes() {
        let l = SystemLayout::from_gb(1.0);
        let exact = device_bytes(&l);
        let approx = l.n_obs_rows() * DEVICE_BYTES_PER_OBS_ROW;
        // Constraint rows add a small amount on top of the per-row estimate.
        assert!(exact >= approx);
        assert!((exact - approx) < exact / 100);
    }

    #[test]
    fn workspace_is_small_relative_to_matrix() {
        // §V-B footnote: the matrix dominates device memory.
        let l = SystemLayout::from_gb(10.0);
        assert!(solver_workspace_bytes(&l) < device_bytes(&l) / 10);
    }

    #[test]
    fn traffic_accounting_is_positive_and_ordered() {
        let l = SystemLayout::small();
        for kind in BlockKind::ALL {
            if l.nnz(kind) == 0 {
                continue;
            }
            assert!(aprod1_traffic_bytes(&l, kind) > 0);
            // aprod2 moves at least as much as aprod1 per block: scattered
            // RMW on x̃ outweighs the streaming b̃ update.
            assert!(aprod2_traffic_bytes(&l, kind) >= aprod1_traffic_bytes(&l, kind));
            assert_eq!(aprod_flops(&l, kind), 2 * l.nnz(kind));
        }
    }

    #[test]
    fn resident_bytes_match_the_materialized_arrays() {
        use crate::generator::{Generator, GeneratorConfig};
        let l = SystemLayout::tiny();
        let sys = Generator::new(GeneratorConfig::new(l).seed(7)).generate();
        // Count what the system actually holds, independent of the
        // accounting formula: 5+12+6(+glob) values, 6 u32 columns, one u32
        // attitude offset per row, and the known terms.
        let counted = (sys.values_astro().len()
            + sys.values_att().len()
            + sys.values_instr().len()
            + sys.values_glob().len()
            + sys.known_terms().len()) as u64
            * VALUE_BYTES
            + sys.matrix_index_att().len() as u64 * ATT_OFFSET_BYTES
            + sys.instr_col().len() as u64 * INSTR_COL_BYTES;
        assert_eq!(resident_bytes(&l), counted);
        // The resident arrays are the device arrays less
        // `matrixIndexAstro` and half of each `matrixIndexAtt` entry.
        let n_obs = sys.n_obs_rows() as u64;
        let n_rows = sys.n_rows() as u64;
        assert_eq!(
            device_bytes(&l) - resident_bytes(&l),
            n_obs * ROW_INDEX_BYTES + n_rows * (ROW_INDEX_BYTES - ATT_OFFSET_BYTES)
        );
    }

    #[test]
    fn constants_match_block_shapes() {
        assert_eq!(crate::ASTRO_PARAMS_PER_STAR, 5);
        assert_eq!(crate::ATT_AXES * crate::ATT_PARAMS_PER_AXIS, 12);
        assert_eq!(INSTR_PARAMS_PER_ROW, 6);
    }
}
