//! Per-block sequential kernels.
//!
//! These are the Rust equivalents of the production
//! `aprod{1,2}_Kernel_{astro,att,instr,glob}()` CUDA kernels (§IV). Each
//! kernel processes a *range* of rows (or stars) and writes into a
//! *block-local* output slice, so parallel backends can hand disjoint
//! ranges/sections to different threads without synchronization where the
//! structure permits, and add their own conflict strategy where it does not.
//!
//! Output indexing conventions:
//! * `aprod1_*`: `out[i]` accumulates row `rows.start + i`.
//! * `aprod2_astro`: `out` covers astrometric columns
//!   `5·stars.start .. 5·stars.end` (always collision-free across stars).
//! * `aprod2_att` / `aprod2_instr` / `aprod2_glob`: `out` covers the whole
//!   block section in block-local coordinates; different rows may collide.
//! * `aprod2_att_owned` / `aprod2_instr_owned`: owner-computes variants that
//!   scan rows but only write columns inside an owned block-local range.

use std::ops::Range;

use gaia_sparse::system::{ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW};
use gaia_sparse::{SparseSystem, ATT_AXES, ATT_PARAMS_PER_AXIS};
use gaia_telemetry::{Block, Phase};

const F64: u64 = std::mem::size_of::<f64>() as u64;

/// `out[i] += astro_row(rows.start+i) · x_astro_slice` for observation rows.
pub fn aprod1_astro(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Astro);
    t.add_bytes(rows.len() as u64 * (2 * ASTRO_NNZ_PER_ROW as u64 + 2) * F64);
    for (i, row) in rows.enumerate() {
        let (vals, start) = sys.astro_row(row);
        let xs = &x[start as usize..start as usize + ASTRO_NNZ_PER_ROW];
        let mut acc = 0.0;
        for k in 0..ASTRO_NNZ_PER_ROW {
            acc += vals[k] * xs[k];
        }
        out[i] += acc;
    }
}

/// Attitude part of `aprod1` for any row range (observations + constraints).
pub fn aprod1_att(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Att);
    t.add_bytes(rows.len() as u64 * (2 * ATT_NNZ_PER_ROW as u64 + 2) * F64);
    let dof = sys.layout().n_deg_freedom_att as usize;
    let att_base = sys.columns().att as usize;
    for (i, row) in rows.enumerate() {
        let (vals, off) = sys.att_row(row);
        let mut acc = 0.0;
        for axis in 0..ATT_AXES as usize {
            let base = att_base + axis * dof + off as usize;
            for k in 0..ATT_PARAMS_PER_AXIS as usize {
                acc += vals[axis * ATT_PARAMS_PER_AXIS as usize + k] * x[base + k];
            }
        }
        out[i] += acc;
    }
}

/// Instrumental part of `aprod1` for observation rows.
pub fn aprod1_instr(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Instr);
    t.add_bytes(rows.len() as u64 * (2 * INSTR_NNZ_PER_ROW as u64 + 2) * F64);
    let instr_base = sys.columns().instr as usize;
    for (i, row) in rows.enumerate() {
        let (vals, cols) = sys.instr_row(row);
        let mut acc = 0.0;
        for k in 0..INSTR_NNZ_PER_ROW {
            acc += vals[k] * x[instr_base + cols[k] as usize];
        }
        out[i] += acc;
    }
}

/// Global part of `aprod1` for observation rows (no-op when the layout has
/// no global parameter).
pub fn aprod1_glob(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    if sys.layout().n_glob_params == 0 {
        return;
    }
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Glob);
    t.add_bytes(rows.len() as u64 * 3 * F64 + F64);
    let glob_col = sys.columns().glob as usize;
    let xg = x[glob_col];
    let glob = sys.values_glob();
    for (i, row) in rows.enumerate() {
        out[i] += glob[row] * xg;
    }
}

/// Full `aprod1` over a row range into an aligned output slice.
pub fn aprod1_range(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    let obs_end = rows.end.min(sys.n_obs_rows());
    if rows.start < obs_end {
        let obs = rows.start..obs_end;
        let n = obs.len();
        aprod1_astro(sys, x, obs.clone(), &mut out[..n]);
        aprod1_instr(sys, x, obs.clone(), &mut out[..n]);
        aprod1_glob(sys, x, obs, &mut out[..n]);
    }
    aprod1_att(sys, x, rows, out);
}

/// Astrometric `aprod2`, parallel-safe across stars: for each star in
/// `stars`, accumulate the contributions of all its observation rows into
/// the star's 5 columns. `out` covers columns `5·stars.start..5·stars.end`.
pub fn aprod2_astro(sys: &SparseSystem, y: &[f64], stars: Range<usize>, out: &mut [f64]) {
    debug_assert_eq!(out.len(), stars.len() * ASTRO_NNZ_PER_ROW);
    let layout = *sys.layout();
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Astro);
    let rows_covered = if stars.is_empty() {
        0
    } else {
        layout.rows_of_star(stars.end as u64 - 1).end
            - layout.rows_of_star(stars.start as u64).start
    };
    t.add_bytes(
        rows_covered * (ASTRO_NNZ_PER_ROW as u64 + 1) * F64
            + stars.len() as u64 * 2 * ASTRO_NNZ_PER_ROW as u64 * F64,
    );
    for (si, star) in stars.enumerate() {
        let slot = &mut out[si * ASTRO_NNZ_PER_ROW..(si + 1) * ASTRO_NNZ_PER_ROW];
        for row in layout.rows_of_star(star as u64) {
            let (vals, _) = sys.astro_row(row as usize);
            let yr = y[row as usize];
            for k in 0..ASTRO_NNZ_PER_ROW {
                slot[k] += vals[k] * yr;
            }
        }
    }
}

/// Attitude `aprod2` over a row range into the full block-local attitude
/// section. Different rows may write the same columns; the caller must
/// ensure exclusive access to `out` (serial, owned copy, or a lock).
pub fn aprod2_att(sys: &SparseSystem, y: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert_eq!(out.len() as u64, sys.layout().n_att_cols());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Att);
    t.add_bytes(rows.len() as u64 * (3 * ATT_NNZ_PER_ROW as u64 + 1) * F64);
    let dof = sys.layout().n_deg_freedom_att as usize;
    let att_row = sys.att_rows();
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        let (vals, off) = att_row(row);
        for axis in 0..ATT_AXES as usize {
            let base = axis * dof + off as usize;
            for k in 0..ATT_PARAMS_PER_AXIS as usize {
                out[base + k] += vals[axis * ATT_PARAMS_PER_AXIS as usize + k] * yr;
            }
        }
    }
}

/// Attitude `aprod2`, owner-computes: scan `rows` but only update columns in
/// the owned block-local range. `out.len() == own.len()`.
pub fn aprod2_att_owned(
    sys: &SparseSystem,
    y: &[f64],
    rows: Range<usize>,
    own: Range<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), own.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Att);
    t.add_bytes(
        rows.len() as u64 * (ATT_NNZ_PER_ROW as u64 + 1) * F64 + own.len() as u64 * 2 * F64,
    );
    let dof = sys.layout().n_deg_freedom_att as usize;
    let att_row = sys.att_rows();
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        let (vals, off) = att_row(row);
        for axis in 0..ATT_AXES as usize {
            let base = axis * dof + off as usize;
            for k in 0..ATT_PARAMS_PER_AXIS as usize {
                let col = base + k;
                if col >= own.start && col < own.end {
                    out[col - own.start] += vals[axis * ATT_PARAMS_PER_AXIS as usize + k] * yr;
                }
            }
        }
    }
}

/// Instrumental `aprod2` over a row range into the full block-local
/// instrument section (exclusive access required).
pub fn aprod2_instr(sys: &SparseSystem, y: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len() as u64, sys.layout().n_instr_params);
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Instr);
    t.add_bytes(rows.len() as u64 * (3 * INSTR_NNZ_PER_ROW as u64 + 1) * F64);
    let instr_row = sys.instr_rows();
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        let (vals, cols) = instr_row(row);
        for k in 0..INSTR_NNZ_PER_ROW {
            out[cols[k] as usize] += vals[k] * yr;
        }
    }
}

/// Instrumental `aprod2`, owner-computes over a block-local column range.
pub fn aprod2_instr_owned(
    sys: &SparseSystem,
    y: &[f64],
    rows: Range<usize>,
    own: Range<usize>,
    out: &mut [f64],
) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), own.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Instr);
    t.add_bytes(
        rows.len() as u64 * (INSTR_NNZ_PER_ROW as u64 + 1) * F64 + own.len() as u64 * 2 * F64,
    );
    let instr_row = sys.instr_rows();
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        let (vals, cols) = instr_row(row);
        for k in 0..INSTR_NNZ_PER_ROW {
            let col = cols[k] as usize;
            if col >= own.start && col < own.end {
                out[col - own.start] += vals[k] * yr;
            }
        }
    }
}

/// Global `aprod2` over a row range: a plain reduction into the single
/// global slot.
///
/// The fold continues from the *incoming* `out[0]` in ascending row
/// order (rather than reducing into a fresh local and adding once), so
/// splitting a row range into consecutive sub-ranges — as the out-of-core
/// tiled operator does — produces the exact same accumulation chain and
/// therefore a bitwise-identical result. For a zeroed `out` the two
/// formulations coincide, so resident solves are unchanged.
pub fn aprod2_glob(sys: &SparseSystem, y: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    if sys.layout().n_glob_params == 0 {
        return;
    }
    debug_assert_eq!(out.len(), 1);
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Glob);
    t.add_bytes(rows.len() as u64 * 2 * F64 + 2 * F64);
    let glob = sys.values_glob();
    let mut acc = out[0];
    for row in rows {
        acc += glob[row] * y[row];
    }
    out[0] = acc;
}

// ---------------------------------------------------------------------------
// ELL layout.
//
// The scalar kernels above are the reference and the row-major layout.
// The `*_ell` kernels read the slot-major ELL mirror (`SparseSystem::ell`)
// instead: slot `k` of consecutive rows is contiguous, turning each inner
// loop into 5/12/6 parallel sequential streams. The accumulation order is
// the scalar one, so on deterministic schedules the results are
// bit-identical (asserted by the equivalence tests). A launch plan picks
// between the two by its `MatrixLayout` alone (`crate::launch`).
// ---------------------------------------------------------------------------

/// ELL-layout [`aprod1_astro`]: five slot-major streams instead of one
/// row-major gather. Same accumulation order as scalar.
pub fn aprod1_astro_ell(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Astro);
    t.add_bytes(rows.len() as u64 * (2 * ASTRO_NNZ_PER_ROW as u64 + 2) * F64);
    let ell = sys.ell();
    let (s0, s1, s2, s3, s4) = (
        ell.astro_slot(0),
        ell.astro_slot(1),
        ell.astro_slot(2),
        ell.astro_slot(3),
        ell.astro_slot(4),
    );
    let idx = ell.matrix_index_astro();
    let astro_base = sys.columns().astro as usize;
    for (i, row) in rows.enumerate() {
        let start = astro_base + idx[row] as usize;
        let mut acc = 0.0;
        acc += s0[row] * x[start];
        acc += s1[row] * x[start + 1];
        acc += s2[row] * x[start + 2];
        acc += s3[row] * x[start + 3];
        acc += s4[row] * x[start + 4];
        out[i] += acc;
    }
}

/// ELL-layout [`aprod1_att`]: twelve slot-major streams.
pub fn aprod1_att_ell(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Att);
    t.add_bytes(rows.len() as u64 * (2 * ATT_NNZ_PER_ROW as u64 + 2) * F64);
    let ell = sys.ell();
    let slots: [&[f64]; ATT_NNZ_PER_ROW] = std::array::from_fn(|k| ell.att_slot(k));
    let offs = ell.matrix_index_att();
    let dof = sys.layout().n_deg_freedom_att as usize;
    let att_base = sys.columns().att as usize;
    for (i, row) in rows.enumerate() {
        let off = offs[row] as usize;
        let mut acc = 0.0;
        for axis in 0..ATT_AXES as usize {
            let base = att_base + axis * dof + off;
            for k in 0..ATT_PARAMS_PER_AXIS as usize {
                acc += slots[axis * ATT_PARAMS_PER_AXIS as usize + k][row] * x[base + k];
            }
        }
        out[i] += acc;
    }
}

/// ELL-layout [`aprod1_instr`]: six value streams plus six column streams.
pub fn aprod1_instr_ell(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Instr);
    t.add_bytes(rows.len() as u64 * (2 * INSTR_NNZ_PER_ROW as u64 + 2) * F64);
    let ell = sys.ell();
    let vals: [&[f64]; INSTR_NNZ_PER_ROW] = std::array::from_fn(|k| ell.instr_slot(k));
    let cols: [&[u32]; INSTR_NNZ_PER_ROW] = std::array::from_fn(|k| ell.instr_col_slot(k));
    let instr_base = sys.columns().instr as usize;
    for (i, row) in rows.enumerate() {
        let mut acc = 0.0;
        for k in 0..INSTR_NNZ_PER_ROW {
            acc += vals[k][row] * x[instr_base + cols[k][row] as usize];
        }
        out[i] += acc;
    }
}

/// Full ELL-layout `aprod1` over a row range.
pub fn aprod1_range_ell(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    let obs_end = rows.end.min(sys.n_obs_rows());
    if rows.start < obs_end {
        let obs = rows.start..obs_end;
        let n = obs.len();
        aprod1_astro_ell(sys, x, obs.clone(), &mut out[..n]);
        aprod1_instr_ell(sys, x, obs.clone(), &mut out[..n]);
        aprod1_glob(sys, x, obs, &mut out[..n]);
    }
    aprod1_att_ell(sys, x, rows, out);
}

/// ELL-layout [`aprod2_astro`]: the five per-slot streams are read
/// column-major while the per-star accumulation order stays scalar.
pub fn aprod2_astro_ell(sys: &SparseSystem, y: &[f64], stars: Range<usize>, out: &mut [f64]) {
    debug_assert_eq!(out.len(), stars.len() * ASTRO_NNZ_PER_ROW);
    let layout = *sys.layout();
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Astro);
    let rows_covered = if stars.is_empty() {
        0
    } else {
        layout.rows_of_star(stars.end as u64 - 1).end
            - layout.rows_of_star(stars.start as u64).start
    };
    t.add_bytes(
        rows_covered * (ASTRO_NNZ_PER_ROW as u64 + 1) * F64
            + stars.len() as u64 * 2 * ASTRO_NNZ_PER_ROW as u64 * F64,
    );
    let ell = sys.ell();
    let slots: [&[f64]; ASTRO_NNZ_PER_ROW] = std::array::from_fn(|k| ell.astro_slot(k));
    for (si, star) in stars.enumerate() {
        let slot = &mut out[si * ASTRO_NNZ_PER_ROW..(si + 1) * ASTRO_NNZ_PER_ROW];
        for row in layout.rows_of_star(star as u64) {
            let yr = y[row as usize];
            for k in 0..ASTRO_NNZ_PER_ROW {
                slot[k] += slots[k][row as usize] * yr;
            }
        }
    }
}

/// ELL-layout [`aprod2_att`] (full section, exclusive access).
pub fn aprod2_att_ell(sys: &SparseSystem, y: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert_eq!(out.len() as u64, sys.layout().n_att_cols());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Att);
    t.add_bytes(rows.len() as u64 * (3 * ATT_NNZ_PER_ROW as u64 + 1) * F64);
    let ell = sys.ell();
    let slots: [&[f64]; ATT_NNZ_PER_ROW] = std::array::from_fn(|k| ell.att_slot(k));
    let offs = ell.matrix_index_att();
    let dof = sys.layout().n_deg_freedom_att as usize;
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        let off = offs[row] as usize;
        for axis in 0..ATT_AXES as usize {
            let base = axis * dof + off;
            for k in 0..ATT_PARAMS_PER_AXIS as usize {
                out[base + k] += slots[axis * ATT_PARAMS_PER_AXIS as usize + k][row] * yr;
            }
        }
    }
}

/// ELL-layout [`aprod2_att_owned`].
pub fn aprod2_att_owned_ell(
    sys: &SparseSystem,
    y: &[f64],
    rows: Range<usize>,
    own: Range<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), own.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Att);
    t.add_bytes(
        rows.len() as u64 * (ATT_NNZ_PER_ROW as u64 + 1) * F64 + own.len() as u64 * 2 * F64,
    );
    let ell = sys.ell();
    let slots: [&[f64]; ATT_NNZ_PER_ROW] = std::array::from_fn(|k| ell.att_slot(k));
    let offs = ell.matrix_index_att();
    let dof = sys.layout().n_deg_freedom_att as usize;
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        let off = offs[row] as usize;
        for axis in 0..ATT_AXES as usize {
            let base = axis * dof + off;
            for k in 0..ATT_PARAMS_PER_AXIS as usize {
                let col = base + k;
                if col >= own.start && col < own.end {
                    out[col - own.start] +=
                        slots[axis * ATT_PARAMS_PER_AXIS as usize + k][row] * yr;
                }
            }
        }
    }
}

/// ELL-layout [`aprod2_instr`] (full section, exclusive access).
pub fn aprod2_instr_ell(sys: &SparseSystem, y: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len() as u64, sys.layout().n_instr_params);
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Instr);
    t.add_bytes(rows.len() as u64 * (3 * INSTR_NNZ_PER_ROW as u64 + 1) * F64);
    let ell = sys.ell();
    let vals: [&[f64]; INSTR_NNZ_PER_ROW] = std::array::from_fn(|k| ell.instr_slot(k));
    let cols: [&[u32]; INSTR_NNZ_PER_ROW] = std::array::from_fn(|k| ell.instr_col_slot(k));
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        for k in 0..INSTR_NNZ_PER_ROW {
            out[cols[k][row] as usize] += vals[k][row] * yr;
        }
    }
}

/// ELL-layout [`aprod2_instr_owned`].
pub fn aprod2_instr_owned_ell(
    sys: &SparseSystem,
    y: &[f64],
    rows: Range<usize>,
    own: Range<usize>,
    out: &mut [f64],
) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), own.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Instr);
    t.add_bytes(
        rows.len() as u64 * (INSTR_NNZ_PER_ROW as u64 + 1) * F64 + own.len() as u64 * 2 * F64,
    );
    let ell = sys.ell();
    let vals: [&[f64]; INSTR_NNZ_PER_ROW] = std::array::from_fn(|k| ell.instr_slot(k));
    let cols: [&[u32]; INSTR_NNZ_PER_ROW] = std::array::from_fn(|k| ell.instr_col_slot(k));
    for row in rows {
        let yr = y[row];
        if yr == 0.0 {
            continue;
        }
        for k in 0..INSTR_NNZ_PER_ROW {
            let col = cols[k][row] as usize;
            if col >= own.start && col < own.end {
                out[col - own.start] += vals[k][row] * yr;
            }
        }
    }
}

// Block-splitting scaffolding lives in the launch layer; re-exported here
// for the kernel-level tests and any direct kernel callers.
pub use crate::launch::split_ranges;

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_sparse::dense::DenseMatrix;
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    fn sys() -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(11)).generate()
    }

    fn x_for(sys: &SparseSystem) -> Vec<f64> {
        (0..sys.n_cols()).map(|i| (i as f64 * 0.21).sin()).collect()
    }

    fn y_for(sys: &SparseSystem) -> Vec<f64> {
        (0..sys.n_rows()).map(|i| (i as f64 * 0.13).cos()).collect()
    }

    #[test]
    fn aprod1_range_matches_dense() {
        let s = sys();
        let d = DenseMatrix::from_sparse(&s);
        let x = x_for(&s);
        let mut want = vec![0.0; s.n_rows()];
        d.mat_vec_acc(&x, &mut want);
        let mut got = vec![0.0; s.n_rows()];
        aprod1_range(&s, &x, 0..s.n_rows(), &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn aprod1_split_ranges_equal_whole() {
        let s = sys();
        let x = x_for(&s);
        let mut whole = vec![0.0; s.n_rows()];
        aprod1_range(&s, &x, 0..s.n_rows(), &mut whole);
        let mut parts = vec![0.0; s.n_rows()];
        for r in split_ranges(s.n_rows(), 5) {
            let (start, end) = (r.start, r.end);
            aprod1_range(&s, &x, r, &mut parts[start..end]);
        }
        for (a, b) in whole.iter().zip(&parts) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// A range made only of constraint rows (`rows.start >= n_obs_rows()`)
    /// must skip the observation kernels entirely and still produce the
    /// attitude contributions — the case every parallel backend hits when
    /// a worker's chunk lands wholly in the constraint tail.
    #[test]
    fn aprod1_range_over_constraint_rows_only() {
        let s = sys();
        let x = x_for(&s);
        assert!(
            s.n_rows() > s.n_obs_rows(),
            "layout must have constraint rows"
        );
        let tail = s.n_obs_rows()..s.n_rows();

        let mut whole = vec![0.0; s.n_rows()];
        aprod1_range(&s, &x, 0..s.n_rows(), &mut whole);
        let mut got = vec![0.0; tail.len()];
        aprod1_range(&s, &x, tail.clone(), &mut got);
        for (g, w) in got.iter().zip(&whole[tail.start..]) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }

        // Empty and point ranges at the boundary are no-ops / single rows.
        let mut empty: Vec<f64> = vec![];
        aprod1_range(&s, &x, s.n_rows()..s.n_rows(), &mut empty);
        let mut one = vec![0.0; 1];
        aprod1_range(&s, &x, s.n_obs_rows()..s.n_obs_rows() + 1, &mut one);
        assert!((one[0] - whole[s.n_obs_rows()]).abs() < 1e-12);
    }

    /// `split_ranges(0, parts)` hands out `parts` empty ranges; every
    /// kernel must accept them without touching the output.
    #[test]
    fn empty_split_ranges_are_kernel_noops() {
        let s = sys();
        let x = x_for(&s);
        let y = y_for(&s);
        for r in split_ranges(0, 6) {
            assert!(r.is_empty());
            let mut out1: Vec<f64> = vec![];
            aprod1_range(&s, &x, r.clone(), &mut out1);
            let mut out2: Vec<f64> = vec![];
            aprod2_astro(&s, &y, r.clone(), &mut out2);
            let mut att = vec![0.0; s.layout().n_att_cols() as usize];
            aprod2_att(&s, &y, r.clone(), &mut att);
            assert!(att.iter().all(|&v| v == 0.0));
            let mut glob = vec![0.0; 1];
            aprod2_glob(&s, &y, r, &mut glob);
            assert_eq!(glob[0], 0.0);
        }
    }

    #[test]
    fn aprod2_blocks_match_dense() {
        let s = sys();
        let d = DenseMatrix::from_sparse(&s);
        let y = y_for(&s);
        let mut want = vec![0.0; s.n_cols()];
        d.mat_t_vec_acc(&y, &mut want);

        let c = s.columns();
        let mut got = vec![0.0; s.n_cols()];
        let (astro_out, rest) = got.split_at_mut(c.att as usize);
        let (att_out, rest2) = rest.split_at_mut((c.instr - c.att) as usize);
        let (instr_out, glob_out) = rest2.split_at_mut((c.glob - c.instr) as usize);
        aprod2_astro(&s, &y, 0..s.layout().n_stars as usize, astro_out);
        aprod2_att(&s, &y, 0..s.n_rows(), att_out);
        aprod2_instr(&s, &y, 0..s.n_obs_rows(), instr_out);
        aprod2_glob(&s, &y, 0..s.n_obs_rows(), glob_out);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn owner_computes_variants_cover_all_columns() {
        let s = sys();
        let y = y_for(&s);
        let natt = s.layout().n_att_cols() as usize;
        let mut whole = vec![0.0; natt];
        aprod2_att(&s, &y, 0..s.n_rows(), &mut whole);
        let mut pieces = vec![0.0; natt];
        for own in split_ranges(natt, 4) {
            let (a, b) = (own.start, own.end);
            aprod2_att_owned(&s, &y, 0..s.n_rows(), own, &mut pieces[a..b]);
        }
        for (a, b) in whole.iter().zip(&pieces) {
            assert!((a - b).abs() < 1e-12);
        }

        let ninstr = s.layout().n_instr_params as usize;
        let mut whole_i = vec![0.0; ninstr];
        aprod2_instr(&s, &y, 0..s.n_obs_rows(), &mut whole_i);
        let mut pieces_i = vec![0.0; ninstr];
        for own in split_ranges(ninstr, 3) {
            let (a, b) = (own.start, own.end);
            aprod2_instr_owned(&s, &y, 0..s.n_obs_rows(), own, &mut pieces_i[a..b]);
        }
        for (a, b) in whole_i.iter().zip(&pieces_i) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The ELL aprod1 path keeps the scalar accumulation order, so on a
    /// fixed schedule it is bit-identical to the reference kernel.
    #[test]
    fn aprod1_ell_is_bitwise_equal_to_scalar() {
        let s = sys();
        let x = x_for(&s);
        let mut want = vec![0.0; s.n_rows()];
        aprod1_range(&s, &x, 0..s.n_rows(), &mut want);
        let mut got = vec![0.0; s.n_rows()];
        aprod1_range_ell(&s, &x, 0..s.n_rows(), &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "row {i}: {g} vs {w}");
        }
    }

    /// Same bitwise guarantee for the full-section ELL aprod2 kernels.
    #[test]
    fn aprod2_ell_is_bitwise_equal_to_scalar() {
        let s = sys();
        let y = y_for(&s);
        let n_stars = s.layout().n_stars as usize;
        let natt = s.layout().n_att_cols() as usize;
        let ninstr = s.layout().n_instr_params as usize;

        let mut astro_want = vec![0.0; n_stars * ASTRO_NNZ_PER_ROW];
        aprod2_astro(&s, &y, 0..n_stars, &mut astro_want);
        let mut got = vec![0.0; astro_want.len()];
        aprod2_astro_ell(&s, &y, 0..n_stars, &mut got);
        for (g, w) in got.iter().zip(&astro_want) {
            assert_eq!(g.to_bits(), w.to_bits(), "astro");
        }

        let mut att_want = vec![0.0; natt];
        aprod2_att(&s, &y, 0..s.n_rows(), &mut att_want);
        let mut got = vec![0.0; natt];
        aprod2_att_ell(&s, &y, 0..s.n_rows(), &mut got);
        for (g, w) in got.iter().zip(&att_want) {
            assert_eq!(g.to_bits(), w.to_bits(), "att");
        }

        let mut instr_want = vec![0.0; ninstr];
        aprod2_instr(&s, &y, 0..s.n_obs_rows(), &mut instr_want);
        let mut got = vec![0.0; ninstr];
        aprod2_instr_ell(&s, &y, 0..s.n_obs_rows(), &mut got);
        for (g, w) in got.iter().zip(&instr_want) {
            assert_eq!(g.to_bits(), w.to_bits(), "instr");
        }
    }

    /// The owned ELL kernels, split across disjoint owned ranges, cover the
    /// full section exactly once — the owner-computes soundness property —
    /// in the scalar order, so bitwise.
    #[test]
    fn owned_ell_kernels_cover_all_columns() {
        let s = sys();
        let y = y_for(&s);
        let natt = s.layout().n_att_cols() as usize;
        let mut att_want = vec![0.0; natt];
        aprod2_att(&s, &y, 0..s.n_rows(), &mut att_want);
        let mut pieces = vec![0.0; natt];
        for own in split_ranges(natt, 5) {
            let (a, b) = (own.start, own.end);
            aprod2_att_owned_ell(&s, &y, 0..s.n_rows(), own, &mut pieces[a..b]);
        }
        for (g, w) in pieces.iter().zip(&att_want) {
            assert_eq!(g.to_bits(), w.to_bits(), "att owned: {g} vs {w}");
        }
        let ninstr = s.layout().n_instr_params as usize;
        let mut instr_want = vec![0.0; ninstr];
        aprod2_instr(&s, &y, 0..s.n_obs_rows(), &mut instr_want);
        let mut pieces = vec![0.0; ninstr];
        for own in split_ranges(ninstr, 4) {
            let (a, b) = (own.start, own.end);
            aprod2_instr_owned_ell(&s, &y, 0..s.n_obs_rows(), own, &mut pieces[a..b]);
        }
        for (g, w) in pieces.iter().zip(&instr_want) {
            assert_eq!(g.to_bits(), w.to_bits(), "instr owned");
        }
    }

    #[test]
    fn glob_kernels_are_noops_without_global_parameter() {
        let mut layout = SystemLayout::tiny();
        layout.n_glob_params = 0;
        let s = Generator::new(GeneratorConfig::new(layout).seed(3)).generate();
        let x = x_for(&s);
        let y = y_for(&s);
        let mut out1 = vec![0.0; s.n_obs_rows()];
        aprod1_glob(&s, &x, 0..s.n_obs_rows(), &mut out1);
        assert!(out1.iter().all(|&v| v == 0.0));
        let mut out2: Vec<f64> = vec![];
        aprod2_glob(&s, &y, 0..s.n_obs_rows(), &mut out2);
    }
}
