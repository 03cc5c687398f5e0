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
//!
//! [`gk_pass`] is a Golub–Kahan pass in one row loop: it forms each
//! row's `û_r` and scatters it at once, so the pass visits each matrix row
//! once for both products. `seq` runs it on the whole system, and each job
//! of a one-launch plan pass ([`crate::launch`]) on the row block of its
//! stars. Each section's per-row dot and scatter is one `#[inline(always)]`
//! helper that the pass and the scalar kernels share, so the two orders of
//! work add the same terms in the same order. Kernel telemetry counts one
//! call per kernel invocation; the pass is one `gk/*` call.

use std::ops::Range;

use gaia_sparse::system::{ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW};
use gaia_sparse::{SparseSystem, ATT_AXES, ATT_PARAMS_PER_AXIS};
use gaia_telemetry::{Block, Phase};

const F64: u64 = std::mem::size_of::<f64>() as u64;
const ATT_K: usize = ATT_PARAMS_PER_AXIS as usize;

// The per-row dot and scatter of each section, shared by the scalar
// kernels and the pass. Each cuts its row's slices to their fixed lengths
// first, so the unrolled loops carry no bounds checks. A dot sums from
// `0.0` in entry order.

/// One astrometric row against its star's 5-wide slice of `x`.
#[inline(always)]
fn astro_dot(vals: &[f64], xs: &[f64]) -> f64 {
    let (vals, xs) = (&vals[..ASTRO_NNZ_PER_ROW], &xs[..ASTRO_NNZ_PER_ROW]);
    vals.iter().zip(xs).fold(0.0, |acc, (v, x)| acc + v * x)
}

/// `slot += vals · yr`, entry by entry.
#[inline(always)]
fn astro_scatter(vals: &[f64], yr: f64, slot: &mut [f64]) {
    let (vals, slot) = (&vals[..ASTRO_NNZ_PER_ROW], &mut slot[..ASTRO_NNZ_PER_ROW]);
    for (s, v) in slot.iter_mut().zip(vals) {
        *s += v * yr;
    }
}

/// One attitude row against the attitude section `x_att` of `x`: axis by
/// axis, the four entries from `axis·dof + off`.
#[inline(always)]
fn att_dot(vals: &[f64], off: u64, dof: usize, x_att: &[f64]) -> f64 {
    let vals = &vals[..ATT_NNZ_PER_ROW];
    let mut acc = 0.0;
    for axis in 0..ATT_AXES as usize {
        let xs = &x_att[axis * dof + off as usize..][..ATT_K];
        for k in 0..ATT_K {
            acc += vals[axis * ATT_K + k] * xs[k];
        }
    }
    acc
}

/// Scatter `vals · yr` into the attitude section `out`, in [`att_dot`]'s
/// entry order.
#[inline(always)]
fn att_scatter(vals: &[f64], off: u64, dof: usize, yr: f64, out: &mut [f64]) {
    for (axis, vals) in vals[..ATT_NNZ_PER_ROW].chunks_exact(ATT_K).enumerate() {
        let os = &mut out[axis * dof + off as usize..][..ATT_K];
        for (o, v) in os.iter_mut().zip(vals) {
            *o += v * yr;
        }
    }
}

/// One instrumental row against the instrumental section `x_instr` of `x`.
#[inline(always)]
fn instr_dot(vals: &[f64], cols: &[u32], x_instr: &[f64]) -> f64 {
    let (vals, cols) = (&vals[..INSTR_NNZ_PER_ROW], &cols[..INSTR_NNZ_PER_ROW]);
    vals.iter()
        .zip(cols)
        .fold(0.0, |acc, (v, &c)| acc + v * x_instr[c as usize])
}

/// Scatter `vals · yr` into the instrumental section `out`.
#[inline(always)]
fn instr_scatter(vals: &[f64], cols: &[u32], yr: f64, out: &mut [f64]) {
    let (vals, cols) = (&vals[..INSTR_NNZ_PER_ROW], &cols[..INSTR_NNZ_PER_ROW]);
    for (v, &c) in vals.iter().zip(cols) {
        out[c as usize] += v * yr;
    }
}

/// Bytes an astrometric `aprod1` over `rows` reads and writes: per row its
/// 5 values and a read-modify-write of its output, per star one 5-wide
/// slice of `x` (the columns are derived, no index is read).
fn aprod1_astro_bytes(sys: &SparseSystem, rows: &Range<usize>) -> u64 {
    let obs = sys.layout().obs_per_star as usize;
    let stars = match rows.len() {
        0 => 0,
        _ => rows.end.div_ceil(obs) - rows.start / obs,
    };
    ((rows.len() * (ASTRO_NNZ_PER_ROW + 2) + stars * ASTRO_NNZ_PER_ROW) as u64) * F64
}

/// `out[i] += astro_row(rows.start+i) · x_astro_slice` for observation rows,
/// star by star: each star's rows (a range may start or end inside a star)
/// against one 5-wide slice of `x`.
pub fn aprod1_astro(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Astro);
    t.add_bytes(aprod1_astro_bytes(sys, &rows));
    let values = sys.values_astro();
    for (run, start) in sys.astro_runs(rows.clone()) {
        let xs = &x[start..start + ASTRO_NNZ_PER_ROW];
        let vals = &values[run.start * ASTRO_NNZ_PER_ROW..run.end * ASTRO_NNZ_PER_ROW];
        let outs = &mut out[run.start - rows.start..run.end - rows.start];
        for (vals, o) in vals.chunks_exact(ASTRO_NNZ_PER_ROW).zip(outs) {
            *o += astro_dot(vals, xs);
        }
    }
}

/// Attitude part of `aprod1` for any row range (observations + constraints).
pub fn aprod1_att(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Att);
    t.add_bytes(rows.len() as u64 * (2 * ATT_NNZ_PER_ROW as u64 + 2) * F64);
    let dof = sys.layout().n_deg_freedom_att as usize;
    let x_att = &x[sys.columns().att as usize..];
    let att_row = sys.att_rows();
    for (i, row) in rows.enumerate() {
        let (vals, off) = att_row(row);
        out[i] += att_dot(vals, off, dof, x_att);
    }
}

/// Instrumental part of `aprod1` for observation rows.
pub fn aprod1_instr(sys: &SparseSystem, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    debug_assert!(rows.end <= sys.n_obs_rows());
    debug_assert_eq!(out.len(), rows.len());
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod1, Block::Instr);
    t.add_bytes(rows.len() as u64 * (2 * INSTR_NNZ_PER_ROW as u64 + 2) * F64);
    let x_instr = &x[sys.columns().instr as usize..];
    let instr_row = sys.instr_rows();
    for (i, row) in rows.enumerate() {
        let (vals, cols) = instr_row(row);
        out[i] += instr_dot(vals, cols, x_instr);
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

/// Stored coefficients of `sys`.
pub(crate) fn coefficient_count(sys: &SparseSystem) -> u64 {
    let obs = sys.n_obs_rows() as u64;
    let glob = obs * u64::from(sys.layout().n_glob_params > 0);
    obs * (ASTRO_NNZ_PER_ROW + INSTR_NNZ_PER_ROW) as u64
        + sys.n_rows() as u64 * ATT_NNZ_PER_ROW as u64
        + glob
}

/// Analytic bytes one [`gk_pass`] over `sys` moves: every stored
/// coefficient read once with its `x` operand and a read-modify-write of
/// its output column, every row of `u` read and written once.
pub fn gk_bytes(sys: &SparseSystem) -> u64 {
    (4 * coefficient_count(sys) + 2 * sys.n_rows() as u64) * F64
}

/// The Golub–Kahan pass over `sys`: `u ← A x − α u`, then `out += Aᵀu`
/// with the new `u`, in one ascending row loop. Per row it forms
/// `û_r = (((−α·u_r + astro·x) + instr·x) + glob·x) + att·x` in
/// [`aprod1_range`]'s order, writes it once, and scatters it from the same
/// registers: the astrometric terms into its star's 5-wide slot, held
/// until the star ends; the attitude and instrumental terms unless `û_r`
/// is zero, as [`aprod2_att`] and [`aprod2_instr`] skip it; the global one
/// into a single running sum. Constraint rows carry attitude terms only.
/// `u` covers `sys`'s rows; `out` holds the four sections of
/// [`SparseSystem::sections_mut`], or a caller's private copies of the
/// shared three. Every output column gets its terms in ascending row
/// order, as the whole-system products give them, so on a whole system
/// this is bitwise the two products.
pub fn gk_pass(sys: &SparseSystem, x: &[f64], alfa: f64, u: &mut [f64], out: [&mut [f64]; 4]) {
    let [astro, att, instr, glob] = out;
    debug_assert_eq!(u.len(), sys.n_rows());
    debug_assert_eq!(astro.len() as u64, sys.layout().n_astro_cols());
    let mut t = gaia_telemetry::pass_scope();
    t.add_bytes(gk_bytes(sys));
    let c = sys.columns();
    let (x_att, x_instr) = (&x[c.att as usize..], &x[c.instr as usize..]);
    let dof = sys.layout().n_deg_freedom_att as usize;
    let (att_row, instr_row) = (sys.att_rows(), sys.instr_rows());
    let (astro_values, glob_values) = (sys.values_astro(), sys.values_glob());
    let x_glob = (sys.layout().n_glob_params > 0).then(|| x[c.glob as usize]);
    let mut glob_sum = glob.first().copied().unwrap_or(0.0);
    let n_obs = sys.n_obs_rows();
    for ((run, start), slot) in sys
        .astro_runs(0..n_obs)
        .zip(astro.chunks_exact_mut(ASTRO_NNZ_PER_ROW))
    {
        let xs = &x[start..][..ASTRO_NNZ_PER_ROW];
        let mut acc = [0.0; ASTRO_NNZ_PER_ROW];
        acc.copy_from_slice(slot);
        for row in run {
            let av = &astro_values[row * ASTRO_NNZ_PER_ROW..][..ASTRO_NNZ_PER_ROW];
            let (iv, ic) = instr_row(row);
            let (tv, off) = att_row(row);
            let mut ur = u[row] * -alfa + astro_dot(av, xs);
            ur += instr_dot(iv, ic, x_instr);
            if let Some(xg) = x_glob {
                ur += glob_values[row] * xg;
            }
            ur += att_dot(tv, off, dof, x_att);
            u[row] = ur;
            astro_scatter(av, ur, &mut acc);
            if ur != 0.0 {
                att_scatter(tv, off, dof, ur, att);
                instr_scatter(iv, ic, ur, instr);
            }
            if x_glob.is_some() {
                glob_sum += glob_values[row] * ur;
            }
        }
        slot.copy_from_slice(&acc);
    }
    if let Some(g) = glob.first_mut() {
        *g = glob_sum;
    }
    for (row, u_r) in u.iter_mut().enumerate().skip(n_obs) {
        let (tv, off) = att_row(row);
        *u_r = *u_r * -alfa + att_dot(tv, off, dof, x_att);
        if *u_r != 0.0 {
            att_scatter(tv, off, dof, *u_r, att);
        }
    }
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
    let values = sys.values_astro();
    for (star, slot) in stars.zip(out.chunks_exact_mut(ASTRO_NNZ_PER_ROW)) {
        let rows = layout.rows_of_star(star as u64);
        let rows = rows.start as usize..rows.end as usize;
        let vals = &values[rows.start * ASTRO_NNZ_PER_ROW..rows.end * ASTRO_NNZ_PER_ROW];
        for (vals, &yr) in vals.chunks_exact(ASTRO_NNZ_PER_ROW).zip(&y[rows]) {
            astro_scatter(vals, yr, slot);
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
        att_scatter(vals, off, dof, yr, out);
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
        instr_scatter(vals, cols, yr, out);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::split_ranges;
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

    /// A row chunk of a parallel `aprod1` may start or end inside a star
    /// (16 rows a star here): any split gives the bits of a whole-system
    /// call.
    #[test]
    fn aprod1_split_ranges_equal_whole() {
        let s = sys();
        let x = x_for(&s);
        let mut whole = vec![0.0; s.n_rows()];
        aprod1_range(&s, &x, 0..s.n_rows(), &mut whole);
        for parts in [5, 7, s.n_rows()] {
            let mut got = vec![0.0; s.n_rows()];
            for r in split_ranges(s.n_rows(), parts) {
                let (start, end) = (r.start, r.end);
                aprod1_range(&s, &x, r, &mut got[start..end]);
            }
            for (i, (a, b)) in whole.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{parts} parts, row {i}");
            }
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

        let mut got = vec![0.0; s.n_cols()];
        let [astro_out, att_out, instr_out, glob_out] = s.sections_mut(&mut got);
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
