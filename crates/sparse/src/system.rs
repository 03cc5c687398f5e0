//! In-memory representation of the reduced AVU-GSR matrix and known terms.
//!
//! The storage mirrors the production arrays described in §III-B of the
//! paper: coefficient values are stored per block
//! (`systemMatrixAstro/Att/Instr/Glob`), and the sparsity is encoded by
//! `matrixIndexAstro` (start column of the 5 contiguous astrometric
//! non-zeros), `matrixIndexAtt` (offset of the first attitude non-zero
//! inside an axis segment; the 3 per-axis blocks repeat with a stride equal
//! to the attitude degrees of freedom), and `instrCol` (explicit columns of
//! the 6 irregular instrumental non-zeros). The global block has at most a
//! single non-zero per row in the one global column.
//!
//! Constraint rows (appended after the `n_stars × obs_per_star` observation
//! rows) carry only attitude coefficients; see [`crate::constraints`].

use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use crate::ell::EllSystem;
#[cfg(test)]
use crate::layout::BlockKind;
use crate::layout::{ColumnBlocks, SystemLayout};
use crate::{ASTRO_PARAMS_PER_STAR, ATT_AXES, ATT_PARAMS_PER_AXIS, INSTR_PARAMS_PER_ROW};

/// Number of attitude coefficients stored per row (3 axes × 4).
pub const ATT_NNZ_PER_ROW: usize = (ATT_AXES * ATT_PARAMS_PER_AXIS) as usize;
/// Number of astrometric coefficients stored per observation row.
pub const ASTRO_NNZ_PER_ROW: usize = ASTRO_PARAMS_PER_STAR as usize;
/// Number of instrumental coefficients stored per observation row.
pub const INSTR_NNZ_PER_ROW: usize = INSTR_PARAMS_PER_ROW as usize;

/// A range of a reference-counted array. Cloning and slicing copy nothing,
/// so a cloned system shares its original's storage and a
/// [`SparseSystem::row_block`] its parent's; [`Shared::make_mut`] is where a
/// mutator stops sharing.
#[derive(Debug, Clone)]
struct Shared<T> {
    buf: Arc<Vec<T>>,
    range: Range<usize>,
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(vec: Vec<T>) -> Self {
        Shared {
            range: 0..vec.len(),
            buf: Arc::new(vec),
        }
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];

    /// Never panics (a range outside its buffer, which no constructor
    /// makes, would read as empty): the per-row accessors deref two arrays
    /// each, and only loads that no possible panic precedes are hoisted
    /// out of a kernel's row loop.
    #[inline]
    fn deref(&self) -> &[T] {
        self.buf.get(self.range.clone()).unwrap_or_default()
    }
}

impl<T: Clone> Shared<T> {
    /// The sub-range `range` of this one, over the same buffer.
    fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        Shared {
            buf: Arc::clone(&self.buf),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// Exclusive access to the elements: a partial range is copied out of
    /// its buffer first, and so is a whole one somebody else still holds.
    fn make_mut(&mut self) -> &mut [T] {
        if self.range.len() != self.buf.len() {
            *self = self.to_vec().into();
        }
        Arc::make_mut(&mut self.buf).as_mut_slice()
    }
}

/// The reduced sparse system `A x = b`.
///
/// All index arrays use *block-local* offsets; absolute columns are obtained
/// through [`ColumnBlocks`]. Invariants are enforced by
/// [`SparseSystem::from_parts`] and preserved by the read-only API.
///
/// The eight arrays are reference-counted: `clone()` and
/// [`SparseSystem::row_block`] share them, and the three mutators copy what
/// they change before they change it, so no system ever sees another's
/// mutation.
#[derive(Debug, Clone)]
pub struct SparseSystem {
    layout: SystemLayout,
    cols: ColumnBlocks,
    /// Astrometric coefficients, `n_obs_rows × 5`, row-major.
    values_astro: Shared<f64>,
    /// Attitude coefficients, `n_rows × 12`, row-major
    /// (axis-major within a row: `[axis0 k0..k3, axis1 k0..k3, axis2 ...]`).
    values_att: Shared<f64>,
    /// Instrumental coefficients, `n_obs_rows × 6`, row-major.
    values_instr: Shared<f64>,
    /// Global coefficients, `n_obs_rows × n_glob_params`.
    values_glob: Shared<f64>,
    /// Start column of the astrometric block of each observation row
    /// (always `5 × star`, stored explicitly as in production).
    matrix_index_astro: Shared<u64>,
    /// Offset of the first attitude non-zero inside each axis segment,
    /// per row (observations and constraints), in `0..=dof-4`.
    matrix_index_att: Shared<u64>,
    /// Instrument-block-local columns of the 6 instrumental non-zeros,
    /// `n_obs_rows × 6`, strictly increasing within a row.
    instr_col: Shared<u32>,
    /// Known terms `b`, `n_rows`.
    known_terms: Shared<f64>,
    /// Lazily built ELL (slot-major) mirror, shared by layout-aware
    /// kernels and by clones. Reset by every mutating method so it can
    /// never go stale.
    ell: OnceLock<Arc<EllSystem>>,
}

impl SparseSystem {
    /// Assemble a system from raw arrays, validating every structural
    /// invariant (lengths, index bounds, instrument column ordering).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        layout: SystemLayout,
        values_astro: Vec<f64>,
        values_att: Vec<f64>,
        values_instr: Vec<f64>,
        values_glob: Vec<f64>,
        matrix_index_astro: Vec<u64>,
        matrix_index_att: Vec<u64>,
        instr_col: Vec<u32>,
        known_terms: Vec<f64>,
    ) -> Result<Self, SystemError> {
        layout.validate().map_err(SystemError::Layout)?;
        Self::from_parts_shard(
            layout,
            values_astro,
            values_att,
            values_instr,
            values_glob,
            matrix_index_astro,
            matrix_index_att,
            instr_col,
            known_terms,
        )
    }

    /// Assemble a row block of a larger system from arrays of its own (a
    /// tile read back from disk; a block of a resident system is
    /// [`SparseSystem::row_block`], which copies nothing). Identical
    /// validation to [`SparseSystem::from_parts`] except the overdetermined
    /// check: a block shares the attitude / instrumental / global columns
    /// with the other blocks, so locally it may have fewer rows than
    /// columns — the whole system remains overdetermined.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_shard(
        layout: SystemLayout,
        values_astro: Vec<f64>,
        values_att: Vec<f64>,
        values_instr: Vec<f64>,
        values_glob: Vec<f64>,
        matrix_index_astro: Vec<u64>,
        matrix_index_att: Vec<u64>,
        instr_col: Vec<u32>,
        known_terms: Vec<f64>,
    ) -> Result<Self, SystemError> {
        match layout.validate() {
            Ok(()) | Err(crate::layout::LayoutError::Underdetermined { .. }) => {}
            Err(e) => return Err(SystemError::Layout(e)),
        }
        let sys = SparseSystem {
            cols: layout.columns(),
            layout,
            values_astro: values_astro.into(),
            values_att: values_att.into(),
            values_instr: values_instr.into(),
            values_glob: values_glob.into(),
            matrix_index_astro: matrix_index_astro.into(),
            matrix_index_att: matrix_index_att.into(),
            instr_col: instr_col.into(),
            known_terms: known_terms.into(),
            ell: OnceLock::new(),
        };
        sys.validate()?;
        Ok(sys)
    }

    /// Every structural invariant of the arrays against the layout:
    /// lengths, index bounds, instrument column ordering.
    fn validate(&self) -> Result<(), SystemError> {
        let layout = &self.layout;
        let n_obs = layout.n_obs_rows() as usize;
        let n_rows = layout.n_rows() as usize;
        let (astro, att) = (n_obs * ASTRO_NNZ_PER_ROW, n_rows * ATT_NNZ_PER_ROW);
        let instr = n_obs * INSTR_NNZ_PER_ROW;
        let glob = n_obs * layout.n_glob_params as usize;
        for (name, got, want) in [
            ("values_astro", self.values_astro.len(), astro),
            ("values_att", self.values_att.len(), att),
            ("values_instr", self.values_instr.len(), instr),
            ("values_glob", self.values_glob.len(), glob),
            ("matrix_index_astro", self.matrix_index_astro.len(), n_obs),
            ("matrix_index_att", self.matrix_index_att.len(), n_rows),
            ("instr_col", self.instr_col.len(), instr),
            ("known_terms", self.known_terms.len(), n_rows),
        ] {
            if got != want {
                return Err(SystemError::ArrayLength { name, got, want });
            }
        }

        for (row, &start) in self.matrix_index_astro.iter().enumerate() {
            let star = layout.star_of_row(row as u64);
            if start != star * ASTRO_PARAMS_PER_STAR as u64 {
                return Err(SystemError::AstroIndex { row, start, star });
            }
        }
        let max_att_off = layout.n_deg_freedom_att - ATT_PARAMS_PER_AXIS as u64;
        for (row, &off) in self.matrix_index_att.iter().enumerate() {
            if off > max_att_off {
                return Err(SystemError::AttIndex {
                    row,
                    off,
                    max: max_att_off,
                });
            }
        }
        for (row, cols) in self.instr_col.chunks_exact(INSTR_NNZ_PER_ROW).enumerate() {
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(SystemError::InstrColumnOrder { row });
                }
            }
            if u64::from(cols[INSTR_NNZ_PER_ROW - 1]) >= layout.n_instr_params {
                return Err(SystemError::InstrColumnRange { row });
            }
        }
        Ok(())
    }

    /// The rows of the stars `stars` — and, `with_constraints`, the
    /// constraint rows, which follow the last star's — as a system of its
    /// own that *shares* this one's coefficient, attitude-index,
    /// instrument-column and known-term storage. Only the astrometric
    /// index is new: 8 B a row, renumbered to the block's own stars so any
    /// backend can run the block as it runs a whole system. The rows were
    /// validated with their parent and are not scanned again.
    ///
    /// # Panics
    /// If `stars` is empty or reaches past the last star, or if
    /// `with_constraints` is asked of a range that does not end there.
    pub fn row_block(&self, stars: Range<u64>, with_constraints: bool) -> RowBlock {
        let parent = &self.layout;
        assert!(
            stars.start < stars.end && stars.end <= parent.n_stars,
            "stars {stars:?} are not a non-empty range of {} stars",
            parent.n_stars
        );
        assert!(
            !with_constraints || stars.end == parent.n_stars,
            "constraint rows follow the last star's rows only"
        );
        let layout = SystemLayout {
            n_stars: stars.end - stars.start,
            n_constraint_rows: if with_constraints {
                parent.n_constraint_rows
            } else {
                0
            },
            ..*parent
        };
        let obs_per_star = parent.obs_per_star as usize;
        let obs = stars.start as usize * obs_per_star..stars.end as usize * obs_per_star;
        let rows = obs.start..obs.end + layout.n_constraint_rows as usize;
        let per_obs = |width: usize| obs.start * width..obs.end * width;
        let astro0 = stars.start * ASTRO_PARAMS_PER_STAR as u64;
        let local_index_astro: Vec<u64> = self.matrix_index_astro[obs.clone()]
            .iter()
            .map(|&start| start - astro0)
            .collect();
        let system = SparseSystem {
            cols: layout.columns(),
            layout,
            values_astro: self.values_astro.slice(per_obs(ASTRO_NNZ_PER_ROW)),
            values_att: self
                .values_att
                .slice(rows.start * ATT_NNZ_PER_ROW..rows.end * ATT_NNZ_PER_ROW),
            values_instr: self.values_instr.slice(per_obs(INSTR_NNZ_PER_ROW)),
            values_glob: self
                .values_glob
                .slice(per_obs(layout.n_glob_params as usize)),
            matrix_index_astro: local_index_astro.into(),
            matrix_index_att: self.matrix_index_att.slice(rows.clone()),
            instr_col: self.instr_col.slice(per_obs(INSTR_NNZ_PER_ROW)),
            known_terms: self.known_terms.slice(rows.clone()),
            ell: OnceLock::new(),
        };
        debug_assert_eq!(system.validate(), Ok(()));
        RowBlock {
            star0: stars.start,
            rows,
            parent_astro_cols: parent.n_astro_cols(),
            system,
        }
    }

    /// True when `self` reads its coefficients, attitude indices,
    /// instrument columns and known terms out of `other`'s buffers — it is
    /// a clone or a [`SparseSystem::row_block`] of it that no mutator has
    /// touched since.
    pub fn shares_storage_with(&self, other: &SparseSystem) -> bool {
        Arc::ptr_eq(&self.values_astro.buf, &other.values_astro.buf)
            && Arc::ptr_eq(&self.values_att.buf, &other.values_att.buf)
            && Arc::ptr_eq(&self.values_instr.buf, &other.values_instr.buf)
            && Arc::ptr_eq(&self.values_glob.buf, &other.values_glob.buf)
            && Arc::ptr_eq(&self.matrix_index_att.buf, &other.matrix_index_att.buf)
            && Arc::ptr_eq(&self.instr_col.buf, &other.instr_col.buf)
            && Arc::ptr_eq(&self.known_terms.buf, &other.known_terms.buf)
    }

    /// The ELL (slot-major) mirror, built on first use and cached.
    ///
    /// Layout-aware kernels call this per section; the transpose cost is
    /// paid once per system (and re-paid only after a mutation, which
    /// resets the cache).
    pub fn ell(&self) -> &EllSystem {
        self.ell
            .get_or_init(|| Arc::new(EllSystem::from_system(self)))
    }

    /// The layout this system was built from.
    pub fn layout(&self) -> &SystemLayout {
        &self.layout
    }

    /// Column block offsets.
    pub fn columns(&self) -> ColumnBlocks {
        self.cols
    }

    /// Total rows (observations + constraints).
    pub fn n_rows(&self) -> usize {
        self.layout.n_rows() as usize
    }

    /// Observation rows only.
    pub fn n_obs_rows(&self) -> usize {
        self.layout.n_obs_rows() as usize
    }

    /// Total unknowns.
    pub fn n_cols(&self) -> usize {
        self.layout.n_cols() as usize
    }

    /// Known terms `b` (length [`SparseSystem::n_rows`]).
    pub fn known_terms(&self) -> &[f64] {
        &self.known_terms
    }

    /// Replace the known terms (used by the generator to install
    /// `b = A x_true + noise`). Length must match.
    pub fn set_known_terms(&mut self, b: Vec<f64>) {
        assert_eq!(b.len(), self.n_rows(), "known terms length mismatch");
        self.known_terms = b.into();
        self.ell = OnceLock::new();
    }

    /// Astrometric coefficients of an observation row and the absolute
    /// column of the first of the 5 contiguous entries.
    #[inline]
    pub fn astro_row(&self, row: usize) -> (&[f64], u64) {
        debug_assert!(row < self.n_obs_rows());
        let (values, index): (&[f64], &[u64]) = (&self.values_astro, &self.matrix_index_astro);
        let vals = &values[row * ASTRO_NNZ_PER_ROW..(row + 1) * ASTRO_NNZ_PER_ROW];
        (vals, self.cols.astro + index[row])
    }

    /// Attitude coefficients of any row (observation or constraint), and the
    /// block-local offset of the first non-zero within each axis segment.
    #[inline]
    pub fn att_row(&self, row: usize) -> (&[f64], u64) {
        debug_assert!(row < self.n_rows());
        self.att_rows()(row)
    }

    /// [`SparseSystem::att_row`] with the two arrays taken once: the
    /// arrays sit behind a shared pointer, and a row loop that reaches its
    /// row only after a test (`aprod2` skips zero `y`) cannot hoist their
    /// loads out by itself, so it takes this before it starts.
    #[inline]
    pub fn att_rows<'a>(&'a self) -> impl Fn(usize) -> (&'a [f64], u64) + Copy + 'a {
        let (values, index): (&[f64], &[u64]) = (&self.values_att, &self.matrix_index_att);
        const N: usize = ATT_NNZ_PER_ROW;
        move |row| (&values[row * N..(row + 1) * N], index[row])
    }

    /// Absolute column of attitude entry (`axis`, `k`) for a row whose
    /// axis-segment offset is `off`.
    #[inline]
    pub fn att_col(&self, off: u64, axis: usize, k: usize) -> u64 {
        self.cols.att + axis as u64 * self.layout.n_deg_freedom_att + off + k as u64
    }

    /// Instrumental coefficients and their block-local columns for an
    /// observation row.
    #[inline]
    pub fn instr_row(&self, row: usize) -> (&[f64], &[u32]) {
        debug_assert!(row < self.n_obs_rows());
        self.instr_rows()(row)
    }

    /// [`SparseSystem::instr_row`] with the two arrays taken once (see
    /// [`SparseSystem::att_rows`]).
    #[inline]
    pub fn instr_rows<'a>(&'a self) -> impl Fn(usize) -> (&'a [f64], &'a [u32]) + Copy + 'a {
        let (values, cols): (&[f64], &[u32]) = (&self.values_instr, &self.instr_col);
        move |row| {
            let r = row * INSTR_NNZ_PER_ROW..(row + 1) * INSTR_NNZ_PER_ROW;
            (&values[r.clone()], &cols[r])
        }
    }

    /// Global coefficient of an observation row, if the layout solves the
    /// global parameter, together with its absolute column.
    #[inline]
    pub fn glob_row(&self, row: usize) -> Option<(f64, u64)> {
        debug_assert!(row < self.n_obs_rows());
        if self.layout.n_glob_params == 0 {
            None
        } else {
            Some((self.values_glob[row], self.cols.glob))
        }
    }

    /// Iterate over every stored `(absolute column, value)` pair of a row.
    /// Constraint rows yield attitude entries only.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let obs = row < self.n_obs_rows();
        let astro = obs.then(|| {
            let (vals, start) = self.astro_row(row);
            vals.iter()
                .enumerate()
                .map(move |(k, &v)| (start + k as u64, v))
        });
        let (att_vals, att_off) = self.att_row(row);
        let att = att_vals.iter().enumerate().map(move |(i, &v)| {
            let axis = i / ATT_PARAMS_PER_AXIS as usize;
            let k = i % ATT_PARAMS_PER_AXIS as usize;
            (self.att_col(att_off, axis, k), v)
        });
        let instr = obs.then(|| {
            let (vals, cols) = self.instr_row(row);
            vals.iter()
                .zip(cols.iter())
                .map(move |(&v, &c)| (self.cols.instr + u64::from(c), v))
        });
        let glob = obs.then(|| self.glob_row(row)).flatten();
        astro
            .into_iter()
            .flatten()
            .chain(att)
            .chain(instr.into_iter().flatten())
            .chain(glob.map(|(v, c)| (c, v)))
    }

    /// Reference (sequential, obviously-correct) dot product of one row with
    /// a full-length vector `x`. Used as the oracle by every backend test.
    pub fn row_dot(&self, row: usize, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_cols());
        self.row_entries(row)
            .map(|(col, val)| val * x[col as usize])
            .sum()
    }

    /// Reference scatter of `scale ×` one row into a full-length vector
    /// (the transpose-product building block).
    pub fn row_scatter(&self, row: usize, scale: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_cols());
        for (col, val) in self.row_entries(row) {
            out[col as usize] += val * scale;
        }
    }

    /// Column 2-norms of `A`, used to build the Jacobi (column-scaling)
    /// preconditioner of the customized LSQR.
    pub fn column_norms(&self) -> Vec<f64> {
        let mut sq = vec![0.0f64; self.n_cols()];
        self.add_column_squares(&mut sq, 0, self.cols.att as usize);
        sq.iter().map(|&s| s.sqrt()).collect()
    }

    /// Add the square of every stored coefficient to its column's slot of
    /// `sq`, where this system's astrometric columns start at `astro0` and
    /// its attitude, instrumental and global columns at `shared0` (a
    /// [`RowBlock`] accumulating into a parent-length buffer passes its
    /// parent's offsets). One pass per block, each in ascending row order —
    /// the order a row-by-row walk adds a column's entries in, so the sums
    /// carry the same bits, over one system or a sequence of row blocks.
    pub(crate) fn add_column_squares(&self, sq: &mut [f64], astro0: usize, shared0: usize) {
        fn add_squares(slots: &mut [f64], vals: &[f64]) {
            for (slot, v) in slots.iter_mut().zip(vals) {
                *slot += v * v;
            }
        }
        let astro_rows = self.values_astro.chunks_exact(ASTRO_NNZ_PER_ROW);
        for (vals, &start) in astro_rows.zip(self.matrix_index_astro.iter()) {
            add_squares(
                &mut sq[astro0 + start as usize..][..ASTRO_NNZ_PER_ROW],
                vals,
            );
        }
        let dof = self.layout.n_deg_freedom_att as usize;
        let per_axis = ATT_PARAMS_PER_AXIS as usize;
        let att_rows = self.values_att.chunks_exact(ATT_NNZ_PER_ROW);
        for (vals, &off) in att_rows.zip(self.matrix_index_att.iter()) {
            for (axis, axis_vals) in vals.chunks_exact(per_axis).enumerate() {
                let seg = shared0 + axis * dof + off as usize;
                add_squares(&mut sq[seg..seg + per_axis], axis_vals);
            }
        }
        let instr0 = shared0 + (self.cols.instr - self.cols.att) as usize;
        for (v, &col) in self.values_instr.iter().zip(self.instr_col.iter()) {
            sq[instr0 + col as usize] += v * v;
        }
        // At most one global column (`GLOBAL_PARAMS_PER_ROW`).
        let glob = shared0 + (self.cols.glob - self.cols.att) as usize;
        for v in self.values_glob.iter() {
            sq[glob] += v * v;
        }
    }

    /// Raw astrometric value array (row-major, 5 per observation row).
    pub fn values_astro(&self) -> &[f64] {
        &self.values_astro
    }

    /// Raw attitude value array (row-major, 12 per row).
    pub fn values_att(&self) -> &[f64] {
        &self.values_att
    }

    /// Raw instrumental value array (row-major, 6 per observation row).
    pub fn values_instr(&self) -> &[f64] {
        &self.values_instr
    }

    /// Raw global value array (one per observation row, empty if the global
    /// parameter is not solved).
    pub fn values_glob(&self) -> &[f64] {
        &self.values_glob
    }

    /// Raw `matrixIndexAstro` array.
    pub fn matrix_index_astro(&self) -> &[u64] {
        &self.matrix_index_astro
    }

    /// Raw `matrixIndexAtt` array.
    pub fn matrix_index_att(&self) -> &[u64] {
        &self.matrix_index_att
    }

    /// Raw `instrCol` array.
    pub fn instr_col(&self) -> &[u32] {
        &self.instr_col
    }

    /// Scale every stored coefficient in absolute column `col` by `factor`,
    /// returning how many stored entries were touched.
    ///
    /// Scaling column `j` by `s` maps a solution `x` of `A x = b` to a
    /// solution with `x_j / s` — the column-scaling equivariance exploited
    /// by the metamorphic suite in `gaia-verify`. When `s` is a power of
    /// two the products are exact in IEEE-754, so the property can be
    /// asserted bitwise for deterministic backends.
    pub fn scale_column(&mut self, col: u64, factor: f64) -> usize {
        assert!(col < self.cols.end, "column {col} out of range");
        self.ell = OnceLock::new();
        let mut touched = 0usize;
        if col < self.cols.att {
            let values = self.values_astro.make_mut();
            for (row, &index) in self.matrix_index_astro.iter().enumerate() {
                let start = self.cols.astro + index;
                if (start..start + ASTRO_NNZ_PER_ROW as u64).contains(&col) {
                    values[row * ASTRO_NNZ_PER_ROW + (col - start) as usize] *= factor;
                    touched += 1;
                }
            }
        } else if col < self.cols.instr {
            let dof = self.layout.n_deg_freedom_att;
            let values = self.values_att.make_mut();
            for (row, &off) in self.matrix_index_att.iter().enumerate() {
                for axis in 0..ATT_AXES as usize {
                    let seg = self.cols.att + axis as u64 * dof + off;
                    if (seg..seg + ATT_PARAMS_PER_AXIS as u64).contains(&col) {
                        let k = axis * ATT_PARAMS_PER_AXIS as usize + (col - seg) as usize;
                        values[row * ATT_NNZ_PER_ROW + k] *= factor;
                        touched += 1;
                    }
                }
            }
        } else if col < self.cols.glob {
            let local = (col - self.cols.instr) as u32;
            let values = self.values_instr.make_mut();
            for (v, &c) in values.iter_mut().zip(self.instr_col.iter()) {
                if c == local {
                    *v *= factor;
                    touched += 1;
                }
            }
        } else {
            for v in self.values_glob.make_mut() {
                *v *= factor;
                touched += 1;
            }
        }
        touched
    }

    /// Apply a row permutation: after the call, row `i` holds what used to
    /// be row `perm[i]` (coefficients, indices, and known term together).
    ///
    /// `perm` must be a bijection on `0..n_rows()` that maps every
    /// observation row to an observation row *of the same star* and every
    /// constraint row to a constraint row — the only reorderings that
    /// preserve the structural invariants enforced by
    /// [`SparseSystem::from_parts`] (the astrometric index of a row is
    /// pinned to its star). Such permutations leave the least-squares
    /// solution unchanged, which is the row-permutation invariance checked
    /// by the metamorphic suite in `gaia-verify`.
    pub fn permute_rows(&mut self, perm: &[usize]) -> Result<(), SystemError> {
        let n_rows = self.n_rows();
        let n_obs = self.n_obs_rows();
        if perm.len() != n_rows {
            return Err(SystemError::ArrayLength {
                name: "perm",
                got: perm.len(),
                want: n_rows,
            });
        }
        let mut seen = vec![false; n_rows];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n_rows || seen[old] {
                return Err(SystemError::Permutation { row: new });
            }
            seen[old] = true;
            let same_side = (new < n_obs) == (old < n_obs);
            let same_star = new >= n_obs
                || self.layout.star_of_row(new as u64) == self.layout.star_of_row(old as u64);
            if !same_side || !same_star {
                return Err(SystemError::Permutation { row: new });
            }
        }
        // Each array is replaced by a freshly gathered one, so nothing a
        // clone or a parent still reads is written.
        fn gather<T: Copy>(src: &[T], perm: &[usize], rows: usize, stride: usize) -> Shared<T> {
            let mut out = Vec::with_capacity(rows * stride);
            for &old in &perm[..rows] {
                out.extend_from_slice(&src[old * stride..(old + 1) * stride]);
            }
            out.into()
        }
        self.values_astro = gather(&self.values_astro, perm, n_obs, ASTRO_NNZ_PER_ROW);
        self.values_att = gather(&self.values_att, perm, n_rows, ATT_NNZ_PER_ROW);
        self.values_instr = gather(&self.values_instr, perm, n_obs, INSTR_NNZ_PER_ROW);
        if self.layout.n_glob_params > 0 {
            let g = self.layout.n_glob_params as usize;
            self.values_glob = gather(&self.values_glob, perm, n_obs, g);
        }
        self.matrix_index_astro = gather(&self.matrix_index_astro, perm, n_obs, 1);
        self.matrix_index_att = gather(&self.matrix_index_att, perm, n_rows, 1);
        self.instr_col = gather(&self.instr_col, perm, n_obs, INSTR_NNZ_PER_ROW);
        self.known_terms = gather(&self.known_terms, perm, n_rows, 1);
        self.ell = OnceLock::new();
        Ok(())
    }
}

/// A star-aligned range of a parent system's rows as a system of its own
/// — one MPI rank's rows ([`SparseSystem::row_block`], a view of the
/// caller's matrix) or one tile read back from disk (over storage it owns)
/// — with the mapping back into the parent's row and column spaces. The
/// block's columns are its own stars' astrometric columns followed by the
/// attitude, instrumental and global columns every block shares.
#[derive(Debug)]
pub struct RowBlock {
    /// First parent star covered.
    pub star0: u64,
    /// Parent rows covered: the stars' observation rows and, on the last
    /// block, the constraint rows that follow them.
    pub rows: Range<usize>,
    /// Astrometric columns of the parent (`n_stars × 5`): where the shared
    /// columns start in a parent-length vector.
    pub parent_astro_cols: u64,
    /// The block-local system (astrometric indices count from `star0`).
    pub system: SparseSystem,
}

impl RowBlock {
    /// The parent's astrometric columns this block covers.
    fn astro_cols(&self) -> Range<usize> {
        let start = (self.star0 * u64::from(ASTRO_PARAMS_PER_STAR)) as usize;
        start..start + self.system.cols.att as usize
    }

    /// Map a block-local column to the parent column.
    #[inline]
    pub fn global_col(&self, local: u64) -> u64 {
        let astro = self.system.cols.att;
        if local < astro {
            self.star0 * u64::from(ASTRO_PARAMS_PER_STAR) + local
        } else {
            self.parent_astro_cols + (local - astro)
        }
    }

    /// Gather the block's view of a parent-length column vector — its
    /// astrometric slice followed by the shared columns — into a
    /// caller-owned buffer (cleared first), so a scan over many blocks
    /// allocates once.
    pub fn gather_cols_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&x[self.astro_cols()]);
        out.extend_from_slice(&x[self.parent_astro_cols as usize..]);
    }

    /// Write a block-local column vector over the segments of the parent
    /// vector it was gathered from.
    pub fn scatter_cols(&self, local: &[f64], x: &mut [f64]) {
        let (astro, shared) = local.split_at(self.system.cols.att as usize);
        x[self.astro_cols()].copy_from_slice(astro);
        x[self.parent_astro_cols as usize..].copy_from_slice(shared);
    }

    /// Add a block-local column vector to the same segments.
    pub fn add_cols_into(&self, local: &[f64], x: &mut [f64]) {
        let (astro, shared) = local.split_at(self.system.cols.att as usize);
        let (x_astro, x_shared) = x.split_at_mut(self.parent_astro_cols as usize);
        for (slot, v) in x_astro[self.astro_cols()].iter_mut().zip(astro) {
            *slot += v;
        }
        for (slot, v) in x_shared.iter_mut().zip(shared) {
            *slot += v;
        }
    }
}

/// Assembly / validation failures for [`SparseSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The layout itself is invalid.
    Layout(crate::layout::LayoutError),
    /// An array has the wrong length.
    ArrayLength {
        /// Array name.
        name: &'static str,
        /// Provided length.
        got: usize,
        /// Required length.
        want: usize,
    },
    /// `matrixIndexAstro[row]` does not point at the row's star block.
    AstroIndex {
        /// Offending row.
        row: usize,
        /// Stored start column.
        start: u64,
        /// Star the row belongs to.
        star: u64,
    },
    /// `matrixIndexAtt[row]` exceeds the axis segment.
    AttIndex {
        /// Offending row.
        row: usize,
        /// Stored offset.
        off: u64,
        /// Maximum allowed offset.
        max: u64,
    },
    /// Instrument columns of a row are not strictly increasing.
    InstrColumnOrder {
        /// Offending row.
        row: usize,
    },
    /// An instrument column exceeds the instrument block width.
    InstrColumnRange {
        /// Offending row.
        row: usize,
    },
    /// A row permutation is not a star-preserving bijection
    /// (see [`SparseSystem::permute_rows`]).
    Permutation {
        /// First destination row at which the permutation is invalid.
        row: usize,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Layout(e) => write!(f, "invalid layout: {e}"),
            SystemError::ArrayLength { name, got, want } => {
                write!(f, "array {name} has length {got}, expected {want}")
            }
            SystemError::AstroIndex { row, start, star } => write!(
                f,
                "matrixIndexAstro[{row}] = {start} does not match star {star}"
            ),
            SystemError::AttIndex { row, off, max } => {
                write!(f, "matrixIndexAtt[{row}] = {off} exceeds {max}")
            }
            SystemError::InstrColumnOrder { row } => {
                write!(
                    f,
                    "instrCol entries of row {row} are not strictly increasing"
                )
            }
            SystemError::InstrColumnRange { row } => {
                write!(f, "instrCol entry of row {row} out of range")
            }
            SystemError::Permutation { row } => {
                write!(
                    f,
                    "row permutation is not a star-preserving bijection at row {row}"
                )
            }
        }
    }
}

impl std::error::Error for SystemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};

    fn sys() -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(7)).generate()
    }

    #[test]
    fn row_entries_counts_match_layout() {
        let s = sys();
        let l = *s.layout();
        for row in 0..s.n_rows() {
            let n = s.row_entries(row).count();
            if row < s.n_obs_rows() {
                assert_eq!(
                    n,
                    ASTRO_NNZ_PER_ROW
                        + ATT_NNZ_PER_ROW
                        + INSTR_NNZ_PER_ROW
                        + l.n_glob_params as usize
                );
            } else {
                assert_eq!(n, ATT_NNZ_PER_ROW);
            }
        }
    }

    #[test]
    fn row_entries_columns_land_in_their_blocks() {
        let s = sys();
        let c = s.columns();
        for row in 0..s.n_obs_rows() {
            let (_, start) = s.astro_row(row);
            assert!(start + 5 <= c.att, "astro block overruns");
            let (_, off) = s.att_row(row);
            for axis in 0..3 {
                for k in 0..4 {
                    let col = s.att_col(off, axis, k);
                    assert!(c.range(BlockKind::Attitude).contains(&col));
                }
            }
            let (_, icols) = s.instr_row(row);
            for &ic in icols {
                assert!(c
                    .range(BlockKind::Instrumental)
                    .contains(&(c.instr + u64::from(ic))));
            }
            if let Some((_, gc)) = s.glob_row(row) {
                assert!(c.range(BlockKind::Global).contains(&gc));
            }
        }
    }

    #[test]
    fn observations_of_one_star_share_the_astro_block() {
        // The block-diagonal property that makes aprod2_astro collision-free
        // when parallelized over stars (§IV).
        let s = sys();
        let l = *s.layout();
        for star in 0..l.n_stars {
            let mut starts = l.rows_of_star(star).map(|r| s.astro_row(r as usize).1);
            let first = starts.next().unwrap();
            assert!(starts.all(|st| st == first));
            assert_eq!(first, star * 5);
        }
    }

    #[test]
    fn row_dot_equals_entry_sum() {
        let s = sys();
        let x: Vec<f64> = (0..s.n_cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        for row in 0..s.n_rows() {
            let manual: f64 = s.row_entries(row).map(|(c, v)| v * x[c as usize]).sum();
            assert_eq!(s.row_dot(row, &x), manual);
        }
    }

    #[test]
    fn from_parts_rejects_bad_lengths() {
        let s = sys();
        let l = *s.layout();
        let err = SparseSystem::from_parts(
            l,
            vec![0.0; 1],
            s.values_att().to_vec(),
            s.values_instr().to_vec(),
            s.values_glob().to_vec(),
            s.matrix_index_astro().to_vec(),
            s.matrix_index_att().to_vec(),
            s.instr_col().to_vec(),
            s.known_terms().to_vec(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SystemError::ArrayLength {
                name: "values_astro",
                ..
            }
        ));
    }

    #[test]
    fn from_parts_rejects_unsorted_instr_cols() {
        let s = sys();
        let l = *s.layout();
        let mut instr = s.instr_col().to_vec();
        instr.swap(0, 1);
        let err = SparseSystem::from_parts(
            l,
            s.values_astro().to_vec(),
            s.values_att().to_vec(),
            s.values_instr().to_vec(),
            s.values_glob().to_vec(),
            s.matrix_index_astro().to_vec(),
            s.matrix_index_att().to_vec(),
            instr,
            s.known_terms().to_vec(),
        )
        .unwrap_err();
        assert!(matches!(err, SystemError::InstrColumnOrder { row: 0 }));
    }

    #[test]
    fn scale_column_scales_exactly_one_column_norm() {
        let base = sys();
        let before = base.column_norms();
        for col in [
            0u64,
            base.columns().att + 1,
            base.columns().instr,
            base.columns().glob,
        ] {
            let mut s = base.clone();
            let touched = s.scale_column(col, 2.0);
            assert!(touched > 0, "column {col} has stored entries");
            let after = s.column_norms();
            for (j, (&a, &b)) in after.iter().zip(before.iter()).enumerate() {
                if j as u64 == col {
                    // ×2 is exact in IEEE-754, and so is sqrt(4y) = 2√y.
                    assert_eq!(a, 2.0 * b, "column {j}");
                } else {
                    assert_eq!(a, b, "column {j} must be untouched");
                }
            }
        }
    }

    #[test]
    fn scale_column_glob_touches_every_observation_row() {
        let mut s = sys();
        let touched = s.scale_column(s.columns().glob, 3.0);
        assert_eq!(touched, s.n_obs_rows());
    }

    #[test]
    fn permute_rows_reorders_row_views_consistently() {
        let base = sys();
        let l = *base.layout();
        let n_obs = base.n_obs_rows();
        let n_rows = base.n_rows();
        // Reverse each star's observations and the constraint block.
        let mut perm: Vec<usize> = Vec::with_capacity(n_rows);
        for star in 0..l.n_stars {
            perm.extend(l.rows_of_star(star).rev().map(|r| r as usize));
        }
        perm.extend((n_obs..n_rows).rev());
        let mut s = base.clone();
        s.permute_rows(&perm).unwrap();
        let x: Vec<f64> = (0..s.n_cols()).map(|i| (i as f64 * 0.61).cos()).collect();
        for (new, &old) in perm.iter().enumerate().take(n_rows) {
            assert_eq!(s.row_dot(new, &x), base.row_dot(old, &x), "row {new}");
            assert_eq!(s.known_terms()[new], base.known_terms()[old]);
        }
    }

    #[test]
    fn permute_rows_rejects_cross_star_and_non_bijective_maps() {
        let mut s = sys();
        let n_rows = s.n_rows();
        let obs = s.layout().obs_per_star as usize;
        // Swap a row of star 0 with a row of star 1: star-preservation fails.
        let mut cross: Vec<usize> = (0..n_rows).collect();
        cross.swap(0, obs);
        assert!(matches!(
            s.permute_rows(&cross),
            Err(SystemError::Permutation { .. })
        ));
        // Duplicate entry: not a bijection.
        let mut dup: Vec<usize> = (0..n_rows).collect();
        dup[1] = 0;
        assert!(matches!(
            s.permute_rows(&dup),
            Err(SystemError::Permutation { row: 1 })
        ));
        // Wrong length.
        assert!(matches!(
            s.permute_rows(&[0usize]),
            Err(SystemError::ArrayLength { name: "perm", .. })
        ));
    }

    #[test]
    fn ell_cache_resets_on_mutation() {
        let mut s = sys();
        let before = s.ell().astro_slot(0)[0];
        let touched = s.scale_column(0, 2.0);
        assert!(touched > 0);
        // The mirror must reflect the scaled values, not the cached ones.
        assert_eq!(s.ell().astro_slot(0)[0], 2.0 * before);
        let mut b = s.known_terms().to_vec();
        b[0] += 1.0;
        let want = b[0];
        s.set_known_terms(b);
        let ell = s.ell();
        let back = ell.to_system().unwrap();
        assert_eq!(back.known_terms()[0], want);
    }

    #[test]
    fn column_norms_are_positive_for_touched_columns() {
        let s = sys();
        let norms = s.column_norms();
        let touched = norms.iter().filter(|&&n| n > 0.0).count();
        // Every astrometric and attitude column is touched by construction.
        assert!(touched >= (s.layout().n_astro_cols() + s.layout().n_att_cols()) as usize);
    }
}
