//! Incremental system construction.
//!
//! The synthetic [`crate::generator`] covers benchmarking; users with
//! *real* observations (the GSR pre-processor's output, Fig. 1) need to
//! assemble a [`SparseSystem`] row by row. [`SystemBuilder`] provides that
//! path with the same invariants enforced incrementally: every star
//! carries exactly `obs_per_star` observations, attitude offsets stay
//! inside the axis segment, instrument columns are strictly increasing,
//! and the finished system is re-validated by
//! [`SparseSystem::from_parts`].
//!
//! ```
//! use gaia_sparse::builder::SystemBuilder;
//!
//! let mut b = SystemBuilder::new(8, 6, true, 2);
//! let star = b.add_star();
//! for k in 0..2 {
//!     b.observation(star)
//!         .astro([1.0, 0.5, -0.25, 0.125, 2.0])
//!         .attitude(1, [0.1; 12])
//!         .instrument([(0, 0.3), (1, 0.4), (2, 0.5), (3, 0.6), (4, 0.7), (5, 0.8)])
//!         .global(0.01)
//!         .known_term(k as f64)
//!         .commit()
//!         .unwrap();
//! }
//! b.constraint(0, 0, [1.0; 4], 0.0).unwrap();
//! // 2 observation rows + 1 constraint < 22 columns: a shard-style build.
//! let sys = b.build_shard().unwrap();
//! assert_eq!(sys.n_rows(), 3);
//! ```

use crate::layout::SystemLayout;
use crate::system::{
    SparseSystem, SystemError, ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW,
};
use crate::{ATT_AXES, ATT_PARAMS_PER_AXIS};

/// Errors raised while assembling a system incrementally.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A star received a different number of observations than
    /// `obs_per_star`.
    WrongObservationCount {
        /// Offending star.
        star: u64,
        /// Observations recorded.
        got: u64,
        /// Observations required.
        want: u64,
    },
    /// An attitude offset exceeds the axis segment.
    AttitudeOffsetOutOfRange {
        /// Offending offset.
        offset: u64,
        /// Maximum allowed.
        max: u64,
    },
    /// Instrument columns not strictly increasing or out of range.
    BadInstrumentColumns,
    /// Observations were added out of star order (stars must be filled
    /// one at a time, in creation order).
    OutOfOrder,
    /// Final validation failed.
    System(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::WrongObservationCount { star, got, want } => {
                write!(f, "star {star} has {got} observations (needs {want})")
            }
            BuildError::AttitudeOffsetOutOfRange { offset, max } => {
                write!(f, "attitude offset {offset} exceeds {max}")
            }
            BuildError::BadInstrumentColumns => {
                write!(
                    f,
                    "instrument columns must be strictly increasing and in range"
                )
            }
            BuildError::OutOfOrder => write!(f, "observations must be added star by star"),
            BuildError::System(m) => write!(f, "assembled system invalid: {m}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder; see the module docs.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    n_deg_freedom_att: u64,
    n_instr_params: u64,
    has_global: bool,
    obs_per_star: u64,
    n_stars: u64,
    // Observation storage, appended in row order.
    values_astro: Vec<f64>,
    values_att: Vec<f64>,
    values_instr: Vec<f64>,
    values_glob: Vec<f64>,
    matrix_index_att: Vec<u32>,
    instr_col: Vec<u32>,
    known_terms: Vec<f64>,
    // Constraint rows (attitude-only), appended after build.
    constr_values: Vec<f64>,
    constr_offsets: Vec<u32>,
    constr_known: Vec<f64>,
}

/// `offset` as a stored attitude offset: at most `dof - 4`, which a valid
/// layout keeps inside `u32`.
fn att_offset(offset: u64, dof: u64) -> Result<u32, BuildError> {
    let max = dof - ATT_PARAMS_PER_AXIS as u64;
    u32::try_from(offset)
        .ok()
        .filter(|_| offset <= max)
        .ok_or(BuildError::AttitudeOffsetOutOfRange { offset, max })
}

impl SystemBuilder {
    /// Start a builder for a system with `n_deg_freedom_att` attitude DOF
    /// per axis, `n_instr_params` instrument parameters, optionally a
    /// global parameter, and `obs_per_star` observations per star.
    pub fn new(
        n_deg_freedom_att: u64,
        n_instr_params: u64,
        has_global: bool,
        obs_per_star: u64,
    ) -> Self {
        assert!(n_deg_freedom_att >= ATT_PARAMS_PER_AXIS as u64);
        assert!(n_instr_params >= INSTR_NNZ_PER_ROW as u64);
        assert!(obs_per_star > 0);
        SystemBuilder {
            n_deg_freedom_att,
            n_instr_params,
            has_global,
            obs_per_star,
            n_stars: 0,
            values_astro: Vec::new(),
            values_att: Vec::new(),
            values_instr: Vec::new(),
            values_glob: Vec::new(),
            matrix_index_att: Vec::new(),
            instr_col: Vec::new(),
            known_terms: Vec::new(),
            constr_values: Vec::new(),
            constr_offsets: Vec::new(),
            constr_known: Vec::new(),
        }
    }

    /// Register a new star; returns its id. Observations for it must be
    /// added before the next star is registered.
    pub fn add_star(&mut self) -> u64 {
        let id = self.n_stars;
        self.n_stars += 1;
        id
    }

    /// Observations recorded so far (over all stars; constraint rows are
    /// tracked separately).
    pub fn n_observations(&self) -> u64 {
        self.known_terms.len() as u64
    }

    /// Begin an observation row for `star`.
    pub fn observation(&mut self, star: u64) -> ObservationBuilder<'_> {
        ObservationBuilder {
            builder: self,
            star,
            astro: [0.0; ASTRO_NNZ_PER_ROW],
            attitude_offset: 0,
            attitude: [0.0; ATT_NNZ_PER_ROW],
            instrument: [(0, 0.0); INSTR_NNZ_PER_ROW],
            global: 0.0,
            known: 0.0,
        }
    }

    /// Append an attitude constraint row: weight `values` on `axis`'s four
    /// parameters starting at `offset`, with known term `rhs`.
    pub fn constraint(
        &mut self,
        axis: u32,
        offset: u64,
        values: [f64; ATT_PARAMS_PER_AXIS as usize],
        rhs: f64,
    ) -> Result<(), BuildError> {
        assert!(axis < ATT_AXES, "axis {axis} out of range");
        let offset = att_offset(offset, self.n_deg_freedom_att)?;
        let mut row = [0.0f64; ATT_NNZ_PER_ROW];
        for (k, v) in values.into_iter().enumerate() {
            row[axis as usize * ATT_PARAMS_PER_AXIS as usize + k] = v;
        }
        self.constr_values.extend_from_slice(&row);
        self.constr_offsets.push(offset);
        self.constr_known.push(rhs);
        Ok(())
    }

    fn layout(&self) -> SystemLayout {
        SystemLayout {
            n_stars: self.n_stars,
            obs_per_star: self.obs_per_star,
            n_deg_freedom_att: self.n_deg_freedom_att,
            n_instr_params: self.n_instr_params,
            n_glob_params: u32::from(self.has_global),
            n_constraint_rows: self.constr_offsets.len() as u64,
        }
    }

    fn finish(mut self, shard: bool) -> Result<SparseSystem, BuildError> {
        // Every star must be complete.
        let expected = self.n_stars * self.obs_per_star;
        let got = self.known_terms.len() as u64;
        if got != expected {
            let star = got / self.obs_per_star.max(1);
            return Err(BuildError::WrongObservationCount {
                star: star.min(self.n_stars.saturating_sub(1)),
                got: got - star.min(self.n_stars.saturating_sub(1)) * self.obs_per_star,
                want: self.obs_per_star,
            });
        }
        let layout = self.layout();
        // Append constraint rows.
        self.values_att.extend_from_slice(&self.constr_values);
        let mut matrix_index_att = self.matrix_index_att;
        matrix_index_att.extend_from_slice(&self.constr_offsets);
        let mut known = self.known_terms;
        known.extend_from_slice(&self.constr_known);

        let make = if shard {
            SparseSystem::from_parts_shard
        } else {
            SparseSystem::from_parts
        };
        make(
            layout,
            self.values_astro,
            self.values_att,
            self.values_instr,
            self.values_glob,
            matrix_index_att,
            self.instr_col,
            known,
        )
        .map_err(|e: SystemError| BuildError::System(e.to_string()))
    }

    /// Finish; requires the assembled system to be overdetermined.
    pub fn build(self) -> Result<SparseSystem, BuildError> {
        self.finish(false)
    }

    /// Finish as a shard (skips the overdetermined check; see
    /// [`SparseSystem::from_parts_shard`]).
    pub fn build_shard(self) -> Result<SparseSystem, BuildError> {
        self.finish(true)
    }
}

/// One observation row under construction; set its pieces, then
/// [`ObservationBuilder::commit`].
pub struct ObservationBuilder<'a> {
    builder: &'a mut SystemBuilder,
    star: u64,
    astro: [f64; ASTRO_NNZ_PER_ROW],
    attitude_offset: u64,
    attitude: [f64; ATT_NNZ_PER_ROW],
    instrument: [(u32, f64); INSTR_NNZ_PER_ROW],
    global: f64,
    known: f64,
}

impl ObservationBuilder<'_> {
    /// The five astrometric coefficients.
    pub fn astro(mut self, values: [f64; ASTRO_NNZ_PER_ROW]) -> Self {
        self.astro = values;
        self
    }

    /// Attitude offset within the axis segment and the 3×4 coefficients.
    pub fn attitude(mut self, offset: u64, values: [f64; ATT_NNZ_PER_ROW]) -> Self {
        self.attitude_offset = offset;
        self.attitude = values;
        self
    }

    /// The six `(column, value)` instrument entries (columns must be
    /// strictly increasing).
    pub fn instrument(mut self, entries: [(u32, f64); INSTR_NNZ_PER_ROW]) -> Self {
        self.instrument = entries;
        self
    }

    /// The global (PPN-γ) coefficient; ignored when the builder has no
    /// global parameter.
    pub fn global(mut self, value: f64) -> Self {
        self.global = value;
        self
    }

    /// The observation's known term.
    pub fn known_term(mut self, b: f64) -> Self {
        self.known = b;
        self
    }

    /// Validate and append the row.
    pub fn commit(self) -> Result<(), BuildError> {
        let b = self.builder;
        // Rows must be appended star by star, in order.
        let current_star = b.known_terms.len() as u64 / b.obs_per_star;
        if self.star != current_star.min(b.n_stars.saturating_sub(1))
            || b.known_terms.len() as u64 >= b.n_stars * b.obs_per_star
        {
            return Err(BuildError::OutOfOrder);
        }
        let offset = att_offset(self.attitude_offset, b.n_deg_freedom_att)?;
        for w in self.instrument.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(BuildError::BadInstrumentColumns);
            }
        }
        if u64::from(self.instrument[INSTR_NNZ_PER_ROW - 1].0) >= b.n_instr_params {
            return Err(BuildError::BadInstrumentColumns);
        }
        b.values_astro.extend_from_slice(&self.astro);
        b.values_att.extend_from_slice(&self.attitude);
        b.matrix_index_att.push(offset);
        for (col, val) in self.instrument {
            b.instr_col.push(col);
            b.values_instr.push(val);
        }
        if b.has_global {
            b.values_glob.push(self.global);
        }
        b.known_terms.push(self.known);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs(b: &mut SystemBuilder, star: u64, seed: f64) -> Result<(), BuildError> {
        b.observation(star)
            .astro([seed, seed + 0.1, seed + 0.2, seed + 0.3, seed + 0.4])
            .attitude(1, [seed * 0.5; 12])
            .instrument([
                (0, seed),
                (1, seed + 1.0),
                (2, seed - 1.0),
                (3, 0.5),
                (4, -0.5),
                (5, 0.25),
            ])
            .global(0.01)
            .known_term(seed * 2.0)
            .commit()
    }

    #[test]
    fn built_system_matches_hand_computed_row_dot() {
        let mut b = SystemBuilder::new(8, 6, true, 3);
        let s0 = b.add_star();
        for k in 0..3 {
            sample_obs(&mut b, s0, k as f64).unwrap();
        }
        b.constraint(1, 2, [1.0, -1.0, 1.0, -1.0], 0.0).unwrap();
        let sys = b.build_shard().unwrap();
        assert_eq!(sys.n_rows(), 4);
        assert_eq!(sys.n_obs_rows(), 3);
        // Row 1 (seed 1.0): astro starts at col 0, x = all ones ⇒ dot =
        // Σastro + Σatt + Σinstr + glob.
        let x = vec![1.0; sys.n_cols()];
        let want: f64 = (1.0 + 1.1 + 1.2 + 1.3 + 1.4)
            + 12.0 * 0.5
            + (1.0 + 2.0 + 0.0 + 0.5 - 0.5 + 0.25)
            + 0.01;
        assert!((sys.row_dot(1, &x) - want).abs() < 1e-12);
        // Constraint row touches only axis 1.
        let c = sys.columns();
        let entries: Vec<(u64, f64)> = sys.row_entries(3).filter(|&(_, v)| v != 0.0).collect();
        assert_eq!(entries.len(), 4);
        for (col, _) in entries {
            let axis1 = c.att + 8..c.att + 16;
            assert!(axis1.contains(&col), "constraint column {col}");
        }
    }

    #[test]
    fn incomplete_star_is_rejected() {
        let mut b = SystemBuilder::new(8, 6, false, 2);
        let s = b.add_star();
        sample_obs(&mut b, s, 0.0).unwrap();
        let err = b.build_shard().unwrap_err();
        assert!(
            matches!(err, BuildError::WrongObservationCount { .. }),
            "{err}"
        );
    }

    #[test]
    fn out_of_order_observation_is_rejected() {
        let mut b = SystemBuilder::new(8, 6, false, 1);
        let s0 = b.add_star();
        let s1 = b.add_star();
        // s1 before s0: rejected.
        let err = sample_obs(&mut b, s1, 0.0).unwrap_err();
        assert_eq!(err, BuildError::OutOfOrder);
        sample_obs(&mut b, s0, 0.0).unwrap();
        sample_obs(&mut b, s1, 1.0).unwrap();
        // A third observation overflows the declared capacity.
        let err = sample_obs(&mut b, s1, 2.0).unwrap_err();
        assert_eq!(err, BuildError::OutOfOrder);
    }

    #[test]
    fn bad_attitude_offset_and_instrument_columns_are_rejected() {
        let mut b = SystemBuilder::new(8, 6, false, 1);
        let s = b.add_star();
        let err = b
            .observation(s)
            .attitude(5, [0.0; 12]) // max is 8 − 4 = 4
            .instrument([(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0)])
            .commit()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::AttitudeOffsetOutOfRange { max: 4, .. }
        ));
        let err = b
            .observation(s)
            .attitude(0, [0.0; 12])
            .instrument([(0, 0.0), (0, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0)])
            .commit()
            .unwrap_err();
        assert_eq!(err, BuildError::BadInstrumentColumns);
        assert!(matches!(
            b.constraint(2, 99, [0.0; 4], 0.0),
            Err(BuildError::AttitudeOffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn built_system_is_solvable() {
        // Build an overdetermined system: 8 stars × 16 obs = 128 rows,
        // 8·5 + 24 + 6 + 0 = 70 cols.
        let mut b = SystemBuilder::new(8, 6, false, 16);
        for star in 0..8 {
            let s = b.add_star();
            let _ = star;
            for k in 0..16 {
                sample_obs(&mut b, s, 0.1 * k as f64 + s as f64).unwrap();
            }
        }
        b.constraint(0, 0, [1.0; 4], 0.0).unwrap();
        let sys = b.build().unwrap();
        assert!(sys.n_rows() > sys.n_cols());
        // And the dense oracle can mirror it (round-trip of invariants).
        let d = crate::dense::DenseMatrix::from_sparse(&sys);
        assert!(d.nnz() > 0);
    }
}
