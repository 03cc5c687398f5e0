//! Integer shape of an AVU-GSR problem instance.
//!
//! A [`SystemLayout`] fully determines the sparsity structure sizes without
//! allocating any data: number of rows, columns, non-zeros, and the column
//! offsets of the four parameter blocks. The paper's 10/30/60 GB benchmark
//! problems are represented as layouts scaled so that the *device-resident*
//! footprint (matrix coefficient + index arrays, see [`crate::footprint`])
//! matches the requested size, exactly like the artifact's runtime `GB`
//! argument.

use serde::{Deserialize, Serialize};

use crate::{
    ASTRO_PARAMS_PER_STAR, ATT_AXES, ATT_PARAMS_PER_AXIS, GLOBAL_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
};

/// The four column blocks of the reduced matrix `A` (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// Block-diagonal astrometric block (5 contiguous non-zeros per row).
    Astrometric,
    /// Strided attitude block (3 × 4 non-zeros per row).
    Attitude,
    /// Irregular instrumental block (6 non-zeros per row).
    Instrumental,
    /// Global (PPN-γ) block (≤ 1 non-zero per row).
    Global,
}

impl BlockKind {
    /// All blocks in kernel-launch order (astrometric first, as in the
    /// production code's `aprod{1,2}_Kernel_{astro,att,instr,glob}`).
    pub const ALL: [BlockKind; 4] = [
        BlockKind::Astrometric,
        BlockKind::Attitude,
        BlockKind::Instrumental,
        BlockKind::Global,
    ];

    /// Short lowercase label used in kernel names and reports.
    pub fn label(self) -> &'static str {
        match self {
            BlockKind::Astrometric => "astro",
            BlockKind::Attitude => "att",
            BlockKind::Instrumental => "instr",
            BlockKind::Global => "glob",
        }
    }
}

/// Column offsets of the four blocks inside the unknown vector `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnBlocks {
    /// First astrometric column (always 0).
    pub astro: u64,
    /// First attitude column.
    pub att: u64,
    /// First instrumental column.
    pub instr: u64,
    /// First global column.
    pub glob: u64,
    /// One past the last column.
    pub end: u64,
}

impl ColumnBlocks {
    /// Number of columns in a block.
    pub fn width(&self, kind: BlockKind) -> u64 {
        match kind {
            BlockKind::Astrometric => self.att - self.astro,
            BlockKind::Attitude => self.instr - self.att,
            BlockKind::Instrumental => self.glob - self.instr,
            BlockKind::Global => self.end - self.glob,
        }
    }

    /// Column range of a block.
    pub fn range(&self, kind: BlockKind) -> std::ops::Range<u64> {
        match kind {
            BlockKind::Astrometric => self.astro..self.att,
            BlockKind::Attitude => self.att..self.instr,
            BlockKind::Instrumental => self.instr..self.glob,
            BlockKind::Global => self.glob..self.end,
        }
    }
}

/// Shape of one AVU-GSR problem instance.
///
/// Invariants (checked by [`SystemLayout::validate`]):
/// * `n_deg_freedom_att >= ATT_PARAMS_PER_AXIS` (an attitude block of 4 must
///   fit inside one axis segment), and its largest offset
///   `n_deg_freedom_att - 4` fits the `u32` `matrixIndexAtt` entries;
/// * `n_instr_params >= INSTR_PARAMS_PER_ROW`, and its largest column
///   `n_instr_params - 1` fits the `u32` `instrCol` entries;
/// * rows, columns and the attitude non-zeros (`12 × n_rows()`) fit `u64`;
/// * the system is overdetermined: `n_rows() >= n_cols()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemLayout {
    /// Number of primary stars.
    pub n_stars: u64,
    /// Observations per star (constant in the synthetic generator, as in the
    /// artifact's `solvergaiaSim`).
    pub obs_per_star: u64,
    /// Attitude degrees of freedom per axis (the stride between the three
    /// per-axis blocks of 4 non-zeros).
    pub n_deg_freedom_att: u64,
    /// Number of instrumental parameters.
    pub n_instr_params: u64,
    /// Number of global parameters (0 in production runs so far, 1 when the
    /// PPN-γ parameter is solved; the synthetic benchmarks use 1).
    pub n_glob_params: u32,
    /// Number of null-space constraint rows appended after the observations.
    pub n_constraint_rows: u64,
}

impl SystemLayout {
    /// A tiny layout for unit tests (fits dense mirroring).
    pub fn tiny() -> Self {
        SystemLayout {
            n_stars: 6,
            obs_per_star: 16,
            n_deg_freedom_att: 8,
            n_instr_params: 8,
            n_glob_params: 1,
            n_constraint_rows: 3,
        }
    }

    /// A small-but-nontrivial layout for integration tests and examples
    /// (a few thousand rows).
    pub fn small() -> Self {
        SystemLayout {
            n_stars: 200,
            obs_per_star: 24,
            n_deg_freedom_att: 64,
            n_instr_params: 40,
            n_glob_params: 1,
            n_constraint_rows: 16,
        }
    }

    /// A medium layout for CPU benchmarks (order 10^5 rows, ~25 MB).
    pub fn medium() -> Self {
        SystemLayout {
            n_stars: 4_000,
            obs_per_star: 30,
            n_deg_freedom_att: 1_024,
            n_instr_params: 512,
            n_glob_params: 1,
            n_constraint_rows: 64,
        }
    }

    /// The named preset `tiny`, `small` or `medium`; `None` for any other
    /// name.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny()),
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            _ => None,
        }
    }

    /// The production-scale problem of §III-B: ~10⁸ primary stars with
    /// ~10³ observations each (rows `O(10^{8+3})`), unknowns dominated by
    /// the five astrometric parameters per star. Far too large to
    /// allocate — used analytically to check the paper's published
    /// footprints (A ≈ 19 TB, b ≈ 800 GB, x ≈ 4 GB).
    pub fn production() -> Self {
        SystemLayout {
            n_stars: 100_000_000,
            obs_per_star: 1_000,
            n_deg_freedom_att: 1_000_000,
            n_instr_params: 100_000,
            n_glob_params: 1,
            n_constraint_rows: 6,
        }
    }

    /// Build a layout whose device-resident footprint is `gb` gigabytes, the
    /// way the artifact's solver takes the problem size in GB at runtime and
    /// synthesizes a matching dataset.
    ///
    /// The production ratios are preserved: ~100 observations per star, an
    /// attitude DOF count ~`n_stars / 150` and an instrument table
    /// ~`n_stars / 500` (so the astrometric block stays ~90 % of the
    /// footprint, §III-B).
    pub fn from_gb(gb: f64) -> Self {
        assert!(gb > 0.0, "problem size must be positive");
        let bytes = gb * 1e9;
        let bytes_per_row = crate::footprint::DEVICE_BYTES_PER_OBS_ROW as f64;
        let obs_per_star = 100u64;
        let rows = (bytes / bytes_per_row).max(1.0) as u64;
        let n_stars = (rows / obs_per_star).max(1);
        let layout = SystemLayout {
            n_stars,
            obs_per_star,
            n_deg_freedom_att: (n_stars / 150).max(ATT_PARAMS_PER_AXIS as u64),
            n_instr_params: (n_stars / 500).max(INSTR_PARAMS_PER_ROW as u64),
            n_glob_params: 1,
            n_constraint_rows: ATT_AXES as u64 * 2,
        };
        layout.validate().expect("from_gb produced invalid layout");
        layout
    }

    /// The paper's three benchmark problem sizes (§V-B).
    pub fn paper_problem_sizes() -> [(f64, SystemLayout); 3] {
        [
            (10.0, SystemLayout::from_gb(10.0)),
            (30.0, SystemLayout::from_gb(30.0)),
            (60.0, SystemLayout::from_gb(60.0)),
        ]
    }

    /// Observation rows (`n_stars * obs_per_star`).
    pub fn n_obs_rows(&self) -> u64 {
        self.n_stars * self.obs_per_star
    }

    /// Total rows, including appended constraint rows.
    pub fn n_rows(&self) -> u64 {
        self.n_obs_rows() + self.n_constraint_rows
    }

    /// Number of astrometric columns.
    pub fn n_astro_cols(&self) -> u64 {
        self.n_stars * ASTRO_PARAMS_PER_STAR as u64
    }

    /// Number of attitude columns (`3 axes × DOF per axis`).
    pub fn n_att_cols(&self) -> u64 {
        ATT_AXES as u64 * self.n_deg_freedom_att
    }

    /// Total number of unknowns.
    pub fn n_cols(&self) -> u64 {
        self.n_astro_cols() + self.n_att_cols() + self.n_instr_params + self.n_glob_params as u64
    }

    /// Column offsets of the four blocks.
    pub fn columns(&self) -> ColumnBlocks {
        let astro = 0;
        let att = self.n_astro_cols();
        let instr = att + self.n_att_cols();
        let glob = instr + self.n_instr_params;
        let end = glob + self.n_glob_params as u64;
        ColumnBlocks {
            astro,
            att,
            instr,
            glob,
            end,
        }
    }

    /// Stored non-zeros in a block, over all rows.
    pub fn nnz(&self, kind: BlockKind) -> u64 {
        match kind {
            BlockKind::Astrometric => self.n_obs_rows() * ASTRO_PARAMS_PER_STAR as u64,
            // Attitude coefficients are stored for constraint rows too.
            BlockKind::Attitude => self.n_rows() * (ATT_AXES * ATT_PARAMS_PER_AXIS) as u64,
            BlockKind::Instrumental => self.n_obs_rows() * INSTR_PARAMS_PER_ROW as u64,
            BlockKind::Global => {
                self.n_obs_rows() * GLOBAL_PARAMS_PER_ROW.min(self.n_glob_params) as u64
            }
        }
    }

    /// Total stored non-zeros.
    pub fn nnz_total(&self) -> u64 {
        BlockKind::ALL.iter().map(|&k| self.nnz(k)).sum()
    }

    /// Check the structural invariants.
    pub fn validate(&self) -> Result<(), LayoutError> {
        if self.n_stars == 0 || self.obs_per_star == 0 {
            return Err(LayoutError::Empty);
        }
        if self.n_deg_freedom_att < ATT_PARAMS_PER_AXIS as u64 {
            return Err(LayoutError::AttitudeAxisTooNarrow {
                dof: self.n_deg_freedom_att,
            });
        }
        if self.n_deg_freedom_att - ATT_PARAMS_PER_AXIS as u64 > u64::from(u32::MAX) {
            return Err(LayoutError::AttitudeAxisTooWide {
                dof: self.n_deg_freedom_att,
            });
        }
        if self.n_instr_params < INSTR_PARAMS_PER_ROW as u64 {
            return Err(LayoutError::InstrumentTooNarrow {
                params: self.n_instr_params,
            });
        }
        if self.n_instr_params - 1 > u64::from(u32::MAX) {
            return Err(LayoutError::InstrumentTooWide {
                params: self.n_instr_params,
            });
        }
        if self.n_glob_params > 1 {
            return Err(LayoutError::TooManyGlobals {
                globals: self.n_glob_params,
            });
        }
        // Every count the layout derives must fit u64. The attitude
        // non-zeros (12 a row) are the largest: once they fit, so do the
        // columns (5 a star, then three tables of under 2^35 each).
        let att_nnz = (self.n_stars.checked_mul(self.obs_per_star))
            .and_then(|obs| obs.checked_add(self.n_constraint_rows))
            .and_then(|rows| rows.checked_mul((ATT_AXES * ATT_PARAMS_PER_AXIS) as u64));
        if att_nnz.is_none() {
            return Err(LayoutError::TooLarge);
        }
        if self.n_rows() < self.n_cols() {
            return Err(LayoutError::Underdetermined {
                rows: self.n_rows(),
                cols: self.n_cols(),
            });
        }
        Ok(())
    }

    /// The star owning observation row `row` (`row < n_obs_rows()`).
    pub fn star_of_row(&self, row: u64) -> u64 {
        debug_assert!(row < self.n_obs_rows());
        row / self.obs_per_star
    }

    /// Range of observation rows belonging to star `star`.
    pub fn rows_of_star(&self, star: u64) -> std::ops::Range<u64> {
        debug_assert!(star < self.n_stars);
        star * self.obs_per_star..(star + 1) * self.obs_per_star
    }
}

/// Structural validation failures for [`SystemLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// No stars or no observations.
    Empty,
    /// An attitude axis segment cannot hold a block of 4 parameters.
    AttitudeAxisTooNarrow {
        /// Offending degrees of freedom per axis.
        dof: u64,
    },
    /// An attitude offset (up to `dof - 4`) would not fit its `u32` entry.
    AttitudeAxisTooWide {
        /// Offending degrees of freedom per axis.
        dof: u64,
    },
    /// The instrument table cannot hold 6 distinct parameters.
    InstrumentTooNarrow {
        /// Offending instrumental parameter count.
        params: u64,
    },
    /// An instrument column (up to `params - 1`) would not fit its `u32`
    /// entry.
    InstrumentTooWide {
        /// Offending instrumental parameter count.
        params: u64,
    },
    /// The row, column or non-zero count does not fit a `u64`.
    TooLarge,
    /// More than one global parameter is not representable (≤ 1 per row).
    TooManyGlobals {
        /// Offending global parameter count.
        globals: u32,
    },
    /// The system must be overdetermined (paper Eq. 2 discussion).
    Underdetermined {
        /// Row count.
        rows: u64,
        /// Column count.
        cols: u64,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::Empty => write!(f, "layout has no observations"),
            LayoutError::AttitudeAxisTooNarrow { dof } => {
                write!(f, "attitude DOF per axis {dof} < {ATT_PARAMS_PER_AXIS}")
            }
            LayoutError::AttitudeAxisTooWide { dof } => write!(
                f,
                "attitude DOF per axis {dof}: offsets up to {} do not fit u32",
                dof - ATT_PARAMS_PER_AXIS as u64
            ),
            LayoutError::InstrumentTooNarrow { params } => {
                write!(f, "instrument params {params} < {INSTR_PARAMS_PER_ROW}")
            }
            LayoutError::InstrumentTooWide { params } => {
                write!(f, "instrument params {params}: columns do not fit u32")
            }
            LayoutError::TooLarge => write!(f, "layout counts overflow u64"),
            LayoutError::TooManyGlobals { globals } => {
                write!(f, "{globals} global parameters (max 1)")
            }
            LayoutError::Underdetermined { rows, cols } => {
                write!(f, "system is underdetermined: {rows} rows < {cols} cols")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_and_small_layouts_are_valid() {
        SystemLayout::tiny().validate().unwrap();
        SystemLayout::small().validate().unwrap();
        SystemLayout::medium().validate().unwrap();
    }

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(SystemLayout::preset("tiny"), Some(SystemLayout::tiny()));
        assert_eq!(SystemLayout::preset("small"), Some(SystemLayout::small()));
        assert_eq!(SystemLayout::preset("medium"), Some(SystemLayout::medium()));
        assert_eq!(SystemLayout::preset("huge"), None);
    }

    #[test]
    fn column_blocks_partition_the_unknowns() {
        let l = SystemLayout::small();
        let c = l.columns();
        assert_eq!(c.astro, 0);
        assert_eq!(c.width(BlockKind::Astrometric), l.n_astro_cols());
        assert_eq!(c.width(BlockKind::Attitude), l.n_att_cols());
        assert_eq!(c.width(BlockKind::Instrumental), l.n_instr_params);
        assert_eq!(c.width(BlockKind::Global), l.n_glob_params as u64);
        assert_eq!(c.end, l.n_cols());
    }

    #[test]
    fn paper_sizes_hit_requested_footprint_within_one_percent() {
        for (gb, layout) in SystemLayout::paper_problem_sizes() {
            let actual = crate::footprint::device_bytes(&layout) as f64 / 1e9;
            let rel = (actual - gb).abs() / gb;
            assert!(rel < 0.01, "{gb} GB layout yields {actual} GB (rel {rel})");
        }
    }

    #[test]
    fn astro_unknowns_dominate_as_in_paper() {
        // §III-B: "the number of unknowns [is] dominated by the 5
        // astrometric parameters per star" — the astrometric section is
        // ~90 % of the solution array at production ratios.
        let layout = SystemLayout::from_gb(10.0);
        let share = layout.n_astro_cols() as f64 / layout.n_cols() as f64;
        assert!(
            (0.80..1.0).contains(&share),
            "astro column share {share} outside ~90% band"
        );
        // The per-row value storage split is fixed by structure: 5 of 24.
        let astro_vals = crate::footprint::block_bytes(&layout, BlockKind::Astrometric) as f64;
        let total_vals: u64 = BlockKind::ALL
            .iter()
            .map(|&k| crate::footprint::block_bytes(&layout, k))
            .sum();
        let val_share = astro_vals / total_vals as f64;
        assert!((val_share - 5.0 / 24.0).abs() < 0.01);
    }

    #[test]
    fn row_to_star_round_trip() {
        let l = SystemLayout::tiny();
        for star in 0..l.n_stars {
            for row in l.rows_of_star(star) {
                assert_eq!(l.star_of_row(row), star);
            }
        }
    }

    #[test]
    fn production_layout_reproduces_the_papers_footprints() {
        // §III-B: "A, b and x̄ occupy ~19 TB, ~800 GB and ~4 GB,
        // respectively", with rows O(10^11), cols O(10^8), and at most
        // ~10^11 × 24 stored coefficients.
        let l = SystemLayout::production();
        l.validate().unwrap();
        assert_eq!(l.n_obs_rows(), 100_000_000_000); // 10^11 rows
        let coeff_tb = (l.nnz_total() * 8) as f64 / 1e12;
        assert!((18.0..21.0).contains(&coeff_tb), "A = {coeff_tb} TB");
        let b_gb = crate::footprint::known_terms_bytes(&l) as f64 / 1e9;
        assert!((790.0..810.0).contains(&b_gb), "b = {b_gb} GB");
        let x_gb = (l.n_cols() * 8) as f64 / 1e9;
        assert!((3.9..4.2).contains(&x_gb), "x = {x_gb} GB");
        // Astrometric dominance of the unknowns (the ~90 % claim).
        let share = l.n_astro_cols() as f64 / l.n_cols() as f64;
        assert!(share > 0.99, "astro share {share}");
    }

    #[test]
    fn underdetermined_layout_is_rejected() {
        let l = SystemLayout {
            n_stars: 10,
            obs_per_star: 1, // 10 rows, 50+ cols
            n_deg_freedom_att: 8,
            n_instr_params: 8,
            n_glob_params: 1,
            n_constraint_rows: 0,
        };
        assert!(matches!(
            l.validate(),
            Err(LayoutError::Underdetermined { .. })
        ));
    }

    #[test]
    fn attitude_offsets_past_u32_are_rejected() {
        // Shapes only: enough constraint rows to stay overdetermined.
        let mut l = SystemLayout::tiny();
        l.n_deg_freedom_att = u64::from(u32::MAX) + 4;
        l.n_constraint_rows = 1 << 36;
        assert_eq!(l.validate(), Ok(()));
        l.n_deg_freedom_att += 1;
        assert_eq!(
            l.validate(),
            Err(LayoutError::AttitudeAxisTooWide {
                dof: l.n_deg_freedom_att
            })
        );
    }

    #[test]
    fn instrument_columns_past_u32_are_rejected() {
        let mut l = SystemLayout::tiny();
        l.n_instr_params = u64::from(u32::MAX) + 1;
        l.n_constraint_rows = 1 << 36;
        assert_eq!(l.validate(), Ok(()));
        l.n_instr_params += 1;
        assert_eq!(
            l.validate(),
            Err(LayoutError::InstrumentTooWide {
                params: l.n_instr_params
            })
        );
    }

    #[test]
    fn counts_past_u64_are_rejected_not_wrapped() {
        let huge = SystemLayout {
            n_stars: 1 << 40,
            obs_per_star: 1 << 40,
            ..SystemLayout::tiny()
        };
        assert_eq!(huge.validate(), Err(LayoutError::TooLarge));
        // Rows that fit u64 but whose 12 attitude non-zeros do not.
        let wide = SystemLayout {
            n_stars: 1 << 30,
            obs_per_star: 1 << 31,
            ..SystemLayout::tiny()
        };
        assert_eq!(wide.validate(), Err(LayoutError::TooLarge));
    }

    #[test]
    fn glob_nnz_zero_when_no_global_parameter() {
        let mut l = SystemLayout::tiny();
        l.n_glob_params = 0;
        assert_eq!(l.nnz(BlockKind::Global), 0);
    }
}
