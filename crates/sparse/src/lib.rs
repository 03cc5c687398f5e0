//! # gaia-sparse
//!
//! The block-structured sparse linear system at the heart of the ESA Gaia
//! AVU-GSR (Astrometric Verification Unit — Global Sphere Reconstruction)
//! solver, as described in §III-B of
//! *"Performance portability via C++ PSTL, SYCL, OpenMP, and HIP: the Gaia
//! AVU-GSR case study"* (Malenza et al., SC-W 2024).
//!
//! The AVU-GSR pipeline solves an overdetermined system `A x = b` where the
//! coefficient matrix `A` has `O(10^{8..11})` rows (one per observation of a
//! primary star, plus constraint rows) and `O(10^8)` columns (unknowns).
//! Only the non-zero coefficients are stored; each observation row carries at
//! most 24 of them, split across four column blocks with very different
//! structure:
//!
//! * **Astrometric** — 5 contiguous non-zeros per row in a block-diagonal
//!   pattern (all observations of star `s` hit columns `5s..5s+5`). This
//!   block is ~90 % of the memory footprint.
//! * **Attitude** — 12 non-zeros per row, arranged as 3 blocks of 4
//!   contiguous entries, one block per attitude axis, separated by a stride
//!   equal to the attitude degrees of freedom per axis.
//! * **Instrumental** — 6 non-zeros per row at irregular column positions.
//! * **Global** — at most 1 non-zero per row (the PPN-γ parameter).
//!
//! This crate provides:
//!
//! * [`SystemLayout`] — the integer shape of a problem instance, including
//!   the analytic layouts of the paper's 10/30/60 GB benchmark problems
//!   (which can be *described* without being allocated);
//! * [`SparseSystem`] — the in-memory representation (values + compressed
//!   index arrays, mirroring the production `systemMatrix`,
//!   `matrixIndexAtt`, `instrCol` arrays; `matrixIndexAstro` is derived
//!   from each row's star, not stored);
//! * [`generator`] — the seeded synthetic dataset generator (the paper's
//!   production datasets are under NDA; its artifact ships the same kind of
//!   generator, parameterized by problem size in GB);
//! * [`constraints`] — the null-space constraint rows that make the
//!   overdetermined solution unique;
//! * [`partition`] — observation-row sharding across ranks (the MPI
//!   decomposition of §IV);
//! * [`footprint`] — byte-exact memory accounting used for the capacity
//!   gating of §V-B (which GPUs can hold which problem size);
//! * [`dense`] — dense mirrors of small systems for oracle testing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod constraints;
pub mod csr;
pub mod dense;
pub mod footprint;
pub mod fuzz;
pub mod generator;
pub mod io;
pub mod layout;
pub mod partition;
pub mod stats;
pub mod system;
pub mod tiled;

pub use generator::{AttitudePattern, Generator, GeneratorConfig, InstrumentPattern, Rhs};
pub use layout::{BlockKind, ColumnBlocks, SystemLayout};
pub use partition::{RowPartition, RowRange};
pub use system::{RowBlock, SparseSystem};
pub use tiled::{
    resolve_tiles_dir, write_tiles, CapacityBudget, TileAccess, TileCache, TileCacheStats,
    TileError, TileManifest, TileMeta, TiledSystem, TILES_DIR_ENV,
};

/// Number of astrometric parameters solved per star (right ascension,
/// declination, parallax, and the two proper motions).
pub const ASTRO_PARAMS_PER_STAR: u32 = 5;
/// Number of attitude axes of the Gaia satellite.
pub const ATT_AXES: u32 = 3;
/// Number of contiguous attitude parameters per axis touched by one row.
pub const ATT_PARAMS_PER_AXIS: u32 = 4;
/// Number of instrumental parameters touched by one row.
pub const INSTR_PARAMS_PER_ROW: u32 = 6;
/// Maximum number of global (PPN-γ) parameters touched by one row.
pub const GLOBAL_PARAMS_PER_ROW: u32 = 1;
/// Maximum number of non-zero coefficients stored per observation row.
pub const NNZ_PER_ROW: u32 = ASTRO_PARAMS_PER_STAR
    + ATT_AXES * ATT_PARAMS_PER_AXIS
    + INSTR_PARAMS_PER_ROW
    + GLOBAL_PARAMS_PER_ROW;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnz_per_row_is_24_as_in_the_paper() {
        // §III-B: "at most ~(10^11) × 24 elements, i.e., 5 astrometric,
        // 12 attitude, 6 instrumental, and 1 global parameters per row".
        assert_eq!(NNZ_PER_ROW, 24);
    }
}
