//! Out-of-core solves: LSQR over an on-disk [`TiledSystem`].
//!
//! Paper-scale AVU-GSR observation matrices (10/30/60 GB in §V-B, up to
//! `O(10^{11})` coefficients in production) exceed the memory of any
//! single node the paper benchmarks. [`TiledOperator`] implements
//! [`Operator`] by streaming star-aligned row tiles from a `gaia-tiles/v2`
//! spill directory through an ordinary [`Backend`], holding at most
//! `budget / tile_bytes` tiles resident via the scan-aware cache inside
//! [`TiledSystem`]. A resident tile is a [`gaia_sparse::RowBlock`] — the
//! type a distributed rank's rows are, here over storage read from disk.
//! The cache evicts the tile used last, which is the optimal choice for
//! the ascending scans below and requires only that each loop iteration
//! drops its block before the next asks for one.
//!
//! **Bit-identity**: tiles are processed sequentially in global row
//! order — whichever of them the cache happens to hold — and every
//! per-tile product copies current output values in (`gather_cols_into`)
//! and back out (`scatter_cols`). Sequential and
//! owner-computes backends accumulate each output slot in ascending row
//! order, so the tiled solve is *bitwise identical* to the resident solve
//! with the same backend — at any capacity budget. Reduction-reordering
//! strategies (striped, replicated, atomic) stay within their usual
//! cross-backend tolerance class.
//!
//! Every tile access is recorded into the telemetry [`TileCell`]
//! (loads, hits, evictions, bytes moved, peak resident bytes), which is
//! what the `capacity` bench audits against its budget.

use std::cell::RefCell;

use gaia_backends::Backend;
use gaia_sparse::{TileAccess, TiledSystem};
use gaia_telemetry::TileCell;

use crate::checkpoint::TileProvenance;
use crate::config::LsqrConfig;
use crate::lsqr::OperatorLsqr;
use crate::operator::{Operator, OperatorError};
use crate::solution::Solution;

/// [`Operator`] adapter streaming a [`TiledSystem`] tile-by-tile through
/// a [`Backend`]. See the module docs for the bit-identity argument.
#[derive(Debug)]
pub struct TiledOperator<'a, B: Backend + ?Sized> {
    tiles: &'a TiledSystem,
    backend: &'a B,
    /// Tile-local column vector, reused by every tile of every product.
    scratch: RefCell<Vec<f64>>,
}

impl<'a, B: Backend + ?Sized> TiledOperator<'a, B> {
    /// Bind a tile set to the backend that runs each tile's products.
    pub fn new(tiles: &'a TiledSystem, backend: &'a B) -> Self {
        TiledOperator {
            tiles,
            backend,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// The underlying tile set.
    pub fn tiles(&self) -> &'a TiledSystem {
        self.tiles
    }

    /// Record one tile access into the telemetry registry.
    fn record(&self, access: &TileAccess) {
        let mut cell = TileCell::default();
        if access.hit {
            cell.hits = 1;
        } else {
            cell.loads = 1;
            cell.loaded_bytes = access.loaded_bytes;
        }
        cell.evictions = access.evictions;
        cell.evicted_bytes = access.evicted_bytes;
        cell.peak_resident_bytes = access.peak_resident_bytes;
        gaia_telemetry::record_tile(&cell);
    }
}

impl<B: Backend + ?Sized> Operator for TiledOperator<'_, B> {
    fn n_rows(&self) -> usize {
        self.tiles.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.tiles.n_cols()
    }

    fn known_terms(&self) -> &[f64] {
        self.tiles.known_terms()
    }

    fn column_norms(&self) -> Result<Vec<f64>, OperatorError> {
        Ok(self.tiles.column_norms()?)
    }

    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let mut x_local = self.scratch.borrow_mut();
        for t in 0..self.tiles.n_tiles() {
            let (block, access) = self.tiles.tile(t)?;
            self.record(&access);
            block.gather_cols_into(x, &mut x_local);
            // Rows are tile-disjoint: accumulate straight into the slice.
            self.backend
                .aprod1(&block.system, &x_local, &mut out[block.rows.clone()]);
        }
        Ok(())
    }

    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let mut out_local = self.scratch.borrow_mut();
        for t in 0..self.tiles.n_tiles() {
            let (block, access) = self.tiles.tile(t)?;
            self.record(&access);
            // Columns are shared across tiles: copy the running values in,
            // let the backend accumulate this tile's rows, copy back out.
            block.gather_cols_into(out, &mut out_local);
            self.backend
                .aprod2(&block.system, &y[block.rows.clone()], &mut out_local);
            block.scatter_cols(&out_local, out);
        }
        Ok(())
    }

    fn nrm2(&self, v: &[f64]) -> f64 {
        self.backend.nrm2(v)
    }

    fn scal(&self, v: &mut [f64], s: f64) {
        self.backend.scal(v, s);
    }

    fn provenance(&self) -> Option<TileProvenance> {
        Some(TileProvenance {
            dir: self.tiles.dir().display().to_string(),
            matrix_fingerprint: self.tiles.manifest().matrix_fingerprint.clone(),
        })
    }
}

/// Solve an out-of-core system end to end: build a [`TiledOperator`],
/// run [`OperatorLsqr`], and propagate any tile I/O / checksum / budget
/// failure as a typed error (naming the offending tile path).
pub fn solve_tiled<B: Backend + ?Sized>(
    tiles: &TiledSystem,
    backend: &B,
    config: &LsqrConfig,
) -> Result<Solution, OperatorError> {
    OperatorLsqr::new(TiledOperator::new(tiles, backend), *config)?.try_run()
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Mutex;

    use gaia_backends::SeqBackend;
    use gaia_sparse::{
        CapacityBudget, Generator, GeneratorConfig, SparseSystem, SystemLayout, TileError,
        TileManifest,
    };

    use super::*;

    /// `seq`, except that the product numbered `flip_at` first flips one
    /// bit of `victim` on disk — a fault that arrives while a solve runs.
    struct FlipsMidSolve {
        products: Mutex<usize>,
        flip_at: usize,
        victim: PathBuf,
    }

    impl FlipsMidSolve {
        fn tick(&self) {
            let mut products = self.products.lock().expect("no product panics");
            *products += 1;
            if *products == self.flip_at + 1 {
                let mut bytes = std::fs::read(&self.victim).expect("read victim");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x04;
                std::fs::write(&self.victim, bytes).expect("rewrite victim");
            }
        }
    }

    impl Backend for FlipsMidSolve {
        fn name(&self) -> String {
            "flips-mid-solve".into()
        }
        fn description(&self) -> &'static str {
            "seq with a scheduled on-disk bit flip"
        }
        fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
            self.tick();
            SeqBackend.aprod1(sys, x, out);
        }
        fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
            self.tick();
            SeqBackend.aprod2(sys, y, out);
        }
    }

    /// Nothing remembers that a tile verified once: a tile that loaded
    /// cleanly several times in this very solve is refused, by path, on
    /// the first load after a bit of it flips.
    #[test]
    fn a_bit_flipped_between_two_loads_of_a_tile_stops_the_solve() {
        let dir = std::env::temp_dir().join(format!("gaia-ooc-midflip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(31))
            .generate_tiled(&dir, 2)
            .expect("streamed generation");
        let probe = TiledSystem::open(&dir).expect("probe");
        let (n_tiles, one_tile) = (probe.n_tiles(), probe.min_budget());
        drop(probe);
        // Room for one tile: every access of every product is a load.
        let tiles = TiledSystem::open_with_budget(&dir, CapacityBudget::limited(one_tile))
            .expect("open with a one-tile budget");

        // Three full iterations run clean; the flip lands while tile 0 of
        // the next product is being multiplied, so tile 1 is next to load.
        let backend = FlipsMidSolve {
            products: Mutex::new(0),
            flip_at: 6 * n_tiles,
            victim: dir.join(TileManifest::tile_file_name(1)),
        };
        let err = solve_tiled(&tiles, &backend, &LsqrConfig::fixed_iterations(12))
            .expect_err("the solve must not outlive the flip");
        let cause = std::error::Error::source(&err).and_then(|e| e.downcast_ref::<TileError>());
        match cause {
            Some(TileError::ChecksumMismatch { path, .. }) => assert_eq!(path, &backend.victim),
            other => panic!("expected a ChecksumMismatch naming the tile, got {other:?}: {err}"),
        }
        assert_eq!(
            *backend.products.lock().expect("no product panics"),
            6 * n_tiles + 1,
            "no product may run on or after the corrupted tile"
        );
        assert!(
            tiles.stats().loads > 6 * n_tiles as u64,
            "{:?}",
            tiles.stats()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
