//! Tile-by-tile backend: the out-of-core launch shape, exercised on an
//! in-memory system so the registry can validate and benchmark it.

use std::ops::Range;
use std::sync::Arc;

use gaia_sparse::SparseSystem;

use crate::exec::ExecutorPool;
use crate::launch::{Aprod2Spec, Aprod2Strategy, LaunchPlan};
use crate::registry::tuned_name;
use crate::traits::Backend;
use crate::tuning::Tuning;

/// Number of row tiles the backend aims for when no tile height is pinned.
const DEFAULT_TILE_COUNT: usize = 4;

/// Owner-computes policy applied one star-aligned row tile at a time —
/// exactly the traversal the out-of-core [`gaia_sparse::TiledSystem`] path
/// performs over spilled tiles, but on a resident system. Tiles run
/// sequentially (as they must when only one tile is in memory); within a
/// tile the plan parallelizes rows/stars/owned columns as usual. Because
/// owner-computes accumulates each output slot in ascending row order and
/// tiles are visited in row order, results are bitwise identical to the
/// sequential backend.
#[derive(Debug, Clone)]
pub struct TiledBackend {
    plan: LaunchPlan,
    pool: Arc<ExecutorPool>,
    tile_stars: Option<usize>,
}

impl TiledBackend {
    /// Create with explicit tuning; the tile height defaults to
    /// `n_stars / 4` per system.
    pub fn new(tuning: Tuning) -> Self {
        TiledBackend {
            plan: LaunchPlan::new(tuning, Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes)),
            pool: ExecutorPool::shared(tuning.threads),
            tile_stars: None,
        }
    }

    /// Create with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        TiledBackend::new(Tuning::with_threads(threads))
    }

    /// Pin the tile height in stars (benchmark / test hook mirroring the
    /// `tile_stars` of an on-disk tile set).
    pub fn with_tile_stars(mut self, tile_stars: usize) -> Self {
        self.tile_stars = Some(tile_stars.max(1));
        self
    }

    /// Star-aligned global row tiles covering `sys`, constraint rows folded
    /// into the last tile — the same split `gaia-tiles/v2` spills to disk.
    fn row_tiles(&self, sys: &SparseSystem) -> Vec<Range<usize>> {
        let n_stars = sys.layout().n_stars as usize;
        let obs_per_star = sys.layout().obs_per_star as usize;
        let n_rows = sys.n_rows();
        let tile_stars = self
            .tile_stars
            .unwrap_or_else(|| n_stars.div_ceil(DEFAULT_TILE_COUNT))
            .max(1);
        // Constraint-only systems (no stars or no observations) have no
        // star-aligned split to make: one degenerate tile spans every row.
        let n_tiles = if n_stars == 0 || obs_per_star == 0 {
            1
        } else {
            n_stars.div_ceil(tile_stars)
        };
        (0..n_tiles)
            .map(|t| {
                let row0 = t * tile_stars * obs_per_star;
                let row1 = if t + 1 == n_tiles {
                    n_rows
                } else {
                    (t + 1) * tile_stars * obs_per_star
                };
                row0..row1
            })
            .collect()
    }
}

impl Backend for TiledBackend {
    fn name(&self) -> String {
        tuned_name("tiled", self.plan.tuning)
    }

    fn description(&self) -> &'static str {
        "star-aligned row tiles through owner-computes interiors (out-of-core launch shape)"
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.check_aprod1(sys, x, out);
        for rows in self.row_tiles(sys) {
            let mine = &mut out[rows.clone()];
            self.plan.aprod1_rows(&self.pool, sys, x, rows, mine);
        }
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.check_aprod2(sys, y, out);
        for rows in self.row_tiles(sys) {
            self.plan.aprod2_rows(&self.pool, sys, y, rows, out);
        }
    }

    fn launch_plan(&self) -> Option<LaunchPlan> {
        Some(self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqBackend;
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    fn probe(sys: &SparseSystem) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.19).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.23).cos()).collect();
        (x, y)
    }

    #[test]
    fn row_tiles_partition_all_rows_star_aligned() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(5)).generate();
        let obs = sys.layout().obs_per_star as usize;
        for tile_stars in [1usize, 2, 3, 1000] {
            let b = TiledBackend::with_threads(2).with_tile_stars(tile_stars);
            let tiles = b.row_tiles(&sys);
            let mut cursor = 0;
            for t in &tiles {
                assert_eq!(t.start, cursor);
                assert_eq!(t.start % obs, 0, "tile starts between stars");
                cursor = t.end;
            }
            assert_eq!(cursor, sys.n_rows(), "tiles cover every row");
        }
    }

    #[test]
    fn tiled_products_are_bitwise_equal_to_seq() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(12)).generate();
        let (x, y) = probe(&sys);
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        for threads in [1usize, 3, 8] {
            for tile_stars in [1usize, 2, 7] {
                let b = TiledBackend::with_threads(threads).with_tile_stars(tile_stars);
                let mut got1 = vec![0.0; sys.n_rows()];
                b.aprod1(&sys, &x, &mut got1);
                let mut got2 = vec![0.0; sys.n_cols()];
                b.aprod2(&sys, &y, &mut got2);
                assert_eq!(got1, want1, "aprod1 t{threads} tile_stars={tile_stars}");
                assert_eq!(got2, want2, "aprod2 t{threads} tile_stars={tile_stars}");
            }
        }
    }

    #[test]
    fn name_encodes_the_full_tuning() {
        assert_eq!(TiledBackend::with_threads(4).name(), "tiled-t4");
        let b = TiledBackend::new(Tuning {
            threads: 2,
            chunks_per_thread: 3,
        });
        assert_eq!(b.name(), "tiled-t2-c3");
    }
}
