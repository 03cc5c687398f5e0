//! Seeded synthetic dataset generator.
//!
//! The real Gaia datasets are covered by a non-disclosure agreement, so the
//! paper's artifact generates synthetic data "distributed in the system as
//! the real data" from a runtime problem size in GB and a seed (Appendix
//! A-C). This module is the Rust equivalent: given a [`SystemLayout`] and a
//! seed, it produces a [`SparseSystem`] whose sparsity pattern reproduces
//! the structure of Fig. 2 of the paper:
//!
//! * astrometric blocks on the star diagonal;
//! * attitude offsets that advance with observation time (rows are
//!   time-ordered, so consecutive rows hit nearby attitude parameters —
//!   this is what gives the attitude block its banded look and the GPU
//!   kernels their partial coalescing);
//! * instrumental columns drawn irregularly from the instrument table;
//! * a single dense global column.
//!
//! The right-hand side can be synthesized from a known true solution
//! (`b = A x_true + ε`, [`Rhs::FromTrueSolution`]) so that convergence and
//! solution-validation experiments (paper §V-C, Fig. 6) are meaningful, or
//! uniformly at random ([`Rhs::Random`]) when only iteration timing matters
//! (paper §V-B runs 100 iterations without requiring convergence).
//!
//! Every draw comes from a stream keyed by what it fills, never by when it
//! is drawn: star `s`'s rows draw each phase (coefficients, attitude
//! jitter, instrument columns, right-hand-side noise or values) from the
//! stream of (seed, phase, `s`), `x_true` one stream per block of columns,
//! and the constraint rows one stream of their own. Any span of stars
//! therefore generates alone — as a rank-local or tile-local system would —
//! and the spans generate in parallel: [`Generator::generate`] fills
//! contiguous star runs of the arrays in place on one worker thread per
//! core, and [`Generator::generate_tiled`] writes one tile per job, with
//! the same bits at any worker count and any tile size.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::constraints::build_constraint_rows;
use crate::layout::SystemLayout;
use crate::system::{SparseSystem, ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW};
use crate::tiled::{spill, TileError, TileManifest};
use crate::ATT_PARAMS_PER_AXIS;

/// How the known terms `b` are synthesized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rhs {
    /// Draw a true solution `x_true ∈ [-1, 1)^n`, set `b = A x_true + ε`
    /// with Gaussian noise of standard deviation `noise_sigma`.
    FromTrueSolution {
        /// Standard deviation of the added observation noise.
        noise_sigma: f64,
    },
    /// Uniform random known terms (timing-only runs).
    Random,
}

/// How observation rows map to attitude parameters over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttitudePattern {
    /// Monotone sweep through the attitude segment with small jitter —
    /// the simplest time-ordering (each attitude parameter is visited in
    /// one contiguous burst).
    LinearSweep,
    /// Gaia-like scanning law: the satellite spins (~6 h period) while
    /// precessing, so the attitude segment is swept back and forth and
    /// every region is *revisited* `revolutions` times across the mission
    /// segment. Revisits raise the per-column collision counts of
    /// `aprod2_att` and spread each star's observations over distant
    /// attitude parameters — both properties of the real datasets.
    ScanLaw {
        /// Number of full sweeps across the attitude segment.
        revolutions: u32,
    },
}

/// How the 6 instrumental columns of each row are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstrumentPattern {
    /// 6 distinct uniform columns (the maximally irregular pattern).
    Uniform,
    /// One column from each of 6 equal groups of the instrument table —
    /// the real calibration model's shape, where each observation touches
    /// one parameter per instrument effect (CCD, gate, AC window, ...).
    Grouped,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Shape of the system to generate.
    pub layout: SystemLayout,
    /// PRNG seed; equal seeds produce bit-identical systems.
    pub seed: u64,
    /// Right-hand-side synthesis mode.
    pub rhs: Rhs,
    /// Attitude time pattern.
    pub attitude: AttitudePattern,
    /// Instrument column pattern.
    pub instrument: InstrumentPattern,
}

impl GeneratorConfig {
    /// Configuration with the artifact's defaults: seed 0, a consistent
    /// right-hand side with 1e-6 noise, linear attitude sweep, uniform
    /// instrument columns.
    pub fn new(layout: SystemLayout) -> Self {
        GeneratorConfig {
            layout,
            seed: 0,
            rhs: Rhs::FromTrueSolution { noise_sigma: 1e-6 },
            attitude: AttitudePattern::LinearSweep,
            instrument: InstrumentPattern::Uniform,
        }
    }

    /// Override the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the right-hand-side mode.
    pub fn rhs(mut self, rhs: Rhs) -> Self {
        self.rhs = rhs;
        self
    }

    /// Override the attitude time pattern.
    pub fn attitude(mut self, pattern: AttitudePattern) -> Self {
        self.attitude = pattern;
        self
    }

    /// Override the instrument column pattern.
    pub fn instrument(mut self, pattern: InstrumentPattern) -> Self {
        self.instrument = pattern;
        self
    }
}

/// Seeded synthetic system generator. See the module docs.
#[derive(Debug, Clone)]
pub struct Generator {
    config: GeneratorConfig,
}

impl Generator {
    /// Create a generator for the given configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        config.layout.validate().expect("invalid layout");
        Generator { config }
    }

    /// Generate the system, discarding the true solution (if any).
    pub fn generate(&self) -> SparseSystem {
        self.generate_with_truth().0
    }

    /// Generate the system together with the true solution used to build
    /// the right-hand side (`None` for [`Rhs::Random`]), on up to one
    /// worker thread per core.
    pub fn generate_with_truth(&self) -> (SparseSystem, Option<Vec<f64>>) {
        self.generate_on(workers(self.config.layout.n_rows()))
    }

    /// [`Generator::generate_with_truth`] on `workers` threads, each
    /// drawing a contiguous run of stars in place.
    pub(crate) fn generate_on(&self, workers: usize) -> (SparseSystem, Option<Vec<f64>>) {
        let truth = truth(&self.config);
        let stars = 0..self.config.layout.n_stars;
        let system = draw_rows(&self.config, stars, truth.as_deref(), workers);
        (system, truth)
    }

    /// Streamed generation straight to a `gaia-tiles/v4` spill directory
    /// with `tile_stars` stars per tile: the tiles are drawn on the calling
    /// thread and written a wave at a time, one tile per job on up to one
    /// worker thread per core, so the full system is never in memory. The tiles are
    /// byte-identical to tiling the in-memory [`Generator::generate`]
    /// output (same seed ⇒ same bytes), since every draw is keyed by the
    /// star it fills. The capacity budget applies when the directory is
    /// *opened* for solving ([`crate::tiled::TiledSystem::open_with_budget`]),
    /// not at generation time.
    pub fn generate_tiled(&self, dir: &Path, tile_stars: u64) -> Result<TileManifest, TileError> {
        let workers = workers(self.config.layout.n_rows());
        self.generate_tiled_on(dir, tile_stars, workers)
    }

    /// [`Generator::generate_tiled`] with waves of `workers` tiles. The
    /// draws stay on the calling thread: split a wave's few thousand rows
    /// further and the spawns cost what the second thread saves.
    pub(crate) fn generate_tiled_on(
        &self,
        dir: &Path,
        tile_stars: u64,
        workers: usize,
    ) -> Result<TileManifest, TileError> {
        let (config, layout) = (&self.config, self.config.layout);
        let truth = truth(config);
        let seed = Some(config.seed);
        spill(dir, layout, tile_stars, seed, workers, |stars| {
            draw_rows(config, stars, truth.as_deref(), 1)
        })
    }
}

/// What a stream draws. With the seed and a star (a column block for
/// [`Phase::Truth`], 0 for [`Phase::Constraints`]) it keys the stream.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Astro,
    Att,
    Instr,
    Glob,
    AttOffset,
    InstrCol,
    Constraints,
    Truth,
    Noise,
    Random,
}

/// The stream of `phase` at `key`: a [`SmallRng`] seeded through the
/// SplitMix64 finalizer of (seed, phase, key). No key depends on who
/// draws the stream or when, so any span of stars generates alone.
fn stream(seed: u64, phase: Phase, key: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed ^ mix((phase as u64) << 56 ^ key)))
}

/// SplitMix64 finalizer: a well-mixed bijection of `u64`.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw from `0..n`: Lemire's widening multiply, which rejects
/// exactly the `2^64 mod n` low products that would bias it (arXiv
/// 1805.10941) and computes that threshold only when a low product falls
/// under `n`. A power-of-two `n` rejects nothing.
pub(crate) fn below<R: RngCore>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0, "below(0)");
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    if (m as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (m >> 64) as u64
}

/// Rows a worker thread must draw to pay for its spawn: a row takes about
/// half a microsecond, a spawn tens of them.
const MIN_WORKER_ROWS: u64 = 8192;

/// Worker threads for `rows` rows: one per core this process may run on,
/// fewer when the rows are few.
fn workers(rows: u64) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let affordable = usize::try_from(rows / MIN_WORKER_ROWS).unwrap_or(usize::MAX);
    cores.min(affordable).max(1)
}

/// `job` over `items`, results in item order: contiguous runs of items go
/// to up to `workers` scoped threads, the caller's own among them.
pub(crate) fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let per_run = items.len().div_ceil(workers.max(1)).max(1);
    let mut items = items.into_iter();
    let mut runs = std::iter::from_fn(|| {
        Some(items.by_ref().take(per_run).collect::<Vec<_>>()).filter(|run| !run.is_empty())
    });
    let (first, job) = (runs.next().unwrap_or_default(), &job);
    // gaia-analyze: allow(thread-spawn): the executor pool lives in
    // gaia-backends, which depends on this crate; generation is set-up
    // work whose scoped workers all end before it returns.
    std::thread::scope(|s| {
        let others: Vec<_> = runs
            .map(|run| s.spawn(move || run.into_iter().map(job).collect::<Vec<_>>()))
            .collect();
        let mut out: Vec<R> = first.into_iter().map(job).collect();
        for other in others {
            out.extend(other.join().expect("a generator worker panicked"));
        }
        out
    })
}

/// `job(star, entries)` over the `per_star` entries of each star in
/// `vals`, star `star0` first, on `workers` threads that each take a
/// contiguous run of stars. Entries past the last star's (the constraint
/// rows') go as the stars after it.
fn par_stars<T: Send>(
    vals: &mut [T],
    per_star: usize,
    star0: u64,
    workers: usize,
    job: impl Fn(u64, &mut [T]) + Sync,
) {
    if per_star == 0 {
        return;
    }
    let stars = vals.len().div_ceil(per_star).max(1);
    let per_run = stars.div_ceil(workers.max(1)) * per_star;
    let runs = vals.chunks_mut(per_run).enumerate().collect();
    par_map(runs, workers, |(run, vals)| {
        let first = star0 + (run * per_run / per_star) as u64;
        for (star, vals) in (first..).zip(vals.chunks_mut(per_star)) {
            job(star, vals);
        }
    });
}

/// The rows of `stars` — and the constraint rows when these stars end the
/// system — as a system in the generated system's column space, known
/// terms from `truth` included, drawn by `workers` threads: for each
/// phase, star `s` fills its rows from the stream (seed, phase, `s`). The
/// arrays are pre-sized with zeros, which the allocator hands out as
/// untouched pages for the workers to fault in.
fn draw_rows(
    config: &GeneratorConfig,
    stars: Range<u64>,
    truth: Option<&[f64]>,
    workers: usize,
) -> SparseSystem {
    let (layout, seed, star0) = (config.layout, config.seed, stars.start);
    let ends = stars.end == layout.n_stars;
    let local = SystemLayout {
        n_stars: stars.end - star0,
        n_constraint_rows: if ends { layout.n_constraint_rows } else { 0 },
        ..layout
    };
    let (obs, rows) = (local.n_obs_rows() as usize, local.n_rows() as usize);
    let per_star = layout.obs_per_star as usize;
    let glob = layout.n_glob_params as usize;
    let widths = [ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW, glob];
    let phases = [Phase::Astro, Phase::Att, Phase::Instr, Phase::Glob];
    // The attitude coefficients hold the constraint rows' too.
    let mut sizes = widths.map(|width| obs * width);
    sizes[1] += (rows - obs) * ATT_NNZ_PER_ROW;
    let mut coeffs = sizes.map(|n| vec![0.0; n]);
    for ((vals, width), phase) in coeffs.iter_mut().zip(widths).zip(phases) {
        par_stars(
            &mut vals[..obs * width],
            per_star * width,
            star0,
            workers,
            |star, vals| {
                let mut rng = stream(seed, phase, star);
                vals.fill_with(|| draw_coeff(&mut rng));
            },
        );
    }

    // matrixIndexAtt: time-ordered traversal of the axis segment with
    // small jitter — consecutive observations see nearby attitude
    // parameters. The traversal shape depends on the attitude pattern.
    let max_off = layout.n_deg_freedom_att - ATT_PARAMS_PER_AXIS as u64;
    let sweep = |row: u64| -> u64 {
        // 0 for a single observation (no `0 / 0`).
        let t = row as f64 / (layout.n_obs_rows() as f64 - 1.0).max(1.0);
        match config.attitude {
            AttitudePattern::LinearSweep => (t * max_off as f64) as u64,
            AttitudePattern::ScanLaw { revolutions } => {
                // Triangle-wave sweep: |…| of a sawtooth, so the segment
                // is crossed `revolutions` times with smooth turnarounds
                // (locality preserved at every step).
                let phase = t * f64::from(revolutions.max(1));
                let tri = 1.0 - (2.0 * (phase - phase.floor()) - 1.0).abs();
                (tri * max_off as f64) as u64
            }
        }
    };
    let mut offs = vec![0u32; rows];
    par_stars(&mut offs[..obs], per_star, star0, workers, |star, offs| {
        let mut rng = stream(seed, Phase::AttOffset, star);
        for (row, off) in (star * layout.obs_per_star..).zip(offs) {
            // At most `max_off`, which the validated layout keeps in u32.
            *off = (sweep(row) + below(&mut rng, 3)).min(max_off) as u32;
        }
    });

    // instrCol: 6 distinct, sorted columns per row. Grouped draws one
    // column from each of 6 near-equal contiguous groups, so its columns
    // are sorted and distinct by construction.
    let n_instr = layout.n_instr_params;
    let bound = |g: usize| g as u64 * n_instr / INSTR_NNZ_PER_ROW as u64;
    let groups: [_; INSTR_NNZ_PER_ROW] =
        std::array::from_fn(|g| (bound(g), bound(g + 1).max(bound(g) + 1)));
    let mut cols = vec![0u32; obs * INSTR_NNZ_PER_ROW];
    par_stars(
        &mut cols,
        per_star * INSTR_NNZ_PER_ROW,
        star0,
        workers,
        |star, cols| {
            let mut rng = stream(seed, Phase::InstrCol, star);
            for row in cols.chunks_exact_mut(INSTR_NNZ_PER_ROW) {
                // Columns fit u32: the validated layout has at most 2^32.
                row.copy_from_slice(&match config.instrument {
                    InstrumentPattern::Uniform => sample_distinct_sorted(&mut rng, n_instr),
                    InstrumentPattern::Grouped => {
                        groups.map(|(a, b)| (a + below(&mut rng, b - a)) as u32)
                    }
                });
            }
        },
    );

    // Constraint rows: attitude-only, after the last star's observations.
    if local.n_constraint_rows > 0 {
        let rng = &mut stream(seed, Phase::Constraints, 0);
        let (vals, constraint_offs) = build_constraint_rows(&layout, rng);
        coeffs[1][obs * ATT_NNZ_PER_ROW..].copy_from_slice(&vals);
        offs[obs..].copy_from_slice(&constraint_offs);
    }
    let [astro, att, instr, glob] = coeffs;
    let b = vec![0.0; rows];
    let mut block = SparseSystem::from_parts_at(
        layout.columns(),
        star0,
        local,
        astro,
        att,
        instr,
        glob,
        offs,
        cols,
        b,
    )
    .expect("invalid generated system");
    block.set_known_terms(known_terms(config, &block, truth, workers));
    block
}

/// Columns of `x_true` drawn from one stream.
const TRUTH_BLOCK: usize = 4096;

/// `x_true ∈ [-1, 1)^n` for [`Rhs::FromTrueSolution`], `None` for
/// [`Rhs::Random`]: block `k` of [`TRUTH_BLOCK`] columns draws from the
/// stream (seed, truth, `k`).
fn truth(config: &GeneratorConfig) -> Option<Vec<f64>> {
    let Rhs::FromTrueSolution { .. } = config.rhs else {
        return None;
    };
    let mut x = vec![0.0; config.layout.n_cols() as usize];
    for (k, block) in x.chunks_mut(TRUTH_BLOCK).enumerate() {
        let mut rng = stream(config.seed, Phase::Truth, k as u64);
        block.fill_with(|| rng.gen_range(-1.0..1.0));
    }
    Some(x)
}

/// The known terms `b` of `block` — the generated system, or one tile's
/// rows — as `A x_true + ε` from `truth`, or uniform in `[-1, 1)` without
/// one, on `workers` threads. Star `s` draws its rows' noise or values from
/// the stream (seed, phase, `s`); the constraint rows, which follow the
/// last star's, draw as the stars after it.
fn known_terms(
    config: &GeneratorConfig,
    block: &SparseSystem,
    truth: Option<&[f64]>,
    workers: usize,
) -> Vec<f64> {
    let (phase, sigma) = match config.rhs {
        Rhs::Random => (Phase::Random, 0.0),
        Rhs::FromTrueSolution { noise_sigma } => (Phase::Noise, noise_sigma),
    };
    let obs = config.layout.obs_per_star as usize;
    let star0 = block.star0();
    let mut b = vec![0.0; block.n_rows()];
    par_stars(&mut b, obs, star0, workers, |star, b| {
        let mut rng = stream(config.seed, phase, star);
        for (row, b) in ((star - star0) as usize * obs..).zip(b) {
            *b = match truth {
                None => rng.gen_range(-1.0..1.0),
                Some(x) => {
                    let dot = block.row_dot_direct(row, x);
                    dot + if sigma > 0.0 {
                        sigma * gaussian(&mut rng)
                    } else {
                        0.0
                    }
                }
            };
        }
    });
    b
}

/// Coefficient values: uniform in [-1, 1), excluding near-zero values
/// so that no stored non-zero degenerates (mirrors the artifact, which
/// draws from the same kind of bounded distribution).
fn draw_coeff<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let v: f64 = rng.gen_range(-1.0..1.0);
        if v.abs() > 1e-3 {
            return v;
        }
    }
}

/// Draw 6 distinct values from `0..n`, sorted ascending: a value already
/// drawn is drawn again, so `n` may be as small as 6 (tests use 8). The
/// values are distinct, so the fixed sorting network below orders them
/// exactly as any sort would.
fn sample_distinct_sorted<R: RngCore>(rng: &mut R, n: u64) -> [u32; INSTR_NNZ_PER_ROW] {
    debug_assert!(n >= INSTR_NNZ_PER_ROW as u64);
    let mut out = [0u32; INSTR_NNZ_PER_ROW];
    let mut len = 0;
    while len < out.len() {
        let c = below(rng, n) as u32;
        if !out[..len].contains(&c) {
            out[len] = c;
            len += 1;
        }
    }
    sort6(&mut out);
    out
}

/// An optimal sorting network for 6 keys: 12 compare-exchanges, one
/// layer of independent ones per line.
#[rustfmt::skip]
const SORT6: [(usize, usize); 12] = [
    (0, 5), (1, 3), (2, 4),
    (1, 2), (3, 4),
    (0, 3), (2, 5),
    (0, 1), (2, 3), (4, 5),
    (1, 2), (3, 4),
];

fn sort6(v: &mut [u32; 6]) {
    for (i, j) in SORT6 {
        (v[i], v[j]) = (v[i].min(v[j]), v[i].max(v[j]));
    }
}

/// Standard normal variate via Box–Muller (avoids pulling in `rand_distr`).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = GeneratorConfig::new(SystemLayout::tiny()).seed(42);
        let a = Generator::new(cfg).generate();
        let b = Generator::new(cfg).generate();
        assert_eq!(a.values_astro(), b.values_astro());
        assert_eq!(a.values_att(), b.values_att());
        assert_eq!(a.instr_col(), b.instr_col());
        assert_eq!(a.known_terms(), b.known_terms());
    }

    #[test]
    fn different_seeds_differ() {
        let l = SystemLayout::tiny();
        let a = Generator::new(GeneratorConfig::new(l).seed(1)).generate();
        let b = Generator::new(GeneratorConfig::new(l).seed(2)).generate();
        assert_ne!(a.values_astro(), b.values_astro());
    }

    #[test]
    fn consistent_rhs_matches_true_solution() {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(3)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 0.0 });
        let (sys, truth) = Generator::new(cfg).generate_with_truth();
        let x = truth.unwrap();
        for row in 0..sys.n_rows() {
            let want = sys.row_dot(row, &x);
            assert!((sys.known_terms()[row] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn attitude_offsets_are_time_ordered_within_jitter() {
        let (sys, _) = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(4))
            .generate_with_truth();
        let offs = sys.matrix_index_att();
        let n_obs = sys.n_obs_rows();
        // Monotone up to the ±2 jitter.
        for w in offs[..n_obs].windows(2) {
            assert!(
                w[1] + 3 >= w[0],
                "attitude offsets regress: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn scan_law_revisits_attitude_regions() {
        let layout = SystemLayout::small();
        let sweeps = |pattern: AttitudePattern| -> usize {
            let sys =
                Generator::new(GeneratorConfig::new(layout).seed(5).attitude(pattern)).generate();
            let offs = sys.matrix_index_att();
            let n_obs = sys.n_obs_rows();
            // Count crossings of the segment midpoint with hysteresis
            // (robust to the ±2 jitter): a crossing is a transition from
            // the bottom quarter to the top quarter or back.
            let max_off = layout.n_deg_freedom_att as u32 - 4;
            let (lo, hi) = (max_off / 4, 3 * max_off / 4);
            let mut crossings = 0;
            let mut region = 0i8; // -1 bottom, +1 top
            for &o in &offs[..n_obs] {
                let r = if o <= lo {
                    -1
                } else if o >= hi {
                    1
                } else {
                    0
                };
                if r != 0 {
                    if region != 0 && r != region {
                        crossings += 1;
                    }
                    region = r;
                }
            }
            crossings
        };
        let linear = sweeps(AttitudePattern::LinearSweep);
        let scan = sweeps(AttitudePattern::ScanLaw { revolutions: 6 });
        assert!(linear <= 1, "linear sweep crosses at most once: {linear}");
        assert!(
            scan >= 5,
            "scan law with 6 revolutions must cross the segment repeatedly: {scan}"
        );
        // The faster sweep rate spreads each star's (time-contiguous)
        // observations over a wider attitude range — the real-dataset
        // property that couples the astrometric and attitude blocks.
        let span = |pattern: AttitudePattern| -> f64 {
            let sys =
                Generator::new(GeneratorConfig::new(layout).seed(5).attitude(pattern)).generate();
            let offs = sys.matrix_index_att();
            let mut total = 0u64;
            for star in 0..layout.n_stars {
                let rows = layout.rows_of_star(star);
                let s = &offs[rows.start as usize..rows.end as usize];
                total += u64::from(s.iter().max().unwrap() - s.iter().min().unwrap());
            }
            total as f64 / layout.n_stars as f64
        };
        let span_linear = span(AttitudePattern::LinearSweep);
        let span_scan = span(AttitudePattern::ScanLaw { revolutions: 6 });
        assert!(
            span_scan > 2.0 * span_linear,
            "scan law must widen per-star attitude spans: {span_linear} vs {span_scan}"
        );
    }

    #[test]
    fn grouped_instrument_pattern_picks_one_column_per_group() {
        let layout = SystemLayout {
            n_instr_params: 30,
            ..SystemLayout::small()
        };
        let sys = Generator::new(
            GeneratorConfig::new(layout)
                .seed(6)
                .instrument(InstrumentPattern::Grouped),
        )
        .generate();
        for row in 0..sys.n_obs_rows() {
            let (_, cols) = sys.instr_row(row);
            for (g, &c) in cols.iter().enumerate() {
                let g = g as u64;
                let start = g * 30 / 6;
                let end = (g + 1) * 30 / 6;
                assert!(
                    (start..end).contains(&u64::from(c)),
                    "row {row} group {g}: column {c} outside [{start}, {end})"
                );
            }
        }
    }

    /// The 0-1 principle: a comparator network that sorts every 0/1 input
    /// sorts every input.
    #[test]
    fn sort6_sorts_every_zero_one_input() {
        for bits in 0u32..64 {
            let mut v: [u32; 6] = std::array::from_fn(|i| bits >> i & 1);
            sort6(&mut v);
            assert!(v.is_sorted(), "{bits:06b} -> {v:?}");
        }
    }

    /// Every array and the known terms, bit for bit.
    fn bits(sys: &SparseSystem) -> Vec<u64> {
        let f64s = [
            sys.values_astro(),
            sys.values_att(),
            sys.values_instr(),
            sys.values_glob(),
            sys.known_terms(),
        ];
        let u32s = [sys.matrix_index_att(), sys.instr_col()];
        let f64s = f64s.into_iter().flatten().map(|v| v.to_bits());
        f64s.chain(u32s.into_iter().flatten().map(|&v| u64::from(v)))
            .collect()
    }

    /// The same system — arrays, known terms, `x_true` and spill bytes —
    /// whatever the worker count and the tile size, for every attitude ×
    /// instrument × right-hand-side case: no draw depends on who draws it.
    #[test]
    fn generation_is_bitwise_independent_of_workers_and_tiles() {
        let layout = SystemLayout {
            n_stars: 11,
            n_instr_params: 13,
            ..SystemLayout::tiny()
        };
        let dir = std::env::temp_dir().join(format!("gaia-gen-workers-{}", std::process::id()));
        let attitudes = [
            AttitudePattern::LinearSweep,
            AttitudePattern::ScanLaw { revolutions: 3 },
        ];
        let instruments = [InstrumentPattern::Uniform, InstrumentPattern::Grouped];
        let rhss = [
            Rhs::Random,
            Rhs::FromTrueSolution { noise_sigma: 0.0 },
            Rhs::FromTrueSolution { noise_sigma: 1e-6 },
        ];
        for (attitude, instrument, rhs) in attitudes.into_iter().flat_map(|a| {
            instruments
                .into_iter()
                .flat_map(move |i| rhss.into_iter().map(move |r| (a, i, r)))
        }) {
            let cfg = GeneratorConfig::new(layout)
                .seed(31)
                .attitude(attitude)
                .instrument(instrument)
                .rhs(rhs);
            let case = format!("{attitude:?} × {instrument:?} × {rhs:?}");
            let generator = Generator::new(cfg);
            let (sys, truth) = generator.generate_on(1);
            for workers in [2, 3, 8] {
                let (other, other_truth) = generator.generate_on(workers);
                assert!(bits(&other) == bits(&sys), "{case}: {workers} workers");
                assert_eq!(other_truth, truth, "{case}: {workers} workers");
            }
            for tile_stars in [1, 4, 11] {
                let want = crate::write_tiles(&sys, &dir, tile_stars).unwrap();
                for workers in [1, 2, 3, 8] {
                    let got = generator
                        .generate_tiled_on(&dir, tile_stars, workers)
                        .unwrap();
                    assert_eq!(
                        got.matrix_fingerprint, want.matrix_fingerprint,
                        "{case}: {tile_stars} stars a tile, {workers} workers"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hands `below` the words it is given, and no more.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for Words<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("below drew one word too many")
        }
    }

    fn below_words(n: u64, words: &[u64]) -> u64 {
        let mut rng = Words(words.iter());
        let got = below(&mut rng, n);
        assert_eq!(rng.0.len(), 0, "below({n}) left words undrawn");
        got
    }

    #[test]
    fn below_rejects_exactly_the_biased_low_products() {
        // A power-of-two range rejects nothing: one word, whatever it is.
        for n in (0..64).map(|k| 1u64 << k) {
            for word in [0, 1, n.wrapping_neg(), u64::MAX] {
                let want = ((u128::from(word) * u128::from(n)) >> 64) as u64;
                assert_eq!(below_words(n, &[word]), want, "n = {n}, word {word:#x}");
            }
        }
        // n = 3: both endpoints are reachable, and 2^64 mod 3 = 1 rejects
        // only the word whose low product is 0.
        assert_eq!(below_words(3, &[1]), 0);
        assert_eq!(below_words(3, &[u64::MAX]), 2);
        assert_eq!(below_words(3, &[0, u64::MAX]), 2);
        // n = 6: 2^64 mod 6 = 4, so a low product of 2 is rejected and one
        // of 4 — the threshold itself — is kept.
        assert_eq!(below_words(6, &[0x5555_5555_5555_5556]), 2);
        assert_eq!(
            below_words(6, &[0x2aaa_aaaa_aaaa_aaab, 0x5555_5555_5555_5556]),
            2
        );
    }

    proptest! {
        #[test]
        fn generated_systems_are_always_structurally_valid(
            seed in 0u64..1000,
            stars in 4u64..20,
            obs in 6u64..16,
        ) {
            let layout = SystemLayout {
                n_stars: stars,
                obs_per_star: obs,
                n_deg_freedom_att: 10,
                n_instr_params: 9,
                n_glob_params: 1,
                n_constraint_rows: 4,
            };
            prop_assume!(layout.validate().is_ok());
            // from_parts re-validates every invariant; generate() panics on
            // violation, so reaching here means the structure is valid.
            let sys = Generator::new(GeneratorConfig::new(layout).seed(seed)).generate();
            prop_assert_eq!(sys.n_rows() as u64, layout.n_rows());
        }

        #[test]
        fn instr_cols_distinct_sorted(seed in 0u64..200) {
            let sys = Generator::new(
                GeneratorConfig::new(SystemLayout::tiny()).seed(seed),
            ).generate();
            for row in 0..sys.n_obs_rows() {
                let (_, cols) = sys.instr_row(row);
                for w in cols.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }
}
