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

use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::constraints::build_constraint_rows;
use crate::layout::SystemLayout;
use crate::system::{SparseSystem, ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW};
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
    /// the right-hand side (`None` for [`Rhs::Random`]).
    pub fn generate_with_truth(&self) -> (SparseSystem, Option<Vec<f64>>) {
        let layout = self.config.layout;
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let n_obs = layout.n_obs_rows() as usize;
        let n_rows = layout.n_rows() as usize;

        let mut values_astro = vec![0.0f64; n_obs * ASTRO_NNZ_PER_ROW];
        for v in &mut values_astro {
            *v = draw_coeff(&mut rng);
        }
        let mut values_att = vec![0.0f64; n_rows * ATT_NNZ_PER_ROW];
        for v in values_att[..n_obs * ATT_NNZ_PER_ROW].iter_mut() {
            *v = draw_coeff(&mut rng);
        }
        let mut values_instr = vec![0.0f64; n_obs * INSTR_NNZ_PER_ROW];
        for v in &mut values_instr {
            *v = draw_coeff(&mut rng);
        }
        let mut values_glob = vec![0.0f64; n_obs * layout.n_glob_params as usize];
        for v in &mut values_glob {
            *v = draw_coeff(&mut rng);
        }

        // matrixIndexAtt: time-ordered traversal of the axis segment with
        // small jitter — consecutive observations see nearby attitude
        // parameters. The traversal shape depends on the attitude pattern.
        let max_off = layout.n_deg_freedom_att - ATT_PARAMS_PER_AXIS as u64;
        let mut matrix_index_att = vec![0u32; n_rows];
        for (row, slot) in matrix_index_att[..n_obs].iter_mut().enumerate() {
            let t = if n_obs <= 1 {
                0.0
            } else {
                row as f64 / (n_obs as f64 - 1.0)
            };
            let base = match self.config.attitude {
                AttitudePattern::LinearSweep => (t * max_off as f64) as u64,
                AttitudePattern::ScanLaw { revolutions } => {
                    // Triangle-wave sweep: |…| of a sawtooth, so the
                    // segment is crossed `revolutions` times with smooth
                    // turnarounds (locality preserved at every step).
                    let phase = t * f64::from(revolutions.max(1));
                    let tri = 1.0 - (2.0 * (phase - phase.floor()) - 1.0).abs();
                    (tri * max_off as f64) as u64
                }
            };
            let jitter = rng.gen_range(0..=2u64);
            // At most `max_off`, which the validated layout keeps in u32.
            *slot = (base + jitter).min(max_off) as u32;
        }

        // instrCol: 6 distinct, sorted columns per row.
        let mut instr_col = vec![0u32; n_obs * INSTR_NNZ_PER_ROW];
        let n_instr = layout.n_instr_params;
        for row in 0..n_obs {
            let slots = &mut instr_col[row * INSTR_NNZ_PER_ROW..(row + 1) * INSTR_NNZ_PER_ROW];
            match self.config.instrument {
                InstrumentPattern::Uniform => sample_distinct_sorted(&mut rng, n_instr, slots),
                InstrumentPattern::Grouped => {
                    // One column from each of 6 near-equal groups; groups
                    // are contiguous, so the result is sorted and distinct
                    // by construction.
                    for (g, slot) in slots.iter_mut().enumerate() {
                        let g = g as u64;
                        let start = g * n_instr / INSTR_NNZ_PER_ROW as u64;
                        let end = (g + 1) * n_instr / INSTR_NNZ_PER_ROW as u64;
                        *slot = rng.gen_range(start..end.max(start + 1)) as u32;
                    }
                }
            }
        }

        // Constraint rows: attitude-only, appended at the end.
        let (constr_vals, constr_offs) = build_constraint_rows(&layout, &mut rng);
        values_att[n_obs * ATT_NNZ_PER_ROW..].copy_from_slice(&constr_vals);
        matrix_index_att[n_obs..].copy_from_slice(&constr_offs);

        let known_terms = vec![0.0f64; n_rows];
        let mut system = SparseSystem::from_parts(
            layout,
            values_astro,
            values_att,
            values_instr,
            values_glob,
            matrix_index_att,
            instr_col,
            known_terms,
        )
        .expect("generator produced an invalid system");

        let truth = match self.config.rhs {
            Rhs::Random => {
                let b: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
                system.set_known_terms(b);
                None
            }
            Rhs::FromTrueSolution { noise_sigma } => {
                let x_true: Vec<f64> = (0..system.n_cols())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let mut b = vec![0.0f64; n_rows];
                for (row, slot) in b.iter_mut().enumerate() {
                    *slot = system.row_dot(row, &x_true)
                        + if noise_sigma > 0.0 {
                            noise_sigma * gaussian(&mut rng)
                        } else {
                            0.0
                        };
                }
                system.set_known_terms(b);
                Some(x_true)
            }
        };
        (system, truth)
    }

    /// Streamed (chunk-at-a-time) generation straight to a `gaia-tiles/v3`
    /// spill directory with `tile_stars` stars per tile: the full system is
    /// never materialized in memory, yet the tiles are bit-identical to
    /// tiling the in-memory [`Generator::generate`] output (same seed ⇒
    /// same bytes). The capacity budget applies when the directory is
    /// *opened* for solving ([`crate::tiled::TiledSystem::open_with_budget`]),
    /// not at generation time — generation is inherently streaming.
    pub fn generate_tiled(
        &self,
        dir: &Path,
        tile_stars: u64,
    ) -> Result<crate::tiled::TileManifest, crate::tiled::TileError> {
        crate::tiled::generate_tiled_impl(&self.config, dir, tile_stars)
    }
}

/// Coefficient values: uniform in [-1, 1), excluding near-zero values
/// so that no stored non-zero degenerates (mirrors the artifact, which
/// draws from the same kind of bounded distribution). Shared with the
/// streamed tiled generator, which must replay the identical RNG stream.
pub(crate) fn draw_coeff<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let v: f64 = rng.gen_range(-1.0..1.0);
        if v.abs() > 1e-3 {
            return v;
        }
    }
}

/// Draw `out.len()` distinct values from `0..n`, sorted ascending.
/// `n` may be small (tests use 8), so rejection sampling with a retry loop
/// is both simple and adequate.
pub(crate) fn sample_distinct_sorted<R: Rng>(rng: &mut R, n: u64, out: &mut [u32]) {
    debug_assert!(n as usize >= out.len());
    let k = out.len();
    let mut chosen: Vec<u32> = Vec::with_capacity(k);
    while chosen.len() < k {
        let c = rng.gen_range(0..n) as u32;
        if !chosen.contains(&c) {
            chosen.push(c);
        }
    }
    chosen.sort_unstable();
    out.copy_from_slice(&chosen);
}

/// Standard normal variate via Box–Muller (avoids pulling in `rand_distr`).
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
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
