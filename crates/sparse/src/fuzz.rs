//! Seeded fuzz entry points for the verification harness.
//!
//! `gaia-verify`'s metamorphic suite explores many randomly-shaped systems;
//! everything here is a **pure function of a `u64` seed**, so any failure a
//! property test finds reproduces from the seed alone. The seeds that drive
//! CI live in a committed corpus file in `crates/verify`, and
//! `scripts/replay_verify_seed.sh` replays a single one.
//!
//! The generated layouts are deliberately small (tens to a few hundred
//! rows) so a full solve takes microseconds, but they vary every structural
//! degree of freedom: star count, observations per star, attitude DOF and
//! time pattern, instrument table width and pattern, presence of the global
//! parameter, and the number of constraint rows.

use crate::generator::{mix, AttitudePattern, Generator, GeneratorConfig, InstrumentPattern, Rhs};
use crate::layout::SystemLayout;
use crate::system::SparseSystem;

/// Draw from `lo..=hi` using an independent stream of `seed` labeled by
/// `stream`, through the generator's SplitMix64 finalizer: one call per
/// decision keeps every draw independent of ordering.
fn draw(seed: u64, stream: u64, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    lo + mix(seed ^ mix(stream)) % (hi - lo + 1)
}

/// A small random-but-valid [`SystemLayout`], a pure function of `seed`.
///
/// `obs_per_star` is raised as needed to keep the system overdetermined,
/// so `validate()` always passes.
pub fn layout_from_seed(seed: u64) -> SystemLayout {
    let n_stars = draw(seed, 1, 2, 8);
    let n_deg_freedom_att = draw(seed, 2, 4, 12);
    let n_instr_params = draw(seed, 3, 6, 16);
    let n_glob_params = draw(seed, 4, 0, 1) as u32;
    let n_constraint_rows = draw(seed, 5, 0, 6);
    let n_cols = n_stars * crate::ASTRO_PARAMS_PER_STAR as u64
        + crate::ATT_AXES as u64 * n_deg_freedom_att
        + n_instr_params
        + n_glob_params as u64;
    // Enough observations per star to be overdetermined, plus random slack.
    let needed = n_cols.saturating_sub(n_constraint_rows).div_ceil(n_stars);
    let obs_per_star = needed + draw(seed, 6, 1, 8);
    let layout = SystemLayout {
        n_stars,
        obs_per_star,
        n_deg_freedom_att,
        n_instr_params,
        n_glob_params,
        n_constraint_rows,
    };
    layout
        .validate()
        .expect("layout_from_seed must always be valid");
    layout
}

/// The generator configuration for `seed`: the layout of
/// [`layout_from_seed`] plus seed-selected attitude / instrument / RHS
/// modes.
pub fn config_from_seed(seed: u64) -> GeneratorConfig {
    let attitude = if draw(seed, 7, 0, 1) == 0 {
        AttitudePattern::LinearSweep
    } else {
        AttitudePattern::ScanLaw {
            revolutions: draw(seed, 8, 2, 5) as u32,
        }
    };
    let instrument = if draw(seed, 9, 0, 1) == 0 {
        InstrumentPattern::Uniform
    } else {
        InstrumentPattern::Grouped
    };
    GeneratorConfig::new(layout_from_seed(seed))
        .seed(mix(seed ^ 0x5eed))
        .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 })
        .attitude(attitude)
        .instrument(instrument)
}

/// A complete random small system, a pure function of `seed`.
pub fn system_from_seed(seed: u64) -> SparseSystem {
    Generator::new(config_from_seed(seed)).generate()
}

/// Like [`system_from_seed`] but also returns the true solution the known
/// terms were synthesized from (for known-solution recovery properties).
pub fn system_with_truth_from_seed(seed: u64) -> (SparseSystem, Vec<f64>) {
    let (system, truth) = Generator::new(config_from_seed(seed)).generate_with_truth();
    (
        system,
        truth.expect("config_from_seed always uses Rhs::FromTrueSolution"),
    )
}

/// A seeded star-preserving row permutation for `layout`: each star's
/// observation rows are shuffled among themselves and the constraint rows
/// among themselves, which is exactly the class
/// [`SparseSystem::permute_rows`] accepts.
pub fn permutation_within_stars(seed: u64, layout: &SystemLayout) -> Vec<usize> {
    let n_obs = layout.n_obs_rows() as usize;
    let n_rows = layout.n_rows() as usize;
    let mut perm: Vec<usize> = (0..n_rows).collect();
    let mut shuffle = |range: std::ops::Range<usize>, stream: u64| {
        let len = range.end - range.start;
        for i in (1..len).rev() {
            let j = (mix(seed ^ mix(stream ^ (i as u64) << 8)) % (i as u64 + 1)) as usize;
            perm.swap(range.start + i, range.start + j);
        }
    };
    for star in 0..layout.n_stars {
        let r = layout.rows_of_star(star);
        shuffle(r.start as usize..r.end as usize, star);
    }
    shuffle(n_obs..n_rows, u64::MAX);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_are_valid_and_seed_sensitive_for_many_seeds() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..200 {
            let l = layout_from_seed(seed);
            l.validate().unwrap();
            distinct.insert((l.n_stars, l.obs_per_star, l.n_deg_freedom_att));
        }
        assert!(
            distinct.len() > 50,
            "only {} distinct shapes",
            distinct.len()
        );
    }

    #[test]
    fn systems_are_bit_identical_per_seed() {
        let a = system_from_seed(42);
        let b = system_from_seed(42);
        assert_eq!(a.values_att(), b.values_att());
        assert_eq!(a.known_terms(), b.known_terms());
        assert_eq!(a.instr_col(), b.instr_col());
    }

    #[test]
    fn permutations_are_accepted_and_nontrivial() {
        let mut moved = 0usize;
        for seed in 0..20 {
            let mut s = system_from_seed(seed);
            let perm = permutation_within_stars(seed, s.layout());
            s.permute_rows(&perm).unwrap();
            moved += perm.iter().enumerate().filter(|&(i, &p)| i != p).count();
        }
        assert!(moved > 0, "no permutation moved any row");
    }

    #[test]
    fn truth_vector_matches_column_count() {
        let (s, truth) = system_with_truth_from_seed(7);
        assert_eq!(truth.len(), s.n_cols());
    }
}
