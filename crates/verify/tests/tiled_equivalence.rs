//! Out-of-core equivalence over the committed seed corpus: solving
//! through a `gaia-tiles/v2` spill directory must be indistinguishable
//! from solving the resident system.
//!
//! Determinism classes mirror the kernel-equivalence suite:
//!
//! * `seq` and owner-computes `chunked` backends accumulate every output
//!   slot in ascending row order, and the tiled operator streams tiles in
//!   ascending row order, so the tiled solve is **bitwise** identical to
//!   the resident solve — at any capacity budget, including budgets that
//!   force evictions on every access;
//! * `striped` reduces in schedule-dependent stripe order, so two of its
//!   solves differ by rounding that compounds through the iterations; the
//!   tiled solve is held to the calibrated [`TRAJECTORY_ULP_BUDGET`]
//!   times the solve's own condition estimate, counted in ULPs of ‖x‖∞,
//!   instead.
//!
//! Streamed generation (`Generator::generate_tiled`) must round-trip:
//! assembling the spill directory reproduces the in-memory generator's
//! arrays bit for bit, index for index.

use std::path::{Path, PathBuf};

use gaia_backends::{backend_by_name, Backend};
use gaia_lsqr::{solve, solve_tiled, LsqrConfig};
use gaia_sparse::{fuzz, Generator, TiledSystem};
use gaia_verify::corpus;
use gaia_verify::trajectory::{TRAJECTORY_ITERS, TRAJECTORY_ULP_BUDGET};

/// Iterations for the fixed-trajectory solves: the count the trajectory
/// ULP budget was calibrated at, since rounding divergence compounds per
/// iteration.
const FIXED_ITERS: usize = TRAJECTORY_ITERS;

/// Stars per tile: small enough that every corpus layout (2–8 stars)
/// splits into multiple tiles, so the equivalence actually exercises the
/// gather/scatter seams between tiles.
const TILE_STARS: u64 = 1;

fn backend(name: &str) -> Box<dyn Backend> {
    backend_by_name(name, 3).unwrap_or_else(|| panic!("unknown backend {name:?}"))
}

/// Spill `seed`'s system into a scratch directory, run `f`, clean up.
fn with_tiles<R>(seed: u64, tag: &str, f: impl FnOnce(&PathBuf) -> R) -> R {
    let dir = std::env::temp_dir().join(format!(
        "gaia-verify-tiled-{}-{tag}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Generator::new(fuzz::config_from_seed(seed))
        .generate_tiled(&dir, TILE_STARS)
        .unwrap_or_else(|e| panic!("seed {seed}: streamed generation failed: {e}"));
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The two capacity budgets each solve runs under: everything resident,
/// and half the matrix (clamped up to the largest tile so the cache can
/// still operate), which forces evictions mid-solve.
fn budgets(tiles_dir: &Path) -> Vec<(&'static str, Option<u64>)> {
    let probe = TiledSystem::open(tiles_dir).expect("probe open");
    let half = (probe.matrix_bytes() / 2).max(probe.min_budget());
    vec![("unbounded", None), ("half-matrix", Some(half))]
}

fn open_at(dir: &Path, budget_bytes: Option<u64>) -> TiledSystem {
    match budget_bytes {
        None => TiledSystem::open(dir),
        Some(b) => TiledSystem::open_with_budget(dir, gaia_sparse::CapacityBudget::limited(b)),
    }
    .expect("open tiled system")
}

#[test]
fn tiled_solves_are_bitwise_identical_to_resident_for_ordered_backends() {
    let cfg = LsqrConfig::fixed_iterations(FIXED_ITERS);
    for seed in corpus::corpus_seeds() {
        let sys = fuzz::system_from_seed(seed);
        with_tiles(seed, "bitwise", |dir| {
            for name in ["seq", "chunked-t3"] {
                let be = backend(name);
                let resident = solve(&sys, be.as_ref(), &cfg);
                for (blabel, bytes) in budgets(dir) {
                    let tiles = open_at(dir, bytes);
                    let tiled = solve_tiled(&tiles, be.as_ref(), &cfg)
                        .unwrap_or_else(|e| panic!("seed {seed} {name} {blabel}: {e}"));
                    assert_eq!(resident.iterations, tiled.iterations, "seed {seed} {name}");
                    for (i, (r, t)) in resident.x.iter().zip(&tiled.x).enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            t.to_bits(),
                            "seed {seed} backend {name} budget {blabel}: x[{i}] \
                             resident={r:e} tiled={t:e}"
                        );
                    }
                    if bytes.is_some() {
                        assert!(
                            tiles.stats().evictions > 0,
                            "seed {seed} {name} {blabel}: bounded budget never evicted \
                             (the eviction path was not exercised)"
                        );
                    }
                }
            }
        });
    }
}

/// Largest |resident − tiled| over the solution, in units of the spacing
/// of doubles at ‖resident‖∞. LSQR's rounding error is normwise — every
/// component inherits noise of the size of the largest — so a
/// per-component relative bound would be meaningless on the components
/// that happen to be small.
fn worst_ulps_of_norm(resident: &[f64], tiled: &[f64]) -> f64 {
    let norm = resident.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let spacing = f64::from_bits(norm.to_bits() + 1) - norm;
    let diff = resident
        .iter()
        .zip(tiled)
        .fold(0.0f64, |m, (r, t)| m.max((r - t).abs()));
    diff / spacing
}

#[test]
fn tiled_striped_solves_match_resident_within_tolerance() {
    let cfg = LsqrConfig::fixed_iterations(FIXED_ITERS);
    // Two `striped-t3` solves are compared, and each reduces in whatever
    // order its stripes finished, so no constant picked for one schedule
    // can bound their distance. The error model instead: reordering a
    // reduction perturbs the recurrence by at most the trajectory budget
    // (calibrated over this corpus, at this iteration count, for exactly
    // that perturbation), and a perturbation of the recurrence reaches
    // the solution amplified by at most cond(A), which the solve itself
    // estimates. Measured over 450 runs on two contended cores: worst
    // 38 662 ULP of ‖x‖∞ (seed 42, cond ≈ 22, budget 1.4 M ULP), every
    // other seed below 100. A dropped or doubled tile contribution is an
    // O(‖x‖) error: 2^52 ULP.
    let mut worst = (0.0f64, 1.0f64, 0u64, "");
    for seed in corpus::corpus_seeds() {
        let sys = fuzz::system_from_seed(seed);
        with_tiles(seed, "striped", |dir| {
            let be = backend("striped-t3");
            let resident = solve(&sys, be.as_ref(), &cfg);
            let budget = TRAJECTORY_ULP_BUDGET as f64 * resident.acond.max(1.0);
            for (blabel, bytes) in budgets(dir) {
                let tiles = open_at(dir, bytes);
                let tiled = solve_tiled(&tiles, be.as_ref(), &cfg)
                    .unwrap_or_else(|e| panic!("seed {seed} striped {blabel}: {e}"));
                assert_eq!(resident.x.len(), tiled.x.len(), "seed {seed} {blabel}");
                let ulps = worst_ulps_of_norm(&resident.x, &tiled.x);
                assert!(
                    ulps <= budget,
                    "seed {seed} striped budget {blabel}: tiled and resident differ by \
                     {ulps:.0} ULP of ‖x‖∞, over the budget of {budget:.0} \
                     (2^16 x cond {:.1})",
                    resident.acond
                );
                if ulps / budget > worst.0 / worst.1 {
                    worst = (ulps, budget, seed, blabel);
                }
            }
        });
    }
    println!(
        "striped tiled-vs-resident: worst margin at seed {} ({} budget): {:.0} ULP of ‖x‖∞ \
         against {:.0} allowed, {:.0}x inside",
        worst.2,
        worst.3,
        worst.0,
        worst.1,
        worst.1 / worst.0.max(1.0)
    );
}

#[test]
fn streamed_generation_round_trips_bit_identically() {
    for seed in corpus::corpus_seeds() {
        let resident = fuzz::system_from_seed(seed);
        with_tiles(seed, "roundtrip", |dir| {
            let tiles = TiledSystem::open(dir).expect("open");
            let assembled = tiles.assemble().expect("assemble");
            assert_eq!(assembled.layout(), resident.layout(), "seed {seed}");
            assert_eq!(
                assembled.known_terms(),
                resident.known_terms(),
                "seed {seed}: known terms"
            );
            assert_eq!(
                assembled.values_astro(),
                resident.values_astro(),
                "seed {seed}: astro values"
            );
            assert_eq!(
                assembled.values_att(),
                resident.values_att(),
                "seed {seed}: att values"
            );
            assert_eq!(
                assembled.values_instr(),
                resident.values_instr(),
                "seed {seed}: instr values"
            );
            assert_eq!(
                assembled.values_glob(),
                resident.values_glob(),
                "seed {seed}: glob values"
            );
            assert_eq!(
                assembled.matrix_index_astro(),
                resident.matrix_index_astro(),
                "seed {seed}: astro indices"
            );
            assert_eq!(
                assembled.matrix_index_att(),
                resident.matrix_index_att(),
                "seed {seed}: att indices"
            );
            assert_eq!(
                assembled.instr_col(),
                resident.instr_col(),
                "seed {seed}: instr columns"
            );
        });
    }
}
