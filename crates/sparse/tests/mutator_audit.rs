//! Mutator audit: every `SparseSystem` mutator must invalidate any tile
//! manifest spilled from the pre-mutation arrays. A mutator that misses
//! it leaves an out-of-core resume silently computing on stale data.
//!
//! The arrays are reference-counted, so a mutator must also copy what it
//! writes: a clone or a `row_block` view that is mutated never changes
//! the system it shares storage with.

use std::path::PathBuf;

use gaia_sparse::{
    fuzz, write_tiles, Generator, GeneratorConfig, Rhs, SparseSystem, SystemLayout, TileError,
};

fn system(seed: u64) -> SparseSystem {
    Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gaia-mutator-audit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Mutator = Box<dyn Fn(&mut SparseSystem)>;

fn mutators() -> Vec<(&'static str, Mutator)> {
    vec![
        (
            "set_known_terms",
            Box::new(|s: &mut SparseSystem| {
                let mut b = s.known_terms().to_vec();
                b[0] += 1.0;
                s.set_known_terms(b);
            }),
        ),
        (
            "scale_column",
            // The system's first astrometric column: column 0 of a whole
            // system, and its first star's first column on a row block,
            // which keeps its parent's column space.
            Box::new(|s: &mut SparseSystem| {
                s.scale_column(5 * s.star0(), 3.0);
            }),
        ),
        (
            "permute_rows",
            Box::new(|s: &mut SparseSystem| {
                let perm = fuzz::permutation_within_stars(11, s.layout());
                s.permute_rows(&perm).expect("valid permutation");
            }),
        ),
    ]
}

/// Spill the system to tiles, then mutate the resident copy each way:
/// the manifest must flag every mutation as stale rather than letting a
/// resume stream pre-mutation coefficients.
#[test]
fn every_mutator_is_detected_by_the_tile_manifest() {
    for (name, mutate) in mutators() {
        let mut sys = system(504);
        let dir = scratch(name);
        let manifest = write_tiles(&sys, &dir, 2).expect("spill");
        manifest
            .verify_matches(&sys)
            .expect("unmutated system must match its manifest");
        mutate(&mut sys);
        let err = manifest
            .verify_matches(&sys)
            .expect_err(&format!("{name}: mutation after tile write undetected"));
        assert!(
            matches!(err, TileError::StaleManifest { .. }),
            "{name}: expected StaleManifest, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Bit patterns of the seven arrays.
fn arrays(s: &SparseSystem) -> [Vec<u64>; 7] {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    [
        bits(s.values_astro()),
        bits(s.values_att()),
        bits(s.values_instr()),
        bits(s.values_glob()),
        s.matrix_index_att().iter().map(|&o| u64::from(o)).collect(),
        s.instr_col().iter().map(|&c| u64::from(c)).collect(),
        bits(s.known_terms()),
    ]
}

/// Copy-on-write: mutate a clone and a row-block view of a parent. The
/// parent keeps its bits and its manifest; the mutant stops sharing and
/// changes in its own arrays.
#[test]
fn a_mutated_clone_or_view_never_changes_its_parent() {
    for (name, mutate) in mutators() {
        let parent = system(506);
        let dir = scratch(&format!("cow-{name}"));
        let manifest = write_tiles(&parent, &dir, 2).expect("spill");
        let parent_before = arrays(&parent);
        let n_stars = parent.layout().n_stars;
        let mutants = [
            ("clone", parent.clone()),
            ("view", parent.row_block(1..n_stars, true).system),
        ];
        for (kind, mut mutant) in mutants {
            let what = format!("{name} on a {kind}");
            assert!(mutant.shares_storage_with(&parent), "{what}");
            let before = arrays(&mutant);
            mutate(&mut mutant);

            assert_ne!(arrays(&mutant), before, "{what}: nothing changed");
            assert!(!mutant.shares_storage_with(&parent), "{what}");
            assert!(
                matches!(
                    manifest.verify_matches(&mutant),
                    Err(TileError::StaleManifest { .. })
                ),
                "{what}: the parent's manifest must not vouch for the mutant"
            );

            assert_eq!(arrays(&parent), parent_before, "{what}: parent arrays");
            manifest
                .verify_matches(&parent)
                .unwrap_or_else(|e| panic!("{what}: parent went stale: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The identity permutation is the one mutation-shaped call that changes
/// nothing: the manifest must still match (the staleness check keys on
/// content, not on "a mutator ran").
#[test]
fn identity_permutation_keeps_the_manifest_fresh() {
    let mut sys = system(505);
    let dir = scratch("identity");
    let manifest = write_tiles(&sys, &dir, 2).expect("spill");
    let identity: Vec<usize> = (0..sys.n_rows()).collect();
    sys.permute_rows(&identity).expect("identity permutation");
    manifest
        .verify_matches(&sys)
        .expect("identity permutation must not stale the manifest");
    std::fs::remove_dir_all(&dir).ok();
}
