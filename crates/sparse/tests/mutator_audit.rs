//! Mutator audit: every `SparseSystem` mutator must invalidate *both*
//! derived views of the matrix — the lazily-built ELL mirror and any
//! tile manifest spilled from the pre-mutation arrays. A mutator that
//! misses either leaves a consumer (auto-tuned ELL kernels, an
//! out-of-core resume) silently computing on stale data.
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

/// Apply each mutator to a warmed system and assert the rebuilt ELL
/// mirror reflects the mutation (a stale cache would round-trip the
/// *old* arrays).
#[test]
fn every_mutator_invalidates_the_ell_mirror() {
    // set_known_terms: the mirror carries the known terms.
    let mut s = system(501);
    let _ = s.ell(); // warm the cache
    let mut b = s.known_terms().to_vec();
    b[0] += 1.0;
    s.set_known_terms(b.clone());
    let round = s.ell().to_system().expect("ell round-trip");
    assert_eq!(
        round.known_terms()[0].to_bits(),
        b[0].to_bits(),
        "set_known_terms left a stale ELL mirror"
    );

    // scale_column: slot-major astro values must re-derive.
    let mut s = system(502);
    let before = s.ell().astro_slot(0)[0];
    let touched = s.scale_column(0, 2.0);
    assert!(touched > 0, "astro column 0 must have coefficients");
    assert_eq!(
        s.ell().astro_slot(0)[0].to_bits(),
        (2.0 * before).to_bits(),
        "scale_column left a stale ELL mirror"
    );

    // permute_rows: row-major and slot-major must agree post-permutation.
    let mut s = system(503);
    let _ = s.ell();
    let perm = fuzz::permutation_within_stars(7, s.layout());
    s.permute_rows(&perm).expect("star-preserving permutation");
    let round = s.ell().to_system().expect("ell round-trip");
    assert_eq!(
        round.values_att(),
        s.values_att(),
        "permute_rows left a stale ELL mirror"
    );
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
            Box::new(|s: &mut SparseSystem| {
                s.scale_column(0, 3.0);
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

/// Bit patterns of the eight arrays.
fn arrays(s: &SparseSystem) -> [Vec<u64>; 8] {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    [
        bits(s.values_astro()),
        bits(s.values_att()),
        bits(s.values_instr()),
        bits(s.values_glob()),
        s.matrix_index_astro().to_vec(),
        s.matrix_index_att().to_vec(),
        s.instr_col().iter().map(|&c| u64::from(c)).collect(),
        bits(s.known_terms()),
    ]
}

/// The eight arrays the ELL mirror currently stands for.
fn mirrored(s: &SparseSystem) -> [Vec<u64>; 8] {
    arrays(&s.ell().to_system().expect("ell round-trip"))
}

/// Copy-on-write: mutate a clone and a row-block view of a parent whose
/// mirror is warm. The parent keeps its bits, its mirror and its manifest;
/// the mutant stops sharing, changes, and rebuilds its own mirror.
#[test]
fn a_mutated_clone_or_view_never_changes_its_parent() {
    for (name, mutate) in mutators() {
        let parent = system(506);
        let dir = scratch(&format!("cow-{name}"));
        let manifest = write_tiles(&parent, &dir, 2).expect("spill");
        let parent_before = arrays(&parent);
        assert_eq!(mirrored(&parent), parent_before);
        let n_stars = parent.layout().n_stars;
        let mutants = [
            ("clone", parent.clone()),
            ("view", parent.row_block(1..n_stars, true).system),
        ];
        for (kind, mut mutant) in mutants {
            let what = format!("{name} on a {kind}");
            assert!(mutant.shares_storage_with(&parent), "{what}");
            let before = arrays(&mutant);
            assert_eq!(mirrored(&mutant), before, "{what}");
            mutate(&mut mutant);

            assert_ne!(arrays(&mutant), before, "{what}: nothing changed");
            assert_eq!(mirrored(&mutant), arrays(&mutant), "{what}: stale mirror");
            assert!(!mutant.shares_storage_with(&parent), "{what}");
            assert!(
                matches!(
                    manifest.verify_matches(&mutant),
                    Err(TileError::StaleManifest { .. })
                ),
                "{what}: the parent's manifest must not vouch for the mutant"
            );

            assert_eq!(arrays(&parent), parent_before, "{what}: parent arrays");
            assert_eq!(mirrored(&parent), parent_before, "{what}: parent mirror");
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
