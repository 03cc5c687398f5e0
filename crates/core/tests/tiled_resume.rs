//! Checkpoint/resume for out-of-core solves: a tiled run interrupted at
//! *any* iteration must resume bit-identically from its rotation chain,
//! survive the spill directory being relocated (via the `GAIA_TILES_DIR`
//! override recorded provenance resolves through), and refuse to resume
//! against a different or corrupted tile set.
//!
//! Environment-variable manipulation is confined to this file (one test,
//! `#[serial]`-style by being the only env-touching test in the binary).

use std::path::{Path, PathBuf};

use gaia_backends::SeqBackend;
use gaia_lsqr::checkpoint::{Checkpoint, CheckpointError, CheckpointRotation};
use gaia_lsqr::{solve_tiled, LsqrConfig, OperatorLsqr, TiledOperator};
use gaia_sparse::{CapacityBudget, Generator, GeneratorConfig, Rhs, SystemLayout, TiledSystem};

const ITERS: usize = 8;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gaia-tiled-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spill(dir: &Path, seed: u64) {
    Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate_tiled(dir, 2)
    .expect("streamed generation");
}

/// Budget that holds exactly one tile: every access after the first tile
/// evicts, so resume correctness is tested under live cache pressure.
fn open_tight(dir: &Path) -> TiledSystem {
    let probe = TiledSystem::open(dir).expect("probe");
    let min = probe.min_budget();
    drop(probe);
    TiledSystem::open_with_budget(dir, CapacityBudget::limited(min)).expect("open tight")
}

#[test]
fn crash_at_every_iteration_resumes_bit_identically() {
    let tiles_dir = scratch("crash");
    spill(&tiles_dir, 77);
    let cfg = LsqrConfig::fixed_iterations(ITERS);

    let tiles = open_tight(&tiles_dir);
    let direct = solve_tiled(&tiles, &SeqBackend, &cfg).expect("direct solve");

    let ckpt_dir = scratch("crash-ckpts");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    for crash_after in 1..ITERS {
        // Run `crash_after` iterations, checkpointing each into a
        // rotation chain, then "crash" (drop everything).
        let rot = CheckpointRotation::new(ckpt_dir.join(format!("run-{crash_after}")), 2);
        {
            let tiles = open_tight(&tiles_dir);
            let solver =
                OperatorLsqr::new(TiledOperator::new(&tiles, &SeqBackend), cfg).expect("solver");
            let mut state = solver.try_init_state().expect("init");
            for _ in 0..crash_after {
                solver.try_step(&mut state).expect("step");
                let ckpt = Checkpoint::capture_operator(solver.operator(), &cfg, &state);
                rot.save(state.itn, &ckpt).expect("rotation save");
            }
        }
        // Resume in a fresh process-equivalent: reopen the tile set, load
        // the newest snapshot, validate provenance, run to completion.
        let tiles = open_tight(&tiles_dir);
        let (itn, ckpt) = rot.latest().expect("rotation has a snapshot");
        assert_eq!(itn, crash_after);
        let solver =
            OperatorLsqr::new(TiledOperator::new(&tiles, &SeqBackend), cfg).expect("solver");
        let state = ckpt
            .restore_operator(solver.operator(), &cfg)
            .expect("restore");
        let resumed = solver.try_run_from(state).expect("resume");

        assert_eq!(resumed.iterations, direct.iterations, "crash@{crash_after}");
        for (i, (d, r)) in direct.x.iter().zip(&resumed.x).enumerate() {
            assert_eq!(
                d.to_bits(),
                r.to_bits(),
                "crash@{crash_after}: x[{i}] direct={d:e} resumed={r:e}"
            );
        }
    }
    std::fs::remove_dir_all(&tiles_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

#[test]
fn moved_spill_dir_resumes_through_env_override() {
    let old_dir = scratch("move-old");
    spill(&old_dir, 78);
    let cfg = LsqrConfig::fixed_iterations(ITERS);

    let tiles = open_tight(&old_dir);
    let direct = solve_tiled(&tiles, &SeqBackend, &cfg).expect("direct");
    let solver = OperatorLsqr::new(TiledOperator::new(&tiles, &SeqBackend), cfg).expect("solver");
    let mut state = solver.try_init_state().expect("init");
    for _ in 0..3 {
        solver.try_step(&mut state).expect("step");
    }
    let ckpt = Checkpoint::capture_operator(solver.operator(), &cfg, &state);
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).unwrap();
    drop(solver);
    drop(tiles);

    // Relocate the spill directory, as a scheduler moving scratch space
    // between allocations would.
    let new_dir = scratch("move-new");
    std::fs::rename(&old_dir, &new_dir).expect("relocate spill dir");

    let loaded = Checkpoint::read_from(buf.as_slice()).unwrap();
    let prov = loaded
        .tiles
        .clone()
        .expect("tiled checkpoint has provenance");
    // Without the override the recorded (now stale) path comes back…
    assert_eq!(prov.resolved_dir(), PathBuf::from(&prov.dir));
    assert!(!prov.resolved_dir().exists(), "old path must be gone");
    // …and with it, the relocated directory.
    std::env::set_var(gaia_sparse::TILES_DIR_ENV, &new_dir);
    let resolved = prov.resolved_dir();
    std::env::remove_var(gaia_sparse::TILES_DIR_ENV);
    assert_eq!(resolved, new_dir);

    let tiles = TiledSystem::open(&resolved).expect("open relocated spill dir");
    let solver = OperatorLsqr::new(TiledOperator::new(&tiles, &SeqBackend), cfg).expect("solver");
    let state = loaded
        .restore_operator(solver.operator(), &cfg)
        .expect("restore after move");
    let resumed = solver.try_run_from(state).expect("resume");
    assert_eq!(
        direct
            .x
            .iter()
            .zip(&resumed.x)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count(),
        0,
        "resume after relocation must be bit-identical"
    );
    std::fs::remove_dir_all(&new_dir).ok();
}

#[test]
fn regenerated_tile_set_is_rejected_on_resume() {
    let dir = scratch("regen");
    spill(&dir, 79);
    let cfg = LsqrConfig::fixed_iterations(ITERS);

    let tiles = TiledSystem::open(&dir).expect("open");
    let solver = OperatorLsqr::new(TiledOperator::new(&tiles, &SeqBackend), cfg).expect("solver");
    let mut state = solver.try_init_state().expect("init");
    solver.try_step(&mut state).expect("step");
    let ckpt = Checkpoint::capture_operator(solver.operator(), &cfg, &state);
    drop(solver);
    drop(tiles);

    // Same path, same shape — but a different matrix: the provenance
    // fingerprint (not the path) must be the authority.
    let _ = std::fs::remove_dir_all(&dir);
    Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(80)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate_tiled(&dir, 2)
    .expect("regenerate");
    let other = TiledSystem::open(&dir).expect("reopen");
    let err = ckpt
        .restore_operator(&TiledOperator::new(&other, &SeqBackend), &cfg)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "expected mismatch, got {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_tile_checksum_fails_the_solve_naming_the_tile() {
    let dir = scratch("corrupt");
    spill(&dir, 81);
    let cfg = LsqrConfig::fixed_iterations(ITERS);

    // Flip one payload byte of the second tile file.
    let victim = dir.join("tile-00001.bin");
    let mut bytes = std::fs::read(&victim).expect("read tile");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&victim, bytes).expect("write corrupted tile");

    let tiles = TiledSystem::open(&dir).expect("open (manifest itself is intact)");
    let err = solve_tiled(&tiles, &SeqBackend, &cfg).expect_err("corrupted tile must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("tile-00001.bin"),
        "error must name the corrupted tile path, got: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
