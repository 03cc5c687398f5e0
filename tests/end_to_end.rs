//! Integration: generator → backends → LSQR → validation, across crates.

use gaia_avugsr::backends::{all_backends, SeqBackend};
use gaia_avugsr::lsqr::distributed::solve_distributed;
use gaia_avugsr::lsqr::validate::GAIA_THRESHOLD_RAD;
use gaia_avugsr::lsqr::{compare_solutions, solve, LsqrConfig};
use gaia_avugsr::sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

fn radian_system(seed: u64) -> gaia_avugsr::sparse::SparseSystem {
    let layout = SystemLayout::tiny();
    let (mut sys, _) = Generator::new(
        GeneratorConfig::new(layout)
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-5 }),
    )
    .generate_with_truth();
    let b: Vec<f64> = sys.known_terms().iter().map(|v| v * 1e-7).collect();
    sys.set_known_terms(b);
    sys
}

#[test]
fn every_backend_validates_against_the_reference() {
    let sys = radian_system(1);
    let cfg = LsqrConfig::new();
    let reference = solve(&sys, &SeqBackend, &cfg);
    assert!(reference.stop.converged(), "{:?}", reference.stop);
    for backend in all_backends(3) {
        let sol = solve(&sys, &backend, &cfg);
        let agr = compare_solutions(&reference, &sol);
        assert!(
            agr.passes(0.99),
            "backend {} fails 1σ validation: {agr:?}",
            backend.name()
        );
        assert!(
            agr.stderr_within(GAIA_THRESHOLD_RAD),
            "backend {} exceeds 10 µas: {agr:?}",
            backend.name()
        );
    }
}

#[test]
fn distributed_and_serial_agree_for_every_rank_count() {
    let sys = radian_system(2);
    let cfg = LsqrConfig::new();
    let serial = solve(&sys, &SeqBackend, &cfg);
    for ranks in [1, 2, 4, 6] {
        let dist = solve_distributed(&sys, ranks, &cfg);
        let agr = compare_solutions(&serial, &dist);
        // Rank-ordered partial sums round differently from the sequential
        // reduction, so the convergence test may fire one iteration apart;
        // the solutions still agree far below the astrometric requirement.
        assert!(
            agr.max_abs_diff < 1e-10,
            "{ranks} ranks: max diff {}",
            agr.max_abs_diff
        );
        assert!(
            dist.iterations.abs_diff(serial.iterations) <= 1,
            "{ranks} ranks: {} vs {} iterations",
            dist.iterations,
            serial.iterations
        );
    }
}

#[test]
fn fixed_iteration_timing_protocol_runs_on_all_backends() {
    // The paper's timing protocol: fixed iterations, no convergence tests.
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(3)).generate();
    let cfg = LsqrConfig::fixed_iterations(10);
    for backend in all_backends(2) {
        let sol = solve(&sys, &backend, &cfg);
        assert_eq!(sol.iterations, 10, "{}", backend.name());
        assert_eq!(sol.history.len(), 10);
        assert!(sol.mean_iteration_seconds() >= 0.0);
    }
}

#[test]
fn solutions_are_deterministic_per_backend_and_seed() {
    let sys = radian_system(4);
    let cfg = LsqrConfig::new();
    // Deterministic backends must reproduce bit-identical solutions.
    for name in ["seq", "chunked", "streamed"] {
        let b = gaia_avugsr::backends::backend_by_name(name, 4).unwrap();
        let s1 = solve(&sys, &b, &cfg);
        let s2 = solve(&sys, &b, &cfg);
        assert_eq!(s1.x, s2.x, "{name} is not deterministic");
    }
}

/// A spill written by an older `gaia-tiles` format is regenerable, so the
/// CLI refuses it by name and leaves it alone — it neither reads it with
/// a second decoder nor streams a fresh system over it.
#[test]
fn solvergaia_refuses_an_old_spill_directory_and_leaves_it_untouched() {
    let dir = std::env::temp_dir().join(format!("gaia-cli-v1-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("manifest.json");
    let v1 = r#"{"format": "gaia-tiles/v1",
  "layout": {"n_stars": 6, "obs_per_star": 8, "n_deg_freedom_att": 16,
             "n_instr_params": 12, "n_glob_params": 1, "n_constraint_rows": 3},
  "seed": 1, "tile_stars": 6, "n_tiles": 1,
  "tiles": [{"index": 0, "star0": 0, "star1": 6, "constraint_rows": 3,
             "bytes": 10512, "checksum": "8c1f0a6d2b3e4f50"}],
  "known_terms_checksum": "1d2c3b4a59687766",
  "matrix_fingerprint": "0123456789abcdef",
  "source_fingerprint": "fedcba9876543210"}"#;
    std::fs::write(&manifest, v1).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
        .args(["--preset", "tiny", "--iterations", "2", "--tiles"])
        .arg(&dir)
        .output()
        .expect("run solvergaia");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in [
        "manifest.json",
        "gaia-tiles/v1",
        "gaia-tiles/v2",
        "regenerate",
    ] {
        assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
    }
    assert_eq!(std::fs::read_to_string(&manifest).unwrap(), v1);
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(
        left.len(),
        1,
        "nothing may be written next to the old manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
