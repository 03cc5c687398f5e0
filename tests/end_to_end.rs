//! Integration: generator → backends → LSQR → validation, across crates.

use gaia_avugsr::backends::{all_backends, backend_by_name, Backend, SeqBackend};
use gaia_avugsr::lsqr::distributed::{solve_distributed, try_solve_hybrid, DistOptions};
use gaia_avugsr::lsqr::validate::GAIA_THRESHOLD_RAD;
use gaia_avugsr::lsqr::{compare_solutions, solve, solve_tiled, LsqrConfig, Solution};
use gaia_avugsr::sparse::{
    write_tiles, CapacityBudget, Generator, GeneratorConfig, Rhs, SystemLayout, TiledSystem,
};

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

/// Every backend resident, and `atomic-t2` on the two callers that hand
/// its one-launch Golub–Kahan pass a view — 1–4 ranks of a hybrid solve,
/// and a tiled solve at three cache budgets — converge and pass Fig. 6
/// against the sequential reference.
#[test]
fn every_backend_validates_against_the_reference() {
    let sys = radian_system(1);
    let cfg = LsqrConfig::new();
    let reference = solve(&sys, &SeqBackend, &cfg);
    assert!(reference.stop.converged(), "{:?}", reference.stop);
    let validate = |what: &str, sol: &Solution| {
        assert!(sol.stop.converged(), "{what}: {:?}", sol.stop);
        let agr = compare_solutions(&reference, sol);
        assert!(agr.passes(0.99), "{what} fails 1σ validation: {agr:?}");
        assert!(
            agr.stderr_within(GAIA_THRESHOLD_RAD),
            "{what} exceeds 10 µas: {agr:?}"
        );
    };
    for backend in all_backends(3) {
        validate(&backend.name(), &solve(&sys, &backend, &cfg));
    }

    let atomic = || backend_by_name("atomic-t2", 1).expect("a registry name");
    for ranks in 1..=4 {
        let opts = DistOptions::default();
        let sol = try_solve_hybrid(&sys, ranks, &cfg, |_| atomic(), &opts).expect("solve");
        validate(&format!("atomic-t2 on {ranks} ranks"), &sol);
    }
    let dir = std::env::temp_dir().join(format!("gaia-e2e-atomic-tiles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_tiles(&sys, &dir, 2).expect("spill");
    let probe = TiledSystem::open(&dir).expect("open");
    let half = (probe.matrix_bytes() / 2).max(probe.min_budget());
    for bytes in [None, Some(half), Some(probe.min_budget())] {
        let budget = bytes.map_or(CapacityBudget::unbounded(), CapacityBudget::limited);
        let tiles = TiledSystem::open_with_budget(&dir, budget).expect("open");
        let sol = solve_tiled(&tiles, &atomic(), &cfg).expect("tiled solve");
        validate(&format!("atomic-t2 tiled, budget {bytes:?}"), &sol);
    }
    let _ = std::fs::remove_dir_all(&dir);
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
        "gaia-tiles/v4",
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

/// A checkpoint in the JSON envelope of earlier versions (every `f64` as
/// its `u64` bits, the shape of the `tiny` preset), found as the newest
/// snapshot of the `--checkpoint` chain, is refused by the one container
/// reader: exit 1 with the `--force-fresh` hint, and the file is left as
/// it was rather than overwritten by a fresh run.
#[test]
fn solvergaia_refuses_a_json_checkpoint_and_leaves_it_untouched() {
    let dir = std::env::temp_dir().join(format!("gaia-cli-json-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt.00000002.ckpt");
    let bits = |n: usize| format!("[{}]", vec![0.5f64.to_bits().to_string(); n].join(","));
    let (x, u, scalars) = (bits(63), bits(99), bits(16));
    let json = format!(
        r#"{{"version":2,"n_rows":99,"n_cols":63,"rhs_fingerprint":16555435707155818549,"preconditioned":true,"state":{{"itn":2,"x":{x},"v":{x},"w":{x},"u":{u},"var":{x},"scalars":{scalars},"stopped":"IterationLimit","history":[]}},"tiles":null}}"#
    );
    std::fs::write(&path, &json).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
        .args(["--preset", "tiny", "--iterations", "4", "--backend", "seq"])
        .arg("--checkpoint")
        .arg(dir.join("run.ckpt"))
        .output()
        .expect("run solvergaia");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["run.ckpt", "header", "regenerate", "--force-fresh"] {
        assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
    }
    let named = stderr.matches(&*path.display().to_string()).count();
    assert_eq!(named, 1, "the snapshot is named once: {stderr}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiled `--telemetry` solve writes the same run report as a resident
/// one, and with the probes compiled in the report carries the tile cell.
#[test]
fn solvergaia_tiled_telemetry_writes_a_run_report() {
    let root = std::env::temp_dir().join(format!("gaia-cli-tiled-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let results = root.join("results");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
        .args([
            "--preset",
            "tiny",
            "--iterations",
            "3",
            "--telemetry",
            "--tiles",
        ])
        .arg(root.join("spill"))
        .env("GAIA_RESULTS_DIR", &results)
        .output()
        .expect("run solvergaia");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let path = results.join("telemetry").join("solvergaia.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no run report at {}: {e}", path.display()));
    let report: gaia_avugsr::telemetry::report::RunReport =
        serde_json::from_str(&text).expect("report parses");
    assert_eq!(report.solver, "lsqr-tiled");
    assert_eq!(report.iterations, 3);
    if report.telemetry.enabled {
        assert!(
            report.telemetry.tile.loads > 0,
            "{:?}",
            report.telemetry.tile
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Run `solvergaia` on the `tiny` preset, seed 0, with the `seq` backend
/// and `args`; it must exit 0. Returns its `|r|` line and its stdout.
fn solvergaia_tiny(args: &[&std::ffi::OsStr]) -> (String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
        .args(["--preset", "tiny", "--seed", "0", "--backend", "seq"])
        .args(args)
        .output()
        .expect("run solvergaia");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = stdout.lines().find(|l| l.starts_with("|r| = "));
    let line = line.unwrap_or_else(|| panic!("no |r| line in {stdout}"));
    (line.to_owned(), stdout)
}

/// Whether `stdout` reports a resume from the chain at `iteration`.
fn resumed_at(stdout: &str, iteration: usize) -> bool {
    stdout.lines().any(|l| {
        l.starts_with("resumed from ") && l.ends_with(&format!(" at iteration {iteration}"))
    })
}

/// A run stopped at its iteration limit resumes from its checkpoint chain
/// under a larger `--iterations` and goes on: 5 iterations, then 10 from
/// the snapshot taken at the stop, print the same residual as 10 without a
/// break — resident, out-of-core and on two ranks alike.
#[test]
fn solvergaia_extends_a_checkpointed_run_to_a_larger_iteration_limit() {
    let root = std::env::temp_dir().join(format!("gaia-cli-extend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let spill = root.join("spill");
    let cases: [(&str, &[&std::ffi::OsStr]); 3] = [
        ("resident", &[]),
        ("tiles", &["--tiles".as_ref(), spill.as_os_str()]),
        ("ranks", &["--ranks".as_ref(), "2".as_ref()]),
    ];
    for (case, extra) in cases {
        let ckpt = root.join(format!("ck-{case}"));
        let run = |iterations: &str, chain: bool| {
            let mut args = vec!["--iterations".as_ref(), iterations.as_ref()];
            if chain {
                args.extend(["--checkpoint".as_ref(), ckpt.as_os_str()]);
            }
            args.extend(extra);
            solvergaia_tiny(&args)
        };
        let (straight, _) = run("10", false);
        assert!(straight.contains("3.493954e-1"), "{case}: {straight}");
        let (first, _) = run("5", true);
        assert_ne!(
            first, straight,
            "5 iterations must not reach the 10-iteration residual"
        );
        let (extended, stdout) = run("10", true);
        assert!(resumed_at(&stdout, 5), "{case}: {stdout}");
        assert_eq!(extended, straight, "{case}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A job killed after iteration 15 leaves the chain's snapshots up to 15:
/// the rerun resumes from the newest of them and ends on the residual of
/// an uninterrupted run.
#[test]
fn solvergaia_resumes_a_killed_run_from_the_chains_newest_snapshot() {
    let dir = std::env::temp_dir().join(format!("gaia-cli-killed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run");
    let chain = ["--checkpoint".as_ref(), ckpt.as_os_str()];
    let every = ["--checkpoint-every".as_ref(), "5".as_ref()];
    solvergaia_tiny(
        &[
            &["--iterations".as_ref(), "20".as_ref()],
            &chain[..],
            &every[..],
        ]
        .concat(),
    );
    let kept = dir.join("run.00000015.ckpt");
    assert!(kept.exists(), "no iteration-15 snapshot");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path != kept {
            std::fs::remove_file(path).unwrap();
        }
    }
    let thirty = ["--iterations".as_ref(), "30".as_ref()];
    let (resumed, stdout) = solvergaia_tiny(&[&thirty[..], &chain[..]].concat());
    assert!(resumed_at(&stdout, 15), "{stdout}");
    assert_eq!(resumed, solvergaia_tiny(&thirty).0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chain written on two ranks resumes on one, and one written on one
/// rank resumes on two: every LSQR engine writes and reads the same
/// snapshots of the whole system's state.
#[test]
fn solvergaia_resumes_a_chain_on_another_rank_count() {
    let dir = std::env::temp_dir().join(format!("gaia-cli-cross-rank-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (writer, reader) in [("2", "1"), ("1", "2")] {
        let ckpt = dir.join(format!("from-{writer}"));
        let chain = ["--checkpoint".as_ref(), ckpt.as_os_str()];
        let ranks = |n: &'static str| ["--ranks".as_ref(), n.as_ref()];
        let ten = [
            "--iterations".as_ref(),
            "10".as_ref(),
            "--checkpoint-every".as_ref(),
            "5".as_ref(),
        ];
        solvergaia_tiny(&[&ten[..], &chain[..], &ranks(writer)[..]].concat());
        let fifteen = ["--iterations".as_ref(), "15".as_ref()];
        let (resumed, stdout) =
            solvergaia_tiny(&[&fifteen[..], &chain[..], &ranks(reader)[..]].concat());
        assert!(resumed_at(&stdout, 10), "{writer} -> {reader}: {stdout}");
        let (straight, _) = solvergaia_tiny(&[&fifteen[..], &ranks(reader)[..]].concat());
        assert_eq!(resumed, straight, "{writer} -> {reader}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every input is checked before anything is written: `--iterations 0`
/// exits 2 naming the flag, and an unknown backend exits 1 before
/// `--save-dataset` writes its file or `--tiles` streams into a new
/// directory.
#[test]
fn solvergaia_checks_every_input_before_writing_anything() {
    let dir = std::env::temp_dir().join(format!("gaia-cli-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&std::ffi::OsStr]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
            .args(["--preset", "tiny"])
            .args(args)
            .output()
            .expect("run solvergaia")
    };
    let out = run(&["--iterations".as_ref(), "0".as_ref()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--iterations"),
        "{out:?}"
    );

    let (dataset, tiles) = (dir.join("saved.gavu"), dir.join("spill"));
    let bogus: [&std::ffi::OsStr; 2] = ["--backend".as_ref(), "bogus".as_ref()];
    for (flag, path) in [("--save-dataset", &dataset), ("--tiles", &tiles)] {
        let out = run(&[bogus[0], bogus[1], flag.as_ref(), path.as_os_str()]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown backend bogus"));
        assert!(!path.exists(), "{flag}: {} was written", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// More ranks than the system has stars goes through the supervisor like
/// any other rank count: the world is refused, and the run finishes on
/// fewer ranks.
#[test]
fn solvergaia_degrades_more_ranks_than_stars() {
    let (_, stdout) = solvergaia_tiny(&[
        "--ranks".as_ref(),
        "7".as_ref(),
        "--iterations".as_ref(),
        "5".as_ref(),
    ]);
    assert!(stdout.contains("finished on 3 rank(s)"), "{stdout}");
}

/// A chain that cannot be written warns on every engine alike, and the
/// run still exits 0 with its solution: persistence is best-effort.
#[test]
fn solvergaia_warns_when_the_chain_cannot_be_written() {
    let gone = std::env::temp_dir().join(format!("gaia-cli-no-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&gone);
    let ckpt = gone.join("ck");
    let iterations: [&std::ffi::OsStr; 4] = [
        "--iterations".as_ref(),
        "5".as_ref(),
        "--checkpoint-every".as_ref(),
        "2".as_ref(),
    ];
    let mut warnings = Vec::new();
    for ranks in ["1", "2"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
            .args(["--preset", "tiny", "--seed", "0", "--backend", "seq"])
            .args(iterations)
            .args(["--ranks", ranks, "--checkpoint"])
            .arg(&ckpt)
            .output()
            .expect("run solvergaia");
        assert_eq!(out.status.code(), Some(0), "--ranks {ranks}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let warned = stderr
            .lines()
            .filter(|l| l.starts_with("warning: cannot write checkpoint: "))
            .count();
        assert!(warned > 0, "--ranks {ranks}: {stderr}");
        warnings.push(warned);
        assert!(String::from_utf8_lossy(&out.stdout).contains("|r| = "));
    }
    assert_eq!(
        warnings[0], warnings[1],
        "one warning per snapshot on each path"
    );
    assert!(!gone.exists());
}

/// `--ranks N` runs the backend `--backend` names on every rank, under
/// `--telemetry` wrapped like a single-rank solve: an unknown name exits
/// 1, and `atomic` is named in the output and, with the probes compiled
/// in, records atomic updates and whole-pass call cells, with periodic
/// checkpoints or without.
#[test]
fn solvergaia_ranks_run_the_named_backend() {
    let results = std::env::temp_dir().join(format!("gaia-cli-ranks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    let run = |backend: &str, extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
            .args(["--preset", "tiny", "--iterations", "3", "--ranks", "2"])
            .args(["--threads", "2", "--telemetry", "--backend", backend])
            .args(extra)
            .env("GAIA_RESULTS_DIR", &results)
            .output()
            .expect("run solvergaia")
    };
    let out = run("no-such-backend", &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown backend no-such-backend"),
        "{stderr}"
    );

    // Checkpointing or not, the run goes through the supervisor, and
    // every rank's backend is wrapped.
    for extra in [&[][..], &["--checkpoint-every", "2"]] {
        let out = run("atomic", extra);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("distributed solve on 2 ranks, backend: atomic-t2"),
            "{stdout}"
        );
        let text = std::fs::read_to_string(results.join("telemetry").join("solvergaia.json"))
            .expect("run report");
        let report: serde_json::Value = serde_json::from_str(&text).expect("report parses");
        assert_eq!(report["solver"].as_str(), Some("lsqr-distributed"));
        let telemetry = &report["telemetry"];
        if telemetry["enabled"].as_bool() == Some(true) {
            let kernels = telemetry["kernels"].as_array().expect("kernel cells");
            assert!(
                kernels.iter().any(|k| k["atomic_rmws"].as_u64() > Some(0)),
                "{extra:?}: no atomic updates: {kernels:?}"
            );
            let calls = telemetry["calls"].as_array().expect("call cells");
            assert!(
                !calls.is_empty(),
                "{extra:?}: the backend was not instrumented"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&results);
}

/// LSMR has no resumable state: `--lsmr` with `--ranks` or with
/// `--checkpoint` exits 2 naming the conflict, and writes no checkpoint.
#[test]
fn solvergaia_refuses_lsmr_with_ranks_or_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("gaia-cli-lsmr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("lsmr.ckpt");
    let conflicts: [&[&std::ffi::OsStr]; 2] = [
        &["--ranks".as_ref(), "2".as_ref()],
        &["--checkpoint".as_ref(), ckpt.as_os_str()],
    ];
    for extra in conflicts {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_solvergaia"))
            .args(["--preset", "tiny", "--iterations", "3", "--lsmr"])
            .args(extra)
            .output()
            .expect("run solvergaia");
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in ["--lsmr", extra[0].to_str().unwrap()] {
            assert!(
                stderr.contains(needle),
                "{extra:?}: no {needle:?} in {stderr}"
            );
        }
    }
    assert!(!ckpt.exists(), "a refused run wrote {}", ckpt.display());
    let _ = std::fs::remove_dir_all(&dir);
}
