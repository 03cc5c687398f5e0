//! # gaia-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` for the experiment index). Timing claims are made by the
//! repo benchmark (`benchmark/README.md`), not here.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3` | Fig. 3 a/b/c — efficiency cascades + `P` per problem size |
//! | `fig4` | Fig. 4 a/b/c — average iteration time per platform × framework |
//! | `fig5` | Fig. 5 a/b/c — application efficiency per platform × framework |
//! | `fig6` | Fig. 6 a–d — solution/standard-error validation (real solves) |
//! | `table_flags` | Tables I–III — compilers and compilation flags |
//! | `speedup_production` | §V-B optimized-vs-production CUDA 2.0× claim |
//! | `tuning_ablation` | §V-B "up to 40 % reduction" kernel-tuning claim |
//! | `spmv_labnotes` | §V-B amd-lab-notes SpMV cross-check on A100/MI250X |
//! | `cpu_portability` | measured `P` of the real Rust backends (this repo's own hardware study) |
//! | `calibrate` | raw model grids (development tool) |
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod stats;
pub mod sweep;
pub mod tune;

use std::io;
use std::path::{Path, PathBuf};

use gaia_gpu_sim::{all_frameworks, all_platforms, iteration_time, SimConfig};
use gaia_p3::MeasurementSet;
use gaia_sparse::{SparseSystem, SystemLayout};
use gaia_telemetry::report::RunReport;

/// The paper's three problem sizes in GB.
pub const PROBLEM_SIZES_GB: [f64; 3] = [10.0, 30.0, 60.0];

/// Simulate the full framework × platform grid for a problem size,
/// producing the timing set the p3 analysis consumes. Unsupported
/// combinations (vendor or capacity) are simply absent.
pub fn simulate_measurements(gb: f64) -> (SystemLayout, MeasurementSet) {
    let layout = SystemLayout::from_gb(gb);
    let mut set = MeasurementSet::new();
    for fw in all_frameworks() {
        for p in all_platforms() {
            if let Some(b) = iteration_time(&layout, &fw, &p, &SimConfig::default()) {
                set.record(&fw.name, &p.name, b.seconds);
            }
        }
    }
    (layout, set)
}

/// The platform set supporting a problem size (paper §V-B), in the
/// paper's presentation order.
pub fn platform_set(gb: f64) -> Vec<String> {
    let layout = SystemLayout::from_gb(gb);
    let bytes = gaia_sparse::footprint::total_device_bytes(&layout);
    all_platforms()
        .into_iter()
        .filter(|p| p.fits(bytes))
        .map(|p| p.name)
        .collect()
}

/// Print a one-line error and exit nonzero — the clean failure mode for
/// bench binaries fed bad CLI input or hitting unwritable artifact paths
/// (no panic, no backtrace, no "success" after a swallowed warning).
pub fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// The `results/` directory artifacts land in: `GAIA_RESULTS_DIR` when
/// set, else `<workspace root>/results` — never CWD-relative, so bench
/// bins run from a crate subdirectory do not scatter artifact copies.
pub fn results_dir() -> PathBuf {
    gaia_telemetry::report::results_root()
}

/// The one fallible writer every artifact goes through: create parent
/// directories, serialize, write. Callers must consume the `Result` —
/// an artifact that was not written is a failed run, not a warning.
pub fn write_json_file(path: &Path, json: &serde_json::Value) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let text = serde_json::to_string_pretty(json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    std::fs::write(path, text)
}

/// Text twin of [`write_json_file`].
pub fn write_text_file(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

/// Write a JSON artifact under [`results_dir`] (`name` may carry
/// subdirectories, e.g. `tuning/tiny.json`); prints and returns
/// the path written.
pub fn write_artifact(name: &str, json: &serde_json::Value) -> io::Result<PathBuf> {
    let path = results_dir().join(name);
    write_json_file(&path, json)?;
    println!("[artifact] {}", path.display());
    Ok(path)
}

/// [`write_artifact`] for binaries: any I/O failure is fatal (exit 1)
/// instead of a swallowed warning that lets a run "pass" while writing
/// nothing.
pub fn must_write_artifact(name: &str, json: &serde_json::Value) -> PathBuf {
    write_artifact(name, json).unwrap_or_else(|e| fatal(&format!("cannot write {name}: {e}")))
}

/// Run one measured LSQR solve (fixed iterations) on an instrumented
/// backend, scoping the telemetry registry to the run, and write the
/// per-kernel run report to `results/telemetry/{run}.json`.
///
/// Built with `--no-default-features` the probes are no-ops: the JSON is
/// still written (iteration history always exists) but the snapshot comes
/// back empty with `"enabled": false`.
/// A backend name that does not parse is user input, not a bug: fail
/// with one clean line (registry names listed) and exit 1 instead of a
/// panic + backtrace. An unwritable telemetry report is equally fatal —
/// the report *is* the run's output.
pub fn measured_run(
    run: &str,
    backend_name: &str,
    threads: usize,
    sys: &SparseSystem,
    iterations: usize,
) -> RunReport {
    let Some(backend) = gaia_backends::instrumented_by_name(backend_name, threads) else {
        fatal(&format!(
            "unknown backend `{backend_name}` (registry names: {}; tuned suffixes \
             `-t<threads>[-c<chunks>]` accepted)",
            gaia_backends::backend_names().join(", ")
        ))
    };
    gaia_telemetry::reset();
    let cfg = gaia_lsqr::LsqrConfig::fixed_iterations(iterations);
    let sol = gaia_lsqr::solve(sys, &backend, &cfg);
    let report = gaia_lsqr::run_report(run, &backend.name(), "lsqr", &sol);
    match gaia_telemetry::report::write_report(&report) {
        Ok(path) => println!("[artifact] {}", path.display()),
        Err(e) => fatal(&format!("cannot write telemetry report for `{run}`: {e}")),
    }
    report
}

/// Write a text artifact (SVG, CSV, markdown ...) under [`results_dir`];
/// prints and returns the path written.
pub fn write_text_artifact(name: &str, contents: &str) -> io::Result<PathBuf> {
    let path = results_dir().join(name);
    write_text_file(&path, contents)?;
    println!("[artifact] {}", path.display());
    Ok(path)
}

/// [`write_text_artifact`] for binaries: I/O failure is fatal (exit 1).
pub fn must_write_text_artifact(name: &str, contents: &str) -> PathBuf {
    write_text_artifact(name, contents)
        .unwrap_or_else(|e| fatal(&format!("cannot write {name}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_sets_match_paper() {
        assert_eq!(platform_set(10.0), ["T4", "V100", "A100", "H100", "MI250X"]);
        assert_eq!(platform_set(30.0), ["V100", "A100", "H100", "MI250X"]);
        assert_eq!(platform_set(60.0), ["H100", "MI250X"]);
    }

    #[test]
    fn grid_has_expected_cell_counts() {
        // 10 GB: 7 portable frameworks × 5 platforms + CUDA × 4 = 39.
        let (_, set) = simulate_measurements(10.0);
        let cells: usize = set
            .apps()
            .iter()
            .map(|a| {
                set.platforms()
                    .iter()
                    .filter(|p| set.time(a, p).is_some())
                    .count()
            })
            .sum();
        assert_eq!(cells, 7 * 5 + 4);
    }
}
