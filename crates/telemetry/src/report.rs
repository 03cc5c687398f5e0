//! Machine-readable run reports: one JSON artifact per measured solve,
//! pairing the solver's convergence history with the per-kernel telemetry
//! snapshot. Artifacts land under `results/telemetry/` — anchored at the
//! workspace root (see [`results_root`]) rather than the CWD, so running
//! a bin from a crate subdirectory cannot scatter artifacts — and
//! external plotting can consume them the same way it consumes the
//! `results/*.json` figures.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::TelemetrySnapshot;

/// One solver iteration's timing and residual diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationSample {
    /// 1-based iteration number.
    pub iteration: u64,
    /// Residual norm `‖b − A x‖` after the iteration.
    pub rnorm: f64,
    /// Optimality measure `‖Aᵀ r‖` after the iteration.
    pub arnorm: f64,
    /// Wall time of the iteration (max across ranks for distributed runs).
    pub seconds: f64,
}

/// The complete perf record of one measured solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Artifact name (also the JSON filename stem).
    pub run: String,
    /// Backend registry name (e.g. `atomic-t4`).
    pub backend: String,
    /// What `solvergaia` ran: `lsqr` (one rank), `lsqr-tiled` (one rank,
    /// out of core), `lsmr`, or the supervisor — `lsqr-distributed` for
    /// `--ranks` above 1, `lsqr-resilient` with a fault flag.
    pub solver: String,
    /// System rows.
    pub n_rows: u64,
    /// System columns.
    pub n_cols: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Stop reason (Debug form of `StopReason`).
    pub stop: String,
    /// Final residual norm.
    pub rnorm: f64,
    /// Final `‖Aᵀ r‖`.
    pub arnorm: f64,
    /// Sum of per-iteration wall times.
    pub total_seconds: f64,
    /// Per-iteration samples, in order.
    pub per_iteration: Vec<IterationSample>,
    /// Per-kernel breakdown captured at the end of the run.
    pub telemetry: TelemetrySnapshot,
}

impl RunReport {
    /// Mean seconds per iteration (0 when no iterations ran).
    pub fn mean_iteration_seconds(&self) -> f64 {
        if self.per_iteration.is_empty() {
            0.0
        } else {
            self.total_seconds / self.per_iteration.len() as f64
        }
    }
}

/// Subdirectory of the results root the JSON artifacts are written to.
pub const TELEMETRY_DIR: &str = "telemetry";

/// The workspace root: the nearest ancestor of `start` whose `Cargo.toml`
/// declares `[workspace]`. Artifact paths are anchored here so running a
/// bin from a crate subdirectory does not scatter `results/` copies
/// around the tree.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// [`workspace_root_from`] starting at the process working directory.
pub fn workspace_root() -> Option<PathBuf> {
    workspace_root_from(&std::env::current_dir().ok()?)
}

/// Resolve the artifact root: an explicit override wins, otherwise
/// `<workspace root>/results`, otherwise plain `results` under `start`
/// (no workspace found — e.g. an installed binary run elsewhere).
pub fn resolve_results_root(override_dir: Option<PathBuf>, start: &Path) -> PathBuf {
    if let Some(dir) = override_dir {
        return dir;
    }
    match workspace_root_from(start) {
        Some(root) => root.join("results"),
        None => start.join("results"),
    }
}

/// The directory every `results/` artifact is anchored at: the
/// `GAIA_RESULTS_DIR` environment variable when set, else
/// `<workspace root>/results` regardless of the current directory.
pub fn results_root() -> PathBuf {
    let override_dir = std::env::var_os("GAIA_RESULTS_DIR").map(PathBuf::from);
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    resolve_results_root(override_dir, &start)
}

/// The path `write_report` would use for a run name.
pub fn report_path(run: &str) -> PathBuf {
    let stem: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    results_root()
        .join(TELEMETRY_DIR)
        .join(format!("{stem}.json"))
}

/// Serialize `report` to `results/telemetry/{run}.json` (directory created
/// on demand) and return the path written.
pub fn write_report(report: &RunReport) -> io::Result<PathBuf> {
    let path = report_path(&report.run);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelCell;

    fn sample_report() -> RunReport {
        RunReport {
            run: "unit-test".into(),
            backend: "seq".into(),
            solver: "lsqr".into(),
            n_rows: 100,
            n_cols: 20,
            iterations: 2,
            stop: "ResidualSmall".into(),
            rnorm: 1e-9,
            arnorm: 1e-12,
            total_seconds: 0.5,
            per_iteration: vec![
                IterationSample {
                    iteration: 1,
                    rnorm: 1e-3,
                    arnorm: 1e-4,
                    seconds: 0.3,
                },
                IterationSample {
                    iteration: 2,
                    rnorm: 1e-9,
                    arnorm: 1e-12,
                    seconds: 0.2,
                },
            ],
            telemetry: {
                let mut t = TelemetrySnapshot::empty(true);
                t.kernels.push(KernelCell {
                    phase: "aprod1".into(),
                    block: "att".into(),
                    calls: 2,
                    seconds: 0.1,
                    bytes: 640,
                    atomic_rmws: 0,
                });
                t
            },
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        let back: RunReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
        assert!((back.mean_iteration_seconds() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_path_sanitizes_names() {
        let p = report_path("profile atomic-t4/x");
        assert_eq!(
            p.file_name().and_then(|n| n.to_str()),
            Some("profile_atomic-t4_x.json")
        );
        assert!(
            p.parent().is_some_and(|d| d.ends_with("results/telemetry")),
            "{}",
            p.display()
        );
    }

    #[test]
    fn workspace_root_is_found_from_a_crate_subdir() {
        // Unit tests run with CWD at the crate dir; the anchor must still
        // be the workspace root two levels up.
        let root = workspace_root().expect("inside the workspace");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").join("telemetry").exists());
        let here = std::env::current_dir().unwrap();
        assert_eq!(workspace_root_from(&here), Some(root));
    }

    #[test]
    fn results_root_resolution_prefers_override_then_workspace() {
        let tmp = std::env::temp_dir().join("gaia-telemetry-results-root-test");
        let nested = tmp.join("ws").join("crates").join("x");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(tmp.join("ws").join("Cargo.toml"), "[workspace]\n").unwrap();

        // Explicit override wins unconditionally.
        let forced = resolve_results_root(Some(PathBuf::from("/tmp/forced")), &nested);
        assert_eq!(forced, PathBuf::from("/tmp/forced"));

        // Otherwise the nearest `[workspace]` manifest anchors the root.
        let anchored = resolve_results_root(None, &nested);
        assert_eq!(anchored, tmp.join("ws").join("results"));

        // With no workspace above, fall back to `start/results`.
        let orphan = std::env::temp_dir();
        assert_eq!(resolve_results_root(None, &orphan), orphan.join("results"));

        let _ = std::fs::remove_dir_all(&tmp);
    }
}
