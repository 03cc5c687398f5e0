//! Bridge from a finished [`Solution`] to a `gaia-telemetry`
//! [`RunReport`]: per-iteration timings and residual norms come from the
//! solver's history, the per-kernel breakdown from the telemetry registry
//! snapshot taken at call time.
//!
//! The intended measurement protocol (what the bench binaries do):
//!
//! ```text
//! gaia_telemetry::reset();
//! let sol = solve(&sys, &instrumented_backend, &cfg);
//! let report = run_report("profile_atomic", "atomic-t4", "lsqr", &sol);
//! gaia_telemetry::report::write_report(&report)?;   // results/telemetry/…
//! ```

use gaia_telemetry::report::{IterationSample, RunReport};

use crate::solution::Solution;

/// Build the machine-readable perf record of one measured solve. Captures
/// the telemetry snapshot at call time, so `gaia_telemetry::reset()`
/// before the solve scopes the kernel cells to this run. The system's shape
/// comes from the solution itself, so resident, distributed and tiled
/// solves report alike.
pub fn run_report(run: &str, backend: &str, solver: &str, sol: &Solution) -> RunReport {
    RunReport {
        run: run.into(),
        backend: backend.into(),
        solver: solver.into(),
        n_rows: sol.n_rows as u64,
        n_cols: sol.x.len() as u64,
        iterations: sol.iterations as u64,
        stop: format!("{:?}", sol.stop),
        rnorm: sol.rnorm,
        arnorm: sol.arnorm,
        total_seconds: sol.history.iter().map(|h| h.seconds).sum(),
        per_iteration: sol
            .history
            .iter()
            .map(|h| IterationSample {
                iteration: h.iteration as u64,
                rnorm: h.rnorm,
                arnorm: h.arnorm,
                seconds: h.seconds,
            })
            .collect(),
        telemetry: gaia_telemetry::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsqrConfig;
    use crate::lsqr::solve;
    use gaia_backends::SeqBackend;
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    #[test]
    fn report_mirrors_the_solution() {
        let sys = Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(601)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate();
        let sol = solve(&sys, &SeqBackend, &LsqrConfig::fixed_iterations(5));
        let report = run_report("unit", "seq", "lsqr", &sol);
        assert_eq!(report.iterations, 5);
        assert_eq!(report.per_iteration.len(), 5);
        assert_eq!(report.n_rows, sys.n_rows() as u64);
        assert_eq!(report.n_cols, sys.n_cols() as u64);
        assert_eq!(report.stop, "IterationLimit");
        assert_eq!(
            report.per_iteration.last().unwrap().rnorm,
            sol.history.last().unwrap().rnorm
        );
        assert!(
            (report.total_seconds - sol.history.iter().map(|h| h.seconds).sum::<f64>()).abs()
                < 1e-15
        );
        assert_eq!(report.telemetry.enabled, gaia_telemetry::is_enabled());
        // Round-trip through the JSON sink format.
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        let back: RunReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
