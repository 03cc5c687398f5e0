//! # gaia-bench
//!
//! The experiment harness: one binary, `gaia-bench <study> [args...]`,
//! with one study per table/figure of the paper (see `DESIGN.md` for the
//! experiment index). Timing claims are made by the repo benchmark
//! (`benchmark/README.md`), not here.
//!
//! | study | reproduces |
//! |---|---|
//! | `fig3` | Fig. 3 a/b/c — efficiency cascades + `P` per problem size |
//! | `fig4` | Fig. 4 a/b/c — average iteration time per platform × framework |
//! | `fig5` | Fig. 5 a/b/c — application efficiency per platform × framework |
//! | `fig6` | Fig. 6 a–d — solution/standard-error validation (real solves) |
//! | `table_flags` | Tables I–III — compilers and compilation flags |
//! | `speedup_production` | §V-B optimized-vs-production CUDA 2.0× claim |
//! | `tuning_ablation` | §V-B "up to 40 % reduction" kernel-tuning claim |
//! | `spmv_labnotes` | §V-B amd-lab-notes SpMV cross-check on A100/MI250X |
//! | `precond_ablation` | §III-B preconditioning: iterations and condition with/without |
//! | `matrix_stats [preset]` | Fig. 2 / §IV structure and aprod2 collision statistics |
//! | `roofline` | §VI memory-bound claim: kernel intensity vs ridge points |
//! | `profile [platform] [GB]` | modeled iteration timeline + measured per-kernel telemetry |
//! | `weak_scaling` | ref \[22\] weak/strong scaling on a modeled cluster |
//! | `energy` | joules per iteration per framework × platform |
//! | `executors_projection` | §VI C++26 executors projection for PSTL |
//! | `solver_comparison` | LSQR vs LSMR on the same backends |
//! | `sensitivity` | calibration robustness under ±5–20 % knob perturbation |
//! | `whatif` | §VI projection onto H200/MI300A-class platforms |
//! | `normalization_study` | the two readings of application efficiency |
//! | `cpu_portability` | measured `P` of the real Rust backends (this repo's own hardware study) |
//! | `report_all` | everything above in one `results/REPORT.md` |
//! | `chaos` | fault level × recovery policy sweep |
//! | `overload` | tenant count × fault × deadline sweep of the solve service |
//! | `capacity` | out-of-core solves under bounded tile memory |
//! | `tune` | launch-profile auto-tuner (`gaia-tune-profile/v3`) |
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod stats;
pub mod sweep;
pub mod tune;

use std::path::PathBuf;
use std::str::FromStr;

use gaia_gpu_sim::{
    all_frameworks, all_platforms, iteration_time, FrameworkSpec, PlatformSpec, SimConfig,
};
use gaia_p3::MeasurementSet;
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SparseSystem, SystemLayout};
use gaia_telemetry::report::RunReport;

/// The paper's three problem sizes in GB.
pub const PROBLEM_SIZES_GB: [f64; 3] = [10.0, 30.0, 60.0];

/// Simulate a framework × platform grid on one layout, producing the
/// timing set the p3 analysis consumes. Unsupported combinations
/// (vendor or capacity) are simply absent.
pub fn simulate(
    layout: &SystemLayout,
    frameworks: &[FrameworkSpec],
    platforms: &[PlatformSpec],
) -> MeasurementSet {
    let mut set = MeasurementSet::new();
    for fw in frameworks {
        for p in platforms {
            if let Some(b) = iteration_time(layout, fw, p, &SimConfig::default()) {
                set.record(&fw.name, &p.name, b.seconds);
            }
        }
    }
    set
}

/// [`simulate`] over the paper's full grid for a problem size.
pub fn simulate_measurements(gb: f64) -> MeasurementSet {
    let layout = SystemLayout::from_gb(gb);
    simulate(&layout, &all_frameworks(), &all_platforms())
}

/// SVG chart series for `names`, coloured by position in the p3
/// palette: `(name, colour, values(name))` per name.
pub fn palette_series(
    names: &[String],
    values: impl Fn(&str) -> Vec<Option<f64>>,
) -> Vec<(String, String, Vec<Option<f64>>)> {
    names
        .iter()
        .zip(gaia_p3::svg::PALETTE.iter().cycle())
        .map(|(name, colour)| (name.clone(), colour.to_string(), values(name)))
        .collect()
}

/// The seeded tiny system the robustness sweeps solve.
pub fn tiny_system(seed: u64) -> SparseSystem {
    Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate()
}

/// The Fig. 6 validation system: the seeded `small` layout with its
/// right-hand side calibrated to radian-scale astrometry (corrections of
/// tens of milli-arcseconds, ~1e-7 rad) so µas thresholds are meaningful.
/// Scaling b scales the solution and its standard errors linearly.
pub fn radian_system() -> SparseSystem {
    let cfg = GeneratorConfig::new(SystemLayout::small())
        .seed(42)
        .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-5 });
    let (mut sys, _) = Generator::new(cfg).generate_with_truth();
    let b = sys.known_terms().iter().map(|v| v * 1e-7).collect();
    sys.set_known_terms(b);
    sys
}

/// A study's arguments (everything after its name), read one token at a
/// time. A missing or malformed value goes through [`fatal`].
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Wrap the arguments after the study name.
    pub fn new(args: Vec<String>) -> Self {
        Self(args.into_iter())
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.next()
            .unwrap_or_else(|| fatal(&format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed as `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        parse_arg(flag, &self.value(flag))
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Parse one argument (`what` names it in the error).
pub fn parse_arg<T: FromStr>(what: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| fatal(&format!("{what}: cannot parse `{raw}`")))
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
/// studies fed bad CLI input or hitting unwritable artifact paths
/// (no panic, no backtrace, no "success" after a swallowed warning).
pub fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Write a text artifact (SVG, CSV, markdown ...) under `results/`
/// (`GAIA_RESULTS_DIR` when set, else `<workspace root>/results`, never
/// CWD-relative; `name` may carry subdirectories, e.g. `tuning/tiny.json`),
/// creating parent directories; prints and returns the path written.
/// Any I/O failure is fatal: an artifact that was not written is a failed
/// run, not a warning.
pub fn must_write_text_artifact(name: &str, contents: &str) -> PathBuf {
    let path = gaia_telemetry::report::results_root().join(name);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        fatal(&format!("cannot write {name}: {e}"))
    }
    println!("[artifact] {}", path.display());
    path
}

/// [`must_write_text_artifact`] for a pretty-printed JSON artifact.
pub fn must_write_artifact(name: &str, json: &serde_json::Value) -> PathBuf {
    let text = serde_json::to_string_pretty(json)
        .unwrap_or_else(|e| fatal(&format!("cannot serialize {name}: {e:?}")));
    must_write_text_artifact(name, &text)
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

/// One cell of the measured CPU portability study: a backend on a
/// thread budget (the platform `threads-<budget>`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct PortabilityCell {
    /// Registry name of the backend.
    pub backend: String,
    /// `threads-<budget>`.
    pub platform: String,
    /// Seconds per LSQR iteration over the interleaved rounds.
    pub summary: stats::Summary,
}

/// The measured CPU portability study's timing: at each thread budget,
/// every backend of `strategies` runs `iterations` LSQR iterations on
/// `sys`, the budget's backends timed as one batch in `rounds`
/// interleaved rounds. Returns the cells and the measurement set of their
/// medians, which the Pennycook analysis reads.
pub fn measure_portability(
    sys: &SparseSystem,
    budgets: &[usize],
    strategies: &[&str],
    iterations: usize,
    rounds: usize,
) -> (MeasurementSet, Vec<PortabilityCell>) {
    let cfg = gaia_lsqr::LsqrConfig::fixed_iterations(iterations);
    let (mut set, mut cells) = (MeasurementSet::new(), Vec::new());
    for &budget in budgets {
        let platform = format!("threads-{budget}");
        let backends: Vec<_> = strategies
            .iter()
            .map(|name| gaia_backends::backend_by_name(name, budget).expect("registry name"))
            .collect();
        let summaries = stats::interleaved(backends.len(), rounds, |i| {
            let sol = gaia_lsqr::solve(sys, &backends[i], &cfg);
            assert_eq!(sol.iterations, iterations);
        });
        for (name, summary) in strategies.iter().zip(summaries) {
            let summary = summary.per(iterations);
            set.record(name, &platform, summary.median_s);
            cells.push(PortabilityCell {
                backend: name.to_string(),
                platform: platform.clone(),
                summary,
            });
        }
    }
    (set, cells)
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
        let set = simulate_measurements(10.0);
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
