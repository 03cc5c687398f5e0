//! The launch-profile auto-tuner: coordinate descent over the
//! [`gaia_backends::LaunchPlan`] axis set per layout, persisting each
//! winner as a `gaia-tune-profile/v2` JSON the `tuned` backend loads.
//!
//! ```text
//! cargo run --release -p gaia-bench --bin tune                 # tune tiny,small,medium
//! cargo run --release -p gaia-bench --bin tune -- --smoke      # CI: tiny only, trimmed axes
//! cargo run --release -p gaia-bench --bin tune -- --check results/tuning/*.json
//! ```
//!
//! Flags:
//!   --smoke            CI smoke: tiny layout only, trimmed strategy axes
//!   --layouts a,b      subset of tiny,small,medium (default: all three)
//!   --threads N        thread budget (capped by available_parallelism; default: all)
//!   --repeats K        timing repeats per candidate (default 5, smoke 3)
//!   --check PATH...    no measurement: load + schema-validate profile files,
//!                      exit 1 when any is invalid
//!
//! Artifacts (under `results/tuning/`): `<layout>.json` — the winning
//! profile, loadable by the `tuned` backend; `search/<layout>.json` — the
//! full search log with every measured configuration.

use gaia_backends::profile::load_profile_file;
use gaia_bench::tune::{tune_layout, TuneSpec};
use gaia_bench::{fatal, must_write_artifact};

struct Cli {
    smoke: bool,
    layouts: Vec<String>,
    threads: usize,
    repeats: usize,
    check: Vec<String>,
}

fn parse_cli() -> Cli {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cli = Cli {
        smoke: false,
        layouts: Vec::new(),
        threads: available,
        repeats: 0, // resolved after --smoke is known
        check: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    let mut repeats: Option<usize> = None;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fatal(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--layouts" => {
                cli.layouts = value("--layouts")
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--threads" => {
                let n: usize = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| fatal("--threads needs a positive integer"));
                cli.threads = n.max(1);
            }
            "--repeats" => {
                repeats = Some(
                    value("--repeats")
                        .parse()
                        .unwrap_or_else(|_| fatal("--repeats needs a positive integer")),
                );
            }
            "--check" => {
                cli.check.push(value("--check"));
                // Everything after --check's first value is more paths.
                cli.check.extend(args.by_ref());
            }
            other => fatal(&format!(
                "unknown flag `{other}` (see --bin tune source header)"
            )),
        }
    }
    cli.threads = cli.threads.min(available);
    if cli.layouts.is_empty() {
        cli.layouts = if cli.smoke {
            vec!["tiny".to_owned()]
        } else {
            vec!["tiny".to_owned(), "small".to_owned(), "medium".to_owned()]
        };
    }
    cli.repeats = repeats.unwrap_or(if cli.smoke { 3 } else { 5 });
    if cli.repeats == 0 {
        fatal("--repeats needs a positive integer");
    }
    cli
}

/// `--check`: validate profile files without measuring anything.
fn check(paths: &[String]) {
    let mut bad = 0usize;
    for p in paths {
        match load_profile_file(std::path::Path::new(p)) {
            Ok(profile) => println!(
                "tune: {p}: valid {} profile for `{}` ({})",
                gaia_backends::PROFILE_SCHEMA,
                profile.layout,
                if profile.is_non_default() {
                    "non-default plan"
                } else {
                    "default plan"
                }
            ),
            Err(e) => {
                eprintln!("error: {p}: {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let cli = parse_cli();
    if !cli.check.is_empty() {
        check(&cli.check);
        return;
    }

    println!(
        "tune: {} layout(s), {} thread(s), median-of-{}{}",
        cli.layouts.join(","),
        cli.threads,
        cli.repeats,
        if cli.smoke { ", smoke" } else { "" },
    );

    let mut telemetry = gaia_telemetry::TuneCell::default();
    for layout in &cli.layouts {
        let spec = TuneSpec {
            layout: layout.clone(),
            threads: cli.threads,
            repeats: cli.repeats,
            smoke: cli.smoke,
        };
        let outcome = tune_layout(&spec).unwrap_or_else(|e| fatal(&e));
        let p = &outcome.profile;
        println!(
            "tune: {layout}: {} configs explored ({} unsound skipped), \
             winner att={} instr={} glob={} budget={} layout={} c={}",
            outcome.telemetry.configs_explored,
            outcome.skipped_unsound,
            p.att,
            p.instr,
            p.glob,
            p.budget,
            p.matrix_layout,
            p.chunks_per_thread,
        );
        println!(
            "tune: {layout}: baseline {:.3} ms/iter -> tuned {:.3} ms/iter \
             ({:+.1} % improvement, {})",
            p.baseline_median_s * 1e3,
            p.tuned_median_s * 1e3,
            p.improvement * 100.0,
            if p.is_non_default() {
                "non-default plan"
            } else {
                "default plan kept"
            }
        );

        let profile_json =
            serde_json::to_value(p).unwrap_or_else(|e| fatal(&format!("serialize profile: {e}")));
        let written = must_write_artifact(&format!("tuning/{layout}.json"), &profile_json);
        // Round-trip the file we just wrote through the loader: the
        // artifact must be exactly what the `tuned` backend will accept.
        if let Err(e) = load_profile_file(&written) {
            fatal(&format!(
                "persisted profile {} fails validation: {e}",
                written.display()
            ));
        }
        let search_json = serde_json::json!({
            "schema": "gaia-tune-search/v1",
            "layout": layout,
            "threads": cli.threads,
            "repeats": cli.repeats,
            "smoke": cli.smoke,
            "configs_explored": outcome.telemetry.configs_explored,
            "skipped_unsound": outcome.skipped_unsound,
            "winner": profile_json,
            "explored": serde_json::to_value(&outcome.explored)
                .unwrap_or(serde_json::Value::Null),
        });
        // Search logs live one level down so the profile loader's scan
        // of `results/tuning/*.json` only ever sees real profiles.
        must_write_artifact(&format!("tuning/search/{layout}.json"), &search_json);

        telemetry.configs_explored += outcome.telemetry.configs_explored;
        telemetry.measurements += outcome.telemetry.measurements;
        telemetry.measure_seconds += outcome.telemetry.measure_seconds;
        telemetry.profiles_persisted += 1;
    }
    gaia_telemetry::record_tune(&telemetry);
    println!(
        "tune: done — {} profile(s) persisted, {} configs, {:.2} s measured",
        telemetry.profiles_persisted, telemetry.configs_explored, telemetry.measure_seconds,
    );
}
