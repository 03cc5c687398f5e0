//! The launch-profile auto-tuner: coordinate descent over the
//! [`gaia_backends::LaunchPlan`] axis set per layout, persisting each
//! winner as a `gaia-tune-profile/v3` JSON the `tuned` backend loads.
//!
//! ```text
//! cargo run --release -p gaia-bench -- tune                 # tune tiny,small,medium
//! cargo run --release -p gaia-bench -- tune --smoke         # CI: tiny only, trimmed axes
//! cargo run --release -p gaia-bench -- tune --check results/tuning/*.json
//! ```
//!
//! Flags:
//!   --smoke            CI smoke: tiny layout only, trimmed strategy axes
//!   --layouts a,b      subset of tiny,small,medium (default: all three)
//!   --threads N        thread budget (capped by available_parallelism; default: all)
//!   --check PATH...    no measurement: load + schema-validate profile files,
//!                      exit 1 when any is invalid
//!
//! Every candidate is timed through the harness's one timing routine, in
//! `gaia_bench::stats::ROUNDS` interleaved rounds, smoke mode included.
//!
//! Artifacts (under `results/tuning/`): `<layout>.json` — the winning
//! profile, loadable by the `tuned` backend; `search/<layout>.json` — the
//! search log, every timed batch with its incumbent, the plan it kept and
//! each configuration's summary.

use gaia_backends::profile::load_profile_file;
use gaia_bench::stats::ROUNDS;
use gaia_bench::tune::{tune_layout, TuneSpec};
use gaia_bench::{fatal, must_write_artifact, Flags};

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

pub fn run(mut args: Flags) {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut smoke = false;
    let mut layouts: Vec<String> = Vec::new();
    let mut threads = available;
    let mut check_paths: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--layouts" => {
                layouts = args
                    .value("--layouts")
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--threads" => threads = args.parse::<usize>("--threads").max(1),
            "--check" => {
                check_paths.push(args.value("--check"));
                // Everything after --check's first value is more paths.
                check_paths.extend(args.by_ref());
            }
            other => fatal(&format!(
                "unknown flag `{other}` (see the `tune` study's source header)"
            )),
        }
    }
    let threads = threads.min(available);
    if layouts.is_empty() {
        layouts = if smoke {
            vec!["tiny".to_owned()]
        } else {
            vec!["tiny".to_owned(), "small".to_owned(), "medium".to_owned()]
        };
    }
    if !check_paths.is_empty() {
        check(&check_paths);
        return;
    }

    println!(
        "tune: {} layout(s), {} thread(s), {} interleaved rounds{}",
        layouts.join(","),
        threads,
        ROUNDS,
        if smoke { ", smoke" } else { "" },
    );

    let mut telemetry = gaia_telemetry::TuneCell::default();
    for layout in &layouts {
        let spec = TuneSpec {
            layout: layout.clone(),
            threads,
            smoke,
        };
        let outcome = tune_layout(&spec).unwrap_or_else(|e| fatal(&e));
        let p = &outcome.profile;
        // The final batch keeps the winner.
        let winner = outcome.batches.last().map_or("", |b| b.kept.as_str());
        println!(
            "tune: {layout}: {} configs explored ({} unsound skipped), winner {winner}",
            outcome.telemetry.configs_explored, outcome.skipped_unsound,
        );
        println!(
            "tune: {layout}: baseline {:.3} ms/pass -> tuned {:.3} ms/pass \
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
            "schema": "gaia-tune-search/v2",
            "layout": layout,
            "threads": threads,
            "rounds": ROUNDS,
            "smoke": smoke,
            "configs_explored": outcome.telemetry.configs_explored,
            "skipped_unsound": outcome.skipped_unsound,
            "winner": profile_json,
            "batches": serde_json::to_value(&outcome.batches)
                .unwrap_or(serde_json::Value::Null),
        });
        // Search logs live one level down so the profile loader's scan
        // of `results/tuning/*.json` only ever sees real profiles.
        must_write_artifact(&format!("tuning/search/{layout}.json"), &search_json);

        telemetry.merge(&outcome.telemetry);
        telemetry.profiles_persisted += 1;
    }
    gaia_telemetry::record(|t| t.tune.merge(&telemetry));
    println!(
        "tune: done — {} profile(s) persisted, {} configs, {:.2} s measured",
        telemetry.profiles_persisted, telemetry.configs_explored, telemetry.measure_seconds,
    );
}
