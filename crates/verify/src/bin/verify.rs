//! Command-line verification driver.
//!
//! ```text
//! verify [--schedules N] [--seed S] [--out DIR]   full run → JSON artifact
//! verify --canary [--schedules N]                 broken-strategy canary
//! ```
//!
//! * The **full run** replays every `aprod2` conflict strategy under `N`
//!   seeded adversarial schedules (default 200), checks every metamorphic
//!   property for every backend over the committed seed corpus (or the
//!   single `--seed`), compares every backend's LSQR trajectory against
//!   the sequential reference, and writes `results/verify/<name>.json`.
//!   Exit code 0 iff everything passed.
//! * The **canary** runs the deliberately racy lost-update fixture and
//!   exits 0 only if the harness *caught* the race — CI runs this so a
//!   harness that stops detecting races fails the build.

use std::path::PathBuf;
use std::process::ExitCode;

use gaia_sparse::MatrixLayout;
use gaia_verify::metamorphic::{self, BACKENDS, THREADS};
use gaia_verify::report::{VerifyReport, DEFAULT_DIR};
use gaia_verify::{corpus, schedule, trajectory};

const USAGE: &str = "usage: verify [--canary] [--schedules N] [--seed S] [--out DIR]";

struct Args {
    canary: bool,
    seed: Option<u64>,
    schedules: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        canary: false,
        seed: None,
        schedules: 200,
        out: PathBuf::from(DEFAULT_DIR),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--canary" => args.canary = true,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?);
            }
            "--schedules" => {
                let v = value("--schedules")?;
                args.schedules = v.parse().map_err(|e| format!("--schedules {v:?}: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.canary {
        let seeds = corpus::schedule_seeds(args.schedules.clamp(4, 16));
        let rep = schedule::explore_broken(&seeds);
        if !rep.write_model_flagged {
            eprintln!(
                "CANARY FAILURE: the static write-model layer did not flag the \
                 racy model as an illegal strategy/block pairing"
            );
            return ExitCode::FAILURE;
        }
        if !rep.read_model_flagged {
            eprintln!(
                "CANARY FAILURE: the static read/write access layer did not \
                 flag the racy model's stale cross-lane reads"
            );
            return ExitCode::FAILURE;
        }
        if !rep.statically_flagged {
            eprintln!("CANARY FAILURE: static layers flagged but the union bit is unset");
            return ExitCode::FAILURE;
        }
        if rep.failures > 0 {
            println!(
                "canary caught by all three layers: write model + read/write \
                 model statically flagged, and {}/{} schedules exposed the \
                 lost-update race (max error {:.3e})",
                rep.failures, rep.schedules, rep.max_abs_error
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "CANARY FAILURE: the deliberately racy fixture survived {} schedules undetected",
            rep.schedules
        );
        return ExitCode::FAILURE;
    }

    let seeds = match args.seed {
        Some(s) => vec![s],
        None => corpus::corpus_seeds(),
    };
    let mut report = VerifyReport::new();
    report.seeds = seeds.clone();
    report.schedules_per_strategy = args.schedules;

    // Layer 1: adversarial schedules over every conflict strategy × budget.
    let sched_seeds = corpus::schedule_seeds(args.schedules);
    for (name, strategy) in schedule::strategies() {
        for streamed in [false, true] {
            let rep = schedule::explore_strategy(name, strategy, streamed, &sched_seeds);
            println!(
                "schedule    {:<26} {:>4} schedules  {}",
                rep.subject,
                rep.schedules,
                if rep.passed() { "ok" } else { "FAILED" }
            );
            report.schedule.push(rep);
        }
    }
    // ... and over the ELL layout the auto-tuner can select, under the
    // contended atomic strategy.
    let rep = schedule::explore_layout(MatrixLayout::Ell, &sched_seeds);
    println!(
        "schedule    {:<26} {:>4} schedules  {}",
        rep.subject,
        rep.schedules,
        if rep.passed() { "ok" } else { "FAILED" }
    );
    report.schedule.push(rep);

    // Layer 2: metamorphic properties × backends × seeds.
    for backend in BACKENDS {
        let mut failed = 0usize;
        let mut total = 0usize;
        for &seed in &seeds {
            for (_, check) in metamorphic::all_checks() {
                let o = check(seed, backend);
                total += 1;
                if !o.passed {
                    failed += 1;
                    eprintln!(
                        "property    {} / {} / seed {}: {}",
                        o.property, o.backend, o.seed, o.detail
                    );
                }
                report.properties.push(o);
            }
        }
        println!(
            "metamorphic {:<26} {:>4} checks     {}",
            backend,
            total,
            if failed == 0 { "ok" } else { "FAILED" }
        );
    }

    // Layer 3: per-iteration trajectory agreement with the reference.
    for backend in BACKENDS.iter().filter(|b| **b != "seq") {
        let mut worst = 0u64;
        for &seed in &seeds {
            let t = trajectory::compare_with_seq(seed, backend, THREADS);
            worst = worst.max(t.max_ulp);
            if !t.within_budget() {
                eprintln!(
                    "trajectory  {} / seed {}: {} ulp on {} at iteration {}",
                    t.backend, t.seed, t.max_ulp, t.worst_scalar, t.worst_iteration
                );
            }
            report.trajectories.push(t);
        }
        println!("trajectory  {backend:<26} max {worst} ulp");
    }

    let passed = report.passed();
    let name = match args.seed {
        Some(s) => format!("verify-seed-{s}"),
        None => "verify-full".into(),
    };
    match report.write_json(&args.out, &name) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => {
            eprintln!("failed to write report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if passed {
        println!("verification passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("verification FAILED");
        ExitCode::FAILURE
    }
}
