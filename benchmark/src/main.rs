//! The repo benchmark. `benchmark/run.sh` builds this crate and runs it.
//!
//! * `--workload W --seed S --seconds N --trace 0|1` runs one workload
//!   in this process, prints every metric by name with its unit, and
//!   ends with one JSON object on the last line of standard output.
//! * Without `--workload` it runs all five, each in a process of its
//!   own (so the shared executor pool and the peak RSS belong to one
//!   workload), and writes `out/latest.json`. `--traced` asks for the
//!   per-layer run, `--check` runs the end-to-end set twice and holds
//!   the two against the bounds of `BENCHMARK.json`, `--smoke` runs both
//!   modes on tiny inputs.

mod host;
mod layers;
mod metrics;
mod served;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::{json, Map, Value};

use metrics::WORKLOADS;
use workloads::Options;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced] [--check] [--smoke]";

struct Args {
    home: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        home: PathBuf::from("benchmark"),
        workload: None,
        seed: 9,
        seconds: None,
        traced: false,
        check: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--home" => args.home = PathBuf::from(value()?),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, which sits beside the benchmark's directory.
fn manifest(home: &Path) -> Result<Value, String> {
    let path = home.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process: metric lines, then the result object.
fn run_one(workload: &str, opts: &Options) -> Result<bool, String> {
    let (result, exact) = workloads::run(workload, opts)?;
    let mode = if opts.traced {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "== {workload}: {mode}, seed {}, {} s, {} threads",
        opts.seed,
        opts.seconds,
        host::nproc()
    );
    for (name, unit, value) in result.declared(workload, opts.traced) {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed = {} of {} attempted",
        result.failed, result.attempted
    );
    let mut counts = Map::new();
    for (name, value) in exact {
        counts.insert(name.to_string(), json!(value));
    }
    println!("exact: {}", Value::Object(counts));
    println!("{}", result.to_json(workload, opts.traced));
    Ok(result.correct)
}

/// Run one workload in a process of its own, pass its output through,
/// and return its result object and exact counts. A child that printed
/// no result, or exited non-zero (a failed check), is an error.
fn spawn_one(args: &Args, workload: &str, traced: bool, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--home").arg(&args.home);
    cmd.args(["--workload", workload]);
    cmd.args(["--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects what it printed.
    let out = cmd.output().map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    let exact = lines
        .iter()
        .find_map(|l| l.strip_prefix("exact: "))
        .and_then(|text| serde_json::from_str::<Value>(text).ok())
        .unwrap_or(Value::Null);
    for line in lines {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload} printed no result: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    Ok(json!({"result": result, "exact": exact}))
}

/// All five workloads, one process each; returns them by name.
fn run_set(args: &Args, traced: bool, seconds: f64) -> Result<Map, String> {
    let mut set = Map::new();
    for workload in WORKLOADS {
        let child = spawn_one(args, workload, traced, seconds)?;
        set.insert(workload.to_string(), child);
    }
    Ok(set)
}

fn write_latest(args: &Args, doc: &Value) -> Result<(), String> {
    let path = args.home.join("out").join("latest.json");
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn metric_value(set: &Map, workload: &str, metric: &str) -> Option<f64> {
    set.get(workload)?["result"]["metrics"][metric]["value"].as_f64()
}

/// Two end-to-end sets with one seed must agree within each metric's
/// bound, and the counts that repeat exactly must be equal.
fn check(args: &Args, seconds: f64) -> Result<bool, String> {
    let manifest = manifest(&args.home)?;
    let first = run_set(args, false, seconds)?;
    let second = run_set(args, false, seconds)?;
    let mut ok = true;
    println!("== check: two sets, seed {}", args.seed);
    for workload in WORKLOADS {
        for metric in manifest["end_to_end"].as_array().into_iter().flatten() {
            let (name, bound) = (
                metric["name"].as_str().unwrap_or_default(),
                metric["bound"].as_f64().unwrap_or(0.0),
            );
            let (Some(a), Some(b)) = (
                metric_value(&first, workload, name),
                metric_value(&second, workload, name),
            ) else {
                return Err(format!("{workload} did not print {name}"));
            };
            let spread = (a - b).abs() / a.min(b);
            let verdict = if spread <= bound { "ok" } else { "OUTSIDE" };
            println!("{workload:<16} {name:<15} {a:>12.5} {b:>12.5}  spread {spread:.4}  bound {bound}  {verdict}");
            ok &= spread <= bound;
        }
        let (a, b) = (
            &first.get(workload).expect("ran")["exact"],
            &second.get(workload).expect("ran")["exact"],
        );
        let verdict = if a == b { "ok" } else { "DIFFER" };
        println!("{workload:<16} exact counts {a} vs {b}  {verdict}");
        ok &= a == b;
    }
    write_latest(
        args,
        &json!({"seed": args.seed, "first": Value::Object(first), "second": Value::Object(second)}),
    )?;
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let default_seconds = if args.smoke {
        0.5
    } else {
        manifest(&args.home)?["run_seconds"]
            .as_f64()
            .unwrap_or(10.0)
    };
    let seconds = args.seconds.unwrap_or(default_seconds);
    if let Some(workload) = &args.workload {
        let opts = Options {
            seed: args.seed,
            seconds,
            traced: args.traced,
            smoke: args.smoke,
            home: args.home.clone(),
        };
        return run_one(workload, &opts);
    }
    if args.check {
        return check(args, seconds);
    }
    let mut doc = Map::new();
    doc.insert("seed".into(), json!(args.seed));
    // A smoke run takes both modes; otherwise the one asked for.
    for traced in [false, true] {
        if args.smoke || traced == args.traced {
            let set = run_set(args, traced, seconds)?;
            let key = if traced { "per_layer" } else { "end_to_end" };
            doc.insert(key.into(), Value::Object(set));
        }
    }
    write_latest(args, &Value::Object(doc))?;
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a solution failed its check, or two sets disagreed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
