//! Tests of the benchmark itself: the wrappers change nothing, the
//! declared metric lists match `BENCHMARK.json`, and every workload runs
//! in both modes and prints exactly what it declares.

use std::path::PathBuf;

use gaia_backends::SeqBackend;
use gaia_lsqr::{solve, solve_operator, LsqrConfig, Solution, TiledOperator};
use gaia_sparse::{write_tiles, Generator, GeneratorConfig, SystemLayout, TiledSystem};
use serde_json::Value;

use crate::host;
use crate::metrics::{applies, per_layer, Metrics, RunResult, END_TO_END, WORKLOADS};
use crate::timed::Timed;
use crate::trace::Trace;
use crate::workloads::{self, Options};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A home of its own under `out/` for a test that runs a workload, so
/// tests running side by side share no directory.
fn test_home(name: &str) -> PathBuf {
    let home = manifest_dir().join("out").join(format!("test-{name}"));
    std::fs::create_dir_all(&home).expect("create test home");
    home
}

fn bitwise_equal(a: &Solution, b: &Solution) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    bits(&a.x) == bits(&b.x)
        && bits(&a.var) == bits(&b.var)
        && a.iterations == b.iterations
        && a.stop == b.stop
        && a.rnorm.to_bits() == b.rnorm.to_bits()
}

#[test]
fn solve_through_timed_backend_is_bitwise_identical() {
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(5)).generate();
    let cfg = LsqrConfig::new();
    let plain = solve(&sys, &SeqBackend, &cfg);
    let trace = Trace::new();
    let wrapped = solve(&sys, &Timed::new(SeqBackend, &trace), &cfg);
    assert!(bitwise_equal(&plain, &wrapped));
    let spans = trace.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    // One aprod2 at initialization, then one of each per iteration.
    assert_eq!(count("backends.aprod1"), plain.iterations);
    assert_eq!(count("backends.aprod2"), plain.iterations + 1);
    assert!(count("backends.blas") > plain.iterations);
}

#[test]
fn solve_through_timed_operator_is_bitwise_identical() {
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(6)).generate();
    let cfg = LsqrConfig::new();
    let plain = solve(&sys, &SeqBackend, &cfg);
    let dir = test_home("timed-operator").join("tiles");
    write_tiles(&sys, &dir, 40).expect("spill");
    let tiles = TiledSystem::open(&dir).expect("open");
    let trace = Trace::new();
    let backend = Timed::new(SeqBackend, &trace);
    let op = Timed::new(TiledOperator::new(&tiles, &backend), &trace);
    let wrapped = solve_operator(op, &cfg).expect("tiled solve");
    assert!(bitwise_equal(&plain, &wrapped));
    // Every backend call of a product is a child of an operator span.
    let spans = trace.spans();
    let nested = spans
        .iter()
        .filter(|s| s.name == "backends.aprod1")
        .all(|s| s.parent.is_some_and(|p| spans[p].name == "core.ooc.aprod1"));
    assert!(nested);
    std::fs::remove_dir_all(test_home("timed-operator")).ok();
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn manifest() -> Value {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &Value) -> Vec<(String, String)> {
    let field = |entry: &Value, key: &str| entry[key].as_str().expect(key).to_string();
    section
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn names_are_well_formed_and_equal_the_manifest() {
    let manifest = manifest();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&manifest["end_to_end"]), owned(&END_TO_END));
    assert_eq!(declared(&manifest["per_layer"]), layers);
    let workloads: Vec<&str> = manifest["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut seen = std::collections::BTreeSet::new();
    let metrics = owned(&END_TO_END).into_iter().chain(layers);
    for (name, unit) in metrics.chain(WORKLOADS.map(|w| (w.to_string(), "count".to_string()))) {
        assert!(valid_name(&name), "{name}");
        assert!(valid_unit(&unit), "{unit}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
    }
    assert!(manifest["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .all(|m| m["bound"].as_f64().is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(seen.contains("setup_s"));
}

#[test]
fn result_object_round_trips_with_exactly_the_declared_keys() {
    let mut metrics = Metrics::default();
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        metrics.set(*name, 0.1 + i as f64 / 3.0);
    }
    let result = RunResult {
        correct: true,
        attempted: 17,
        failed: 0,
        metrics,
    };
    let doc = result.to_json("resident-seq", false);
    let back: Value = serde_json::from_str(&doc.to_string()).expect("parses");
    assert_eq!(back, doc);
    let keys = |v: &Value| -> Vec<String> {
        let object = v.as_object().expect("object");
        object.iter().map(|(k, _)| k.clone()).collect()
    };
    assert_eq!(keys(&back), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(keys(&back["metrics"]), END_TO_END.map(|(n, _)| n));
    assert_eq!(
        back["metrics"]["solve_s"]["value"].as_f64(),
        Some(0.1 + 1.0 / 3.0)
    );
    assert_eq!(back["metrics"]["solve_s"]["unit"].as_str(), Some("s"));
    assert_eq!(back["attempted"].as_u64(), Some(17));
}

#[test]
#[should_panic(expected = "not declared")]
fn an_undeclared_metric_is_refused() {
    let mut metrics = Metrics::default();
    metrics.set("solve_seconds", 1.0);
    let result = RunResult {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics,
    };
    result.declared("resident-seq", false);
}

#[test]
fn confining_to_one_core_lasts_as_long_as_its_guard() {
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = cores();
    let guard = host::confine_to_current_core().expect("affinity can be set");
    assert_eq!(cores(), 1);
    assert_eq!(host::nproc(), before, "T stays the host's core count");
    drop(guard);
    assert_eq!(cores(), before);
}

#[test]
fn every_workload_runs_in_both_modes_and_prints_what_it_declares() {
    for workload in WORKLOADS {
        let home = test_home(workload);
        for traced in [false, true] {
            let opts = Options {
                seed: 4,
                seconds: 0.2,
                traced,
                smoke: true,
                home: home.clone(),
            };
            let (result, exact) = workloads::run(workload, &opts)
                .unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"));
            assert!(result.correct, "{workload} traced={traced}");
            assert!(result.attempted >= 2 && result.failed == 0);
            // `declared` panics on a missing or an undeclared metric.
            let printed = result.declared(workload, traced);
            for (name, _, value) in &printed {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !traced {
                    assert!(*value > 0.0, "{workload}: {name} = {value}");
                } else if !applies(name, workload) {
                    assert_eq!(*value, 0.0, "{workload}: {name}");
                }
            }
            if traced {
                assert_eq!(printed.len(), per_layer().len());
                assert!(home
                    .join("out")
                    .join(format!("trace-{workload}.json"))
                    .exists());
            } else if workload != "resident-atomic" && workload != "served-mix" {
                assert!(exact.iter().any(|(n, v)| *n == "core.iterations" && *v > 0));
            }
        }
        std::fs::remove_dir_all(&home).ok();
    }
}
