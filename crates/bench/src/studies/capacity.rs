//! Capacity-budget sweep: out-of-core solves under bounded tile memory.
//!
//! The paper's §V-B capacity gating asks which devices can *hold* which
//! problem size; this harness asks the follow-up the out-of-core path
//! exists to answer: what does a solve cost when the observation matrix
//! does **not** fit, and does the tile cache actually respect its budget?
//! For each layout it spills the system to a `gaia-tiles/v4` directory,
//! then solves it at budgets {unbounded, 2×, 1.25×, 0.75×} of the
//! resident matrix bytes, recording per-iteration time, tile
//! loads/hits/evictions, and the measured peak resident bytes.
//!
//! The run *audits* itself and exits non-zero on violation:
//!
//! * every bounded cell must keep `peak_resident_bytes <= budget`;
//! * every under-provisioned cell (factor < 1) must record >= 1 eviction
//!   (a cache that never evicts under-budget is not being exercised) and
//!   at least one hit (a cache that holds most of the matrix and still
//!   reloads every tile of every scan is thrashing);
//! * on the `tiny` layout the tiled solution must be bitwise identical
//!   to the resident solve with the same backend.
//!
//! `--smoke` shrinks the sweep to `tiny` × {unbounded, 0.75×} for CI.
//! Artifact: `results/capacity/sweep.json` with `gaia-sweep-summary/v1`
//! aggregate rows plus full per-cell detail.

use std::path::PathBuf;

use gaia_backends::backend_by_name;
use gaia_bench::sweep::{summary_block, SummaryRow};
use gaia_bench::{fatal, must_write_artifact, Flags};
use gaia_lsqr::{solve, solve_tiled, LsqrConfig};
use gaia_sparse::{CapacityBudget, Generator, GeneratorConfig, Rhs, SystemLayout, TiledSystem};

/// Fixed iteration count: enough work to stream every tile repeatedly,
/// short enough for CI.
const ITERATIONS: usize = 6;

/// Budget factors swept per layout (`None` = unbounded).
const FACTORS: &[Option<f64>] = &[None, Some(2.0), Some(1.25), Some(0.75)];

pub fn run(mut args: Flags) {
    let mut smoke = false;
    let mut backend_name = "seq".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--backend" => backend_name = args.value("--backend"),
            other => fatal(&format!(
                "unknown flag {other} (expected --smoke/--backend)"
            )),
        }
    }
    let backend = backend_by_name(&backend_name, 4)
        .unwrap_or_else(|| fatal(&format!("unknown backend `{backend_name}`")));

    let layouts: Vec<(&str, SystemLayout)> = if smoke {
        vec![("tiny", SystemLayout::tiny())]
    } else {
        vec![
            ("tiny", SystemLayout::tiny()),
            ("small", SystemLayout::small()),
            ("medium", SystemLayout::medium()),
        ]
    };
    let factors: Vec<Option<f64>> = if smoke {
        vec![None, Some(0.75)]
    } else {
        FACTORS.to_vec()
    };

    let scratch = std::env::temp_dir().join(format!("gaia-capacity-{}", std::process::id()));
    let cfg = LsqrConfig::fixed_iterations(ITERATIONS);
    let mut rows: Vec<SummaryRow> = Vec::new();
    let mut cells = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    println!("capacity sweep: backend={backend_name}, {ITERATIONS} iterations per cell");
    for (layout_name, layout) in &layouts {
        let dir: PathBuf = scratch.join(layout_name);
        let tile_stars = (layout.n_stars / 8).max(1);
        let gen_cfg = GeneratorConfig::new(*layout)
            .seed(9)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 });
        let manifest = Generator::new(gen_cfg)
            .generate_tiled(&dir, tile_stars)
            .unwrap_or_else(|e| fatal(&format!("tiled generation for {layout_name}: {e}")));
        let disk_bytes: u64 = manifest.tiles.iter().map(|t| t.bytes).sum();
        gaia_telemetry::record(|t| t.tile.spilled_bytes += disk_bytes);

        // Resident reference for the bitwise audit (tiny only: assembling
        // the bigger layouts would defeat the point of the sweep).
        let resident_x: Option<Vec<f64>> = (*layout_name == "tiny").then(|| {
            let sys = TiledSystem::open(&dir)
                .and_then(|t| t.assemble())
                .unwrap_or_else(|e| fatal(&format!("assemble {layout_name}: {e}")));
            solve(&sys, backend.as_ref(), &cfg).x
        });

        for &factor in &factors {
            let probe = TiledSystem::open(&dir)
                .unwrap_or_else(|e| fatal(&format!("open {layout_name}: {e}")));
            let matrix_bytes = probe.matrix_bytes();
            drop(probe);
            let (budget, budget_bytes) = match factor {
                None => (CapacityBudget::unbounded(), None),
                Some(f) => {
                    let bytes = (f * matrix_bytes as f64) as u64;
                    (CapacityBudget::limited(bytes), Some(bytes))
                }
            };
            let tiles = TiledSystem::open_with_budget(&dir, budget)
                .unwrap_or_else(|e| fatal(&format!("open {layout_name} at {factor:?}: {e}")));
            let sol = solve_tiled(&tiles, backend.as_ref(), &cfg)
                .unwrap_or_else(|e| fatal(&format!("tiled solve {layout_name}: {e}")));
            let stats = tiles.stats();
            let label = factor.map_or("unbounded".into(), |f| format!("{f}x"));
            let group = format!("layout={layout_name}/budget={label}");

            let peak_ok = budget_bytes.is_none_or(|b| stats.peak_resident_bytes <= b);
            if !peak_ok {
                violations.push(format!(
                    "{group}: peak resident {} exceeds budget {}",
                    stats.peak_resident_bytes,
                    budget_bytes.unwrap()
                ));
            }
            let must_evict = factor.is_some_and(|f| f < 1.0);
            let never_evicted = must_evict && stats.evictions == 0;
            if never_evicted {
                violations.push(format!("{group}: under-provisioned cell never evicted"));
            }
            let thrashed = must_evict && stats.hits == 0;
            if thrashed {
                violations.push(format!(
                    "{group}: {} loads and not one hit — the cache is thrashing",
                    stats.loads
                ));
            }
            let bitwise = resident_x.as_ref().map(|want| {
                want.len() == sol.x.len()
                    && want
                        .iter()
                        .zip(&sol.x)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if bitwise == Some(false) {
                violations.push(format!("{group}: tiled solve diverged from resident solve"));
            }
            let cell_ok = peak_ok && !never_evicted && !thrashed && bitwise != Some(false);

            let iter_seconds: Vec<f64> = sol.history.iter().map(|h| h.seconds).collect();
            println!(
                "  {group:<36} {:>7.2} ms/iter  loads={:<4} hits={:<4} evictions={:<4} peak={} B{}",
                1e3 * iter_seconds.iter().sum::<f64>() / iter_seconds.len().max(1) as f64,
                stats.loads,
                stats.hits,
                stats.evictions,
                stats.peak_resident_bytes,
                if cell_ok { "" } else { "  [VIOLATION]" },
            );
            rows.push(SummaryRow {
                group: group.clone(),
                runs: 1,
                converged: u64::from(cell_ok),
                failures: u64::from(!cell_ok),
                ..SummaryRow::default()
            });
            cells.push(serde_json::json!({
                "layout": layout_name,
                "budget": label,
                "budget_bytes": budget_bytes,
                "matrix_bytes": matrix_bytes,
                "disk_bytes": disk_bytes,
                "tile_stars": tile_stars,
                "n_tiles": tiles.n_tiles(),
                "backend": backend_name,
                "iterations": sol.iterations,
                "iteration_seconds": iter_seconds,
                "rnorm": sol.rnorm,
                "loads": stats.loads,
                "hits": stats.hits,
                "evictions": stats.evictions,
                "loaded_bytes": stats.loaded_bytes,
                "evicted_bytes": stats.evicted_bytes,
                "peak_resident_bytes": stats.peak_resident_bytes,
                "bitwise_vs_resident": bitwise,
                "ok": cell_ok,
            }));
        }
    }
    std::fs::remove_dir_all(&scratch).ok();

    must_write_artifact(
        "capacity/sweep.json",
        &serde_json::json!({
            "smoke": smoke,
            "summary": summary_block(&rows),
            "cells": cells,
        }),
    );

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("capacity audit violation: {v}");
        }
        fatal(&format!("{} capacity audit violation(s)", violations.len()));
    }
    println!("capacity audit passed: every bounded cell stayed within budget");
}
