//! This repository's own *measured* portability study: the real Rust
//! backends play the role of the paper's frameworks, and CPU parallelism
//! budgets (thread counts) play the role of the platforms. Everything
//! here is wall-clock measurement of real kernels — no simulation.
//!
//! The same Pennycook analysis applies: a backend that is fastest at one
//! thread count but scales poorly (e.g. lock-striped) gets a low `P`,
//! while a uniformly-close strategy (privatize + reduce) scores high —
//! the CPU mirror of the HIP/SYCL-vs-PSTL story.
//!
//! [`gaia_bench::measure_portability`] times each thread budget's backends
//! as one batch in interleaved rounds; every cell reports its median and
//! IQR per iteration, and `P` is computed from the medians.

use gaia_backends::Tuning;
use gaia_bench::measure_portability;
use gaia_bench::stats::ROUNDS;
use gaia_p3::{report, Cascade, Normalization};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

const ITERATIONS: usize = 20;

pub fn run(_: gaia_bench::Flags) {
    let layout = SystemLayout::medium();
    let sys = Generator::new(
        GeneratorConfig::new(layout)
            .seed(7)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-6 }),
    )
    .generate();
    println!(
        "measured CPU portability study: {} rows x {} cols, {} LSQR iterations per run, \
         each budget's backends timed in {} interleaved rounds, telemetry probes in: {}\n",
        sys.n_rows(),
        sys.n_cols(),
        ITERATIONS,
        ROUNDS,
        gaia_telemetry::is_enabled(),
    );

    // Platforms are thread budgets the host can actually run side by
    // side — never more threads than cores: the powers of two up to its
    // parallelism, plus the parallelism itself.
    let max_threads = Tuning::auto().threads;
    let mut budgets: Vec<usize> = std::iter::successors(Some(1usize), |b| b.checked_mul(2))
        .take_while(|&b| b <= max_threads)
        .collect();
    if budgets.last() != Some(&max_threads) {
        budgets.push(max_threads);
    }
    println!("host parallelism {max_threads}: thread budgets {budgets:?}\n");

    // rayon's global pool is fixed at startup, so the tuning-oblivious
    // backend (like PSTL) uses whatever the runtime decides — we still
    // record it per budget, which is exactly its handicap in this study.
    let strategies = [
        "seq",
        "chunked",
        "atomic",
        "casloop",
        "replicated",
        "striped",
        "streamed",
        "rayon",
        "hybrid",
    ];

    let (set, cells) = measure_portability(&sys, &budgets, &strategies, ITERATIONS, ROUNDS);
    for c in &cells {
        println!(
            "  {:<11} on {:<11} median {:.3} ms/iter, IQR {:.3} ms",
            c.backend,
            c.platform,
            c.summary.median_s * 1e3,
            c.summary.iqr_s * 1e3,
        );
    }

    let platforms: Vec<String> = budgets.iter().map(|b| format!("threads-{b}")).collect();
    let matrix = set.efficiencies(Normalization::PlatformBest);
    println!("\n{}", report::efficiency_table(&matrix, &platforms));
    println!("{}", report::pp_table(&matrix, &platforms));
    for app in matrix.apps() {
        let cascade = Cascade::build(&matrix, app, &platforms);
        print!("{}", report::cascade_table(&cascade));
    }

    gaia_bench::must_write_artifact(
        "cpu_portability.json",
        &serde_json::json!({
            "iterations": ITERATIONS,
            "rounds": ROUNDS,
            "telemetry_probes": gaia_telemetry::is_enabled(),
            "cells": cells,
            "available_parallelism": max_threads,
            "budgets": budgets,
            "pp": matrix.apps().iter().map(|a| {
                serde_json::json!({"backend": a, "pp": matrix.pp(a, &platforms)})
            }).collect::<Vec<_>>(),
        }),
    );

    // Per-kernel telemetry of representative strategies at the largest
    // budget: where inside aprod1/aprod2 each conflict strategy spends its
    // time (JSON artifacts under results/telemetry/).
    println!("\nper-kernel telemetry at threads-{max_threads}:\n");
    for name in ["seq", "atomic", "replicated", "streamed"] {
        let report = gaia_bench::measured_run(
            &format!("cpu_portability_{name}"),
            name,
            max_threads,
            &sys,
            ITERATIONS,
        );
        println!("{}:", report.backend);
        print!("{}", gaia_telemetry::kernel_table(&report.telemetry));
        println!();
    }
}
