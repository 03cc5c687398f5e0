//! This repository's own *measured* portability study: the real Rust
//! backends play the role of the paper's frameworks, and CPU parallelism
//! budgets (thread counts) play the role of the platforms. Everything
//! here is wall-clock measurement of real kernels — no simulation.
//!
//! The same Pennycook analysis applies: a backend that is fastest at one
//! thread count but scales poorly (e.g. lock-striped) gets a low `P`,
//! while a uniformly-close strategy (privatize + reduce) scores high —
//! the CPU mirror of the HIP/SYCL-vs-PSTL story.

use std::time::Instant;

use gaia_backends::{backend_by_name, Backend, Tuning};
use gaia_lsqr::{solve, LsqrConfig};
use gaia_p3::{report, Cascade, MeasurementSet, Normalization};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

const ITERATIONS: usize = 20;

fn measure(backend: &dyn Backend, sys: &gaia_sparse::SparseSystem) -> f64 {
    // Warm-up solve, then the timed fixed-iteration run, as in the
    // artifact's 100-iteration timing protocol (scaled down for CI).
    let cfg = LsqrConfig::fixed_iterations(ITERATIONS);
    let _ = solve(sys, backend, &cfg);
    // gaia-analyze: allow(timing): end-to-end wall-clock is this
    // benchmark's deliverable; telemetry scopes time kernels, not runs.
    let start = Instant::now();
    let sol = solve(sys, backend, &cfg);
    assert_eq!(sol.iterations, ITERATIONS);
    start.elapsed().as_secs_f64() / ITERATIONS as f64
}

pub fn run(_: gaia_bench::Flags) {
    let layout = SystemLayout::medium();
    let sys = Generator::new(
        GeneratorConfig::new(layout)
            .seed(7)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-6 }),
    )
    .generate();
    println!(
        "measured CPU portability study: {} rows x {} cols, {} LSQR iterations per cell\n",
        sys.n_rows(),
        sys.n_cols(),
        ITERATIONS
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

    let mut set = MeasurementSet::new();
    for budget in &budgets {
        let platform = format!("threads-{budget}");
        for name in strategies {
            let backend = backend_by_name(name, *budget).expect("registry");
            let secs = measure(&backend, &sys);
            set.record(name, &platform, secs);
            println!("  {name:<11} on {platform:<11} {secs:.6} s/iter");
        }
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
