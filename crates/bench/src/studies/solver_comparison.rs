//! LSQR vs LSMR (extension): the AVU-GSR solver family compared on the
//! same backends and systems — iterations to convergence, optimality
//! (‖Aᵀr‖) trajectories, and per-iteration cost. Both algorithms run the
//! identical two sparse products per iteration, so the paper's entire
//! portability analysis transfers to LSMR unchanged; what differs is the
//! numerics (LSMR's monotone ‖Aᵀr‖ makes early stopping safer on noisy
//! astrometric data).

use std::time::Instant;

use gaia_backends::backend_by_name;
use gaia_lsqr::{solve, solve_lsmr, LsqrConfig};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

pub fn run(_: gaia_bench::Flags) {
    let backend = backend_by_name("atomic", 4).expect("registered backend");
    println!(
        "{:<10} {:>9} | {:>12} {:>12} | {:>12} {:>12} | {:>14}",
        "noise", "rows", "LSQR iters", "LSMR iters", "LSQR ms", "LSMR ms", "ΔX (max abs)"
    );
    let mut rows_json = Vec::new();
    for noise in [0.0, 1e-8, 1e-4, 1e-2] {
        let cfg = GeneratorConfig::new(SystemLayout::small())
            .seed(21)
            .rhs(Rhs::FromTrueSolution { noise_sigma: noise });
        let (sys, _) = Generator::new(cfg).generate_with_truth();
        let solver_cfg = LsqrConfig::new().max_iters(20_000);

        // gaia-analyze: allow(timing): end-to-end wall-clock is this
        // benchmark's deliverable; telemetry scopes time kernels, not runs.
        let t0 = Instant::now();
        let a = solve(&sys, &backend, &solver_cfg);
        let t_lsqr = t0.elapsed().as_secs_f64();
        // gaia-analyze: allow(timing): same wall-clock protocol for the
        // LSMR leg so the two solvers are compared like for like.
        let t0 = Instant::now();
        let b = solve_lsmr(&sys, &backend, &solver_cfg);
        let t_lsmr = t0.elapsed().as_secs_f64();

        let max_diff =
            a.x.iter()
                .zip(&b.x)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f64, f64::max);
        println!(
            "{:<10.0e} {:>9} | {:>12} {:>12} | {:>12.2} {:>12.2} | {:>14.3e}",
            noise,
            sys.n_rows(),
            a.iterations,
            b.iterations,
            1e3 * t_lsqr,
            1e3 * t_lsmr,
            max_diff
        );

        // Optimality trajectory: count LSQR's non-monotone ‖Aᵀr‖ steps vs
        // LSMR's (which must be zero).
        let bumps = |h: &[gaia_lsqr::IterationStats]| {
            h.windows(2)
                .filter(|w| w[1].arnorm > w[0].arnorm * (1.0 + 1e-12))
                .count()
        };
        println!(
            "           ‖Aᵀr‖ increases along the run: LSQR {}, LSMR {}",
            bumps(&a.history),
            bumps(&b.history)
        );
        rows_json.push(serde_json::json!({
            "noise": noise,
            "lsqr_iterations": a.iterations,
            "lsmr_iterations": b.iterations,
            "max_solution_diff": max_diff,
            "lsqr_arnorm_bumps": bumps(&a.history),
            "lsmr_arnorm_bumps": bumps(&b.history),
        }));
    }
    gaia_bench::must_write_artifact("solver_comparison.json", &serde_json::json!(rows_json));
    println!(
        "\nBoth solvers cost one aprod1 + one aprod2 per iteration, so every\n\
         framework/platform conclusion of the paper applies to either; LSMR\n\
         buys a monotone optimality measure for comparable iteration counts."
    );
}
