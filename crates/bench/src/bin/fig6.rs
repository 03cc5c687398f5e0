//! Fig. 6 a–d: validation of the ports against the production solution.
//!
//! The paper compares the astrometric solution and its standard error
//! obtained by the HIP port (on H100/Leonardo and on MI250X/Setonix)
//! against the CUDA code in production, on real 42 GB / 306 GB datasets:
//! the pairs must fall on the 1:1 line, agree within 1σ, and the
//! standard-error differences must stay below 10 µas.
//!
//! Here the roles are played by *real solves with genuinely different
//! parallel backends* on a seeded synthetic system whose right-hand side
//! is calibrated to radian-scale astrometry (so the µas threshold is
//! meaningful): the sequential oracle stands in for the production CUDA
//! run, and two independently-parallelized backends (atomic-RMW and
//! stream-overlapped — the two strategies the HIP port combines) stand in
//! for HIP-on-H100 and HIP-on-MI250X.

use gaia_avugsr_fig6::run;

mod gaia_avugsr_fig6 {
    use gaia_backends::{backend_by_name, Backend, SeqBackend};
    use gaia_lsqr::{compare_solutions, solve, LsqrConfig, Solution, MICRO_ARCSEC_RAD};
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    /// Typical magnitude of an astrometric correction in radians
    /// (tens of milli-arcseconds).
    const ASTRO_SCALE_RAD: f64 = 1e-7;

    fn solve_port(sys: &gaia_sparse::SparseSystem, backend: &dyn Backend) -> Solution {
        solve(sys, backend, &LsqrConfig::new().max_iters(5_000))
    }

    pub fn run() {
        let layout = SystemLayout::small();
        let cfg = GeneratorConfig::new(layout)
            .seed(42)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-5 });
        let (mut sys, _) = Generator::new(cfg).generate_with_truth();
        // Calibrate the synthetic units to radians: scaling b scales the
        // solution and its standard errors linearly.
        let b: Vec<f64> = sys
            .known_terms()
            .iter()
            .map(|v| v * ASTRO_SCALE_RAD)
            .collect();
        sys.set_known_terms(b);

        println!("Fig. 6 — solution validation (synthetic 1σ + 10 µas criteria)");
        println!(
            "system: {} rows x {} cols, seed 42, radian-calibrated RHS\n",
            sys.n_rows(),
            sys.n_cols()
        );

        let production = solve_port(&sys, &SeqBackend);
        println!(
            "reference (production role): {:?} after {} iterations, |r|/|b| = {:.2e}",
            production.stop,
            production.iterations,
            production.relative_residual()
        );

        let ports: Vec<(&str, Box<dyn Backend>)> = vec![
            (
                "HIP-on-H100 role (atomic backend)",
                backend_by_name("atomic", 4).expect("registered backend"),
            ),
            (
                "HIP-on-MI250X role (streamed backend)",
                backend_by_name("streamed", 4).expect("registered backend"),
            ),
        ];

        let n_astro = sys.layout().n_astro_cols() as usize;
        let mut artifacts = Vec::new();
        for (label, backend) in ports {
            let sol = solve_port(&sys, &backend);
            let agr = compare_solutions(&production, &sol);
            let one_sigma = agr.within_one_sigma.unwrap_or(0.0);
            let below_10uas = agr.stderr_within(10.0 * MICRO_ARCSEC_RAD);
            println!("\n--- {label} ---");
            println!("  max |Δx|            = {:.3e} rad", agr.max_abs_diff);
            println!(
                "  mean Δx / std Δx    = {:.3e} / {:.3e}",
                agr.mean_diff, agr.std_diff
            );
            println!(
                "  within 1σ           = {:.2}% of unknowns",
                100.0 * one_sigma
            );
            println!(
                "  std-err Δ mean/std  = {:.3e} / {:.3e} rad (10 µas = {:.3e})",
                agr.stderr_mean_diff.unwrap_or(f64::NAN),
                agr.stderr_std_diff.unwrap_or(f64::NAN),
                10.0 * MICRO_ARCSEC_RAD
            );
            println!(
                "  verdict: 1σ {} | 10 µas {}",
                if agr.passes(0.99) { "PASS" } else { "FAIL" },
                if below_10uas { "PASS" } else { "FAIL" }
            );

            // Scatter sample for the 1:1 plots (astrometric section only,
            // as in the paper's panels).
            let se_ref = production.standard_errors().expect("var computed");
            let se_port = sol.standard_errors().expect("var computed");
            println!("  scatter sample (x_prod, x_port, se_prod, se_port):");
            for j in (0..n_astro).step_by((n_astro / 5).max(1)).take(5) {
                println!(
                    "    {:+.6e}  {:+.6e}  {:.3e}  {:.3e}",
                    production.x[j], sol.x[j], se_ref[j], se_port[j]
                );
            }
            artifacts.push(serde_json::json!({
                "port": label,
                "within_one_sigma": one_sigma,
                "max_abs_diff": agr.max_abs_diff,
                "stderr_mean_diff": agr.stderr_mean_diff,
                "stderr_std_diff": agr.stderr_std_diff,
                "passes_1sigma": agr.passes(0.99),
                "passes_10uas": below_10uas,
                "scatter_x": production.x[..n_astro.min(200)].to_vec(),
                "scatter_x_port": sol.x[..n_astro.min(200)].to_vec(),
            }));
            assert!(agr.passes(0.99), "{label} failed the 1σ validation");
            assert!(below_10uas, "{label} exceeded the 10 µas threshold");
        }
        gaia_bench::must_write_artifact("fig6_validation.json", &serde_json::json!(artifacts));

        // SVG scatter panels (the paper's 1:1 plots).
        for (idx, art) in artifacts.iter().enumerate() {
            let xs: Vec<f64> = art["scatter_x"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            let ys: Vec<f64> = art["scatter_x_port"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            let points: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
            let svg = gaia_p3::svg::scatter_1to1(
                art["port"].as_str().unwrap_or("port"),
                "x (production) [rad]",
                "x (port) [rad]",
                &points,
                if idx == 0 { "#d62728" } else { "#1f77b4" },
            );
            gaia_bench::must_write_text_artifact(&format!("fig6_scatter_{}.svg", idx + 1), &svg);
        }
        println!("\nAll ports validate, as in §V-C (\"in agreement within 1σ\" and");
        println!("\"always stay below the 10 micro-arcseconds threshold\").");
    }
}

fn main() {
    run();
}
