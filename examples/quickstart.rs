//! Quickstart: generate a synthetic Gaia AVU-GSR system, solve it with
//! the preconditioned LSQR on a parallel backend, and inspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gaia_avugsr::backends::backend_by_name;
use gaia_avugsr::lsqr::{solve, LsqrConfig};
use gaia_avugsr::sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

fn main() {
    // 1. Describe the problem shape. `SystemLayout::from_gb(10.0)` gives
    //    the paper's 10 GB benchmark; here we use a laptop-sized instance.
    let layout = SystemLayout::small();
    println!(
        "system: {} stars x {} obs -> {} rows, {} unknowns ({} astrometric)",
        layout.n_stars,
        layout.obs_per_star,
        layout.n_rows(),
        layout.n_cols(),
        layout.n_astro_cols(),
    );

    // 2. Generate the seeded synthetic dataset (b = A·x_true + noise).
    let config = GeneratorConfig::new(layout)
        .seed(2024)
        .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 });
    let (system, truth) = Generator::new(config).generate_with_truth();
    let x_true = truth.expect("consistent RHS requested");

    // 3. Solve with the CUDA-analogue backend (row-parallel, atomic f64
    //    updates for the colliding aprod2 blocks).
    let backend = backend_by_name("atomic", 4).expect("registered backend");
    let solution = solve(&system, &backend, &LsqrConfig::new());

    println!(
        "LSQR stopped after {} iterations: {:?}",
        solution.iterations, solution.stop
    );
    println!(
        "relative residual |b - Ax| / |b| = {:.3e}",
        solution.relative_residual()
    );
    println!(
        "condition estimate = {:.3e}, mean iteration time = {:.3} ms",
        solution.acond,
        1e3 * solution.mean_iteration_seconds()
    );

    // 4. Compare against the generating truth.
    let err: f64 = solution
        .x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let scale: f64 = x_true.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!("relative solution error vs truth = {:.3e}", err / scale);

    // 5. Standard errors (the quantity validated in the paper's Fig. 6).
    let se = solution.standard_errors().expect("var accumulated");
    let astro = layout.n_astro_cols() as usize;
    let mean_se_astro: f64 = se[..astro].iter().sum::<f64>() / astro as f64;
    println!("mean astrometric standard error = {mean_se_astro:.3e}");
    assert!(err / scale < 1e-6, "quickstart should converge tightly");
}
