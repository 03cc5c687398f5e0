//! Solver-family analysis: run LSQR and LSMR on the same system, print
//! their convergence profiles, and show what the preconditioner buys —
//! the numerical-analysis view behind the paper's "customized and
//! preconditioned" design.
//!
//! ```sh
//! cargo run --release --example solver_analysis
//! ```

use gaia_avugsr::backends::backend_by_name;
use gaia_avugsr::lsqr::analysis::{convergence_profile, iterations_to_tolerance, profile_text};
use gaia_avugsr::lsqr::{solve, solve_lsmr, LsqrConfig};
use gaia_avugsr::sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

fn main() {
    let layout = SystemLayout::small();
    let (sys, _) = Generator::new(
        GeneratorConfig::new(layout)
            .seed(77)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-9 }),
    )
    .generate_with_truth();
    let backend = backend_by_name("hybrid", 4).expect("registered backend");
    println!(
        "system: {} rows x {} cols; backend: {}\n",
        sys.n_rows(),
        sys.n_cols(),
        gaia_avugsr::backends::Backend::name(&backend)
    );

    for (name, sol) in [
        (
            "LSQR (preconditioned)",
            solve(&sys, &backend, &LsqrConfig::new()),
        ),
        (
            "LSMR (preconditioned)",
            solve_lsmr(&sys, &backend, &LsqrConfig::new()),
        ),
        (
            "LSQR (no preconditioner)",
            solve(
                &sys,
                &backend,
                &LsqrConfig::new().precondition(false).max_iters(20_000),
            ),
        ),
    ] {
        println!("=== {name} ===");
        println!(
            "stopped: {:?} after {} iterations; cond(A) ~ {:.2e}",
            sol.stop, sol.iterations, sol.acond
        );
        print!("{}", profile_text(&sol));
        if let Some(p) = convergence_profile(&sol, 10) {
            if p.rate < 0.999 {
                println!(
                    "tail rate {:.4} per iteration (~{:.1} iterations per residual digit)",
                    p.rate,
                    p.iterations_per_digit.unwrap_or(f64::NAN)
                );
            } else {
                println!("tail: plateaued at the noise floor");
            }
        }
        for tol in [1e-3, 1e-6] {
            match iterations_to_tolerance(&sol, tol) {
                Some(k) => println!("reached |r|/|b| ≤ {tol:.0e} at iteration {k}"),
                None => println!("never reached |r|/|b| ≤ {tol:.0e}"),
            }
        }
        println!();
    }
    println!(
        "Takeaways: the Jacobi column scaling collapses the condition number\n\
         and the iteration count (the §III-B customization); LSMR tracks LSQR\n\
         iteration-for-iteration while keeping ‖Aᵀr‖ monotone — same aprod\n\
         cost, safer early stopping."
    );
}
