//! Distributed LSQR: shard the observations across simulated MPI ranks
//! (threads + deterministic collectives), solve, and verify the result is
//! identical to a single-rank solve — the §IV decomposition of the
//! production code. Every rank runs the same LSQR recurrence as `solve`
//! does, over an operator that holds its shard and allreduces.
//!
//! ```sh
//! cargo run --release --example distributed_solve -- 4
//! ```

use gaia_avugsr::backends::{backend_by_name, SeqBackend};
use gaia_avugsr::lsqr::distributed::{solve_distributed, solve_hybrid};
use gaia_avugsr::lsqr::{solve, LsqrConfig};
use gaia_avugsr::sparse::{Generator, GeneratorConfig, Rhs, RowPartition, SystemLayout};

fn main() {
    let n_ranks: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rank count"))
        .unwrap_or(4);

    let layout = SystemLayout::small();
    let sys = Generator::new(
        GeneratorConfig::new(layout)
            .seed(11)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-9 }),
    )
    .generate();

    let partition = RowPartition::new(&layout, n_ranks);
    println!("observation sharding over {n_ranks} ranks:");
    for rank in 0..n_ranks {
        let r = partition.range(rank);
        println!(
            "  rank {rank}: rows [{:>6}, {:>6})  ({} rows)",
            r.start,
            r.end,
            r.len()
        );
    }
    println!(
        "load imbalance = {:.4} (1.0 = perfect)\n",
        partition.imbalance()
    );

    let cfg = LsqrConfig::new();
    let serial = solve(&sys, &SeqBackend, &cfg);
    let dist = solve_distributed(&sys, n_ranks, &cfg);

    println!(
        "serial:      {:>4} iterations, stop {:?}, |r| = {:.6e}",
        serial.iterations, serial.stop, serial.rnorm
    );
    println!(
        "distributed: {:>4} iterations, stop {:?}, |r| = {:.6e}",
        dist.iterations, dist.stop, dist.rnorm
    );

    let max_diff = serial
        .x
        .iter()
        .zip(&dist.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |x_serial - x_distributed| = {max_diff:.3e}");
    println!(
        "mean iteration time (max over ranks, as the paper measures): {:.3} ms",
        1e3 * dist.mean_iteration_seconds()
    );
    assert!(max_diff < 1e-6, "distributed solve must match serial");
    println!("\ndistributed solve matches the single-rank reference.");

    // Hybrid MPI+X: each rank drives its shard with a multi-threaded
    // backend — the structure of the production MPI+CUDA solver.
    let hybrid = solve_hybrid(&sys, n_ranks, &cfg, |rank| {
        backend_by_name(if rank % 2 == 0 { "atomic" } else { "streamed" }, 2).expect("registry")
    });
    let hybrid_diff = serial
        .x
        .iter()
        .zip(&hybrid.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "hybrid (MPI + threaded backends per rank): {} iterations, max |Δx| = {hybrid_diff:.3e}",
        hybrid.iterations
    );
    assert!(hybrid_diff < 1e-8, "hybrid solve must match serial");
}
