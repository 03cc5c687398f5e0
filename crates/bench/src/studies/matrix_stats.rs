//! Structural statistics of a generated system — the quantitative
//! counterpart of the paper's Fig. 2 and of the §IV collision discussion
//! ("the indexes used by aprod2 can collide (with the exception of the
//! astrometric parameters due to their block diagonal structure)").
//!
//! Usage: `cargo run -p gaia-bench -- matrix_stats [preset]`

use gaia_bench::{fatal, Flags};
use gaia_sparse::stats::system_stats;
use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

pub fn run(mut args: Flags) {
    let preset = args.next().unwrap_or_else(|| "small".into());
    let Some(layout) = SystemLayout::preset(&preset) else {
        fatal(&format!("unknown preset {preset} (tiny|small|medium)"))
    };
    let sys = Generator::new(GeneratorConfig::new(layout).seed(0)).generate();
    let stats = system_stats(&sys);

    println!(
        "system '{preset}': {} rows x {} cols, sparsity {:.3}%",
        sys.n_rows(),
        sys.n_cols(),
        100.0 * stats.sparsity
    );
    println!(
        "\n{:<14} {:>8} {:>9} {:>10} {:>14} {:>13}",
        "block", "cols", "touched", "nnz", "rows/col", "max rows/col"
    );
    for b in &stats.blocks {
        println!(
            "{:<14} {:>8} {:>9} {:>10} {:>14.1} {:>13}",
            b.block.label(),
            b.n_cols,
            b.touched_cols,
            b.nnz,
            b.mean_rows_per_col,
            b.max_rows_per_col
        );
    }
    println!(
        "\natomic-contention ratio (worst shared block vs astrometric): {:.1}x",
        stats.contention_ratio()
    );
    println!(
        "attitude offset locality (mean |Δoffset| between consecutive rows): {:.2}",
        stats.attitude_offset_locality
    );
    println!(
        "\nReading: every astrometric column is owned by one star (safe to\n\
         parallelize over stars); the attitude/instrumental/global columns\n\
         aggregate orders of magnitude more rows — the §IV reason their\n\
         aprod2 updates need atomics, and the contention the optimized\n\
         kernels mitigate by reducing blocks/threads in those regions."
    );

    gaia_bench::must_write_artifact(
        &format!("matrix_stats_{preset}.json"),
        &serde_json::to_value(&stats).expect("serializable"),
    );
}
