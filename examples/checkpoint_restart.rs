//! Checkpoint/restart: interrupt a solve mid-flight, persist the full
//! Golub–Kahan state to disk, restore it in a "new job", and verify the
//! resumed solve is bit-identical to an uninterrupted one — the restart
//! discipline of the production pipeline at CINECA.
//!
//! ```sh
//! cargo run --release --example checkpoint_restart
//! ```

use gaia_avugsr::backends::backend_by_name;
use gaia_avugsr::lsqr::checkpoint::Checkpoint;
use gaia_avugsr::lsqr::{Lsqr, LsqrConfig};
use gaia_avugsr::sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

fn main() {
    let layout = SystemLayout::small();
    let sys = Generator::new(
        GeneratorConfig::new(layout)
            .seed(321)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-9 }),
    )
    .generate();
    let cfg = LsqrConfig::new();
    let backend = backend_by_name("replicated", 4).expect("registered backend");
    let solver = Lsqr::new(&sys, &backend, cfg);

    // Reference: one uninterrupted run.
    let direct = solver.run();
    println!(
        "uninterrupted run: {:?} after {} iterations, |r| = {:.3e}",
        direct.stop, direct.iterations, direct.rnorm
    );

    // "Job 1": run a third of the iterations, then the allocation ends.
    let mut state = solver.init_state();
    let budget = (direct.iterations / 3).max(1);
    for _ in 0..budget {
        solver.step(&mut state);
    }
    let path = std::env::temp_dir().join("gaia_avugsr_restart.ckpt");
    Checkpoint::capture(&sys, &cfg, &state)
        .save(&path)
        .expect("write checkpoint");
    println!(
        "job 1 stopped at iteration {} -> checkpoint {} ({} bytes)",
        state.itn,
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    drop(state);

    // "Job 2": a fresh process would rebuild the system from the same
    // seed, reload the state, and continue.
    let restored = Checkpoint::load(&path)
        .expect("read checkpoint")
        .restore(&sys, &cfg)
        .expect("checkpoint matches system");
    println!("job 2 resumes from iteration {}", restored.itn);
    let resumed = solver.run_from(restored);

    println!(
        "resumed run:       {:?} after {} iterations, |r| = {:.3e}",
        resumed.stop, resumed.iterations, resumed.rnorm
    );
    assert_eq!(resumed.x, direct.x, "resume must be bit-identical");
    assert_eq!(resumed.iterations, direct.iterations);
    println!("resumed solution is bit-identical to the uninterrupted run.");

    // Integrity: resuming against the wrong dataset is refused.
    let other = Generator::new(
        GeneratorConfig::new(layout)
            .seed(9999)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-9 }),
    )
    .generate();
    let err = Checkpoint::load(&path)
        .expect("read checkpoint")
        .restore(&other, &cfg)
        .unwrap_err();
    println!("resume against a different dataset is rejected: {err}");
    std::fs::remove_file(&path).ok();
}
