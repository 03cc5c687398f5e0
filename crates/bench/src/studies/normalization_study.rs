//! The two readings of "application efficiency".
//!
//! The paper's appendix describes deriving efficiency from "the best
//! observed performance of a specific code version among all the
//! considered platforms", which literally reads as a per-application
//! normalization; its results are only consistent with the standard
//! per-platform-best normalization (see DESIGN.md §2). Both are
//! implemented; this harness shows side by side what each produces and
//! why the per-application reading cannot yield the published numbers:
//! under it, every framework scores 1.0 on its own best platform and `P`
//! mostly measures the hardware spread (T4 vs H100 ≈ 13×), collapsing
//! every framework's score to a similar low value.

use gaia_bench::{platform_set, simulate_measurements, PROBLEM_SIZES_GB};
use gaia_p3::{report, Normalization};

pub fn run(_: gaia_bench::Flags) {
    for gb in PROBLEM_SIZES_GB {
        let set = simulate_measurements(gb);
        let platforms = platform_set(gb);
        println!("================ {gb} GB ================");
        for (label, norm) in [
            (
                "platform-best (Pennycook application efficiency)",
                Normalization::PlatformBest,
            ),
            (
                "per-application best (the appendix's literal wording)",
                Normalization::AppBestPlatform,
            ),
        ] {
            let matrix = set.efficiencies(norm);
            println!("--- {label} ---");
            println!("{}", report::pp_table(&matrix, &platforms));
        }
    }
    println!(
        "Only the platform-best normalization reproduces the paper's values\n\
         (HIP 0.98, OMP+LLVM 0.25, CUDA 0.97 NVIDIA-only); the literal\n\
         per-application reading compresses every framework toward the\n\
         hardware-speed spread and cannot distinguish them — the evidence\n\
         behind DESIGN.md's interpretation choice."
    );
}
