//! §VI forward projection: rerun the portability study with two
//! next-generation platforms (H200-class, MI300A-class) added to the set.
//! The point of a portable port is the machine you have not bought yet —
//! this harness quantifies which of today's ports carries over.

use gaia_bench::simulate;
use gaia_gpu_sim::all_frameworks;
use gaia_gpu_sim::whatif::extended_platforms;
use gaia_p3::{report, Cascade, Normalization};
use gaia_sparse::SystemLayout;

pub fn run(_: gaia_bench::Flags) {
    let platforms = extended_platforms();
    let names: Vec<String> = platforms.iter().map(|p| p.name.clone()).collect();
    println!("extended platform set: {names:?}\n");

    for gb in [10.0, 60.0] {
        let set = simulate(&SystemLayout::from_gb(gb), &all_frameworks(), &platforms);
        let supported: Vec<String> = names
            .iter()
            .filter(|n| set.platform_best(n).is_some())
            .cloned()
            .collect();
        let matrix = set.efficiencies(Normalization::PlatformBest);
        println!("=== {gb} GB over {} platforms ===", supported.len());
        println!("{}", report::pp_table(&matrix, &supported));
        for app in ["HIP", "SYCL+ACPP", "CUDA"] {
            let c = Cascade::build(&matrix, app, &supported);
            print!("{}", report::cascade_table(&c));
        }
        println!();
    }
    println!(
        "Shape: the high-P frameworks of the paper (HIP, SYCL+ACPP) carry\n\
         their scores onto the new machines unchanged; CUDA's investment\n\
         remains locked to one vendor (P = 0 on any mixed set) — the §VI\n\
         argument for portability, projected forward."
    );
}
