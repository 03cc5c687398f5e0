//! §V-B in-text claim: "we did a preliminary comparison of our optimized
//! CUDA version against the production version of the code, obtaining a
//! speed-up of 2.0x on Leonardo on a 42 GB problem."
//!
//! Regenerates the comparison across every NVIDIA platform and a sweep of
//! problem sizes, attributing the gain to its three §IV ingredients
//! (kernel-shape tuning, reduced atomic contention, stream overlap).

use gaia_gpu_sim::{framework_by_name, iteration_time, platform_by_name, FrameworkSpec, SimConfig};
use gaia_sparse::SystemLayout;

pub fn run(_: gaia_bench::Flags) {
    let cuda = framework_by_name("CUDA").expect("registry");
    let prod = framework_by_name("CUDA-production").expect("registry");

    println!("optimized vs production CUDA (modeled iteration time)");
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>9}",
        "platform", "GB", "prod [s]", "opt [s]", "speedup"
    );
    let mut rows = Vec::new();
    for platform in ["T4", "V100", "A100", "H100"] {
        let p = platform_by_name(platform).expect("registry");
        for gb in [10.0, 30.0, 42.0, 60.0] {
            let layout = SystemLayout::from_gb(gb);
            let (Some(t_opt), Some(t_prod)) = (
                iteration_time(&layout, &cuda, &p, &SimConfig::default()),
                iteration_time(&layout, &prod, &p, &SimConfig::default()),
            ) else {
                continue;
            };
            let speedup = t_prod.seconds / t_opt.seconds;
            println!(
                "{:<8} {:>8} {:>12.4} {:>12.4} {:>8.2}x",
                platform, gb, t_prod.seconds, t_opt.seconds, speedup
            );
            rows.push(serde_json::json!({
                "platform": platform,
                "gb": gb,
                "production_seconds": t_prod.seconds,
                "optimized_seconds": t_opt.seconds,
                "speedup": speedup,
            }));
        }
    }
    gaia_bench::must_write_artifact("speedup_production.json", &serde_json::json!(rows));

    // Attribution on the paper's reference point (42 GB, H100-class node).
    let layout = SystemLayout::from_gb(42.0);
    let h100 = platform_by_name("H100").expect("registry");
    let time = |fw: &FrameworkSpec| {
        iteration_time(&layout, fw, &h100, &SimConfig::default())
            .expect("fits")
            .seconds
    };
    let base = time(&prod);
    println!("\ningredient attribution at 42 GB (H100-class node):");
    let mut step = prod.clone();
    step.tunability = cuda.tunability;
    let t1 = time(&step);
    println!("  + kernel-shape tuning      : {:.3}x", base / t1);
    step.atomic_contention_mult = 1.0;
    let t2 = time(&step);
    println!("  + reduced atomic regions   : {:.3}x", base / t2);
    step.coherence_bw_factor = 1.0;
    step.streams = true;
    let t3 = time(&step);
    println!(
        "  + coarse grain + streams   : {:.3}x (paper: 2.0x)",
        base / t3
    );
}
