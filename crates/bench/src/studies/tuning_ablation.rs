//! §V-B kernel-tuning ablation: "we tuned the parameters of the CUDA,
//! HIP, and SYCL kernels for each platform, achieving up to 40% reduction
//! in iteration time" — and the PSTL corollary: the runtime default of
//! 256 threads per block is near-optimal on A100/H100 but costly on the
//! T4/V100, whose optimum is 32.

use gaia_gpu_sim::occupancy::TPB_RANGE;
use gaia_gpu_sim::tuner::tune;
use gaia_gpu_sim::{all_platforms, framework_by_name, iteration_time, occupancy, SimConfig};
use gaia_sparse::SystemLayout;

pub fn run(_: gaia_bench::Flags) {
    let layout = SystemLayout::from_gb(10.0);

    println!("kernel tuning sweep (10 GB problem), untuned default = 1024 tpb");
    println!(
        "{:<12} {:<8} {:>9} {:>12} {:>12} {:>10}",
        "framework", "platform", "best tpb", "tuned [s]", "default [s]", "reduction"
    );
    let mut rows = Vec::new();
    for fw_name in ["CUDA", "HIP", "SYCL+ACPP", "OMP+V"] {
        let fw = framework_by_name(fw_name).expect("registry");
        for p in all_platforms() {
            let Some(r) = tune(&layout, &fw, &p, 1024) else {
                continue;
            };
            println!(
                "{:<12} {:<8} {:>9} {:>12.4} {:>12.4} {:>9.1}%",
                r.framework,
                r.platform,
                r.best_tpb,
                r.best_seconds,
                r.default_seconds,
                100.0 * r.reduction()
            );
            rows.push(serde_json::json!({
                "framework": r.framework,
                "platform": r.platform,
                "best_tpb": r.best_tpb,
                "reduction": r.reduction(),
            }));
        }
    }
    gaia_bench::must_write_artifact("tuning_ablation.json", &serde_json::json!(rows));

    println!("\nPSTL's fixed 256 tpb: occupancy efficiency per platform");
    println!(
        "{:<8} {:>8} {}",
        "platform",
        "opt tpb",
        TPB_RANGE
            .iter()
            .map(|t| format!("{t:>8}"))
            .collect::<String>()
    );
    for p in all_platforms() {
        let cells: String = TPB_RANGE
            .iter()
            .map(|&tpb| format!("{:>8.3}", occupancy::occupancy_efficiency(&p, tpb)))
            .collect();
        println!("{:<8} {:>8} {}", p.name, p.opt_tpb, cells);
    }

    // PSTL iteration-time penalty vs a hypothetical tunable PSTL.
    println!("\nPSTL+ACPP: fixed-256 vs hypothetically tuned (10 GB):");
    let pstl = framework_by_name("PSTL+ACPP").expect("registry");
    for p in all_platforms() {
        let fixed = iteration_time(&layout, &pstl, &p, &SimConfig::default());
        let tuned = iteration_time(
            &layout,
            &pstl,
            &p,
            &SimConfig {
                tpb_override: Some(p.opt_tpb),
            },
        );
        if let (Some(f), Some(t)) = (fixed, tuned) {
            println!(
                "  {:<8} fixed {:.4}s  tuned {:.4}s  executor gain would be {:.1}%",
                p.name,
                f.seconds,
                t.seconds,
                100.0 * (1.0 - t.seconds / f.seconds)
            );
        }
    }
    println!(
        "\nPaper: \"the C++26 executors proposal ... will potentially allow to\n\
         set explicit kernel parameters and, hence, reduce the observed\n\
         performance gap among the platforms.\""
    );
}
