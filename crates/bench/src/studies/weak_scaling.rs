//! Weak- and strong-scaling study (extension).
//!
//! The paper's predecessor (ref \[22\]) measured the weak scalability of
//! the CUDA and C++ PSTL ports on up to 256 Leonardo nodes; the paper
//! itself stays single-GPU ("bigger problems can be addressed using
//! multiple GPUs eventually on multiple nodes which is out of scope").
//! This harness regenerates that companion study with the scaling model:
//! per-rank compute stays constant under weak scaling while the
//! replicated-unknowns allreduce grows with the job, so efficiency decays
//! once the payload saturates the NIC.

use gaia_gpu_sim::scaling::{strong_scaling, weak_scaling, ClusterSpec};
use gaia_gpu_sim::{framework_by_name, platform_by_name};

pub fn run(_: gaia_bench::Flags) {
    let cluster = ClusterSpec::leonardo();
    let a100 = platform_by_name("A100").expect("registry");
    let gpu_counts = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];

    println!(
        "weak scaling on {} (A100, 10 GB per GPU, ring allreduce {} GB/s NIC)",
        cluster.name, cluster.inter_node_bw_gbs
    );
    let mut artifacts = Vec::new();
    for fw_name in ["CUDA", "PSTL+V", "SYCL+ACPP"] {
        let fw = framework_by_name(fw_name).expect("registry");
        let Some(points) = weak_scaling(&fw, &a100, &cluster, 10.0, &gpu_counts) else {
            continue;
        };
        println!("\n{fw_name}:");
        println!(
            "  {:>6} {:>12} {:>12} {:>12} {:>10}",
            "GPUs", "iter [ms]", "compute", "comm", "efficiency"
        );
        for p in &points {
            println!(
                "  {:>6} {:>12.3} {:>12.3} {:>12.3} {:>9.1}%",
                p.n_gpus,
                1e3 * p.iteration_seconds,
                1e3 * p.compute_seconds,
                1e3 * p.comm_seconds,
                100.0 * p.efficiency
            );
        }
        artifacts.push(serde_json::json!({
            "framework": fw_name,
            "points": points.iter().map(|p| serde_json::json!({
                "gpus": p.n_gpus,
                "seconds": p.iteration_seconds,
                "efficiency": p.efficiency,
            })).collect::<Vec<_>>(),
        }));
    }
    gaia_bench::must_write_artifact("weak_scaling.json", &serde_json::json!(artifacts));

    println!("\nstrong scaling of the paper's 60 GB problem (does not fit one A100):");
    let cuda = framework_by_name("CUDA").expect("registry");
    let pts = strong_scaling(&cuda, &a100, &cluster, 60.0, &[1, 2, 4, 8, 16]);
    println!(
        "  {:>6} {:>12} {:>12} {:>10}",
        "GPUs", "iter [ms]", "comm [ms]", "efficiency"
    );
    for p in &pts {
        println!(
            "  {:>6} {:>12.3} {:>12.3} {:>9.1}%",
            p.n_gpus,
            1e3 * p.iteration_seconds,
            1e3 * p.comm_seconds,
            100.0 * p.efficiency
        );
    }
    println!(
        "\nShape reproduced from ref [22]: near-ideal weak scaling inside a node,\n\
         efficiency decay once the growing unknown-vector allreduce crosses the\n\
         NIC, the ceiling the predecessor paper projects toward exascale."
    );
}
