//! Roofline table: arithmetic intensity of every solver kernel vs every
//! platform's ridge point — the §VI "highly memory-bound" claim as
//! numbers, and the justification for the simulator's bandwidth-only
//! kernel model.

use gaia_gpu_sim::all_platforms;
use gaia_gpu_sim::roofline::{analyze, ridge_point};
use gaia_sparse::SystemLayout;

pub fn run(_: gaia_bench::Flags) {
    let layout = SystemLayout::from_gb(10.0);
    println!("platform ridge points (FLOP/byte at the roofline knee):");
    for p in all_platforms() {
        println!(
            "  {:<8} peak {:>5.1} TFLOP/s, {:>5.0} GB/s  ->  ridge {:>5.2}",
            p.name,
            p.fp64_tflops,
            p.bw_gbs,
            ridge_point(&p)
        );
    }

    let h100 = gaia_gpu_sim::platform_by_name("H100").expect("registry");
    println!("\nkernel placements on the H100 roofline (10 GB problem):");
    println!(
        "  {:<14} {:>12} {:>10} {:>16} {:>10}",
        "kernel", "AI [F/B]", "bound", "attainable", "% of peak"
    );
    let mut rows = Vec::new();
    for pt in analyze(&layout, &h100) {
        println!(
            "  {:<14} {:>12.4} {:>10} {:>12.0} GF/s {:>9.2}%",
            pt.kernel,
            pt.intensity,
            if pt.memory_bound() {
                "memory"
            } else {
                "compute"
            },
            pt.attainable_gflops,
            100.0 * pt.fraction_of_peak
        );
        rows.push(serde_json::to_value(&pt).expect("serializable"));
    }
    gaia_bench::must_write_artifact("roofline.json", &serde_json::json!(rows));
    println!(
        "\nEvery kernel sits 1-2 orders of magnitude below every ridge point:\n\
         the solver can never use more than a few percent of any GPU's FP64\n\
         peak, so bandwidth (and how well each framework's codegen feeds it)\n\
         decides everything — the premise of the paper and of this simulator."
    );
}
