//! Fig. 4 a/b/c: average LSQR iteration time across architectures and
//! programming models for the 10, 30, and 60 GB problems.

use gaia_bench::{
    must_write_artifact, palette_series, platform_set, simulate_measurements, PROBLEM_SIZES_GB,
};
use gaia_p3::{plot, report};

pub fn run(_: gaia_bench::Flags) {
    for gb in PROBLEM_SIZES_GB {
        let set = simulate_measurements(gb);
        let platforms = platform_set(gb);
        println!("================ Fig. 4 — {gb} GB problem ================");
        println!("{}", report::times_table(&set, &platforms));

        for platform in &platforms {
            let entries: Vec<(String, f64)> = set
                .apps()
                .iter()
                .filter_map(|a| set.time(a, platform).map(|t| (a.clone(), t)))
                .collect();
            println!(
                "{}",
                plot::bar_chart(
                    &format!("iteration time on {platform} [s] ({gb} GB)"),
                    &entries,
                    40,
                )
            );
        }

        // SVG: grouped bars, frameworks within platform groups (log scale
        // as in the paper's Fig. 4).
        let series = palette_series(&set.apps(), |a| {
            platforms.iter().map(|p| set.time(a, p)).collect()
        });
        let svg = gaia_p3::svg::bar_chart_grouped(
            &format!("Fig. 4 — average iteration time [s], {gb} GB"),
            &platforms,
            &series,
        );
        gaia_bench::must_write_text_artifact(&format!("fig4_{}gb.svg", gb as u64), &svg);

        let json = serde_json::json!({
            "gb": gb,
            "platforms": platforms,
            "times": set.apps().iter().map(|a| serde_json::json!({
                "app": a,
                "seconds": platforms.iter()
                    .map(|p| set.time(a, p))
                    .collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        });
        must_write_artifact(&format!("fig4_{}gb.json", gb as u64), &json);
    }
    println!(
        "Paper shape: newer platforms deliver lower iteration times across all\n\
         sizes; per platform the fastest framework is CUDA (T4, A100), HIP\n\
         (V100, H100), or OMP+V (MI250X); the MI250X trails A100/H100 despite\n\
         its bandwidth because of non-coalesced accesses."
    );
}
