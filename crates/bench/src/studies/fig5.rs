//! Fig. 5 a/b/c: application efficiency across platforms and programming
//! frameworks for the 10, 30, and 60 GB problems.

use gaia_bench::{
    must_write_artifact, palette_series, platform_set, simulate_measurements, PROBLEM_SIZES_GB,
};
use gaia_p3::{plot, report, Normalization};

pub fn run(_: gaia_bench::Flags) {
    for gb in PROBLEM_SIZES_GB {
        let set = simulate_measurements(gb);
        let platforms = platform_set(gb);
        let matrix = set.efficiencies(Normalization::PlatformBest);
        println!("================ Fig. 5 — {gb} GB problem ================");
        println!("{}", report::efficiency_table(&matrix, &platforms));

        for platform in &platforms {
            let entries: Vec<(String, f64)> = matrix
                .apps()
                .iter()
                .filter_map(|a| matrix.efficiency(a, platform).map(|e| (a.clone(), e)))
                .collect();
            println!(
                "{}",
                plot::bar_chart(
                    &format!("application efficiency on {platform} ({gb} GB)"),
                    &entries,
                    40,
                )
            );
        }
        print!("{}", report::efficiency_csv(&matrix, &platforms));
        // SVG: one line per framework across the platform axis.
        let series = palette_series(matrix.apps(), |app| {
            platforms.iter().map(|p| matrix.efficiency(app, p)).collect()
        });
        let svg = gaia_p3::svg::line_chart(
            &format!("Fig. 5 — application efficiency, {gb} GB"),
            &platforms,
            &series,
        );
        gaia_bench::must_write_text_artifact(&format!("fig5_{}gb.svg", gb as u64), &svg);

        must_write_artifact(
            &format!("fig5_{}gb.json", gb as u64),
            &serde_json::json!({
                "gb": gb,
                "platforms": platforms,
                "efficiency": matrix.apps().iter().map(|a| serde_json::json!({
                    "app": a,
                    "values": platforms.iter()
                        .map(|p| matrix.efficiency(a, p))
                        .collect::<Vec<_>>(),
                })).collect::<Vec<_>>(),
            }),
        );
        println!();
    }
    println!(
        "Paper shape: C++ PSTL efficiency rises monotonically from T4 to H100\n\
         (≈0.9 on H100, 0.45-0.6 on MI250X); OMP+LLVM and SYCL+DPCPP sink on\n\
         MI250X (CAS-loop atomics); SYCL+ACPP is uniformly close everywhere."
    );
}
