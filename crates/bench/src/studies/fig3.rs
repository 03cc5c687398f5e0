//! Fig. 3 a/b/c: performance-portability cascades and `P` for the 10, 30,
//! and 60 GB problems across the eight framework+compiler combinations.
//!
//! Prints, per problem size: the application-efficiency cascade of every
//! framework (platforms ordered best-first, with the cumulative `P`), and
//! the final `P` ranking — the Rust rendition of the p3-analysis plots.

use gaia_bench::{
    must_write_artifact, palette_series, platform_set, simulate_measurements, PROBLEM_SIZES_GB,
};
use gaia_p3::{report, Cascade, Normalization};

pub fn run(_: gaia_bench::Flags) {
    for gb in PROBLEM_SIZES_GB {
        let set = simulate_measurements(gb);
        let platforms = platform_set(gb);
        let matrix = set.efficiencies(Normalization::PlatformBest);

        println!("================ Fig. 3 — {gb} GB problem ================");
        println!("platform set: {platforms:?}\n");

        let mut artifacts = Vec::new();
        for app in matrix.apps() {
            let cascade = Cascade::build(&matrix, app, &platforms);
            print!("{}", gaia_p3::plot::cascade_strip(&cascade, 40));
            println!();
            artifacts.push(serde_json::json!({
                "app": cascade.app,
                "final_pp": cascade.final_pp(),
                "points": cascade.points.iter().map(|p| serde_json::json!({
                    "rank": p.rank,
                    "platform": p.platform,
                    "efficiency": p.efficiency,
                    "cumulative_pp": p.cumulative_pp,
                })).collect::<Vec<_>>(),
            }));
        }

        println!("{}", report::pp_table(&matrix, &platforms));

        // The paper's subset analysis: "if we only consider NVIDIA
        // platforms, CUDA would be the winner with 0.97".
        let nvidia: Vec<String> = platforms
            .iter()
            .filter(|p| p.as_str() != "MI250X")
            .cloned()
            .collect();
        if nvidia.len() > 1 {
            println!("NVIDIA-only subset:");
            for (app, p) in gaia_p3::subsets::subset_ranking(&matrix, &nvidia)
                .iter()
                .take(3)
            {
                println!("  {app:<12} P = {p:.3}");
            }
            if let Some((winner, p)) = gaia_p3::subsets::subset_winner(&matrix, &nvidia) {
                println!("  winner: {winner} ({p:.3}) — paper: CUDA, 0.97\n");
            }
        }
        // Why the harmonic mean: compare against AM/GM for each framework.
        println!("mean comparison (the harmonic mean is the P metric):");
        println!(
            "  {:<12} {:>6} {:>6} {:>6}",
            "framework", "HM=P", "GM", "AM"
        );
        for app in matrix.apps() {
            let effs: Vec<f64> = platforms
                .iter()
                .filter_map(|pl| matrix.efficiency(app, pl))
                .collect();
            if effs.len() == platforms.len() {
                let c = gaia_p3::means::compare(&effs);
                println!(
                    "  {:<12} {:>6.3} {:>6.3} {:>6.3}",
                    app, c.harmonic, c.geometric, c.arithmetic
                );
            }
        }
        println!();
        // Leave-one-out: which platform costs each framework the most.
        println!("bottleneck platform per framework (P if removed):");
        for app in matrix.apps() {
            if let Some((worst, improved)) =
                gaia_p3::subsets::bottleneck_platform(&matrix, app, &platforms)
            {
                println!(
                    "  {app:<12} without {worst:<8} P {:.3} -> {improved:.3}",
                    matrix.pp(app, &platforms)
                );
            }
        }
        println!();
        if gb >= 60.0 {
            println!(
                "note: as in the paper, P over a 2-platform set (and CUDA's single\n\
                 NVIDIA platform at 60 GB) carries little information.\n"
            );
        }
        must_write_artifact(
            &format!("fig3_{}gb.json", gb as u64),
            &serde_json::json!({ "gb": gb, "platforms": platforms, "cascades": artifacts }),
        );

        // SVG cascade (the paper's top-left Fig. 3 panel): efficiency per
        // rank position, one line per framework.
        let ranks: Vec<String> = (1..=platforms.len()).map(|r| r.to_string()).collect();
        let series = palette_series(matrix.apps(), |app| {
            Cascade::build(&matrix, app, &platforms)
                .points
                .iter()
                .map(|p| (p.efficiency > 0.0).then_some(p.efficiency))
                .collect()
        });
        let svg = gaia_p3::svg::line_chart(
            &format!("Fig. 3 — application-efficiency cascade, {gb} GB"),
            &ranks,
            &series,
        );
        gaia_bench::must_write_text_artifact(&format!("fig3_{}gb.svg", gb as u64), &svg);
    }
    println!(
        "Paper reference points: HIP P=0.98 (10 GB) / 0.88 (30 GB);\n\
         SYCL+ACPP 0.92 / 0.93; OMP+LLVM worst at 0.25 (10 GB);\n\
         CUDA P=0 on any set containing the MI250X."
    );
}
