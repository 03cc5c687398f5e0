//! Profiler-style timeline view (the simulator's `nsys`/`rocprof`
//! substitute): where one modeled iteration spends its time, per
//! framework, with the stream overlap of the `aprod2` kernels visible —
//! followed by *measured* per-kernel telemetry of the real CPU backends
//! (artifacts in `results/telemetry/`).
//!
//! Usage: `cargo run -p gaia-bench -- profile [platform] [GB]`

use gaia_bench::{fatal, measured_run, parse_arg, Flags};
use gaia_gpu_sim::{all_frameworks, iteration_time, platform_by_name, timeline, SimConfig};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

/// Real backends profiled in the measured section.
const MEASURED_BACKENDS: [&str; 4] = ["seq", "atomic", "replicated", "streamed"];
const MEASURED_ITERATIONS: usize = 20;

pub fn run(mut args: Flags) {
    let platform_name = args.next().unwrap_or_else(|| "H100".to_string());
    let gb: f64 = args.next().map_or(10.0, |a| parse_arg("GB", &a));
    let Some(platform) = platform_by_name(&platform_name) else {
        fatal(&format!("unknown platform {platform_name}"))
    };
    let layout = SystemLayout::from_gb(gb);
    println!(
        "modeled iteration timeline on {} ({gb} GB problem)\n",
        platform.name
    );
    for fw in all_frameworks() {
        let Some(b) = iteration_time(&layout, &fw, &platform, &SimConfig::default()) else {
            println!("{}: not supported here\n", fw.name);
            continue;
        };
        println!("{}:", fw.name);
        print!("{}", timeline::render(&b, fw.streams, 64));
        if fw.streams {
            if let Some(sched) = gaia_gpu_sim::model::aprod2_fluid_schedule(&layout, &fw, &platform)
            {
                print!("{}", timeline::render_fluid(&sched, 64));
            }
        }
        println!();
    }
    println!(
        "The aprod products dominate every framework's iteration, matching the\n\
         paper's profiler finding (§V-A); stream frameworks collapse the four\n\
         aprod2 kernels into overlapped lanes.\n"
    );

    // ---- measured per-kernel telemetry of the real backends ----------
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let sys = Generator::new(
        GeneratorConfig::new(SystemLayout::small())
            .seed(9)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-6 }),
    )
    .generate();
    println!(
        "measured per-kernel breakdown ({} rows x {} cols, {} LSQR iterations, {} threads):\n",
        sys.n_rows(),
        sys.n_cols(),
        MEASURED_ITERATIONS,
        threads
    );
    if !gaia_telemetry::is_enabled() {
        println!("(telemetry feature disabled — tables will be empty)\n");
    }
    for name in MEASURED_BACKENDS {
        let report = measured_run(
            &format!("profile_{name}"),
            name,
            threads,
            &sys,
            MEASURED_ITERATIONS,
        );
        println!(
            "{} — {:.3} ms/iter",
            report.backend,
            1e3 * report.mean_iteration_seconds()
        );
        print!("{}", gaia_telemetry::kernel_table(&report.telemetry));
        println!();
    }
}
