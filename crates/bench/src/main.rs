//! `gaia-bench <study> [args...]`: run one study of the experiment
//! harness (the list is in the crate doc of `gaia_bench`). With no study
//! or an unknown one it prints the list and exits 2.

use gaia_bench::Flags;

/// Declare each study module and the name → `run` table from one list.
macro_rules! studies {
    ($($name:ident),* $(,)?) => {
        mod studies {
            $(pub mod $name;)*
        }
        const STUDIES: &[(&str, fn(Flags))] = &[$((stringify!($name), studies::$name::run)),*];
    };
}

// Braces keep rustfmt from splitting the list one name per line.
studies! {
    fig3, fig4, fig5, fig6, table_flags, speedup_production, tuning_ablation, spmv_labnotes,
    precond_ablation, matrix_stats, roofline, profile, weak_scaling, energy, executors_projection,
    solver_comparison, sensitivity, whatif, normalization_study, cpu_portability, report_all,
    chaos, overload, capacity, tune,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some((_, run)) = STUDIES.iter().find(|(study, _)| *study == name) else {
        let what = match name.as_str() {
            "" => "no study given".to_string(),
            _ => format!("unknown study `{name}`"),
        };
        eprintln!("error: {what}; usage: gaia-bench <study> [args...]");
        eprintln!("studies:");
        for (study, _) in STUDIES {
            eprintln!("  {study}");
        }
        std::process::exit(2)
    };
    run(Flags::new(args.collect()));
}
