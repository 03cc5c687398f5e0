//! Tables I–III: software versions and compilation flags per framework
//! and vendor, as carried by the framework registry.

use gaia_gpu_sim::{all_frameworks, Vendor};

pub fn run(_: gaia_bench::Flags) {
    println!("Table I — compiler per framework and vendor");
    println!("{:<12} {:<28} {:<28}", "framework", "NVIDIA", "AMD");
    for fw in all_frameworks() {
        println!(
            "{:<12} {:<28} {:<28}",
            fw.name,
            fw.compiler_on(Vendor::Nvidia).unwrap_or("-"),
            fw.compiler_on(Vendor::Amd).unwrap_or("-"),
        );
    }

    for (table, vendor, arch) in [("II", Vendor::Nvidia, "NVIDIA"), ("III", Vendor::Amd, "AMD")] {
        println!("\nTable {table} — compilation flags on {arch} architectures");
        for fw in all_frameworks() {
            if let Some(flags) = fw.flags_on(vendor) {
                println!("{:<12} {}", fw.name, flags);
            }
        }
    }

    println!("\nModel-relevant framework properties:");
    println!(
        "{:<12} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "framework", "tunable", "streams", "atomics(NV)", "atomics(AMD)", "sync[µs]"
    );
    for fw in all_frameworks() {
        println!(
            "{:<12} {:>9} {:>8} {:>12} {:>12} {:>9.0}",
            fw.name,
            format!("{:?}", fw.tunability)
                .split(' ')
                .next()
                .unwrap_or("?")
                .trim_start_matches("Fixed"),
            fw.streams,
            format!("{:?}", fw.atomics_nvidia),
            format!("{:?}", fw.atomics_amd),
            fw.sync_us,
        );
    }
}
