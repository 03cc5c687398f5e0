//! Calibration robustness report: perturb each simulator knob class by
//! ±5 %, ±10 %, and ±20 % and check whether the paper's headline
//! conclusions (HIP/SYCL+ACPP lead, OMP+LLVM worst, OMP+V wins MI250X)
//! survive — the analysis that separates a fitted model from a
//! knife-edge one.

use gaia_gpu_sim::sensitivity::{check, KNOBS};

pub fn run(_: gaia_bench::Flags) {
    println!(
        "{:<22} {:>8} {:>10} {:>9} {:>13} {:>10}",
        "knob", "factor", "leaders", "worst", "MI250X win", "HIP P"
    );
    let mut rows = Vec::new();
    let mut failures = 0;
    for knob in KNOBS {
        for factor in [0.80, 0.90, 0.95, 1.0, 1.05, 1.10, 1.20] {
            let r = check(knob, factor);
            let ok = r.leaders_stable && r.worst_stable && r.mi250x_winner_stable;
            if !ok {
                failures += 1;
            }
            println!(
                "{:<22} {:>8.2} {:>10} {:>9} {:>13} {:>10.3}",
                format!("{:?}", r.knob),
                r.factor,
                r.leaders_stable,
                r.worst_stable,
                r.mi250x_winner_stable,
                r.hip_pp,
            );
            rows.push(serde_json::to_value(&r).expect("serializable"));
        }
    }
    gaia_bench::must_write_artifact("sensitivity.json", &serde_json::json!(rows));
    if failures == 0 {
        println!("\nAll headline conclusions survive every perturbation tested:");
        println!("the calibration is not knife-edge (±5 % stability is asserted in CI).");
    } else {
        println!(
            "\n{failures} perturbation(s) flip a conclusion — those mark where the\n\
             model's conclusions genuinely depend on the fitted constant."
        );
    }
}
