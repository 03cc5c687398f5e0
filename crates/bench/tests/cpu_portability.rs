//! Integration: the measured CPU portability study (real backends, real
//! wall clock) produces a well-formed Pennycook analysis. It runs the
//! study's own timing, [`gaia_bench::measure_portability`], with few
//! rounds on a small system.

use gaia_bench::measure_portability;
use gaia_p3::Normalization;
use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

#[test]
fn measured_backend_portability_analysis_is_well_formed() {
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(5)).generate();
    let strategies = ["seq", "atomic", "replicated", "streamed"];
    let (set, cells) = measure_portability(&sys, &[1, 4], &strategies, 3, 3);
    assert_eq!(cells.len(), 2 * strategies.len());
    for c in &cells {
        assert_eq!(c.summary.rounds, 3, "{} on {}", c.backend, c.platform);
        assert_eq!(set.time(&c.backend, &c.platform), Some(c.summary.median_s));
    }
    let platforms = set.platforms();
    let matrix = set.efficiencies(Normalization::PlatformBest);
    for app in matrix.apps() {
        let p = matrix.pp(app, &platforms);
        assert!(
            (0.0..=1.0 + 1e-12).contains(&p),
            "{app}: P = {p} out of range"
        );
        assert!(p > 0.0, "{app} ran on every budget, P must be positive");
    }
    // Exactly one backend defines the frontier on each budget.
    for p in &platforms {
        let best = matrix
            .apps()
            .iter()
            .filter_map(|a| matrix.efficiency(a, p))
            .fold(0.0f64, f64::max);
        assert!((best - 1.0).abs() < 1e-12);
    }
}
