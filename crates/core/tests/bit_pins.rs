//! LSQR and LSMR share one Golub–Kahan step and one stop-rule cascade.
//! These fingerprints (FNV-1a over the bits) of their `seq` solutions were
//! recorded while each solver still carried its own copy, so sharing them
//! changed no bit.

use gaia_backends::SeqBackend;
use gaia_lsqr::checkpoint::rhs_fingerprint as fingerprint;
use gaia_lsqr::{solve, solve_lsmr, LsqrConfig, StopReason};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

#[test]
fn lsqr_and_lsmr_solution_bits_are_pinned() {
    let sys = Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(7)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate();
    let cfg = LsqrConfig::new();

    let lsqr = solve(&sys, &SeqBackend, &cfg);
    assert_eq!(lsqr.stop, StopReason::LeastSquaresConverged);
    assert_eq!(lsqr.iterations, 73);
    assert_eq!(fingerprint(&lsqr.x), 0x6a17_eef7_47b7_8eb7, "LSQR x");
    assert_eq!(fingerprint(&lsqr.var), 0x157f_f89c_4f11_2749, "LSQR var");

    let lsmr = solve_lsmr(&sys, &SeqBackend, &cfg);
    assert_eq!(lsmr.stop, StopReason::LeastSquaresConverged);
    assert_eq!(lsmr.iterations, 73);
    assert_eq!(fingerprint(&lsmr.x), 0xf20d_8d8e_d5d7_45bf, "LSMR x");
    assert_eq!(lsmr.rnorm.to_bits(), 0x3e71_9f2a_b448_9a58, "LSMR |r|");
}
