//! LSQR and LSMR share one Golub–Kahan step and one stop-rule cascade.
//! These fingerprints (FNV-1a over the bits) of their `seq` solutions pin
//! that step's rounding: sharing it changed no bit. They were re-recorded
//! once, when the step began to take `Aᵀû` of the unnormalised `û` in the
//! same pass as `û` and to scale it by `1/β` afterwards, after the new
//! solutions had passed the Fig. 6 comparison against the old ones on the
//! verify corpus; and again when the generator's draws became keyed by
//! star, which changed the system itself.

use gaia_backends::SeqBackend;
use gaia_lsqr::{solve, solve_lsmr, LsqrConfig, StopReason};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

/// Byte-wise 64-bit FNV-1a over the little-endian bits of `v`.
fn fingerprint(v: &[f64]) -> u64 {
    let bytes = v.iter().flat_map(|x| x.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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
    assert_eq!(lsqr.iterations, 77);
    assert_eq!(fingerprint(&lsqr.x), 0x7f93_33a1_8716_05b3, "LSQR x");
    assert_eq!(fingerprint(&lsqr.var), 0x1d24_7dfe_67a2_3ae4, "LSQR var");

    let lsmr = solve_lsmr(&sys, &SeqBackend, &cfg);
    assert_eq!(lsmr.stop, StopReason::LeastSquaresConverged);
    assert_eq!(lsmr.iterations, 77);
    assert_eq!(fingerprint(&lsmr.x), 0xbfc6_4ce1_52a3_dea4, "LSMR x");
    assert_eq!(lsmr.rnorm.to_bits(), 0x3e6c_9163_a328_3b04, "LSMR |r|");
}
