//! Property tests for checkpoint/restart: for arbitrary interruption
//! points, backends, and configurations, a serialized-and-restored solve
//! finishes bit-identically to an uninterrupted one.

use gaia_backends::backend_by_name;
use gaia_lsqr::{Checkpoint, Lsqr, LsqrConfig};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_at_any_point_is_bit_identical(
        seed in 0u64..200,
        cut in 0usize..30,
        backend_idx in 0usize..4,
        precondition in proptest::bool::ANY,
        fixed in proptest::bool::ANY,
    ) {
        let sys = Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate();
        // Determinism requires a deterministic backend: the atomic/striped
        // strategies commit adds in scheduling order.
        let name = ["seq", "chunked", "streamed", "replicated"][backend_idx];
        // replicated reduces privates in fixed rank order → deterministic;
        // chunked/streamed partition disjointly → deterministic.
        let backend = backend_by_name(name, 3).unwrap();
        let cfg = if fixed {
            LsqrConfig::fixed_iterations(25)
        } else {
            LsqrConfig::new().precondition(precondition).max_iters(500)
        };
        let solver = Lsqr::new(&sys, &backend, cfg);
        let direct = solver.run();

        let mut state = solver.init_state();
        for _ in 0..cut {
            if state.is_done() {
                break;
            }
            solver.step(&mut state);
        }
        // Round-trip through the checkpoint container.
        let mut buf = Vec::new();
        Checkpoint::capture(&sys, &cfg, &state)
            .write_to(&mut buf)
            .unwrap();
        let restored = Checkpoint::read_from(buf.as_slice())
            .unwrap()
            .restore(&sys, &cfg)
            .unwrap();
        let resumed = solver.run_from(restored);

        prop_assert_eq!(&resumed.x, &direct.x, "x differs after resume at {}", cut);
        prop_assert_eq!(resumed.iterations, direct.iterations);
        prop_assert_eq!(resumed.stop, direct.stop);
        prop_assert_eq!(resumed.var, direct.var);
    }

    #[test]
    fn checkpoints_never_restore_across_configs(
        seed in 0u64..50,
        precondition in proptest::bool::ANY,
    ) {
        let sys = Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate();
        let cfg = LsqrConfig::new().precondition(precondition);
        let backend = backend_by_name("seq", 1).unwrap();
        let solver = Lsqr::new(&sys, &backend, cfg);
        let state = solver.init_state();
        let ckpt = Checkpoint::capture(&sys, &cfg, &state);
        let flipped = LsqrConfig::new().precondition(!precondition);
        prop_assert!(ckpt.restore(&sys, &flipped).is_err());
    }
}
