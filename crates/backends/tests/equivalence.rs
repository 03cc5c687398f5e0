//! Property-based backend equivalence: every parallel strategy must agree
//! with the sequential oracle on arbitrary systems, inputs, thread counts,
//! and prior output contents (the accumulate contract).

use gaia_backends::{all_backends, backend_by_name, backend_names, Backend, SeqBackend};
use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
use proptest::prelude::*;
use std::sync::{LazyLock, PoisonError, RwLock};

/// The telemetry registry is process-global and the tests of this file run
/// side by side: every test that can run an atomic strategy's `aprod2`
/// holds this shared, and the RMW-count test holds it alone.
static RMW_CELLS: RwLock<()> = RwLock::new(());

fn layouts() -> impl Strategy<Value = SystemLayout> {
    (3u64..10, 12u64..20, 4u64..12, 6u64..12, 0u32..2, 0u64..4)
        .prop_map(|(s, o, d, i, g, c)| SystemLayout {
            n_stars: s,
            obs_per_star: o,
            n_deg_freedom_att: d,
            n_instr_params: i,
            n_glob_params: g,
            n_constraint_rows: c,
        })
        .prop_filter("overdetermined", |l| l.validate().is_ok())
}

/// The plan-driven policies — every registry name whose backend carries a
/// launch plan, so a new table row enters the sweep without being listed —
/// and the (threads, chunks_per_thread) grid the sweep covers. This is the
/// one matches-seq test for all of them.
static POLICIES: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    backend_names()
        .iter()
        .copied()
        .filter(|n| backend_by_name(n, 1).is_some_and(|b| b.launch_plan().is_some()))
        .collect()
});
const THREAD_GRID: &[usize] = &[1, 3, 8];
const CHUNK_GRID: &[usize] = &[1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Policy-grid equivalence: every tuned policy, instantiated through
    /// the registry's round-trippable `<policy>-t<threads>-c<chunks>`
    /// names, must match the sequential oracle on arbitrary systems and
    /// prior output contents (the accumulate contract).
    #[test]
    fn policy_grid_matches_seq_on_random_systems(
        layout in layouts(),
        seed in 0u64..300,
        policy_idx in 0usize..POLICIES.len(),
        threads_idx in 0usize..THREAD_GRID.len(),
        chunks_idx in 0usize..CHUNK_GRID.len(),
        bias in -2.0f64..2.0,
    ) {
        let _shared = RMW_CELLS.read().unwrap_or_else(PoisonError::into_inner);
        let sys = Generator::new(GeneratorConfig::new(layout).seed(seed)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| ((i + 2) as f64 * 0.41).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![bias; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![bias; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);

        let policy = POLICIES[policy_idx];
        let threads = THREAD_GRID[threads_idx];
        let chunks = CHUNK_GRID[chunks_idx];
        let name = format!("{policy}-t{threads}-c{chunks}");
        let backend = backend_by_name(&name, 1)
            .unwrap_or_else(|| panic!("{name} must resolve"));
        prop_assert_eq!(
            backend.name(),
            if chunks > 1 { name.clone() } else { format!("{policy}-t{threads}") }
        );

        let mut got1 = vec![bias; sys.n_rows()];
        backend.aprod1(&sys, &x, &mut got1);
        for (g, w) in got1.iter().zip(&want1) {
            prop_assert!((g - w).abs() < 1e-10, "{} aprod1: {} vs {}", name, g, w);
        }
        let mut got2 = vec![bias; sys.n_cols()];
        backend.aprod2(&sys, &y, &mut got2);
        for (g, w) in got2.iter().zip(&want2) {
            prop_assert!((g - w).abs() < 1e-10, "{} aprod2: {} vs {}", name, g, w);
        }
    }

    #[test]
    fn aprod1_is_linear(seed in 0u64..100, a in -3.0f64..3.0) {
        // A(a·x) == a·(A x): catches any backend that mangles scaling.
        let sys = Generator::new(
            GeneratorConfig::new(SystemLayout::tiny()).seed(seed),
        ).generate();
        let backend = backend_by_name("streamed", 3).unwrap();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.11).cos()).collect();
        let ax: Vec<f64> = x.iter().map(|v| a * v).collect();
        let mut out1 = vec![0.0; sys.n_rows()];
        backend.aprod1(&sys, &ax, &mut out1);
        let mut out2 = vec![0.0; sys.n_rows()];
        backend.aprod1(&sys, &x, &mut out2);
        for (o1, o2) in out1.iter().zip(&out2) {
            prop_assert!((o1 - a * o2).abs() < 1e-9 * (1.0 + o2.abs()));
        }
    }

    #[test]
    fn aprod2_transpose_identity(seed in 0u64..100, threads in 1usize..5) {
        // ⟨A x, y⟩ == ⟨x, Aᵀ y⟩ — the adjoint identity both products must
        // satisfy together; LSQR's convergence theory depends on it.
        let _shared = RMW_CELLS.read().unwrap_or_else(PoisonError::into_inner);
        let sys = Generator::new(
            GeneratorConfig::new(SystemLayout::tiny()).seed(seed),
        ).generate();
        let backend = backend_by_name("atomic", threads).unwrap();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| ((i + 5) as f64 * 0.23).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| ((i + 9) as f64 * 0.29).cos()).collect();
        let mut ax = vec![0.0; sys.n_rows()];
        backend.aprod1(&sys, &x, &mut ax);
        let mut aty = vec![0.0; sys.n_cols()];
        backend.aprod2(&sys, &y, &mut aty);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }
}

#[test]
fn the_sweep_draws_every_plan_driven_policy() {
    for name in ["unrolled", "blocked", "ell", "tiled", "tuned"] {
        assert!(POLICIES.contains(&name), "{name}");
    }
}

#[test]
fn zero_input_leaves_output_untouched() {
    let _shared = RMW_CELLS.read().unwrap_or_else(PoisonError::into_inner);
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(1)).generate();
    for backend in all_backends(4) {
        let x = vec![0.0; sys.n_cols()];
        let mut out = vec![3.5; sys.n_rows()];
        backend.aprod1(&sys, &x, &mut out);
        assert!(
            out.iter().all(|&v| v == 3.5),
            "{}: aprod1 of zero must not change out",
            backend.name()
        );
        let y = vec![0.0; sys.n_rows()];
        let mut out2 = vec![-1.25; sys.n_cols()];
        backend.aprod2(&sys, &y, &mut out2);
        assert!(
            out2.iter().all(|&v| v == -1.25),
            "{}: aprod2 of zero must not change out",
            backend.name()
        );
    }
}

#[test]
#[should_panic(expected = "x length mismatch")]
fn shape_mismatch_panics() {
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(2)).generate();
    let backend = SeqBackend;
    let x = vec![0.0; sys.n_cols() - 1];
    let mut out = vec![0.0; sys.n_rows()];
    backend.aprod1(&sys, &x, &mut out);
}

#[test]
fn repeated_application_accumulates() {
    // Calling aprod1 twice must equal 2·(A x) — the accumulate contract.
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(3)).generate();
    let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.17).sin()).collect();
    for backend in all_backends(3) {
        let mut once = vec![0.0; sys.n_rows()];
        backend.aprod1(&sys, &x, &mut once);
        let mut twice = vec![0.0; sys.n_rows()];
        backend.aprod1(&sys, &x, &mut twice);
        backend.aprod1(&sys, &x, &mut twice);
        for (t, o) in twice.iter().zip(&once) {
            assert!(
                (t - 2.0 * o).abs() < 1e-10,
                "{}: accumulate contract violated",
                backend.name()
            );
        }
    }
}

/// The `atomic_rmws` column counts the atomic adds a publish issued — at
/// most one per column per job — not one per matrix non-zero as the
/// deleted per-element interiors reported, and nothing for `seq`.
#[cfg(feature = "telemetry")]
#[test]
fn rmw_counter_reports_the_atomic_adds_issued() {
    use gaia_backends::launch::Stream;
    let _alone = RMW_CELLS.write().unwrap_or_else(PoisonError::into_inner);
    let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(4)).generate();
    let y: Vec<f64> = (0..sys.n_rows())
        .map(|i| (i as f64 * 0.41).cos() + 1.5)
        .collect();
    // (attitude, instrumental) RMWs recorded so far in the `aprod2` cells.
    let recorded = || {
        let snap = gaia_telemetry::snapshot();
        ["att", "instr"].map(|block| {
            snap.kernels
                .iter()
                .find(|c| c.phase == "aprod2" && c.block == block)
                .map_or(0, |c| c.atomic_rmws)
        })
    };
    let issued_by = |name: &str| {
        let backend = backend_by_name(name, 1).unwrap();
        let before = recorded();
        let mut out = vec![0.0; sys.n_cols()];
        backend.aprod2(&sys, &y, &mut out);
        let after = recorded();
        [after[0] - before[0], after[1] - before[1]]
    };

    assert_eq!(issued_by("seq"), [0, 0]);
    let atomic = issued_by("atomic-t2");
    assert_eq!(
        issued_by("casloop-t2"),
        atomic,
        "same publish, other flavor"
    );

    let plan = backend_by_name("atomic-t2", 1)
        .unwrap()
        .launch_plan()
        .expect("atomic carries a plan");
    let c = sys.columns();
    let sections = [
        (
            plan.section_chunks(Stream::Att, sys.n_rows()),
            (c.instr - c.att) as usize,
            sys.n_rows() * 12,
        ),
        (
            plan.section_chunks(Stream::Instr, sys.n_obs_rows()),
            (c.glob - c.instr) as usize,
            sys.n_obs_rows() * 6,
        ),
    ];
    for (rmws, (jobs, section_len, nonzeros)) in atomic.into_iter().zip(sections) {
        assert!(rmws > 0, "a publish that issued no atomic add");
        assert!(
            rmws <= (jobs * section_len) as u64,
            "{rmws} adds from {jobs} jobs over {section_len} columns"
        );
        assert!(
            rmws * 50 < nonzeros as u64,
            "{rmws} adds is not far below the {nonzeros} non-zeros"
        );
    }
}
