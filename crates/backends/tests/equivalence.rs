//! Property-based backend equivalence: every parallel strategy must agree
//! with the sequential oracle on arbitrary systems, inputs, thread counts,
//! and prior output contents (the accumulate contract), in both products
//! and in the Golub–Kahan pass; and the oracle's one-pass Golub–Kahan
//! products must equal its two products bit for bit.

use gaia_backends::{all_backends, backend_by_name, backend_names, blas, Backend, SeqBackend};
use gaia_sparse::{Generator, GeneratorConfig, SparseSystem, SystemLayout};
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

/// The tunable policies — every registry name that takes a `-c` suffix,
/// so a new table row enters the sweep without being listed — and the
/// (threads, chunks_per_thread) grid the sweep covers. This is the one
/// matches-seq test for all of them; `rayon`, which takes no `-c`, is
/// `replicated-t<T>-c4` by its row.
static POLICIES: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    backend_names()
        .iter()
        .copied()
        .filter(|n| backend_by_name(&format!("{n}-t1-c1"), 1).is_some())
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

        // The Golub–Kahan pass, one launch for `atomic` and `casloop`
        // and the two products for the rest, against seq's.
        let (mut u_want, mut out_want) = (y.clone(), vec![bias; sys.n_cols()]);
        seq.gk_products(&sys, &x, bias, &mut u_want, &mut out_want);
        let (mut u, mut out) = (y.clone(), vec![bias; sys.n_cols()]);
        backend.gk_products(&sys, &x, bias, &mut u, &mut out);
        for (g, w) in u.iter().zip(&u_want).chain(out.iter().zip(&out_want)) {
            prop_assert!((g - w).abs() < 1e-10, "{} pass: {} vs {}", name, g, w);
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

/// `SeqBackend::gk_products` against the default it overrides — scale
/// `u` by `−α`, `aprod1`, `aprod2` — bit for bit, from non-zero `u` and
/// `out` (both accumulate). With `zeros`, `x` is zero outside the
/// astrometric columns of even stars and two rows in three of `u` start
/// at `0.0` or `-0.0`, so the new `u` holds exact zeros next to rows that
/// are not zero; the attitude and instrumental scatters skip those rows,
/// which shows in the bits of the columns of `out` that start at `-0.0`
/// (adding a `+0.0` term would turn them to `+0.0`).
fn assert_fused_pass_is_the_two_products(sys: &SparseSystem, alfa: f64, zeros: bool, what: &str) {
    let att = sys.columns().att as usize;
    let x: Vec<f64> = (0..sys.n_cols())
        .map(|i| match zeros && (i >= att || (i / 5) % 2 == 1) {
            true => 0.0,
            false => ((i + 3) as f64 * 0.29).sin(),
        })
        .collect();
    let u0: Vec<f64> = (0..sys.n_rows())
        .map(|i| match (zeros, i % 3) {
            (true, 0) => 0.0,
            (true, 1) => -0.0,
            _ => ((i + 1) as f64 * 0.53).cos(),
        })
        .collect();
    let out0: Vec<f64> = (0..sys.n_cols())
        .map(|i| match zeros && i % 4 == 3 {
            true => -0.0,
            false => (i as f64 * 0.11).sin(),
        })
        .collect();
    let (mut u_want, mut out_want) = (u0.clone(), out0.clone());
    blas::scal(&mut u_want, -alfa);
    SeqBackend.aprod1(sys, &x, &mut u_want);
    SeqBackend.aprod2(sys, &u_want, &mut out_want);
    if zeros {
        assert!(u_want.contains(&0.0), "{what}: no row to skip");
    }
    let (mut u, mut out) = (u0, out0);
    SeqBackend.gk_products(sys, &x, alfa, &mut u, &mut out);
    for (i, (g, w)) in u.iter().zip(&u_want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: u[{i}] {g:e} vs {w:e}");
    }
    for (i, (g, w)) in out.iter().zip(&out_want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: out[{i}] {g:e} vs {w:e}");
    }
}

fn layout_of(n_stars: u64, n_constraint_rows: u64) -> SystemLayout {
    SystemLayout {
        n_stars,
        n_constraint_rows,
        obs_per_star: 24,
        n_deg_freedom_att: 8,
        n_instr_params: 8,
        n_glob_params: 1,
    }
}

fn system_of(n_stars: u64, n_constraint_rows: u64, seed: u64) -> SparseSystem {
    Generator::new(GeneratorConfig::new(layout_of(n_stars, n_constraint_rows)).seed(seed))
        .generate()
}

/// Whole systems of various star counts, with and without constraint
/// rows and the global parameter; row-block views that start past star 0
/// and end before or at the constraint rows, one star wide among them; at
/// `α = 0` and away from it, and with `u` holding exact zeros.
#[test]
fn seq_fused_pass_is_bitwise_the_two_products() {
    let _shared = RMW_CELLS.read().unwrap_or_else(PoisonError::into_inner);
    let no_glob = SystemLayout {
        n_glob_params: 0,
        ..layout_of(40, 4)
    };
    let mut systems: Vec<(String, SparseSystem)> =
        [(3, 4), (31, 0), (32, 4), (33, 4), (64, 16), (200, 16)]
            .map(|(stars, constraints)| {
                let what = format!("{stars} stars, {constraints} constraints");
                (what, system_of(stars, constraints, stars + 5))
            })
            .into();
    let sys = Generator::new(GeneratorConfig::new(no_glob).seed(9)).generate();
    systems.push(("no global parameter".into(), sys));
    let sys = system_of(200, 16, 7);
    for (stars, with_constraints) in [
        (37..150, false),
        (150..200, true),
        (0..64, false),
        (5..6, false),
        (101..102, false),
        (199..200, true),
    ] {
        let block = sys.row_block(stars.clone(), with_constraints);
        assert_eq!(block.system.star0(), stars.start);
        systems.push((format!("row block of stars {stars:?}"), block.system));
    }
    for (what, sys) in &systems {
        for alfa in [0.0, 0.75, -3.5] {
            for zeros in [false, true] {
                let what = format!("{what}, alfa {alfa}, zeros {zeros}");
                assert_fused_pass_is_the_two_products(sys, alfa, zeros, &what);
            }
        }
    }
}

/// With the kernel probes in, a pass's row loop records one `gk` kernel
/// call carrying its analytic bytes: one for `seq`, one per job for the
/// one-launch `atomic` pass, and the jobs' bytes add up to the whole
/// system's. No per-section kernel runs under it: only the atomic
/// publishes still record under `aprod2`, and astrometric columns are
/// never published.
#[cfg(feature = "telemetry")]
#[test]
fn fused_pass_records_one_gk_call_per_row_loop() {
    use gaia_backends::kernels::gk_bytes;
    let _alone = RMW_CELLS.write().unwrap_or_else(PoisonError::into_inner);
    let sys = system_of(200, 16, 8);
    let recorded = || {
        let snap = gaia_telemetry::snapshot();
        let cell = |phase: &str, block: &str| {
            snap.kernels
                .iter()
                .find(|c| c.phase == phase && c.block == block)
                .map_or((0, 0), |c| (c.calls, c.bytes))
        };
        [
            cell("gk", "*"),
            cell("aprod1", "astro"),
            cell("aprod2", "astro"),
        ]
    };
    let x = vec![0.5; sys.n_cols()];
    let n_stars = sys.layout().n_stars as usize;
    for name in ["seq", "atomic-t1", "atomic-t2", "atomic-t3"] {
        let backend = backend_by_name(name, 1).unwrap();
        let jobs = backend
            .launch_plan()
            .map_or(1, |plan| plan.tuning.chunk_count(n_stars)) as u64;
        let mut u = vec![1.0; sys.n_rows()];
        let mut out = vec![0.0; sys.n_cols()];
        let before = recorded();
        backend.gk_products(&sys, &x, 0.5, &mut u, &mut out);
        let delta: Vec<(u64, u64)> = recorded()
            .iter()
            .zip(&before)
            .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
            .collect();
        assert_eq!(delta[0], (jobs, gk_bytes(&sys)), "{name}");
        assert_eq!(delta[1..], [(0, 0), (0, 0)], "{name}");
    }
}
