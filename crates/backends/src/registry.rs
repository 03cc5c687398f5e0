//! Backend registry: construct every strategy by name, the way the paper's
//! harness selects a framework per run.
//!
//! Names follow the grammar `<policy>[-t<threads>[-c<chunks>]]`, e.g.
//! `chunked`, `atomic-t8`, `striped-t4-c2`. Tuned names — exactly what
//! [`crate::traits::Backend::name`] emits into telemetry reports — parse
//! back to an equivalent backend, so every reported name round-trips.

use std::sync::LazyLock;

use crate::instrumented::InstrumentedBackend;
use crate::launch::{Aprod2Spec, Aprod2Strategy, LaunchPlan};
use crate::traits::Backend;
use crate::tuning::Tuning;
use crate::{profile, PlannedBackend, RayonBackend, SeqBackend};

/// A plan column: the launch plan a policy lowers to at a given tuning.
type PlanFn = fn(Tuning) -> LaunchPlan;

/// How a registry name is built.
enum Build {
    /// A tuning-oblivious engine: no plan, no `-t/-c` suffix in its name.
    Oblivious(fn() -> Box<dyn Backend>),
    /// A [`PlannedBackend`] over the plan.
    Plan(PlanFn),
    /// The same, walked over star-aligned row tiles
    /// ([`PlannedBackend::with_tile_stars`], a quarter of the stars each).
    Tiled(PlanFn),
    /// The same, overridden per system shape by the persisted tuning
    /// profiles ([`PlannedBackend::with_profiles`]).
    Tuned(PlanFn),
}

/// One registered strategy. Adding a plan-driven policy is one row.
struct Row {
    name: &'static str,
    description: &'static str,
    build: Build,
}

fn uniform(tuning: Tuning, strategy: Aprod2Strategy) -> LaunchPlan {
    LaunchPlan::new(tuning, Aprod2Spec::uniform(strategy))
}

fn owner_computes(tuning: Tuning) -> LaunchPlan {
    uniform(tuning, Aprod2Strategy::OwnerComputes)
}

fn atomic(tuning: Tuning) -> LaunchPlan {
    uniform(tuning, Aprod2Strategy::Atomic)
}

/// Every registered strategy, in report order. What sets the paper's
/// frameworks apart — kernel tuning, atomics code generation, streams —
/// is the plan column; everything else about a policy is its name.
static TABLE: [Row; 14] = [
    Row {
        name: "seq",
        description: "sequential reference (oracle)",
        build: Build::Oblivious(|| Box::new(SeqBackend)),
    },
    // OpenMP `target teams distribute`: each job owns a column range per
    // block and rescans the rows — no atomics, no locks.
    Row {
        name: "chunked",
        description: "pooled workers, owner-computes columns (OpenMP-teams analogue); at T >= 2 every column job rescans all attitude and instrumental rows, and it measured slower than seq",
        build: Build::Plan(owner_computes),
    },
    // CUDA/HIP `atomicAdd`: each job combines its rows privately (a CPU has
    // no L2 that combines FP64 atomics), then publishes with relaxed RMW
    // adds into the shared sections — unordered, no reduction wave, which
    // is what `replicated` has instead.
    Row {
        name: "atomic",
        description:
            "row-parallel, job-combined atomic f64 RMW adds into the shared sections (CUDA/HIP analogue); every job zeroes and publishes its own copy of the shared sections, so a fine -c costs: at T = 2, -c64 measured 12-16 % and -c1024 3-6x slower than -c1",
        build: Build::Plan(atomic),
    },
    // The CAS loop some compilers emit instead of an RMW (§V-B, MI250X):
    // `atomic`'s shape, publishing with the fully fenced retry loop.
    Row {
        name: "casloop",
        description:
            "row-parallel, job-combined SeqCst CAS-loop adds into the shared sections (non-RMW compiler fallback)",
        build: Build::Plan(|t| uniform(t, Aprod2Strategy::CasLoop)),
    },
    // Privatization: one private copy of the shared sections per chunk,
    // summed in a column-parallel reduction wave.
    Row {
        name: "replicated",
        description: "row-parallel, per-chunk private buffers + reduction",
        build: Build::Plan(|t| uniform(t, Aprod2Strategy::Replicated)),
    },
    // Software-managed atomics: batch locally, take each of the
    // `4 × threads` stripe locks once.
    Row {
        name: "striped",
        description: "row-parallel, striped-mutex batched updates",
        build: Build::Plan(|t| {
            let stripes = t.threads * 4;
            uniform(t, Aprod2Strategy::LockStriped { stripes })
        }),
    },
    Row {
        name: "rayon",
        description: "parallel iterators on vendor/rayon: contiguous batches on scoped threads, no work stealing (C++ PSTL analogue)",
        build: Build::Oblivious(|| Box::new(RayonBackend)),
    },
    // CUDA streams (§IV): the four `aprod2` block kernels write disjoint
    // sections of x̃, so they launch together with per-stream worker shares.
    Row {
        name: "streamed",
        description: "four concurrent aprod2 block streams over disjoint x̃ sections",
        build: Build::Plan(|t| {
            LaunchPlan::new(t, Aprod2Spec::streamed(Aprod2Strategy::OwnerComputes))
        }),
    },
    // The production composition: the strategy that suits each block —
    // privatized attitude (small, hot), owner-computes instrumental and
    // global (small, irregular) — overlapped in streams.
    Row {
        name: "hybrid",
        description: "per-block strategy mix: star-chunks + privatized attitude + owner-computes instrumental, overlapped; at T >= 2 every instrumental column job rescans all observation rows",
        build: Build::Plan(|t| {
            let spec = Aprod2Spec {
                att: Aprod2Strategy::Replicated,
                ..Aprod2Spec::streamed(Aprod2Strategy::OwnerComputes)
            };
            LaunchPlan::new(t, spec)
        }),
    },
    // Names of deleted axes, kept so reports and scripts that name them
    // still resolve: all three run `chunked`'s plan.
    Row {
        name: "unrolled",
        description: "alias of chunked, kept for the name: its unrolled interiors were deleted because the tuner found the value layout, not the loop shape, sets the time",
        build: Build::Plan(owner_computes),
    },
    Row {
        name: "blocked",
        description: "alias of chunked, kept for the name: its cache-blocked attitude interior was deleted because the tuner found the value layout, not the loop shape, sets the time",
        build: Build::Plan(owner_computes),
    },
    Row {
        name: "ell",
        description: "alias of chunked, kept for the name: its slot-major ELL value layout was deleted because, once the tuner scored a whole Golub-Kahan pass, no preset picked it and every ELL plan lost to its row-major twin",
        build: Build::Plan(owner_computes),
    },
    Row {
        name: "tiled",
        description:
            "star-aligned row tiles through owner-computes interiors (out-of-core launch shape); at T >= 2 every column job rescans its tile's attitude and instrumental rows",
        build: Build::Tiled(owner_computes),
    },
    Row {
        name: "tuned",
        description: "persisted tuner winner per layout (falls back to atomic, the fastest plan measured where no profile exists)",
        build: Build::Tuned(atomic),
    },
];

/// Names of all registered backend strategies.
pub fn backend_names() -> &'static [&'static str] {
    static NAMES: LazyLock<Vec<&'static str>> =
        LazyLock::new(|| TABLE.iter().map(|row| row.name).collect());
    &NAMES
}

/// Names of the plan-driven policies: the ones that take a tuning.
fn planned_names() -> impl Iterator<Item = &'static str> {
    TABLE
        .iter()
        .filter(|row| !matches!(row.build, Build::Oblivious(_)))
        .map(|row| row.name)
}

/// The canonical tuned name for a policy: `<policy>-t<threads>` with a
/// `-c<chunks>` suffix only when `chunks_per_thread > 1`.
pub fn tuned_name(policy: &str, tuning: Tuning) -> String {
    if tuning.chunks_per_thread > 1 {
        format!("{policy}-t{}-c{}", tuning.threads, tuning.chunks_per_thread)
    } else {
        format!("{policy}-t{}", tuning.threads)
    }
}

/// Parse `<policy>[-t<threads>[-c<chunks>]]` into its table row and
/// tuning; `threads` fills in for a missing `-t` suffix. Returns `None`
/// for an unknown policy and for malformed suffixes: wrong marker, empty
/// or non-numeric digits, trailing segments, and a zero — which the
/// profile loader rejects too, and which would come back under the name
/// of a different tuning if it were clamped.
fn parse_name(name: &str, threads: usize) -> Option<(&'static Row, Tuning)> {
    fn count(seg: &str, marker: char) -> Option<usize> {
        seg.strip_prefix(marker)?.parse().ok().filter(|&n| n > 0)
    }
    let mut parts = name.split('-');
    let policy = parts.next()?;
    let row = TABLE.iter().find(|row| row.name == policy)?;
    let mut tuning = Tuning::with_threads(threads);
    if let Some(seg) = parts.next() {
        tuning.threads = count(seg, 't')?;
        if let Some(seg) = parts.next() {
            tuning.chunks_per_thread = count(seg, 'c')?;
            if parts.next().is_some() {
                return None;
            }
        }
    }
    Some((row, tuning))
}

/// Instantiate every backend with the given thread budget.
pub fn all_backends(threads: usize) -> Vec<Box<dyn Backend>> {
    backend_names()
        .iter()
        .map(|n| backend_by_name(n, threads).expect("registry is self-consistent"))
        .collect()
}

/// The full policy × tuning grid: every tuned (non-oblivious) policy at
/// every `(threads, chunks_per_thread)` combination.
pub fn grid_backends(threads: &[usize], chunks_per_thread: &[usize]) -> Vec<Box<dyn Backend>> {
    let mut grid = Vec::new();
    for &t in threads {
        for &c in chunks_per_thread {
            for name in planned_names() {
                let tuned = tuned_name(
                    name,
                    Tuning {
                        threads: t,
                        chunks_per_thread: c,
                    },
                );
                grid.push(backend_by_name(&tuned, t).expect("grid name parses"));
            }
        }
    }
    grid
}

/// The one plan `name` always executes: `None` for an unknown name, for
/// the tuning-oblivious engines, which have no plan, and for `tuned`,
/// whose plan is chosen per system shape.
pub fn fixed_plan(name: &str, threads: usize) -> Option<LaunchPlan> {
    let (row, tuning) = parse_name(name, threads)?;
    match row.build {
        Build::Plan(plan) | Build::Tiled(plan) => Some(plan(tuning)),
        Build::Oblivious(_) | Build::Tuned(_) => None,
    }
}

/// Instantiate a backend by name. `threads` is the default thread budget,
/// used when the name carries no `-t<threads>` suffix.
///
/// Every plan-driven backend's [`crate::LaunchPlan`] is statically
/// verified against the canonical shape battery before it is handed out
/// (see [`crate::plan_check`]); an unsound plan is a registry bug and
/// panics with the checker's diagnostic rather than returning a backend
/// that would race or drop output columns at solve time.
pub fn backend_by_name(name: &str, threads: usize) -> Option<Box<dyn Backend>> {
    let (row, tuning) = parse_name(name, threads)?;
    let planned = |plan: PlanFn| {
        let plan = plan(tuning);
        if let Err(e) = plan.analyze_canonical() {
            panic!("registry produced an unsound launch plan for `{name}`: {e}");
        }
        PlannedBackend::new(row.name, row.description, plan)
    };
    Some(match row.build {
        Build::Oblivious(build) => build(),
        Build::Plan(plan) => Box::new(planned(plan)),
        Build::Tiled(plan) => Box::new(planned(plan).with_tile_stars(0)),
        Build::Tuned(plan) => Box::new(planned(plan).with_profiles(&profile::load_profiles().0)),
    })
}

/// Instantiate a backend by name, wrapped in an [`InstrumentedBackend`] so
/// whole-call `aprod1`/`aprod2` timing lands in the telemetry registry.
/// Free when the `telemetry` feature is off.
pub fn instrumented_by_name(name: &str, threads: usize) -> Option<Box<dyn Backend>> {
    backend_by_name(name, threads)
        .map(|b| Box::new(InstrumentedBackend::new(b)) as Box<dyn Backend>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_instantiates_every_name() {
        for (row, name) in TABLE.iter().zip(backend_names()) {
            let b = backend_by_name(name, 2).unwrap();
            assert!(!b.description().is_empty());
            assert_eq!(b.description(), row.description, "{name}");
        }
        assert_eq!(all_backends(2).len(), backend_names().len());
    }

    /// Which of the 14 names run the Golub–Kahan pass as one launch:
    /// exactly the two whose colliding sections all publish inside wave 1.
    /// `tiled`'s plan is owner-computes, and `tuned` decides per shape, so
    /// neither does here.
    #[test]
    fn only_atomic_and_casloop_run_the_pass_in_one_launch() {
        assert_eq!(backend_names().len(), 14);
        for &name in backend_names() {
            let one_launch = fixed_plan(name, 2).is_some_and(|p| p.gk_in_one_launch());
            assert_eq!(one_launch, matches!(name, "atomic" | "casloop"), "{name}");
        }
    }

    /// On a shape no profile covers, `tuned` runs `atomic`'s plan at its
    /// own tuning.
    #[test]
    fn tuned_falls_back_to_atomic_on_an_unseen_shape() {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let b = backend_by_name("tuned-t2", 2).unwrap();
        assert_eq!(b.launch_plan(), fixed_plan("atomic-t2", 2));
        let layout = SystemLayout {
            n_stars: 7,
            ..SystemLayout::tiny()
        };
        let sys = Generator::new(GeneratorConfig::new(layout).seed(3)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.21).cos()).collect();
        let pass = |b: &dyn Backend| {
            let (mut u, mut out) = (sys.known_terms().to_vec(), x.clone());
            b.gk_products(&sys, &x, 0.5, &mut u, &mut out);
            u.into_iter().chain(out).collect::<Vec<f64>>()
        };
        let (got, want) = (pass(b.as_ref()), pass(&SeqBackend));
        assert!(got.iter().zip(&want).all(|(g, w)| (g - w).abs() < 1e-10));
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(backend_by_name("cuda", 2).is_none());
        assert!(instrumented_by_name("cuda", 2).is_none());
        assert!(fixed_plan("cuda", 2).is_none());
    }

    #[test]
    fn malformed_suffixes_are_none() {
        for name in [
            "chunked-x4",
            "chunked-t",
            "chunked-tfour",
            "chunked-t4-k2",
            "chunked-t4-c",
            "chunked-t4-c2-extra",
            "-t4",
            // Zero counts are rejected like the profile loader rejects
            // them, not clamped to a differently named backend.
            "chunked-t0",
            "chunked-t4-c0",
        ] {
            assert!(backend_by_name(name, 2).is_none(), "{name}");
        }
    }

    /// The round-trip bugfix: every name a backend emits (into telemetry
    /// JSON, bench reports, ...) must re-instantiate an identically named
    /// backend.
    #[test]
    fn every_emitted_name_round_trips() {
        for threads in [1usize, 3, 8] {
            for b in all_backends(threads) {
                let name = b.name();
                let again = backend_by_name(&name, 1)
                    .unwrap_or_else(|| panic!("{name} does not round-trip"));
                assert_eq!(again.name(), name);
            }
        }
        // Chunked suffixes round-trip too.
        for b in grid_backends(&[2, 5], &[1, 4]) {
            let name = b.name();
            let again =
                backend_by_name(&name, 1).unwrap_or_else(|| panic!("{name} does not round-trip"));
            assert_eq!(again.name(), name);
        }
    }

    /// The tuned-profile names obey the same `-t/-c` suffix grammar as
    /// every other policy (the PR-8 grammar satellite).
    #[test]
    fn variant_and_tuned_names_round_trip_with_suffixes() {
        for name in [
            "unrolled-t3",
            "blocked-t2-c4",
            "ell-t1",
            "tuned-t5",
            "tuned-t3-c2",
        ] {
            let b = backend_by_name(name, 9).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(b.name(), name);
        }
        for bad in ["unrolled-c2", "tuned-t0x", "ell-t2-c2-x"] {
            assert!(backend_by_name(bad, 2).is_none(), "{bad}");
        }
    }

    #[test]
    fn explicit_suffix_overrides_the_thread_argument() {
        let b = backend_by_name("chunked-t6", 2).unwrap();
        assert_eq!(b.name(), "chunked-t6");
        let b = backend_by_name("atomic-t3-c5", 64).unwrap();
        assert_eq!(b.name(), "atomic-t3-c5");
        // Bare names keep using the argument, which is still clamped.
        let b = backend_by_name("chunked", 7).unwrap();
        assert_eq!(b.name(), "chunked-t7");
        let b = backend_by_name("chunked", 0).unwrap();
        assert_eq!(b.name(), "chunked-t1");
    }

    #[test]
    fn grid_covers_every_tuned_policy() {
        let threads = [1usize, 3];
        let chunks = [1usize, 4];
        let grid = grid_backends(&threads, &chunks);
        assert_eq!(
            grid.len(),
            planned_names().count() * threads.len() * chunks.len()
        );
    }

    /// What a row's plan says it differs in is what it differs in: the
    /// stripe count scales with the threads, `unrolled`, `blocked` and
    /// `ell` are `chunked` under another name, and only `tuned` has no
    /// fixed plan.
    #[test]
    fn rows_carry_their_axis_in_the_plan() {
        let plan = |name: &str| fixed_plan(name, 2).unwrap_or_else(|| panic!("{name}"));
        for t in [1usize, 3, 8] {
            let chunked = fixed_plan("chunked", t).unwrap();
            assert_eq!(fixed_plan("unrolled", t), Some(chunked), "t={t}");
            assert_eq!(fixed_plan("blocked", t), Some(chunked), "t={t}");
            assert_eq!(fixed_plan("ell", t), Some(chunked), "t={t}");
        }
        assert_eq!(
            plan("striped-t3").spec.att,
            Aprod2Strategy::LockStriped { stripes: 12 }
        );
        assert_eq!(plan("tiled-t5-c2"), plan("chunked-t5-c2"));
        for name in planned_names() {
            let b = backend_by_name(name, 2).unwrap();
            assert_eq!(
                fixed_plan(name, 2),
                b.launch_plan().filter(|_| name != "tuned"),
                "{name}"
            );
        }
        assert_eq!(fixed_plan("seq", 2), None);
        assert_eq!(fixed_plan("rayon", 2), None);
    }

    /// Every plan-driven backend the registry hands out must carry a plan
    /// the static checker accepts — and every policy struct except seq /
    /// rayon is plan-driven (including the alias names and the
    /// profile-driven `tuned` backend, whose default plan is checked here
    /// and whose per-shape profile plans are checked at load time).
    #[test]
    fn registry_plans_pass_static_analysis() {
        for threads in [1usize, 4, 64] {
            let mut with_plan = 0;
            for b in all_backends(threads) {
                if let Some(plan) = b.launch_plan() {
                    with_plan += 1;
                    plan.analyze_canonical()
                        .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                }
            }
            assert_eq!(with_plan, planned_names().count(), "threads={threads}");
        }
        // Wrappers forward the inner plan.
        let wrapped = instrumented_by_name("hybrid", 3).unwrap();
        assert!(wrapped.launch_plan().is_some());
    }

    #[test]
    fn instrumented_wrapper_preserves_identity() {
        for name in backend_names() {
            let plain = backend_by_name(name, 2).unwrap();
            let wrapped = instrumented_by_name(name, 2).unwrap();
            assert_eq!(wrapped.name(), plain.name());
            assert_eq!(wrapped.description(), plain.description());
        }
    }

    /// Boundary audit for `Tuning::effective_chunks` across every tuned
    /// policy: a registry `-c` suffix of `usize::MAX` used to overflow the
    /// raw `threads × chunks_per_thread` multiply (panic in debug, tiny
    /// wrapped chunk count in release); the saturating clamp must instead
    /// bound the chunk budget by the work count and keep results exact.
    #[test]
    fn extreme_chunk_suffixes_are_clamped_not_overflowed() {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(11)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.31).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        for policy in planned_names() {
            let name = format!("{policy}-t3-c{}", usize::MAX);
            let b = backend_by_name(&name, 2).unwrap_or_else(|| panic!("{name} must parse"));
            let mut got1 = vec![0.0; sys.n_rows()];
            b.aprod1(&sys, &x, &mut got1);
            let mut got2 = vec![0.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut got2);
            for (g, w) in got1.iter().zip(&want1) {
                assert!((g - w).abs() < 1e-10, "{name} aprod1");
            }
            for (g, w) in got2.iter().zip(&want2) {
                assert!((g - w).abs() < 1e-10, "{name} aprod2");
            }
        }
    }

    /// Degenerate thread budgets (1) and budgets far above the row count
    /// (64 on a tiny system, forcing `split_ranges` to hand out empty
    /// ranges) must neither panic nor change any result.
    #[test]
    fn every_backend_survives_oversized_thread_budgets() {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(77)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.29).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        for threads in [1usize, 7, 64] {
            for backend in all_backends(threads) {
                let mut got1 = vec![0.0; sys.n_rows()];
                backend.aprod1(&sys, &x, &mut got1);
                let mut got2 = vec![0.0; sys.n_cols()];
                backend.aprod2(&sys, &y, &mut got2);
                for (g, w) in got1.iter().zip(&want1) {
                    assert!(
                        (g - w).abs() < 1e-10,
                        "{} aprod1 at {threads} threads",
                        backend.name()
                    );
                }
                for (g, w) in got2.iter().zip(&want2) {
                    assert!(
                        (g - w).abs() < 1e-10,
                        "{} aprod2 at {threads} threads",
                        backend.name()
                    );
                }
            }
        }
    }
}
