//! The one plan-driven backend.
//!
//! The paper carries one solver source across frameworks that differ only
//! in launch configuration — tuning, atomics code generation, streams.
//! Here that difference is data: every registry policy except `seq` and
//! `rayon` is a [`PlannedBackend`] over a different [`LaunchPlan`] (see the
//! table in [`crate::registry`]). Two policies add data on top of the plan:
//!
//! * `tiled` runs the plan on star-aligned [`SparseSystem::row_block`]
//!   views, one tile at a time — the traversal the out-of-core
//!   [`gaia_sparse::TiledSystem`] path performs over spilled tiles, on a
//!   resident system. Owner-computes
//!   accumulates each output slot in ascending row order and tiles are
//!   visited in row order, so results stay bitwise identical to `seq`.
//! * `tuned` runs the persisted tuner winner per system shape: the paper
//!   pins a tuned launch configuration per platform after its §V-B
//!   search, and a `gaia-tune-profile/v3` file is that pinning. Shapes the
//!   tuner never saw run the policy's own plan, and the miss is recorded in
//!   telemetry so a silent mismatch shows up in run reports.
//!
//! The Golub–Kahan pass resolves the plan once and hands the whole system
//! to [`LaunchPlan::gk_products`]: one launch that reads the matrix once
//! for a plan whose colliding sections all publish inside wave 1
//! (`atomic`, `casloop`, a `tuned` profile of that kind), `aprod1` and then
//! `aprod2` for every other plan. A tiled walk runs the two products tile
//! by tile.

use std::sync::Arc;

use gaia_sparse::{RowBlock, SparseSystem, SystemLayout};
use parking_lot::Mutex;

use crate::blas;
use crate::exec::ExecutorPool;
use crate::launch::LaunchPlan;
use crate::profile::LaunchProfile;
use crate::registry::tuned_name;
use crate::traits::Backend;

/// Number of row tiles a tile height of `0` aims for.
const DEFAULT_TILE_COUNT: usize = 4;

/// A [`LaunchPlan`] executed on the shared [`ExecutorPool`] under a
/// registry policy name (see module docs).
#[derive(Debug)]
pub struct PlannedBackend {
    policy: &'static str,
    description: &'static str,
    plan: LaunchPlan,
    pool: Arc<ExecutorPool>,
    /// `None` launches the whole system at once; `Some(h)` walks
    /// star-aligned row tiles of `h` stars (`0`: a quarter of the stars).
    tile_stars: Option<usize>,
    /// Shape → plan overrides consulted before `plan`; `None` for every
    /// policy whose plan does not depend on the system.
    shape_plans: Option<Vec<(SystemLayout, LaunchPlan)>>,
    /// Resolution cache: the last shape seen and the plan picked for it
    /// (LSQR resolves once per Golub–Kahan pass, always on one system, so
    /// one entry is a perfect cache). Untouched while `shape_plans` is
    /// `None`.
    resolved: Mutex<Option<(SystemLayout, LaunchPlan)>>,
}

impl PlannedBackend {
    /// Run `plan` under the name `<policy>-t<threads>[-c<chunks>]`, on the
    /// shared pool of `plan.tuning.threads` workers.
    pub fn new(policy: &'static str, description: &'static str, plan: LaunchPlan) -> Self {
        PlannedBackend {
            policy,
            description,
            plan,
            pool: ExecutorPool::shared(plan.tuning.threads),
            tile_stars: None,
            shape_plans: None,
            resolved: Mutex::new(None),
        }
    }

    /// Walk the plan over star-aligned row tiles of `tile_stars` stars,
    /// mirroring the `tile_stars` of an on-disk tile set; `0` picks
    /// `n_stars / 4` per system.
    pub fn with_tile_stars(mut self, tile_stars: usize) -> Self {
        self.tile_stars = Some(tile_stars);
        self
    }

    /// Let each profile's plan override this backend's own on systems of
    /// the profile's shape. Profiles are lowered here, once; one that
    /// fails to lower is dropped and counted as rejected, the way the
    /// profile loader counts an invalid file.
    pub fn with_profiles(mut self, profiles: &[LaunchProfile]) -> Self {
        let plans: Vec<_> = profiles
            .iter()
            .filter_map(|p| Some((p.shape, p.to_plan().ok()?)))
            .collect();
        let rejected = (profiles.len() - plans.len()) as u64;
        gaia_telemetry::record(|t| t.tune.profiles_rejected += rejected);
        self.shape_plans = Some(plans);
        self
    }

    /// How many profiles were handed over and lowered to a sound plan.
    pub fn profile_count(&self) -> usize {
        self.shape_plans.as_ref().map_or(0, Vec::len)
    }

    /// The plan this backend runs on a system of shape `shape`: the first
    /// matching profile's plan — with the profile's own tuning, that is
    /// what was measured — else this backend's plan, counted as one
    /// fallback per resolution, not per product.
    pub fn plan_for(&self, shape: &SystemLayout) -> LaunchPlan {
        let Some(plans) = &self.shape_plans else {
            return self.plan;
        };
        let mut cached = self.resolved.lock();
        if let Some((_, plan)) = cached.filter(|(s, _)| s == shape) {
            return plan;
        }
        let plan = match plans.iter().find(|(s, _)| s == shape) {
            Some(&(_, plan)) => plan,
            None => {
                gaia_telemetry::record(|t| t.tune.fallbacks += 1);
                self.plan
            }
        };
        *cached = Some((*shape, plan));
        plan
    }

    /// `out += A x` under `plan`, whole or tile by tile.
    fn run_aprod1(&self, plan: &LaunchPlan, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        match self.tile_stars {
            None => plan.aprod1(&self.pool, sys, x, out),
            Some(tile_stars) => {
                for tile in row_tiles(sys, tile_stars) {
                    plan.aprod1(&self.pool, &tile.system, x, &mut out[tile.rows]);
                }
            }
        }
    }

    /// `out += Aᵀ y` under `plan`, whole or tile by tile.
    fn run_aprod2(&self, plan: &LaunchPlan, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        match self.tile_stars {
            None => plan.aprod2(&self.pool, sys, y, out),
            Some(tile_stars) => {
                for tile in row_tiles(sys, tile_stars) {
                    plan.aprod2(&self.pool, &tile.system, &y[tile.rows], out);
                }
            }
        }
    }
}

/// Star-aligned row-block views covering `sys`, constraint rows folded
/// into the last — the same split `gaia-tiles/v4` spills to disk. A valid
/// layout has at least one star, so there is always one tile.
fn row_tiles(sys: &SparseSystem, tile_stars: usize) -> impl Iterator<Item = RowBlock> + '_ {
    let n_stars = sys.layout().n_stars;
    let tile_stars = match tile_stars {
        0 => n_stars.div_ceil(DEFAULT_TILE_COUNT as u64),
        h => h as u64,
    };
    (0..n_stars).step_by(tile_stars as usize).map(move |star0| {
        let star1 = (star0 + tile_stars).min(n_stars);
        sys.row_block(star0..star1, star1 == n_stars)
    })
}

impl Backend for PlannedBackend {
    fn name(&self) -> String {
        tuned_name(self.policy, self.plan.tuning)
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.check_aprod1(sys, x, out);
        self.run_aprod1(&self.plan_for(sys.layout()), sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.check_aprod2(sys, y, out);
        self.run_aprod2(&self.plan_for(sys.layout()), sys, y, out);
    }

    /// Resolves the plan once for the whole pass: the plan's own
    /// [`LaunchPlan::gk_products`] over the whole system, or `aprod1` and
    /// then `aprod2` tile by tile.
    fn gk_products(
        &self,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        self.check_aprod1(sys, x, u);
        self.check_aprod2(sys, u, out);
        let plan = self.plan_for(sys.layout());
        if self.tile_stars.is_none() {
            plan.gk_products(&self.pool, sys, x, alfa, u, out);
        } else {
            blas::scal(u, -alfa);
            self.run_aprod1(&plan, sys, x, u);
            self.run_aprod2(&plan, sys, u, out);
        }
    }

    /// The backend's own plan — the one shape-independent answer. Profile
    /// plans are each proven sound when lowered ([`LaunchProfile::to_plan`]
    /// runs the canonical battery), so the registry's static check on this
    /// plan plus those cover everything this backend can execute.
    fn launch_plan(&self) -> Option<LaunchPlan> {
        Some(self.plan)
    }
}

/// What the registry's policy × threads × chunks grid
/// (`tests/equivalence.rs`) cannot reach: plans and traversals no registry
/// name produces, and properties stricter than agreement with `seq`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{Aprod2Spec, Aprod2Strategy, WorkerBudget};
    use crate::tuning::Tuning;
    use crate::{backend_by_name, SeqBackend};
    use gaia_sparse::{Generator, GeneratorConfig};

    fn tiny(seed: u64) -> SparseSystem {
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(seed)).generate()
    }

    fn probe(sys: &SparseSystem) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.19).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.23).cos()).collect();
        (x, y)
    }

    /// `(A x, Aᵀ y)` from zeroed outputs.
    fn products(b: &dyn Backend, sys: &SparseSystem, x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut ax = vec![0.0; sys.n_rows()];
        b.aprod1(sys, x, &mut ax);
        let mut aty = vec![0.0; sys.n_cols()];
        b.aprod2(sys, y, &mut aty);
        (ax, aty)
    }

    fn owner(threads: usize) -> LaunchPlan {
        LaunchPlan::new(
            Tuning::with_threads(threads),
            Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes),
        )
    }

    fn atomic(threads: usize) -> LaunchPlan {
        LaunchPlan::new(
            Tuning::with_threads(threads),
            Aprod2Spec::uniform(Aprod2Strategy::Atomic),
        )
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-10, "{what}: {g} vs {w}");
        }
    }

    #[test]
    fn degenerate_stripe_counts_still_match_seq() {
        for (seed, threads, stripes) in [(62u64, 4usize, 1usize), (63, 3, 10_000)] {
            let sys = tiny(seed);
            let (x, y) = probe(&sys);
            let plan = LaunchPlan::new(
                Tuning::with_threads(threads),
                Aprod2Spec::uniform(Aprod2Strategy::LockStriped { stripes }),
            );
            let b = PlannedBackend::new("striped", "test", plan);
            let want = products(&SeqBackend, &sys, &x, &y).1;
            let got = products(&b, &sys, &x, &y).1;
            assert_close(&got, &want, &format!("{stripes} stripe(s)"));
        }
    }

    #[test]
    fn streams_write_disjoint_sections() {
        // With y = 0 on all observation rows but 1.0 on constraint rows,
        // only the attitude section may change.
        let sys = tiny(82);
        let mut y = vec![0.0; sys.n_rows()];
        for slot in y.iter_mut().skip(sys.n_obs_rows()) {
            *slot = 1.0;
        }
        let c = sys.columns();
        for name in ["streamed", "hybrid"] {
            let b = backend_by_name(name, 4).unwrap();
            let mut out = vec![0.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut out);
            assert!(out[..c.att as usize].iter().all(|&v| v == 0.0), "{name}");
            assert!(out[c.instr as usize..].iter().all(|&v| v == 0.0), "{name}");
            assert!(
                out[c.att as usize..c.instr as usize]
                    .iter()
                    .any(|&v| v != 0.0),
                "{name}"
            );
        }
    }

    #[test]
    fn zero_y_preserves_prior_output_through_the_reduction_wave() {
        let sys = tiny(52);
        let y = vec![0.0; sys.n_rows()];
        for name in ["replicated-t3", "hybrid-t3", "striped-t3"] {
            let b = backend_by_name(name, 1).unwrap();
            let mut out = vec![7.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut out);
            assert!(out.iter().all(|&v| v == 7.0), "{name}");
        }
    }

    #[test]
    fn row_tiles_partition_all_rows_star_aligned() {
        let sys = tiny(5);
        let obs = sys.layout().obs_per_star as usize;
        for tile_stars in [0usize, 1, 2, 3, 1000] {
            let mut cursor = 0;
            for t in row_tiles(&sys, tile_stars) {
                assert_eq!(t.rows.start, cursor);
                assert_eq!(t.rows.start % obs, 0, "tile starts between stars");
                cursor = t.rows.end;
            }
            assert_eq!(cursor, sys.n_rows(), "tiles cover every row");
        }
        assert!((2..=DEFAULT_TILE_COUNT).contains(&row_tiles(&sys, 0).count()));
    }

    #[test]
    fn tiled_products_are_bitwise_equal_to_seq() {
        let sys = tiny(12);
        let (x, y) = probe(&sys);
        let want = products(&SeqBackend, &sys, &x, &y);
        for threads in [1usize, 3, 8] {
            for tile_stars in [1usize, 2, 7] {
                let b = PlannedBackend::new("tiled", "test", owner(threads))
                    .with_tile_stars(tile_stars);
                let got = products(&b, &sys, &x, &y);
                assert_eq!(got, want, "t{threads} tile_stars={tile_stars}");
            }
        }
    }

    #[test]
    fn hybrid_satisfies_the_adjoint_identity() {
        // ⟨A x, y⟩ == ⟨x, Aᵀ y⟩ under the per-block strategy mix.
        let sys = tiny(92);
        let (x, y) = probe(&sys);
        let b = backend_by_name("hybrid", 4).unwrap();
        let (ax, aty) = products(&b, &sys, &x, &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    fn tiny_profile() -> LaunchProfile {
        let plan = LaunchPlan::new(
            Tuning {
                threads: 3,
                chunks_per_thread: 2,
            },
            Aprod2Spec {
                att: Aprod2Strategy::Replicated,
                instr: Aprod2Strategy::Atomic,
                glob: Aprod2Strategy::OwnerComputes,
                budget: WorkerBudget::Uniform,
            },
        );
        LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan)
    }

    /// `tuned` as the registry builds it: `atomic`'s plan where no
    /// profile matches.
    fn tuned(threads: usize, profiles: &[LaunchProfile]) -> PlannedBackend {
        PlannedBackend::new("tuned", "test", atomic(threads)).with_profiles(profiles)
    }

    #[test]
    fn tuned_matching_profile_selects_its_plan() {
        let b = tuned(2, &[tiny_profile()]);
        assert_eq!(b.profile_count(), 1);
        let plan = b.plan_for(&SystemLayout::tiny());
        assert_eq!(plan, tiny_profile().to_plan().unwrap());
        assert_eq!(plan.tuning.threads, 3);
        // The shape-independent answer stays the backend's own plan.
        assert_eq!(b.launch_plan(), Some(atomic(2)));
        assert_eq!(b.name(), "tuned-t2");
    }

    #[test]
    fn tuned_unseen_shape_or_unlowerable_profile_falls_back() {
        let b = tuned(2, &[tiny_profile()]);
        assert_eq!(b.plan_for(&SystemLayout::small()), atomic(2));
        // A profile that fails to lower is rejected at construction, not
        // skipped on every resolution.
        let mut bad = tiny_profile();
        bad.att = "owner-computes".into();
        let b = tuned(2, &[bad, tiny_profile()]);
        assert_eq!(b.profile_count(), 1);
        let b = tuned(2, &[]);
        assert_eq!(b.plan_for(&SystemLayout::tiny()), atomic(2));
    }

    /// The resolution cache holds one shape, and two tenants solving
    /// different systems on one `tuned` backend flip it on every call
    /// (what `served-mix` does). Each round both threads leave a barrier
    /// together, so every round resolves both shapes against a cache the
    /// other thread is overwriting: neither may ever run the other's plan
    /// or the policy's fallback, and every product must be bit-for-bit
    /// what its profile's own plan computes.
    #[test]
    fn tuned_alternating_shapes_never_get_each_others_plan() {
        // Two deterministic plans, so their products compare bitwise.
        let tiny_plan = LaunchPlan::new(
            Tuning {
                threads: 3,
                chunks_per_thread: 2,
            },
            Aprod2Spec::uniform(Aprod2Strategy::Replicated),
        );
        // Not `atomic(2)`, the backend's own fallback, so a fallback shows.
        let small_plan = LaunchPlan::new(
            Tuning {
                threads: 2,
                chunks_per_thread: 3,
            },
            Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes),
        );
        let profiles = [
            LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &tiny_plan),
            LaunchProfile::from_plan("small", SystemLayout::small(), &small_plan),
        ];
        let b = tuned(2, &profiles);
        assert_eq!(b.profile_count(), 2);
        let small = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(6)).generate();
        let round = std::sync::Barrier::new(2);
        let mismatches: Vec<String> = std::thread::scope(|s| {
            let tenants: Vec<_> = [(tiny(5), tiny_plan), (small, small_plan)]
                .into_iter()
                .map(|(sys, own)| {
                    let (b, round) = (&b, &round);
                    s.spawn(move || {
                        let (x, y) = probe(&sys);
                        let alone = PlannedBackend::new("own", "test", own);
                        let want = products(&alone, &sys, &x, &y);
                        // Keep in step with the other tenant whatever is
                        // found: a panic here would leave it at the barrier.
                        let mut first = None;
                        for call in 0..200 {
                            round.wait();
                            let resolved = b.plan_for(sys.layout());
                            let got = products(b, &sys, &x, &y);
                            if resolved != own || got != want {
                                first.get_or_insert(format!(
                                    "call {call} on {:?} resolved {resolved:?}",
                                    sys.layout()
                                ));
                            }
                        }
                        first
                    })
                })
                .collect();
            tenants
                .into_iter()
                .filter_map(|t| t.join().expect("tenant thread"))
                .collect()
        });
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    /// `(u, out)` after one pass from non-zero `u` and `out`.
    fn pass(b: &dyn Backend, sys: &SparseSystem, x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut u, mut out) = (y.to_vec(), x.to_vec());
        b.gk_products(sys, x, 0.75, &mut u, &mut out);
        (u, out)
    }

    /// The pass is the two products whichever way the plan runs it: in
    /// one launch for a `tuned` profile that publishes in wave 1, in two
    /// for the same plan walked over tiles.
    #[test]
    fn every_pass_matches_seq_in_one_launch_or_two() {
        let sys = tiny(9);
        let (x, y) = probe(&sys);
        let want = pass(&SeqBackend, &sys, &x, &y);
        let atomic = LaunchPlan::new(
            Tuning {
                threads: 3,
                chunks_per_thread: 2,
            },
            Aprod2Spec {
                instr: Aprod2Strategy::CasLoop,
                ..Aprod2Spec::uniform(Aprod2Strategy::Atomic)
            },
        );
        assert!(atomic.gk_in_one_launch());
        let profile = LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &atomic);
        let b = tuned(2, &[profile]);
        assert_eq!(b.plan_for(&SystemLayout::tiny()), atomic);
        let tiled = PlannedBackend::new("tiled", "test", atomic).with_tile_stars(2);
        for b in [&b, &tiled] {
            let got = pass(b, &sys, &x, &y);
            assert_close(&got.0, &want.0, "u");
            assert_close(&got.1, &want.1, "out");
        }
    }

    #[test]
    fn tuned_products_match_seq() {
        let sys = tiny(5);
        let (x, y) = probe(&sys);
        let want = products(&SeqBackend, &sys, &x, &y);
        let got = products(&tuned(3, &[tiny_profile()]), &sys, &x, &y);
        assert_close(&got.0, &want.0, "aprod1");
        assert_close(&got.1, &want.1, "aprod2");
    }
}
