//! Deterministic schedule exploration over the `aprod2` conflict strategies.
//!
//! Thread-interleaving bugs hide from ordinary tests because the scheduler
//! rarely visits the bad orderings. This module drives the executor pool
//! through **seeded adversarial schedules** (`gaia_backends::exec::sched`,
//! compiled in via the `sched-test` feature): job pickup order is permuted,
//! workers are forcibly preempted at the probe points between the atomic
//! adds of the atomic and CAS publish loops, in the lock-striped apply and
//! in the reduction, section barriers are skewed, and individual worker
//! lanes are starved. Each strategy is replayed under
//! many seeds and compared against the sequential oracle:
//!
//! * `OwnerComputes` and `Replicated` reduce in a fixed order, so their
//!   results must be **bitwise identical** across every schedule;
//! * `Atomic`, `CasLoop`, and `LockStriped` commute updates, so their
//!   results may differ in summation order but must stay within
//!   [`SCHEDULE_TOLERANCE`] of the oracle under *every* schedule.
//!
//! [`explore_broken`] is the harness's own canary: a deliberately racy
//! lost-update kernel that a correct harness **must** flag. CI fails if the
//! canary passes.

use std::sync::atomic::Ordering;

use gaia_backends::exec::sched::{self, ScheduleController};
use gaia_backends::exec::{ExecutorPool, Job};
use gaia_backends::launch::{PROBE_ATT_ATOMIC, PROBE_INSTR_ATOMIC};
use gaia_backends::{atomicf64, kernels};
use gaia_backends::{
    check_sections, Aprod2Spec, Aprod2Strategy, Backend, LaunchPlan, PlanDims, PlanError,
    ReadAccess, ReadSpace, SectionId, SectionModel, SeqBackend, Tuning, WriteAccess,
};
use gaia_sparse::{
    AttitudePattern, Generator, GeneratorConfig, MatrixLayout, Rhs, SparseSystem, SystemLayout,
};
use serde::Serialize;

/// Worst-case |got − oracle| accepted from a reduction-order-nondeterministic
/// strategy on the tiny exploration system. Calibrated far above rounding
/// noise (observed ≲ 1e-13) and far below the smallest lost-update error
/// (one dropped `a·y` term is O(0.01..1)).
pub const SCHEDULE_TOLERANCE: f64 = 1e-10;

/// Preemption-probe tag of the deliberately racy [`explore_broken`] fixture.
pub const BROKEN_PROBE: u32 = 0xBAD;

/// Threads in the exploration pool (jobs outnumber workers so pickup-order
/// permutation actually changes the interleaving).
pub const THREADS: usize = 4;

/// Every real conflict strategy, with the stable name used in reports.
pub fn strategies() -> Vec<(&'static str, Aprod2Strategy)> {
    vec![
        ("owner-computes", Aprod2Strategy::OwnerComputes),
        ("atomic", Aprod2Strategy::Atomic),
        ("casloop", Aprod2Strategy::CasLoop),
        ("replicated", Aprod2Strategy::Replicated),
        ("lock-striped", Aprod2Strategy::LockStriped { stripes: 8 }),
    ]
}

/// Whether `strategy` must be bitwise identical across schedules (fixed
/// reduction order) rather than merely tolerance-bounded.
pub fn expect_bitwise(strategy: Aprod2Strategy) -> bool {
    matches!(
        strategy,
        Aprod2Strategy::OwnerComputes | Aprod2Strategy::Replicated
    )
}

/// The exploration plan for `spec`: [`THREADS`] workers, two chunks each.
fn exploration_plan(spec: Aprod2Spec) -> LaunchPlan {
    LaunchPlan::new(
        Tuning {
            threads: THREADS,
            chunks_per_thread: 2,
        },
        spec,
    )
}

/// Replay the contended [`Aprod2Strategy::Atomic`] plan over a value
/// layout under `seeds` adversarial schedules, so the layout's
/// *full-section* kernels execute inside every job and reach the output
/// through the atomic publish: it must stay within [`SCHEDULE_TOLERANCE`]
/// of the sequential oracle on every schedule, exactly like row-major.
pub fn explore_layout(layout: MatrixLayout, seeds: &[u64]) -> ScheduleReport {
    let plan =
        exploration_plan(Aprod2Spec::uniform(Aprod2Strategy::Atomic)).with_matrix_layout(layout);
    replay(
        format!("atomic+{layout}"),
        plan,
        false,
        seeds,
        ScheduleController::from_seed,
    )
}

/// Outcome of replaying one subject under a batch of seeded schedules.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleReport {
    /// Strategy name, plus `+streamed` when run under the streamed budget.
    pub subject: String,
    /// Number of adversarial schedules replayed.
    pub schedules: usize,
    /// Schedules whose result left [`SCHEDULE_TOLERANCE`] of the oracle.
    pub failures: usize,
    /// Worst |got − oracle| over all schedules.
    pub max_abs_error: f64,
    /// Whether this subject is required to be bitwise schedule-stable.
    pub expect_bitwise: bool,
    /// Whether every schedule reproduced the unperturbed run bit-for-bit.
    pub bitwise_stable: bool,
    /// Whether the *static* plan checker (`gaia_backends::plan_check`)
    /// already rejected this subject's access model before any schedule
    /// ran. Real strategies must report `false`; the racy canary must
    /// report `true` — the static and dynamic layers cross-check each
    /// other.
    pub statically_flagged: bool,
    /// Whether the write-disjointness layer specifically rejected the
    /// model (colliding / gapped / out-of-bounds write-sets).
    pub write_model_flagged: bool,
    /// Whether the read/write access layer specifically rejected the model
    /// (a job reads what another unsynchronized job writes in the same
    /// wave). Together with `write_model_flagged` and the dynamic
    /// `failures`, the canary must trip all three independent layers.
    pub read_model_flagged: bool,
    /// Fewest atomic-publish probe hits any schedule's launch saw, taking
    /// the rarer of the attitude and instrumental sections (the
    /// controller's own count). Zero means some launch never reached a
    /// publish loop, so its schedule perturbed nothing there; always zero
    /// for a subject that has no atomic publish.
    pub publish_probes_min: u64,
}

/// Split a static analysis result into (any, write-layer, read-layer)
/// flags for a [`ScheduleReport`].
fn static_flags<T>(result: &Result<T, PlanError>) -> (bool, bool, bool) {
    match result {
        Ok(_) => (false, false, false),
        Err(e) => (true, e.has_write_violation(), e.has_read_violation()),
    }
}

impl ScheduleReport {
    /// True iff the subject met its determinism class: no tolerance
    /// failures, and bitwise stability where required.
    pub fn passed(&self) -> bool {
        self.failures == 0 && (!self.expect_bitwise || self.bitwise_stable)
    }
}

/// The fixed exploration system: the tiny layout with a scan-law attitude,
/// so the attitude section (the contended one) is densely revisited.
fn test_system() -> SparseSystem {
    Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(7)
            .attitude(AttitudePattern::ScanLaw { revolutions: 8 })
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate()
}

/// A deterministic, sign-varying, nowhere-zero probe vector.
fn probe_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * std::f64::consts::FRAC_PI_4).sin() + 0.25)
        .collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn bits_differ(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// The symbolic access model of the [`explore_broken`] kernel: `lanes`
/// row-interleaved jobs, each plain-*reading* and plain-storing over the
/// whole attitude section (the canary's read → preempt → store window).
/// This is exactly the shape the static checker must reject twice over:
/// once as an illegal strategy/block pairing ([`WriteAccess::PlainShared`]
/// with colliding write-sets), and once as a read/write race (every lane's
/// stale read overlaps every other lane's unsynchronized store) — the
/// canary is flagged by both static layers before it ever runs.
pub fn broken_write_model(n_att: usize, lanes: usize) -> SectionModel {
    SectionModel::new(
        SectionId::Att,
        WriteAccess::PlainShared,
        n_att,
        vec![0..n_att; lanes],
    )
    .with_reads(vec![
        vec![ReadAccess::plain(
            ReadSpace::Section(SectionId::Att),
            0..n_att
        )];
        lanes
    ])
}

/// Replay `strategy` (under the uniform or streamed worker budget) against
/// `seeds` adversarial schedules and compare every run to the sequential
/// oracle and to the unperturbed run.
pub fn explore_strategy(
    name: &str,
    strategy: Aprod2Strategy,
    streamed: bool,
    seeds: &[u64],
) -> ScheduleReport {
    let spec = if streamed {
        Aprod2Spec::streamed(strategy)
    } else {
        Aprod2Spec::uniform(strategy)
    };
    replay(
        format!("{name}{}", if streamed { "+streamed" } else { "" }),
        exploration_plan(spec),
        expect_bitwise(strategy),
        seeds,
        ScheduleController::from_seed,
    )
}

/// Replay an atomic-publish `strategy` under the controller the canary is
/// caught with ([`ScheduleController::race_window`]: every probe preempts,
/// with a wide spin), so the atomic adds of different jobs' publishes
/// interleave on every schedule. The report's `publish_probes_min` says
/// whether every launch actually got there.
pub fn explore_publish(name: &str, strategy: Aprod2Strategy, seeds: &[u64]) -> ScheduleReport {
    replay(
        format!("{name}+race-window"),
        exploration_plan(Aprod2Spec::uniform(strategy)),
        false,
        seeds,
        ScheduleController::race_window,
    )
}

/// The loop behind every `explore_*` of a real plan: run `plan`'s `aprod2`
/// on the exploration system once unperturbed, then once per seed under
/// `controller(seed)`, and compare every run to the sequential oracle and
/// to the unperturbed run.
fn replay(
    subject: String,
    plan: LaunchPlan,
    expect_bitwise: bool,
    seeds: &[u64],
    controller: fn(u64) -> ScheduleController,
) -> ScheduleReport {
    let sys = test_system();
    let y = probe_vector(sys.n_rows());

    let mut want = vec![0.0f64; sys.n_cols()];
    SeqBackend.aprod2(&sys, &y, &mut want);

    // Cross-check with the static layer: every real strategy's plan must
    // pass the checker on this very system's shape.
    let analysis = plan.analyze(&PlanDims::for_system(&sys));
    let (statically_flagged, write_model_flagged, read_model_flagged) = static_flags(&analysis);

    // A private pool: schedule controllers must never leak into the shared
    // pools other tests use.
    let pool = ExecutorPool::new(THREADS);

    let mut baseline = vec![0.0f64; sys.n_cols()];
    plan.aprod2(&pool, &sys, &y, &mut baseline);

    let mut failures = 0usize;
    let mut max_abs_error = 0.0f64;
    let mut bitwise_stable = true;
    let mut publish_probes_min: Option<u64> = None;
    for &seed in seeds {
        pool.set_schedule(Some(controller(seed)));
        let mut got = vec![0.0f64; sys.n_cols()];
        plan.aprod2(&pool, &sys, &y, &mut got);
        let ctrl = pool
            .set_schedule(None)
            .expect("the controller installed above");
        let hits = ctrl
            .probe_count(PROBE_ATT_ATOMIC)
            .min(ctrl.probe_count(PROBE_INSTR_ATOMIC));
        publish_probes_min = Some(publish_probes_min.map_or(hits, |m| m.min(hits)));

        let err = max_abs_diff(&got, &want);
        max_abs_error = max_abs_error.max(err);
        let failed = !err.is_finite() || err > SCHEDULE_TOLERANCE;
        if failed {
            failures += 1;
        }
        if bits_differ(&got, &baseline) {
            bitwise_stable = false;
        }
        gaia_telemetry::record(|t| {
            t.verify.schedules += 1;
            t.verify.schedule_failures += u64::from(failed);
        });
    }

    ScheduleReport {
        subject,
        schedules: seeds.len(),
        failures,
        max_abs_error,
        expect_bitwise,
        bitwise_stable,
        statically_flagged,
        write_model_flagged,
        read_model_flagged,
        publish_probes_min: publish_probes_min.unwrap_or(0),
    }
}

/// The canary: a deliberately racy attitude accumulation with a textbook
/// lost-update window (non-atomic read → preemption probe → blind store on
/// a shared slot). Run under [`ScheduleController::race_window`] — which
/// preempts at *every* probe, parking the stale read for tens of
/// microseconds while sibling lanes write the same slots — the race is
/// exposed with near certainty on every seed. A healthy harness must
/// report `failures > 0`; CI fails if this fixture ever passes.
pub fn explore_broken(seeds: &[u64]) -> ScheduleReport {
    let sys = test_system();
    let n_rows = sys.n_rows();
    let y = probe_vector(n_rows);
    let dof = sys.layout().n_deg_freedom_att as usize;
    let n_att = sys.layout().n_att_cols() as usize;

    let mut want = vec![0.0f64; n_att];
    kernels::aprod2_att(&sys, &y, 0..n_rows, &mut want);

    let pool = ExecutorPool::new(THREADS);
    // Interleaved row ownership (job j takes rows j, j+L, j+2L, …): every
    // concurrently-running lane sweeps the whole attitude block, maximizing
    // write-write collisions on its ~24 shared columns.
    const LANES: usize = 8;

    // The static layers must catch this shape without running anything:
    // unsynchronized full-section writes from every lane (write model) and
    // every lane's stale read of slots its siblings store (read model).
    let analysis = check_sections(&[broken_write_model(n_att, LANES)]);
    let (statically_flagged, write_model_flagged, read_model_flagged) = static_flags(&analysis);

    let mut failures = 0usize;
    let mut max_abs_error = 0.0f64;
    let mut bitwise_stable = true;
    let mut baseline: Option<Vec<f64>> = None;
    for &seed in seeds {
        pool.set_schedule(Some(ScheduleController::race_window(seed)));
        let mut out = vec![0.0f64; n_att];
        {
            let view = atomicf64::as_atomic(&mut out);
            let sys = &sys;
            let y = &y;
            let mut jobs: Vec<Job<'_>> = Vec::with_capacity(LANES);
            for lane in 0..LANES {
                jobs.push(Box::new(move || {
                    let mut row = lane;
                    while row < n_rows {
                        let (vals, off) = sys.att_row(row);
                        let yr = y[row];
                        for (i, &v) in vals.iter().enumerate() {
                            let (axis, k) = (i / 4, i % 4);
                            let slot = &view[axis * dof + off as usize + k];
                            // Lost-update race: the read is stale by the
                            // time the store lands if anyone else updated
                            // the slot during the preemption window.
                            // ORDERING: Relaxed is deliberate — the canary
                            // models a port with *no* synchronization at
                            // all; stronger orderings would not fix the
                            // non-atomic read-modify-write anyway.
                            let cur = f64::from_bits(slot.load(Ordering::Relaxed));
                            sched::preempt_point(BROKEN_PROBE);
                            slot.store((cur + v * yr).to_bits(), Ordering::Relaxed);
                        }
                        row += LANES;
                    }
                }));
            }
            pool.run(jobs);
        }
        pool.set_schedule(None);

        let err = max_abs_diff(&out, &want);
        max_abs_error = max_abs_error.max(err);
        let failed = !err.is_finite() || err > SCHEDULE_TOLERANCE;
        if failed {
            failures += 1;
        }
        match &baseline {
            None => baseline = Some(out),
            Some(b) => {
                if bits_differ(&out, b) {
                    bitwise_stable = false;
                }
            }
        }
        gaia_telemetry::record(|t| {
            t.verify.schedules += 1;
            t.verify.schedule_failures += u64::from(failed);
        });
    }

    ScheduleReport {
        subject: "broken-lost-update".into(),
        schedules: seeds.len(),
        failures,
        max_abs_error,
        expect_bitwise: false,
        bitwise_stable,
        statically_flagged,
        write_model_flagged,
        read_model_flagged,
        publish_probes_min: 0,
    }
}
