//! The launch-configuration auto-tuner — the paper's §V-B kernel-tuning
//! study as a seeded search.
//!
//! The paper reports "up to 40 % reduction in iteration time" from tuning
//! the CUDA launch configuration per kernel and platform. The CPU mirror
//! of that search space is the [`LaunchPlan`] axis set: the per-block
//! conflict strategy (`att`/`instr`/`glob`), the worker budget
//! (uniform/streamed) and the chunk granularity. A candidate is scored by
//! what a solve runs: one Golub–Kahan pass, [`LaunchPlan::gk_products`],
//! in one launch or two as the plan allows.
//!
//! [`tune_layout`] times plans in batches, each through the harness's one
//! timing routine ([`crate::stats::interleaved`]), and every batch holds
//! its incumbent. A batch adopts its fastest plan only when that plan's
//! median beats the incumbent's median by more than the incumbent's IQR.
//! The first batch is the fixed plan of every plan-driven registry name,
//! against `chunked`. Then deterministic coordinate descent runs over the
//! axes: one batch per axis, with the other axes held at the incumbent,
//! until a full pass adopts nothing. A last batch times the winner
//! against `chunked` once more for the profile's medians, and keeps
//! `chunked` if the winner does not beat it by the same rule. Starting
//! from the registry means `tuned` never loses to a fixed name because of
//! the path the descent took: a one-launch plan needs all three shared
//! sections atomic at once, which one axis move at a time from
//! owner-computes does not reach.
//!
//! Every candidate plan is proven sound by the static checker
//! ([`LaunchPlan::analyze_canonical`]) *before* it is timed; an unsound
//! combination is skipped, never measured, never pinned. All candidates
//! run on one system generated from a fixed seed, on the tuner's own
//! pool.

use gaia_backends::profile::{budget_name, strategy_name};
use gaia_backends::registry::fixed_plan;
use gaia_backends::{
    backend_names, Aprod2Strategy, ExecutorPool, LaunchPlan, LaunchProfile, WorkerBudget,
};
use gaia_sparse::{Generator, GeneratorConfig, SparseSystem, SystemLayout};
use gaia_telemetry::TuneCell;

use crate::stats::{interleaved, Summary, ROUNDS};

/// Fixed generator seed: every run tunes against the same system.
pub const TUNE_SEED: u64 = 7;

/// Maximum coordinate-descent passes over the axis set.
const MAX_PASSES: usize = 3;

/// The registry name whose plan is the baseline a profile's
/// `improvement` is measured against.
const BASELINE: &str = "chunked";

/// What to tune.
#[derive(Debug, Clone)]
pub struct TuneSpec {
    /// Layout preset name (`tiny`/`small`/`medium`).
    pub layout: String,
    /// Worker thread budget for every candidate.
    pub threads: usize,
    /// Shrink the axis set and pass counts (CI smoke).
    pub smoke: bool,
}

/// Golub–Kahan passes in one timed run of a candidate. Smoke mode trims
/// passes, never rounds: the rounds are what the median rests on.
fn passes_for(layout: &str, smoke: bool) -> usize {
    let passes = match layout {
        "tiny" => 40,
        "small" => 16,
        _ => 6,
    };
    if smoke {
        (passes / 2).max(4)
    } else {
        passes
    }
}

/// One measured candidate, for the search log artifact.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Explored {
    /// Human-readable configuration label.
    pub config: String,
    /// Seconds per pass over the batch's rounds.
    pub summary: Summary,
}

/// One timed batch, for the search log artifact.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Batch {
    /// What the batch decides: `registry`, an axis name, or `final`.
    pub step: &'static str,
    /// Label of the incumbent, which the batch times too.
    pub incumbent: String,
    /// Label of the plan the batch keeps: the incumbent unless a
    /// candidate beat it.
    pub kept: String,
    /// Every configuration timed, the incumbent first.
    pub measured: Vec<Explored>,
}

/// The result of tuning one layout.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The pinned winner, measurement fields filled in.
    pub profile: LaunchProfile,
    /// Every timed batch, in search order.
    pub batches: Vec<Batch>,
    /// Telemetry totals for the run (the caller records them).
    pub telemetry: TuneCell,
    /// Candidate plans skipped because the static checker rejected them.
    pub skipped_unsound: u64,
}

/// The stable label of a candidate: its strategies, budget and chunk
/// count (the thread budget is the same for every candidate of a run).
fn label(plan: &LaunchPlan) -> String {
    let s = plan.spec;
    format!(
        "att={} instr={} glob={} budget={} c={}",
        strategy_name(s.att),
        strategy_name(s.instr),
        strategy_name(s.glob),
        budget_name(s.budget),
        plan.tuning.chunks_per_thread,
    )
}

/// Shared-section strategies the attitude and instrumental axes propose.
/// They never propose owner-computes: at T ≥ 2 each of its column jobs
/// rescans every row of the section, and it measured slower than `seq`
/// (EXPERIMENTS.md, "Tune the pass; delete ELL"). The registry's fixed
/// plans still put it in the first batch.
const SHARED: [Aprod2Strategy; 4] = [
    Aprod2Strategy::Atomic,
    Aprod2Strategy::CasLoop,
    Aprod2Strategy::Replicated,
    Aprod2Strategy::LockStriped { stripes: 16 },
];
const GLOB: [Aprod2Strategy; 3] = [
    Aprod2Strategy::OwnerComputes,
    Aprod2Strategy::Atomic,
    Aprod2Strategy::Replicated,
];
const BUDGETS: [WorkerBudget; 2] = [WorkerBudget::Uniform, WorkerBudget::Streamed];
const CHUNKS: [usize; 4] = [1, 2, 4, 8];

/// One axis of the descent: its name, how many of its values a full and
/// a smoke search try (smoke keeps the cheap head of each list), and the
/// move of a plan to its value `i`.
type Axis = (&'static str, [usize; 2], fn(&mut LaunchPlan, usize));

const AXES: [Axis; 5] = [
    ("att", [4, 1], |p, i| p.spec.att = SHARED[i]),
    ("instr", [4, 1], |p, i| p.spec.instr = SHARED[i]),
    ("glob", [3, 2], |p, i| p.spec.glob = GLOB[i]),
    ("budget", [2, 1], |p, i| p.spec.budget = BUDGETS[i]),
    ("chunks", [4, 2], |p, i| {
        p.tuning.chunks_per_thread = CHUNKS[i]
    }),
];

/// The plans `axis` proposes from `plan`, the other axes held.
fn moves(axis: &Axis, plan: LaunchPlan, smoke: bool) -> impl Iterator<Item = LaunchPlan> + '_ {
    (0..axis.1[usize::from(smoke)]).map(move |i| {
        let mut moved = plan;
        (axis.2)(&mut moved, i);
        moved
    })
}

/// The timed half of the search: batches of candidate plans against one
/// generated system on its own pool.
struct Search<'a> {
    sys: &'a SparseSystem,
    pool: ExecutorPool,
    passes: usize,
    batches: Vec<Batch>,
    telemetry: TuneCell,
    skipped_unsound: u64,
}

impl<'a> Search<'a> {
    fn new(sys: &'a SparseSystem, pool: ExecutorPool, spec: &TuneSpec) -> Self {
        Search {
            sys,
            pool,
            passes: passes_for(&spec.layout, spec.smoke),
            batches: Vec::new(),
            telemetry: TuneCell::default(),
            skipped_unsound: 0,
        }
    }

    /// Time `incumbent` with every sound, distinct plan of `candidates`
    /// in one batch, log it, and return the plan it keeps with the kept
    /// plan's and the incumbent's median seconds per pass. The fastest
    /// candidate is kept when its median beats the incumbent's by more
    /// than the incumbent's IQR; otherwise the incumbent is.
    fn batch(
        &mut self,
        step: &'static str,
        incumbent: LaunchPlan,
        candidates: impl IntoIterator<Item = LaunchPlan>,
    ) -> (LaunchPlan, f64, f64) {
        let mut plans = vec![incumbent];
        for plan in candidates {
            if plans.contains(&plan) {
                continue;
            }
            if plan.analyze_canonical().is_err() {
                self.skipped_unsound += 1;
                continue;
            }
            plans.push(plan);
        }
        // One timed run is `passes` Golub–Kahan passes — `u ← A x − α u`,
        // then `out += Aᵀu` — exactly as a solve calls them.
        let sys = self.sys;
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut u: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut out = vec![0.0; sys.n_cols()];
        let raw = interleaved(plans.len(), ROUNDS, |i| {
            for _ in 0..self.passes {
                plans[i].gk_products(&self.pool, sys, &x, 0.5, &mut u, &mut out);
            }
        });
        assert!(u.iter().chain(&out).all(|v| v.is_finite()));

        let summaries: Vec<Summary> = raw.iter().map(|s| s.per(self.passes)).collect();
        let inc = summaries[0];
        let fastest = (1..plans.len())
            .min_by(|&a, &b| summaries[a].median_s.total_cmp(&summaries[b].median_s))
            .filter(|&i| summaries[i].median_s < inc.median_s - inc.iqr_s)
            .unwrap_or(0);

        self.telemetry.configs_explored += plans.len() as u64;
        self.telemetry.measurements += (plans.len() * ROUNDS) as u64;
        self.telemetry.measure_seconds += raw.iter().map(|s| s.mean_s * ROUNDS as f64).sum::<f64>();
        self.batches.push(Batch {
            step,
            incumbent: label(&incumbent),
            kept: label(&plans[fastest]),
            measured: plans
                .iter()
                .zip(summaries.iter())
                .map(|(plan, &summary)| Explored {
                    config: label(plan),
                    summary,
                })
                .collect(),
        });
        (plans[fastest], summaries[fastest].median_s, inc.median_s)
    }
}

/// Tune one layout: the registry batch, then coordinate descent from its
/// winner, then the final batch against `chunked`, returning the winning
/// profile with `tuned_median_s` / `baseline_median_s` (the `chunked`
/// plan's) / `improvement` filled in. Errors are user input (unknown
/// layout name, zero threads) and render as one line.
pub fn tune_layout(spec: &TuneSpec) -> Result<TuneOutcome, String> {
    let Some(layout) = SystemLayout::preset(&spec.layout) else {
        return Err(format!(
            "unknown layout `{}` (tune layouts: tiny, small, medium)",
            spec.layout
        ));
    };
    if spec.threads == 0 {
        return Err("threads must be positive".to_string());
    }
    let sys = Generator::new(GeneratorConfig::new(layout).seed(TUNE_SEED)).generate();
    let mut search = Search::new(&sys, ExecutorPool::new(spec.threads), spec);

    let baseline = fixed_plan(BASELINE, spec.threads).ok_or("`chunked` has no plan")?;
    let registry = backend_names()
        .iter()
        .filter_map(|name| fixed_plan(name, spec.threads));
    let (mut best, _, _) = search.batch("registry", baseline, registry);

    for _pass in 0..MAX_PASSES {
        let mut improved = false;
        for axis in &AXES {
            let (kept, _, _) = search.batch(axis.0, best, moves(axis, best, spec.smoke));
            improved |= kept != best;
            best = kept;
        }
        if !improved {
            break;
        }
    }

    let (best, tuned_m, baseline_m) = search.batch("final", baseline, [best]);
    let mut profile = LaunchProfile::from_plan(&spec.layout, layout, &best);
    profile.tuned_median_s = tuned_m;
    profile.baseline_median_s = baseline_m;
    profile.improvement = if baseline_m > 0.0 {
        (baseline_m - tuned_m) / baseline_m
    } else {
        0.0
    };
    profile.configs_explored = search.telemetry.configs_explored;

    Ok(TuneOutcome {
        profile,
        batches: search.batches,
        telemetry: search.telemetry,
        skipped_unsound: search.skipped_unsound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tune_on_tiny_returns_a_valid_profile() {
        let outcome = tune_layout(&TuneSpec {
            layout: "tiny".into(),
            threads: 2,
            smoke: true,
        })
        .unwrap();
        // The profile must lower back to a sound plan.
        let plan = outcome.profile.to_plan().unwrap();
        plan.analyze_canonical().unwrap();
        assert_eq!(outcome.profile.layout, "tiny");
        assert!(outcome.profile.baseline_median_s > 0.0);
        assert!(outcome.profile.tuned_median_s > 0.0);
        assert!(outcome.profile.tuned_median_s <= outcome.profile.baseline_median_s);
        assert!(outcome.telemetry.configs_explored >= 2);
        let measured = outcome.batches.iter().map(|b| b.measured.len() as u64);
        assert_eq!(measured.sum::<u64>(), outcome.telemetry.configs_explored);
        // Every batch times its incumbent first, every candidate over
        // the same rounds; the last one is the winner against `chunked`.
        for b in &outcome.batches {
            assert_eq!(b.measured[0].config, b.incumbent, "{}", b.step);
            assert!(b.measured.iter().all(|e| e.summary.rounds == ROUNDS as u64));
        }
        let last = outcome.batches.last().unwrap();
        assert_eq!(last.step, "final");
        assert_eq!(last.incumbent, label(&fixed_plan(BASELINE, 2).unwrap()));
        assert_eq!(last.kept, label(&plan));
    }

    #[test]
    fn unknown_layout_is_a_clean_error() {
        let err = tune_layout(&TuneSpec {
            layout: "huge".into(),
            threads: 2,
            smoke: true,
        })
        .unwrap_err();
        assert!(err.contains("unknown layout"), "{err}");
    }

    #[test]
    fn config_labels_are_unique_across_the_smoke_axes() {
        let mut labels = std::collections::HashSet::new();
        let base = fixed_plan(BASELINE, 2).unwrap();
        for glob in moves(&AXES[2], base, true) {
            for cfg in moves(&AXES[4], glob, true) {
                assert!(labels.insert(label(&cfg)), "{}", label(&cfg));
            }
        }
        assert_eq!(labels.len(), 4);
    }

    /// A timed run is passes as a solve runs them: one pool launch a pass
    /// for a uniform `Atomic` plan, two (`aprod1`, then `aprod2`) for an
    /// owner-computes one, in the warm-up round and in every timed round.
    #[test]
    fn a_timed_iteration_is_one_pass_in_one_launch_or_two() {
        let spec = TuneSpec {
            layout: "tiny".into(),
            threads: 2,
            smoke: true,
        };
        let sys =
            Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(TUNE_SEED)).generate();
        let mut search = Search::new(&sys, ExecutorPool::new(2), &spec);
        for (name, launches) in [("atomic", 1), ("chunked", 2)] {
            let before = search.pool.launch_count();
            search.batch("one plan", fixed_plan(name, 2).unwrap(), []);
            let ran = search.pool.launch_count() - before;
            assert_eq!(
                ran,
                ((ROUNDS + 1) * search.passes * launches) as u64,
                "{name}"
            );
        }
    }
}
