//! The launch-configuration auto-tuner — the paper's §V-B kernel-tuning
//! study as a seeded search.
//!
//! The paper reports "up to 40 % reduction in iteration time" from tuning
//! the CUDA launch configuration per kernel and platform. The CPU mirror
//! of that search space is the [`LaunchPlan`] axis set: the per-block
//! conflict strategy (`att`/`instr`/`glob`), the worker budget
//! (uniform/streamed) and the chunk granularity. A candidate is scored by
//! what a solve runs: one Golub–Kahan pass, [`LaunchPlan::gk_products`],
//! in one launch or two as the plan allows. [`tune_layout`] first measures
//! the fixed plan of every plan-driven registry name and takes the fastest
//! as the incumbent, then runs deterministic coordinate descent over the
//! axes — measure every candidate value of one axis with the others held
//! at the incumbent, adopt the best, move to the next axis, repeat until a
//! full pass improves nothing — and returns the winner as a persistable
//! [`LaunchProfile`]. Starting from the registry means `tuned` never loses
//! to a fixed name because of the path the descent took: a one-launch
//! plan needs all three shared sections atomic at once, which one axis
//! move at a time from owner-computes does not reach.
//!
//! Every candidate plan is proven sound by the static checker
//! ([`LaunchPlan::analyze_canonical`]) *before* it is timed; an unsound
//! combination is skipped, never measured, never pinned. Each candidate
//! is timed as the median of K repeats on one system generated from a
//! fixed seed, on the tuner's own pool.

use std::collections::HashMap;
use std::time::Instant;

use gaia_backends::profile::{budget_name, strategy_name};
use gaia_backends::registry::fixed_plan;
use gaia_backends::{
    backend_names, Aprod2Strategy, ExecutorPool, LaunchPlan, LaunchProfile, WorkerBudget,
};
use gaia_sparse::{Generator, GeneratorConfig, SparseSystem, SystemLayout};
use gaia_telemetry::TuneCell;

use crate::stats::Summary;

/// Fixed generator seed: every run tunes against the same system.
pub const TUNE_SEED: u64 = 7;

/// Fractional improvement a candidate must show over the incumbent to be
/// adopted; keeps run-to-run noise from flapping the winner.
const ADOPT_MARGIN: f64 = 0.005;

/// Maximum coordinate-descent passes over the axis set.
const MAX_PASSES: usize = 3;

/// The registry name whose plan is the baseline a profile's
/// `improvement` is measured against.
const BASELINE: &str = "chunked";

/// What to tune and how hard.
#[derive(Debug, Clone)]
pub struct TuneSpec {
    /// Layout preset name (`tiny`/`small`/`medium`).
    pub layout: String,
    /// Worker thread budget for every candidate.
    pub threads: usize,
    /// Timing repeats per candidate (the K of median-of-K).
    pub repeats: usize,
    /// Shrink the axis set and iteration counts (CI smoke).
    pub smoke: bool,
}

/// Warmup and per-repeat pass counts for a layout. Smoke mode trims
/// iterations, never repeats: K is what the median rests on.
fn iterations_for(layout: &str, smoke: bool) -> (usize, usize) {
    let (warmup, iters) = match layout {
        "tiny" => (3, 40),
        "small" => (2, 16),
        _ => (1, 6),
    };
    if smoke {
        (warmup.min(2), (iters / 2).max(4))
    } else {
        (warmup, iters)
    }
}

/// One measured candidate, for the search log artifact.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Explored {
    /// Human-readable configuration label.
    pub config: String,
    /// Median-of-K summary of mean seconds per pass.
    pub summary: Summary,
}

/// The result of tuning one layout.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The pinned winner, measurement fields filled in.
    pub profile: LaunchProfile,
    /// Every configuration measured, in search order.
    pub explored: Vec<Explored>,
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

/// `plan` with one axis moved.
fn with(mut plan: LaunchPlan, change: impl FnOnce(&mut LaunchPlan)) -> LaunchPlan {
    change(&mut plan);
    plan
}

/// The candidate values per axis. Smoke mode trims the strategy axes to
/// the cheap representatives. The attitude and instrumental axes never
/// propose owner-computes: at T ≥ 2 each of its column jobs rescans every
/// row of the section, and it measured slower than `seq` (EXPERIMENTS.md,
/// "Tune the pass; delete ELL"). The registry's fixed plans still put it
/// in the first round.
struct Axes {
    att: Vec<Aprod2Strategy>,
    instr: Vec<Aprod2Strategy>,
    glob: Vec<Aprod2Strategy>,
    budget: Vec<WorkerBudget>,
    chunks_per_thread: Vec<usize>,
}

impl Axes {
    fn new(smoke: bool) -> Axes {
        if smoke {
            Axes {
                att: vec![Aprod2Strategy::Atomic],
                instr: vec![Aprod2Strategy::Atomic],
                glob: vec![Aprod2Strategy::OwnerComputes, Aprod2Strategy::Atomic],
                budget: vec![WorkerBudget::Uniform],
                chunks_per_thread: vec![1, 2],
            }
        } else {
            let shared = vec![
                Aprod2Strategy::Atomic,
                Aprod2Strategy::CasLoop,
                Aprod2Strategy::Replicated,
                Aprod2Strategy::LockStriped { stripes: 16 },
            ];
            Axes {
                att: shared.clone(),
                instr: shared,
                glob: vec![
                    Aprod2Strategy::OwnerComputes,
                    Aprod2Strategy::Atomic,
                    Aprod2Strategy::Replicated,
                ],
                budget: vec![WorkerBudget::Uniform, WorkerBudget::Streamed],
                chunks_per_thread: vec![1, 2, 4, 8],
            }
        }
    }
}

/// Clock-touching half of the search: measures candidate plans against
/// one generated system on its own pool, caching by label so coordinate
/// descent never re-times a point it already visited.
struct Search<'a> {
    sys: &'a SparseSystem,
    pool: ExecutorPool,
    warmup: usize,
    iters: usize,
    repeats: usize,
    cache: HashMap<String, f64>,
    explored: Vec<Explored>,
    telemetry: TuneCell,
    skipped_unsound: u64,
}

impl<'a> Search<'a> {
    fn new(sys: &'a SparseSystem, pool: ExecutorPool, spec: &TuneSpec) -> Self {
        let (warmup, iters) = iterations_for(&spec.layout, spec.smoke);
        Search {
            sys,
            pool,
            warmup,
            iters,
            repeats: spec.repeats,
            cache: HashMap::new(),
            explored: Vec::new(),
            telemetry: TuneCell::default(),
            skipped_unsound: 0,
        }
    }

    /// Mean seconds of one Golub–Kahan pass — `u ← A x − α u`, then
    /// `out += Aᵀu` — over `iters` passes, exactly as a solve calls it.
    fn time_once(&self, plan: &LaunchPlan, iters: usize) -> f64 {
        let sys = self.sys;
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut u: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut out = vec![0.0; sys.n_cols()];
        // gaia-analyze: allow(timing): candidate wall clock *is* the
        // tuner's selection criterion.
        let t = Instant::now();
        for _ in 0..iters {
            plan.gk_products(&self.pool, sys, &x, 0.5, &mut u, &mut out);
        }
        let elapsed = t.elapsed().as_secs_f64();
        assert!(u.iter().chain(out.iter()).all(|v| v.is_finite()));
        elapsed / iters.max(1) as f64
    }

    /// Median-of-K seconds for a plan, or `None` when the static checker
    /// rejects it (skipped, never timed). Cached by label.
    fn median(&mut self, plan: LaunchPlan) -> Option<f64> {
        let label = label(&plan);
        if let Some(&m) = self.cache.get(&label) {
            return Some(m);
        }
        if plan.analyze_canonical().is_err() {
            self.skipped_unsound += 1;
            return None;
        }
        let _ = self.time_once(&plan, self.warmup.max(1));
        let mut samples = Vec::with_capacity(self.repeats);
        for _ in 0..self.repeats {
            let s = self.time_once(&plan, self.iters);
            self.telemetry.measure_seconds += s * self.iters as f64;
            samples.push(s);
        }
        let summary = Summary::from_samples(&samples);
        let m = summary.median_s;
        self.telemetry.configs_explored += 1;
        self.telemetry.measurements += self.repeats as u64;
        self.explored.push(Explored {
            config: label.clone(),
            summary,
        });
        self.cache.insert(label, m);
        Some(m)
    }

    /// Measure `candidate`; adopt it as the incumbent when it improves
    /// the incumbent median by more than the noise margin.
    fn consider(&mut self, candidate: LaunchPlan, best: &mut LaunchPlan, best_m: &mut f64) -> bool {
        if candidate == *best {
            return false;
        }
        match self.median(candidate) {
            Some(m) if m < *best_m * (1.0 - ADOPT_MARGIN) => {
                *best = candidate;
                *best_m = m;
                true
            }
            _ => false,
        }
    }
}

/// Tune one layout: the fastest registry plan, then coordinate descent
/// from it, returning the winning profile with `tuned_median_s` /
/// `baseline_median_s` (the `chunked` plan's) / `improvement` filled in.
/// Errors are user input (unknown layout name) or a baseline plan that
/// failed to measure — both render as one line.
pub fn tune_layout(spec: &TuneSpec) -> Result<TuneOutcome, String> {
    let Some(layout) = SystemLayout::preset(&spec.layout) else {
        return Err(format!(
            "unknown layout `{}` (tune layouts: tiny, small, medium)",
            spec.layout
        ));
    };
    if spec.threads == 0 || spec.repeats == 0 {
        return Err("threads and repeats must be positive".to_string());
    }
    let sys = Generator::new(GeneratorConfig::new(layout).seed(TUNE_SEED)).generate();
    let axes = Axes::new(spec.smoke);
    let mut search = Search::new(&sys, ExecutorPool::new(spec.threads), spec);

    let measured = fixed_plan(BASELINE, spec.threads).and_then(|p| Some((p, search.median(p)?)));
    let Some((baseline, baseline_m)) = measured else {
        return Err("the baseline plan failed the static checker (registry bug)".to_string());
    };
    let (mut best, mut best_m) = (baseline, baseline_m);
    for name in backend_names() {
        if let Some(plan) = fixed_plan(name, spec.threads) {
            search.consider(plan, &mut best, &mut best_m);
        }
    }

    for _pass in 0..MAX_PASSES {
        let mut improved = false;
        for &s in &axes.att {
            improved |= search.consider(with(best, |p| p.spec.att = s), &mut best, &mut best_m);
        }
        for &s in &axes.instr {
            improved |= search.consider(with(best, |p| p.spec.instr = s), &mut best, &mut best_m);
        }
        for &s in &axes.glob {
            improved |= search.consider(with(best, |p| p.spec.glob = s), &mut best, &mut best_m);
        }
        for &b in &axes.budget {
            improved |= search.consider(with(best, |p| p.spec.budget = b), &mut best, &mut best_m);
        }
        for &c in &axes.chunks_per_thread {
            let candidate = with(best, |p| p.tuning.chunks_per_thread = c);
            improved |= search.consider(candidate, &mut best, &mut best_m);
        }
        if !improved {
            break;
        }
    }

    let mut profile = LaunchProfile::from_plan(&spec.layout, layout, &best);
    profile.tuned_median_s = best_m;
    profile.baseline_median_s = baseline_m;
    profile.improvement = if baseline_m > 0.0 {
        (baseline_m - best_m) / baseline_m
    } else {
        0.0
    };
    profile.configs_explored = search.telemetry.configs_explored;

    Ok(TuneOutcome {
        profile,
        explored: search.explored,
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
            repeats: 2,
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
        assert_eq!(
            outcome.explored.len() as u64,
            outcome.telemetry.configs_explored
        );
    }

    #[test]
    fn unknown_layout_is_a_clean_error() {
        let err = tune_layout(&TuneSpec {
            layout: "huge".into(),
            threads: 2,
            repeats: 2,
            smoke: true,
        })
        .unwrap_err();
        assert!(err.contains("unknown layout"), "{err}");
    }

    #[test]
    fn config_labels_are_unique_across_the_smoke_axes() {
        let axes = Axes::new(true);
        let mut labels = std::collections::HashSet::new();
        let base = fixed_plan(BASELINE, 2).unwrap();
        for &g in &axes.glob {
            for &c in &axes.chunks_per_thread {
                let cfg = with(base, |p| {
                    p.spec.glob = g;
                    p.tuning.chunks_per_thread = c;
                });
                assert!(labels.insert(label(&cfg)), "{}", label(&cfg));
            }
        }
    }

    /// A timed iteration is one pass as a solve runs it: one pool launch
    /// for a uniform `Atomic` plan, two (`aprod1`, then `aprod2`) for an
    /// owner-computes one.
    #[test]
    fn a_timed_iteration_is_one_pass_in_one_launch_or_two() {
        let spec = TuneSpec {
            layout: "tiny".into(),
            threads: 2,
            repeats: 1,
            smoke: true,
        };
        let sys =
            Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(TUNE_SEED)).generate();
        let search = Search::new(&sys, ExecutorPool::new(2), &spec);
        for (name, launches) in [("atomic", 1), ("chunked", 2)] {
            let plan = fixed_plan(name, 2).unwrap();
            let before = search.pool.launch_count();
            search.time_once(&plan, 5);
            assert_eq!(search.pool.launch_count() - before, 5 * launches, "{name}");
        }
    }
}
