//! The launch-configuration auto-tuner — the paper's §V-B kernel-tuning
//! study as a seeded search.
//!
//! The paper reports "up to 40 % reduction in iteration time" from tuning
//! the CUDA launch configuration per kernel and platform. The CPU mirror
//! of that search space is the [`LaunchPlan`] axis set: the per-block
//! conflict strategy (`att`/`instr`/`glob`), the worker budget
//! (uniform/streamed), the value layout (row-major/ELL), and the chunk
//! granularity. [`tune_layout`] runs deterministic coordinate
//! descent over those axes — measure every candidate value of one axis
//! with the others held at the incumbent, adopt the best, move to the
//! next axis, repeat until a full pass improves nothing — and returns the
//! winner as a persistable [`LaunchProfile`].
//!
//! Every candidate plan is proven sound by the static checker
//! ([`LaunchPlan::analyze_canonical`]) *before* it is timed; an unsound
//! combination is skipped, never measured, never pinned. Each candidate
//! is timed as the median of K repeats on one system generated from a
//! fixed seed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gaia_backends::{
    Aprod2Spec, Aprod2Strategy, ExecutorPool, LaunchPlan, LaunchProfile, Tuning, WorkerBudget,
};
use gaia_sparse::{Generator, GeneratorConfig, MatrixLayout, SparseSystem, SystemLayout};
use gaia_telemetry::TuneCell;

use crate::stats::Summary;

/// Fixed generator seed: every run tunes against the same system.
pub const TUNE_SEED: u64 = 7;

/// Fractional improvement a candidate must show over the incumbent to be
/// adopted; keeps run-to-run noise from flapping the winner.
const ADOPT_MARGIN: f64 = 0.005;

/// Maximum coordinate-descent passes over the axis set.
const MAX_PASSES: usize = 3;

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

/// Warmup and per-repeat iteration counts for a layout. Smoke mode trims
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
    /// Median-of-K summary of mean per-iteration seconds.
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

/// One point of the search space, independent of the thread budget.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Config {
    att: Aprod2Strategy,
    instr: Aprod2Strategy,
    glob: Aprod2Strategy,
    budget: WorkerBudget,
    matrix_layout: MatrixLayout,
    chunks_per_thread: usize,
}

impl Config {
    fn default_plan() -> Config {
        Config {
            att: Aprod2Strategy::OwnerComputes,
            instr: Aprod2Strategy::OwnerComputes,
            glob: Aprod2Strategy::OwnerComputes,
            budget: WorkerBudget::Uniform,
            matrix_layout: MatrixLayout::RowMajor,
            chunks_per_thread: 1,
        }
    }

    fn to_plan(self, threads: usize) -> LaunchPlan {
        LaunchPlan::new(
            Tuning {
                threads,
                chunks_per_thread: self.chunks_per_thread,
            },
            Aprod2Spec {
                att: self.att,
                instr: self.instr,
                glob: self.glob,
                budget: self.budget,
            },
        )
        .with_matrix_layout(self.matrix_layout)
    }

    fn label(&self) -> String {
        format!(
            "att={} instr={} glob={} budget={} layout={} c={}",
            gaia_backends::profile::strategy_name(self.att),
            gaia_backends::profile::strategy_name(self.instr),
            gaia_backends::profile::strategy_name(self.glob),
            gaia_backends::profile::budget_name(self.budget),
            self.matrix_layout.as_str(),
            self.chunks_per_thread,
        )
    }
}

/// The candidate values per axis. Smoke mode trims the strategy axes to
/// the cheap representatives but keeps the full layout axis.
struct Axes {
    att: Vec<Aprod2Strategy>,
    instr: Vec<Aprod2Strategy>,
    glob: Vec<Aprod2Strategy>,
    budget: Vec<WorkerBudget>,
    matrix_layout: Vec<MatrixLayout>,
    chunks_per_thread: Vec<usize>,
}

impl Axes {
    fn new(smoke: bool) -> Axes {
        if smoke {
            Axes {
                att: vec![Aprod2Strategy::OwnerComputes, Aprod2Strategy::Atomic],
                instr: vec![Aprod2Strategy::OwnerComputes],
                glob: vec![Aprod2Strategy::OwnerComputes],
                budget: vec![WorkerBudget::Uniform],
                matrix_layout: MatrixLayout::ALL.to_vec(),
                chunks_per_thread: vec![1, 2],
            }
        } else {
            let all = vec![
                Aprod2Strategy::OwnerComputes,
                Aprod2Strategy::Atomic,
                Aprod2Strategy::CasLoop,
                Aprod2Strategy::Replicated,
                Aprod2Strategy::LockStriped { stripes: 16 },
            ];
            Axes {
                att: all.clone(),
                instr: all,
                glob: vec![
                    Aprod2Strategy::OwnerComputes,
                    Aprod2Strategy::Atomic,
                    Aprod2Strategy::Replicated,
                ],
                budget: vec![WorkerBudget::Uniform, WorkerBudget::Streamed],
                matrix_layout: MatrixLayout::ALL.to_vec(),
                chunks_per_thread: vec![1, 2, 4, 8],
            }
        }
    }
}

/// Clock-touching half of the search: measures candidate plans against
/// one generated system, caching by configuration label so coordinate
/// descent never re-times a point it already visited.
struct Search<'a> {
    sys: &'a SparseSystem,
    pool: Arc<ExecutorPool>,
    threads: usize,
    warmup: usize,
    iters: usize,
    repeats: usize,
    cache: HashMap<String, f64>,
    explored: Vec<Explored>,
    telemetry: TuneCell,
    skipped_unsound: u64,
}

impl Search<'_> {
    /// Mean seconds of one combined `aprod1`+`aprod2` iteration over
    /// `iters` iterations.
    fn time_once(&self, plan: &LaunchPlan, iters: usize) -> f64 {
        let sys = self.sys;
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut out1 = vec![0.0; sys.n_rows()];
        let mut out2 = vec![0.0; sys.n_cols()];
        // gaia-analyze: allow(timing): candidate wall clock *is* the
        // tuner's selection criterion.
        let t = Instant::now();
        for _ in 0..iters {
            plan.aprod1(&self.pool, sys, &x, &mut out1);
            plan.aprod2(&self.pool, sys, &y, &mut out2);
        }
        let elapsed = t.elapsed().as_secs_f64();
        assert!(out1.iter().chain(out2.iter()).all(|v| v.is_finite()));
        elapsed / iters.max(1) as f64
    }

    /// Median-of-K seconds for a configuration, or `None` when the static
    /// checker rejects the plan (skipped, never timed). Cached by label.
    fn median(&mut self, cfg: Config) -> Option<f64> {
        let label = cfg.label();
        if let Some(&m) = self.cache.get(&label) {
            return Some(m);
        }
        let plan = cfg.to_plan(self.threads);
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
    fn consider(&mut self, candidate: Config, best: &mut Config, best_m: &mut f64) -> bool {
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

/// Tune one layout: coordinate descent from the default plan, returning
/// the winning profile with `tuned_median_s` / `baseline_median_s` /
/// `improvement` filled in. Errors are user input (unknown layout name)
/// or a default plan that failed to measure — both render as one line.
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
    let (warmup, iters) = iterations_for(&spec.layout, spec.smoke);
    let axes = Axes::new(spec.smoke);
    let mut search = Search {
        sys: &sys,
        pool: ExecutorPool::shared(spec.threads),
        threads: spec.threads,
        warmup,
        iters,
        repeats: spec.repeats,
        cache: HashMap::new(),
        explored: Vec::new(),
        telemetry: TuneCell::default(),
        skipped_unsound: 0,
    };

    let mut best = Config::default_plan();
    let Some(baseline_m) = search.median(best) else {
        return Err("the default plan failed the static checker (registry bug)".to_string());
    };
    let mut best_m = baseline_m;

    for _pass in 0..MAX_PASSES {
        let mut improved = false;
        for &ml in &axes.matrix_layout {
            improved |= search.consider(
                Config {
                    matrix_layout: ml,
                    ..best
                },
                &mut best,
                &mut best_m,
            );
        }
        for &s in &axes.att {
            improved |= search.consider(Config { att: s, ..best }, &mut best, &mut best_m);
        }
        for &s in &axes.instr {
            improved |= search.consider(Config { instr: s, ..best }, &mut best, &mut best_m);
        }
        for &s in &axes.glob {
            improved |= search.consider(Config { glob: s, ..best }, &mut best, &mut best_m);
        }
        for &b in &axes.budget {
            improved |= search.consider(Config { budget: b, ..best }, &mut best, &mut best_m);
        }
        for &c in &axes.chunks_per_thread {
            improved |= search.consider(
                Config {
                    chunks_per_thread: c,
                    ..best
                },
                &mut best,
                &mut best_m,
            );
        }
        if !improved {
            break;
        }
    }

    let mut profile = LaunchProfile::from_plan(&spec.layout, layout, &best.to_plan(spec.threads));
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
        let base = Config::default_plan();
        for &ml in &axes.matrix_layout {
            for &c in &axes.chunks_per_thread {
                let cfg = Config {
                    matrix_layout: ml,
                    chunks_per_thread: c,
                    ..base
                };
                assert!(labels.insert(cfg.label()), "{}", cfg.label());
            }
        }
    }
}
