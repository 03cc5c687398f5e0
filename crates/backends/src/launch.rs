//! Launch layer: block-range computation, output partitioning, and
//! conflict-strategy selection for the `aprod` kernels — in one place.
//!
//! The paper's portability layers (CUDA/HIP/SYCL/OpenMP) share one kernel
//! body per block and differ only in *launch configuration*: grid geometry,
//! stream assignment, and how colliding updates are resolved (§IV–V).
//! [`LaunchPlan`] is the Rust mirror of that split. It owns, for every
//! backend, the row/star/column chunking (derived uniformly from
//! [`Tuning`], including `chunks_per_thread`) and the partitioning of the
//! output vector into the four column blocks (astrometric / attitude /
//! instrumental / global), parameterized by an [`Aprod2Strategy`] per
//! colliding block. Backends shrink to policy structs that pick a strategy
//! mix and hand jobs to the shared [`ExecutorPool`].
//!
//! Strategy ↔ paper-framework map:
//!
//! | [`Aprod2Strategy`] | Paper analogue |
//! |---|---|
//! | `OwnerComputes` | OpenMP target-teams `distribute` (column ownership) |
//! | `Atomic` | CUDA/HIP `atomicAdd` RMW |
//! | `CasLoop` | CAS-retry codegen (MI250X without `-munsafe-fp-atomics`) |
//! | `Replicated` | privatization + reduction |
//! | `LockStriped` | software mutual exclusion (lock-based fallback) |
//!
//! A GPU combines colliding FP64 `atomicAdd`s in its L2; a CPU has nothing
//! that does, and one locked instruction per non-zero made an iteration
//! 3.5× the sequential one on a single thread, where nothing contends
//! (EXPERIMENTS.md). So an `Atomic` / `CasLoop` job combines in software
//! before it publishes: it accumulates its row chunk into a job-private
//! copy of the section with the plan's ordinary full-section kernel, then
//! adds that copy into the shared section with one FP64 atomic add per
//! column it touched. Collisions are still resolved by concurrent atomic
//! adds into the shared output, in an order the schedule decides, inside
//! wave 1. That is what separates it from `Replicated`, which keeps every
//! private buffer alive across a barrier and sums them in a fixed order in
//! a second wave — the paper's `atomicAdd` versus privatise-and-reduce.
//!
//! Because those publishes land inside wave 1, a plan of atomic publishers
//! also runs a whole Golub–Kahan pass — `u ← A x − α u`, then `Aᵀu` — as
//! one launch ([`LaunchPlan::gk_products`]): each star-aligned job runs
//! both products in one loop over its own rows, so the matrix is read
//! once per iteration, and publishes its private sections as `aprod2`'s
//! jobs do. [`LaunchPlan::gk_in_one_launch`] says which plans have it,
//! and why the others keep two launches.
//!
//! How a plan splits a launch into jobs is decided once:
//! [`LaunchPlan::jobs`] lowers `aprod1`, `aprod2` (both waves) and the pass
//! to a list of [`JobSpec`]s — each job's wave, its rows, and the range and
//! [`WriteAccess`] of every section it writes. The executor builds its
//! closures from that list and nothing else, and [`crate::plan_check`]
//! folds the same list into the access model it proves, so the checker
//! covers exactly the ranges that run, the one-launch pass included.

use std::ops::Range;
use std::sync::atomic::AtomicU64;

use gaia_sparse::SparseSystem;
use gaia_telemetry::{Block, Phase};
use parking_lot::Mutex;

use crate::atomicf64::{self, as_atomic};
use crate::blas;
use crate::exec::{sched, ExecutorPool, Job};
use crate::kernels;
use crate::plan_check::{self, PlanDims, SectionId, WriteAccess};
use crate::tuning::Tuning;

/// Probe tags for [`sched::preempt_point`], one per call site inside the
/// colliding `aprod2` paths. With the `sched-test` feature off the probe
/// is an empty `#[inline(always)]` function, so production kernels keep
/// their exact shape. This one sits between the atomic adds of an attitude
/// publish.
pub const PROBE_ATT_ATOMIC: u32 = 1;
/// Between the atomic adds of an instrumental publish.
pub const PROBE_INSTR_ATOMIC: u32 = 2;
/// Lock-striped batched apply, between local accumulation and each lock.
const PROBE_STRIPED_APPLY: u32 = 3;
/// Wave-2 reduction of privatized buffers.
const PROBE_REDUCE: u32 = 4;
/// Before the global publish of a one-launch Golub–Kahan pass job.
const PROBE_GLOB_ATOMIC: u32 = 5;

/// Split `0..n` into `parts` near-equal contiguous ranges.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(cursor..cursor + len);
        cursor += len;
    }
    debug_assert_eq!(cursor, n);
    out
}

/// Split an arbitrary span into `parts` near-equal contiguous subranges.
pub fn split_span(span: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    split_ranges(span.len(), parts)
        .into_iter()
        .map(|r| span.start + r.start..span.start + r.end)
        .collect()
}

/// Worker budget per `aprod2` stream for a thread count, as
/// `(astro, att, instr)`.
///
/// The astrometric stream carries ~5/24 of the coefficients but all the
/// star traversal, so it gets half the budget; attitude a quarter; the
/// instrumental stream the remainder (the global stream runs as a single
/// job). The effective budget is `threads.max(4)` — one slot per stream
/// minimum — which is what keeps the `max(1)` floors from oversubscribing:
/// with a raw budget of 1–3 threads the three floors would sum past the
/// budget, but raising the floor to 4 makes `astro + att + instr == total`
/// hold exactly.
pub fn stream_worker_budget(threads: usize) -> (usize, usize, usize) {
    let total = threads.max(4);
    let astro = (total / 2).max(1);
    let att = (total / 4).max(1);
    let instr = (total - astro - att).max(1);
    debug_assert!(
        astro + att + instr <= total,
        "stream budget oversubscribed: {astro}+{att}+{instr} > {total} (threads = {threads})"
    );
    (astro, att, instr)
}

/// Which atomic accumulation a strategy emits — the paper's RMW vs
/// CAS-loop code-generation axis (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicFlavor {
    /// Relaxed weak-CAS loop (the fast, `atomicAdd`-like path).
    Rmw,
    /// SeqCst strong-CAS loop with spin hints (the slow fallback emitted by
    /// compilers lacking `-munsafe-fp-atomics`-style RMW support).
    CasLoop,
}

impl AtomicFlavor {
    /// The flavour an atomic-publish strategy emits; `None` for the
    /// strategies that do not publish with atomics.
    fn of(strategy: Aprod2Strategy) -> Option<AtomicFlavor> {
        match strategy {
            Aprod2Strategy::Atomic => Some(AtomicFlavor::Rmw),
            Aprod2Strategy::CasLoop => Some(AtomicFlavor::CasLoop),
            _ => None,
        }
    }
}

/// Conflict-resolution strategy for the colliding `aprod2` blocks
/// (attitude / instrumental / global) — the paper's framework column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aprod2Strategy {
    /// Each job owns a contiguous column range and rescans all rows
    /// (OpenMP-teams analogue: redundant reads, zero synchronization).
    OwnerComputes,
    /// Row-parallel jobs that combine their chunk privately and publish it
    /// into the shared section with relaxed atomic f64 RMW adds, one per
    /// touched column, unordered and within the wave (CUDA/HIP `atomicAdd`
    /// analogue).
    Atomic,
    /// As `Atomic`, publishing with SeqCst CAS-retry adds (the slow
    /// compiler fallback the paper observes on MI250X).
    CasLoop,
    /// Row-parallel jobs into per-job private buffers, then a parallel
    /// reduction (privatization).
    Replicated,
    /// Row-parallel jobs that batch updates behind striped mutexes
    /// (lock-based software fallback).
    LockStriped {
        /// Number of mutex stripes over the block section.
        stripes: usize,
    },
}

/// How the thread budget is divided across the four `aprod2` streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerBudget {
    /// Every section gets the full `Tuning::chunk_count` worth of chunks —
    /// the sections run back-to-back over the whole pool.
    Uniform,
    /// The four sections are treated as concurrent CUDA-like streams with
    /// per-stream worker shares from [`stream_worker_budget`]; all stream
    /// jobs launch together and overlap on the pool.
    Streamed,
}

/// The four `aprod2` streams (one per column block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Astrometric block (star-parallel, collision-free by structure).
    Astro,
    /// Attitude block.
    Att,
    /// Instrumental block.
    Instr,
    /// Global block (a single parameter).
    Glob,
}

/// Per-block strategy mix plus the stream budget — what distinguishes one
/// backend policy from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aprod2Spec {
    /// Strategy for the attitude block.
    pub att: Aprod2Strategy,
    /// Strategy for the instrumental block.
    pub instr: Aprod2Strategy,
    /// Strategy for the global block.
    pub glob: Aprod2Strategy,
    /// Stream budgeting.
    pub budget: WorkerBudget,
}

impl Aprod2Spec {
    /// The same strategy for every colliding block, uniform budget.
    pub fn uniform(strategy: Aprod2Strategy) -> Self {
        Aprod2Spec {
            att: strategy,
            instr: strategy,
            glob: strategy,
            budget: WorkerBudget::Uniform,
        }
    }

    /// The same strategy for every colliding block, streamed budget.
    pub fn streamed(strategy: Aprod2Strategy) -> Self {
        Aprod2Spec {
            budget: WorkerBudget::Streamed,
            ..Aprod2Spec::uniform(strategy)
        }
    }
}

/// A backend's launch configuration: tuning + strategy spec. Owns all
/// range computation and output partitioning for both products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchPlan {
    /// Thread count and chunk granularity.
    pub tuning: Tuning,
    /// Conflict strategies and stream budget for `aprod2`.
    pub spec: Aprod2Spec,
}

/// Which launch [`LaunchPlan::jobs`] lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch {
    /// [`LaunchPlan::aprod1`]: one wave of row chunks.
    Aprod1,
    /// [`LaunchPlan::aprod2`]: the astrometric star chunks and each
    /// colliding section's jobs in wave 1, the deferred reductions in
    /// wave 2.
    Aprod2,
    /// [`LaunchPlan::gk_products`]: one wave of star-chunk jobs when
    /// [`LaunchPlan::gk_in_one_launch`] holds, else `Aprod1`'s wave and
    /// then `Aprod2`'s waves, numbered on.
    Pass,
}

/// One section range a job writes, and the discipline of the writes. The
/// range is section-local: rows for [`SectionId::Aprod1`], columns
/// otherwise.
pub type SectionWrite = (SectionId, Range<usize>, WriteAccess);

/// One job of a launch: what the executor runs and the checker proves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Barrier-separated wave of the launch, from 1.
    pub wave: u8,
    /// The rows its kernel visits; empty for a reduction.
    pub rows: Range<usize>,
    /// Every section range it writes: one for a job of `aprod1` or
    /// `aprod2`; for a job of the pass, its `u` rows, its stars'
    /// astrometric columns and each non-empty shared section.
    pub writes: Vec<SectionWrite>,
}

impl JobSpec {
    fn one(wave: u8, rows: Range<usize>, write: SectionWrite) -> Self {
        let writes = vec![write];
        JobSpec { wave, rows, writes }
    }
}

/// The rows, range and access of every write to `section` in `jobs`, in
/// launch order.
fn writes_to(
    jobs: &[JobSpec],
    section: SectionId,
) -> Vec<(Range<usize>, Range<usize>, WriteAccess)> {
    let writes = jobs
        .iter()
        .flat_map(|job| job.writes.iter().map(move |w| (job, w)));
    writes
        .filter(|(_, w)| w.0 == section)
        .map(|(job, (_, range, access))| (job.rows.clone(), range.clone(), *access))
        .collect()
}

/// Full-section accumulation over a row range (exclusive access).
type FullKernel = fn(&SparseSystem, &[f64], Range<usize>, &mut [f64]);
/// Owner-computes over an owned block-local column range.
type OwnedKernel = fn(&SparseSystem, &[f64], Range<usize>, Range<usize>, &mut [f64]);

impl LaunchPlan {
    /// Build a plan from tuning and a strategy spec.
    pub fn new(tuning: Tuning, spec: Aprod2Spec) -> Self {
        LaunchPlan { tuning, spec }
    }

    /// Fold this plan's `aprod1` and `aprod2` job lists against `dims`
    /// into the symbolic access model — see [`crate::plan_check`].
    pub fn write_model(&self, dims: &PlanDims) -> Vec<plan_check::SectionModel> {
        plan_check::write_model(self, dims)
    }

    /// Statically verify this plan against one problem shape: every
    /// owned write-set pairwise disjoint and exactly covering its section,
    /// no unsynchronized colliding writes, in both products and in the
    /// one-launch pass when the plan has it, and the streamed worker budget
    /// conserved. Rejects unsound plans before launch with a diagnostic
    /// naming the offending ranges.
    pub fn analyze(&self, dims: &PlanDims) -> Result<plan_check::PlanProof, plan_check::PlanError> {
        plan_check::analyze_plan(self, dims)
    }

    /// [`analyze`](Self::analyze) against the canonical shape battery
    /// ([`PlanDims::canonical`]) — what registry construction runs on
    /// every plan-carrying backend.
    pub fn analyze_canonical(&self) -> Result<(), plan_check::PlanError> {
        for dims in PlanDims::canonical() {
            self.analyze(&dims)?;
        }
        Ok(())
    }

    /// Number of row chunks `aprod1` launches for `n_rows` rows.
    pub fn aprod1_chunks(&self, n_rows: usize) -> usize {
        self.tuning.chunk_count(n_rows)
    }

    /// Number of chunks a given `aprod2` stream launches for `work` items
    /// (rows, stars, or owned columns, depending on the strategy).
    pub fn section_chunks(&self, stream: Stream, work: usize) -> usize {
        match self.spec.budget {
            WorkerBudget::Uniform => self.tuning.chunk_count(work),
            WorkerBudget::Streamed => {
                let (astro_w, att_w, instr_w) = stream_worker_budget(self.tuning.threads);
                let workers = match stream {
                    Stream::Astro => astro_w,
                    Stream::Att => att_w,
                    Stream::Instr => instr_w,
                    Stream::Glob => return 1,
                };
                // Saturating: a pathological `chunks_per_thread` must clamp
                // to the work count, not overflow (see Tuning::effective_chunks).
                workers
                    .saturating_mul(self.tuning.chunks_per_thread)
                    .clamp(1, work.max(1))
            }
        }
    }

    /// Lower `launch` against `dims` to the jobs it runs, in launch order:
    /// the one place a plan's split of work into jobs is decided. The
    /// executor runs this list and [`crate::plan_check`] proves it. The
    /// owned ranges of a section come in ascending order, so once the
    /// checker has proven that they tile the section exactly, handing them
    /// out with `split_at_mut` is sound.
    pub fn jobs(&self, dims: &PlanDims, launch: Launch) -> Vec<JobSpec> {
        let owned = |section, range| (section, range, WriteAccess::Owned);
        match launch {
            Launch::Aprod1 => split_ranges(dims.n_rows, self.aprod1_chunks(dims.n_rows))
                .into_iter()
                .map(|rows| JobSpec::one(1, rows.clone(), owned(SectionId::Aprod1, rows)))
                .collect(),
            Launch::Aprod2 => {
                // Star chunks own matching ×5 astrometric slices.
                let stars = self.section_chunks(Stream::Astro, dims.n_stars);
                let mut wave1: Vec<JobSpec> = split_ranges(dims.n_stars, stars)
                    .into_iter()
                    .map(|s| {
                        let rows = s.start * dims.obs_per_star..s.end * dims.obs_per_star;
                        JobSpec::one(1, rows, owned(SectionId::Astro, s.start * 5..s.end * 5))
                    })
                    .collect();
                // Attitude columns see every row (observations and
                // constraints); the instrumental and global blocks only
                // observation rows.
                let mut wave2 = Vec::new();
                let obs = 0..dims.n_obs_rows();
                for (stream, rows, len, strategy) in [
                    (Stream::Att, 0..dims.n_rows, dims.n_att, self.spec.att),
                    (Stream::Instr, obs.clone(), dims.n_instr, self.spec.instr),
                    (Stream::Glob, obs, dims.n_glob, self.spec.glob),
                ] {
                    if len > 0 {
                        self.section_specs(stream, rows, len, strategy, &mut wave1, &mut wave2);
                    }
                }
                wave1.extend(wave2);
                wave1
            }
            // Star chunks that own their stars' rows of `u` (the last one
            // also the constraint rows) and astrometric columns, and
            // publish atomically into every non-empty shared section.
            Launch::Pass if self.gk_in_one_launch() => {
                let shared = [
                    (SectionId::Att, dims.n_att),
                    (SectionId::Instr, dims.n_instr),
                    (SectionId::Glob, dims.n_glob),
                ];
                let chunks = split_ranges(dims.n_stars, self.tuning.chunk_count(dims.n_stars));
                let pass_job = |s: Range<usize>| {
                    let last = s.end == dims.n_stars;
                    let end = if last {
                        dims.n_rows
                    } else {
                        s.end * dims.obs_per_star
                    };
                    let rows = s.start * dims.obs_per_star..end;
                    let mut writes = vec![
                        owned(SectionId::Aprod1, rows.clone()),
                        owned(SectionId::Astro, s.start * 5..s.end * 5),
                    ];
                    for &(section, len) in shared.iter().filter(|(_, len)| *len > 0) {
                        writes.push((section, 0..len, WriteAccess::Atomic));
                    }
                    JobSpec {
                        wave: 1,
                        rows,
                        writes,
                    }
                };
                chunks.into_iter().map(pass_job).collect()
            }
            Launch::Pass => {
                let mut jobs = self.jobs(dims, Launch::Aprod1);
                for job in self.jobs(dims, Launch::Aprod2) {
                    jobs.push(JobSpec {
                        wave: job.wave + 1,
                        ..job
                    });
                }
                jobs
            }
        }
    }

    /// Append one colliding section's wave-1 jobs under `strategy`, and
    /// the wave-2 reduction jobs it defers, if any.
    fn section_specs(
        &self,
        stream: Stream,
        rows: Range<usize>,
        len: usize,
        strategy: Aprod2Strategy,
        wave1: &mut Vec<JobSpec>,
        wave2: &mut Vec<JobSpec>,
    ) {
        let (id, reduction) = match stream {
            Stream::Att => (SectionId::Att, SectionId::AttReduction),
            Stream::Instr => (SectionId::Instr, SectionId::InstrReduction),
            Stream::Astro | Stream::Glob => (SectionId::Glob, SectionId::GlobCombine),
        };
        let glob = stream == Stream::Glob;
        // Row-parallel jobs, each writing the whole section under `access`.
        let row_chunks = |access| {
            let chunks = split_span(rows.clone(), self.section_chunks(stream, rows.len()));
            let job = move |chunk| JobSpec::one(1, chunk, (id, 0..len, access));
            chunks.into_iter().map(job)
        };
        let reduce = |owns: Vec<Range<usize>>| {
            let job = move |own| JobSpec::one(2, 0..0, (reduction, own, WriteAccess::Owned));
            owns.into_iter().map(job)
        };
        match strategy {
            // A single global slot: ownership and striping both degenerate
            // to one exclusive job.
            Aprod2Strategy::OwnerComputes | Aprod2Strategy::LockStriped { .. } if glob => {
                wave1.push(JobSpec::one(1, rows, (id, 0..len, WriteAccess::Owned)));
            }
            // Each job owns a column range and rescans every row.
            Aprod2Strategy::OwnerComputes => {
                for own in split_ranges(len, self.section_chunks(stream, len)) {
                    wave1.push(JobSpec::one(1, rows.clone(), (id, own, WriteAccess::Owned)));
                }
            }
            Aprod2Strategy::Atomic | Aprod2Strategy::CasLoop => {
                wave1.extend(row_chunks(WriteAccess::Atomic));
            }
            // A column-parallel sum of the privates, or one combine of
            // the global partials.
            Aprod2Strategy::Replicated => {
                wave1.extend(row_chunks(WriteAccess::Private));
                let n = if glob {
                    1
                } else {
                    self.tuning.chunk_count(len)
                };
                wave2.extend(reduce(split_ranges(len, n)));
            }
            // Each stripe accumulator is copied back into its own slice.
            Aprod2Strategy::LockStriped { stripes } => {
                wave1.extend(row_chunks(WriteAccess::Locked));
                wave2.extend(reduce(split_ranges(len, stripes.max(1).min(len))));
            }
        }
    }

    /// `out += A x` via row chunks on the pool (rows are disjoint, so no
    /// conflict strategy is needed). A row block of a larger system runs
    /// the same way: `x` is the parent's, `out` the block's rows.
    pub fn aprod1(&self, pool: &ExecutorPool, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), sys.n_rows(), "aprod1: out length mismatch");
        let specs = self.jobs(&PlanDims::for_system(sys), Launch::Aprod1);
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(specs.len());
        let mut rest = out;
        for JobSpec { rows, .. } in specs {
            let (mine, tail) = rest.split_at_mut(rows.len());
            rest = tail;
            jobs.push(Box::new(move || kernels::aprod1_range(sys, x, rows, mine)));
        }
        pool.run(jobs);
    }

    /// `out += Aᵀ y`: partition `out` into the four column sections, launch
    /// the astrometric star chunks plus each colliding section under its
    /// strategy in one wave, then run any deferred reductions in a second.
    /// A row block of a larger system writes the parent's `out` in place:
    /// its own stars' astrometric columns and the shared sections.
    pub fn aprod2(&self, pool: &ExecutorPool, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        let specs = self.jobs(&PlanDims::for_system(sys), Launch::Aprod2);
        let [astro, att, instr, glob] = sys.sections_mut(out);

        // Storage that wave-1 jobs borrow and wave 2 reduces from.
        let (mut att_privates, mut instr_privates) = (Vec::new(), Vec::new());
        let (mut att_stripes, mut instr_stripes) = (Vec::new(), Vec::new());
        let mut glob_partials: Vec<f64> = Vec::new();

        let mut jobs: Vec<Job<'_>> = Vec::new();

        // Astrometric stream: collision-free — each star chunk owns an
        // exactly matching slice of the astro section.
        let mut astro_rest = astro;
        for (_, cols, _) in writes_to(&specs, SectionId::Astro) {
            let (mine, tail) = astro_rest.split_at_mut(cols.len());
            astro_rest = tail;
            let stars = cols.start / 5..cols.end / 5;
            jobs.push(Box::new(move || kernels::aprod2_astro(sys, y, stars, mine)));
        }
        let att = self.section_jobs(
            SectionId::Att,
            &specs,
            (sys, y),
            att,
            (&mut att_privates, &mut att_stripes),
            &mut jobs,
        );
        let instr = self.section_jobs(
            SectionId::Instr,
            &specs,
            (sys, y),
            instr,
            (&mut instr_privates, &mut instr_stripes),
            &mut jobs,
        );
        let glob = self.glob_jobs(&specs, (sys, y), glob, &mut glob_partials, &mut jobs);
        pool.run(jobs);

        // Wave 2: sum the private buffers (replicated) or copy the stripe
        // accumulators back (lock-striped), one job per owned range.
        let mut red_jobs: Vec<Job<'_>> = Vec::new();
        for (reduction, section, privates, stripes) in [
            (SectionId::AttReduction, att, &att_privates, &att_stripes),
            (
                SectionId::InstrReduction,
                instr,
                &instr_privates,
                &instr_stripes,
            ),
        ] {
            let Some(mut rest) = section else {
                continue;
            };
            for (i, (_, own, _)) in writes_to(&specs, reduction).into_iter().enumerate() {
                let (mine, tail) = rest.split_at_mut(own.len());
                rest = tail;
                if privates.is_empty() {
                    let stripe: &Mutex<Vec<f64>> = &stripes[i];
                    red_jobs.push(Box::new(move || {
                        for (slot, &v) in mine.iter_mut().zip(stripe.lock().iter()) {
                            *slot += v;
                        }
                    }));
                } else {
                    red_jobs.push(Box::new(move || {
                        for private in privates {
                            sched::preempt_point(PROBE_REDUCE);
                            for (slot, &v) in mine.iter_mut().zip(&private[own.start..own.end]) {
                                *slot += v;
                            }
                        }
                    }));
                }
            }
        }
        // The global section's `GlobCombine` job: the partials, summed in
        // chunk order.
        if let Some(glob) = glob {
            let partials = &glob_partials;
            red_jobs.push(Box::new(move || glob[0] += partials.iter().sum::<f64>()));
        }
        pool.run(red_jobs);
    }

    /// Whether [`gk_products`](Self::gk_products) runs this plan's
    /// Golub–Kahan pass in one launch: every colliding section publishes
    /// with atomics inside wave 1 (`Atomic` or `CasLoop`, either flavour),
    /// under the uniform budget. Every other plan keeps the two launches,
    /// `aprod1` then `aprod2`:
    ///
    /// * owner-computes needs all of `u` before it can finish any column,
    ///   and a job of the pass holds only its own rows of `u`;
    /// * `Replicated` and `LockStriped` reduce in a second wave, and to
    ///   match their own two-launch results bit for bit the pass would
    ///   need its partial sums combined in one fixed block order at every
    ///   thread count, which their row split does not give;
    /// * the streamed budget sizes each section's jobs separately, which
    ///   one job per star chunk cannot honour.
    pub fn gk_in_one_launch(&self) -> bool {
        self.wave_one_flavors().is_some() && self.spec.budget == WorkerBudget::Uniform
    }

    /// The attitude, instrumental and global publish flavours, when all
    /// three sections publish with atomics inside wave 1.
    fn wave_one_flavors(&self) -> Option<[AtomicFlavor; 3]> {
        let s = self.spec;
        Some([
            AtomicFlavor::of(s.att)?,
            AtomicFlavor::of(s.instr)?,
            AtomicFlavor::of(s.glob)?,
        ])
    }

    /// One Golub–Kahan pass, `u ← A x − α u` then `out += Aᵀu`, under any
    /// plan. A plan that fails [`gk_in_one_launch`](Self::gk_in_one_launch)
    /// runs `blas::scal`, [`aprod1`](Self::aprod1) and
    /// [`aprod2`](Self::aprod2). One that passes runs the one launch of
    /// star-aligned jobs that [`jobs`](Self::jobs) lowers. Each job takes
    /// the row block of its stars (the last one with the constraint rows),
    /// its rows of `u`, its stars' astrometric columns and private
    /// copies of the three shared sections; it runs `seq`'s row loop
    /// ([`kernels::gk_pass`]) over its view, so it visits each of its rows
    /// once for both products, then publishes its copies with the plan's
    /// atomic flavours in the same wave. `sys` may be a row block itself:
    /// a view of a view is a view of the first parent.
    pub fn gk_products(
        &self,
        pool: &ExecutorPool,
        sys: &SparseSystem,
        x: &[f64],
        alfa: f64,
        u: &mut [f64],
        out: &mut [f64],
    ) {
        let one_launch = self.wave_one_flavors().filter(|_| self.gk_in_one_launch());
        let Some([att_flavor, instr_flavor, glob_flavor]) = one_launch else {
            blas::scal(u, -alfa);
            self.aprod1(pool, sys, x, u);
            self.aprod2(pool, sys, u, out);
            return;
        };
        assert_eq!(u.len(), sys.n_rows(), "gk_products: u length mismatch");
        let dims = PlanDims::for_system(sys);
        let [astro, att, instr, glob] = sys.sections_mut(out);
        let shared: [(Block, u32, &[AtomicU64], AtomicFlavor); 3] = [
            (Block::Att, PROBE_ATT_ATOMIC, as_atomic(att), att_flavor),
            (
                Block::Instr,
                PROBE_INSTR_ATOMIC,
                as_atomic(instr),
                instr_flavor,
            ),
            (Block::Glob, PROBE_GLOB_ATOMIC, as_atomic(glob), glob_flavor),
        ];
        let mut jobs: Vec<Job<'_>> = Vec::new();
        let (mut u_rest, mut astro_rest) = (u, astro);
        // A pass job's rows are its rows of `u`; its astrometric columns
        // name its stars.
        let pass = self.jobs(&dims, Launch::Pass);
        for (rows, cols, _) in writes_to(&pass, SectionId::Astro) {
            let stars = cols.start as u64 / 5..cols.end as u64 / 5;
            let with_constraints = rows.end > cols.end / 5 * dims.obs_per_star;
            let view = sys.row_block(stars, with_constraints);
            debug_assert_eq!(view.rows, rows, "a pass job runs exactly its rows of u");
            let (u_mine, u_tail) = u_rest.split_at_mut(rows.len());
            let (astro_mine, astro_tail) = astro_rest.split_at_mut(cols.len());
            (u_rest, astro_rest) = (u_tail, astro_tail);
            jobs.push(Box::new(move || {
                let mut privates = shared.map(|(_, _, section, _)| vec![0.0; section.len()]);
                let [att, instr, glob] = &mut privates;
                kernels::gk_pass(
                    &view.system,
                    x,
                    alfa,
                    u_mine,
                    [astro_mine, att, instr, glob],
                );
                // The spec's atomic writes: every non-empty shared section.
                for ((block, probe, section, flavor), local) in shared.into_iter().zip(&privates) {
                    if !section.is_empty() {
                        publish_atomic(block, probe, local, section, flavor);
                    }
                }
            }));
        }
        pool.run(jobs);
    }

    /// Queue the wave-1 jobs `specs` holds for the attitude or instrumental
    /// section, by the access they write under. Returns the section back to
    /// the caller when a wave-2 reduction is needed (private or locked
    /// writes), `None` when wave 1 writes the section directly.
    fn section_jobs<'s, 'a>(
        &self,
        id: SectionId,
        specs: &[JobSpec],
        (sys, y): (&'a SparseSystem, &'a [f64]),
        section: &'s mut [f64],
        (privates, stripes): (&'a mut Vec<Vec<f64>>, &'a mut Vec<Mutex<Vec<f64>>>),
        jobs: &mut Vec<Job<'a>>,
    ) -> Option<&'s mut [f64]>
    where
        's: 'a,
    {
        let section_len = section.len();
        let (strategy, block, probe, reduction) = match id {
            SectionId::Att => (
                self.spec.att,
                Block::Att,
                PROBE_ATT_ATOMIC,
                SectionId::AttReduction,
            ),
            _ => (
                self.spec.instr,
                Block::Instr,
                PROBE_INSTR_ATOMIC,
                SectionId::InstrReduction,
            ),
        };
        let (full, owned): (FullKernel, OwnedKernel) = match id {
            SectionId::Att => (kernels::aprod2_att, kernels::aprod2_att_owned),
            _ => (kernels::aprod2_instr, kernels::aprod2_instr_owned),
        };
        let wave1 = writes_to(specs, id);
        match wave1.first()?.2 {
            WriteAccess::Owned => {
                let mut rest: &'a mut [f64] = section;
                for (rows, own, _) in wave1 {
                    let (mine, tail) = rest.split_at_mut(own.len());
                    rest = tail;
                    jobs.push(Box::new(move || owned(sys, y, rows, own, mine)));
                }
                None
            }
            WriteAccess::Atomic => {
                let flavor = AtomicFlavor::of(strategy).unwrap_or(AtomicFlavor::Rmw);
                let view: &'a [AtomicU64] = as_atomic(section);
                for (chunk, _, _) in wave1 {
                    jobs.push(Box::new(move || {
                        // A CPU has no hardware that combines FP64 atomics,
                        // so combine the chunk in a job-private copy of the
                        // section first, then publish it — still in wave 1,
                        // racing every other job's publish.
                        let mut local = vec![0.0; section_len];
                        full(sys, y, chunk, &mut local);
                        publish_atomic(block, probe, &local, view, flavor);
                    }));
                }
                None
            }
            WriteAccess::Private => {
                *privates = vec![vec![0.0; section_len]; wave1.len()];
                let privates: &'a mut Vec<Vec<f64>> = privates;
                for (private, (chunk, _, _)) in privates.iter_mut().zip(wave1) {
                    jobs.push(Box::new(move || full(sys, y, chunk, private)));
                }
                Some(section)
            }
            WriteAccess::Locked => {
                // One stripe accumulator per wave-2 copy-back range.
                *stripes = writes_to(specs, reduction)
                    .into_iter()
                    .map(|(_, own, _)| Mutex::new(vec![0.0; own.len()]))
                    .collect();
                let stripes: &'a Vec<Mutex<Vec<f64>>> = stripes;
                for (chunk, _, _) in wave1 {
                    jobs.push(Box::new(move || {
                        // Accumulate the chunk's full-section contribution
                        // locally, then apply it stripe by stripe under the
                        // stripe locks (batched mutual exclusion).
                        let mut local = vec![0.0; section_len];
                        full(sys, y, chunk, &mut local);
                        let mut offset = 0;
                        for stripe in stripes.iter() {
                            sched::preempt_point(PROBE_STRIPED_APPLY);
                            let mut guard = stripe.lock();
                            let len = guard.len();
                            for (slot, &v) in guard.iter_mut().zip(&local[offset..offset + len]) {
                                *slot += v;
                            }
                            offset += len;
                        }
                    }));
                }
                Some(section)
            }
            WriteAccess::PlainShared => unreachable!("no plan writes a section plain-shared"),
        }
    }

    /// Queue the wave-1 jobs `specs` holds for the global section. Returns
    /// the section when wave 2 combines `partials` into it (private
    /// writes).
    fn glob_jobs<'s, 'a>(
        &self,
        specs: &[JobSpec],
        (sys, y): (&'a SparseSystem, &'a [f64]),
        glob: &'s mut [f64],
        partials: &'a mut Vec<f64>,
        jobs: &mut Vec<Job<'a>>,
    ) -> Option<&'s mut [f64]>
    where
        's: 'a,
    {
        let wave1 = writes_to(specs, SectionId::Glob);
        match wave1.first()?.2 {
            WriteAccess::Owned => {
                let mut rest: &'a mut [f64] = glob;
                for (rows, own, _) in wave1 {
                    let (mine, tail) = rest.split_at_mut(own.len());
                    rest = tail;
                    jobs.push(Box::new(move || kernels::aprod2_glob(sys, y, rows, mine)));
                }
                None
            }
            WriteAccess::Atomic => {
                let flavor = AtomicFlavor::of(self.spec.glob).unwrap_or(AtomicFlavor::Rmw);
                let view: &'a [AtomicU64] = as_atomic(glob);
                for (chunk, _, _) in wave1 {
                    jobs.push(Box::new(move || {
                        aprod2_glob_atomic(sys, y, chunk, view, flavor)
                    }));
                }
                None
            }
            WriteAccess::Private => {
                *partials = vec![0.0; wave1.len()];
                let partials: &'a mut Vec<f64> = partials;
                for (slot, (chunk, _, _)) in partials.iter_mut().zip(wave1) {
                    jobs.push(Box::new(move || {
                        let mut local = [0.0f64];
                        kernels::aprod2_glob(sys, y, chunk, &mut local);
                        *slot = local[0];
                    }));
                }
                Some(glob)
            }
            access => unreachable!("no plan writes the global section {access}"),
        }
    }
}

/// Publish a job's privately combined section into the shared one: one
/// atomic add per column the job touched, in whatever order the schedule
/// interleaves it with the other jobs' publishes. Recorded as its own scope
/// in the section's telemetry cell, with the adds actually issued.
fn publish_atomic(
    block: Block,
    probe: u32,
    local: &[f64],
    shared: &[AtomicU64],
    flavor: AtomicFlavor,
) {
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, block);
    let mut rmws = 0u64;
    for (slot, &v) in shared.iter().zip(local) {
        if v != 0.0 {
            sched::preempt_point(probe);
            atomic_add(flavor, slot, v);
            rmws += 1;
        }
    }
    t.add_bytes((local.len() as u64 + 2 * rmws) * 8);
    t.add_rmws(rmws);
}

/// Global `aprod2` over a row range: local reduction, single atomic add.
fn aprod2_glob_atomic(
    sys: &SparseSystem,
    y: &[f64],
    rows: Range<usize>,
    out: &[AtomicU64],
    flavor: AtomicFlavor,
) {
    if sys.layout().n_glob_params == 0 {
        return;
    }
    let mut t = gaia_telemetry::kernel_scope(Phase::Aprod2, Block::Glob);
    t.add_bytes(rows.len() as u64 * 16 + 16);
    t.add_rmws(1);
    let glob = sys.values_glob();
    let mut acc = 0.0;
    for row in rows {
        acc += glob[row] * y[row];
    }
    atomic_add(flavor, &out[0], acc);
}

#[inline]
fn atomic_add(flavor: AtomicFlavor, slot: &AtomicU64, v: f64) {
    match flavor {
        AtomicFlavor::Rmw => atomicf64::add_relaxed(slot, v),
        AtomicFlavor::CasLoop => atomicf64::add_seqcst_spin(slot, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blas, Backend, SeqBackend};
    use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};

    fn tuning_2x4() -> Tuning {
        Tuning {
            threads: 2,
            chunks_per_thread: 4,
        }
    }

    /// `plan`'s pass against `seq`'s `blas::scal`, `aprod1`, `aprod2`, from
    /// non-zero `u` and `out` (both accumulate): bitwise for a plan whose
    /// every section is owner-computes, else under the strategies' 1e-10
    /// tolerance. `sys` may be a row block: `x` and `out` are its
    /// parent's.
    fn assert_pass_matches_seq(plan: &LaunchPlan, pool: &ExecutorPool, sys: &SparseSystem) {
        let alfa = 0.75;
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.23).sin()).collect();
        let u0: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.53).cos()).collect();
        let out0: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.11).sin()).collect();
        let (mut u_want, mut out_want) = (u0.clone(), out0.clone());
        blas::scal(&mut u_want, -alfa);
        SeqBackend.aprod1(sys, &x, &mut u_want);
        SeqBackend.aprod2(sys, &u_want, &mut out_want);
        let (mut u, mut out) = (u0, out0);
        plan.gk_products(pool, sys, &x, alfa, &mut u, &mut out);
        let what = format!("{plan:?} on {:?} from star {}", sys.layout(), sys.star0());
        let s = plan.spec;
        let bitwise = [s.att, s.instr, s.glob] == [Aprod2Strategy::OwnerComputes; 3];
        for (g, w) in u.iter().zip(&u_want).chain(out.iter().zip(&out_want)) {
            if bitwise {
                assert_eq!(g.to_bits(), w.to_bits(), "pass {what}: {g} vs {w}");
            } else {
                assert!((g - w).abs() < 1e-10, "pass {what}: {g} vs {w}");
            }
        }
    }

    fn system_of(n_stars: u64, n_constraint_rows: u64, seed: u64) -> SparseSystem {
        let layout = SystemLayout {
            n_stars,
            n_constraint_rows,
            ..SystemLayout::tiny()
        };
        Generator::new(GeneratorConfig::new(layout).seed(seed)).generate()
    }

    /// The `chunks_per_thread` bugfix: a 2-thread, 4-chunks-per-thread
    /// tuning must produce 8 chunks in every uniform-budget section, not 2.
    #[test]
    fn uniform_budget_honors_chunks_per_thread() {
        let plan = LaunchPlan::new(
            tuning_2x4(),
            Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes),
        );
        assert_eq!(plan.aprod1_chunks(1000), 8);
        for stream in [Stream::Astro, Stream::Att, Stream::Instr, Stream::Glob] {
            assert_eq!(plan.section_chunks(stream, 1000), 8, "{stream:?}");
        }
        // Clamped by available work.
        assert_eq!(plan.section_chunks(Stream::Att, 3), 3);
        assert_eq!(plan.section_chunks(Stream::Att, 0), 1);
    }

    #[test]
    fn streamed_budget_scales_per_stream_shares() {
        let plan = LaunchPlan::new(
            tuning_2x4(),
            Aprod2Spec::streamed(Aprod2Strategy::OwnerComputes),
        );
        // threads = 2 → effective stream budget 4 → astro 2, att 1, instr 1
        // workers, each × 4 chunks per thread.
        assert_eq!(plan.section_chunks(Stream::Astro, 1000), 8);
        assert_eq!(plan.section_chunks(Stream::Att, 1000), 4);
        assert_eq!(plan.section_chunks(Stream::Instr, 1000), 4);
        assert_eq!(plan.section_chunks(Stream::Glob, 1000), 1);
    }

    /// The `max(1)` floors could oversubscribe a raw 1–3 thread budget
    /// (e.g. threads = 1 would yield 1+1+1 = 3 workers); the `max(4)`
    /// effective budget is what keeps the sum within bounds.
    #[test]
    fn worker_budget_never_oversubscribes() {
        for threads in [1usize, 2, 3] {
            let (astro, att, instr) = stream_worker_budget(threads);
            let effective = threads.max(4);
            assert!(astro >= 1 && att >= 1 && instr >= 1, "threads = {threads}");
            assert!(
                astro + att + instr <= effective,
                "threads = {threads}: {astro}+{att}+{instr} > {effective}"
            );
        }
        for threads in [4usize, 5, 8, 17, 64] {
            let (astro, att, instr) = stream_worker_budget(threads);
            assert!(
                astro + att + instr <= threads,
                "threads = {threads}: {astro}+{att}+{instr} > {threads}"
            );
        }
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for n in [0usize, 1, 7, 100] {
            for parts in [1usize, 2, 3, 8, 150] {
                let rs = split_ranges(n, parts);
                assert_eq!(rs.len(), parts);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                let mut cursor = 0;
                for r in rs {
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
            }
        }
    }

    #[test]
    fn split_span_offsets_the_partition() {
        let spans = split_span(10..22, 4);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, 10);
        assert_eq!(spans[3].end, 22);
        let total: usize = spans.iter().map(|r| r.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn split_span_of_an_empty_span_yields_empty_aligned_ranges() {
        for parts in [1usize, 4, 9] {
            let spans = split_span(5..5, parts);
            assert_eq!(spans.len(), parts);
            for r in &spans {
                assert!(r.is_empty(), "{r:?}");
                assert_eq!(r.start, 5, "empty parts stay anchored at the span");
            }
        }
        // parts = 0 is floored to 1, like split_ranges.
        assert_eq!(split_span(3..7, 0), vec![3..7]);
    }

    #[test]
    fn split_ranges_with_fewer_items_than_parts_pads_with_empties() {
        let rs = split_ranges(3, 8);
        assert_eq!(rs.len(), 8);
        let nonempty: Vec<_> = rs.iter().filter(|r| !r.is_empty()).collect();
        assert_eq!(nonempty.len(), 3, "3 items fill exactly 3 singleton parts");
        // Contiguous, disjoint, and covering 0..3 in order.
        let mut cursor = 0;
        for r in &rs {
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor, 3);
        assert_eq!(split_ranges(0, 5).len(), 5);
        assert!(split_ranges(0, 5).iter().all(|r| r.is_empty()));
    }

    /// Chunk budgets far beyond the available work (`chunks_per_thread ×
    /// threads ≫ rows`) hand most workers empty ranges; every policy must
    /// still write each output cell exactly once. Cross-checked against the
    /// serial kernels for both products.
    #[test]
    fn oversized_chunk_budgets_cover_without_overlap() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(11)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.23).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut want1 = vec![0.0; sys.n_rows()];
        kernels::aprod1_range(&sys, &x, 0..sys.n_rows(), &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        {
            let [astro, att, instr, glob] = sys.sections_mut(&mut want2);
            kernels::aprod2_astro(&sys, &y, 0..sys.layout().n_stars as usize, astro);
            kernels::aprod2_att(&sys, &y, 0..sys.n_rows(), att);
            kernels::aprod2_instr(&sys, &y, 0..sys.n_obs_rows(), instr);
            kernels::aprod2_glob(&sys, &y, 0..sys.n_obs_rows(), glob);
        }
        let strategies = [
            Aprod2Strategy::OwnerComputes,
            Aprod2Strategy::Atomic,
            Aprod2Strategy::CasLoop,
            Aprod2Strategy::Replicated,
            Aprod2Strategy::LockStriped { stripes: 500 },
        ];
        for tuning in [
            Tuning {
                threads: 4,
                chunks_per_thread: 64, // 256 chunks over 96 obs rows
            },
            Tuning {
                threads: 9,
                chunks_per_thread: 200, // 1800 chunks: more than any section
            },
        ] {
            let pool = ExecutorPool::new(tuning.threads);
            for strategy in strategies {
                for spec in [
                    Aprod2Spec::uniform(strategy),
                    Aprod2Spec::streamed(strategy),
                ] {
                    let plan = LaunchPlan::new(tuning, spec);
                    let mut got1 = vec![0.0; sys.n_rows()];
                    plan.aprod1(&pool, &sys, &x, &mut got1);
                    for (g, w) in got1.iter().zip(&want1) {
                        assert!((g - w).abs() < 1e-10, "aprod1 {tuning:?} {spec:?}");
                    }
                    let mut got2 = vec![0.0; sys.n_cols()];
                    plan.aprod2(&pool, &sys, &y, &mut got2);
                    for (g, w) in got2.iter().zip(&want2) {
                        assert!(
                            (g - w).abs() < 1e-10,
                            "aprod2 {tuning:?} {strategy:?} {spec:?}: {g} vs {w}"
                        );
                    }
                    assert_pass_matches_seq(&plan, &pool, &sys);
                }
            }
        }
    }

    /// Section chunk counts clamp to the available work in both budget
    /// modes — no strategy may receive more chunks than items.
    #[test]
    fn section_chunks_clamp_to_available_work() {
        for spec in [
            Aprod2Spec::uniform(Aprod2Strategy::Atomic),
            Aprod2Spec::streamed(Aprod2Strategy::Atomic),
        ] {
            let plan = LaunchPlan::new(
                Tuning {
                    threads: 8,
                    chunks_per_thread: 16,
                },
                spec,
            );
            for stream in [Stream::Astro, Stream::Att, Stream::Instr] {
                for work in [0usize, 1, 2, 7] {
                    let chunks = plan.section_chunks(stream, work);
                    assert!(chunks >= 1, "{stream:?} work={work}");
                    assert!(
                        chunks <= work.max(1),
                        "{stream:?} work={work} got {chunks} chunks"
                    );
                }
            }
        }
    }

    /// Every strategy must produce the same aprod2 result on the same plan
    /// chassis — the single-source property the layer exists for.
    #[test]
    fn every_strategy_matches_the_serial_kernels() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(7)).generate();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut want = vec![0.0; sys.n_cols()];
        {
            let [astro, att, instr, glob] = sys.sections_mut(&mut want);
            kernels::aprod2_astro(&sys, &y, 0..sys.layout().n_stars as usize, astro);
            kernels::aprod2_att(&sys, &y, 0..sys.n_rows(), att);
            kernels::aprod2_instr(&sys, &y, 0..sys.n_obs_rows(), instr);
            kernels::aprod2_glob(&sys, &y, 0..sys.n_obs_rows(), glob);
        }
        let pool = ExecutorPool::new(3);
        let strategies = [
            Aprod2Strategy::OwnerComputes,
            Aprod2Strategy::Atomic,
            Aprod2Strategy::CasLoop,
            Aprod2Strategy::Replicated,
            Aprod2Strategy::LockStriped { stripes: 5 },
        ];
        for strategy in strategies {
            for spec in [
                Aprod2Spec::uniform(strategy),
                Aprod2Spec::streamed(strategy),
            ] {
                let plan = LaunchPlan::new(tuning_2x4(), spec);
                let mut got = vec![0.0; sys.n_cols()];
                plan.aprod2(&pool, &sys, &y, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-10, "{strategy:?} {spec:?}: {g} vs {w}");
                }
            }
        }
        // The one-launch pass of the two wave-1 publishers, at thread
        // counts the star counts do and do not divide, on systems with and
        // without constraint rows, and on views whose first star is not
        // the parent's, including a view of a view.
        let parent = system_of(13, 3, 17);
        let inner = parent.row_block(2..11, false).system;
        let views = [
            parent.row_block(4..13, true).system,
            parent.row_block(1..5, false).system,
            inner.row_block(3..9, false).system,
            inner,
        ];
        let systems = [sys.clone(), system_of(7, 0, 9), system_of(13, 3, 17)];
        for threads in [1usize, 2, 3, 8] {
            let pool = ExecutorPool::new(threads);
            for strategy in [Aprod2Strategy::Atomic, Aprod2Strategy::CasLoop] {
                let plan =
                    LaunchPlan::new(Tuning::with_threads(threads), Aprod2Spec::uniform(strategy));
                for sys in systems.iter().chain(&views) {
                    assert_pass_matches_seq(&plan, &pool, sys);
                }
            }
        }
    }

    /// The pass is one launch of one job per star chunk on the pool, where
    /// the two products are two launches of `chunk_count(n_rows)` and then
    /// four sections' worth of jobs.
    #[test]
    fn the_pass_is_one_launch_of_one_job_per_star_chunk() {
        let sys = system_of(13, 3, 5);
        let x = vec![0.5; sys.n_cols()];
        for (threads, chunks_per_thread) in [(1usize, 1usize), (2, 1), (3, 2), (8, 4)] {
            let pool = ExecutorPool::new(threads);
            let tuning = Tuning {
                threads,
                chunks_per_thread,
            };
            let plan = LaunchPlan::new(tuning, Aprod2Spec::uniform(Aprod2Strategy::Atomic));
            let (launches, jobs) = (pool.launch_count(), pool.jobs_run_count());
            let mut u = vec![1.0; sys.n_rows()];
            let mut out = vec![0.0; sys.n_cols()];
            plan.gk_products(&pool, &sys, &x, 0.5, &mut u, &mut out);
            assert_eq!(pool.launch_count() - launches, 1, "{tuning:?}");
            let want = (threads * chunks_per_thread).min(13) as u64;
            assert_eq!(pool.jobs_run_count() - jobs, want, "{tuning:?}");
        }
    }

    /// A plan without the one-launch pass runs it as `scal`, `aprod1` and
    /// `aprod2`: the two products' launches, and their results, on views
    /// too. Owner-computes (uniform or streamed) is `seq` bit for bit.
    #[test]
    fn a_two_launch_pass_is_scal_then_the_two_products() {
        let parent = system_of(13, 3, 17);
        let systems = [
            parent.clone(),
            system_of(7, 0, 9),
            parent.row_block(4..13, true).system,
        ];
        let pool = ExecutorPool::new(3);
        for spec in [
            Aprod2Spec::uniform(Aprod2Strategy::OwnerComputes),
            Aprod2Spec::uniform(Aprod2Strategy::Replicated),
            Aprod2Spec::uniform(Aprod2Strategy::LockStriped { stripes: 5 }),
            Aprod2Spec::streamed(Aprod2Strategy::OwnerComputes),
            Aprod2Spec::streamed(Aprod2Strategy::Atomic),
        ] {
            let plan = LaunchPlan::new(tuning_2x4(), spec);
            assert!(!plan.gk_in_one_launch(), "{spec:?}");
            for sys in &systems {
                assert_pass_matches_seq(&plan, &pool, sys);
            }
            use Aprod2Strategy::{LockStriped, Replicated};
            let reduces = [spec.att, spec.instr]
                .iter()
                .any(|s| matches!(s, Replicated | LockStriped { .. }));
            let launches = pool.launch_count();
            let x = vec![0.5; parent.n_cols()];
            let (mut u, mut out) = (vec![1.0; parent.n_rows()], vec![0.0; parent.n_cols()]);
            plan.gk_products(&pool, &parent, &x, 0.5, &mut u, &mut out);
            // `aprod1`, then `aprod2`'s wave 1 and, when a section
            // privatises or stripes, its reduction wave.
            let want = 2 + u64::from(reduces);
            assert_eq!(pool.launch_count() - launches, want, "{spec:?}");
        }
    }

    /// Only plans whose colliding sections all publish inside wave 1 have
    /// the pass, whatever the flavour mix.
    #[test]
    fn the_pass_needs_wave_one_publishes_uniform_budget_and_row_major() {
        use Aprod2Strategy::*;
        let all = [
            OwnerComputes,
            Atomic,
            CasLoop,
            Replicated,
            LockStriped { stripes: 4 },
        ];
        for att in all {
            for instr in all {
                for glob in all {
                    let spec = Aprod2Spec {
                        att,
                        instr,
                        glob,
                        budget: WorkerBudget::Uniform,
                    };
                    let plan = LaunchPlan::new(tuning_2x4(), spec);
                    let publishes = [att, instr, glob]
                        .iter()
                        .all(|s| matches!(s, Atomic | CasLoop));
                    assert_eq!(plan.gk_in_one_launch(), publishes, "{spec:?}");
                    let streamed = LaunchPlan::new(
                        tuning_2x4(),
                        Aprod2Spec {
                            budget: WorkerBudget::Streamed,
                            ..spec
                        },
                    );
                    assert!(!streamed.gk_in_one_launch(), "{spec:?}");
                }
            }
        }
    }
}
