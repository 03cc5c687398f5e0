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

use std::ops::Range;
use std::sync::atomic::AtomicU64;

use gaia_sparse::SparseSystem;
use gaia_telemetry::{Block, Phase};
use parking_lot::Mutex;

use crate::atomicf64::{self, as_atomic};
use crate::blas;
use crate::exec::{sched, ExecutorPool, Job};
use crate::kernels;
use crate::plan_check;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPlan {
    /// Thread count and chunk granularity.
    pub tuning: Tuning,
    /// Conflict strategies and stream budget for `aprod2`.
    pub spec: Aprod2Spec,
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

    /// Lower this plan against `dims` to the symbolic access model
    /// [`aprod2`](Self::aprod2) / [`aprod1`](Self::aprod1) would execute —
    /// see [`crate::plan_check`].
    pub fn write_model(&self, dims: &plan_check::PlanDims) -> Vec<plan_check::SectionModel> {
        plan_check::write_model(self, dims)
    }

    /// Statically verify this plan against one problem shape: every
    /// owner-computes/replicated write-set pairwise disjoint and exactly
    /// covering its section, no unsynchronized colliding writes, and the
    /// streamed worker budget conserved. Rejects unsound plans before
    /// launch with a diagnostic naming the offending ranges.
    pub fn analyze(
        &self,
        dims: &plan_check::PlanDims,
    ) -> Result<plan_check::PlanProof, plan_check::PlanError> {
        plan_check::analyze_plan(self, dims)
    }

    /// [`analyze`](Self::analyze) against the canonical shape battery
    /// ([`plan_check::PlanDims::canonical`]) — what registry construction
    /// runs on every plan-carrying backend.
    pub fn analyze_canonical(&self) -> Result<(), plan_check::PlanError> {
        for dims in plan_check::PlanDims::canonical() {
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

    /// `out += A x` via row chunks on the pool (rows are disjoint, so no
    /// conflict strategy is needed). A row block of a larger system runs
    /// the same way: `x` is the parent's, `out` the block's rows.
    pub fn aprod1(&self, pool: &ExecutorPool, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), sys.n_rows(), "aprod1: out length mismatch");
        let n_rows = sys.n_rows();
        let ranges = split_ranges(n_rows, self.aprod1_chunks(n_rows));
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for range in ranges {
            let (mine, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push(Box::new(move || kernels::aprod1_range(sys, x, range, mine)));
        }
        pool.run(jobs);
    }

    /// `out += Aᵀ y`: partition `out` into the four column sections, launch
    /// the astrometric star chunks plus each colliding section under its
    /// strategy in one wave, then run any deferred reductions in a second.
    /// A row block of a larger system writes the parent's `out` in place:
    /// its own stars' astrometric columns and the shared sections.
    pub fn aprod2(&self, pool: &ExecutorPool, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        let [astro, att, instr, glob] = sys.sections_mut(out);
        // Attitude columns see every row (observations and constraints);
        // the instrumental and global blocks only observation rows.
        let att_rows = 0..sys.n_rows();
        let obs_rows = 0..sys.n_obs_rows();
        let n_stars = sys.layout().n_stars as usize;

        // Storage that wave-1 jobs borrow and wave 2 reduces from.
        let mut att_privates: Vec<Vec<f64>> = Vec::new();
        let mut instr_privates: Vec<Vec<f64>> = Vec::new();
        let mut att_stripes: Vec<Mutex<Vec<f64>>> = Vec::new();
        let mut instr_stripes: Vec<Mutex<Vec<f64>>> = Vec::new();
        let mut glob_partials: Vec<f64> = Vec::new();

        let mut jobs: Vec<Job<'_>> = Vec::new();

        // Astrometric stream: star-aligned split, collision-free — each
        // star chunk owns an exactly matching slice of the astro section.
        let mut astro_rest = astro;
        for chunk in split_ranges(n_stars, self.section_chunks(Stream::Astro, n_stars)) {
            let (mine, tail) = astro_rest.split_at_mut(chunk.len() * 5);
            astro_rest = tail;
            jobs.push(Box::new(move || kernels::aprod2_astro(sys, y, chunk, mine)));
        }

        let att_deferred = self.section_jobs(
            Stream::Att,
            sys,
            y,
            att_rows,
            att,
            self.spec.att,
            &mut att_privates,
            &mut att_stripes,
            &mut jobs,
        );
        let instr_deferred = self.section_jobs(
            Stream::Instr,
            sys,
            y,
            obs_rows.clone(),
            instr,
            self.spec.instr,
            &mut instr_privates,
            &mut instr_stripes,
            &mut jobs,
        );
        let glob_deferred = self.glob_jobs(sys, y, obs_rows, glob, &mut glob_partials, &mut jobs);

        pool.run(jobs);

        // Wave 2: reductions for privatized / striped sections.
        let mut red_jobs: Vec<Job<'_>> = Vec::new();
        self.reduction_jobs(att_deferred, &att_privates, &att_stripes, &mut red_jobs);
        self.reduction_jobs(
            instr_deferred,
            &instr_privates,
            &instr_stripes,
            &mut red_jobs,
        );
        pool.run(red_jobs);

        if let Some(glob_out) = glob_deferred {
            glob_out[0] += glob_partials.iter().sum::<f64>();
        }
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
    /// [`aprod2`](Self::aprod2). One that passes runs one launch of
    /// `tuning.chunk_count(n_stars)` star-aligned jobs. Each job takes the
    /// row block of its stars (the last one with the constraint rows), its
    /// rows of `u`, its stars' astrometric columns and private
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
        let n_stars = sys.layout().n_stars as usize;
        let mut jobs: Vec<Job<'_>> = Vec::new();
        let (mut u_rest, mut astro_rest) = (u, astro);
        for stars in split_ranges(n_stars, self.tuning.chunk_count(n_stars)) {
            let view = sys.row_block(stars.start as u64..stars.end as u64, stars.end == n_stars);
            let (u_mine, u_tail) = u_rest.split_at_mut(view.rows.len());
            let (astro_mine, astro_tail) = astro_rest.split_at_mut(stars.len() * 5);
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
                for ((block, probe, section, flavor), local) in shared.into_iter().zip(&privates) {
                    if !section.is_empty() {
                        publish_atomic(block, probe, local, section, flavor);
                    }
                }
            }));
        }
        pool.run(jobs);
    }

    /// Queue the wave-1 jobs for one colliding section under `strategy`.
    /// Returns the section back to the caller when a wave-2 reduction is
    /// needed (replicated / lock-striped), `None` when wave 1 writes the
    /// section directly.
    #[allow(clippy::too_many_arguments)]
    fn section_jobs<'s, 'a>(
        &self,
        stream: Stream,
        sys: &'a SparseSystem,
        y: &'a [f64],
        rows: Range<usize>,
        section: &'s mut [f64],
        strategy: Aprod2Strategy,
        privates: &'a mut Vec<Vec<f64>>,
        stripes: &'a mut Vec<Mutex<Vec<f64>>>,
        jobs: &mut Vec<Job<'a>>,
    ) -> Option<&'s mut [f64]>
    where
        's: 'a,
    {
        if section.is_empty() {
            return None;
        }
        let section_len = section.len();
        let (block, probe, full, owned): (_, _, FullKernel, OwnedKernel) = match stream {
            Stream::Att => (
                Block::Att,
                PROBE_ATT_ATOMIC,
                kernels::aprod2_att,
                kernels::aprod2_att_owned,
            ),
            _ => (
                Block::Instr,
                PROBE_INSTR_ATOMIC,
                kernels::aprod2_instr,
                kernels::aprod2_instr_owned,
            ),
        };
        match strategy {
            Aprod2Strategy::OwnerComputes => {
                let chunks = self.section_chunks(stream, section_len);
                let mut rest: &'a mut [f64] = section;
                for own in split_ranges(section_len, chunks) {
                    let (mine, tail) = rest.split_at_mut(own.len());
                    rest = tail;
                    let rows = rows.clone();
                    jobs.push(Box::new(move || owned(sys, y, rows, own, mine)));
                }
                None
            }
            Aprod2Strategy::Atomic | Aprod2Strategy::CasLoop => {
                let flavor = if strategy == Aprod2Strategy::Atomic {
                    AtomicFlavor::Rmw
                } else {
                    AtomicFlavor::CasLoop
                };
                let view: &'a [AtomicU64] = as_atomic(section);
                let chunks = self.section_chunks(stream, rows.len());
                for chunk in split_span(rows, chunks) {
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
            Aprod2Strategy::Replicated => {
                let chunks = self.section_chunks(stream, rows.len());
                let spans = split_span(rows, chunks);
                *privates = vec![vec![0.0; section_len]; spans.len()];
                let privates: &'a mut Vec<Vec<f64>> = privates;
                for (private, chunk) in privates.iter_mut().zip(spans) {
                    jobs.push(Box::new(move || full(sys, y, chunk, private)));
                }
                Some(section)
            }
            Aprod2Strategy::LockStriped { stripes: n } => {
                let n_stripes = n.max(1).min(section_len);
                *stripes = split_ranges(section_len, n_stripes)
                    .into_iter()
                    .map(|r| Mutex::new(vec![0.0; r.len()]))
                    .collect();
                let stripes: &'a Vec<Mutex<Vec<f64>>> = stripes;
                let chunks = self.section_chunks(stream, rows.len());
                for chunk in split_span(rows, chunks) {
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
        }
    }

    /// Queue the wave-1 jobs for the global block. Returns the section when
    /// a caller-side combine of `partials` is needed (replicated).
    fn glob_jobs<'s, 'a>(
        &self,
        sys: &'a SparseSystem,
        y: &'a [f64],
        obs: Range<usize>,
        glob: &'s mut [f64],
        partials: &'a mut Vec<f64>,
        jobs: &mut Vec<Job<'a>>,
    ) -> Option<&'s mut [f64]>
    where
        's: 'a,
    {
        if glob.is_empty() || sys.layout().n_glob_params == 0 {
            return None;
        }
        match self.spec.glob {
            // A single global slot: ownership and striping both degenerate
            // to one exclusive reduction job.
            Aprod2Strategy::OwnerComputes | Aprod2Strategy::LockStriped { .. } => {
                let glob: &'a mut [f64] = glob;
                jobs.push(Box::new(move || kernels::aprod2_glob(sys, y, obs, glob)));
                None
            }
            Aprod2Strategy::Atomic | Aprod2Strategy::CasLoop => {
                let flavor = if self.spec.glob == Aprod2Strategy::Atomic {
                    AtomicFlavor::Rmw
                } else {
                    AtomicFlavor::CasLoop
                };
                let glob: &'a mut [f64] = glob;
                let view: &'a [AtomicU64] = as_atomic(glob);
                let chunks = self.section_chunks(Stream::Glob, obs.len());
                for chunk in split_span(obs, chunks) {
                    jobs.push(Box::new(move || {
                        aprod2_glob_atomic(sys, y, chunk, view, flavor)
                    }));
                }
                None
            }
            Aprod2Strategy::Replicated => {
                let chunks = self.section_chunks(Stream::Glob, obs.len());
                let spans = split_span(obs, chunks);
                *partials = vec![0.0; spans.len()];
                let partials: &'a mut Vec<f64> = partials;
                for (slot, chunk) in partials.iter_mut().zip(spans) {
                    jobs.push(Box::new(move || {
                        let mut local = [0.0f64];
                        kernels::aprod2_glob(sys, y, chunk, &mut local);
                        *slot = local[0];
                    }));
                }
                Some(glob)
            }
        }
    }

    /// Queue the wave-2 reduction jobs for a deferred section: sum the
    /// private buffers (replicated) or copy the stripe accumulators back
    /// (lock-striped) into the real output, column-parallel.
    fn reduction_jobs<'a>(
        &self,
        section: Option<&'a mut [f64]>,
        privates: &'a [Vec<f64>],
        stripes: &'a [Mutex<Vec<f64>>],
        jobs: &mut Vec<Job<'a>>,
    ) {
        let Some(section) = section else { return };
        if !privates.is_empty() {
            let len = section.len();
            let mut rest = section;
            for own in split_ranges(len, self.tuning.chunk_count(len)) {
                let (mine, tail) = rest.split_at_mut(own.len());
                rest = tail;
                jobs.push(Box::new(move || {
                    for private in privates {
                        sched::preempt_point(PROBE_REDUCE);
                        for (slot, &v) in mine.iter_mut().zip(&private[own.start..own.end]) {
                            *slot += v;
                        }
                    }
                }));
            }
        } else {
            // Stripe buffers are disjoint by construction: one job each.
            let mut rest = section;
            for stripe in stripes {
                let len = stripe.lock().len();
                let (mine, tail) = rest.split_at_mut(len);
                rest = tail;
                jobs.push(Box::new(move || {
                    let buf = stripe.lock();
                    for (slot, &v) in mine.iter_mut().zip(buf.iter()) {
                        *slot += v;
                    }
                }));
            }
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
