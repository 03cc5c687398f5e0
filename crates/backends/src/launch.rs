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

use std::ops::Range;
use std::sync::atomic::AtomicU64;

use gaia_sparse::{MatrixLayout, SparseSystem};
use gaia_telemetry::{Block, Phase};
use parking_lot::Mutex;

use crate::atomicf64::{self, as_atomic};
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

/// A backend's launch configuration: tuning + strategy spec + the value
/// layout the kernels read. Owns all range computation and output
/// partitioning for both products.
///
/// The layout alone picks the kernels: `Ell` selects the slot-major readers
/// for `aprod1`, the astrometric `aprod2`, and the full / owner-computes
/// section kernels every strategy dispatches to; `RowMajor` the scalar
/// reference kernels. Only the single-column global kernels read row-major
/// under either layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPlan {
    /// Thread count and chunk granularity.
    pub tuning: Tuning,
    /// Conflict strategies and stream budget for `aprod2`.
    pub spec: Aprod2Spec,
    /// Value layout the kernels read (row-major / ELL).
    pub matrix_layout: MatrixLayout,
}

/// Full-section accumulation over a row range (exclusive access).
type FullKernel = fn(&SparseSystem, &[f64], Range<usize>, &mut [f64]);
/// Owner-computes over an owned block-local column range.
type OwnedKernel = fn(&SparseSystem, &[f64], Range<usize>, Range<usize>, &mut [f64]);

/// The two per-section kernel forms a strategy can dispatch to.
#[derive(Clone, Copy)]
struct SectionKernels {
    full: FullKernel,
    owned: OwnedKernel,
}

/// Attitude section kernels for a layout — the dispatch seam every
/// `aprod2` strategy routes through.
fn att_kernels(layout: MatrixLayout) -> SectionKernels {
    match layout {
        MatrixLayout::Ell => SectionKernels {
            full: kernels::aprod2_att_ell,
            owned: kernels::aprod2_att_owned_ell,
        },
        MatrixLayout::RowMajor => SectionKernels {
            full: kernels::aprod2_att,
            owned: kernels::aprod2_att_owned,
        },
    }
}

/// Instrumental section kernels for a layout.
fn instr_kernels(layout: MatrixLayout) -> SectionKernels {
    match layout {
        MatrixLayout::Ell => SectionKernels {
            full: kernels::aprod2_instr_ell,
            owned: kernels::aprod2_instr_owned_ell,
        },
        MatrixLayout::RowMajor => SectionKernels {
            full: kernels::aprod2_instr,
            owned: kernels::aprod2_instr_owned,
        },
    }
}

/// Astrometric `aprod2` kernel for a layout.
fn astro_kernel(layout: MatrixLayout) -> FullKernel {
    match layout {
        MatrixLayout::Ell => kernels::aprod2_astro_ell,
        MatrixLayout::RowMajor => kernels::aprod2_astro,
    }
}

/// `aprod1` range kernel for a layout.
fn aprod1_kernel(layout: MatrixLayout) -> FullKernel {
    match layout {
        MatrixLayout::Ell => kernels::aprod1_range_ell,
        MatrixLayout::RowMajor => kernels::aprod1_range,
    }
}

impl LaunchPlan {
    /// Build a plan from tuning and a strategy spec over the default
    /// row-major layout.
    pub fn new(tuning: Tuning, spec: Aprod2Spec) -> Self {
        LaunchPlan {
            tuning,
            spec,
            matrix_layout: MatrixLayout::default(),
        }
    }

    /// Select the value layout the kernels read.
    pub fn with_matrix_layout(mut self, layout: MatrixLayout) -> Self {
        self.matrix_layout = layout;
        self
    }

    /// Lower this plan against `dims` to the symbolic access model
    /// [`aprod2`](Self::aprod2) / [`aprod1`](Self::aprod1) would execute —
    /// see [`crate::plan_check`].
    pub fn write_model(&self, dims: &plan_check::PlanDims) -> Vec<plan_check::SectionModel> {
        plan_check::write_model(self, dims)
    }

    /// Lower this plan restricted to a global row range — the access model
    /// [`aprod2_rows`](Self::aprod2_rows) / [`aprod1_rows`](Self::aprod1_rows)
    /// would execute for an out-of-core row tile.
    pub fn access_model_rows(
        &self,
        dims: &plan_check::PlanDims,
        rows: Range<usize>,
    ) -> Vec<plan_check::SectionModel> {
        plan_check::access_model_rows(self, dims, rows)
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
    /// conflict strategy is needed).
    pub fn aprod1(&self, pool: &ExecutorPool, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.aprod1_rows(pool, sys, x, 0..sys.n_rows(), out);
    }

    /// `out[i] += (A x)[rows.start + i]` — [`aprod1`](Self::aprod1)
    /// restricted to a global row range, the row-tile entry point of the
    /// out-of-core path. `out.len() == rows.len()`; rows outside `rows`
    /// are neither read nor written.
    pub fn aprod1_rows(
        &self,
        pool: &ExecutorPool,
        sys: &SparseSystem,
        x: &[f64],
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), rows.len(), "aprod1_rows: out length mismatch");
        if self.matrix_layout == MatrixLayout::Ell {
            // Build the mirror once here instead of under the first job's
            // lazy init (OnceLock would serialize the workers against it).
            let _ = sys.ell();
        }
        let kernel = aprod1_kernel(self.matrix_layout);
        let ranges = split_span(rows.clone(), self.aprod1_chunks(rows.len()));
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for range in ranges {
            let (mine, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push(Box::new(move || kernel(sys, x, range, mine)));
        }
        pool.run(jobs);
    }

    /// `out += Aᵀ y`: partition `out` into the four column blocks, launch
    /// the astrometric star chunks plus each colliding block under its
    /// strategy in one wave, then run any deferred reductions in a second.
    pub fn aprod2(&self, pool: &ExecutorPool, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.aprod2_rows(pool, sys, y, 0..sys.n_rows(), out);
    }

    /// `out += Aᵀ[rows, :] y[rows]` — [`aprod2`](Self::aprod2) restricted
    /// to a global row range, the row-tile entry point of the out-of-core
    /// path. `y` and `out` keep their full-system lengths; only `y[rows]`
    /// is read. The observation part of `rows` must be star-aligned (tile
    /// boundaries fall between stars), because the astrometric kernels
    /// walk whole stars; the constraint tail may start or end anywhere.
    pub fn aprod2_rows(
        &self,
        pool: &ExecutorPool,
        sys: &SparseSystem,
        y: &[f64],
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        let c = sys.columns();
        let n_att = (c.instr - c.att) as usize;
        let n_instr = (c.glob - c.instr) as usize;
        let (astro, rest) = out.split_at_mut(c.att as usize);
        let (att, rest2) = rest.split_at_mut(n_att);
        let (instr, glob) = rest2.split_at_mut(n_instr);

        let n_rows = sys.n_rows();
        let n_obs = sys.n_obs_rows();
        let obs_per_star = sys.layout().obs_per_star.max(1) as usize;

        // Clamp the range per stream: attitude columns see every row
        // (observations and constraints); the instrumental and global
        // blocks only ever touch observation rows.
        let att_rows = rows.start.min(n_rows)..rows.end.min(n_rows);
        let obs_rows = rows.start.min(n_obs)..rows.end.min(n_obs);

        // Star span covered by the observation part of the range.
        let stars = if obs_rows.is_empty() {
            0..0
        } else {
            assert_eq!(
                obs_rows.start % obs_per_star,
                0,
                "aprod2_rows: range start {} is not star-aligned (obs_per_star = {obs_per_star})",
                obs_rows.start
            );
            assert!(
                obs_rows.end % obs_per_star == 0 || obs_rows.end == n_obs,
                "aprod2_rows: range end {} is not star-aligned (obs_per_star = {obs_per_star})",
                obs_rows.end
            );
            obs_rows.start / obs_per_star..obs_rows.end.div_ceil(obs_per_star)
        };

        // Storage that wave-1 jobs borrow and wave 2 reduces from.
        let mut att_privates: Vec<Vec<f64>> = Vec::new();
        let mut instr_privates: Vec<Vec<f64>> = Vec::new();
        let mut att_stripes: Vec<Mutex<Vec<f64>>> = Vec::new();
        let mut instr_stripes: Vec<Mutex<Vec<f64>>> = Vec::new();
        let mut glob_partials: Vec<f64> = Vec::new();

        let mut jobs: Vec<Job<'_>> = Vec::new();

        // Materialize the ELL mirror up front (single-threaded) rather
        // than racing the lazy init from the first kernels to touch it.
        if self.matrix_layout == MatrixLayout::Ell {
            let _ = sys.ell();
        }

        // Astrometric stream: star-aligned split, collision-free — each
        // star chunk owns an exactly matching slice of the astro section.
        let astro_k = astro_kernel(self.matrix_layout);
        let mut astro_rest = &mut astro[stars.start * 5..stars.end * 5];
        for chunk in split_span(
            stars.clone(),
            self.section_chunks(Stream::Astro, stars.len()),
        ) {
            let (mine, tail) = astro_rest.split_at_mut(chunk.len() * 5);
            astro_rest = tail;
            jobs.push(Box::new(move || astro_k(sys, y, chunk, mine)));
        }

        let att_deferred = self.section_jobs(
            Stream::Att,
            sys,
            y,
            att_rows,
            att,
            self.spec.att,
            att_kernels(self.matrix_layout),
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
            instr_kernels(self.matrix_layout),
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
        kerns: SectionKernels,
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
        match strategy {
            Aprod2Strategy::OwnerComputes => {
                let chunks = self.section_chunks(stream, section_len);
                let mut rest: &'a mut [f64] = section;
                for own in split_ranges(section_len, chunks) {
                    let (mine, tail) = rest.split_at_mut(own.len());
                    rest = tail;
                    let rows = rows.clone();
                    jobs.push(Box::new(move || (kerns.owned)(sys, y, rows, own, mine)));
                }
                None
            }
            Aprod2Strategy::Atomic | Aprod2Strategy::CasLoop => {
                let flavor = if strategy == Aprod2Strategy::Atomic {
                    AtomicFlavor::Rmw
                } else {
                    AtomicFlavor::CasLoop
                };
                let (block, probe) = match stream {
                    Stream::Att => (Block::Att, PROBE_ATT_ATOMIC),
                    _ => (Block::Instr, PROBE_INSTR_ATOMIC),
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
                        (kerns.full)(sys, y, chunk, &mut local);
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
                    jobs.push(Box::new(move || (kerns.full)(sys, y, chunk, private)));
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
                        (kerns.full)(sys, y, chunk, &mut local);
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

    fn tuning_2x4() -> Tuning {
        Tuning {
            threads: 2,
            chunks_per_thread: 4,
        }
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
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(11)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.23).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut want1 = vec![0.0; sys.n_rows()];
        kernels::aprod1_range(&sys, &x, 0..sys.n_rows(), &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        {
            let c = sys.columns();
            let (astro, rest) = want2.split_at_mut(c.att as usize);
            let (att, rest2) = rest.split_at_mut((c.instr - c.att) as usize);
            let (instr, glob) = rest2.split_at_mut((c.glob - c.instr) as usize);
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
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(7)).generate();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut want = vec![0.0; sys.n_cols()];
        {
            let c = sys.columns();
            let (astro, rest) = want.split_at_mut(c.att as usize);
            let (att, rest2) = rest.split_at_mut((c.instr - c.att) as usize);
            let (instr, glob) = rest2.split_at_mut((c.glob - c.instr) as usize);
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
    }

    /// Every matrix layout must match the serial scalar kernels on every
    /// strategy chassis — the dispatch-seam property the tuner relies on to
    /// search the space safely.
    #[test]
    fn every_layout_matches_the_serial_kernels() {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(13)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut want1 = vec![0.0; sys.n_rows()];
        kernels::aprod1_range(&sys, &x, 0..sys.n_rows(), &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        {
            let c = sys.columns();
            let (astro, rest) = want2.split_at_mut(c.att as usize);
            let (att, rest2) = rest.split_at_mut((c.instr - c.att) as usize);
            let (instr, glob) = rest2.split_at_mut((c.glob - c.instr) as usize);
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
        for layout in MatrixLayout::ALL {
            for strategy in strategies {
                for spec in [
                    Aprod2Spec::uniform(strategy),
                    Aprod2Spec::streamed(strategy),
                ] {
                    let plan = LaunchPlan::new(tuning_2x4(), spec).with_matrix_layout(layout);
                    let mut got1 = vec![0.0; sys.n_rows()];
                    plan.aprod1(&pool, &sys, &x, &mut got1);
                    for (g, w) in got1.iter().zip(&want1) {
                        assert!((g - w).abs() < 1e-10, "aprod1 {layout:?}: {g} vs {w}");
                    }
                    let mut got2 = vec![0.0; sys.n_cols()];
                    plan.aprod2(&pool, &sys, &y, &mut got2);
                    for (g, w) in got2.iter().zip(&want2) {
                        assert!(
                            (g - w).abs() < 1e-10,
                            "aprod2 {layout:?} {strategy:?} {spec:?}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn layout_names_round_trip() {
        for l in MatrixLayout::ALL {
            assert_eq!(MatrixLayout::parse(l.as_str()), Some(l));
        }
        assert_eq!(MatrixLayout::parse("unrolled"), None);
        // A plan built by `new` reads the row-major default.
        let plan = LaunchPlan::new(tuning_2x4(), Aprod2Spec::uniform(Aprod2Strategy::Atomic));
        assert_eq!(plan.matrix_layout, MatrixLayout::RowMajor);
    }
}
