//! Static soundness checking for [`LaunchPlan`] — the analysis layer that
//! proves a plan's memory accesses are race-free *before* anything runs.
//!
//! The paper's portability hazard is that each framework port silently
//! changes how colliding `aprod2` updates are resolved (atomics vs
//! owner-computes vs privatization, §IV–V). The dynamic harness
//! (`gaia-verify`) can only catch a bad resolution *after* executing it
//! under a sampled schedule; this module closes the gap statically. The
//! model is the launch itself: [`LaunchPlan::jobs`] lowers each launch
//! once to the job list the executor runs, and [`section_models`] folds
//! that list into a symbolic **access model** — for every output section,
//! the range each job writes, the section range it reads, and the
//! synchronization discipline both run under. The products `aprod1` and
//! `aprod2` are one model; the one-launch Golub–Kahan pass, for a plan that
//! has it, is another. [`check_sections`] proves a model sound:
//!
//! * [`WriteAccess::Owned`] write-sets must be pairwise disjoint **and**
//!   exactly cover the section span the launch claims (a gap is as wrong
//!   as an overlap: the uncovered columns silently keep stale values);
//! * [`WriteAccess::PlainShared`] write-sets must be pairwise disjoint,
//!   because nothing orders two plain stores to the same slot — an overlap
//!   is precisely the lost-update race the `gaia-verify` canary exhibits;
//! * [`WriteAccess::Atomic`], [`WriteAccess::Locked`], and
//!   [`WriteAccess::Private`] write-sets may overlap by design and are
//!   checked for bounds only;
//! * no job may **read** a section location another job of the same wave
//!   writes, unless the read and the write agree on a synchronizing
//!   discipline (atomic read of an atomic section, lock-guarded read of a
//!   lock-guarded section) — the read/write half of the canary's race,
//!   invisible to a write-only model.
//!
//! [`LaunchPlan::analyze`] additionally proves the streamed worker budget
//! conserves the thread budget. Registry construction routes every
//! plan-carrying backend through [`LaunchPlan::analyze_canonical`], so an
//! unsound plan is rejected at lookup time with a diagnostic naming the
//! offending ranges, not discovered as a wrong solve.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

use gaia_sparse::SparseSystem;

use crate::launch::{stream_worker_budget, JobSpec, Launch, LaunchPlan, WorkerBudget};

/// The problem-shape parameters a plan's lowering depends on. Decouples the
/// checker from a live [`SparseSystem`] so hand-built shapes (degenerate,
/// empty-block, oversized) can be verified without generating data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanDims {
    /// Total rows (observation + constraint) seen by `aprod1` and the
    /// attitude stream.
    pub n_rows: usize,
    /// Stars; the astrometric section holds `5 × n_stars` columns.
    pub n_stars: usize,
    /// Observation rows per star: star `s` owns rows
    /// `s × obs_per_star .. (s + 1) × obs_per_star`, and the constraint
    /// rows follow the last star's.
    pub obs_per_star: usize,
    /// Attitude section length in columns.
    pub n_att: usize,
    /// Instrumental section length in columns.
    pub n_instr: usize,
    /// Global section length in columns (0 or 1 in the AVU-GSR system).
    pub n_glob: usize,
}

impl PlanDims {
    /// Extract the dimensions of a concrete system.
    pub fn for_system(sys: &SparseSystem) -> PlanDims {
        let c = sys.columns();
        PlanDims {
            n_rows: sys.n_rows(),
            n_stars: sys.layout().n_stars as usize,
            obs_per_star: sys.layout().obs_per_star as usize,
            n_att: (c.instr - c.att) as usize,
            n_instr: (c.glob - c.instr) as usize,
            n_glob: sys.layout().n_glob_params as usize,
        }
    }

    /// Observation rows only — the instrumental and global streams stop
    /// here.
    pub fn n_obs_rows(&self) -> usize {
        self.n_stars * self.obs_per_star
    }

    /// Total solution columns — the `aprod1` input vector's length.
    pub fn n_cols(&self) -> usize {
        self.n_stars * 5 + self.n_att + self.n_instr + self.n_glob
    }

    /// Length of the section (or reduction) `id` indexes.
    fn section_len(&self, id: SectionId) -> usize {
        match id {
            SectionId::Aprod1 => self.n_rows,
            SectionId::Astro => self.n_stars * 5,
            SectionId::Att | SectionId::AttReduction => self.n_att,
            SectionId::Instr | SectionId::InstrReduction => self.n_instr,
            SectionId::Glob | SectionId::GlobCombine => self.n_glob,
        }
    }

    /// The canonical shape battery [`LaunchPlan::analyze_canonical`] proves
    /// a plan against: a representative small system, a no-global variant,
    /// a degenerate shape with fewer items than chunks, an empty
    /// attitude/instrumental variant, and a large production-like shape.
    pub fn canonical() -> Vec<PlanDims> {
        [
            (230, 40, 5, 90, 24, 1),
            (230, 40, 5, 90, 24, 0),
            (5, 3, 1, 3, 2, 1),
            (64, 16, 4, 0, 0, 1),
            (10_000, 1_500, 6, 700, 120, 1),
        ]
        .map(
            |(n_rows, n_stars, obs_per_star, n_att, n_instr, n_glob)| PlanDims {
                n_rows,
                n_stars,
                obs_per_star,
                n_att,
                n_instr,
                n_glob,
            },
        )
        .to_vec()
    }
}

/// The synchronization discipline a section's wave-1 (or wave-2) jobs
/// write under — what the checker is allowed to assume about two writes
/// landing on the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAccess {
    /// Exclusive `&mut` ownership of the range (split_at_mut siblings):
    /// ranges must be disjoint and exactly cover the section.
    Owned,
    /// Atomic read-modify-write (RMW or CAS-retry): overlap is safe.
    Atomic,
    /// Writes land in a per-job private buffer; a later Owned reduction
    /// folds them in. Overlap between *models* of the privates is safe.
    Private,
    /// Writes are batched behind mutexes: overlap is safe.
    Locked,
    /// Plain unsynchronized loads/stores into shared memory: any overlap
    /// is a data race (the canary's lost-update shape).
    PlainShared,
}

impl fmt::Display for WriteAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WriteAccess::Owned => "owned",
            WriteAccess::Atomic => "atomic",
            WriteAccess::Private => "private",
            WriteAccess::Locked => "locked",
            WriteAccess::PlainShared => "plain-shared",
        })
    }
}

/// Which output section (or deferred reduction pass) a model describes.
/// Models are listed in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SectionId {
    /// The `aprod1` output rows.
    Aprod1,
    /// Astrometric columns (star-aligned, structurally collision-free).
    Astro,
    /// Attitude columns, wave 1.
    Att,
    /// Attitude wave-2 reduction (replicated / lock-striped copy-back).
    AttReduction,
    /// Instrumental columns, wave 1.
    Instr,
    /// Instrumental wave-2 reduction.
    InstrReduction,
    /// Global columns, wave 1.
    Glob,
    /// Global wave-2 combine of replicated partials.
    GlobCombine,
}

impl SectionId {
    fn as_str(self) -> &'static str {
        match self {
            SectionId::Aprod1 => "aprod1",
            SectionId::Astro => "astro",
            SectionId::Att => "att",
            SectionId::Instr => "instr",
            SectionId::Glob => "glob",
            SectionId::AttReduction => "att-reduction",
            SectionId::InstrReduction => "instr-reduction",
            SectionId::GlobCombine => "glob-combine",
        }
    }
}

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The synchronization discipline a read runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSync {
    /// Plain load — safe only against writes the job itself owns or that
    /// happen in another wave.
    Plain,
    /// Atomic load (or the read half of an RMW) — safe against
    /// [`WriteAccess::Atomic`] writes.
    Atomic,
    /// Read under the same mutex that guards the writes — safe against
    /// [`WriteAccess::Locked`] writes.
    Locked,
}

impl fmt::Display for ReadSync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReadSync::Plain => "plain",
            ReadSync::Atomic => "atomic",
            ReadSync::Locked => "locked",
        })
    }
}

/// One section range a job reads, and the synchronization the read runs
/// under. The input vector and the matrix are immutable for a launch's
/// duration, and the private buffers of wave 1 for wave 2's, so only
/// section reads can race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadAccess {
    /// The section read, in its section-local coordinates.
    pub section: SectionId,
    /// Half-open range read.
    pub range: Range<usize>,
    /// Synchronization discipline of the read.
    pub sync: ReadSync,
}

impl ReadAccess {
    /// A plain (unsynchronized) read.
    pub fn plain(section: SectionId, range: Range<usize>) -> Self {
        ReadAccess {
            section,
            range,
            sync: ReadSync::Plain,
        }
    }
}

/// The symbolic access-set of one section under one plan: which ranges the
/// section's jobs write and read, and under which disciplines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionModel {
    /// Section this model describes.
    pub id: SectionId,
    /// Synchronization discipline of the writes.
    pub access: WriteAccess,
    /// Length of the section the ranges index into; `Owned` write-sets
    /// must tile all of it.
    pub section_len: usize,
    /// Which barrier-separated wave the jobs run in: 1 for the main
    /// launch, 2 for deferred reductions (a `pool.run` barrier sits
    /// between, so cross-wave overlap is ordered, not racy).
    pub wave: u8,
    /// One range per job (section-local coordinates).
    pub writes: Vec<Range<usize>>,
    /// Per-job read sets, parallel to `writes` (`reads[i]` belongs to the
    /// job writing `writes[i]`). May be empty for write-only models.
    pub reads: Vec<Vec<ReadAccess>>,
}

impl SectionModel {
    /// A wave-1, write-only model (reads attach via
    /// [`with_reads`](Self::with_reads)).
    pub fn new(
        id: SectionId,
        access: WriteAccess,
        section_len: usize,
        writes: Vec<Range<usize>>,
    ) -> Self {
        SectionModel {
            id,
            access,
            section_len,
            wave: 1,
            writes,
            reads: Vec::new(),
        }
    }

    /// Attach per-job read sets (parallel to `writes`).
    pub fn with_reads(mut self, reads: Vec<Vec<ReadAccess>>) -> Self {
        self.reads = reads;
        self
    }

    /// Place the model in a later wave.
    pub fn with_wave(mut self, wave: u8) -> Self {
        self.wave = wave;
        self
    }
}

/// One way a plan's access model fails soundness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// A job writes past the end of its section.
    OutOfBounds {
        /// Offending section.
        section: SectionId,
        /// The out-of-range write.
        range: Range<usize>,
        /// The section's actual length.
        section_len: usize,
    },
    /// Two exclusive-ownership ranges overlap.
    Overlap {
        /// Offending section.
        section: SectionId,
        /// First overlapping range.
        a: Range<usize>,
        /// Second overlapping range.
        b: Range<usize>,
    },
    /// Exclusive-ownership ranges leave part of the claimed span unwritten.
    Gap {
        /// Offending section.
        section: SectionId,
        /// The uncovered span.
        missing: Range<usize>,
    },
    /// Unsynchronized shared writes collide — an illegal strategy for the
    /// block's collision structure.
    IllegalSharedWrites {
        /// Offending section.
        section: SectionId,
        /// First colliding range.
        a: Range<usize>,
        /// Second colliding range.
        b: Range<usize>,
    },
    /// A job reads a section location another job of the same wave writes,
    /// with no synchronizing discipline shared between them — the
    /// read/write half of the canary's data race.
    ReadWriteRace {
        /// Section being written (the read's target space).
        section: SectionId,
        /// Section whose job performs the read.
        reader: SectionId,
        /// The racing read range.
        read: Range<usize>,
        /// The overlapping write range.
        write: Range<usize>,
        /// Discipline of the read.
        read_sync: ReadSync,
        /// Discipline of the write.
        write_access: WriteAccess,
    },
    /// The streamed per-stream shares exceed the effective thread budget.
    BudgetOversubscribed {
        /// Raw thread budget from tuning.
        threads: usize,
        /// Effective budget (`threads.max(4)`).
        effective: usize,
        /// Astrometric / attitude / instrumental shares.
        shares: (usize, usize, usize),
    },
    /// A stream was allotted zero workers and would never run.
    StarvedStream {
        /// The starved stream.
        stream: &'static str,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::OutOfBounds {
                section,
                range,
                section_len,
            } => write!(
                f,
                "[{section}] write {range:?} exceeds section length {section_len}"
            ),
            PlanViolation::Overlap { section, a, b } => write!(
                f,
                "[{section}] exclusive write-sets overlap: {a:?} and {b:?} \
                 claim the same columns"
            ),
            PlanViolation::Gap { section, missing } => write!(
                f,
                "[{section}] exclusive write-sets leave {missing:?} uncovered \
                 (stale output columns)"
            ),
            PlanViolation::IllegalSharedWrites { section, a, b } => write!(
                f,
                "[{section}] illegal strategy/block pairing: unsynchronized \
                 shared writes {a:?} and {b:?} collide (lost-update race)"
            ),
            PlanViolation::ReadWriteRace {
                section,
                reader,
                read,
                write,
                read_sync,
                write_access,
            } => write!(
                f,
                "[{section}] read/write race: a `{reader}` job {read_sync}-reads \
                 {read:?} while another job {write_access}-writes {write:?} in \
                 the same wave (no synchronization pairs them)"
            ),
            PlanViolation::BudgetOversubscribed {
                threads,
                effective,
                shares: (astro, att, instr),
            } => write!(
                f,
                "streamed budget oversubscribed: {astro}+{att}+{instr} workers \
                 > effective budget {effective} (threads = {threads})"
            ),
            PlanViolation::StarvedStream { stream } => {
                write!(f, "stream `{stream}` allotted zero workers")
            }
        }
    }
}

/// Successful verification summary: what the checker examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanProof {
    /// Section models checked.
    pub sections: usize,
    /// Total job write-ranges examined across the sections.
    pub jobs: usize,
    /// Total read accesses examined across the sections.
    pub reads: usize,
}

/// Verification failure: every violation found, rendered one per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// All violations, in section order.
    pub violations: Vec<PlanViolation>,
}

impl PlanError {
    /// Whether any violation comes from the write-disjointness layer
    /// (overlap / gap / bounds / illegal shared writes).
    pub fn has_write_violation(&self) -> bool {
        self.violations.iter().any(|v| {
            matches!(
                v,
                PlanViolation::OutOfBounds { .. }
                    | PlanViolation::Overlap { .. }
                    | PlanViolation::Gap { .. }
                    | PlanViolation::IllegalSharedWrites { .. }
            )
        })
    }

    /// Whether any violation comes from the read/write access layer.
    pub fn has_read_violation(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ReadWriteRace { .. }))
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsound launch plan ({} violation{})",
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

/// Prove a set of section access-models sound. See the module docs for the
/// per-discipline obligations.
pub fn check_sections(sections: &[SectionModel]) -> Result<PlanProof, PlanError> {
    let mut violations = Vec::new();
    let mut jobs = 0usize;
    let mut reads = 0usize;
    for s in sections {
        jobs += s.writes.len();
        reads += s.reads.iter().map(Vec::len).sum::<usize>();
        for r in &s.writes {
            if r.end > s.section_len {
                violations.push(PlanViolation::OutOfBounds {
                    section: s.id,
                    range: r.clone(),
                    section_len: s.section_len,
                });
            }
        }
        match s.access {
            WriteAccess::Owned => check_exclusive(s, true, &mut violations),
            WriteAccess::PlainShared => check_exclusive(s, false, &mut violations),
            WriteAccess::Atomic | WriteAccess::Locked | WriteAccess::Private => {}
        }
    }
    check_read_write_races(sections, &mut violations);
    if violations.is_empty() {
        Ok(PlanProof {
            sections: sections.len(),
            jobs,
            reads,
        })
    } else {
        Err(PlanError { violations })
    }
}

/// Disjointness (and, for `Owned`, exact coverage of the section) check
/// over one section's write ranges.
fn check_exclusive(s: &SectionModel, require_cover: bool, violations: &mut Vec<PlanViolation>) {
    let mut ranges: Vec<Range<usize>> =
        s.writes.iter().filter(|r| !r.is_empty()).cloned().collect();
    ranges.sort_by_key(|r| (r.start, r.end));
    let mut cursor = 0;
    for r in &ranges {
        if r.start < cursor {
            // Report against the previous range that reached `cursor`.
            let prev = ranges
                .iter()
                .find(|p| p.end == cursor && p.start < r.start)
                .cloned()
                .unwrap_or(0..cursor);
            let violation = if s.access == WriteAccess::PlainShared {
                PlanViolation::IllegalSharedWrites {
                    section: s.id,
                    a: prev,
                    b: r.clone(),
                }
            } else {
                PlanViolation::Overlap {
                    section: s.id,
                    a: prev,
                    b: r.clone(),
                }
            };
            violations.push(violation);
        } else if require_cover && r.start > cursor {
            violations.push(PlanViolation::Gap {
                section: s.id,
                missing: cursor..r.start,
            });
        }
        cursor = cursor.max(r.end);
    }
    if require_cover && cursor < s.section_len {
        violations.push(PlanViolation::Gap {
            section: s.id,
            missing: cursor..s.section_len,
        });
    }
}

/// Can a read under `sync` observe writes under `access` without racing?
/// Private writes land in job-local buffers, so nothing can read them
/// concurrently at all; otherwise read and write must share a
/// synchronizing discipline.
fn read_write_compatible(sync: ReadSync, access: WriteAccess) -> bool {
    matches!(
        (sync, access),
        (_, WriteAccess::Private)
            | (ReadSync::Atomic, WriteAccess::Atomic)
            | (ReadSync::Locked, WriteAccess::Locked)
    )
}

/// Prove no job reads a section location another job of the same wave
/// writes without a pairing synchronization discipline. At most one
/// violation is reported per read access (the canary's 8 lanes would
/// otherwise flood 56 copies of the same race).
fn check_read_write_races(sections: &[SectionModel], violations: &mut Vec<PlanViolation>) {
    for (ai, a) in sections.iter().enumerate() {
        for (job, job_reads) in a.reads.iter().enumerate() {
            'reads: for rd in job_reads {
                for (bi, b) in sections.iter().enumerate() {
                    if b.id != rd.section || b.wave != a.wave {
                        continue;
                    }
                    if read_write_compatible(rd.sync, b.access) {
                        continue;
                    }
                    for (wj, w) in b.writes.iter().enumerate() {
                        // A job may freely read what it alone writes.
                        if ai == bi && job == wj {
                            continue;
                        }
                        if rd.range.start < w.end && w.start < rd.range.end {
                            violations.push(PlanViolation::ReadWriteRace {
                                section: b.id,
                                reader: a.id,
                                read: rd.range.clone(),
                                write: w.clone(),
                                read_sync: rd.sync,
                                write_access: b.access,
                            });
                            continue 'reads;
                        }
                    }
                }
            }
        }
    }
}

/// Fold a launch's job list into its access model: one [`SectionModel`]
/// per section the jobs write, in [`SectionId`] order, with one write
/// range per job. Each write brings the read its discipline implies: an
/// owned range is read plain (the job accumulates into it), an atomic or a
/// locked section whole under its atomics or its locks, and a private
/// buffer not at all.
pub fn section_models(jobs: &[JobSpec], dims: &PlanDims) -> Vec<SectionModel> {
    let mut models: Vec<SectionModel> = Vec::new();
    for job in jobs {
        for &(section, ref range, access) in &job.writes {
            let len = dims.section_len(section);
            let read = match access {
                WriteAccess::Owned | WriteAccess::PlainShared => {
                    Some((ReadSync::Plain, range.clone()))
                }
                WriteAccess::Atomic => Some((ReadSync::Atomic, 0..len)),
                WriteAccess::Locked => Some((ReadSync::Locked, 0..len)),
                WriteAccess::Private => None,
            };
            let at = models
                .iter()
                .position(|m| m.id == section)
                .unwrap_or_else(|| {
                    let model = SectionModel::new(section, access, len, Vec::new());
                    models.push(model.with_wave(job.wave));
                    models.len() - 1
                });
            models[at].writes.push(range.clone());
            let read = read.map(|(sync, range)| ReadAccess {
                section,
                range,
                sync,
            });
            models[at].reads.push(read.into_iter().collect());
        }
    }
    models.sort_by_key(|m| m.id);
    models
}

/// The access model of `plan`'s two products against `dims`: the
/// [`section_models`] of the `aprod1` and `aprod2` job lists, with each
/// deferred reduction its own wave-2 model.
pub fn write_model(plan: &LaunchPlan, dims: &PlanDims) -> Vec<SectionModel> {
    let mut jobs = plan.jobs(dims, Launch::Aprod1);
    jobs.extend(plan.jobs(dims, Launch::Aprod2));
    section_models(&jobs, dims)
}

/// Verify `plan` against `dims`: fold its launches' job lists into access
/// models — the two products, and the one-launch pass when
/// [`LaunchPlan::gk_in_one_launch`] holds — prove each sound (write
/// disjointness *and* read/write race freedom), and prove the streamed
/// budget conserves the thread budget. A plan's lowering is a pure
/// function of `(plan, dims)`, so a proof holds for the life of the
/// process: each pair is proven once, like the pool of
/// [`crate::ExecutorPool::shared`], and a rejected pair is checked again
/// on every call. Each proof run records an `analyze` telemetry cell
/// entry.
pub fn analyze_plan(plan: &LaunchPlan, dims: &PlanDims) -> Result<PlanProof, PlanError> {
    type Proofs = Mutex<HashMap<(LaunchPlan, PlanDims), PlanProof>>;
    static PROOFS: OnceLock<Proofs> = OnceLock::new();
    let proofs = PROOFS.get_or_init(Proofs::default);
    let key = (*plan, *dims);
    // Every update is one insert of a finished proof, so a poisoned map
    // is still a valid one.
    let proofs = || proofs.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(proof) = proofs().get(&key).copied() {
        return Ok(proof);
    }
    let proof = prove(plan, dims)?;
    proofs().insert(key, proof);
    Ok(proof)
}

/// [`analyze_plan`] without the memo.
fn prove(plan: &LaunchPlan, dims: &PlanDims) -> Result<PlanProof, PlanError> {
    let mut models = vec![write_model(plan, dims)];
    if plan.gk_in_one_launch() {
        models.push(section_models(&plan.jobs(dims, Launch::Pass), dims));
    }
    let mut proof = PlanProof {
        sections: 0,
        jobs: 0,
        reads: 0,
    };
    let mut violations = Vec::new();
    for model in &models {
        match check_sections(model) {
            Ok(p) => {
                proof.sections += p.sections;
                proof.jobs += p.jobs;
                proof.reads += p.reads;
            }
            Err(e) => violations.extend(e.violations),
        }
    }

    if plan.spec.budget == WorkerBudget::Streamed {
        let threads = plan.tuning.threads;
        let (astro, att, instr) = stream_worker_budget(threads);
        let effective = threads.max(4);
        if astro + att + instr > effective {
            violations.push(PlanViolation::BudgetOversubscribed {
                threads,
                effective,
                shares: (astro, att, instr),
            });
        }
        for (stream, share) in [("astro", astro), ("att", att), ("instr", instr)] {
            if share == 0 {
                violations.push(PlanViolation::StarvedStream { stream });
            }
        }
    }

    let sections_checked = models.iter().map(Vec::len).sum::<usize>() as u64;
    gaia_telemetry::record(|t| {
        t.analyze.plans_checked += 1;
        t.analyze.sections_checked += sections_checked;
        t.analyze.plan_violations += violations.len() as u64;
    });
    if violations.is_empty() {
        Ok(proof)
    } else {
        Err(PlanError { violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{Aprod2Spec, Aprod2Strategy};
    use crate::tuning::Tuning;

    fn plan(strategy: Aprod2Strategy, streamed: bool) -> LaunchPlan {
        let spec = if streamed {
            Aprod2Spec::streamed(strategy)
        } else {
            Aprod2Spec::uniform(strategy)
        };
        LaunchPlan::new(
            Tuning {
                threads: 4,
                chunks_per_thread: 2,
            },
            spec,
        )
    }

    const STRATEGIES: [Aprod2Strategy; 5] = [
        Aprod2Strategy::OwnerComputes,
        Aprod2Strategy::Atomic,
        Aprod2Strategy::CasLoop,
        Aprod2Strategy::Replicated,
        Aprod2Strategy::LockStriped { stripes: 8 },
    ];

    #[test]
    fn every_strategy_and_budget_is_sound_on_canonical_dims() {
        for strategy in STRATEGIES {
            for streamed in [false, true] {
                let p = plan(strategy, streamed);
                p.analyze_canonical().unwrap_or_else(|e| {
                    panic!("{strategy:?} streamed={streamed} judged unsound:\n{e}")
                });
            }
        }
    }

    /// Every job carries a read-set in the full model: the access model is
    /// total, not just patched onto some strategies. Only a write into a
    /// private buffer reads nothing shared.
    #[test]
    fn every_job_in_every_strategy_model_carries_reads() {
        for strategy in STRATEGIES {
            for streamed in [false, true] {
                let p = plan(strategy, streamed);
                for dims in PlanDims::canonical() {
                    for s in write_model(&p, &dims) {
                        assert_eq!(
                            s.reads.len(),
                            s.writes.len(),
                            "[{}] {strategy:?} read-sets not parallel to writes",
                            s.id
                        );
                        for (job, reads) in s.reads.iter().enumerate() {
                            assert!(
                                reads.is_empty() == (s.access == WriteAccess::Private),
                                "[{}] {strategy:?} job {job} reads {reads:?} under {} writes",
                                s.id,
                                s.access
                            );
                        }
                    }
                }
            }
        }
    }

    /// The pass is checked from the list it runs, so a broken lowering of
    /// it is caught naming its section: a last chunk that drops the
    /// constraint rows leaves them unwritten in `u`, and a star chunk that
    /// reaches into the next one claims its astrometric columns twice.
    #[test]
    fn broken_pass_lowerings_are_rejected_naming_their_section() {
        let p = plan(Aprod2Strategy::Atomic, false);
        let has = |jobs: &[JobSpec], dims: &PlanDims, want: &dyn Fn(&PlanViolation) -> bool| {
            let err = check_sections(&section_models(jobs, dims)).unwrap_err();
            assert!(err.violations.iter().any(want), "{err}");
        };
        for dims in PlanDims::canonical() {
            let jobs = p.jobs(&dims, Launch::Pass);
            check_sections(&section_models(&jobs, &dims)).expect("the pass is sound");

            if dims.n_rows > dims.n_obs_rows() {
                let mut short = jobs.clone();
                let last = short.last_mut().unwrap();
                last.rows.end = dims.n_obs_rows();
                last.writes[0].1.end = dims.n_obs_rows();
                has(&short, &dims, &|v| {
                    matches!(v, PlanViolation::Gap { section: SectionId::Aprod1, missing }
                        if *missing == (dims.n_obs_rows()..dims.n_rows))
                });
            }

            let mut overlapping = jobs.clone();
            let first = &mut overlapping[0];
            first.rows.end += dims.obs_per_star;
            first.writes[0].1.end += dims.obs_per_star;
            first.writes[1].1.end += 5;
            has(&overlapping, &dims, &|v| {
                matches!(
                    v,
                    PlanViolation::Overlap {
                        section: SectionId::Astro,
                        ..
                    }
                )
            });
        }
    }

    #[test]
    fn overlapping_owned_partition_is_rejected_as_overlap() {
        let s = SectionModel::new(
            SectionId::Att,
            WriteAccess::Owned,
            100,
            vec![0..60, 40..100],
        );
        let err = check_sections(&[s]).unwrap_err();
        assert!(
            err.violations.iter().any(|v| matches!(
                v,
                PlanViolation::Overlap {
                    section: SectionId::Att,
                    ..
                }
            )),
            "{err}"
        );
    }

    #[test]
    fn gapped_owned_partition_is_rejected_as_gap() {
        let s = SectionModel::new(
            SectionId::Instr,
            WriteAccess::Owned,
            100,
            vec![0..40, 60..100],
        );
        let err = check_sections(&[s]).unwrap_err();
        assert!(
            err.violations.iter().any(|v| matches!(
                v,
                PlanViolation::Gap {
                    section: SectionId::Instr,
                    missing,
                } if *missing == (40..60)
            )),
            "{err}"
        );
    }

    #[test]
    fn short_owned_cover_is_rejected_as_trailing_gap() {
        let s = SectionModel::new(SectionId::Aprod1, WriteAccess::Owned, 10, vec![0..7; 1]);
        let err = check_sections(&[s]).unwrap_err();
        assert!(
            err.violations.iter().any(|v| matches!(
                v,
                PlanViolation::Gap { missing, .. } if *missing == (7..10)
            )),
            "{err}"
        );
    }

    #[test]
    fn colliding_plain_shared_writes_are_an_illegal_pairing() {
        // The canary's shape: several lanes plain-storing over the whole
        // attitude section.
        let s = SectionModel::new(SectionId::Att, WriteAccess::PlainShared, 90, vec![0..90; 8]);
        let err = check_sections(&[s]).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, PlanViolation::IllegalSharedWrites { .. })),
            "{err}"
        );
        let rendered = err.to_string();
        assert!(
            rendered.contains("illegal strategy/block pairing"),
            "{rendered}"
        );
    }

    #[test]
    fn disjoint_plain_shared_writes_pass_without_cover() {
        // Disjoint plain stores are fine, and PlainShared carries no
        // coverage obligation (a partial scatter is legal).
        let s = SectionModel::new(
            SectionId::Att,
            WriteAccess::PlainShared,
            90,
            vec![0..30, 50..90],
        );
        check_sections(&[s]).expect("disjoint plain writes are sound");
    }

    #[test]
    fn plain_read_of_a_plain_written_range_is_a_read_write_race() {
        // The canary's read half: every lane plain-reads the whole section
        // other lanes plain-write (read slot → preempt → store back).
        let s = SectionModel::new(SectionId::Att, WriteAccess::PlainShared, 90, vec![0..90; 8])
            .with_reads(vec![vec![ReadAccess::plain(SectionId::Att, 0..90)]; 8]);
        let err = check_sections(&[s]).unwrap_err();
        assert!(err.has_read_violation(), "{err}");
        assert!(err.has_write_violation(), "{err}");
        let rendered = err.to_string();
        assert!(rendered.contains("read/write race"), "{rendered}");
        // One race per reading job, not one per (reader, writer) pair.
        let races = err
            .violations
            .iter()
            .filter(|v| matches!(v, PlanViolation::ReadWriteRace { .. }))
            .count();
        assert_eq!(races, 8, "{err}");
    }

    #[test]
    fn cross_section_plain_read_of_owned_writes_races() {
        // A hypothetical gather section reading attitude columns another
        // section's jobs own-write in the same wave.
        let writer = SectionModel::new(SectionId::Att, WriteAccess::Owned, 90, vec![0..45, 45..90]);
        let whole = std::iter::once(0..10).collect();
        let reader =
            SectionModel::new(SectionId::Instr, WriteAccess::Owned, 10, whole).with_reads(vec![
                vec![
                    ReadAccess::plain(SectionId::Att, 30..60),
                    ReadAccess::plain(SectionId::Instr, 0..10),
                ],
            ]);
        let err = check_sections(&[writer, reader]).unwrap_err();
        assert!(
            err.violations.iter().any(|v| matches!(
                v,
                PlanViolation::ReadWriteRace {
                    section: SectionId::Att,
                    reader: SectionId::Instr,
                    ..
                }
            )),
            "{err}"
        );
    }

    #[test]
    fn synchronized_and_cross_wave_reads_do_not_race() {
        // Atomic reads of an atomic section pair up.
        let atomic = SectionModel::new(SectionId::Att, WriteAccess::Atomic, 90, vec![0..90; 4])
            .with_reads(vec![
                vec![ReadAccess {
                    sync: ReadSync::Atomic,
                    ..ReadAccess::plain(SectionId::Att, 0..90)
                }];
                4
            ]);
        check_sections(&[atomic]).expect("atomic read/write pairs are sound");

        // Locked reads of a locked section pair up.
        let locked = SectionModel::new(SectionId::Att, WriteAccess::Locked, 90, vec![0..90; 4])
            .with_reads(vec![
                vec![ReadAccess {
                    sync: ReadSync::Locked,
                    ..ReadAccess::plain(SectionId::Att, 0..90)
                }];
                4
            ]);
        check_sections(&[locked]).expect("locked read/write pairs are sound");

        // A wave-2 reduction plain-reads what wave 1 wrote: the barrier
        // orders them, so no race.
        let wave1 = SectionModel::new(SectionId::Att, WriteAccess::Private, 90, vec![0..90; 4]);
        let wave2 = SectionModel::new(
            SectionId::AttReduction,
            WriteAccess::Owned,
            90,
            vec![0..45, 45..90],
        )
        .with_wave(2)
        .with_reads(vec![vec![ReadAccess::plain(SectionId::Att, 0..90)]; 2]);
        check_sections(&[wave1, wave2]).expect("cross-wave reads are barrier-ordered");
    }

    #[test]
    fn a_jobs_read_of_its_own_exclusive_range_is_not_a_race() {
        let s = SectionModel::new(SectionId::Att, WriteAccess::Owned, 90, vec![0..45, 45..90])
            .with_reads(vec![
                vec![ReadAccess::plain(SectionId::Att, 0..45)],
                vec![ReadAccess::plain(SectionId::Att, 45..90)],
            ]);
        check_sections(&[s]).expect("own-range accumulation reads are sound");
    }

    #[test]
    fn out_of_bounds_write_is_rejected() {
        let s = SectionModel::new(SectionId::Glob, WriteAccess::Atomic, 1, vec![0..2; 1]);
        let err = check_sections(&[s]).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, PlanViolation::OutOfBounds { .. })),
            "{err}"
        );
    }

    #[test]
    fn atomic_overlap_is_legal() {
        let s = SectionModel::new(SectionId::Att, WriteAccess::Atomic, 90, vec![0..90; 16]);
        check_sections(&[s]).expect("atomic overlap is the strategy's point");
    }

    #[test]
    fn write_model_covers_every_section_on_a_real_shape() {
        let p = plan(Aprod2Strategy::Replicated, false);
        let dims = PlanDims {
            n_rows: 230,
            n_stars: 40,
            obs_per_star: 5,
            n_att: 90,
            n_instr: 24,
            n_glob: 1,
        };
        let model = write_model(&p, &dims);
        let ids: Vec<SectionId> = model.iter().map(|s| s.id).collect();
        assert_eq!(
            ids,
            vec![
                SectionId::Aprod1,
                SectionId::Astro,
                SectionId::Att,
                SectionId::AttReduction,
                SectionId::Instr,
                SectionId::InstrReduction,
                SectionId::Glob,
                SectionId::GlobCombine,
            ]
        );
        let proof = check_sections(&model).expect("replicated model is sound");
        assert!(proof.reads > 0, "full model carries read-sets");
        // Reductions run behind the barrier.
        for s in &model {
            let expect_wave = matches!(
                s.id,
                SectionId::AttReduction | SectionId::InstrReduction | SectionId::GlobCombine
            );
            assert_eq!(s.wave == 2, expect_wave, "[{}] wave mislabeled", s.id);
        }
    }

    #[test]
    fn empty_sections_are_skipped_like_the_launcher_skips_them() {
        let p = plan(Aprod2Strategy::Atomic, true);
        let dims = PlanDims {
            n_rows: 64,
            n_stars: 16,
            obs_per_star: 4,
            n_att: 0,
            n_instr: 0,
            n_glob: 0,
        };
        let model = write_model(&p, &dims);
        let ids: Vec<SectionId> = model.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![SectionId::Aprod1, SectionId::Astro]);
        p.analyze(&dims).expect("empty-block plan is sound");
    }
}
