//! Static soundness checking for [`LaunchPlan`] — the analysis layer that
//! proves a plan's memory accesses are race-free *before* anything runs.
//!
//! The paper's portability hazard is that each framework port silently
//! changes how colliding `aprod2` updates are resolved (atomics vs
//! owner-computes vs privatization, §IV–V). The dynamic harness
//! (`gaia-verify`) can only catch a bad resolution *after* executing it
//! under a sampled schedule; this module closes the gap statically. A plan
//! is lowered to a symbolic **access model** — for every output section,
//! the ranges each job writes, the ranges it reads (input vector, matrix
//! rows or ELL mirror, other sections, wave-1 private buffers), and the
//! synchronization discipline both run under — and [`check_sections`]
//! proves the model sound:
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

use std::fmt;
use std::ops::Range;

use gaia_sparse::{MatrixLayout, SparseSystem};

use crate::launch::{
    split_ranges, split_span, stream_worker_budget, Aprod2Strategy, LaunchPlan, Stream,
    WorkerBudget,
};

/// The problem-shape parameters a plan's lowering depends on. Decouples the
/// checker from a live [`SparseSystem`] so hand-built shapes (degenerate,
/// empty-block, oversized) can be verified without generating data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDims {
    /// Total rows (observation + constraint) seen by `aprod1` and the
    /// attitude stream.
    pub n_rows: usize,
    /// Observation rows only — the instrumental and global streams stop
    /// here.
    pub n_obs_rows: usize,
    /// Stars; the astrometric section holds `5 × n_stars` columns.
    pub n_stars: usize,
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
            n_obs_rows: sys.n_obs_rows(),
            n_stars: sys.layout().n_stars as usize,
            n_att: (c.instr - c.att) as usize,
            n_instr: (c.glob - c.instr) as usize,
            n_glob: sys.layout().n_glob_params as usize,
        }
    }

    /// Total solution columns — the `aprod1` input vector's length.
    pub fn n_cols(&self) -> usize {
        self.n_stars * 5 + self.n_att + self.n_instr + self.n_glob
    }

    /// Observation rows per star, as the row-tile alignment sees it.
    /// Canonical shapes need not divide evenly; the read model only uses
    /// this to map star chunks back to approximate row spans.
    fn obs_per_star(&self) -> usize {
        self.n_obs_rows
            .checked_div(self.n_stars)
            .unwrap_or(1)
            .max(1)
    }

    /// The star span covered by an observation-row span (mirrors
    /// `aprod2_rows`' alignment arithmetic; a full span maps to all stars
    /// exactly, sidestepping non-divisible canonical shapes).
    fn stars_for(&self, obs: &Range<usize>) -> Range<usize> {
        if obs.is_empty() || self.n_stars == 0 {
            0..0
        } else if *obs == (0..self.n_obs_rows) {
            0..self.n_stars
        } else {
            let ops = self.obs_per_star();
            obs.start / ops..(obs.end.div_ceil(ops)).min(self.n_stars)
        }
    }

    /// The observation rows a star chunk's kernels read (inverse of
    /// [`stars_for`](Self::stars_for), clamped to the launch's span).
    fn rows_for_stars(&self, stars: &Range<usize>, obs: &Range<usize>) -> Range<usize> {
        if stars.is_empty() {
            obs.start..obs.start
        } else {
            let ops = self.obs_per_star();
            let start = (stars.start * ops).min(obs.end).max(obs.start);
            let end = if stars.end == self.n_stars {
                obs.end
            } else {
                (stars.end * ops).clamp(start, obs.end)
            };
            start..end
        }
    }

    /// The canonical shape battery [`LaunchPlan::analyze_canonical`] proves
    /// a plan against: a representative small system, a no-global variant,
    /// a degenerate shape with fewer items than chunks, an empty
    /// attitude/instrumental variant, and a large production-like shape.
    pub fn canonical() -> Vec<PlanDims> {
        vec![
            PlanDims {
                n_rows: 230,
                n_obs_rows: 200,
                n_stars: 40,
                n_att: 90,
                n_instr: 24,
                n_glob: 1,
            },
            PlanDims {
                n_rows: 230,
                n_obs_rows: 200,
                n_stars: 40,
                n_att: 90,
                n_instr: 24,
                n_glob: 0,
            },
            PlanDims {
                n_rows: 5,
                n_obs_rows: 3,
                n_stars: 2,
                n_att: 3,
                n_instr: 2,
                n_glob: 1,
            },
            PlanDims {
                n_rows: 64,
                n_obs_rows: 64,
                n_stars: 12,
                n_att: 0,
                n_instr: 0,
                n_glob: 1,
            },
            PlanDims {
                n_rows: 10_000,
                n_obs_rows: 9_000,
                n_stars: 1_500,
                n_att: 700,
                n_instr: 120,
                n_glob: 1,
            },
        ]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionId {
    /// The `aprod1` output rows.
    Aprod1,
    /// Astrometric columns (star-aligned, structurally collision-free).
    Astro,
    /// Attitude columns, wave 1.
    Att,
    /// Instrumental columns, wave 1.
    Instr,
    /// Global columns, wave 1.
    Glob,
    /// Attitude wave-2 reduction (replicated / lock-striped copy-back).
    AttReduction,
    /// Instrumental wave-2 reduction.
    InstrReduction,
    /// Global caller-side combine of replicated partials.
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

/// Which address space a [`ReadAccess`] range indexes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSpace {
    /// The launch's input vector (`x` for `aprod1`, `y` for `aprod2`), in
    /// that vector's own coordinates. Immutable for the launch's duration.
    Input,
    /// Row-major matrix coefficient arrays, global row coordinates.
    /// Immutable for the launch's duration.
    MatrixRows,
    /// The ELL mirror's slot-major arrays, global row coordinates. The
    /// launcher materializes the mirror *before* queueing jobs precisely
    /// so these reads never race its lazy construction.
    EllMirror,
    /// An output section, section-local coordinates — the one space writes
    /// also land in, and therefore the only space the race check inspects.
    Section(SectionId),
    /// The wave-1 private / stripe accumulators a wave-2 reduction reads,
    /// section-local coordinates.
    Privates(SectionId),
}

impl fmt::Display for ReadSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadSpace::Input => f.write_str("input"),
            ReadSpace::MatrixRows => f.write_str("matrix-rows"),
            ReadSpace::EllMirror => f.write_str("ell-mirror"),
            ReadSpace::Section(id) => write!(f, "section:{id}"),
            ReadSpace::Privates(id) => write!(f, "privates:{id}"),
        }
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

/// One range a job reads: address space, range, and the synchronization
/// the read runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadAccess {
    /// Address space the range indexes.
    pub space: ReadSpace,
    /// Half-open range read (coordinates per [`ReadSpace`]).
    pub range: Range<usize>,
    /// Synchronization discipline of the read.
    pub sync: ReadSync,
}

impl ReadAccess {
    /// A plain (unsynchronized) read.
    pub fn plain(space: ReadSpace, range: Range<usize>) -> Self {
        ReadAccess {
            space,
            range,
            sync: ReadSync::Plain,
        }
    }

    /// An atomic read (or the read half of an RMW).
    pub fn atomic(space: ReadSpace, range: Range<usize>) -> Self {
        ReadAccess {
            space,
            range,
            sync: ReadSync::Atomic,
        }
    }

    /// A read under the lock that guards the target's writes.
    pub fn locked(space: ReadSpace, range: Range<usize>) -> Self {
        ReadAccess {
            space,
            range,
            sync: ReadSync::Locked,
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
    /// Length of the section the ranges index into.
    pub section_len: usize,
    /// The span `Owned` write-sets must exactly tile. Full launches cover
    /// the whole section; a row-tile sub-launch only claims the span its
    /// rows touch (`aprod1` row tiles, star-aligned astrometric slices).
    pub cover: Range<usize>,
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
    /// A wave-1, full-cover, write-only model (reads attach via
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
            cover: 0..section_len,
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

    /// Restrict the span `Owned` writes must exactly tile.
    pub fn with_cover(mut self, cover: Range<usize>) -> Self {
        self.cover = cover;
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

/// Disjointness (and, for `Owned`, exact-coverage of the claimed span)
/// check over one section's write ranges.
fn check_exclusive(s: &SectionModel, require_cover: bool, violations: &mut Vec<PlanViolation>) {
    let mut ranges: Vec<Range<usize>> =
        s.writes.iter().filter(|r| !r.is_empty()).cloned().collect();
    ranges.sort_by_key(|r| (r.start, r.end));
    let mut cursor = s.cover.start;
    for r in &ranges {
        if r.start < cursor {
            // Report against the previous range that reached `cursor`.
            let prev = ranges
                .iter()
                .find(|p| p.end == cursor && p.start < r.start)
                .cloned()
                .unwrap_or(s.cover.start..cursor);
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
    if require_cover && cursor < s.cover.end {
        violations.push(PlanViolation::Gap {
            section: s.id,
            missing: cursor..s.cover.end,
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
/// writes without a pairing synchronization discipline. Only
/// [`ReadSpace::Section`] reads can race: the input vector, matrix arrays,
/// ELL mirror, and wave-1 privates are all immutable for the duration of
/// the wave that reads them. At most one violation is reported per read
/// access (the canary's 8 lanes would otherwise flood 56 copies of the
/// same race).
fn check_read_write_races(sections: &[SectionModel], violations: &mut Vec<PlanViolation>) {
    for (ai, a) in sections.iter().enumerate() {
        for (job, job_reads) in a.reads.iter().enumerate() {
            'reads: for rd in job_reads {
                let ReadSpace::Section(target) = rd.space else {
                    continue;
                };
                for (bi, b) in sections.iter().enumerate() {
                    if b.id != target || b.wave != a.wave {
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

/// The matrix space a kernel reads under `plan`'s layout: the ELL mirror
/// when the plan selects it, except for the single-column global kernels,
/// which are row-major unconditionally.
fn matrix_space(plan: &LaunchPlan, glob_kernel: bool) -> ReadSpace {
    if plan.matrix_layout == MatrixLayout::Ell && !glob_kernel {
        ReadSpace::EllMirror
    } else {
        ReadSpace::MatrixRows
    }
}

/// Lower one colliding-section strategy to its wave-1 model (and wave-2
/// reduction model, when the strategy defers one). Mirrors
/// `LaunchPlan::section_jobs` exactly, including the row span the
/// sub-launch restricts each stream to.
// The parameter list mirrors `section_jobs`' signature one-for-one; folding
// them into a struct would obscure that correspondence.
#[allow(clippy::too_many_arguments)]
fn lower_section(
    plan: &LaunchPlan,
    stream: Stream,
    wave1: SectionId,
    wave2: SectionId,
    rows: Range<usize>,
    section_len: usize,
    strategy: Aprod2Strategy,
    out: &mut Vec<SectionModel>,
) {
    if section_len == 0 {
        return;
    }
    let glob_stream = stream == Stream::Glob;
    match strategy {
        // A single global slot degenerates ownership and striping to one
        // exclusive reduction job (mirrors `glob_jobs`).
        Aprod2Strategy::OwnerComputes | Aprod2Strategy::LockStriped { .. } if glob_stream => {
            let reads = vec![vec![
                ReadAccess::plain(ReadSpace::Input, rows.clone()),
                ReadAccess::plain(ReadSpace::MatrixRows, rows),
                ReadAccess::plain(ReadSpace::Section(wave1), 0..section_len),
            ]];
            out.push(
                SectionModel::new(
                    wave1,
                    WriteAccess::Owned,
                    section_len,
                    vec![0..section_len; 1],
                )
                .with_reads(reads),
            );
        }
        Aprod2Strategy::OwnerComputes => {
            let chunks = plan.section_chunks(stream, section_len);
            let writes = split_ranges(section_len, chunks);
            let reads = writes
                .iter()
                .map(|own| {
                    vec![
                        ReadAccess::plain(ReadSpace::Input, rows.clone()),
                        ReadAccess::plain(matrix_space(plan, false), rows.clone()),
                        ReadAccess::plain(ReadSpace::Section(wave1), own.clone()),
                    ]
                })
                .collect();
            out.push(
                SectionModel::new(wave1, WriteAccess::Owned, section_len, writes).with_reads(reads),
            );
        }
        // Each job combines its chunk privately with the plan's full
        // kernel, then atomically adds into whichever columns it touched.
        Aprod2Strategy::Atomic | Aprod2Strategy::CasLoop => {
            let chunks = plan.section_chunks(stream, rows.len());
            let spans = split_span(rows, chunks);
            let reads = spans
                .iter()
                .map(|chunk| {
                    vec![
                        ReadAccess::plain(ReadSpace::Input, chunk.clone()),
                        ReadAccess::plain(matrix_space(plan, glob_stream), chunk.clone()),
                        ReadAccess::atomic(ReadSpace::Section(wave1), 0..section_len),
                    ]
                })
                .collect();
            out.push(
                SectionModel::new(
                    wave1,
                    WriteAccess::Atomic,
                    section_len,
                    vec![0..section_len; spans.len()],
                )
                .with_reads(reads),
            );
        }
        Aprod2Strategy::Replicated => {
            let chunks = plan.section_chunks(stream, rows.len());
            let spans = split_span(rows, chunks);
            let reads = spans
                .iter()
                .map(|chunk| {
                    vec![
                        ReadAccess::plain(ReadSpace::Input, chunk.clone()),
                        ReadAccess::plain(matrix_space(plan, glob_stream), chunk.clone()),
                    ]
                })
                .collect();
            out.push(
                SectionModel::new(
                    wave1,
                    WriteAccess::Private,
                    section_len,
                    vec![0..section_len; spans.len()],
                )
                .with_reads(reads),
            );
            // Wave 2: column-parallel owned reduction over the privates
            // (the single caller-side combine, for the global slot).
            let red_writes = if glob_stream {
                vec![0..section_len; 1]
            } else {
                split_ranges(section_len, plan.tuning.chunk_count(section_len))
            };
            let red_reads = red_writes
                .iter()
                .map(|own| {
                    vec![
                        ReadAccess::plain(ReadSpace::Privates(wave1), own.clone()),
                        ReadAccess::plain(ReadSpace::Section(wave2), own.clone()),
                    ]
                })
                .collect();
            out.push(
                SectionModel::new(wave2, WriteAccess::Owned, section_len, red_writes)
                    .with_wave(2)
                    .with_reads(red_reads),
            );
        }
        Aprod2Strategy::LockStriped { stripes } => {
            let chunks = plan.section_chunks(stream, rows.len());
            let spans = split_span(rows, chunks);
            let reads = spans
                .iter()
                .map(|chunk| {
                    vec![
                        ReadAccess::plain(ReadSpace::Input, chunk.clone()),
                        ReadAccess::plain(matrix_space(plan, false), chunk.clone()),
                        ReadAccess::locked(ReadSpace::Section(wave1), 0..section_len),
                    ]
                })
                .collect();
            out.push(
                SectionModel::new(
                    wave1,
                    WriteAccess::Locked,
                    section_len,
                    vec![0..section_len; spans.len()],
                )
                .with_reads(reads),
            );
            // Wave 2 copies each stripe accumulator back into its owned
            // slice of the section.
            let n_stripes = stripes.max(1).min(section_len);
            let red_writes = split_ranges(section_len, n_stripes);
            let red_reads = red_writes
                .iter()
                .map(|own| {
                    vec![
                        ReadAccess::locked(ReadSpace::Privates(wave1), own.clone()),
                        ReadAccess::plain(ReadSpace::Section(wave2), own.clone()),
                    ]
                })
                .collect();
            out.push(
                SectionModel::new(wave2, WriteAccess::Owned, section_len, red_writes)
                    .with_wave(2)
                    .with_reads(red_reads),
            );
        }
    }
}

/// Lower `plan` against `dims` restricted to a global row range — the
/// symbolic access model `aprod1_rows` + `aprod2_rows` would execute for a
/// row tile: one [`SectionModel`] per output section and deferred
/// reduction, in launch order. Each stream's reads and the spans `Owned`
/// writes must tile are clamped exactly the way the launcher clamps them
/// (attitude sees every row in the range, instrumental/global stop at the
/// observation rows, astrometric work is star-aligned).
pub fn access_model_rows(
    plan: &LaunchPlan,
    dims: &PlanDims,
    rows: Range<usize>,
) -> Vec<SectionModel> {
    let mut out = Vec::new();

    let att_rows = rows.start.min(dims.n_rows)..rows.end.min(dims.n_rows);
    let obs_rows = rows.start.min(dims.n_obs_rows)..rows.end.min(dims.n_obs_rows);

    // aprod1: row-range ownership over the output rows. The kernels gather
    // from the whole input vector (column-scattered nonzeros).
    let a1_writes = split_span(att_rows.clone(), plan.aprod1_chunks(att_rows.len()));
    let a1_reads = a1_writes
        .iter()
        .map(|r| {
            vec![
                ReadAccess::plain(ReadSpace::Input, 0..dims.n_cols()),
                ReadAccess::plain(matrix_space(plan, false), r.clone()),
                ReadAccess::plain(ReadSpace::Section(SectionId::Aprod1), r.clone()),
            ]
        })
        .collect();
    out.push(
        SectionModel::new(
            SectionId::Aprod1,
            WriteAccess::Owned,
            dims.n_rows,
            a1_writes,
        )
        .with_cover(att_rows.clone())
        .with_reads(a1_reads),
    );

    // Astrometric stream: star chunks own matching ×5 column slices.
    let n_astro = dims.n_stars * 5;
    let stars = dims.stars_for(&obs_rows);
    let star_spans = split_span(
        stars.clone(),
        plan.section_chunks(Stream::Astro, stars.len()),
    );
    let astro_reads = star_spans
        .iter()
        .map(|chunk| {
            let rows = dims.rows_for_stars(chunk, &obs_rows);
            vec![
                ReadAccess::plain(ReadSpace::Input, rows.clone()),
                ReadAccess::plain(matrix_space(plan, false), rows),
                ReadAccess::plain(
                    ReadSpace::Section(SectionId::Astro),
                    chunk.start * 5..chunk.end * 5,
                ),
            ]
        })
        .collect();
    out.push(
        SectionModel::new(
            SectionId::Astro,
            WriteAccess::Owned,
            n_astro,
            star_spans
                .into_iter()
                .map(|stars| stars.start * 5..stars.end * 5)
                .collect(),
        )
        .with_cover(stars.start * 5..stars.end * 5)
        .with_reads(astro_reads),
    );

    lower_section(
        plan,
        Stream::Att,
        SectionId::Att,
        SectionId::AttReduction,
        att_rows,
        dims.n_att,
        plan.spec.att,
        &mut out,
    );
    lower_section(
        plan,
        Stream::Instr,
        SectionId::Instr,
        SectionId::InstrReduction,
        obs_rows.clone(),
        dims.n_instr,
        plan.spec.instr,
        &mut out,
    );
    if dims.n_glob > 0 {
        lower_section(
            plan,
            Stream::Glob,
            SectionId::Glob,
            SectionId::GlobCombine,
            obs_rows,
            dims.n_glob,
            plan.spec.glob,
            &mut out,
        );
    }

    out
}

/// Lower `plan` against `dims` to the symbolic access model `aprod1` +
/// `aprod2` would execute over the full row range.
pub fn write_model(plan: &LaunchPlan, dims: &PlanDims) -> Vec<SectionModel> {
    access_model_rows(plan, dims, 0..dims.n_rows)
}

/// Verify `plan` against `dims`: lower to the access model, prove every
/// section sound (write disjointness *and* read/write race freedom), and
/// prove the streamed budget conserves the thread budget. Records an
/// `analyze` telemetry cell entry either way.
pub fn analyze_plan(plan: &LaunchPlan, dims: &PlanDims) -> Result<PlanProof, PlanError> {
    let model = write_model(plan, dims);
    let mut result = check_sections(&model);

    if plan.spec.budget == WorkerBudget::Streamed {
        let threads = plan.tuning.threads;
        let (astro, att, instr) = stream_worker_budget(threads);
        let effective = threads.max(4);
        let mut extra = Vec::new();
        if astro + att + instr > effective {
            extra.push(PlanViolation::BudgetOversubscribed {
                threads,
                effective,
                shares: (astro, att, instr),
            });
        }
        for (stream, share) in [("astro", astro), ("att", att), ("instr", instr)] {
            if share == 0 {
                extra.push(PlanViolation::StarvedStream { stream });
            }
        }
        if !extra.is_empty() {
            let mut violations = match result {
                Ok(_) => Vec::new(),
                Err(e) => e.violations,
            };
            violations.extend(extra);
            result = Err(PlanError { violations });
        }
    }

    let violation_count = match &result {
        Ok(_) => 0,
        Err(e) => e.violations.len(),
    } as u64;
    gaia_telemetry::record_analyze_plan(model.len() as u64, violation_count);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Aprod2Spec;
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

    /// Strip the layout-dependent half of a model: map ELL-mirror reads
    /// back to their row-major twins (same rows, different value arrays).
    fn normalize_layout(mut model: Vec<SectionModel>) -> Vec<SectionModel> {
        for s in &mut model {
            for reads in &mut s.reads {
                for r in reads {
                    if r.space == ReadSpace::EllMirror {
                        r.space = ReadSpace::MatrixRows;
                    }
                }
            }
        }
        model
    }

    /// The value layout changes the gather source, never access-sets: every
    /// layout must lower to the same sound model as the row-major plan, up
    /// to the matrix space the kernels gather from (`Ell` redirects those
    /// reads to the mirror; identical rows either way).
    #[test]
    fn every_layout_is_sound_on_canonical_dims() {
        use gaia_sparse::MatrixLayout;
        for strategy in STRATEGIES {
            for streamed in [false, true] {
                let base = plan(strategy, streamed);
                let row_major_model: Vec<_> = PlanDims::canonical()
                    .iter()
                    .map(|d| write_model(&base, d))
                    .collect();
                for layout in MatrixLayout::ALL {
                    let p = base.with_matrix_layout(layout);
                    p.analyze_canonical()
                        .unwrap_or_else(|e| panic!("{layout:?} {strategy:?} judged unsound:\n{e}"));
                    let model: Vec<_> = PlanDims::canonical()
                        .iter()
                        .map(|d| normalize_layout(write_model(&p, d)))
                        .collect();
                    assert_eq!(
                        model, row_major_model,
                        "{layout:?} changed the access model"
                    );
                }
            }
        }
    }

    /// Under the ELL layout every kernel's matrix read comes from the
    /// mirror, under every strategy — the atomic ones included, now that
    /// their jobs run the plan's full kernel. Only the single-column global
    /// kernels stay row-major.
    #[test]
    fn ell_layout_redirects_every_matrix_read_but_the_global_ones() {
        use gaia_sparse::MatrixLayout;
        let dims = &PlanDims::canonical()[0];
        for strategy in STRATEGIES {
            let p = plan(strategy, false).with_matrix_layout(MatrixLayout::Ell);
            for s in write_model(&p, dims) {
                let glob = matches!(s.id, SectionId::Glob | SectionId::GlobCombine);
                for rd in s.reads.iter().flatten() {
                    match rd.space {
                        ReadSpace::EllMirror => {
                            assert!(!glob, "[{}] global kernels are row-major", s.id)
                        }
                        ReadSpace::MatrixRows => {
                            assert!(glob, "[{}] {strategy:?} read row-major under Ell", s.id)
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// The model and the launcher agree for the atomic strategies under
    /// ELL: the attitude and instrumental jobs are modelled as mirror
    /// readers, the plan is sound on the canonical shapes, and what it
    /// executes matches `seq`.
    #[test]
    fn atomic_strategies_read_the_mirror_under_ell_and_match_seq() {
        use crate::{Backend, ExecutorPool, SeqBackend};
        use gaia_sparse::{Generator, GeneratorConfig, MatrixLayout, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::small()).seed(5)).generate();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; sys.n_cols()];
        SeqBackend.aprod2(&sys, &y, &mut want);
        let scale = want.iter().fold(1.0f64, |m, w| m.max(w.abs()));
        for strategy in [Aprod2Strategy::Atomic, Aprod2Strategy::CasLoop] {
            for threads in [1usize, 3, 8] {
                let p =
                    LaunchPlan::new(Tuning::with_threads(threads), Aprod2Spec::uniform(strategy))
                        .with_matrix_layout(MatrixLayout::Ell);
                p.analyze_canonical()
                    .unwrap_or_else(|e| panic!("{strategy:?} t{threads} judged unsound:\n{e}"));
                for s in write_model(&p, &PlanDims::for_system(&sys)) {
                    if !matches!(s.id, SectionId::Att | SectionId::Instr) {
                        continue;
                    }
                    assert_eq!(s.access, WriteAccess::Atomic);
                    for reads in &s.reads {
                        assert!(
                            reads.iter().any(|r| r.space == ReadSpace::EllMirror),
                            "[{}] {strategy:?} job does not read the mirror",
                            s.id
                        );
                        assert!(reads.iter().all(|r| r.space != ReadSpace::MatrixRows));
                    }
                }
                let mut got = vec![0.0; sys.n_cols()];
                p.aprod2(&ExecutorPool::new(threads), &sys, &y, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-12 * scale,
                        "{strategy:?} t{threads}: {g} vs {w}"
                    );
                }
            }
        }
    }

    /// Every job carries a read-set in the full model: the access model is
    /// total, not just patched onto some strategies.
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
                                !reads.is_empty(),
                                "[{}] {strategy:?} job {job} has no reads",
                                s.id
                            );
                        }
                    }
                }
            }
        }
    }

    /// Row-tile sub-launches clamp reads and cover to the tile: the
    /// attitude stream sees the whole row range, instrumental/global stop
    /// at the observation rows, and `aprod1`/astro only claim (and must
    /// exactly tile) the spans the tile touches.
    #[test]
    fn row_restricted_model_clamps_reads_and_cover_to_the_tile() {
        let dims = PlanDims {
            n_rows: 230,
            n_obs_rows: 200,
            n_stars: 40,
            n_att: 90,
            n_instr: 24,
            n_glob: 1,
        };
        // A star-aligned mid-system tile: rows 50..105 (stars 10..21).
        let p = plan(Aprod2Strategy::OwnerComputes, false);
        let model = access_model_rows(&p, &dims, 50..105);
        check_sections(&model).expect("restricted owner-computes model is sound");

        let a1 = model.iter().find(|s| s.id == SectionId::Aprod1).unwrap();
        assert_eq!(a1.cover, 50..105);
        assert!(a1.writes.iter().all(|w| w.start >= 50 && w.end <= 105));

        let astro = model.iter().find(|s| s.id == SectionId::Astro).unwrap();
        assert_eq!(astro.cover, 10 * 5..21 * 5);

        let att = model.iter().find(|s| s.id == SectionId::Att).unwrap();
        // Owner-computes partitions columns fully even in a sub-launch…
        assert_eq!(att.cover, 0..dims.n_att);
        // …but every job's input read is clamped to the tile's rows.
        for reads in &att.reads {
            let input = reads
                .iter()
                .find(|r| r.space == ReadSpace::Input)
                .expect("att job reads input");
            assert_eq!(input.range, 50..105);
        }

        let instr = model.iter().find(|s| s.id == SectionId::Instr).unwrap();
        for reads in &instr.reads {
            let input = reads
                .iter()
                .find(|r| r.space == ReadSpace::Input)
                .expect("instr job reads input");
            assert_eq!(input.range, 50..105, "instr clamps to obs rows");
        }

        // A constraint-tail tile past the observation rows: no astro /
        // instr / glob work, attitude and aprod1 restricted to the tail.
        let tail = access_model_rows(&p, &dims, 200..230);
        check_sections(&tail).expect("tail model is sound");
        let astro = tail.iter().find(|s| s.id == SectionId::Astro).unwrap();
        assert_eq!(astro.cover, 0..0);
        assert!(astro.writes.iter().all(Range::is_empty));
        let a1 = tail.iter().find(|s| s.id == SectionId::Aprod1).unwrap();
        assert_eq!(a1.cover, 200..230);
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
    fn restricted_cover_accepts_a_partial_tile_and_still_demands_it_whole() {
        // A row tile owning 50..105 exactly is sound…
        let ok = SectionModel::new(
            SectionId::Aprod1,
            WriteAccess::Owned,
            230,
            vec![50..80, 80..105],
        )
        .with_cover(50..105);
        check_sections(&[ok]).expect("exact tile cover is sound");
        // …but a gap inside the claimed tile is still a violation.
        let bad = SectionModel::new(
            SectionId::Aprod1,
            WriteAccess::Owned,
            230,
            vec![50..70, 80..105],
        )
        .with_cover(50..105);
        let err = check_sections(&[bad]).unwrap_err();
        assert!(
            err.violations.iter().any(|v| matches!(
                v,
                PlanViolation::Gap { missing, .. } if *missing == (70..80)
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
            .with_reads(vec![
                vec![ReadAccess::plain(
                    ReadSpace::Section(SectionId::Att),
                    0..90
                )];
                8
            ]);
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
                    ReadAccess::plain(ReadSpace::Section(SectionId::Att), 30..60),
                    ReadAccess::plain(ReadSpace::Section(SectionId::Instr), 0..10),
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
                vec![ReadAccess::atomic(
                    ReadSpace::Section(SectionId::Att),
                    0..90
                )];
                4
            ]);
        check_sections(&[atomic]).expect("atomic read/write pairs are sound");

        // Locked reads of a locked section pair up.
        let locked = SectionModel::new(SectionId::Att, WriteAccess::Locked, 90, vec![0..90; 4])
            .with_reads(vec![
                vec![ReadAccess::locked(
                    ReadSpace::Section(SectionId::Att),
                    0..90
                )];
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
        .with_reads(vec![
            vec![ReadAccess::plain(
                ReadSpace::Section(SectionId::Att),
                0..90
            )];
            2
        ]);
        check_sections(&[wave1, wave2]).expect("cross-wave reads are barrier-ordered");
    }

    #[test]
    fn a_jobs_read_of_its_own_exclusive_range_is_not_a_race() {
        let s = SectionModel::new(SectionId::Att, WriteAccess::Owned, 90, vec![0..45, 45..90])
            .with_reads(vec![
                vec![ReadAccess::plain(ReadSpace::Section(SectionId::Att), 0..45)],
                vec![ReadAccess::plain(
                    ReadSpace::Section(SectionId::Att),
                    45..90,
                )],
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
            n_obs_rows: 200,
            n_stars: 40,
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
            n_obs_rows: 64,
            n_stars: 12,
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
