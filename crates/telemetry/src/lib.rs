//! # gaia-telemetry
//!
//! Lightweight observability for the AVU-GSR solver: scoped monotonic
//! timers and counters keyed by *phase* (`aprod1`/`aprod2`) and *block*
//! (astrometric/attitude/instrumental/global), mirroring the per-kernel
//! timing the paper's profiling runs collect with `rocprof`/`nsys` on the
//! GPU ports (§V-B).
//!
//! The registry has two halves, both gated on the `enabled` cargo feature:
//!
//! * **kernel counters** — [`kernel_scope`], [`call_scope`] and
//!   [`collective_scope`] fire inside pool jobs, so they commit elapsed
//!   nanoseconds plus analytic byte/atomic counts to relaxed `AtomicU64`s
//!   on drop. Disabled, a [`Scope`] is zero-sized, no clock is read and
//!   the accounting arguments fold away.
//! * **every other cell** (pool, resilience, verify, analyze, serve, tune,
//!   tile) lives in one held [`TelemetrySnapshot`] behind a mutex, written
//!   only through [`record`]. Disabled, `record` never calls its closure.
//!
//! [`snapshot`] clones the held cells and fills in the kernel totals;
//! [`report::RunReport`] pairs a snapshot with solver convergence history
//! and [`report::write_report`] writes the JSON artifact under
//! `results/telemetry/`. [`kernel_table`] renders the ASCII breakdown the
//! bench binaries print.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

pub mod report;

/// Which sparse product a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `out += A x` (row-major product).
    Aprod1,
    /// `out += Aᵀ y` (column/scatter product).
    Aprod2,
}

impl Phase {
    /// Both phases, in registry order.
    pub const ALL: [Phase; 2] = [Phase::Aprod1, Phase::Aprod2];

    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Aprod1 => "aprod1",
            Phase::Aprod2 => "aprod2",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Aprod1 => 0,
            Phase::Aprod2 => 1,
        }
    }
}

/// Which parameter block of the Gaia system a kernel touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Astrometric (5 parameters per star, block-diagonal).
    Astro,
    /// Attitude (shared across rows).
    Att,
    /// Instrumental (shared across rows).
    Instr,
    /// Global (single shared slot).
    Glob,
}

impl Block {
    /// All blocks, in registry order.
    pub const ALL: [Block; 4] = [Block::Astro, Block::Att, Block::Instr, Block::Glob];

    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Block::Astro => "astro",
            Block::Att => "att",
            Block::Instr => "instr",
            Block::Glob => "glob",
        }
    }

    fn index(self) -> usize {
        match self {
            Block::Astro => 0,
            Block::Att => 1,
            Block::Instr => 2,
            Block::Glob => 3,
        }
    }
}

/// One accumulated cell of the snapshot: totals for a (phase, block)
/// kernel, a whole-call phase, or the collective channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCell {
    /// Phase name (`aprod1`/`aprod2`), or a channel label.
    pub phase: String,
    /// Block name (`astro`/`att`/`instr`/`glob`), or `"*"` for whole-call
    /// and collective cells.
    pub block: String,
    /// Number of recorded scopes.
    pub calls: u64,
    /// Total wall time inside the scopes.
    pub seconds: f64,
    /// Analytic estimate of bytes touched (coefficients + operands +
    /// outputs, each counted once per traversal).
    pub bytes: u64,
    /// Atomic read-modify-write (or CAS-retry-loop entry) count.
    pub atomic_rmws: u64,
}

/// Fault, breakdown, and recovery accounting of a resilient solve — the
/// robustness analogue of the per-kernel cells. Written by the resilient
/// supervisor in `gaia-lsqr::resilient` and the chaos bench.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ResilienceCell {
    /// Injected (or real) rank panics observed.
    pub rank_panics: u64,
    /// Corrupted allreduce payloads (bit-flips) observed.
    pub bit_flips: u64,
    /// Bounded collective delays (stragglers) observed.
    pub straggles: u64,
    /// Collective timeouts detected.
    pub timeouts: u64,
    /// Solves stopped by the numerical health guards.
    pub breakdowns: u64,
    /// Retry attempts launched by the supervisor.
    pub retries: u64,
    /// Retries that resumed from a periodic checkpoint (vs fresh).
    pub checkpoint_restores: u64,
    /// Rank-count degradations (re-shard over fewer ranks).
    pub degradations: u64,
    /// Wall-clock spent in failed attempts + backoff — the recovery
    /// overhead a chaos run pays on top of the clean solve time.
    pub recovery_seconds: f64,
}

impl ResilienceCell {
    /// True when nothing fault- or recovery-related was recorded.
    pub fn is_empty(&self) -> bool {
        *self == ResilienceCell::default()
    }

    /// Total injected faults observed.
    pub fn faults(&self) -> u64 {
        self.rank_panics + self.bit_flips + self.straggles + self.timeouts
    }

    /// Fold another cell into this one: every counter adds.
    pub fn merge(&mut self, delta: &ResilienceCell) {
        self.rank_panics += delta.rank_panics;
        self.bit_flips += delta.bit_flips;
        self.straggles += delta.straggles;
        self.timeouts += delta.timeouts;
        self.breakdowns += delta.breakdowns;
        self.retries += delta.retries;
        self.checkpoint_restores += delta.checkpoint_restores;
        self.degradations += delta.degradations;
        self.recovery_seconds += delta.recovery_seconds;
    }
}

/// Executor-pool launch accounting — recorded at the single choke point
/// every parallel backend now launches through (`gaia-backends`'s
/// `ExecutorPool`), instead of per-backend scaffolding. The spawn-vs-reuse
/// split is the CPU mirror of the paper's kernel-launch overhead axis: a
/// legacy spawn-per-call backend pays `jobs` thread spawns per solve, a
/// pooled one pays `workers_spawned` once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PoolCell {
    /// `run()` calls that dispatched jobs to pool workers.
    pub launches: u64,
    /// `run()` calls served inline on the caller (serial pool or a
    /// single-job launch) without touching the queue.
    pub inline_launches: u64,
    /// Total jobs executed (worker-run and caller-run).
    pub jobs: u64,
    /// OS worker threads spawned (pool constructions × pool size).
    pub workers_spawned: u64,
    /// Launches that reused already-parked workers (every launch after a
    /// pool's first).
    pub reused_launches: u64,
    /// Total time workers spent parked waiting for work.
    pub wait_seconds: f64,
}

impl PoolCell {
    /// True when no pool activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == PoolCell::default()
    }
}

/// Static-analysis accounting — how many launch plans the symbolic
/// checker (`gaia-backends`'s `LaunchPlan::analyze`) proved sound, how
/// many sections and violations it saw, and what the source lint engine
/// (`gaia-analyze`) scanned. The static mirror of [`VerifyCell`]: that
/// cell counts what the *dynamic* harness replayed, this one counts what
/// was proven before anything ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AnalyzeCell {
    /// Launch plans run through the symbolic soundness checker.
    pub plans_checked: u64,
    /// Output sections whose write-sets were verified (disjointness,
    /// cover, synchronization legality).
    pub sections_checked: u64,
    /// Plan violations detected (unsound plans rejected before launch).
    pub plan_violations: u64,
    /// Source files scanned by the lint engine.
    pub lint_files: u64,
    /// Unsuppressed lint diagnostics emitted.
    pub lint_diagnostics: u64,
    /// Justified `gaia-analyze: allow(...)` suppressions honored.
    pub lint_suppressions: u64,
    /// Functions whose bodies the dataflow checkers scanned (absent in
    /// pre-v2 artifacts, hence the serde default).
    #[serde(default)]
    pub dataflow_functions: u64,
    /// Atomic operation sites classified by the protocol checker.
    #[serde(default)]
    pub dataflow_atomic_sites: u64,
    /// Mutex/RwLock acquisition sites resolved by the lock-order checker.
    #[serde(default)]
    pub dataflow_lock_sites: u64,
}

impl AnalyzeCell {
    /// True when no static-analysis activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == AnalyzeCell::default()
    }
}

/// Auto-tuning accounting — what the launch-profile search (`gaia-bench
/// tune`) explored and what the `tuned` backend loaded back. The
/// search half records configurations measured and the wall-clock spent
/// inside timed sections; the load half records how many persisted
/// profiles were accepted, rejected, or substituted by the default plan at
/// solve time (`fallbacks`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TuneCell {
    /// Launch configurations the search measured.
    pub configs_explored: u64,
    /// Total timing repeats executed across configurations.
    pub measurements: u64,
    /// Wall-clock spent inside the tuner's timed kernel sections.
    pub measure_seconds: f64,
    /// Winning profiles persisted to disk.
    pub profiles_persisted: u64,
    /// Persisted profiles loaded and validated successfully.
    pub profiles_loaded: u64,
    /// Persisted profiles rejected (bad schema, field, or unsound plan).
    pub profiles_rejected: u64,
    /// `tuned`-backend resolutions that found no matching profile and ran
    /// the default plan instead.
    pub fallbacks: u64,
}

impl TuneCell {
    /// True when no tuning activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == TuneCell::default()
    }

    /// Fold another cell into this one: every counter adds.
    pub fn merge(&mut self, delta: &TuneCell) {
        self.configs_explored += delta.configs_explored;
        self.measurements += delta.measurements;
        self.measure_seconds += delta.measure_seconds;
        self.profiles_persisted += delta.profiles_persisted;
        self.profiles_loaded += delta.profiles_loaded;
        self.profiles_rejected += delta.profiles_rejected;
        self.fallbacks += delta.fallbacks;
    }
}

/// Per-tenant usage accounting inside a [`ServeCell`]: how many requests
/// a tenant ran to completion and how much solver wall-clock it consumed.
/// The fairness ledger of the serving layer — the overload bench asserts
/// quota enforcement from these rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TenantUsage {
    /// Tenant identifier (as passed in the solve request).
    pub tenant: String,
    /// Requests that reached a terminal outcome for this tenant.
    pub requests: u64,
    /// Solver wall-clock consumed by this tenant's requests.
    pub seconds: f64,
}

/// Serving-layer accounting — what the long-running solve service
/// (`gaia-serve`) admitted, shed, retried, and resolved. The multi-tenant
/// analogue of [`ResilienceCell`]: that cell counts faults inside one
/// supervised solve, this one counts request outcomes across concurrent
/// tenants sharing the executor pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServeCell {
    /// Requests submitted to the service (admitted + shed).
    pub submitted: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Admitted requests that reached a terminal outcome.
    pub completed: u64,
    /// Requests that converged at full quality.
    pub converged: u64,
    /// Requests that converged under degraded resources (fewer ranks or
    /// a shrunken thread share) — the graceful-degradation path.
    pub degraded: u64,
    /// Requests shed at admission (queue full, quota, open breaker, or
    /// shutdown).
    pub shed: u64,
    /// Requests that hit their deadline (in-queue or mid-solve).
    pub timed_out: u64,
    /// Retry attempts launched by the serving layer on behalf of faulted
    /// requests.
    pub retried: u64,
    /// Requests fast-failed by an open per-tenant circuit breaker.
    pub broken_circuit: u64,
    /// Requests that exhausted retries and resolved as faulted.
    pub faulted: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
    /// Per-tenant usage rows, merged by tenant name.
    pub tenants: Vec<TenantUsage>,
}

impl ServeCell {
    /// True when no serving activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == ServeCell::default()
    }

    /// Fold another cell into this one: counters add, the queue
    /// high-water mark takes the max, tenant rows merge by name.
    pub fn merge(&mut self, delta: &ServeCell) {
        self.submitted += delta.submitted;
        self.admitted += delta.admitted;
        self.completed += delta.completed;
        self.converged += delta.converged;
        self.degraded += delta.degraded;
        self.shed += delta.shed;
        self.timed_out += delta.timed_out;
        self.retried += delta.retried;
        self.broken_circuit += delta.broken_circuit;
        self.faulted += delta.faulted;
        self.max_queue_depth = self.max_queue_depth.max(delta.max_queue_depth);
        for row in &delta.tenants {
            match self.tenants.iter_mut().find(|t| t.tenant == row.tenant) {
                Some(t) => {
                    t.requests += row.requests;
                    t.seconds += row.seconds;
                }
                None => self.tenants.push(row.clone()),
            }
        }
    }
}

/// Out-of-core tile accounting — what the tiled solve path
/// (`gaia-sparse`'s `TiledSystem` driven by `gaia-lsqr`'s `TiledOperator`)
/// loaded, hit, and evicted while streaming the matrix through its
/// capacity-budgeted tile cache. The memory-capacity analogue of the
/// per-kernel cells: those count FLOP-side traffic, this one counts the
/// spill traffic paid to stay under a resident-bytes budget (the paper's
/// T4-vs-H100 capacity gating, §V-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TileCell {
    /// Tile loads (cache misses that read a tile file).
    pub loads: u64,
    /// Accesses served from already-resident tiles.
    pub hits: u64,
    /// Tiles evicted to stay under the capacity budget.
    pub evictions: u64,
    /// Total bytes loaded from the spill directory.
    pub loaded_bytes: u64,
    /// Total resident bytes released by evictions.
    pub evicted_bytes: u64,
    /// Bytes written to the spill directory (tile generation/spill).
    pub spilled_bytes: u64,
    /// High-water mark of resident tile bytes (compared against the
    /// configured budget by the capacity harness).
    pub peak_resident_bytes: u64,
}

impl TileCell {
    /// True when no tile activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == TileCell::default()
    }

    /// Fold another cell into this one: counters add, the resident
    /// high-water mark takes the max.
    pub fn merge(&mut self, delta: &TileCell) {
        self.loads += delta.loads;
        self.hits += delta.hits;
        self.evictions += delta.evictions;
        self.loaded_bytes += delta.loaded_bytes;
        self.evicted_bytes += delta.evicted_bytes;
        self.spilled_bytes += delta.spilled_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(delta.peak_resident_bytes);
    }

    /// Fraction of accesses served without touching disk.
    pub fn hit_rate(&self) -> f64 {
        let total = self.loads + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Verification accounting — schedule-exploration and metamorphic-suite
/// counters plus the worst cross-backend trajectory divergence observed,
/// in ULPs. Written by `gaia-verify`; the divergence cell is what the
/// `results/verify/*.json` artifacts summarize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct VerifyCell {
    /// Seeded adverse schedules replayed by the exploration driver.
    pub schedules: u64,
    /// Schedules whose result deviated beyond the subject's contract
    /// (bitwise stability or the tolerance bound).
    pub schedule_failures: u64,
    /// Metamorphic property checks executed.
    pub properties: u64,
    /// Metamorphic property checks that failed.
    pub property_failures: u64,
    /// Largest per-iteration ULP distance between any backend's LSQR
    /// trajectory coefficients (α/β/ρ̄) and the sequential reference.
    pub max_trajectory_ulp: u64,
}

impl VerifyCell {
    /// True when no verification activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == VerifyCell::default()
    }
}

/// Registry state: everything recorded since the last [`reset`]. The
/// registry holds one of these (kernel vectors empty) behind [`record`];
/// [`snapshot`] returns a copy with the kernel totals filled in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether the `enabled` feature was compiled in; when `false` all
    /// cells are empty and absent.
    pub enabled: bool,
    /// Per-(phase, block) kernel cells, zero-call cells omitted.
    pub kernels: Vec<KernelCell>,
    /// Whole-call per-phase cells (recorded by `InstrumentedBackend`).
    pub calls: Vec<KernelCell>,
    /// Collective (allreduce) channel, recorded by the distributed solver.
    pub collective: KernelCell,
    /// Fault/recovery accounting (absent in pre-resilience artifacts,
    /// hence the serde default).
    #[serde(default)]
    pub resilience: ResilienceCell,
    /// Executor-pool launch accounting (absent in pre-executor artifacts,
    /// hence the serde default).
    #[serde(default)]
    pub pool: PoolCell,
    /// Verification accounting (absent in pre-verify artifacts, hence the
    /// serde default).
    #[serde(default)]
    pub verify: VerifyCell,
    /// Static-analysis accounting (absent in pre-analyze artifacts, hence
    /// the serde default).
    #[serde(default)]
    pub analyze: AnalyzeCell,
    /// Serving-layer accounting (absent in pre-serve artifacts, hence the
    /// serde default).
    #[serde(default)]
    pub serve: ServeCell,
    /// Auto-tuning accounting (absent in pre-tune artifacts, hence the
    /// serde default).
    #[serde(default)]
    pub tune: TuneCell,
    /// Out-of-core tile accounting (absent in pre-tiling artifacts, hence
    /// the serde default).
    #[serde(default)]
    pub tile: TileCell,
}

impl TelemetrySnapshot {
    /// An empty snapshot (what [`snapshot`] returns when disabled).
    pub fn empty(enabled: bool) -> Self {
        TelemetrySnapshot {
            enabled,
            kernels: Vec::new(),
            calls: Vec::new(),
            collective: KernelCell {
                phase: "collective".into(),
                block: "*".into(),
                calls: 0,
                seconds: 0.0,
                bytes: 0,
                atomic_rmws: 0,
            },
            resilience: ResilienceCell::default(),
            pool: PoolCell::default(),
            verify: VerifyCell::default(),
            analyze: AnalyzeCell::default(),
            serve: ServeCell::default(),
            tune: TuneCell::default(),
            tile: TileCell::default(),
        }
    }

    /// Total seconds across the per-kernel cells of one phase.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.kernels
            .iter()
            .filter(|c| c.phase == phase.as_str())
            .map(|c| c.seconds)
            .sum()
    }
}

// ORDERING: every kernel counter is an independent, monotonically
// increasing accumulator. No reader infers cross-counter invariants from a
// snapshot (cells are advisory telemetry, not a synchronization protocol),
// so Relaxed is the weakest correct ordering for every load, store, and
// fetch_add below.

/// Relaxed-atomic totals behind one (phase, block) kernel, one whole-call
/// phase, or the collective channel. These are the only counters written
/// from inside pool jobs, so they stay lock-free.
struct Stats {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
    atomic_rmws: AtomicU64,
}

impl Stats {
    const fn new() -> Self {
        Stats {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            atomic_rmws: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.atomic_rmws.store(0, Ordering::Relaxed);
    }

    fn cell(&self, phase: &str, block: &str) -> KernelCell {
        KernelCell {
            phase: phase.into(),
            block: block.into(),
            calls: self.calls.load(Ordering::Relaxed),
            seconds: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            bytes: self.bytes.load(Ordering::Relaxed),
            atomic_rmws: self.atomic_rmws.load(Ordering::Relaxed),
        }
    }
}

static KERNELS: [[Stats; 4]; 2] = [const { [const { Stats::new() }; 4] }; 2];
static CALLS: [Stats; 2] = [const { Stats::new() }; 2];
static COLLECTIVE: Stats = Stats::new();

/// RAII timing probe returned by [`kernel_scope`], [`call_scope`], and
/// [`collective_scope`]: times from construction to drop and commits the
/// total into one kernel counter.
#[cfg(feature = "enabled")]
pub struct Scope {
    start: std::time::Instant,
    stats: &'static Stats,
    bytes: u64,
    rmws: u64,
}

/// RAII timing probe returned by [`kernel_scope`], [`call_scope`], and
/// [`collective_scope`]. The probes are compiled out: zero-sized, no clock
/// read, nothing recorded.
#[cfg(not(feature = "enabled"))]
pub struct Scope;

#[cfg(feature = "enabled")]
impl Scope {
    fn over(stats: &'static Stats) -> Scope {
        Scope {
            start: std::time::Instant::now(),
            stats,
            bytes: 0,
            rmws: 0,
        }
    }

    /// Attribute `bytes` of estimated memory traffic to this scope.
    pub fn add_bytes(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Attribute `rmws` atomic read-modify-writes to this scope.
    pub fn add_rmws(&mut self, rmws: u64) {
        self.rmws += rmws;
    }
}

#[cfg(feature = "enabled")]
impl Drop for Scope {
    fn drop(&mut self) {
        let s = self.stats;
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.nanos
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        s.bytes.fetch_add(self.bytes, Ordering::Relaxed);
        s.atomic_rmws.fetch_add(self.rmws, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "enabled"))]
impl Scope {
    #[inline(always)]
    fn over(_stats: &'static Stats) -> Scope {
        Scope
    }

    /// Attribute bytes of estimated memory traffic (no-op).
    #[inline(always)]
    pub fn add_bytes(&mut self, _bytes: u64) {}

    /// Attribute atomic read-modify-writes (no-op).
    #[inline(always)]
    pub fn add_rmws(&mut self, _rmws: u64) {}
}

/// Whether recording is compiled in (`enabled` cargo feature).
pub fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Open a timing scope over one (phase, block) kernel invocation. Commit
/// happens when the returned [`Scope`] drops.
#[inline(always)]
pub fn kernel_scope(phase: Phase, block: Block) -> Scope {
    Scope::over(&KERNELS[phase.index()][block.index()])
}

/// Open a timing scope over one whole `aprod1`/`aprod2` backend call
/// (used by `InstrumentedBackend`).
#[inline(always)]
pub fn call_scope(phase: Phase) -> Scope {
    Scope::over(&CALLS[phase.index()])
}

/// Open a timing scope over one collective (allreduce) operation.
#[inline(always)]
pub fn collective_scope() -> Scope {
    Scope::over(&COLLECTIVE)
}

/// The one write path for every non-kernel cell: run `f` on the held
/// snapshot under its lock. With the probes compiled out `f` is never
/// called, so neither it nor anything it computes costs anything.
///
/// The lock is a leaf and is not reentrant: `f` must only update fields
/// (directly, or through a cell's `merge`) and must never call back into
/// this crate.
///
/// ```
/// gaia_telemetry::record(|t| t.tune.fallbacks += 1);
/// ```
#[inline(always)]
pub fn record(f: impl FnOnce(&mut TelemetrySnapshot)) {
    #[cfg(feature = "enabled")]
    {
        static HELD: std::sync::Mutex<Option<TelemetrySnapshot>> = std::sync::Mutex::new(None);
        // A poisoned lock only means a panic mid-update of advisory
        // counters; keep the data rather than propagating the panic into
        // every later recorder.
        let mut held = HELD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(held.get_or_insert_with(|| TelemetrySnapshot::empty(true)));
    }
    #[cfg(not(feature = "enabled"))]
    let _ = f;
}

/// Zero every counter (start of a measured run).
pub fn reset() {
    for stats in KERNELS.iter().flatten().chain(&CALLS).chain([&COLLECTIVE]) {
        stats.reset();
    }
    record(|t| *t = TelemetrySnapshot::empty(true));
}

/// Freeze the registry into a serializable snapshot: the held cells plus
/// the kernel, whole-call and collective totals. With the probes compiled
/// out this is [`TelemetrySnapshot::empty`] with `enabled: false`.
pub fn snapshot() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::empty(false);
    record(|t| snap = t.clone());
    for phase in Phase::ALL {
        for block in Block::ALL {
            let cell = KERNELS[phase.index()][block.index()].cell(phase.as_str(), block.as_str());
            if cell.calls > 0 {
                snap.kernels.push(cell);
            }
        }
        let call = CALLS[phase.index()].cell(phase.as_str(), "*");
        if call.calls > 0 {
            snap.calls.push(call);
        }
    }
    snap.collective = COLLECTIVE.cell("collective", "*");
    snap
}

/// Render the ASCII per-kernel breakdown table for a snapshot.
///
/// One row per non-empty kernel cell, then the whole-call and collective
/// totals, then one line per non-empty pool, resilience, verify, analyze,
/// tile, serve and tune cell. Times in seconds and mean microseconds,
/// traffic in MiB, atomics in millions.
pub fn kernel_table(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
        "kernel", "calls", "total s", "mean µs", "MiB", "Matomic"
    ));
    let mut row = |label: &str, c: &KernelCell| {
        let mean_us = if c.calls > 0 {
            c.seconds * 1e6 / c.calls as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<14} {:>8} {:>12.6} {:>10.2} {:>10.2} {:>10.3}\n",
            label,
            c.calls,
            c.seconds,
            mean_us,
            c.bytes as f64 / (1024.0 * 1024.0),
            c.atomic_rmws as f64 / 1e6,
        ));
    };
    for c in &snap.kernels {
        row(&format!("{}/{}", c.phase, c.block), c);
    }
    for c in &snap.calls {
        row(&format!("{} (call)", c.phase), c);
    }
    if snap.collective.calls > 0 {
        let collective = snap.collective.clone();
        row("collective", &collective);
    }
    if snap.kernels.is_empty() && snap.calls.is_empty() && snap.collective.calls == 0 {
        out.push_str(if snap.enabled {
            "(nothing recorded)\n"
        } else {
            "(telemetry disabled; rebuild with the `telemetry` feature)\n"
        });
    }
    if !snap.pool.is_empty() {
        let p = &snap.pool;
        out.push_str(&format!(
            "pool: {} launch(es) ({} inline, {} reused workers), {} job(s), \
             {} worker(s) spawned, {:.6} s worker wait\n",
            p.launches + p.inline_launches,
            p.inline_launches,
            p.reused_launches,
            p.jobs,
            p.workers_spawned,
            p.wait_seconds,
        ));
    }
    if !snap.resilience.is_empty() {
        let r = &snap.resilience;
        out.push_str(&format!(
            "resilience: {} fault(s) (panics {}, flips {}, straggles {}, \
             timeouts {}), {} breakdown(s), {} retr{}, {} restore(s), \
             {} degradation(s), {:.3} s recovering\n",
            r.faults(),
            r.rank_panics,
            r.bit_flips,
            r.straggles,
            r.timeouts,
            r.breakdowns,
            r.retries,
            if r.retries == 1 { "y" } else { "ies" },
            r.checkpoint_restores,
            r.degradations,
            r.recovery_seconds,
        ));
    }
    if !snap.verify.is_empty() {
        let v = &snap.verify;
        out.push_str(&format!(
            "verify: {} schedule(s) ({} failed), {} propert{} ({} failed), \
             max trajectory divergence {} ulp\n",
            v.schedules,
            v.schedule_failures,
            v.properties,
            if v.properties == 1 { "y" } else { "ies" },
            v.property_failures,
            v.max_trajectory_ulp,
        ));
    }
    if !snap.analyze.is_empty() {
        let a = &snap.analyze;
        out.push_str(&format!(
            "analyze: {} plan(s) checked ({} section(s), {} violation(s)), \
             {} file(s) linted ({} diagnostic(s), {} suppression(s)), \
             dataflow over {} fn(s) ({} atomic site(s), {} lock site(s))\n",
            a.plans_checked,
            a.sections_checked,
            a.plan_violations,
            a.lint_files,
            a.lint_diagnostics,
            a.lint_suppressions,
            a.dataflow_functions,
            a.dataflow_atomic_sites,
            a.dataflow_lock_sites,
        ));
    }
    if !snap.tile.is_empty() {
        let t = &snap.tile;
        out.push_str(&format!(
            "tile: {} load(s), {} hit(s) ({:.1}% hit rate), {} eviction(s), \
             {:.2} MiB loaded, {:.2} MiB evicted, {:.2} MiB spilled, \
             peak resident {:.2} MiB\n",
            t.loads,
            t.hits,
            t.hit_rate() * 100.0,
            t.evictions,
            t.loaded_bytes as f64 / (1024.0 * 1024.0),
            t.evicted_bytes as f64 / (1024.0 * 1024.0),
            t.spilled_bytes as f64 / (1024.0 * 1024.0),
            t.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        ));
    }
    if !snap.serve.is_empty() {
        let s = &snap.serve;
        out.push_str(&format!(
            "serve: {} request(s) ({} admitted, {} shed), {} completed \
             ({} converged, {} degraded, {} timed out, {} faulted), \
             {} retr{}, {} circuit-broken, queue depth ≤ {}, {} tenant(s)\n",
            s.submitted,
            s.admitted,
            s.shed,
            s.completed,
            s.converged,
            s.degraded,
            s.timed_out,
            s.faulted,
            s.retried,
            if s.retried == 1 { "y" } else { "ies" },
            s.broken_circuit,
            s.max_queue_depth,
            s.tenants.len(),
        ));
    }
    if !snap.tune.is_empty() {
        let t = &snap.tune;
        out.push_str(&format!(
            "tune: {} config(s) explored ({} measurement(s), {:.3} s measured), \
             {} profile(s) persisted, {} loaded, {} rejected, {} fallback(s)\n",
            t.configs_explored,
            t.measurements,
            t.measure_seconds,
            t.profiles_persisted,
            t.profiles_loaded,
            t.profiles_rejected,
            t.fallbacks,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and the tests that record into it
    /// also `reset()` it, so they take turns rather than race.
    #[cfg(feature = "enabled")]
    fn registry() -> std::sync::MutexGuard<'static, ()> {
        static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn kernel(phase: &str, block: &str, calls: u64) -> KernelCell {
        KernelCell {
            phase: phase.into(),
            block: block.into(),
            calls,
            seconds: 0.25,
            bytes: 1024 * 1024,
            atomic_rmws: 7,
        }
    }

    /// A snapshot with every cell, every field, and one row in every
    /// vector set to a non-default value.
    fn populated() -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: true,
            kernels: vec![kernel("aprod1", "astro", 4)],
            calls: vec![kernel("aprod1", "*", 4)],
            collective: kernel("collective", "*", 3),
            resilience: ResilienceCell {
                rank_panics: 1,
                bit_flips: 2,
                straggles: 3,
                timeouts: 4,
                breakdowns: 5,
                retries: 6,
                checkpoint_restores: 7,
                degradations: 8,
                recovery_seconds: 0.5,
            },
            pool: PoolCell {
                launches: 1,
                inline_launches: 2,
                jobs: 3,
                workers_spawned: 4,
                reused_launches: 5,
                wait_seconds: 0.5,
            },
            verify: VerifyCell {
                schedules: 1,
                schedule_failures: 2,
                properties: 3,
                property_failures: 4,
                max_trajectory_ulp: 5,
            },
            analyze: AnalyzeCell {
                plans_checked: 1,
                sections_checked: 2,
                plan_violations: 3,
                lint_files: 4,
                lint_diagnostics: 5,
                lint_suppressions: 6,
                dataflow_functions: 7,
                dataflow_atomic_sites: 8,
                dataflow_lock_sites: 9,
            },
            serve: ServeCell {
                submitted: 1,
                admitted: 2,
                completed: 3,
                converged: 4,
                degraded: 5,
                shed: 6,
                timed_out: 7,
                retried: 8,
                broken_circuit: 9,
                faulted: 10,
                max_queue_depth: 11,
                tenants: vec![TenantUsage {
                    tenant: "dr4".into(),
                    requests: 1,
                    seconds: 0.5,
                }],
            },
            tune: TuneCell {
                configs_explored: 1,
                measurements: 2,
                measure_seconds: 0.5,
                profiles_persisted: 3,
                profiles_loaded: 4,
                profiles_rejected: 5,
                fallbacks: 6,
            },
            tile: TileCell {
                loads: 1,
                hits: 2,
                evictions: 3,
                loaded_bytes: 4,
                evicted_bytes: 5,
                spilled_bytes: 6,
                peak_resident_bytes: 7,
            },
        }
    }

    #[test]
    fn phase_and_block_names_are_stable() {
        assert_eq!(Phase::Aprod1.as_str(), "aprod1");
        assert_eq!(Phase::Aprod2.as_str(), "aprod2");
        let names: Vec<&str> = Block::ALL.iter().map(|b| b.as_str()).collect();
        assert_eq!(names, ["astro", "att", "instr", "glob"]);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn scopes_accumulate_into_the_registry() {
        let _registry = registry();
        reset();
        {
            let mut s = kernel_scope(Phase::Aprod2, Block::Att);
            s.add_bytes(1024);
            s.add_rmws(12);
        }
        {
            let mut s = kernel_scope(Phase::Aprod2, Block::Att);
            s.add_bytes(1024);
            s.add_rmws(12);
        }
        let _ = call_scope(Phase::Aprod2);
        let _ = collective_scope();
        let snap = snapshot();
        assert!(snap.enabled);
        let att = snap
            .kernels
            .iter()
            .find(|c| c.phase == "aprod2" && c.block == "att")
            .expect("att cell recorded");
        assert_eq!(att.calls, 2);
        assert_eq!(att.bytes, 2048);
        assert_eq!(att.atomic_rmws, 24);
        assert!(att.seconds >= 0.0);
        assert_eq!(snap.calls.len(), 1);
        assert_eq!(snap.collective.calls, 1);
        assert!(snap.phase_seconds(Phase::Aprod2) >= att.seconds);
        reset();
        assert!(snapshot().kernels.is_empty());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_probes_record_nothing() {
        {
            let mut s = kernel_scope(Phase::Aprod1, Block::Astro);
            s.add_bytes(u64::MAX);
            s.add_rmws(u64::MAX);
        }
        assert_eq!(std::mem::size_of::<Scope>(), 0);
        record(|_| panic!("the compiled-out gate ran its closure"));
        reset();
        let snap = snapshot();
        assert_eq!(snap, TelemetrySnapshot::empty(false));
        assert!(!is_enabled());
    }

    #[test]
    fn table_renders_every_cell() {
        let table = kernel_table(&populated());
        let lines: Vec<&str> = table.lines().collect();
        let prefixes = [
            "kernel ",
            "aprod1/astro ",
            "aprod1 (call) ",
            "collective ",
            "pool: ",
            "resilience: ",
            "verify: ",
            "analyze: ",
            "tile: ",
            "serve: ",
            "tune: ",
        ];
        assert_eq!(lines.len(), prefixes.len(), "{table}");
        for (line, prefix) in lines.iter().zip(prefixes) {
            assert!(
                line.starts_with(prefix),
                "{prefix:?} out of place:\n{table}"
            );
        }
        let empty = kernel_table(&TelemetrySnapshot::empty(false));
        assert!(empty.contains("telemetry disabled"));
    }

    /// Every key of a fully populated snapshot's JSON, as dotted paths
    /// (`[]` marks a vector's rows). CI and the `results/telemetry/*.json`
    /// readers address these names, so a rename must fail here.
    #[test]
    fn snapshot_schema_is_pinned() {
        fn keys(prefix: &str, value: &serde_json::Value, out: &mut Vec<String>) {
            match value {
                serde_json::Value::Object(fields) => {
                    for (k, v) in fields.iter() {
                        let path = format!("{prefix}{k}");
                        out.push(path.clone());
                        keys(&format!("{path}."), v, out);
                    }
                }
                serde_json::Value::Array(rows) => {
                    for row in rows {
                        keys(&format!("{}[].", prefix.trim_end_matches('.')), row, out);
                    }
                }
                _ => {}
            }
        }
        let mut got = Vec::new();
        keys("", &serde_json::to_value(populated()).unwrap(), &mut got);
        got.sort();
        got.dedup();
        let cell = ["atomic_rmws", "block", "bytes", "calls", "phase", "seconds"];
        let mut want: Vec<String> = ["calls[]", "collective", "kernels[]"]
            .iter()
            .flat_map(|c| cell.iter().map(move |f| format!("{c}.{f}")))
            .collect();
        want.extend(
            [
                "analyze",
                "analyze.dataflow_atomic_sites",
                "analyze.dataflow_functions",
                "analyze.dataflow_lock_sites",
                "analyze.lint_diagnostics",
                "analyze.lint_files",
                "analyze.lint_suppressions",
                "analyze.plan_violations",
                "analyze.plans_checked",
                "analyze.sections_checked",
                "calls",
                "collective",
                "enabled",
                "kernels",
                "pool",
                "pool.inline_launches",
                "pool.jobs",
                "pool.launches",
                "pool.reused_launches",
                "pool.wait_seconds",
                "pool.workers_spawned",
                "resilience",
                "resilience.bit_flips",
                "resilience.breakdowns",
                "resilience.checkpoint_restores",
                "resilience.degradations",
                "resilience.rank_panics",
                "resilience.recovery_seconds",
                "resilience.retries",
                "resilience.straggles",
                "resilience.timeouts",
                "serve",
                "serve.admitted",
                "serve.broken_circuit",
                "serve.completed",
                "serve.converged",
                "serve.degraded",
                "serve.faulted",
                "serve.max_queue_depth",
                "serve.retried",
                "serve.shed",
                "serve.submitted",
                "serve.tenants",
                "serve.tenants[].requests",
                "serve.tenants[].seconds",
                "serve.tenants[].tenant",
                "serve.timed_out",
                "tile",
                "tile.evicted_bytes",
                "tile.evictions",
                "tile.hits",
                "tile.loaded_bytes",
                "tile.loads",
                "tile.peak_resident_bytes",
                "tile.spilled_bytes",
                "tune",
                "tune.configs_explored",
                "tune.fallbacks",
                "tune.measure_seconds",
                "tune.measurements",
                "tune.profiles_loaded",
                "tune.profiles_persisted",
                "tune.profiles_rejected",
                "verify",
                "verify.max_trajectory_ulp",
                "verify.properties",
                "verify.property_failures",
                "verify.schedule_failures",
                "verify.schedules",
            ]
            .map(String::from),
        );
        want.sort();
        assert_eq!(got, want);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn resilience_deltas_accumulate_and_reset() {
        let _registry = registry();
        reset();
        record(|t| {
            t.resilience.merge(&ResilienceCell {
                rank_panics: 1,
                bit_flips: 2,
                recovery_seconds: 0.5,
                ..Default::default()
            })
        });
        record(|t| {
            t.resilience.merge(&ResilienceCell {
                retries: 3,
                checkpoint_restores: 2,
                degradations: 1,
                recovery_seconds: 1.0,
                ..Default::default()
            })
        });
        let snap = snapshot();
        assert_eq!(snap.resilience.rank_panics, 1);
        assert_eq!(snap.resilience.bit_flips, 2);
        assert_eq!(snap.resilience.retries, 3);
        assert_eq!(snap.resilience.checkpoint_restores, 2);
        assert_eq!(snap.resilience.faults(), 3);
        assert!((snap.resilience.recovery_seconds - 1.5).abs() < 1e-6);
        let table = kernel_table(&snap);
        assert!(table.contains("resilience:"), "{table}");
        reset();
        assert!(snapshot().resilience.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn verify_counters_accumulate_and_reset() {
        let _registry = registry();
        reset();
        let schedule = |failed: bool| {
            record(|t| {
                t.verify.schedules += 1;
                t.verify.schedule_failures += u64::from(failed);
            })
        };
        let property = |failed: bool| {
            record(|t| {
                t.verify.properties += 1;
                t.verify.property_failures += u64::from(failed);
            })
        };
        let ulp =
            |d: u64| record(|t| t.verify.max_trajectory_ulp = t.verify.max_trajectory_ulp.max(d));
        schedule(false);
        schedule(true);
        schedule(false);
        property(false);
        property(true);
        ulp(3);
        ulp(17);
        ulp(5);
        let snap = snapshot();
        assert_eq!(snap.verify.schedules, 3);
        assert_eq!(snap.verify.schedule_failures, 1);
        assert_eq!(snap.verify.properties, 2);
        assert_eq!(snap.verify.property_failures, 1);
        assert_eq!(snap.verify.max_trajectory_ulp, 17);
        let table = kernel_table(&snap);
        assert!(table.contains("verify:"), "{table}");
        reset();
        assert!(snapshot().verify.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn analyze_counters_accumulate_and_reset() {
        let _registry = registry();
        reset();
        let plan = |sections: u64, violations: u64| {
            record(|t| {
                t.analyze.plans_checked += 1;
                t.analyze.sections_checked += sections;
                t.analyze.plan_violations += violations;
            })
        };
        let dataflow = |functions: u64, atomic_sites: u64, lock_sites: u64| {
            record(|t| {
                t.analyze.dataflow_functions += functions;
                t.analyze.dataflow_atomic_sites += atomic_sites;
                t.analyze.dataflow_lock_sites += lock_sites;
            })
        };
        plan(6, 0);
        plan(4, 2);
        record(|t| {
            t.analyze.lint_files += 31;
            t.analyze.lint_diagnostics += 3;
            t.analyze.lint_suppressions += 5;
        });
        dataflow(120, 14, 9);
        dataflow(1, 1, 1);
        let snap = snapshot();
        assert_eq!(snap.analyze.plans_checked, 2);
        assert_eq!(snap.analyze.sections_checked, 10);
        assert_eq!(snap.analyze.plan_violations, 2);
        assert_eq!(snap.analyze.lint_files, 31);
        assert_eq!(snap.analyze.lint_diagnostics, 3);
        assert_eq!(snap.analyze.lint_suppressions, 5);
        assert_eq!(snap.analyze.dataflow_functions, 121);
        assert_eq!(snap.analyze.dataflow_atomic_sites, 15);
        assert_eq!(snap.analyze.dataflow_lock_sites, 10);
        let table = kernel_table(&snap);
        assert!(table.contains("analyze:"), "{table}");
        assert!(table.contains("dataflow over"), "{table}");
        reset();
        assert!(snapshot().analyze.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn serve_deltas_accumulate_merge_tenants_and_reset() {
        let _registry = registry();
        reset();
        record(|t| {
            t.serve.merge(&ServeCell {
                submitted: 4,
                admitted: 3,
                shed: 1,
                completed: 3,
                converged: 2,
                degraded: 1,
                max_queue_depth: 5,
                tenants: vec![TenantUsage {
                    tenant: "dr4".into(),
                    requests: 3,
                    seconds: 0.5,
                }],
                ..Default::default()
            })
        });
        record(|t| {
            t.serve.merge(&ServeCell {
                submitted: 2,
                admitted: 2,
                completed: 2,
                timed_out: 1,
                faulted: 1,
                retried: 2,
                broken_circuit: 1,
                max_queue_depth: 3,
                tenants: vec![
                    TenantUsage {
                        tenant: "dr4".into(),
                        requests: 1,
                        seconds: 0.25,
                    },
                    TenantUsage {
                        tenant: "dr5".into(),
                        requests: 1,
                        seconds: 0.125,
                    },
                ],
                ..Default::default()
            })
        });
        let snap = snapshot();
        assert_eq!(snap.serve.submitted, 6);
        assert_eq!(snap.serve.admitted, 5);
        assert_eq!(snap.serve.shed, 1);
        assert_eq!(snap.serve.completed, 5);
        assert_eq!(snap.serve.timed_out, 1);
        assert_eq!(snap.serve.retried, 2);
        assert_eq!(snap.serve.broken_circuit, 1);
        assert_eq!(snap.serve.max_queue_depth, 5, "high-water mark is a max");
        assert_eq!(snap.serve.tenants.len(), 2, "tenant rows merge by name");
        let dr4 = snap
            .serve
            .tenants
            .iter()
            .find(|t| t.tenant == "dr4")
            .expect("dr4 row");
        assert_eq!(dr4.requests, 4);
        assert!((dr4.seconds - 0.75).abs() < 1e-9);
        let table = kernel_table(&snap);
        assert!(table.contains("serve:"), "{table}");
        reset();
        assert!(snapshot().serve.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn tile_counters_accumulate_peak_is_a_max_and_reset() {
        let _registry = registry();
        reset();
        record(|t| {
            t.tile.merge(&TileCell {
                loads: 3,
                hits: 1,
                evictions: 2,
                loaded_bytes: 300,
                evicted_bytes: 200,
                peak_resident_bytes: 150,
                ..Default::default()
            })
        });
        record(|t| {
            t.tile.merge(&TileCell {
                loads: 1,
                hits: 7,
                peak_resident_bytes: 120,
                ..Default::default()
            })
        });
        record(|t| t.tile.spilled_bytes += 4096);
        let snap = snapshot();
        assert_eq!(snap.tile.loads, 4);
        assert_eq!(snap.tile.hits, 8);
        assert_eq!(snap.tile.evictions, 2);
        assert_eq!(snap.tile.loaded_bytes, 300);
        assert_eq!(snap.tile.evicted_bytes, 200);
        assert_eq!(snap.tile.spilled_bytes, 4096);
        assert_eq!(
            snap.tile.peak_resident_bytes, 150,
            "peak is a high-water mark, not a sum"
        );
        assert!((snap.tile.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
        let table = kernel_table(&snap);
        assert!(table.contains("tile:"), "{table}");
        reset();
        assert!(snapshot().tile.is_empty());
    }

    #[test]
    fn pre_resilience_snapshots_still_deserialize() {
        // Artifacts written before the resilience cell existed lack the
        // field; serde's default must fill it in.
        let old = r#"{
            "enabled": true,
            "kernels": [],
            "calls": [],
            "collective": {
                "phase": "collective", "block": "*",
                "calls": 0, "seconds": 0.0, "bytes": 0, "atomic_rmws": 0
            }
        }"#;
        let back: TelemetrySnapshot = serde_json::from_str(old).unwrap();
        assert!(back.resilience.is_empty());
        assert!(back.enabled);
    }

    #[test]
    fn reports_with_a_gate_cell_still_deserialize() {
        // Run reports written while the perf gate existed carry a `gate`
        // object; it is ignored and every other cell reads back intact.
        let mut snap = TelemetrySnapshot::empty(true);
        snap.pool.launches = 3;
        snap.tune.profiles_loaded = 2;
        snap.tile.hits = 5;
        let mut value = serde_json::to_value(&snap).expect("serialize");
        let serde_json::Value::Object(fields) = &mut value else {
            panic!("a snapshot serializes to an object")
        };
        fields.insert(
            "gate".into(),
            serde_json::json!({
                "cells_measured": 15, "repeats": 105, "cells_compared": 15,
                "regressions": 2, "improvements": 1, "new_cells": 3,
                "measure_seconds": 1.25
            }),
        );
        let back: TelemetrySnapshot = serde_json::from_value(&value).expect("deserialize");
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = TelemetrySnapshot::empty(true);
        snap.kernels.push(KernelCell {
            phase: "aprod2".into(),
            block: "instr".into(),
            calls: 7,
            seconds: 1.5,
            bytes: 42,
            atomic_rmws: 99,
        });
        let json = serde_json::to_string_pretty(&snap).expect("serialize");
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
