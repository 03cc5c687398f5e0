//! # gaia-telemetry
//!
//! Lightweight observability for the AVU-GSR solver: scoped monotonic
//! timers and atomic counters keyed by *phase* (`aprod1`/`aprod2`) and
//! *block* (astrometric/attitude/instrumental/global), mirroring the
//! per-kernel timing the paper's profiling runs collect with `rocprof`/
//! `nsys` on the GPU ports (§V-B).
//!
//! The whole crate is gated on the `enabled` cargo feature:
//!
//! * **disabled (default)** — every probe ([`kernel_scope`],
//!   [`call_scope`], [`collective_scope`]) is a zero-sized no-op and the
//!   byte/RMW accounting arguments fold away, so instrumented kernels are
//!   bit-identical in cost to un-instrumented ones. No clock is read, no
//!   allocation happens.
//! * **enabled** — scopes read `Instant` on entry and commit elapsed
//!   nanoseconds plus analytic byte/atomic counts to a global registry of
//!   relaxed `AtomicU64`s on drop. The hot path still never allocates;
//!   counts are O(1) per *call*, never per element.
//!
//! [`snapshot`] freezes the registry into the serializable
//! [`TelemetrySnapshot`]; [`report::RunReport`] pairs a snapshot with
//! solver convergence history and [`report::write_report`] writes the JSON
//! artifact under `results/telemetry/`. [`kernel_table`] renders the
//! ASCII per-kernel breakdown the bench binaries print.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

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

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
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

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
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
/// --bin tune`) explored and what the `tuned` backend loaded back. The
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

/// Frozen registry state: everything recorded since the last [`reset`].
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

#[cfg(feature = "enabled")]
mod imp {
    use super::{Block, Phase};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    // ORDERING: every counter in this registry is an independent,
    // monotonically increasing accumulator. No reader infers cross-counter
    // invariants from a snapshot (cells are advisory telemetry, not a
    // synchronization protocol), so Relaxed is the weakest correct ordering
    // for every load, store, fetch_add, and fetch_max below.

    pub struct Stats {
        pub calls: AtomicU64,
        pub nanos: AtomicU64,
        pub bytes: AtomicU64,
        pub atomic_rmws: AtomicU64,
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

        fn record(&self, nanos: u64, bytes: u64, rmws: u64) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.nanos.fetch_add(nanos, Ordering::Relaxed);
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
            self.atomic_rmws.fetch_add(rmws, Ordering::Relaxed);
        }

        pub fn cell(&self, phase: &str, block: &str) -> super::KernelCell {
            super::KernelCell {
                phase: phase.into(),
                block: block.into(),
                calls: self.calls.load(Ordering::Relaxed),
                seconds: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                bytes: self.bytes.load(Ordering::Relaxed),
                atomic_rmws: self.atomic_rmws.load(Ordering::Relaxed),
            }
        }
    }

    // `const` is deliberate: these are array-repeat initializers for the
    // static registry below, never read as values themselves.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: Stats = Stats::new();
    #[allow(clippy::declare_interior_mutable_const)]
    const ROW: [Stats; 4] = [ZERO; 4];

    /// Atomic mirror of [`super::ResilienceCell`]; seconds kept as nanos.
    pub struct Resilience {
        pub rank_panics: AtomicU64,
        pub bit_flips: AtomicU64,
        pub straggles: AtomicU64,
        pub timeouts: AtomicU64,
        pub breakdowns: AtomicU64,
        pub retries: AtomicU64,
        pub checkpoint_restores: AtomicU64,
        pub degradations: AtomicU64,
        pub recovery_nanos: AtomicU64,
    }

    impl Resilience {
        const fn new() -> Self {
            Resilience {
                rank_panics: AtomicU64::new(0),
                bit_flips: AtomicU64::new(0),
                straggles: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                breakdowns: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                checkpoint_restores: AtomicU64::new(0),
                degradations: AtomicU64::new(0),
                recovery_nanos: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.rank_panics.store(0, Ordering::Relaxed);
            self.bit_flips.store(0, Ordering::Relaxed);
            self.straggles.store(0, Ordering::Relaxed);
            self.timeouts.store(0, Ordering::Relaxed);
            self.breakdowns.store(0, Ordering::Relaxed);
            self.retries.store(0, Ordering::Relaxed);
            self.checkpoint_restores.store(0, Ordering::Relaxed);
            self.degradations.store(0, Ordering::Relaxed);
            self.recovery_nanos.store(0, Ordering::Relaxed);
        }

        pub fn merge(&self, delta: &super::ResilienceCell) {
            self.rank_panics
                .fetch_add(delta.rank_panics, Ordering::Relaxed);
            self.bit_flips.fetch_add(delta.bit_flips, Ordering::Relaxed);
            self.straggles.fetch_add(delta.straggles, Ordering::Relaxed);
            self.timeouts.fetch_add(delta.timeouts, Ordering::Relaxed);
            self.breakdowns
                .fetch_add(delta.breakdowns, Ordering::Relaxed);
            self.retries.fetch_add(delta.retries, Ordering::Relaxed);
            self.checkpoint_restores
                .fetch_add(delta.checkpoint_restores, Ordering::Relaxed);
            self.degradations
                .fetch_add(delta.degradations, Ordering::Relaxed);
            self.recovery_nanos
                .fetch_add((delta.recovery_seconds * 1e9) as u64, Ordering::Relaxed);
        }

        pub fn cell(&self) -> super::ResilienceCell {
            super::ResilienceCell {
                rank_panics: self.rank_panics.load(Ordering::Relaxed),
                bit_flips: self.bit_flips.load(Ordering::Relaxed),
                straggles: self.straggles.load(Ordering::Relaxed),
                timeouts: self.timeouts.load(Ordering::Relaxed),
                breakdowns: self.breakdowns.load(Ordering::Relaxed),
                retries: self.retries.load(Ordering::Relaxed),
                checkpoint_restores: self.checkpoint_restores.load(Ordering::Relaxed),
                degradations: self.degradations.load(Ordering::Relaxed),
                recovery_seconds: self.recovery_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            }
        }
    }

    /// Atomic mirror of [`super::PoolCell`]; seconds kept as nanos.
    pub struct Pool {
        pub launches: AtomicU64,
        pub inline_launches: AtomicU64,
        pub jobs: AtomicU64,
        pub workers_spawned: AtomicU64,
        pub reused_launches: AtomicU64,
        pub wait_nanos: AtomicU64,
    }

    impl Pool {
        const fn new() -> Self {
            Pool {
                launches: AtomicU64::new(0),
                inline_launches: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                workers_spawned: AtomicU64::new(0),
                reused_launches: AtomicU64::new(0),
                wait_nanos: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.launches.store(0, Ordering::Relaxed);
            self.inline_launches.store(0, Ordering::Relaxed);
            self.jobs.store(0, Ordering::Relaxed);
            self.workers_spawned.store(0, Ordering::Relaxed);
            self.reused_launches.store(0, Ordering::Relaxed);
            self.wait_nanos.store(0, Ordering::Relaxed);
        }

        pub fn cell(&self) -> super::PoolCell {
            super::PoolCell {
                launches: self.launches.load(Ordering::Relaxed),
                inline_launches: self.inline_launches.load(Ordering::Relaxed),
                jobs: self.jobs.load(Ordering::Relaxed),
                workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
                reused_launches: self.reused_launches.load(Ordering::Relaxed),
                wait_seconds: self.wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            }
        }
    }

    /// Atomic mirror of [`super::VerifyCell`].
    pub struct Verify {
        pub schedules: AtomicU64,
        pub schedule_failures: AtomicU64,
        pub properties: AtomicU64,
        pub property_failures: AtomicU64,
        pub max_trajectory_ulp: AtomicU64,
    }

    impl Verify {
        const fn new() -> Self {
            Verify {
                schedules: AtomicU64::new(0),
                schedule_failures: AtomicU64::new(0),
                properties: AtomicU64::new(0),
                property_failures: AtomicU64::new(0),
                max_trajectory_ulp: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.schedules.store(0, Ordering::Relaxed);
            self.schedule_failures.store(0, Ordering::Relaxed);
            self.properties.store(0, Ordering::Relaxed);
            self.property_failures.store(0, Ordering::Relaxed);
            self.max_trajectory_ulp.store(0, Ordering::Relaxed);
        }

        pub fn cell(&self) -> super::VerifyCell {
            super::VerifyCell {
                schedules: self.schedules.load(Ordering::Relaxed),
                schedule_failures: self.schedule_failures.load(Ordering::Relaxed),
                properties: self.properties.load(Ordering::Relaxed),
                property_failures: self.property_failures.load(Ordering::Relaxed),
                max_trajectory_ulp: self.max_trajectory_ulp.load(Ordering::Relaxed),
            }
        }
    }

    /// Atomic mirror of [`super::AnalyzeCell`].
    pub struct Analyze {
        pub plans_checked: AtomicU64,
        pub sections_checked: AtomicU64,
        pub plan_violations: AtomicU64,
        pub lint_files: AtomicU64,
        pub lint_diagnostics: AtomicU64,
        pub lint_suppressions: AtomicU64,
        pub dataflow_functions: AtomicU64,
        pub dataflow_atomic_sites: AtomicU64,
        pub dataflow_lock_sites: AtomicU64,
    }

    impl Analyze {
        const fn new() -> Self {
            Analyze {
                plans_checked: AtomicU64::new(0),
                sections_checked: AtomicU64::new(0),
                plan_violations: AtomicU64::new(0),
                lint_files: AtomicU64::new(0),
                lint_diagnostics: AtomicU64::new(0),
                lint_suppressions: AtomicU64::new(0),
                dataflow_functions: AtomicU64::new(0),
                dataflow_atomic_sites: AtomicU64::new(0),
                dataflow_lock_sites: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.plans_checked.store(0, Ordering::Relaxed);
            self.sections_checked.store(0, Ordering::Relaxed);
            self.plan_violations.store(0, Ordering::Relaxed);
            self.lint_files.store(0, Ordering::Relaxed);
            self.lint_diagnostics.store(0, Ordering::Relaxed);
            self.lint_suppressions.store(0, Ordering::Relaxed);
            self.dataflow_functions.store(0, Ordering::Relaxed);
            self.dataflow_atomic_sites.store(0, Ordering::Relaxed);
            self.dataflow_lock_sites.store(0, Ordering::Relaxed);
        }

        pub fn cell(&self) -> super::AnalyzeCell {
            super::AnalyzeCell {
                plans_checked: self.plans_checked.load(Ordering::Relaxed),
                sections_checked: self.sections_checked.load(Ordering::Relaxed),
                plan_violations: self.plan_violations.load(Ordering::Relaxed),
                lint_files: self.lint_files.load(Ordering::Relaxed),
                lint_diagnostics: self.lint_diagnostics.load(Ordering::Relaxed),
                lint_suppressions: self.lint_suppressions.load(Ordering::Relaxed),
                dataflow_functions: self.dataflow_functions.load(Ordering::Relaxed),
                dataflow_atomic_sites: self.dataflow_atomic_sites.load(Ordering::Relaxed),
                dataflow_lock_sites: self.dataflow_lock_sites.load(Ordering::Relaxed),
            }
        }
    }

    /// Atomic mirror of [`super::TuneCell`]; seconds kept as nanos.
    pub struct Tune {
        pub configs_explored: AtomicU64,
        pub measurements: AtomicU64,
        pub measure_nanos: AtomicU64,
        pub profiles_persisted: AtomicU64,
        pub profiles_loaded: AtomicU64,
        pub profiles_rejected: AtomicU64,
        pub fallbacks: AtomicU64,
    }

    impl Tune {
        const fn new() -> Self {
            Tune {
                configs_explored: AtomicU64::new(0),
                measurements: AtomicU64::new(0),
                measure_nanos: AtomicU64::new(0),
                profiles_persisted: AtomicU64::new(0),
                profiles_loaded: AtomicU64::new(0),
                profiles_rejected: AtomicU64::new(0),
                fallbacks: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.configs_explored.store(0, Ordering::Relaxed);
            self.measurements.store(0, Ordering::Relaxed);
            self.measure_nanos.store(0, Ordering::Relaxed);
            self.profiles_persisted.store(0, Ordering::Relaxed);
            self.profiles_loaded.store(0, Ordering::Relaxed);
            self.profiles_rejected.store(0, Ordering::Relaxed);
            self.fallbacks.store(0, Ordering::Relaxed);
        }

        pub fn merge(&self, delta: &super::TuneCell) {
            self.configs_explored
                .fetch_add(delta.configs_explored, Ordering::Relaxed);
            self.measurements
                .fetch_add(delta.measurements, Ordering::Relaxed);
            self.measure_nanos
                .fetch_add((delta.measure_seconds * 1e9) as u64, Ordering::Relaxed);
            self.profiles_persisted
                .fetch_add(delta.profiles_persisted, Ordering::Relaxed);
            self.profiles_loaded
                .fetch_add(delta.profiles_loaded, Ordering::Relaxed);
            self.profiles_rejected
                .fetch_add(delta.profiles_rejected, Ordering::Relaxed);
            self.fallbacks.fetch_add(delta.fallbacks, Ordering::Relaxed);
        }

        pub fn cell(&self) -> super::TuneCell {
            super::TuneCell {
                configs_explored: self.configs_explored.load(Ordering::Relaxed),
                measurements: self.measurements.load(Ordering::Relaxed),
                measure_seconds: self.measure_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                profiles_persisted: self.profiles_persisted.load(Ordering::Relaxed),
                profiles_loaded: self.profiles_loaded.load(Ordering::Relaxed),
                profiles_rejected: self.profiles_rejected.load(Ordering::Relaxed),
                fallbacks: self.fallbacks.load(Ordering::Relaxed),
            }
        }
    }

    /// Atomic mirror of [`super::TileCell`]. `peak_resident_bytes` merges
    /// by `fetch_max` (it is a high-water mark, not an accumulator).
    pub struct Tile {
        pub loads: AtomicU64,
        pub hits: AtomicU64,
        pub evictions: AtomicU64,
        pub loaded_bytes: AtomicU64,
        pub evicted_bytes: AtomicU64,
        pub spilled_bytes: AtomicU64,
        pub peak_resident_bytes: AtomicU64,
    }

    impl Tile {
        const fn new() -> Self {
            Tile {
                loads: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                loaded_bytes: AtomicU64::new(0),
                evicted_bytes: AtomicU64::new(0),
                spilled_bytes: AtomicU64::new(0),
                peak_resident_bytes: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.loads.store(0, Ordering::Relaxed);
            self.hits.store(0, Ordering::Relaxed);
            self.evictions.store(0, Ordering::Relaxed);
            self.loaded_bytes.store(0, Ordering::Relaxed);
            self.evicted_bytes.store(0, Ordering::Relaxed);
            self.spilled_bytes.store(0, Ordering::Relaxed);
            self.peak_resident_bytes.store(0, Ordering::Relaxed);
        }

        pub fn merge(&self, delta: &super::TileCell) {
            self.loads.fetch_add(delta.loads, Ordering::Relaxed);
            self.hits.fetch_add(delta.hits, Ordering::Relaxed);
            self.evictions.fetch_add(delta.evictions, Ordering::Relaxed);
            self.loaded_bytes
                .fetch_add(delta.loaded_bytes, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(delta.evicted_bytes, Ordering::Relaxed);
            self.spilled_bytes
                .fetch_add(delta.spilled_bytes, Ordering::Relaxed);
            self.peak_resident_bytes
                .fetch_max(delta.peak_resident_bytes, Ordering::Relaxed);
        }

        pub fn cell(&self) -> super::TileCell {
            super::TileCell {
                loads: self.loads.load(Ordering::Relaxed),
                hits: self.hits.load(Ordering::Relaxed),
                evictions: self.evictions.load(Ordering::Relaxed),
                loaded_bytes: self.loaded_bytes.load(Ordering::Relaxed),
                evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
                spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
                peak_resident_bytes: self.peak_resident_bytes.load(Ordering::Relaxed),
            }
        }
    }

    /// Mirror of [`super::ServeCell`]. The cell carries a `Vec` of
    /// per-tenant rows, so unlike the other mirrors it cannot be a bundle
    /// of atomics; a `Mutex<Option<..>>` keeps the static initializer
    /// `const` (`Mutex::new(None)`) and the merge path is far off any hot
    /// loop — the service records once per terminal request outcome.
    pub struct Serve {
        inner: Mutex<Option<super::ServeCell>>,
    }

    impl Serve {
        const fn new() -> Self {
            Serve {
                inner: Mutex::new(None),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, Option<super::ServeCell>> {
            // A poisoned registry mutex only means a panic mid-merge of
            // advisory counters; keep serving the data rather than
            // propagating the panic into every later recorder.
            self.inner.lock().unwrap_or_else(|p| p.into_inner())
        }

        fn reset(&self) {
            *self.lock() = None;
        }

        pub fn merge(&self, delta: &super::ServeCell) {
            self.lock()
                .get_or_insert_with(super::ServeCell::default)
                .merge(delta);
        }

        pub fn cell(&self) -> super::ServeCell {
            self.lock().clone().unwrap_or_default()
        }
    }

    pub struct Registry {
        pub kernels: [[Stats; 4]; 2],
        pub calls: [Stats; 2],
        pub collective: Stats,
        pub resilience: Resilience,
        pub pool: Pool,
        pub verify: Verify,
        pub analyze: Analyze,
        pub serve: Serve,
        pub tune: Tune,
        pub tile: Tile,
    }

    pub static REGISTRY: Registry = Registry {
        kernels: [ROW; 2],
        calls: [ZERO; 2],
        collective: ZERO,
        resilience: Resilience::new(),
        pool: Pool::new(),
        verify: Verify::new(),
        analyze: Analyze::new(),
        serve: Serve::new(),
        tune: Tune::new(),
        tile: Tile::new(),
    };

    pub fn reset() {
        for phase in &REGISTRY.kernels {
            for cell in phase {
                cell.reset();
            }
        }
        for cell in &REGISTRY.calls {
            cell.reset();
        }
        REGISTRY.collective.reset();
        REGISTRY.resilience.reset();
        REGISTRY.pool.reset();
        REGISTRY.verify.reset();
        REGISTRY.analyze.reset();
        REGISTRY.serve.reset();
        REGISTRY.tune.reset();
        REGISTRY.tile.reset();
    }

    pub fn record_serve(delta: &super::ServeCell) {
        REGISTRY.serve.merge(delta);
    }

    pub fn record_tune(delta: &super::TuneCell) {
        REGISTRY.tune.merge(delta);
    }

    pub fn record_tile(delta: &super::TileCell) {
        REGISTRY.tile.merge(delta);
    }

    pub fn record_tile_spill(bytes: u64) {
        REGISTRY
            .tile
            .spilled_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn record_tune_load(loaded: u64, rejected: u64) {
        let t = &REGISTRY.tune;
        t.profiles_loaded.fetch_add(loaded, Ordering::Relaxed);
        t.profiles_rejected.fetch_add(rejected, Ordering::Relaxed);
    }

    pub fn record_tune_fallback() {
        REGISTRY.tune.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_analyze_plan(sections: u64, violations: u64) {
        let a = &REGISTRY.analyze;
        a.plans_checked.fetch_add(1, Ordering::Relaxed);
        a.sections_checked.fetch_add(sections, Ordering::Relaxed);
        a.plan_violations.fetch_add(violations, Ordering::Relaxed);
    }

    pub fn record_analyze_lint(files: u64, diagnostics: u64, suppressions: u64) {
        let a = &REGISTRY.analyze;
        a.lint_files.fetch_add(files, Ordering::Relaxed);
        a.lint_diagnostics.fetch_add(diagnostics, Ordering::Relaxed);
        a.lint_suppressions
            .fetch_add(suppressions, Ordering::Relaxed);
    }

    pub fn record_analyze_dataflow(functions: u64, atomic_sites: u64, lock_sites: u64) {
        let a = &REGISTRY.analyze;
        a.dataflow_functions.fetch_add(functions, Ordering::Relaxed);
        a.dataflow_atomic_sites
            .fetch_add(atomic_sites, Ordering::Relaxed);
        a.dataflow_lock_sites
            .fetch_add(lock_sites, Ordering::Relaxed);
    }

    pub fn record_verify_schedule(failed: bool) {
        let v = &REGISTRY.verify;
        v.schedules.fetch_add(1, Ordering::Relaxed);
        if failed {
            v.schedule_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_verify_property(failed: bool) {
        let v = &REGISTRY.verify;
        v.properties.fetch_add(1, Ordering::Relaxed);
        if failed {
            v.property_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_verify_ulp(ulp: u64) {
        REGISTRY
            .verify
            .max_trajectory_ulp
            .fetch_max(ulp, Ordering::Relaxed);
    }

    pub fn record_pool_spawn(workers: u64) {
        REGISTRY
            .pool
            .workers_spawned
            .fetch_add(workers, Ordering::Relaxed);
    }

    pub fn record_pool_launch(jobs: u64, reused: bool, inline: bool) {
        let p = &REGISTRY.pool;
        if inline {
            p.inline_launches.fetch_add(1, Ordering::Relaxed);
        } else {
            p.launches.fetch_add(1, Ordering::Relaxed);
        }
        p.jobs.fetch_add(jobs, Ordering::Relaxed);
        if reused {
            p.reused_launches.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_pool_wait_nanos(nanos: u64) {
        REGISTRY.pool.wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn record_resilience(delta: &super::ResilienceCell) {
        REGISTRY.resilience.merge(delta);
    }

    /// RAII probe: times from construction to drop and commits the total
    /// into one registry cell.
    pub struct Scope {
        start: Instant,
        stats: &'static Stats,
        bytes: u64,
        rmws: u64,
    }

    impl Scope {
        fn over(stats: &'static Stats) -> Scope {
            Scope {
                start: Instant::now(),
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

    impl Drop for Scope {
        fn drop(&mut self) {
            self.stats.record(
                self.start.elapsed().as_nanos() as u64,
                self.bytes,
                self.rmws,
            );
        }
    }

    pub fn kernel_scope(phase: Phase, block: Block) -> Scope {
        Scope::over(&REGISTRY.kernels[phase.index()][block.index()])
    }

    pub fn call_scope(phase: Phase) -> Scope {
        Scope::over(&REGISTRY.calls[phase.index()])
    }

    pub fn collective_scope() -> Scope {
        Scope::over(&REGISTRY.collective)
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Block, Phase};

    /// No-op probe: zero-sized, no clock read, nothing recorded.
    pub struct Scope;

    impl Scope {
        /// Attribute bytes of estimated memory traffic (no-op).
        #[inline(always)]
        pub fn add_bytes(&mut self, _bytes: u64) {}

        /// Attribute atomic read-modify-writes (no-op).
        #[inline(always)]
        pub fn add_rmws(&mut self, _rmws: u64) {}
    }

    #[inline(always)]
    pub fn kernel_scope(_phase: Phase, _block: Block) -> Scope {
        Scope
    }

    #[inline(always)]
    pub fn call_scope(_phase: Phase) -> Scope {
        Scope
    }

    #[inline(always)]
    pub fn collective_scope() -> Scope {
        Scope
    }

    pub fn reset() {}

    #[inline(always)]
    pub fn record_resilience(_delta: &super::ResilienceCell) {}

    #[inline(always)]
    pub fn record_pool_spawn(_workers: u64) {}

    #[inline(always)]
    pub fn record_pool_launch(_jobs: u64, _reused: bool, _inline: bool) {}

    #[inline(always)]
    pub fn record_pool_wait_nanos(_nanos: u64) {}

    #[inline(always)]
    pub fn record_verify_schedule(_failed: bool) {}

    #[inline(always)]
    pub fn record_verify_property(_failed: bool) {}

    #[inline(always)]
    pub fn record_verify_ulp(_ulp: u64) {}

    #[inline(always)]
    pub fn record_analyze_plan(_sections: u64, _violations: u64) {}

    #[inline(always)]
    pub fn record_analyze_lint(_files: u64, _diagnostics: u64, _suppressions: u64) {}

    #[inline(always)]
    pub fn record_analyze_dataflow(_functions: u64, _atomic_sites: u64, _lock_sites: u64) {}

    #[inline(always)]
    pub fn record_serve(_delta: &super::ServeCell) {}

    #[inline(always)]
    pub fn record_tune(_delta: &super::TuneCell) {}

    #[inline(always)]
    pub fn record_tune_load(_loaded: u64, _rejected: u64) {}

    #[inline(always)]
    pub fn record_tune_fallback() {}

    #[inline(always)]
    pub fn record_tile(_delta: &super::TileCell) {}

    #[inline(always)]
    pub fn record_tile_spill(_bytes: u64) {}
}

/// RAII timing probe returned by [`kernel_scope`], [`call_scope`], and
/// [`collective_scope`]. With the `enabled` feature off this is a
/// zero-sized type whose methods compile to nothing.
pub use imp::Scope;

/// Whether recording is compiled in (`enabled` cargo feature).
pub fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Open a timing scope over one (phase, block) kernel invocation. Commit
/// happens when the returned [`Scope`] drops.
#[inline]
pub fn kernel_scope(phase: Phase, block: Block) -> Scope {
    imp::kernel_scope(phase, block)
}

/// Open a timing scope over one whole `aprod1`/`aprod2` backend call
/// (used by `InstrumentedBackend`).
#[inline]
pub fn call_scope(phase: Phase) -> Scope {
    imp::call_scope(phase)
}

/// Open a timing scope over one collective (allreduce) operation.
#[inline]
pub fn collective_scope() -> Scope {
    imp::collective_scope()
}

/// Zero every counter (start of a measured run).
pub fn reset() {
    imp::reset()
}

/// Merge fault/recovery counts into the registry's resilience cell (no-op
/// when telemetry is compiled out). The supervisor calls this once per
/// recovery event with the delta it just observed.
#[inline]
pub fn record_resilience(delta: &ResilienceCell) {
    imp::record_resilience(delta)
}

/// Record OS worker threads spawned by an executor pool (no-op when
/// telemetry is compiled out).
#[inline]
pub fn record_pool_spawn(workers: u64) {
    imp::record_pool_spawn(workers)
}

/// Record one executor-pool launch of `jobs` jobs. `reused` marks a launch
/// on already-spawned workers; `inline` marks the serial fast path that
/// never touched the queue. No-op when telemetry is compiled out.
#[inline]
pub fn record_pool_launch(jobs: u64, reused: bool, inline: bool) {
    imp::record_pool_launch(jobs, reused, inline)
}

/// Record time a pool worker spent parked waiting for work (no-op when
/// telemetry is compiled out).
#[inline]
pub fn record_pool_wait_nanos(nanos: u64) {
    imp::record_pool_wait_nanos(nanos)
}

/// Record one replayed adverse schedule (no-op when telemetry is compiled
/// out). `failed` marks a result outside the subject's contract.
#[inline]
pub fn record_verify_schedule(failed: bool) {
    imp::record_verify_schedule(failed)
}

/// Record one metamorphic property check (no-op when telemetry is
/// compiled out).
#[inline]
pub fn record_verify_property(failed: bool) {
    imp::record_verify_property(failed)
}

/// Fold a cross-backend trajectory divergence (in ULPs) into the running
/// maximum (no-op when telemetry is compiled out).
#[inline]
pub fn record_verify_ulp(ulp: u64) {
    imp::record_verify_ulp(ulp)
}

/// Record one static launch-plan soundness check: `sections` write-set
/// models examined, `violations` found (no-op when telemetry is compiled
/// out).
#[inline]
pub fn record_analyze_plan(sections: u64, violations: u64) {
    imp::record_analyze_plan(sections, violations)
}

/// Record one source-lint pass: `files` scanned, `diagnostics` emitted,
/// `suppressions` honored (no-op when telemetry is compiled out).
#[inline]
pub fn record_analyze_lint(files: u64, diagnostics: u64, suppressions: u64) {
    imp::record_analyze_lint(files, diagnostics, suppressions)
}

/// Record one concurrency-dataflow pass: `functions` scanned,
/// `atomic_sites` classified by the protocol checker, `lock_sites`
/// resolved by the lock-order checker (no-op when telemetry is compiled
/// out).
#[inline]
pub fn record_analyze_dataflow(functions: u64, atomic_sites: u64, lock_sites: u64) {
    imp::record_analyze_dataflow(functions, atomic_sites, lock_sites)
}

/// Merge serving-layer counts into the registry's serve cell (no-op when
/// telemetry is compiled out). The solve service calls this as requests
/// reach terminal outcomes — typically once per drained batch.
#[inline]
pub fn record_serve(delta: &ServeCell) {
    imp::record_serve(delta)
}

/// Merge auto-tuning counts into the registry's tune cell (no-op when
/// telemetry is compiled out). The tuner calls this once per run with the
/// totals its search just measured and persisted.
#[inline]
pub fn record_tune(delta: &TuneCell) {
    imp::record_tune(delta)
}

/// Record one profile-directory load: `loaded` profiles accepted,
/// `rejected` files skipped (no-op when telemetry is compiled out).
#[inline]
pub fn record_tune_load(loaded: u64, rejected: u64) {
    imp::record_tune_load(loaded, rejected)
}

/// Record one `tuned`-backend resolution that found no matching profile
/// and fell back to the default plan (no-op when telemetry is compiled
/// out).
#[inline]
pub fn record_tune_fallback() {
    imp::record_tune_fallback()
}

/// Merge tile-cache counts into the registry's tile cell (no-op when
/// telemetry is compiled out). Counters accumulate except
/// `peak_resident_bytes`, which folds in as a running maximum. The tiled
/// LSQR operator calls this once per cache access with the delta the
/// access just cost.
#[inline]
pub fn record_tile(delta: &TileCell) {
    imp::record_tile(delta)
}

/// Record bytes written to a tile spill directory (no-op when telemetry
/// is compiled out).
#[inline]
pub fn record_tile_spill(bytes: u64) {
    imp::record_tile_spill(bytes)
}

/// Freeze the registry into a serializable snapshot. Disabled builds
/// return [`TelemetrySnapshot::empty`] with `enabled: false`.
pub fn snapshot() -> TelemetrySnapshot {
    #[cfg(feature = "enabled")]
    {
        let mut snap = TelemetrySnapshot::empty(true);
        for phase in Phase::ALL {
            for block in Block::ALL {
                let cell = imp::REGISTRY.kernels[phase.index()][block.index()]
                    .cell(phase.as_str(), block.as_str());
                if cell.calls > 0 {
                    snap.kernels.push(cell);
                }
            }
            let call = imp::REGISTRY.calls[phase.index()].cell(phase.as_str(), "*");
            if call.calls > 0 {
                snap.calls.push(call);
            }
        }
        snap.collective = imp::REGISTRY.collective.cell("collective", "*");
        snap.resilience = imp::REGISTRY.resilience.cell();
        snap.pool = imp::REGISTRY.pool.cell();
        snap.verify = imp::REGISTRY.verify.cell();
        snap.analyze = imp::REGISTRY.analyze.cell();
        snap.serve = imp::REGISTRY.serve.cell();
        snap.tune = imp::REGISTRY.tune.cell();
        snap.tile = imp::REGISTRY.tile.cell();
        snap
    }
    #[cfg(not(feature = "enabled"))]
    {
        TelemetrySnapshot::empty(false)
    }
}

/// Render the ASCII per-kernel breakdown table for a snapshot.
///
/// One row per non-empty kernel cell, then the whole-call and collective
/// totals. Times in seconds and mean microseconds, traffic in MiB,
/// atomics in millions.
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
        let snap = snapshot();
        assert!(!snap.enabled);
        assert!(snap.kernels.is_empty());
        assert!(!is_enabled());
    }

    #[test]
    fn table_renders_every_cell() {
        let mut snap = TelemetrySnapshot::empty(true);
        snap.kernels.push(KernelCell {
            phase: "aprod1".into(),
            block: "astro".into(),
            calls: 4,
            seconds: 0.25,
            bytes: 1024 * 1024,
            atomic_rmws: 0,
        });
        snap.collective = KernelCell {
            phase: "collective".into(),
            block: "*".into(),
            calls: 3,
            seconds: 0.001,
            bytes: 0,
            atomic_rmws: 0,
        };
        let table = kernel_table(&snap);
        assert!(table.contains("aprod1/astro"));
        assert!(table.contains("collective"));
        let empty = kernel_table(&TelemetrySnapshot::empty(false));
        assert!(empty.contains("telemetry disabled"));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn resilience_deltas_accumulate_and_reset() {
        let _registry = registry();
        reset();
        record_resilience(&ResilienceCell {
            rank_panics: 1,
            bit_flips: 2,
            recovery_seconds: 0.5,
            ..Default::default()
        });
        record_resilience(&ResilienceCell {
            retries: 3,
            checkpoint_restores: 2,
            degradations: 1,
            recovery_seconds: 1.0,
            ..Default::default()
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
        record_verify_schedule(false);
        record_verify_schedule(true);
        record_verify_schedule(false);
        record_verify_property(false);
        record_verify_property(true);
        record_verify_ulp(3);
        record_verify_ulp(17);
        record_verify_ulp(5);
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
        record_analyze_plan(6, 0);
        record_analyze_plan(4, 2);
        record_analyze_lint(31, 3, 5);
        record_analyze_dataflow(120, 14, 9);
        record_analyze_dataflow(1, 1, 1);
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
        record_serve(&ServeCell {
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
        });
        record_serve(&ServeCell {
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
        record_tile(&TileCell {
            loads: 3,
            hits: 1,
            evictions: 2,
            loaded_bytes: 300,
            evicted_bytes: 200,
            peak_resident_bytes: 150,
            ..Default::default()
        });
        record_tile(&TileCell {
            loads: 1,
            hits: 7,
            peak_resident_bytes: 120,
            ..Default::default()
        });
        record_tile_spill(4096);
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
