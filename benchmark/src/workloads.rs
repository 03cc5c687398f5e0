//! The four solve workloads and the loops that time them; `served-mix`
//! is in [`crate::served`].
//!
//! One process runs one workload once: set up (several times, for a
//! steady `setup_s`), warm up, solve for `--seconds`, read the peak RSS,
//! check every solution against a `seq` reference of the same system,
//! and report. An untraced run calls the repo exactly as a user would; a
//! traced run repeats the timed section with [`Timed`] wrappers around
//! the same calls and adds the direct layer probes of [`crate::layers`].

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gaia_backends::{backend_by_name, Backend, ExecutorPool};
use gaia_lsqr::distributed::DistOptions;
use gaia_lsqr::validate::GAIA_THRESHOLD_RAD;
use gaia_lsqr::{
    compare_solutions, solve, solve_operator, solve_tiled, try_solve_hybrid, LsqrConfig, Solution,
    TiledOperator,
};
use gaia_sparse::footprint::device_bytes;
use gaia_sparse::{
    CapacityBudget, Generator, GeneratorConfig, SparseSystem, SystemLayout, TileCacheStats,
    TiledSystem,
};
use serde_json::{json, Map, Value};

use crate::host;
use crate::layers;
use crate::metrics::{Metrics, RunResult};
use crate::stats::{median, percentile};
use crate::timed::Timed;
use crate::trace::{self, Span, Trace};

pub const MB: f64 = 1024.0 * 1024.0;

/// Simulated ranks of `dist-2rank`.
const RANKS: usize = 2;
/// Tiles the `tiled-0.75x` system is spilled into.
const TILES: u64 = 16;
/// Share of the matrix the tile cache may hold.
const BUDGET_SHARE: f64 = 0.75;
/// Fewest set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Set-ups are repeated for at least this long.
const SETUP_SECONDS: f64 = 0.5;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) or end-to-end run.
    pub traced: bool,
    /// Tiny inputs: shows every path works, measures nothing.
    pub smoke: bool,
    /// The benchmark's own directory; `out/` below it takes every file.
    pub home: PathBuf,
}

/// Counts that repeat exactly from run to run, which `--check` compares
/// for equality: `(name, value)`.
pub type Exact = Vec<(&'static str, u64)>;

/// Input sizes: starting points measured on a 2-core host so that a
/// 20-second timed section holds at least eight solves of every workload.
pub struct Sizes {
    resident: SystemLayout,
    tiled: SystemLayout,
    pub served: [SystemLayout; 2],
    /// Fewest timed solves (passes, for `served-mix`) of a run.
    pub min_solves: usize,
}

pub fn sizes(smoke: bool) -> Sizes {
    let stars = |n_stars| SystemLayout {
        n_stars,
        ..SystemLayout::medium()
    };
    if smoke {
        let small = SystemLayout::small();
        let smaller = SystemLayout {
            n_stars: small.n_stars / 2,
            ..small
        };
        Sizes {
            resident: small,
            tiled: small,
            served: [smaller, small],
            min_solves: 2,
        }
    } else {
        Sizes {
            resident: stars(10_000),
            tiled: stars(1_000),
            served: [SystemLayout::small(), stars(1_000)],
            min_solves: 3,
        }
    }
}

/// A scratch directory under `out/`, removed when the run ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create(home: &Path) -> Result<Self, String> {
        let dir = home.join("out").join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

pub fn generate(layout: SystemLayout, seed: u64) -> SparseSystem {
    Generator::new(GeneratorConfig::new(layout).seed(seed)).generate()
}

pub fn registry(name: &str) -> Box<dyn Backend> {
    backend_by_name(name, host::nproc()).unwrap_or_else(|| panic!("backend {name} is registered"))
}

// ---------------------------------------------------------------------
// Correctness: the Fig. 6 protocol against a seq reference.
// ---------------------------------------------------------------------

/// One synthetic unit of the generator in radians, as the repo's Fig. 6
/// harness calibrates it (`gaia-bench --bin fig6` and `tests/end_to_end.rs`
/// scale the known terms by 1e-7 before solving). LSQR is linear in the
/// known terms, so scaling the 10 µas threshold the other way is the
/// same check, and works for a spilled system whose known terms are
/// already on disk.
const SYNTHETIC_UNIT_RAD: f64 = 1e-7;

/// Agreement of one solution with the reference.
pub struct Fig6 {
    pub pass: bool,
    pub max_abs_diff: f64,
    pub within_1sigma: f64,
}

pub fn fig6(sol: &Solution, reference: &Solution) -> Fig6 {
    let agreement = compare_solutions(sol, reference);
    Fig6 {
        pass: sol.stop.converged()
            && agreement.passes(0.99)
            && agreement.stderr_within(GAIA_THRESHOLD_RAD / SYNTHETIC_UNIT_RAD),
        max_abs_diff: agreement.max_abs_diff,
        within_1sigma: agreement.within_one_sigma.unwrap_or(1.0),
    }
}

/// Checks timed solutions. With the reference at hand a solution is
/// compared and dropped; before that (the tiled workload computes its
/// reference last, so the resident matrix never counts in its peak RSS)
/// distinct solutions are kept, with how often each was seen.
#[derive(Default)]
struct Checker {
    reference: Option<Solution>,
    pending: Vec<(Solution, u64)>,
    failed: u64,
    max_abs_diff: f64,
    min_within: f64,
}

impl Checker {
    fn observe(&mut self, sol: Solution) {
        if self.reference.is_some() {
            return self.compare(&sol, 1);
        }
        match self.pending.last_mut() {
            Some((last, seen)) if last.x == sol.x && last.var == sol.var => *seen += 1,
            _ => self.pending.push((sol, 1)),
        }
    }

    fn compare(&mut self, sol: &Solution, seen: u64) {
        let reference = self.reference.as_ref().expect("reference is set");
        let check = fig6(sol, reference);
        if !check.pass {
            self.failed += seen;
        }
        self.max_abs_diff = self.max_abs_diff.max(check.max_abs_diff);
        self.min_within = self.min_within.min(check.within_1sigma);
    }

    fn set_reference(&mut self, reference: Solution) {
        self.reference = Some(reference);
        self.min_within = 1.0;
        for (sol, seen) in std::mem::take(&mut self.pending) {
            self.compare(&sol, seen);
        }
    }
}

// ---------------------------------------------------------------------
// The solve workloads.
// ---------------------------------------------------------------------

/// One solve workload after set-up.
trait Solver {
    /// One solve, through the [`Timed`] wrappers when `traced`.
    fn solve(&self, cfg: &LsqrConfig, traced: bool) -> Result<Solution, String>;
    /// The system in memory, for the reference solve and the layer probes.
    fn system(&self) -> Arc<SparseSystem>;
    /// Seconds the generator took inside set-up.
    fn generate_s(&self) -> f64;
    /// The tile set, for the tiled workload.
    fn tiles(&self) -> Option<&TiledSystem> {
        None
    }
}

/// A registry backend behind the [`Timed`] wrapper.
type TimedBackend = Timed<Box<dyn Backend>>;

/// One set-up of a solve workload; with a trace, its wrappers record there.
type Setup<'a> = dyn Fn(Option<&Arc<Trace>>) -> Result<Box<dyn Solver>, String> + 'a;

/// `resident-seq` and `resident-atomic`: `solve` on a system in memory.
struct Resident {
    sys: Arc<SparseSystem>,
    plain: Box<dyn Backend>,
    timed: Option<TimedBackend>,
    generate_s: f64,
}

impl Resident {
    fn setup(layout: SystemLayout, seed: u64, backend: &str, trace: Option<&Arc<Trace>>) -> Self {
        let t0 = host::now();
        let sys = Arc::new(generate(layout, seed));
        let generate_s = host::secs_since(t0);
        Resident {
            sys,
            plain: registry(backend),
            timed: trace.map(|t| Timed::new(registry(backend), t)),
            generate_s,
        }
    }
}

impl Solver for Resident {
    fn solve(&self, cfg: &LsqrConfig, traced: bool) -> Result<Solution, String> {
        Ok(match (&self.timed, traced) {
            (Some(timed), true) => solve(&self.sys, timed, cfg),
            _ => solve(&self.sys, self.plain.as_ref(), cfg),
        })
    }

    fn system(&self) -> Arc<SparseSystem> {
        Arc::clone(&self.sys)
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }
}

/// `tiled-0.75x`: `solve_tiled` over a spill directory whose cache may
/// hold three quarters of the matrix. The files were just written, so
/// reads come from the page cache: this measures load, checksum, decode
/// and gather/scatter, not the disk.
struct Tiled {
    config: GeneratorConfig,
    tiles: TiledSystem,
    plain: Box<dyn Backend>,
    timed: Option<(TimedBackend, Arc<Trace>)>,
    spill_s: f64,
}

impl Tiled {
    fn setup(
        layout: SystemLayout,
        seed: u64,
        dir: &Path,
        trace: Option<&Arc<Trace>>,
    ) -> Result<Self, String> {
        let config = GeneratorConfig::new(layout).seed(seed);
        let t0 = host::now();
        Generator::new(config)
            .generate_tiled(dir, layout.n_stars.div_ceil(TILES))
            .map_err(|e| format!("spill: {e}"))?;
        let spill_s = host::secs_since(t0);
        let open = |budget| {
            TiledSystem::open_with_budget(dir, budget).map_err(|e| format!("open tiles: {e}"))
        };
        let matrix = open(CapacityBudget::unbounded())?.matrix_bytes();
        let budget = CapacityBudget::limited((BUDGET_SHARE * matrix as f64) as u64);
        Ok(Tiled {
            config,
            tiles: open(budget)?,
            plain: registry("seq"),
            timed: trace.map(|t| (Timed::new(registry("seq"), t), Arc::clone(t))),
            spill_s,
        })
    }
}

impl Solver for Tiled {
    fn solve(&self, cfg: &LsqrConfig, traced: bool) -> Result<Solution, String> {
        match (&self.timed, traced) {
            (Some((backend, trace)), true) => {
                let op = Timed::new(TiledOperator::new(&self.tiles, backend), trace);
                solve_operator(op, cfg)
            }
            _ => solve_tiled(&self.tiles, self.plain.as_ref(), cfg),
        }
        .map_err(|e| e.to_string())
    }

    fn system(&self) -> Arc<SparseSystem> {
        Arc::new(Generator::new(self.config).generate())
    }

    fn generate_s(&self) -> f64 {
        self.spill_s
    }

    fn tiles(&self) -> Option<&TiledSystem> {
        Some(&self.tiles)
    }
}

/// `dist-2rank`: `try_solve_hybrid` on two simulated ranks, `seq` on each.
/// The end-to-end run confines the process to one core first (see
/// [`host::confine_to_current_core`]); the rank threads inherit that.
struct Dist {
    sys: Arc<SparseSystem>,
    trace: Option<Arc<Trace>>,
    generate_s: f64,
}

impl Dist {
    fn setup(layout: SystemLayout, seed: u64, trace: Option<&Arc<Trace>>) -> Self {
        let t0 = host::now();
        let sys = Arc::new(generate(layout, seed));
        Dist {
            sys,
            trace: trace.cloned(),
            generate_s: host::secs_since(t0),
        }
    }
}

impl Solver for Dist {
    fn solve(&self, cfg: &LsqrConfig, traced: bool) -> Result<Solution, String> {
        let opts = DistOptions::default();
        match (&self.trace, traced) {
            (Some(trace), true) => {
                // Each rank is a new thread: hang its spans under the
                // solve span of this thread, on a lane of its own, and
                // keep a span open for as long as the rank lives.
                let ctx = Trace::context();
                let backend_for = |rank: usize| {
                    Trace::adopt(1 + rank as u32, ctx);
                    let life = trace.span("core.dist.rank", "core");
                    Box::new(Timed::with_life(registry("seq"), trace, life)) as Box<dyn Backend>
                };
                try_solve_hybrid(&self.sys, RANKS, cfg, backend_for, &opts)
            }
            _ => try_solve_hybrid(&self.sys, RANKS, cfg, |_| registry("seq"), &opts),
        }
        .map_err(|e| e.to_string())
    }

    fn system(&self) -> Arc<SparseSystem> {
        Arc::clone(&self.sys)
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }
}

// ---------------------------------------------------------------------
// The timed section.
// ---------------------------------------------------------------------

/// What a timed section of solves measured.
#[derive(Default)]
struct Solves {
    secs: Vec<f64>,
    iterations: Vec<usize>,
    iteration_secs: Vec<f64>,
    wall: f64,
    errors: u64,
    rel_residual: f64,
}

impl Solves {
    fn attempted(&self) -> u64 {
        self.secs.len() as u64 + self.errors
    }

    fn iter_ms(&self) -> Vec<f64> {
        let per_iteration = |(s, &n): (&f64, &usize)| s / n.max(1) as f64 * 1e3;
        self.secs
            .iter()
            .zip(&self.iterations)
            .map(per_iteration)
            .collect()
    }
}

/// Solve until `seconds` have passed and at least `min` solves are in.
fn timed_solves(
    solver: &dyn Solver,
    seconds: f64,
    min: usize,
    trace: Option<&Arc<Trace>>,
    checker: &mut Checker,
) -> Result<Solves, String> {
    let cfg = LsqrConfig::new();
    let mut out = Solves::default();
    let begin = host::now();
    while out.attempted() < min as u64 || host::secs_since(begin) < seconds {
        let id = 1 + out.attempted();
        let t0 = host::now();
        let result = {
            let _span = trace.map(|t| t.solve_span("core.solve", "core", id));
            solver.solve(&cfg, trace.is_some())
        };
        let secs = host::secs_since(t0);
        match result {
            Ok(sol) => {
                out.secs.push(secs);
                out.iterations.push(sol.iterations);
                out.iteration_secs
                    .extend(sol.history.iter().map(|h| h.seconds));
                out.rel_residual = sol.relative_residual();
                checker.observe(sol);
            }
            Err(e) => {
                eprintln!("solve {id} failed: {e}");
                out.errors += 1;
            }
        }
    }
    out.wall = host::secs_since(begin);
    if out.secs.is_empty() {
        return Err("no solve succeeded".into());
    }
    Ok(out)
}

/// `(launches, jobs)` of the shared pools the workloads' backends use.
pub fn pool_counts() -> (u64, u64) {
    let mut sizes = vec![host::nproc(), 2];
    sizes.dedup();
    sizes.iter().fold((0, 0), |(launches, jobs), &t| {
        let pool = ExecutorPool::shared(t);
        (launches + pool.launch_count(), jobs + pool.jobs_run_count())
    })
}

/// Layer metrics every traced run takes on the workload's own system.
pub fn probe_layers(m: &mut Metrics, sys: &SparseSystem, tmp: &Path, smoke: bool) {
    let ws = layers::host_denominators(m, device_bytes(sys.layout()), smoke);
    layers::block_kernels(m, sys, ws);
    layers::exec_launch(m, host::nproc());
    layers::strategy_panel(m, sys, host::nproc());
    layers::precond_and_checkpoint(m, sys, tmp);
    layers::allreduce(m, sys.n_cols());
}

/// Print the self time of every layer along the blocking path below
/// `root`, write the Chrome trace, and fail if the layers do not account
/// for the traced wall time within 1 %.
pub fn write_trace(home: &Path, workload: &str, spans: &[Span], root: usize) -> Result<(), String> {
    let layers = trace::layer_self_seconds(spans, root);
    let wall = (spans[root].end_ns - spans[root].start_ns) as f64 * 1e-9;
    let sum: f64 = layers.values().sum();
    let mut by_layer = Map::new();
    for (layer, secs) in &layers {
        let share = 100.0 * secs / wall;
        println!("trace: {layer:<9} self {secs:>9.4} s  {share:>5.1} % of wall");
        by_layer.insert(layer.to_string(), json!(*secs));
    }
    println!("trace: layers sum to {sum:.4} s of {wall:.4} s traced wall");
    let path = home.join("out").join(format!("trace-{workload}.json"));
    let doc = trace::chrome_trace(spans, workload, &Value::Object(by_layer));
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    if (sum - wall).abs() > 0.01 * wall {
        return Err(format!(
            "layer self times sum to {sum:.4} s, traced wall is {wall:.4} s"
        ));
    }
    Ok(())
}

pub fn result(attempted: u64, failed: u64, metrics: Metrics) -> RunResult {
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Set up at least [`SETUPS`] times and, unless `smoke`, for at least
/// [`SETUP_SECONDS`] (a 10 ms set-up needs more than seven samples for a
/// steady median), dropping each result before the next set-up. Returns
/// the last result and the seconds each set-up took.
pub fn repeat_setup<T>(
    smoke: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let seconds = if smoke { 0.0 } else { SETUP_SECONDS };
    let mut secs = Vec::new();
    let mut last = None;
    let begin = host::now();
    while secs.len() < SETUPS || host::secs_since(begin) < seconds {
        drop(last.take());
        let t0 = host::now();
        last = Some(setup()?);
        secs.push(host::secs_since(t0));
    }
    Ok((last.expect("SETUPS is positive"), secs))
}

/// A solve workload set up, with its reference and checker.
struct Prepared<'a> {
    workload: &'a str,
    opts: &'a Options,
    solver: Box<dyn Solver>,
    setup_secs: Vec<f64>,
    checker: Checker,
    /// Seconds the `seq` reference solve took.
    reference_s: f64,
}

impl Prepared<'_> {
    /// A tiled workload takes its reference last: see [`Checker`].
    fn reference_last(&self) -> bool {
        self.solver.tiles().is_some()
    }

    fn take_reference(&mut self) {
        let sys = self.solver.system();
        let t0 = host::now();
        let reference = solve(&sys, registry("seq").as_ref(), &LsqrConfig::new());
        self.reference_s = host::secs_since(t0);
        self.checker.set_reference(reference);
    }

    fn timed_solves(&mut self, seconds: f64, trace: Option<&Arc<Trace>>) -> Result<Solves, String> {
        let min = sizes(self.opts.smoke).min_solves;
        timed_solves(self.solver.as_ref(), seconds, min, trace, &mut self.checker)
    }

    fn tile_stats(&self) -> TileCacheStats {
        self.solver.tiles().map(|t| t.stats()).unwrap_or_default()
    }

    /// The untraced run: the five end-to-end metrics.
    fn end_to_end(mut self) -> Result<(RunResult, Exact), String> {
        let before = self.tile_stats();
        let run = self.timed_solves(self.opts.seconds, None)?;
        let after = self.tile_stats();
        let peak_rss_mb = host::peak_rss_mb();
        if self.reference_last() {
            self.take_reference();
        }
        let mut m = Metrics::default();
        m.set_all(&[
            ("setup_s", median(&self.setup_secs)),
            ("solve_s", median(&run.secs)),
            ("iter_ms", median(&run.iter_ms())),
            ("throughput_rps", run.secs.len() as f64 / run.wall),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        let mut exact = Exact::new();
        if self.workload != "resident-atomic" {
            exact.push(("core.iterations", run.iterations[0] as u64));
        }
        if self.solver.tiles().is_some() {
            let per_solve = (after.loads - before.loads) / run.attempted();
            exact.push(("sparse.tile_loads_per_solve", per_solve));
        }
        println!(
            "samples: {} solves in {:.2} s, {} iterations each",
            run.secs.len(),
            run.wall,
            run.iterations[0]
        );
        let failed = run.errors + self.checker.failed;
        Ok((result(run.attempted(), failed, m), exact))
    }

    /// The traced run: half the time plain, half through the wrappers,
    /// then the direct probes.
    fn per_layer(mut self, trace: &Arc<Trace>, tmp: &Path) -> Result<RunResult, String> {
        let half = self.opts.seconds / 2.0;
        let plain = self.timed_solves(half, None)?;
        let tiles_before = self.tile_stats();
        let pool_before = pool_counts();
        let root = trace.span("bench.timed", "bench");
        let root_index = root.index();
        let run = self.timed_solves(half, Some(trace))?;
        drop(root);
        let pool_after = pool_counts();
        let tiles_after = self.tile_stats();
        if self.reference_last() {
            self.take_reference();
        }
        let spans = trace.spans();
        let iters = run.iterations.iter().sum::<usize>() as f64;
        let solve_wall: f64 = run.secs.iter().sum();
        let n_solves = run.secs.len() as f64;
        let solver = self.solver.as_ref();

        let mut m = Metrics::default();
        let sys = solver.system();
        probe_layers(&mut m, &sys, tmp, self.opts.smoke);
        let generate_s = match solver.tiles() {
            // The tiled path never generates in memory: time one
            // resident generation of the same layout for this layer.
            Some(_) => {
                let t0 = host::now();
                std::hint::black_box(generate(*sys.layout(), self.opts.seed));
                host::secs_since(t0)
            }
            None => solver.generate_s(),
        };
        let mrows = sys.n_rows() as f64 / 1e6;
        m.set_all(&[
            ("sparse.generate_s", generate_s),
            ("sparse.generate_mrows_per_s", mrows / generate_s),
            ("sparse.matrix_mb", device_bytes(sys.layout()) as f64 / MB),
        ]);

        // In-solve backend time, from the Timed<Backend> spans. With
        // ranks in parallel lanes the solve waits for the busiest one.
        let by_lane = |name: &str| trace::seconds_by_lane(&spans, root_index, name);
        let busiest = |name: &str| by_lane(name).values().fold(0.0f64, |a, &b| a.max(b));
        let aprod1 = busiest("backends.aprod1");
        let aprod2 = busiest("backends.aprod2");
        let blas = busiest("backends.blas");
        let iterations: Vec<f64> = run.iterations.iter().map(|&n| n as f64).collect();
        let launches = (pool_after.0 - pool_before.0) as f64;
        let jobs = (pool_after.1 - pool_before.1) as f64;
        m.set_all(&[
            ("backends.aprod1_ms", aprod1 / iters * 1e3),
            ("backends.aprod2_ms", aprod2 / iters * 1e3),
            ("backends.blas_ms", blas / iters * 1e3),
            ("backends.aprod1_share", aprod1 / solve_wall),
            ("backends.aprod2_share", aprod2 / solve_wall),
            ("backends.blas_share", blas / solve_wall),
            ("backends.exec.launches_per_iter", launches / iters),
            ("backends.exec.jobs_per_iter", jobs / iters),
            ("core.iterations", median(&iterations)),
            ("core.rel_residual", run.rel_residual),
            ("core.max_abs_diff_vs_ref", self.checker.max_abs_diff),
            ("core.within_1sigma_frac", self.checker.min_within),
            (
                "core.iter_p95_ms",
                percentile(&run.iteration_secs, 95.0) * 1e3,
            ),
        ]);

        if let Some(tiles) = solver.tiles() {
            let total = |name: &str| trace::total_seconds(&spans, root_index, name);
            let ooc = total("core.ooc.aprod1")
                + total("core.ooc.aprod2")
                + total("core.ooc.column_norms");
            let nonkernel = ooc - aprod1 - aprod2;
            let own = solve_wall - ooc - blas;
            let loads = (tiles_after.loads - tiles_before.loads) as f64;
            let hits = (tiles_after.hits - tiles_before.hits) as f64;
            let evictions = (tiles_after.evictions - tiles_before.evictions) as f64;
            let loaded = (tiles_after.loaded_bytes - tiles_before.loaded_bytes) as f64;
            let load_ms = layers::tile_load(&mut m, tiles.dir());
            let matrix_mb = tiles.matrix_bytes() as f64 / MB;
            m.set_all(&[
                ("core.ooc_nonkernel_ms", nonkernel / iters * 1e3),
                ("core.ooc_nonkernel_share", nonkernel / solve_wall),
                ("core.lsqr_self_ms", own / iters * 1e3),
                ("core.lsqr_self_share", own / solve_wall),
                ("sparse.spill_s", solver.generate_s()),
                ("sparse.spill_mb_per_s", matrix_mb / solver.generate_s()),
                ("sparse.tile_loads", loads),
                ("sparse.tile_hits", hits),
                ("sparse.tile_evictions", evictions),
                ("sparse.tile_hit_ratio", hits / (loads + hits).max(1.0)),
                ("sparse.tile_loaded_mb", loaded / MB),
                (
                    "sparse.tile_peak_resident_mb",
                    tiles_after.peak_resident_bytes as f64 / MB,
                ),
                (
                    "sparse.tile_load_share",
                    loads * load_ms * 1e-3 / solve_wall,
                ),
            ]);
        } else if self.workload == "dist-2rank" {
            let (a1, a2) = (by_lane("backends.aprod1"), by_lane("backends.aprod2"));
            let compute = a1
                .iter()
                .map(|(lane, s)| s + a2.get(lane).copied().unwrap_or(0.0));
            let (least, most) = compute.fold((f64::INFINITY, 0.0f64), |(lo, hi), c| {
                (lo.min(c), hi.max(c))
            });
            let allreduce_kb = (sys.n_cols() + 3) as f64 * 8.0 / 1024.0;
            m.set_all(&[
                ("core.dist_compute_ms", most / n_solves * 1e3),
                (
                    "core.dist_noncompute_ms",
                    (solve_wall - most) / n_solves * 1e3,
                ),
                (
                    "core.dist_noncompute_share",
                    (solve_wall - most) / solve_wall,
                ),
                ("core.dist_rank_imbalance", (most - least) / most),
                ("core.dist_speedup", self.reference_s / median(&plain.secs)),
                ("mpi-sim.allreduce_kb_per_iter", allreduce_kb),
            ]);
        } else {
            let own = solve_wall - aprod1 - aprod2 - blas;
            m.set("core.lsqr_self_ms", own / iters * 1e3);
            m.set("core.lsqr_self_share", own / solve_wall);
        }

        let overhead = median(&run.secs) / median(&plain.secs) - 1.0;
        m.set("bench.trace_overhead_frac", overhead);
        m.set("bench.spans", spans.len() as f64);
        write_trace(&self.opts.home, self.workload, &spans, root_index)?;

        let attempted = plain.attempted() + run.attempted();
        let failed = plain.errors + run.errors + self.checker.failed;
        Ok(result(attempted, failed, m))
    }
}

fn run_solver(
    workload: &str,
    opts: &Options,
    tmp: &Path,
    setup: &Setup<'_>,
) -> Result<(RunResult, Exact), String> {
    let trace = opts.traced.then(Trace::new);
    let (solver, setup_secs) = repeat_setup(opts.smoke, || setup(trace.as_ref()))?;
    let mut prepared = Prepared {
        workload,
        opts,
        solver,
        setup_secs,
        checker: Checker::default(),
        reference_s: 0.0,
    };
    if !prepared.reference_last() {
        prepared.take_reference();
    }
    // Warm-up: a few iterations fault in the solver's vectors and start
    // the pool's workers; its result is not checked.
    prepared
        .solver
        .solve(&LsqrConfig::new().max_iters(5), false)?;
    match &trace {
        Some(trace) => Ok((prepared.per_layer(trace, tmp)?, Exact::new())),
        None => prepared.end_to_end(),
    }
}

/// Run `workload` once as `opts` asks.
pub fn run(workload: &str, opts: &Options) -> Result<(RunResult, Exact), String> {
    let sizes = sizes(opts.smoke);
    let seed = opts.seed;
    let atomic = format!("atomic-t{}", host::nproc());
    let tmp = TempDir::create(&opts.home)?;
    let tiles_dir = tmp.0.join("tiles");
    let boxed = |s: Box<dyn Solver>| Ok(s);
    match workload {
        "resident-seq" => run_solver(workload, opts, &tmp.0, &|t| {
            boxed(Box::new(Resident::setup(sizes.resident, seed, "seq", t)))
        }),
        "resident-atomic" => run_solver(workload, opts, &tmp.0, &|t| {
            boxed(Box::new(Resident::setup(sizes.resident, seed, &atomic, t)))
        }),
        "tiled-0.75x" => run_solver(workload, opts, &tmp.0, &|t| {
            boxed(Box::new(Tiled::setup(sizes.tiled, seed, &tiles_dir, t)?))
        }),
        "dist-2rank" => {
            // The end-to-end run times the work of both ranks on one
            // core; the traced run lets them run side by side, so its
            // `core.dist_*` metrics describe the parallel solve.
            let one_core = match opts.traced {
                true => None,
                false => Some(host::confine_to_current_core()?),
            };
            if let Some(core) = &one_core {
                println!("dist-2rank: both ranks take turns on cpu {}", core.cpu);
            }
            run_solver(workload, opts, &tmp.0, &|t| {
                boxed(Box::new(Dist::setup(sizes.resident, seed, t)))
            })
        }
        "served-mix" => crate::served::run(opts, &tmp.0),
        other => Err(format!("unknown workload {other}")),
    }
}
