//! `solvergaia` — the command-line solver, mirroring the artifact's
//! `solvergaiaSim` executable: synthesize (or load) a system of a given
//! size, run LSQR for a fixed number of iterations or to convergence on a
//! chosen backend, optionally across simulated MPI ranks, with
//! checkpoint/restart support.
//!
//! ```text
//! solvergaia [--preset tiny|small|medium] [--seed N] [--iterations N]
//!            [--converge] [--backend NAME] [--threads N] [--ranks N]
//!            [--dataset FILE (load instead of generating)]
//!            [--save-dataset FILE] [--checkpoint FILE] [--force-fresh]
//!            [--checkpoint-every N] [--chaos-seed S] [--max-retries K]
//!            [--tiles DIR] [--tile-stars N] [--budget-bytes B]
//!            [--lsmr] [--profile] [--telemetry] [--list-backends]
//! ```
//!
//! Every input is checked before anything is generated, loaded or
//! written: the preset, the LSQR configuration (`--iterations`) and the
//! flags that `--lsmr` or `--tiles` exclude exit 2, an unknown backend
//! exits 1. The run then goes to one of three engines:
//!
//! * `--lsmr`: LSMR on one rank. It has no resumable state, so it refuses
//!   `--ranks`, `--checkpoint`, `--checkpoint-every` and the fault flags.
//! * One rank and no fault flag: LSQR over the resident system or, with
//!   `--tiles`, over the tiled operator.
//! * `--ranks N` above 1, `--chaos-seed S` or `--max-retries K`: the
//!   resilient supervisor. It runs the named backend on every rank,
//!   relaunches a failed world up to `K` times per rank-count tier
//!   (default 3), then halves the ranks; a world with more ranks than
//!   stars is degraded at once. `--chaos-seed` injects a deterministic
//!   fault schedule into the simulated MPI world.
//!
//! Checkpoint/restart is the same on every LSQR engine. `--checkpoint
//! FILE` names a restart chain of the newest three snapshots,
//! `FILE.<iteration>.ckpt`; `FILE` itself is never read or written. A
//! snapshot is taken every `--checkpoint-every N` iterations (10 when
//! `FILE` is given without it) and at the stop. A run resumes from the
//! chain's newest snapshot, which must load and match the system and the
//! configuration — otherwise the run exits 1 naming the file rather than
//! discard the iterations it holds. A chain written on one rank count
//! resumes on any other, and a run stopped by its iteration limit goes on
//! under a larger `--iterations`. `--force-fresh` clears the chain and
//! starts over. Writing a snapshot is best-effort on every engine: one
//! that fails prints `warning: cannot write checkpoint: …` and the solve
//! goes on.
//!
//! `--tiles DIR` switches to the out-of-core path of §V-B capacity
//! framing: if `DIR` holds a `gaia-tiles/v4` spill (a manifest plus
//! per-tile binaries) it is opened as-is; otherwise the preset/seed
//! system is *stream-generated* into it — bit-identical to the in-memory
//! generator without ever materializing the full matrix. `--tile-stars`
//! sets the stars per tile at generation time and `--budget-bytes` caps
//! resident matrix bytes during the solve (the tile cache evicts to
//! stay under it). Checkpoints taken on this path record the spill
//! directory and matrix fingerprint as provenance, so a resume refuses a
//! regenerated or foreign tile set; a relocated spill directory is found
//! through the `GAIA_TILES_DIR` override.
//!
//! The `serve` subcommand instead runs the multi-tenant solve service
//! for one batch of concurrent tenants (see `crates/serve`):
//!
//! ```text
//! solvergaia serve [--tenants N] [--requests N] [--workers N]
//!                  [--preset tiny|small|medium] [--seed S]
//!                  [--backend NAME] [--ranks N] [--deadline-ms D]
//!                  [--queue N] [--quota N] [--chaos]
//! ```
//!
//! `--chaos` gives the first tenant a scripted rank-panic fault schedule
//! (recovered by the supervisor without disturbing the other tenants);
//! `--deadline-ms` arms a per-request deadline enforced in-queue and
//! mid-solve. Every request's typed outcome is printed; the exit status
//! is non-zero if any request faulted.
//!
//! `--telemetry` prints the per-kernel breakdown and writes a JSON run
//! report under `results/telemetry/`; build with `--features telemetry`
//! for real counts (the probes compile to no-ops otherwise). `--profile`
//! prints the per-iteration convergence profile and its tail rate.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use gaia_avugsr::backends::{backend_by_name, backend_names, instrumented_by_name, Backend};
use gaia_avugsr::lsqr::analysis::{convergence_profile, profile_text};
use gaia_avugsr::lsqr::checkpoint::{Checkpoint, CheckpointRotation};
use gaia_avugsr::lsqr::lsqr::LsqrState;
use gaia_avugsr::lsqr::resilient::{OnUnrecoverable, RecoveryPolicy, ResilienceOptions};
use gaia_avugsr::lsqr::{
    solve_lsmr, solve_resilient, LsqrConfig, Operator, OperatorLsqr, Solution, SystemOperator,
    TiledOperator,
};
use gaia_avugsr::mpi::{install_quiet_panic_hook, FaultKind, FaultPlan, FaultSpec};
use gaia_avugsr::sparse::tiled::MANIFEST_NAME;
use gaia_avugsr::sparse::{
    io, CapacityBudget, Generator, GeneratorConfig, Rhs, SparseSystem, SystemLayout, TiledSystem,
};

const USAGE: &str = "solvergaia [--preset tiny|small|medium] [--seed N] \
     [--iterations N] [--converge] [--backend NAME] [--threads N] \
     [--ranks N] [--dataset FILE] [--save-dataset FILE] \
     [--checkpoint FILE] [--force-fresh] [--checkpoint-every N] \
     [--chaos-seed S] [--max-retries K] [--tiles DIR] [--tile-stars N] \
     [--budget-bytes B] [--lsmr] [--profile] [--telemetry] [--list-backends]";

const SERVE_USAGE: &str = "solvergaia serve [--tenants N] [--requests N] [--workers N] \
     [--preset tiny|small|medium] [--seed S] [--backend NAME] [--ranks N] \
     [--deadline-ms D] [--queue N] [--quota N] [--chaos]";

/// The flags `--lsmr` and `--tiles` cannot be combined with, and why.
const CONFLICTS: [(&str, &str, &str); 2] = [
    (
        "--lsmr",
        "runs a single-rank solve without resumable state",
        "--ranks --checkpoint --checkpoint-every --chaos-seed --max-retries",
    ),
    (
        "--tiles",
        "drives the single-rank out-of-core LSQR path",
        "--dataset --lsmr --ranks --chaos-seed --max-retries",
    ),
];

struct Args {
    preset: String,
    lsmr: bool,
    profile: bool,
    telemetry: bool,
    seed: u64,
    iterations: usize,
    converge: bool,
    backend: String,
    threads: usize,
    ranks: usize,
    dataset: Option<PathBuf>,
    save_dataset: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    chaos_seed: Option<u64>,
    max_retries: Option<usize>,
    force_fresh: bool,
    tiles: Option<PathBuf>,
    tile_stars: u64,
    budget_bytes: Option<u64>,
}

impl Args {
    /// Whether a flag of [`CONFLICTS`] was given (`--ranks`: above 1).
    fn given(&self, flag: &str) -> bool {
        match flag {
            "--lsmr" => self.lsmr,
            "--tiles" => self.tiles.is_some(),
            "--ranks" => self.ranks > 1,
            "--dataset" => self.dataset.is_some(),
            "--checkpoint" => self.checkpoint.is_some(),
            "--checkpoint-every" => self.checkpoint_every > 0,
            "--chaos-seed" => self.chaos_seed.is_some(),
            "--max-retries" => self.max_retries.is_some(),
            _ => unreachable!("{flag} is not in the conflict table"),
        }
    }
}

/// Print `usage` and exit 2, the answer to every malformed command line.
fn usage(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    exit(2)
}

/// The one flag reader of both subcommands: the arguments after the
/// first `skip`, each value parsed to the type of the field it sets.
struct Flags {
    argv: std::iter::Skip<std::env::Args>,
    usage: &'static str,
}

impl Flags {
    fn new(skip: usize, usage: &'static str) -> Self {
        Flags {
            argv: std::env::args().skip(skip),
            usage,
        }
    }

    fn flag(&mut self) -> Option<String> {
        self.argv.next()
    }

    /// The value after `flag`; a missing or malformed one is a usage error.
    fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.argv.next() else {
            eprintln!("{flag} requires a value");
            usage(self.usage)
        };
        raw.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse {raw:?}");
            usage(self.usage)
        })
    }

    /// A flag no arm took: `--help`, or an unknown one.
    fn reject(&self, flag: &str) -> ! {
        if !matches!(flag, "--help" | "-h") {
            eprintln!("unknown flag {flag}");
        }
        usage(self.usage)
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        preset: "small".into(),
        lsmr: false,
        profile: false,
        telemetry: false,
        seed: 0,
        iterations: 100,
        converge: false,
        backend: "atomic".into(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        ranks: 1,
        dataset: None,
        save_dataset: None,
        checkpoint: None,
        checkpoint_every: 0,
        chaos_seed: None,
        max_retries: None,
        force_fresh: false,
        tiles: None,
        tile_stars: 0, // 0 = derive from the layout at generation time
        budget_bytes: None,
    };
    let mut f = Flags::new(1, USAGE);
    while let Some(flag) = f.flag() {
        match flag.as_str() {
            "--preset" => args.preset = f.value(&flag),
            "--seed" => args.seed = f.value(&flag),
            "--iterations" => args.iterations = f.value(&flag),
            "--converge" => args.converge = true,
            "--lsmr" => args.lsmr = true,
            "--profile" => args.profile = true,
            "--telemetry" => args.telemetry = true,
            "--backend" => args.backend = f.value(&flag),
            "--threads" => args.threads = f.value(&flag),
            "--ranks" => args.ranks = f.value(&flag),
            "--dataset" => args.dataset = Some(f.value(&flag)),
            "--save-dataset" => args.save_dataset = Some(f.value(&flag)),
            "--checkpoint" => args.checkpoint = Some(f.value(&flag)),
            "--checkpoint-every" => args.checkpoint_every = f.value(&flag),
            "--chaos-seed" => args.chaos_seed = Some(f.value(&flag)),
            "--max-retries" => args.max_retries = Some(f.value(&flag)),
            "--force-fresh" => args.force_fresh = true,
            "--tiles" => args.tiles = Some(f.value(&flag)),
            "--tile-stars" => args.tile_stars = f.value(&flag),
            "--budget-bytes" => args.budget_bytes = Some(f.value(&flag)),
            "--list-backends" => {
                for name in backend_names() {
                    println!("{name}");
                }
                exit(0)
            }
            _ => f.reject(&flag),
        }
    }
    args
}

/// The one backend lookup: registry name `name` at `threads` threads,
/// wrapped under `--telemetry` so whole-call cells are recorded next to
/// the per-block kernel cells. An unknown name exits 1.
fn resolve_backend(name: &str, threads: usize, telemetry: bool) -> Box<dyn Backend> {
    let lookup = if telemetry {
        instrumented_by_name
    } else {
        backend_by_name
    };
    lookup(name, threads).unwrap_or_else(|| {
        eprintln!("unknown backend {name} (try --list-backends)");
        exit(1)
    })
}

/// Flags of the `serve` subcommand.
struct ServeArgs {
    tenants: usize,
    requests: usize,
    workers: usize,
    preset: String,
    seed: u64,
    backend: String,
    ranks: usize,
    deadline_ms: Option<u64>,
    queue: usize,
    quota: usize,
    chaos: bool,
}

fn parse_serve_args() -> ServeArgs {
    let mut args = ServeArgs {
        tenants: 4,
        requests: 2,
        workers: 2,
        preset: "tiny".into(),
        seed: 0,
        backend: "seq".into(),
        ranks: 1,
        deadline_ms: None,
        queue: 16,
        quota: 8,
        chaos: false,
    };
    let mut f = Flags::new(2, SERVE_USAGE);
    while let Some(flag) = f.flag() {
        match flag.as_str() {
            "--tenants" => args.tenants = f.value(&flag),
            "--requests" => args.requests = f.value(&flag),
            "--workers" => args.workers = f.value(&flag),
            "--preset" => args.preset = f.value(&flag),
            "--seed" => args.seed = f.value(&flag),
            "--backend" => args.backend = f.value(&flag),
            "--ranks" => args.ranks = f.value(&flag),
            "--deadline-ms" => args.deadline_ms = Some(f.value(&flag)),
            "--queue" => args.queue = f.value(&flag),
            "--quota" => args.quota = f.value(&flag),
            "--chaos" => args.chaos = true,
            _ => f.reject(&flag),
        }
    }
    args
}

/// The `serve` subcommand: run one batch of concurrent tenants through
/// the multi-tenant solve service and report every typed outcome.
fn run_serve() -> ! {
    use gaia_avugsr::serve::{ServiceConfig, SolveRequest, SolveService};

    install_quiet_panic_hook();
    let args = parse_serve_args();
    let Some(layout) = SystemLayout::preset(&args.preset) else {
        eprintln!("unknown preset {}", args.preset);
        usage(SERVE_USAGE)
    };
    resolve_backend(&args.backend, 2, false);

    let service = SolveService::start(ServiceConfig {
        workers: args.workers.max(1),
        queue_capacity: args.queue,
        tenant_quota: args.quota,
        ..ServiceConfig::default()
    });
    println!(
        "serve: {} tenant(s) x {} request(s) on {} worker(s), backend {}, preset {}",
        args.tenants.max(1),
        args.requests.max(1),
        args.workers.max(1),
        args.backend,
        args.preset
    );

    let mut tickets = Vec::new();
    for t in 0..args.tenants.max(1) {
        let tenant = format!("tenant-{t}");
        for i in 0..args.requests.max(1) {
            let sys = Arc::new(
                Generator::new(
                    GeneratorConfig::new(layout)
                        .seed(args.seed + (t * args.requests.max(1) + i) as u64)
                        .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
                )
                .generate(),
            );
            let mut req = SolveRequest::new(tenant.clone(), sys);
            req.backend = args.backend.clone();
            req.ranks = args.ranks.max(1);
            req.deadline = args.deadline_ms.map(Duration::from_millis);
            if args.chaos && t == 0 && i == 0 {
                // One scripted rank panic for the first tenant's first
                // request; the supervisor recovers it in isolation.
                req.ranks = req.ranks.max(2);
                req.faults = Some(Arc::new(FaultPlan::scripted(args.seed).with_event(
                    0,
                    1,
                    2,
                    FaultKind::RankPanic,
                )));
                println!("chaos: {tenant} request 0 carries a scripted rank panic");
            }
            let (id, ticket) = service.submit(req);
            tickets.push((tenant.clone(), id, ticket));
        }
    }

    let mut faulted = 0usize;
    for (tenant, id, ticket) in tickets {
        let outcome = ticket.wait();
        match outcome.summary() {
            Some(s) => println!(
                "  [{id}] {tenant}: {} ({} iterations, {} rank(s), {} thread(s), {} attempt(s))",
                outcome.kind(),
                s.solution.iterations,
                s.ranks,
                s.threads,
                s.attempts
            ),
            None => println!("  [{id}] {tenant}: {}", outcome.kind()),
        }
        if matches!(outcome.kind(), gaia_avugsr::serve::OutcomeKind::Faulted) {
            faulted += 1;
        }
    }
    let events = service.shutdown();
    println!("event log: {} entries", events.len());
    exit(if faulted > 0 { 1 } else { 0 })
}

/// The out-of-core path (`--tiles DIR`): open an existing `gaia-tiles/v4`
/// spill directory — or stream-generate the preset/seed system into it —
/// and run LSQR through the tiled operator under the requested capacity
/// budget.
fn run_tiled(
    args: &Args,
    cfg: &LsqrConfig,
    layout: SystemLayout,
    dir: &Path,
    backend: &dyn Backend,
) -> Solution {
    // An existing spill directory is authoritative (its manifest fixes
    // shape and seed); otherwise stream the preset/seed system into it.
    if dir.join(MANIFEST_NAME).exists() {
        if args.tile_stars > 0 {
            println!(
                "--tile-stars ignored: {} already holds tiles",
                dir.display()
            );
        }
    } else {
        let tile_stars = if args.tile_stars > 0 {
            args.tile_stars
        } else {
            (layout.n_stars / 8).max(1)
        };
        let manifest = Generator::new(
            GeneratorConfig::new(layout)
                .seed(args.seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate_tiled(dir, tile_stars)
        .unwrap_or_else(|e| {
            eprintln!("cannot stream tiles into {}: {e}", dir.display());
            exit(1)
        });
        let disk_bytes: u64 = manifest.tiles.iter().map(|t| t.bytes).sum();
        gaia_avugsr::telemetry::record(|t| t.tile.spilled_bytes += disk_bytes);
        println!(
            "streamed {} tile(s), {disk_bytes} bytes into {}",
            manifest.tiles.len(),
            dir.display()
        );
    }

    let budget = match args.budget_bytes {
        Some(b) => CapacityBudget::limited(b),
        None => CapacityBudget::unbounded(),
    };
    let tiles = TiledSystem::open_with_budget(dir, budget).unwrap_or_else(|e| {
        eprintln!("cannot open tile directory {}: {e}", dir.display());
        exit(1)
    });
    println!(
        "tiled system: {} rows x {} cols ({} stars), {} tile(s), budget {}",
        tiles.n_rows(),
        tiles.n_cols(),
        tiles.layout().n_stars,
        tiles.n_tiles(),
        args.budget_bytes
            .map_or("unbounded".to_string(), |b| format!("{b} bytes")),
    );
    println!("backend: {} ({} threads)", backend.name(), args.threads);
    let solution = run_lsqr(TiledOperator::new(&tiles, backend), None, cfg, args);
    let stats = tiles.stats();
    println!(
        "tile cache: {} load(s), {} hit(s), {} eviction(s), peak resident {} bytes",
        stats.loads, stats.hits, stats.evictions, stats.peak_resident_bytes
    );
    solution
}

/// The in-memory path: load or synthesize the system, then solve it with
/// LSMR, or with LSQR on one rank or under the supervisor. Returns the
/// solution and its label in the run report.
fn run_resident(
    args: &Args,
    cfg: &LsqrConfig,
    layout: SystemLayout,
    backend: &dyn Backend,
) -> (Solution, &'static str) {
    // Obtain the system: load a dataset or synthesize one, as in the
    // artifact ("it randomly generates, given a certain seed, a dataset
    // with the specified size").
    let sys = match &args.dataset {
        Some(path) => match io::load_system(path) {
            Ok(sys) => {
                println!("loaded dataset {} ({} rows)", path.display(), sys.n_rows());
                sys
            }
            Err(e) => {
                eprintln!("cannot load dataset: {e}");
                exit(1)
            }
        },
        None => Generator::new(
            GeneratorConfig::new(layout)
                .seed(args.seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate(),
    };
    println!(
        "system: {} rows x {} cols ({} stars)",
        sys.n_rows(),
        sys.n_cols(),
        sys.layout().n_stars
    );
    if let Some(path) = &args.save_dataset {
        if let Err(e) = io::save_system(&sys, path) {
            eprintln!("cannot save dataset: {e}");
            exit(1)
        }
        println!("dataset saved to {}", path.display());
    }

    let (name, threads) = (backend.name(), args.threads);
    if args.lsmr {
        println!("solver: LSMR, backend: {name} ({threads} threads)");
        return (solve_lsmr(&sys, backend, cfg), "lsmr");
    }
    let op = SystemOperator::new(&sys, backend);
    let faults = args.chaos_seed.is_some() || args.max_retries.is_some();
    if args.ranks <= 1 && !faults {
        println!("backend: {name} ({threads} threads)");
        return (run_lsqr(op, None, cfg, args), "lsqr");
    }
    let ranks = args.ranks.max(1);
    let plural = if ranks == 1 { "" } else { "s" };
    println!(
        "distributed solve on {ranks} rank{plural}, backend: {name} ({threads} threads per rank)"
    );
    let label = if faults {
        "lsqr-resilient"
    } else {
        "lsqr-distributed"
    };
    (run_lsqr(op, Some(&sys), cfg, args), label)
}

/// Every LSQR run — resident, tiled or supervised — on one restart chain:
/// resume from its newest snapshot (validated against `op`), then drive
/// `op` on one rank, or hand `supervised`, the system `op` reads, to the
/// resilient supervisor. Both engines feed the chain through the same
/// sink of [`OperatorLsqr::try_drive`]: every `every`-th state and the
/// state at the stop.
fn run_lsqr<O: Operator>(
    op: O,
    supervised: Option<&SparseSystem>,
    cfg: &LsqrConfig,
    args: &Args,
) -> Solution {
    let chain = args
        .checkpoint
        .as_ref()
        .map(|file| CheckpointRotation::new(file, 3));
    let every = match (args.checkpoint_every, &chain) {
        (0, Some(_)) => 10,
        (n, _) => n,
    };
    let start = match &chain {
        Some(chain) if args.force_fresh => {
            chain.clear();
            println!("--force-fresh: cleared the checkpoint chain");
            None
        }
        Some(chain) => chain.newest().map(|(path, ckpt)| {
            match ckpt.and_then(|c| c.restore_operator(&op, cfg)) {
                Ok(state) => {
                    println!("resumed from {} at iteration {}", path.display(), state.itn);
                    state
                }
                Err(e) => {
                    eprintln!(
                        "cannot resume checkpoint {}: {e} (pass --force-fresh to discard)",
                        path.display()
                    );
                    exit(1)
                }
            }
        }),
        None => None,
    };
    if let Some(sys) = supervised {
        return supervise(sys, start, every, chain.as_ref(), cfg, args);
    }
    let solver = OperatorLsqr::new(op, *cfg).unwrap_or_else(|e| {
        eprintln!("cannot start solve: {e}");
        exit(1)
    });
    let op = solver.operator();
    let state = solver
        .try_drive(start, every, |state| {
            let Some(chain) = &chain else { return };
            if let Err(e) = chain.save(state.itn, &Checkpoint::capture_operator(op, cfg, state)) {
                eprintln!("warning: cannot write checkpoint: {e}");
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("solve failed: {e}");
            exit(1)
        });
    solver.finish(state)
}

/// The resilient supervisor over `--ranks` ranks, each running the named
/// backend: inject the chaos schedule when asked, and report the recovery
/// story next to the solution.
fn supervise(
    sys: &SparseSystem,
    resume: Option<LsqrState>,
    every: usize,
    chain: Option<&CheckpointRotation>,
    cfg: &LsqrConfig,
    args: &Args,
) -> Solution {
    let faults = args.chaos_seed.map(|seed| {
        println!("chaos: light fault schedule, seed {seed}");
        Arc::new(FaultPlan::new(seed, FaultSpec::light()))
    });
    let opts = ResilienceOptions {
        policy: RecoveryPolicy {
            max_retries: args.max_retries.unwrap_or(3),
            backoff: Duration::from_millis(10),
            checkpoint_every: every,
            on_unrecoverable: OnUnrecoverable::Degrade,
            ..RecoveryPolicy::default()
        },
        faults,
        collective_timeout: Some(Duration::from_secs(30)),
        resume,
        persist: chain,
        cancel: None,
    };
    let backend_for = |_| resolve_backend(&args.backend, args.threads, args.telemetry);
    match solve_resilient(sys, args.ranks, cfg, backend_for, &opts) {
        Ok(report) => {
            for e in &report.checkpoint_errors {
                eprintln!("warning: cannot write checkpoint: {e}");
            }
            if report.attempts.len() > 1 || !report.fault_events.is_empty() {
                println!(
                    "recovery: {} attempt(s), {} fault(s) injected, {} restore(s), \
                     {} degradation(s), finished on {} rank(s)",
                    report.attempts.len(),
                    report.fault_events.len(),
                    report.telemetry.checkpoint_restores,
                    report.telemetry.degradations,
                    report.final_ranks
                );
            }
            report.solution
        }
        Err(e) => {
            eprintln!("resilient solve failed: {e}");
            exit(1)
        }
    }
}

/// Print the per-kernel table of a `--telemetry` run and write its report
/// to `results/telemetry/solvergaia.json`.
fn write_run_report(args: &Args, solver: &str, solution: &Solution) {
    let report = gaia_avugsr::lsqr::run_report("solvergaia", &args.backend, solver, solution);
    println!("per-kernel telemetry:");
    print!(
        "{}",
        gaia_avugsr::telemetry::kernel_table(&report.telemetry)
    );
    match gaia_avugsr::telemetry::report::write_report(&report) {
        Ok(path) => println!("run report written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write run report: {e}"),
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        run_serve();
    }
    let args = parse_args();
    let cfg = if args.converge {
        LsqrConfig::new().max_iters(args.iterations)
    } else {
        LsqrConfig::fixed_iterations(args.iterations)
    };
    // Every input is checked before anything is generated, loaded or
    // written.
    let Some(layout) = SystemLayout::preset(&args.preset) else {
        eprintln!("unknown preset {}", args.preset);
        usage(USAGE)
    };
    if let Err(e) = cfg.validate() {
        eprintln!("--iterations {}: {e}", args.iterations);
        exit(2)
    }
    for (flag, why, excluded) in CONFLICTS.iter().filter(|c| args.given(c.0)) {
        if let Some(other) = excluded.split(' ').find(|o| args.given(o)) {
            eprintln!("{flag} {why}; it cannot be combined with {other}");
            exit(2)
        }
    }
    let backend = resolve_backend(&args.backend, args.threads, args.telemetry);
    if args.telemetry {
        if !gaia_avugsr::telemetry::is_enabled() {
            eprintln!(
                "note: telemetry probes are compiled out; rebuild with \
                 `cargo run --features telemetry --bin solvergaia` for real counts"
            );
        }
        gaia_avugsr::telemetry::reset();
    }
    let (solution, solver_label) = match &args.tiles {
        Some(dir) => (
            run_tiled(&args, &cfg, layout, dir, backend.as_ref()),
            "lsqr-tiled",
        ),
        None => run_resident(&args, &cfg, layout, backend.as_ref()),
    };

    println!(
        "stop: {:?} after {} iterations",
        solution.stop, solution.iterations
    );
    println!(
        "|r| = {:.6e}  (|r|/|b| = {:.3e})  cond(A) ~ {:.3e}",
        solution.rnorm,
        solution.relative_residual(),
        solution.acond
    );
    println!(
        "mean iteration time: {:.3} ms",
        1e3 * solution.mean_iteration_seconds()
    );
    if let Some(se) = solution.standard_errors() {
        let mean_se = se.iter().sum::<f64>() / se.len() as f64;
        println!("mean standard error: {mean_se:.3e}");
    }
    if args.telemetry {
        write_run_report(&args, solver_label, &solution);
    }
    if args.profile {
        println!("convergence profile:");
        print!("{}", profile_text(&solution));
        if let Some(p) = convergence_profile(&solution, 10) {
            if p.rate > 0.999 {
                println!("tail rate ~1.0/iter (residual plateaued at the noise floor)");
            } else {
                println!(
                    "tail rate {:.4}/iter ({} iterations per residual digit)",
                    p.rate,
                    p.iterations_per_digit
                        .map_or("n/a".to_string(), |d| format!("{d:.1}"))
                );
            }
        }
    }
}
