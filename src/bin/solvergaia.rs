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
//!            [--lsmr] [--telemetry] [--list-backends]
//! ```
//!
//! `--ranks N` runs the named backend on every rank. `--lsmr` runs LSMR
//! instead of LSQR on one rank; LSMR has no resumable state, so it
//! refuses `--ranks`, `--checkpoint` and the fault-tolerance flags.
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
//! for real counts (the probes compile to no-ops otherwise).
//!
//! Fault tolerance: `--chaos-seed S` injects a deterministic fault
//! schedule into the simulated MPI world, `--checkpoint-every N` takes a
//! recovery snapshot every N iterations (kept in a retain-last-3 rotation
//! next to `--checkpoint`'s path when given), and `--max-retries K`
//! bounds the supervisor's relaunches per rank-count tier. A corrupt or
//! mismatched checkpoint is a hard error; pass `--force-fresh` to
//! discard it and start over.

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use gaia_avugsr::backends::{backend_by_name, backend_names, instrumented_by_name};
use gaia_avugsr::lsqr::analysis::{convergence_profile, profile_text};
use gaia_avugsr::lsqr::checkpoint::{Checkpoint, CheckpointRotation};
use gaia_avugsr::lsqr::distributed::solve_hybrid;
use gaia_avugsr::lsqr::resilient::{OnUnrecoverable, RecoveryPolicy, ResilienceOptions};
use gaia_avugsr::lsqr::{
    solve_lsmr, solve_resilient, LsqrConfig, Operator, OperatorLsqr, Solution, SystemOperator,
};
use gaia_avugsr::mpi::{install_quiet_panic_hook, FaultPlan, FaultSpec};
use gaia_avugsr::sparse::{io, Generator, GeneratorConfig, Rhs, SystemLayout};

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

fn usage() -> ! {
    eprintln!(
        "usage: solvergaia [--preset tiny|small|medium] [--seed N] \
         [--iterations N] [--converge] [--backend NAME] [--threads N] \
         [--ranks N] [--dataset FILE] [--save-dataset FILE] \
         [--checkpoint FILE] [--force-fresh] [--checkpoint-every N] \
         [--chaos-seed S] [--max-retries K] [--tiles DIR] [--tile-stars N] \
         [--budget-bytes B] [--lsmr] [--profile] \
         [--telemetry] [--list-backends]"
    );
    exit(2)
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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--preset" => args.preset = val("--preset"),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--iterations" => {
                args.iterations = val("--iterations").parse().unwrap_or_else(|_| usage())
            }
            "--converge" => args.converge = true,
            "--lsmr" => args.lsmr = true,
            "--profile" => args.profile = true,
            "--telemetry" => args.telemetry = true,
            "--backend" => args.backend = val("--backend"),
            "--threads" => args.threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--ranks" => args.ranks = val("--ranks").parse().unwrap_or_else(|_| usage()),
            "--dataset" => args.dataset = Some(PathBuf::from(val("--dataset"))),
            "--save-dataset" => args.save_dataset = Some(PathBuf::from(val("--save-dataset"))),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(val("--checkpoint"))),
            "--checkpoint-every" => {
                args.checkpoint_every = val("--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(val("--chaos-seed").parse().unwrap_or_else(|_| usage()))
            }
            "--max-retries" => {
                args.max_retries = Some(val("--max-retries").parse().unwrap_or_else(|_| usage()))
            }
            "--force-fresh" => args.force_fresh = true,
            "--tiles" => args.tiles = Some(PathBuf::from(val("--tiles"))),
            "--tile-stars" => {
                args.tile_stars = val("--tile-stars").parse().unwrap_or_else(|_| usage())
            }
            "--budget-bytes" => {
                args.budget_bytes = Some(val("--budget-bytes").parse().unwrap_or_else(|_| usage()))
            }
            "--list-backends" => {
                for name in backend_names() {
                    println!("{name}");
                }
                exit(0)
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// Drive the resilient supervisor: restore the newest rotation snapshot
/// (hard error on corruption unless `--force-fresh`), inject the chaos
/// schedule when asked, and report the recovery story next to the
/// solution.
fn run_resilient(
    sys: &gaia_avugsr::sparse::SparseSystem,
    cfg: &LsqrConfig,
    args: &Args,
) -> Solution {
    install_quiet_panic_hook();
    let backend_name = args.backend.clone();
    let threads = args.threads;
    if backend_by_name(&backend_name, threads).is_none() {
        eprintln!("unknown backend {backend_name} (try --list-backends)");
        exit(1)
    }
    let rotation = args
        .checkpoint
        .as_ref()
        .map(|p| CheckpointRotation::new(p.clone(), 3));
    let resume = match (&rotation, args.force_fresh) {
        (Some(rot), false) => match rot.latest() {
            Some((itn, ckpt)) => match ckpt.restore(sys, cfg) {
                Ok(state) => {
                    println!("resumed from checkpoint rotation at iteration {itn}");
                    Some(state)
                }
                Err(e) => {
                    eprintln!("cannot resume checkpoint: {e} (pass --force-fresh to discard)");
                    exit(1)
                }
            },
            None => None,
        },
        (Some(_), true) => {
            println!("--force-fresh: ignoring any existing checkpoint rotation");
            None
        }
        _ => None,
    };
    let plan = args
        .chaos_seed
        .map(|s| Arc::new(FaultPlan::new(s, FaultSpec::light())));
    if let Some(seed) = args.chaos_seed {
        println!("chaos: light fault schedule, seed {seed}");
    }
    let policy = RecoveryPolicy {
        max_retries: args.max_retries.unwrap_or(3),
        backoff: Duration::from_millis(10),
        // A checkpoint path without an explicit cadence still deserves
        // periodic snapshots — recovery is the point of the path.
        checkpoint_every: match (args.checkpoint_every, &args.checkpoint) {
            (0, Some(_)) => 10,
            (n, _) => n,
        },
        on_unrecoverable: OnUnrecoverable::Degrade,
        ..RecoveryPolicy::default()
    };
    println!(
        "resilient solve on {} rank(s), backend {} ({} threads), \
         checkpoint every {} iteration(s), up to {} retries per tier",
        args.ranks.max(1),
        backend_name,
        threads,
        policy.checkpoint_every,
        policy.max_retries
    );
    let opts = ResilienceOptions {
        policy,
        faults: plan,
        collective_timeout: Some(Duration::from_secs(30)),
        resume,
        persist: rotation.as_ref(),
        cancel: None,
    };
    match solve_resilient(
        sys,
        args.ranks.max(1),
        cfg,
        |_| backend_by_name(&backend_name, threads).expect("validated above"),
        &opts,
    ) {
        Ok(report) => {
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

fn serve_usage() -> ! {
    eprintln!(
        "usage: solvergaia serve [--tenants N] [--requests N] [--workers N] \
         [--preset tiny|small|medium] [--seed S] [--backend NAME] [--ranks N] \
         [--deadline-ms D] [--queue N] [--quota N] [--chaos]"
    );
    exit(2)
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
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                serve_usage()
            })
        };
        match flag.as_str() {
            "--tenants" => {
                args.tenants = val("--tenants").parse().unwrap_or_else(|_| serve_usage())
            }
            "--requests" => {
                args.requests = val("--requests").parse().unwrap_or_else(|_| serve_usage())
            }
            "--workers" => {
                args.workers = val("--workers").parse().unwrap_or_else(|_| serve_usage())
            }
            "--preset" => args.preset = val("--preset"),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| serve_usage()),
            "--backend" => args.backend = val("--backend"),
            "--ranks" => args.ranks = val("--ranks").parse().unwrap_or_else(|_| serve_usage()),
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    val("--deadline-ms")
                        .parse()
                        .unwrap_or_else(|_| serve_usage()),
                )
            }
            "--queue" => args.queue = val("--queue").parse().unwrap_or_else(|_| serve_usage()),
            "--quota" => args.quota = val("--quota").parse().unwrap_or_else(|_| serve_usage()),
            "--chaos" => args.chaos = true,
            "--help" | "-h" => serve_usage(),
            other => {
                eprintln!("unknown flag {other}");
                serve_usage()
            }
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
        serve_usage()
    };
    if backend_by_name(&args.backend, 2).is_none() {
        eprintln!("unknown backend {} (try --list-backends)", args.backend);
        exit(1)
    }

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
                    gaia_avugsr::mpi::FaultKind::RankPanic,
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
/// budget. Checkpoints taken here carry tile provenance (the spill
/// directory and matrix fingerprint), so resumes validate they replay
/// the same matrix, and `GAIA_TILES_DIR` can redirect a relocated spill.
fn run_tiled(args: &Args, cfg: &LsqrConfig) -> Solution {
    use gaia_avugsr::lsqr::TiledOperator;
    use gaia_avugsr::sparse::tiled::MANIFEST_NAME;
    use gaia_avugsr::sparse::{CapacityBudget, TiledSystem};

    if args.dataset.is_some()
        || args.lsmr
        || args.ranks > 1
        || args.chaos_seed.is_some()
        || args.max_retries.is_some()
    {
        eprintln!(
            "--tiles drives the single-rank out-of-core LSQR path; it cannot \
             be combined with --dataset, --lsmr, --ranks, --chaos-seed, or \
             --max-retries"
        );
        exit(2)
    }
    let dir = args.tiles.as_ref().expect("caller checked --tiles");

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
        let Some(layout) = SystemLayout::preset(&args.preset) else {
            eprintln!("unknown preset {}", args.preset);
            usage()
        };
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

    let Some(backend) = backend_by_name(&args.backend, args.threads) else {
        eprintln!("unknown backend {} (try --list-backends)", args.backend);
        exit(1)
    };
    println!("backend: {} ({} threads)", backend.name(), args.threads);
    let solution = run_lsqr(TiledOperator::new(&tiles, backend.as_ref()), cfg, args);
    let stats = tiles.stats();
    println!(
        "tile cache: {} load(s), {} hit(s), {} eviction(s), peak resident {} bytes",
        stats.loads, stats.hits, stats.evictions, stats.peak_resident_bytes
    );
    solution
}

/// Run LSQR over `op`, resident or tiled alike. Resume from
/// `--checkpoint` when it exists, else start fresh; keep periodic
/// snapshots (`--checkpoint-every`) in a retain-last-3 rotation next to
/// it, so a killed job costs one interval at most; always write the
/// final state back. A corrupt or mismatched checkpoint is a hard error
/// — silently restarting would discard wall-clock the user paid for —
/// unless `--force-fresh` explicitly discards it.
fn run_lsqr<O: Operator>(op: O, cfg: &LsqrConfig, args: &Args) -> Solution {
    let solver = OperatorLsqr::new(op, *cfg).unwrap_or_else(|e| {
        eprintln!("cannot start solve: {e}");
        exit(1)
    });
    let op = solver.operator();
    let start = match &args.checkpoint {
        Some(path) if path.exists() && args.force_fresh => {
            println!(
                "--force-fresh: ignoring existing checkpoint {}",
                path.display()
            );
            None
        }
        Some(path) if path.exists() => {
            match Checkpoint::load(path).and_then(|c| c.restore_operator(op, cfg)) {
                Ok(state) => {
                    println!("resumed from {} at iteration {}", path.display(), state.itn);
                    Some(state)
                }
                Err(e) => {
                    eprintln!("cannot resume checkpoint: {e} (pass --force-fresh to discard)");
                    exit(1)
                }
            }
        }
        _ => None,
    };
    let rotation = args
        .checkpoint
        .as_ref()
        .map(|p| CheckpointRotation::new(p.clone(), 3));
    let state = solver
        .try_drive(start, args.checkpoint_every, |state| {
            let Some(rot) = &rotation else { return };
            if let Err(e) = rot.save(state.itn, &Checkpoint::capture_operator(op, cfg, state)) {
                eprintln!("warning: cannot write periodic checkpoint: {e}");
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("solve failed: {e}");
            exit(1)
        });
    if let Some(path) = &args.checkpoint {
        match Checkpoint::capture_operator(op, cfg, &state).save(path) {
            Ok(()) => println!("checkpoint written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write checkpoint: {e}"),
        }
    }
    solver.finish(state)
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
    if args.telemetry {
        if !gaia_avugsr::telemetry::is_enabled() {
            eprintln!(
                "note: telemetry probes are compiled out; rebuild with \
                 `cargo run --features telemetry --bin solvergaia` for real counts"
            );
        }
        gaia_avugsr::telemetry::reset();
    }
    let (solution, solver_label) = if args.tiles.is_some() {
        (run_tiled(&args, &cfg), "lsqr-tiled")
    } else {
        run_resident(&args, &cfg)
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

/// The in-memory path: load or synthesize the system, then solve it on
/// the resilient supervisor, on simulated ranks, with LSMR, or with LSQR.
/// Returns the solution and its label in the run report.
fn run_resident(args: &Args, cfg: &LsqrConfig) -> (Solution, &'static str) {
    // LSMR has no resumable state, so nothing that checkpoints or
    // restarts a solve can run it.
    if args.lsmr
        && (args.ranks > 1
            || args.checkpoint.is_some()
            || args.checkpoint_every > 0
            || args.chaos_seed.is_some()
            || args.max_retries.is_some())
    {
        eprintln!(
            "--lsmr runs a single-rank solve without resumable state; it cannot \
             be combined with --ranks, --checkpoint, --checkpoint-every, \
             --chaos-seed, or --max-retries"
        );
        exit(2)
    }
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
        None => {
            let Some(layout) = SystemLayout::preset(&args.preset) else {
                eprintln!("unknown preset {}", args.preset);
                usage()
            };
            Generator::new(
                GeneratorConfig::new(layout)
                    .seed(args.seed)
                    .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
            )
            .generate()
        }
    };
    println!(
        "system: {} rows x {} cols ({} stars)",
        sys.n_rows(),
        sys.n_cols(),
        sys.layout().n_stars
    );

    if let Some(path) = &args.save_dataset {
        match io::save_system(&sys, path) {
            Ok(()) => println!("dataset saved to {}", path.display()),
            Err(e) => {
                eprintln!("cannot save dataset: {e}");
                exit(1)
            }
        }
    }

    // The resilient supervisor takes over whenever fault tolerance is
    // asked for: chaos injection, a retry budget, or distributed
    // checkpointing. Plain runs keep the original paths.
    if args.chaos_seed.is_some()
        || args.max_retries.is_some()
        || (args.ranks > 1 && (args.checkpoint_every > 0 || args.checkpoint.is_some()))
    {
        return (run_resilient(&sys, cfg, args), "lsqr-resilient");
    }
    // Under --telemetry, wrap the backend so whole-call aprod1/aprod2
    // cells are recorded alongside the per-block kernel cells.
    let lookup = if args.telemetry {
        instrumented_by_name
    } else {
        backend_by_name
    };
    let Some(backend) = lookup(&args.backend, args.threads) else {
        eprintln!("unknown backend {} (try --list-backends)", args.backend);
        exit(1)
    };
    if args.ranks > 1 {
        println!(
            "distributed solve on {} ranks, backend: {} ({} threads per rank)",
            args.ranks,
            backend.name(),
            args.threads
        );
        let solution = solve_hybrid(&sys, args.ranks, cfg, |_| {
            lookup(&args.backend, args.threads).expect("validated above")
        });
        return (solution, "lsqr-distributed");
    }
    if args.lsmr {
        println!(
            "solver: LSMR, backend: {} ({} threads)",
            backend.name(),
            args.threads
        );
        return (solve_lsmr(&sys, &backend, cfg), "lsmr");
    }
    println!("backend: {} ({} threads)", backend.name(), args.threads);
    (
        run_lsqr(SystemOperator::new(&sys, &backend), cfg, args),
        "lsqr",
    )
}
