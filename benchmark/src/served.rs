//! `served-mix`: a closed loop of clients against the solve service.
//!
//! `T` clients each submit a request, wait on its `Ticket`, check the
//! solution and submit the next. A client's *pass* goes once through the
//! eight request kinds; one pass is one sample, so every sample holds the
//! same work in whatever order the two clients' requests met.

use std::path::Path;
use std::sync::Arc;

use gaia_lsqr::{solve, LsqrConfig, Solution};
use gaia_serve::{OutcomeKind, ServiceConfig, SolveRequest, SolveService};
use gaia_sparse::footprint::device_bytes;
use gaia_sparse::{SparseSystem, SystemLayout};

use crate::host;
use crate::metrics::{Metrics, RunResult};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::workloads::{
    fig6, generate, pool_counts, probe_layers, registry, repeat_setup, result, sizes, write_trace,
    Exact, Fig6, Options, MB,
};

/// The request kinds: both systems on each of these backends.
const SERVED_BACKENDS: [&str; 4] = ["seq", "chunked-t2", "atomic-t2", "striped-t2"];
const KINDS: usize = 2 * SERVED_BACKENDS.len();

struct Served {
    systems: [Arc<SparseSystem>; 2],
    service: SolveService,
    generate_s: f64,
}

impl Served {
    fn setup(layouts: [SystemLayout; 2], seed: u64) -> Self {
        let t0 = host::now();
        let systems = layouts.map(|l| Arc::new(generate(l, seed)));
        let generate_s = host::secs_since(t0);
        let service = SolveService::start(ServiceConfig {
            workers: host::nproc().min(2),
            ..ServiceConfig::default()
        });
        Served {
            systems,
            service,
            generate_s,
        }
    }

    fn request(&self, tenant: u32, kind: usize) -> SolveRequest {
        let system = Arc::clone(&self.systems[kind % 2]);
        let mut request = SolveRequest::new(format!("client{tenant}"), system);
        request.backend = SERVED_BACKENDS[kind / 2].to_string();
        request
    }
}

/// One resolved request as its client saw it.
struct Request {
    latency: f64,
    submit: f64,
    solve: f64,
    iterations: usize,
    iteration_secs: Vec<f64>,
    rel_residual: f64,
    outcome: OutcomeKind,
    retries: u32,
    queue_depth: usize,
    check: Option<Fig6>,
}

impl Request {
    fn ok(&self) -> bool {
        self.check.as_ref().is_some_and(|c| c.pass)
    }
}

/// Submit one request, wait for its ticket and check what came back.
fn round_trip(
    served: &Served,
    references: &[Solution; 2],
    lane: u32,
    kind: usize,
    id: u64,
    trace: Option<&Arc<Trace>>,
) -> Request {
    let request = served.request(lane, kind);
    let span = trace.map(|t| t.solve_span("serve.request", "serve", id));
    let t0 = host::now();
    let ticket = {
        let _span = trace.map(|t| t.span("serve.submit", "serve"));
        served.service.submit(request).1
    };
    let submit = host::secs_since(t0);
    let queue_depth = served.service.queue_depth();
    let wait = trace.map(|t| t.span("serve.wait", "serve"));
    let outcome = ticket.wait();
    let done = host::now();
    let latency = done.duration_since(t0).as_secs_f64();
    let summary = outcome.summary();
    let history = summary.map_or(&[][..], |s| &s.solution.history);
    let solve: f64 = history.iter().map(|h| h.seconds).sum();
    if let Some(t) = trace {
        // The solve ran on a service worker, out of reach of any wrapper.
        // Its length is what the returned history reports; where in the
        // wait it lay is not known, so it is drawn at the end of the wait.
        let secs = std::time::Duration::from_secs_f64(solve.min(latency - submit));
        t.record("core.solve.reported", "core", done - secs, done);
    }
    drop(wait);
    drop(span);
    let check = summary.map(|s| fig6(&s.solution, &references[kind % 2]));
    if !check.as_ref().is_some_and(|c| c.pass) {
        let backend = SERVED_BACKENDS[kind / 2];
        let within = check.as_ref().map(|c| c.within_1sigma);
        eprintln!(
            "request {id:#x} (system {}, {backend}) failed: {:?}, within 1 sigma {within:?}",
            kind % 2,
            outcome.kind()
        );
    }
    Request {
        latency,
        submit,
        solve,
        iterations: summary.map_or(0, |s| s.solution.iterations),
        iteration_secs: history.iter().map(|h| h.seconds).collect(),
        rel_residual: summary.map_or(0.0, |s| s.solution.relative_residual()),
        outcome: outcome.kind(),
        retries: summary.map_or(0, |s| s.retries),
        queue_depth,
        check,
    }
}

/// What a closed loop measured: every request, in passes of [`KINDS`].
struct Loop {
    passes: Vec<Vec<Request>>,
    wall: f64,
}

impl Loop {
    fn requests(&self) -> impl Iterator<Item = &Request> {
        self.passes.iter().flatten()
    }

    fn count(&self) -> usize {
        self.requests().count()
    }

    fn failed(&self) -> u64 {
        self.requests().filter(|r| !r.ok()).count() as u64
    }

    fn latencies(&self) -> Vec<f64> {
        self.requests().map(|r| r.latency).collect()
    }

    /// Seconds per request, pass by pass.
    fn pass_secs(&self) -> Vec<f64> {
        let per_pass = |p: &Vec<Request>| p.iter().map(|r| r.latency).sum::<f64>() / p.len() as f64;
        self.passes.iter().map(per_pass).collect()
    }

    /// Milliseconds of latency per LSQR iteration delivered, pass by pass.
    fn pass_iter_ms(&self) -> Vec<f64> {
        let per_pass = |p: &Vec<Request>| {
            let iterations: usize = p.iter().map(|r| r.iterations).sum();
            p.iter().map(|r| r.latency).sum::<f64>() / iterations.max(1) as f64 * 1e3
        };
        self.passes.iter().map(per_pass).collect()
    }
}

/// `clients` closed loops side by side: each client sends its next
/// request when the previous one has resolved, pass after pass, until
/// `seconds` are over and it has made `min_passes`.
fn closed_loop(
    served: &Served,
    references: &[Solution; 2],
    clients: usize,
    seconds: f64,
    min_passes: usize,
    trace: Option<&Arc<Trace>>,
) -> Loop {
    let ctx = Trace::context();
    let begin = host::now();
    let client = |lane: u32| {
        if trace.is_some() {
            Trace::adopt(lane, ctx);
        }
        let mut passes = Vec::new();
        while passes.len() < min_passes || host::secs_since(begin) < seconds {
            let pass = (0..KINDS)
                .map(|k| {
                    // Clients start at different kinds, so that they do
                    // not ask for the same one at the same moment.
                    let kind = (k + 3 * lane as usize) % KINDS;
                    let id = (u64::from(lane) << 32) + (passes.len() * KINDS + k) as u64 + 1;
                    round_trip(served, references, lane, kind, id, trace)
                })
                .collect();
            passes.push(pass);
        }
        passes
    };
    // gaia-analyze: allow(thread-spawn): the clients of a closed loop are
    // callers of the service, each blocked on its own ticket; they are
    // the load, not work for the executor pool.
    let passes = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=clients as u32)
            .map(|lane| scope.spawn(move || client(lane)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Loop {
        passes,
        wall: host::secs_since(begin),
    }
}

/// Warm-up: every kind once, submitted by all clients at the same time,
/// so that the service has held its largest working set — concurrent
/// solves of the larger system on every backend — before the peak RSS
/// of the timed section is read.
fn warm_up(served: &Served, clients: usize) {
    for kind in 0..KINDS {
        let tickets: Vec<_> = (0..clients as u32)
            .map(|c| served.service.submit(served.request(c, kind)).1)
            .collect();
        tickets.iter().for_each(|t| {
            t.wait();
        });
    }
}

/// Run `served-mix` once as `opts` asks.
pub fn run(opts: &Options, tmp: &Path) -> Result<(RunResult, Exact), String> {
    let sizes = sizes(opts.smoke);
    let clients = host::nproc();
    let min_passes = sizes.min_solves;

    let (served, setup_secs) =
        repeat_setup(opts.smoke, || Ok(Served::setup(sizes.served, opts.seed)))?;
    let cfg = LsqrConfig::new();
    let references = [0, 1].map(|i| solve(&served.systems[i], registry("seq").as_ref(), &cfg));
    warm_up(&served, clients);
    let timed = |clients: usize, seconds: f64, trace: Option<&Arc<Trace>>| {
        closed_loop(&served, &references, clients, seconds, min_passes, trace)
    };

    let mut m = Metrics::default();
    if !opts.traced {
        let run = timed(clients, opts.seconds, None);
        let peak_rss_mb = host::peak_rss_mb();
        m.set_all(&[
            ("setup_s", median(&setup_secs)),
            ("solve_s", median(&run.pass_secs())),
            ("iter_ms", median(&run.pass_iter_ms())),
            ("throughput_rps", run.count() as f64 / run.wall),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        println!(
            "samples: {} passes of {KINDS} requests from {clients} clients in {:.2} s; \
             request p50 {:.4} s, p90 {:.4} s",
            run.passes.len(),
            run.wall,
            median(&run.latencies()),
            percentile(&run.latencies(), 90.0)
        );
        return Ok((result(run.count() as u64, run.failed(), m), Exact::new()));
    }

    // Traced run: one client alone, then all clients plain, then all
    // clients with a span around every call into the service.
    let solo = timed(1, opts.seconds / 5.0, None);
    let plain = timed(clients, opts.seconds * 0.4, None);
    let trace = Trace::new();
    let pool_before = pool_counts();
    let root = trace.span("bench.timed", "bench");
    let root_index = root.index();
    let run = timed(clients, opts.seconds * 0.4, Some(&trace));
    drop(root);
    let pool_after = pool_counts();
    let spans = trace.spans();

    probe_layers(&mut m, &served.systems[1], tmp, opts.smoke);
    let mrows = served.systems.iter().map(|s| s.n_rows()).sum::<usize>() as f64 / 1e6;
    let bytes: u64 = served
        .systems
        .iter()
        .map(|s| device_bytes(s.layout()))
        .sum();
    let collect = |f: &dyn Fn(&Request) -> f64| run.requests().map(f).collect::<Vec<f64>>();
    let largest = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let iterations = collect(&|r| r.iterations as f64);
    let iters: f64 = iterations.iter().sum();
    let checks = || run.requests().filter_map(|r| r.check.as_ref());
    let iteration_secs: Vec<f64> = run
        .requests()
        .flat_map(|r| r.iteration_secs.iter().copied())
        .collect();
    let latencies = run.latencies();
    let nonsolve = collect(&|r| r.latency - r.solve);
    let nonsolve_share = nonsolve.iter().sum::<f64>() / latencies.iter().sum::<f64>();
    let contention = median(&run.pass_secs()) / median(&solo.pass_secs());
    let overhead = median(&run.pass_secs()) / median(&plain.pass_secs()) - 1.0;
    m.set_all(&[
        ("sparse.generate_s", served.generate_s),
        ("sparse.generate_mrows_per_s", mrows / served.generate_s),
        ("sparse.matrix_mb", bytes as f64 / MB),
        (
            "backends.exec.launches_per_iter",
            (pool_after.0 - pool_before.0) as f64 / iters,
        ),
        (
            "backends.exec.jobs_per_iter",
            (pool_after.1 - pool_before.1) as f64 / iters,
        ),
        ("core.iterations", median(&iterations)),
        ("core.rel_residual", largest(collect(&|r| r.rel_residual))),
        (
            "core.max_abs_diff_vs_ref",
            checks().fold(0.0f64, |a, c| a.max(c.max_abs_diff)),
        ),
        (
            "core.within_1sigma_frac",
            checks().fold(1.0f64, |a, c| a.min(c.within_1sigma)),
        ),
        ("core.iter_p95_ms", percentile(&iteration_secs, 95.0) * 1e3),
        ("serve.submit_us", median(&collect(&|r| r.submit)) * 1e6),
        ("serve.req_p50_ms", median(&latencies) * 1e3),
        ("serve.req_p90_ms", percentile(&latencies, 90.0) * 1e3),
        ("serve.nonsolve_p50_ms", median(&nonsolve) * 1e3),
        ("serve.nonsolve_p90_ms", percentile(&nonsolve, 90.0) * 1e3),
        ("serve.nonsolve_share", nonsolve_share),
        ("serve.solo_p50_ms", median(&solo.latencies()) * 1e3),
        ("serve.contention_ratio", contention),
        (
            "serve.queue_depth_max",
            largest(collect(&|r| r.queue_depth as f64)),
        ),
        (
            "serve.retries",
            collect(&|r| f64::from(r.retries)).iter().sum(),
        ),
        ("bench.trace_overhead_frac", overhead),
        ("bench.spans", spans.len() as f64),
    ]);
    for (name, kind) in [
        ("converged", OutcomeKind::Converged),
        ("degraded", OutcomeKind::Degraded),
        ("shed", OutcomeKind::Shed),
        ("deadline", OutcomeKind::DeadlineExceeded),
        ("faulted", OutcomeKind::Faulted),
    ] {
        let n = run.requests().filter(|r| r.outcome == kind).count();
        m.set(format!("serve.outcome.{name}"), n as f64);
    }
    write_trace(&opts.home, "served-mix", &spans, root_index)?;

    let attempted = (solo.count() + plain.count() + run.count()) as u64;
    let failed = solo.failed() + plain.failed() + run.failed();
    Ok((result(attempted, failed, m), Exact::new()))
}
