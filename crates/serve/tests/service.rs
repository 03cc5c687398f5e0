//! Service-level integration tests: tenant isolation, deadline
//! semantics, circuit breaking, load shedding, and invariant-grade
//! event logs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gaia_lsqr::LsqrConfig;
use gaia_mpi_sim::{FaultKind, FaultPlan};
use gaia_serve::{
    Outcome, OutcomeKind, ServiceConfig, ServiceEvent, ShedReason, SolveRequest, SolveService,
};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SparseSystem, SystemLayout};

fn system(seed: u64) -> Arc<SparseSystem> {
    Arc::new(
        Generator::new(
            GeneratorConfig::new(SystemLayout::tiny())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate(),
    )
}

/// A config with zero tolerances so the only stops left are machine
/// precision, dozens of iterations away (hundreds without
/// preconditioning). How long that takes is the host's speed: a test that
/// needs a deadline to strike mid-solve measures it first.
fn endless_config() -> LsqrConfig {
    let mut cfg = LsqrConfig::new();
    cfg.atol = 0.0;
    cfg.btol = 0.0;
    cfg.conlim = 1e300;
    cfg.max_iters = 2_000_000;
    cfg
}

fn slow_system(seed: u64) -> Arc<SparseSystem> {
    Arc::new(
        Generator::new(
            GeneratorConfig::new(SystemLayout::small())
                .seed(seed)
                .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
        )
        .generate(),
    )
}

#[test]
fn concurrent_tenants_with_distinct_backends_all_converge() {
    let service = SolveService::start(ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    });
    let backends = ["seq", "chunked-t2", "atomic-t2", "striped-t2", "casloop-t2"];
    let tickets: Vec<_> = backends
        .iter()
        .enumerate()
        .map(|(i, backend)| {
            let mut req = SolveRequest::new(format!("tenant-{i}"), system(40 + i as u64));
            req.backend = backend.to_string();
            req.ranks = 1 + i % 3;
            service.submit(req)
        })
        .collect();
    for (i, (_, ticket)) in tickets.iter().enumerate() {
        let outcome = ticket.wait();
        let summary = outcome
            .summary()
            .unwrap_or_else(|| panic!("tenant {i} should converge, got {:?}", outcome.kind()));
        assert!(summary.solution.stop.converged());
    }
    let events = service.shutdown();
    let finished = events
        .iter()
        .filter(|e| matches!(e, ServiceEvent::Finished { .. }))
        .count();
    assert_eq!(finished, backends.len());
}

#[test]
fn deadline_exceeded_mid_solve_never_yields_a_partial_solution_across_backends() {
    // Satellite: across three backends, a solve cancelled mid-iteration
    // resolves to DeadlineExceeded carrying NO Solution — the partial
    // iterate is unreachable through the outcome type.
    //
    // How fast the host is must not decide whether the deadline strikes
    // mid-solve, so the deadline is measured, not chosen: the same request
    // runs once with no deadline, to its machine-precision stop (without
    // preconditioning that is some 300 iterations away on this system),
    // and the deadline is a quarter of the time that took.
    for backend in ["seq", "chunked-t2", "atomic-t2"] {
        let service = SolveService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let request = || {
            let mut req = SolveRequest::new("deadline", slow_system(7));
            req.backend = backend.to_string();
            req.config = endless_config().precondition(false);
            req
        };
        let t0 = Instant::now();
        let unhurried = service.submit(request()).1.wait();
        let full_time = t0.elapsed();
        let full_iterations = unhurried
            .summary()
            .unwrap_or_else(|| panic!("{backend}: {:?} with no deadline", unhurried.kind()))
            .solution
            .iterations;

        let mut req = request();
        req.deadline = Some(full_time / 4);
        let outcome = service.submit(req).1.wait();
        // Type-level guarantee: no summary (hence no Solution) exists.
        assert!(outcome.summary().is_none());
        match outcome {
            Outcome::DeadlineExceeded { iterations } => {
                assert!(
                    iterations > 0,
                    "{backend}: the deadline should strike mid-solve, not in-queue"
                );
                assert!(
                    iterations < full_iterations,
                    "{backend}: cancelled at iteration {iterations} of {full_iterations}"
                );
            }
            other => panic!(
                "{backend}: expected DeadlineExceeded, got {:?}",
                other.kind()
            ),
        }
        service.shutdown();
    }
}

#[test]
fn expired_deadline_in_queue_resolves_without_launching() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // A zero deadline is already expired when a worker picks it up.
    let mut blocker = SolveRequest::new("slow", system(11));
    blocker.config = endless_config();
    blocker.deadline = Some(Duration::from_millis(80));
    let (_, slow) = service.submit(blocker);
    let mut req = SolveRequest::new("queued", system(12));
    req.deadline = Some(Duration::ZERO);
    let (id, ticket) = service.submit(req);
    assert!(matches!(
        ticket.wait(),
        Outcome::DeadlineExceeded { iterations: 0 }
    ));
    let _ = slow.wait();
    let events = service.shutdown();
    // The expired request was admitted but never Started.
    assert!(events.contains(&ServiceEvent::Admitted { id }));
    assert!(!events
        .iter()
        .any(|e| matches!(e, ServiceEvent::Started { id: sid, .. } if *sid == id)));
}

#[test]
fn faulting_tenant_trips_its_breaker_without_touching_others() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        retry: gaia_serve::RetryConfig {
            max_retries: 0,
            ..Default::default()
        },
        breaker: gaia_serve::BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        },
        ..ServiceConfig::default()
    });
    // Two guaranteed faults: an unknown backend is a terminal failure.
    for _ in 0..2 {
        let mut req = SolveRequest::new("hostile", system(21));
        req.backend = "no-such-backend".into();
        let (_, t) = service.submit(req);
        assert_eq!(t.wait().kind(), OutcomeKind::Faulted);
    }
    // Third submission fast-fails on the open circuit.
    let (_, t) = service.submit(SolveRequest::new("hostile", system(22)));
    assert!(matches!(t.wait(), Outcome::Shed(ShedReason::CircuitOpen)));
    // A well-behaved tenant is unaffected.
    let (_, t) = service.submit(SolveRequest::new("polite", system(23)));
    assert_eq!(t.wait().kind(), OutcomeKind::Converged);
    service.shutdown();
}

#[test]
fn lost_breaker_probe_does_not_permanently_lock_out_a_tenant() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        retry: gaia_serve::RetryConfig {
            max_retries: 0,
            ..Default::default()
        },
        breaker: gaia_serve::BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(40),
        },
        ..ServiceConfig::default()
    });
    // Trip the breaker with two terminal faults.
    for _ in 0..2 {
        let mut req = SolveRequest::new("flaky", system(80));
        req.backend = "no-such-backend".into();
        let (_, t) = service.submit(req);
        assert_eq!(t.wait().kind(), OutcomeKind::Faulted);
    }
    let (_, t) = service.submit(SolveRequest::new("flaky", system(81)));
    assert!(matches!(t.wait(), Outcome::Shed(ShedReason::CircuitOpen)));
    // After the cooldown the half-open probe is admitted — but it
    // carries an already-expired deadline, so it resolves
    // DeadlineExceeded and no breaker verdict ever arrives for it.
    std::thread::sleep(Duration::from_millis(60));
    let mut probe = SolveRequest::new("flaky", system(82));
    probe.deadline = Some(Duration::ZERO);
    let (_, t) = service.submit(probe);
    assert_eq!(t.wait().kind(), OutcomeKind::DeadlineExceeded);
    // The lost probe must not leave the tenant half-open forever: the
    // slot reverts to open, and after another cooldown a fresh probe is
    // admitted and closes the circuit.
    std::thread::sleep(Duration::from_millis(60));
    let (_, t) = service.submit(SolveRequest::new("flaky", system(83)));
    assert_eq!(
        t.wait().kind(),
        OutcomeKind::Converged,
        "tenant must be able to recover after a lost probe"
    );
    service.shutdown();
}

#[test]
fn scripted_rank_panic_is_contained_and_recovered() {
    let plan = Arc::new(FaultPlan::scripted(31).with_event(0, 1, 2, FaultKind::RankPanic));
    let service = SolveService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut chaotic = SolveRequest::new("chaotic", system(31));
    chaotic.ranks = 2;
    chaotic.faults = Some(plan);
    let (_, chaos_ticket) = service.submit(chaotic);
    let (_, calm_ticket) = service.submit(SolveRequest::new("calm", system(32)));
    // The supervisor recovers the panicked rank; both tenants converge.
    let chaos_outcome = chaos_ticket.wait();
    assert!(
        chaos_outcome.summary().is_some(),
        "supervisor should recover the scripted panic, got {:?}",
        chaos_outcome.kind()
    );
    assert_eq!(calm_ticket.wait().kind(), OutcomeKind::Converged);
    service.shutdown();
}

#[test]
fn a_request_for_more_ranks_than_stars_degrades_without_a_retry() {
    let sys = system(33);
    let too_many = sys.layout().n_stars as usize + 1;
    // An hour between the supervisor's retries: the request resolves only
    // if the refused launch is degraded at once, never relaunched.
    let mut cfg = ServiceConfig::default();
    cfg.supervisor.backoff = Duration::from_secs(3600);
    cfg.supervisor.backoff_cap = Duration::from_secs(3600);
    let service = SolveService::start(cfg);
    let mut request = SolveRequest::new("greedy", sys);
    request.ranks = too_many;
    let (id, ticket) = service.submit(request);
    let outcome = ticket.wait();
    assert_eq!(outcome.kind(), OutcomeKind::Degraded);
    let summary = outcome.summary().expect("a degraded solve has a summary");
    assert_eq!(summary.retries, 0);
    assert_eq!(summary.attempts, 2, "one refusal, one solve");
    assert_eq!(summary.ranks, too_many / 2);
    let events = service.shutdown();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ServiceEvent::Retried { id: retried, .. } if *retried == id)),
        "{events:?}"
    );
}

#[test]
fn overload_sheds_with_queue_full_and_every_admitted_request_resolves() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        tenant_quota: 2,
        ..ServiceConfig::default()
    });
    let mut outcomes = Vec::new();
    for i in 0..6 {
        let mut req = SolveRequest::new("flood", system(50 + i));
        if i == 0 {
            req.config = endless_config();
            req.deadline = Some(Duration::from_millis(60));
        }
        outcomes.push(service.submit(req).1);
    }
    let kinds: Vec<_> = outcomes.into_iter().map(|t| t.wait().kind()).collect();
    assert!(
        kinds.contains(&OutcomeKind::Shed),
        "a 2-deep queue under 6 submissions must shed: {kinds:?}"
    );
    let events = service.shutdown();
    // Every submitted id has exactly one of Admitted/Shed, and every
    // admitted id exactly one Finished.
    for id in 0..6u64 {
        let admitted = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::Admitted { id: x } if *x == id))
            .count();
        let shed = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::Shed { id: x, .. } if *x == id))
            .count();
        assert_eq!(admitted + shed, 1, "id {id}: admitted XOR shed");
        let finished = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::Finished { id: x, .. } if *x == id))
            .count();
        // Admitted requests finish exactly once; shed requests resolved
        // their ticket at submit and never reach a worker.
        assert_eq!(finished, admitted, "id {id}: exactly one terminal outcome");
    }
}

#[test]
fn shutdown_drains_admitted_requests_before_returning() {
    let service = SolveService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = (0..4)
        .map(|i| service.submit(SolveRequest::new("drain", system(70 + i))).1)
        .collect();
    let events = service.shutdown();
    for t in &tickets {
        assert!(
            t.try_outcome().is_some(),
            "shutdown must drain every admitted request"
        );
    }
    let finished = events
        .iter()
        .filter(|e| matches!(e, ServiceEvent::Finished { .. }))
        .count();
    assert_eq!(finished, 4);
}
