//! The solve service: worker threads draining the admission queue.
//!
//! Each worker pops fair-share, decides a resource share from current
//! queue pressure, and runs the request under the resilient supervisor
//! with the request's deadline threaded in as a cooperative cancellation
//! token. Panics are contained by two `catch_unwind` boundaries: one
//! around the solve itself (a panicking tenant becomes a retryable
//! failure) and a last-resort one around the whole execute path (a bug
//! in telemetry or event logging still resolves the ticket `Faulted`
//! instead of killing the worker), so no request can take down a worker,
//! let alone the service.
//!
//! This file is the service's only thread-spawn site, and is allowlisted
//! as such in `gaia-analyze` alongside the executor pool: every other
//! crate must launch through [`gaia_backends::ExecutorPool`], and every
//! serve module but this one must stay spawn-free.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gaia_backends::registry::backend_by_name;
use gaia_backends::{Backend, SeqBackend};
use gaia_lsqr::resilient::{RecoveryPolicy, ResilienceOptions};
use gaia_lsqr::{jittered_backoff, solve_resilient, CancellationToken, StopReason};
use gaia_telemetry::{ServeCell, TenantUsage};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::queue::AdmissionQueue;
use crate::request::{Outcome, OutcomeKind, ServiceEvent, ShedReason, SolveRequest, SolveSummary};
use crate::scheduler::{share_for, DegradeConfig};

/// Service-level retry tuning (a layer above the supervisor's own
/// per-solve retries): how often a *terminally failed* request is
/// re-executed, with capped full-jitter backoff between executions.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Re-executions after the first (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff before the first retry.
    pub backoff: Duration,
    /// Ceiling the exponential backoff never exceeds.
    pub backoff_cap: Duration,
    /// Seed decorrelating the jitter across services; each request
    /// additionally folds its id in, so concurrent retries spread out.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 2,
            backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5E47E,
        }
    }
}

/// Full service tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (concurrent solves).
    pub workers: usize,
    /// Admission queue capacity (global backpressure bound).
    pub queue_capacity: usize,
    /// Max queued requests per tenant (fair-share quota).
    pub tenant_quota: usize,
    /// Overload degradation thresholds.
    pub degrade: DegradeConfig,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Service-level retry tuning.
    pub retry: RetryConfig,
    /// Supervisor policy for each solve (per-solve retries, checkpoint
    /// cadence, rank degradation).
    pub supervisor: RecoveryPolicy,
    /// Collective timeout handed to each distributed launch.
    pub collective_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            tenant_quota: 8,
            degrade: DegradeConfig::default(),
            breaker: BreakerConfig::default(),
            retry: RetryConfig::default(),
            supervisor: RecoveryPolicy {
                backoff: Duration::ZERO,
                ..RecoveryPolicy::default()
            },
            collective_timeout: Some(Duration::from_secs(5)),
        }
    }
}

struct TicketInner {
    slot: Mutex<Option<Outcome>>,
    done: Condvar,
}

/// A handle to one submitted request's eventual [`Outcome`].
#[derive(Clone)]
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    fn new() -> Self {
        Ticket(Arc::new(TicketInner {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }))
    }

    fn resolve(&self, outcome: Outcome) {
        let mut slot = self.0.slot.lock().unwrap_or_else(PoisonError::into_inner);
        // First resolution wins; the service only resolves once per
        // request, so a second write would be a logic bug upstream.
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        self.0.done.notify_all();
    }

    /// Block until the request resolves and return its outcome.
    pub fn wait(&self) -> Outcome {
        let mut slot = self.0.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.clone() {
                return outcome;
            }
            slot = self
                .0
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The outcome, if already resolved (non-blocking).
    pub fn try_outcome(&self) -> Option<Outcome> {
        self.0
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

struct Work {
    id: u64,
    request: SolveRequest,
    ticket: Ticket,
    token: CancellationToken,
}

struct Inner {
    cfg: ServiceConfig,
    queue: AdmissionQueue<Work>,
    breaker: CircuitBreaker,
    events: Mutex<Vec<ServiceEvent>>,
    // ORDERING: `next_id` is a pure id dispenser — `Relaxed` fetch_add is
    // enough for uniqueness, and every cross-thread hand-off (queue items,
    // tickets, the event log) synchronizes through mutexes, not atomics.
    next_id: AtomicU64,
}

impl Inner {
    fn log(&self, event: ServiceEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    fn finished_logged(&self, id: u64) -> bool {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .any(|e| matches!(e, ServiceEvent::Finished { id: fid, .. } if *fid == id))
    }

    /// [`execute`](Self::execute) with a last-resort panic boundary: a
    /// panic anywhere in the execute path outside `solve_resilient`'s own
    /// `catch_unwind` (telemetry, event logging, the backend registry)
    /// must not kill the worker thread — that would silently shrink
    /// capacity and leave the in-flight ticket unresolved, blocking its
    /// `wait()` forever. The recovery resolves the ticket `Faulted` and
    /// logs `Finished` exactly once, preserving the audit invariant.
    fn execute_contained(&self, work: Work) {
        let id = work.id;
        let tenant = work.request.tenant.clone();
        let ticket = work.ticket.clone();
        if catch_unwind(AssertUnwindSafe(|| self.execute(work))).is_err() {
            if ticket.try_outcome().is_some() {
                // `finish` completed; the panic struck after resolution.
                return;
            }
            // The panic may have landed between `finish`'s Finished log
            // and the ticket resolution — log only if it didn't.
            if !self.finished_logged(id) {
                self.log(ServiceEvent::Finished {
                    id,
                    kind: OutcomeKind::Faulted,
                });
            }
            // No breaker record here: `execute` may already have recorded
            // one before the panic, and a service-side panic is not a
            // tenant-health signal — but a half-open probe slot must not
            // stay reserved for a verdict that will never come.
            self.breaker.probe_aborted(&tenant);
            ticket.resolve(Outcome::Faulted(
                "service panicked outside the solve path".to_string(),
            ));
        }
    }

    fn finish(&self, id: u64, tenant: &str, outcome: Outcome, ticket: &Ticket, wall: Duration) {
        let kind = outcome.kind();
        self.log(ServiceEvent::Finished { id, kind });
        let mut delta = ServeCell {
            completed: 1,
            ..ServeCell::default()
        };
        match kind {
            OutcomeKind::Converged => delta.converged = 1,
            OutcomeKind::Degraded => delta.degraded = 1,
            OutcomeKind::DeadlineExceeded => delta.timed_out = 1,
            OutcomeKind::Faulted => delta.faulted = 1,
            // Shed requests resolve at submit and never reach a worker.
            OutcomeKind::Shed => {}
        }
        delta.tenants = vec![TenantUsage {
            tenant: tenant.to_string(),
            requests: 1,
            seconds: wall.as_secs_f64(),
        }];
        gaia_telemetry::record(|t| t.serve.merge(&delta));
        ticket.resolve(outcome);
    }

    /// Run one admitted request to its terminal outcome.
    fn execute(&self, work: Work) {
        let Work {
            id,
            request,
            ticket,
            token,
        } = work;
        // gaia-analyze: allow(timing): per-tenant wall-time accounting
        // is this service's fairness ledger, not a kernel measurement.
        let start = Instant::now();

        // Deadline enforcement in-queue: a request whose deadline struck
        // while waiting is never launched.
        if token.is_cancelled() {
            self.breaker.probe_aborted(&request.tenant);
            self.finish(
                id,
                &request.tenant,
                Outcome::DeadlineExceeded { iterations: 0 },
                &ticket,
                start.elapsed(),
            );
            return;
        }

        let share = share_for(
            &self.cfg.degrade,
            request.ranks,
            self.queue.depth(),
            self.queue.capacity(),
        );
        self.log(ServiceEvent::Started {
            id,
            threads: share.threads,
            ranks: share.ranks,
        });

        if backend_by_name(&request.backend, share.threads).is_none() {
            let outcome = Outcome::Faulted(format!("unknown backend '{}'", request.backend));
            self.breaker.record_failure(&request.tenant);
            self.finish(id, &request.tenant, outcome, &ticket, start.elapsed());
            return;
        }

        let mut retries_used: u32 = 0;
        // Iterations the most recent attempt completed, so a deadline
        // firing *between* retries still reports how far the solve got
        // (the Outcome::DeadlineExceeded contract: 0 = never launched).
        let mut last_iterations: usize = 0;
        let outcome = loop {
            if token.is_cancelled() {
                break Outcome::DeadlineExceeded {
                    iterations: last_iterations,
                };
            }
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                solve_resilient(
                    &request.system,
                    share.ranks,
                    &request.config,
                    |_| {
                        backend_by_name(&request.backend, share.threads)
                            .unwrap_or_else(|| Box::new(SeqBackend) as Box<dyn Backend>)
                    },
                    &ResilienceOptions {
                        // Fold the request id into the supervisor's
                        // jitter seed (mirroring the service-level retry
                        // seeding below) so concurrent tenants' in-solve
                        // retry pauses decorrelate too.
                        policy: RecoveryPolicy {
                            jitter_seed: self.cfg.supervisor.jitter_seed ^ id,
                            ..self.cfg.supervisor
                        },
                        faults: request.faults.clone(),
                        collective_timeout: self.cfg.collective_timeout,
                        cancel: Some(token.clone()),
                        ..Default::default()
                    },
                )
            }));
            let failure = match attempt {
                Ok(Ok(report)) => {
                    if report.solution.stop == StopReason::Cancelled {
                        break Outcome::DeadlineExceeded {
                            iterations: report.solution.iterations,
                        };
                    }
                    if report.solution.stop.converged() {
                        let degraded = share.degraded
                            || report.final_ranks < share.ranks
                            || report.telemetry.degradations > 0;
                        let summary = SolveSummary {
                            ranks: report.final_ranks,
                            threads: share.threads,
                            attempts: report.attempts.len(),
                            retries: retries_used,
                            solution: report.solution,
                        };
                        break if degraded {
                            Outcome::Degraded(summary)
                        } else {
                            Outcome::Converged(summary)
                        };
                    }
                    last_iterations = report.solution.iterations;
                    format!(
                        "solve stopped without converging: {:?}",
                        report.solution.stop
                    )
                }
                Ok(Err(unrecoverable)) => unrecoverable.to_string(),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    format!("solve panicked: {msg}")
                }
            };
            if retries_used >= self.cfg.retry.max_retries {
                break Outcome::Faulted(failure);
            }
            retries_used += 1;
            self.log(ServiceEvent::Retried {
                id,
                attempt: retries_used,
            });
            gaia_telemetry::record(|t| t.serve.retried += 1);
            let pause = jittered_backoff(
                self.cfg.retry.backoff,
                self.cfg.retry.backoff_cap,
                retries_used - 1,
                self.cfg.retry.jitter_seed ^ id,
            );
            // Never sleep past the deadline: cap the pause at the time
            // remaining so an expiring request resolves promptly.
            let pause = token.remaining().map_or(pause, |left| pause.min(left));
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        };

        match outcome.kind() {
            OutcomeKind::Converged | OutcomeKind::Degraded => {
                self.breaker.record_success(&request.tenant)
            }
            OutcomeKind::Faulted => self.breaker.record_failure(&request.tenant),
            // A deadline says nothing about the tenant's health — but if
            // this request was the half-open probe, the slot must be
            // released (back to open) or the tenant would wait out the
            // breaker's stale-probe timeout before the next probe.
            OutcomeKind::DeadlineExceeded => self.breaker.probe_aborted(&request.tenant),
            OutcomeKind::Shed => {}
        }
        self.finish(id, &request.tenant, outcome, &ticket, start.elapsed());
    }
}

/// A long-running in-process solve service over worker threads.
///
/// See the crate docs for the full contract; in short: `submit` never
/// blocks and always yields a [`Ticket`] that resolves to exactly one
/// [`Outcome`], and no request — however hostile — can crash the service
/// or another tenant's requests.
pub struct SolveService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl SolveService {
    /// Start the service with `cfg.workers` worker threads.
    pub fn start(cfg: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            queue: AdmissionQueue::new(cfg.queue_capacity, cfg.tenant_quota),
            breaker: CircuitBreaker::new(cfg.breaker),
            events: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("gaia-serve-{i}"))
                    .spawn(move || {
                        while let Some(work) = inner.queue.pop() {
                            inner.execute_contained(work);
                        }
                    })
                    .unwrap_or_else(|e| panic!("spawn serve worker: {e}"))
            })
            .collect();
        SolveService { inner, workers }
    }

    /// Submit a request. Never blocks: an inadmissible request resolves
    /// its ticket immediately with [`Outcome::Shed`]. Returns the
    /// service-assigned request id and the outcome ticket.
    pub fn submit(&self, request: SolveRequest) -> (u64, Ticket) {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ticket = Ticket::new();
        self.inner.log(ServiceEvent::Submitted {
            id,
            tenant: request.tenant.clone(),
        });
        let mut delta = ServeCell {
            submitted: 1,
            ..ServeCell::default()
        };

        if !self.inner.breaker.admit(&request.tenant) {
            let reason = ShedReason::CircuitOpen;
            self.inner.log(ServiceEvent::Shed { id, reason });
            delta.shed = 1;
            delta.broken_circuit = 1;
            gaia_telemetry::record(|t| t.serve.merge(&delta));
            ticket.resolve(Outcome::Shed(reason));
            return (id, ticket);
        }

        let token = match request.deadline {
            Some(d) => CancellationToken::with_timeout(d),
            None => CancellationToken::new(),
        };
        let tenant = request.tenant.clone();
        let work = Work {
            id,
            request,
            ticket: ticket.clone(),
            token,
        };
        // `Admitted` is logged under the queue lock, before the item is
        // poppable — otherwise a fast worker's `Started` could precede
        // it in the log and the verify audit would flag phantom starts.
        let admitted = self.inner.queue.try_push_then(&tenant, work, || {
            self.inner.log(ServiceEvent::Admitted { id })
        });
        match admitted {
            Ok(()) => {
                delta.admitted = 1;
                delta.max_queue_depth = self.inner.queue.max_depth();
                gaia_telemetry::record(|t| t.serve.merge(&delta));
            }
            Err((reason, work)) => {
                // A queue-shed request records no breaker outcome; if it
                // was the tenant's half-open probe, release the slot so
                // the breaker doesn't wait on a verdict that never comes.
                self.inner.breaker.probe_aborted(&tenant);
                self.inner.log(ServiceEvent::Shed { id, reason });
                delta.shed = 1;
                gaia_telemetry::record(|t| t.serve.merge(&delta));
                work.ticket.resolve(Outcome::Shed(reason));
            }
        }
        (id, ticket)
    }

    /// Items currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// A snapshot of the event log so far.
    pub fn events(&self) -> Vec<ServiceEvent> {
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Graceful shutdown: stop admission, drain every admitted request
    /// to its outcome, join the workers, and return the full event log.
    pub fn shutdown(mut self) -> Vec<ServiceEvent> {
        self.inner.queue.close();
        for handle in self.workers.drain(..) {
            // Workers survive per-request panics (`execute_contained`),
            // so joining is for resource hygiene, not outcomes.
            let _ = handle.join();
        }
        self.events()
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.inner.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
