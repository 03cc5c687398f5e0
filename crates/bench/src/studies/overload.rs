//! Overload sweep: tenant count × fault injection × deadline tightness
//! against the `gaia-serve` solve service.
//!
//! Each cell starts a fresh service, floods it with a mixed tenant
//! population — in hostile cells one tenant runs a scripted rank-panic
//! fault schedule and another saturates the queue (with an impossible
//! deadline when the deadline axis is tight) — then audits the event log
//! with `gaia-verify`'s service invariants. The sweep demonstrates
//! tenant isolation: zero crashes, zero cross-tenant failures, and every
//! admitted request resolving to exactly one typed outcome, even in the
//! 8-tenant cell with both a faulting and a saturating tenant.
//!
//! Writes `results/serve/overload.json` (cells + the shared
//! `gaia-sweep-summary/v1` aggregate rows) and exits non-zero on any
//! invariant or isolation violation. `--smoke` runs the single CI
//! scenario instead and writes `results/serve/smoke.json`.
//!
//! Usage: `overload [--seed S] [--smoke]` (default seed 11).

use std::sync::Arc;
use std::time::Duration;

use gaia_bench::sweep::{summary_block, SummaryRow};
use gaia_bench::{fatal, must_write_artifact, tiny_system, Flags};
use gaia_lsqr::resilient::RecoveryPolicy;
use gaia_mpi_sim::{install_quiet_panic_hook, FaultKind, FaultPlan};
use gaia_serve::{
    OutcomeKind, RetryConfig, ServiceConfig, ServiceEvent, SolveRequest, SolveService, Ticket,
};
use gaia_verify::service::audit_service_log;

fn service_config(tenants: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 2 * tenants + 4,
        tenant_quota: 3,
        retry: RetryConfig {
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..RetryConfig::default()
        },
        supervisor: RecoveryPolicy {
            backoff: Duration::ZERO,
            ..RecoveryPolicy::default()
        },
        ..ServiceConfig::default()
    }
}

const INNOCENT_BACKENDS: [&str; 4] = ["seq", "chunked-t2", "atomic-t2", "striped-t2"];

struct CellOutcome {
    tenant: String,
    kind: OutcomeKind,
}

/// Submit one cell's tenant population and wait out every ticket.
fn run_cell(
    seed: u64,
    tenants: usize,
    hostile: bool,
    tight: bool,
) -> (Vec<CellOutcome>, Vec<ServiceEvent>) {
    let service = SolveService::start(service_config(tenants));
    let mut tickets: Vec<(String, Ticket)> = Vec::new();
    for t in 0..tenants {
        let tenant = format!("tenant-{t}");
        if hostile && t == 0 {
            // The faulting tenant: a scripted rank panic on its first
            // attempt; the supervisor recovers it from checkpoint.
            let plan = Arc::new(FaultPlan::scripted(seed + t as u64).with_event(
                0,
                1,
                2,
                FaultKind::RankPanic,
            ));
            let sys = tiny_system(seed + 100 + t as u64);
            let mut req = SolveRequest::new(tenant.clone(), sys.into());
            req.ranks = 2;
            req.faults = Some(plan);
            tickets.push((tenant.clone(), service.submit(req).1));
            continue;
        }
        if hostile && t == 1 {
            // The saturating tenant: three times its quota, with an
            // impossible deadline when the deadline axis is tight.
            for i in 0..9 {
                let sys = tiny_system(seed + 200 + i);
                let mut req = SolveRequest::new(tenant.clone(), sys.into());
                if tight {
                    req.deadline = Some(Duration::ZERO);
                }
                tickets.push((tenant.clone(), service.submit(req).1));
            }
            continue;
        }
        for i in 0..2u64 {
            let sys = tiny_system(seed + 300 + t as u64 * 10 + i);
            let mut req = SolveRequest::new(tenant.clone(), sys.into());
            req.backend = INNOCENT_BACKENDS[(t + i as usize) % INNOCENT_BACKENDS.len()].into();
            if tight {
                // Present but generous: the axis's pressure comes from
                // the saturator; innocents must still converge in time.
                req.deadline = Some(Duration::from_secs(5));
            }
            tickets.push((tenant.clone(), service.submit(req).1));
        }
    }
    let outcomes = tickets
        .into_iter()
        .map(|(tenant, ticket)| CellOutcome {
            tenant,
            kind: ticket.wait().kind(),
        })
        .collect();
    (outcomes, service.shutdown())
}

fn kind_count(outcomes: &[CellOutcome], kind: OutcomeKind) -> u64 {
    outcomes.iter().filter(|o| o.kind == kind).count() as u64
}

pub fn run(mut args: Flags) {
    install_quiet_panic_hook();
    let mut seed = 11u64;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => seed = args.parse("--seed"),
            "--smoke" => smoke = true,
            other => fatal(&format!(
                "unknown flag {other}; usage: overload [--seed S] [--smoke]"
            )),
        }
    }

    if smoke {
        run_smoke(seed);
        return;
    }

    println!("overload sweep: seed {seed}");
    println!(
        "  {:<8} {:<8} {:<8} {:>5} {:>5} {:>5} {:>6} {:>9} {:>7} {:>6}",
        "tenants",
        "chaos",
        "deadline",
        "runs",
        "conv",
        "degr",
        "shed",
        "deadline",
        "fault",
        "sound"
    );

    let mut cells = Vec::new();
    let mut rows: Vec<SummaryRow> = Vec::new();
    let mut violations = 0usize;
    for tenants in [2usize, 4, 8] {
        for hostile in [false, true] {
            for tight in [false, true] {
                let (outcomes, events) = run_cell(seed, tenants, hostile, tight);
                let audit = audit_service_log(&events);
                // Cross-tenant isolation: tenants other than the two
                // hostile roles must resolve Converged or Degraded —
                // never Faulted, never Shed, never DeadlineExceeded.
                let cross_tenant_failures = outcomes
                    .iter()
                    .filter(|o| {
                        let innocent =
                            !hostile || (o.tenant != "tenant-0" && o.tenant != "tenant-1");
                        innocent
                            && !matches!(o.kind, OutcomeKind::Converged | OutcomeKind::Degraded)
                    })
                    .count();
                let retried = events
                    .iter()
                    .filter(|e| matches!(e, ServiceEvent::Retried { .. }))
                    .count() as u64;
                if !audit.is_sound() {
                    violations += 1;
                    for v in &audit.violations {
                        eprintln!("  INVARIANT tenants={tenants} hostile={hostile}: {v}");
                    }
                }
                if cross_tenant_failures > 0 {
                    violations += 1;
                    eprintln!(
                        "  ISOLATION tenants={tenants} hostile={hostile} tight={tight}: \
                         {cross_tenant_failures} innocent request(s) failed"
                    );
                }
                let chaos_label = if hostile { "hostile" } else { "calm" };
                let deadline_label = if tight { "tight" } else { "relaxed" };
                let row = SummaryRow {
                    group: format!(
                        "tenants={tenants}/chaos={chaos_label}/deadline={deadline_label}"
                    ),
                    runs: audit.submitted as u64,
                    converged: kind_count(&outcomes, OutcomeKind::Converged),
                    degraded: kind_count(&outcomes, OutcomeKind::Degraded),
                    recoveries: retried,
                    failures: kind_count(&outcomes, OutcomeKind::Faulted),
                    shed: kind_count(&outcomes, OutcomeKind::Shed),
                    deadline_exceeded: kind_count(&outcomes, OutcomeKind::DeadlineExceeded),
                };
                println!(
                    "  {:<8} {:<8} {:<8} {:>5} {:>5} {:>5} {:>6} {:>9} {:>7} {:>6}",
                    tenants,
                    chaos_label,
                    deadline_label,
                    row.runs,
                    row.converged,
                    row.degraded,
                    row.shed,
                    row.deadline_exceeded,
                    row.failures,
                    if audit.is_sound() && cross_tenant_failures == 0 {
                        "yes"
                    } else {
                        "NO"
                    },
                );
                cells.push(serde_json::json!({
                    "tenants": tenants,
                    "chaos": chaos_label,
                    "deadline": deadline_label,
                    "submitted": audit.submitted,
                    "admitted": audit.admitted,
                    "shed": audit.shed,
                    "converged": row.converged,
                    "degraded": row.degraded,
                    "deadline_exceeded": row.deadline_exceeded,
                    "faulted": row.failures,
                    "retries": retried,
                    "invariants_sound": audit.is_sound(),
                    "cross_tenant_failures": cross_tenant_failures,
                }));
                rows.push(row);
            }
        }
    }

    let artifact = serde_json::json!({
        "seed": seed,
        "cells": cells,
        "summary": summary_block(&rows),
    });
    must_write_artifact("serve/overload.json", &artifact);

    if violations > 0 {
        eprintln!("{violations} overload cell(s) violated service invariants or isolation");
        std::process::exit(1);
    }
}

/// The CI smoke scenario: four concurrent tenants — one scripted rank
/// panic, one impossible deadline, two clean — all resolving to their
/// expected typed outcomes with a sound event log.
fn run_smoke(seed: u64) {
    let service = SolveService::start(service_config(4));

    let plan = Arc::new(FaultPlan::scripted(seed).with_event(0, 1, 2, FaultKind::RankPanic));
    let mut chaotic = SolveRequest::new("chaotic", tiny_system(seed + 1).into());
    chaotic.ranks = 2;
    chaotic.faults = Some(plan);
    let chaotic_t = service.submit(chaotic).1;

    let mut doomed = SolveRequest::new("doomed", tiny_system(seed + 2).into());
    doomed.deadline = Some(Duration::ZERO);
    let doomed_t = service.submit(doomed).1;

    let clean_a = service
        .submit(SolveRequest::new("clean-a", tiny_system(seed + 3).into()))
        .1;
    let mut req_b = SolveRequest::new("clean-b", tiny_system(seed + 4).into());
    req_b.backend = "chunked-t2".into();
    let clean_b = service.submit(req_b).1;

    let chaotic_kind = chaotic_t.wait().kind();
    let doomed_kind = doomed_t.wait().kind();
    let a_kind = clean_a.wait().kind();
    let b_kind = clean_b.wait().kind();
    let events = service.shutdown();
    let audit = audit_service_log(&events);

    println!("serve smoke: chaotic={chaotic_kind} doomed={doomed_kind} clean=[{a_kind}, {b_kind}]");

    let mut failures = Vec::new();
    if !matches!(chaotic_kind, OutcomeKind::Converged | OutcomeKind::Degraded) {
        failures.push(format!(
            "chaotic tenant should recover its rank panic, got {chaotic_kind}"
        ));
    }
    if doomed_kind != OutcomeKind::DeadlineExceeded {
        failures.push(format!(
            "doomed tenant should exceed its impossible deadline, got {doomed_kind}"
        ));
    }
    for (name, kind) in [("clean-a", a_kind), ("clean-b", b_kind)] {
        if kind != OutcomeKind::Converged {
            failures.push(format!("{name} should converge untouched, got {kind}"));
        }
    }
    if !audit.is_sound() {
        failures.extend(audit.violations.iter().cloned());
    }

    must_write_artifact(
        "serve/smoke.json",
        &serde_json::json!({
            "seed": seed,
            "chaotic": format!("{chaotic_kind}"),
            "doomed": format!("{doomed_kind}"),
            "clean": [format!("{a_kind}"), format!("{b_kind}")],
            "invariants_sound": audit.is_sound(),
            "failures": failures,
        }),
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("smoke failure: {f}");
        }
        std::process::exit(1);
    }
}
