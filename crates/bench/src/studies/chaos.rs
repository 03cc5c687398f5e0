//! Chaos sweep: fault rate × recovery policy on a tiny system.
//!
//! Production AVU-GSR campaigns survive node loss and data corruption by
//! checkpoint/restart across CINECA allocations; this harness measures
//! the same story in miniature. For every (fault level, recovery policy)
//! cell it runs the resilient supervisor on a seeded [`FaultPlan`],
//! records what was injected and what recovery cost, and writes the
//! sweep to `results/chaos/sweep.json`.
//!
//! Exits non-zero if any cell fails to converge — every policy in the
//! sweep is recovery-capable (degrade floor), so non-convergence is a
//! defect, not chaos.
//!
//! Usage: `chaos [--seed S] [--ranks N]` (defaults: seed 7, 2 ranks).

use std::sync::Arc;
use std::time::Duration;

use gaia_backends::{Backend, SeqBackend};
use gaia_bench::sweep::{summary_block, SummaryRow};
use gaia_bench::{fatal, tiny_system, Flags};
use gaia_lsqr::resilient::{OnUnrecoverable, RecoveryPolicy, ResilienceOptions};
use gaia_lsqr::{solve_distributed, solve_resilient, LsqrConfig};
use gaia_mpi_sim::{install_quiet_panic_hook, FaultPlan, FaultSpec};

pub fn run(mut args: Flags) {
    install_quiet_panic_hook();
    let mut seed = 7u64;
    let mut ranks = 2usize;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => seed = args.parse("--seed"),
            "--ranks" => ranks = args.parse("--ranks"),
            other => fatal(&format!(
                "unknown flag {other}; usage: chaos [--seed S] [--ranks N]"
            )),
        }
    }
    let ranks = ranks.max(1);
    let sys = tiny_system(seed);
    let cfg = LsqrConfig::new();
    let reference = solve_distributed(&sys, ranks, &cfg);
    assert!(
        reference.stop.converged(),
        "fault-free reference must converge: {:?}",
        reference.stop
    );

    let fault_levels: [(&str, FaultSpec); 3] = [
        ("none", FaultSpec::none()),
        ("light", FaultSpec::light()),
        ("heavy", FaultSpec::heavy()),
    ];
    // The policies differ only in checkpoint cadence (0 = restart from
    // scratch).
    let policies = [
        ("eager-checkpoint", 2),
        ("sparse-checkpoint", 10),
        ("restart-from-scratch", 0),
    ]
    .map(|(name, checkpoint_every)| {
        let policy = RecoveryPolicy {
            max_retries: 4,
            backoff: Duration::ZERO,
            checkpoint_every,
            on_unrecoverable: OnUnrecoverable::Degrade,
            ..RecoveryPolicy::default()
        };
        (name, policy)
    });

    println!(
        "chaos sweep: seed {seed}, {ranks} ranks, {} iterations fault-free",
        reference.iterations
    );
    println!(
        "  {:<8} {:<22} {:>5} {:>7} {:>8} {:>8} {:>7} {:>12}",
        "faults", "policy", "ok", "faults", "retries", "restores", "ranks", "max |Δx|"
    );

    let mut cells = Vec::new();
    let mut failures = 0usize;
    // One aggregate row per recovery policy, totalled across fault
    // levels — the shared `gaia-sweep-summary/v1` shape the overload
    // sweep also emits, so resilience diffs across PRs compare like
    // with like.
    let mut rows: Vec<SummaryRow> = policies
        .iter()
        .map(|(name, _)| SummaryRow {
            group: format!("policy={name}"),
            ..SummaryRow::default()
        })
        .collect();
    for (level_name, spec) in &fault_levels {
        for (policy_idx, (policy_name, policy)) in policies.iter().enumerate() {
            let plan = Arc::new(FaultPlan::new(seed, *spec));
            let result = solve_resilient(
                &sys,
                ranks,
                &cfg,
                |_| Box::new(SeqBackend) as Box<dyn Backend>,
                &ResilienceOptions {
                    policy: *policy,
                    faults: Some(plan.clone()),
                    collective_timeout: Some(Duration::from_secs(5)),
                    ..Default::default()
                },
            );
            let row = &mut rows[policy_idx];
            row.runs += 1;
            let cell = match result {
                Ok(report) => {
                    let converged = report.solution.stop.converged();
                    if !converged {
                        failures += 1;
                        row.failures += 1;
                    } else if report.final_ranks < ranks || report.telemetry.degradations > 0 {
                        row.degraded += 1;
                    } else {
                        row.converged += 1;
                    }
                    row.recoveries += report.telemetry.retries;
                    let max_dx = report
                        .solution
                        .x
                        .iter()
                        .zip(&reference.x)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    println!(
                        "  {:<8} {:<22} {:>5} {:>7} {:>8} {:>8} {:>7} {:>12.3e}",
                        level_name,
                        policy_name,
                        if converged { "yes" } else { "NO" },
                        report.fault_events.len(),
                        report.telemetry.retries,
                        report.telemetry.checkpoint_restores,
                        report.final_ranks,
                        max_dx,
                    );
                    serde_json::json!({
                        "faults": level_name,
                        "policy": policy_name,
                        "converged": converged,
                        "stop": format!("{:?}", report.solution.stop),
                        "iterations": report.solution.iterations,
                        "attempts": report.attempts.len(),
                        "injected": report.fault_events.len(),
                        "rank_panics": report.telemetry.rank_panics,
                        "bit_flips": report.telemetry.bit_flips,
                        "straggles": report.telemetry.straggles,
                        "breakdowns": report.telemetry.breakdowns,
                        "retries": report.telemetry.retries,
                        "checkpoint_restores": report.telemetry.checkpoint_restores,
                        "degradations": report.telemetry.degradations,
                        "recovery_seconds": report.telemetry.recovery_seconds,
                        "final_ranks": report.final_ranks,
                        "max_abs_dx": max_dx,
                    })
                }
                Err(err) => {
                    failures += 1;
                    row.failures += 1;
                    println!("  {:<8} {:<22} {:>5}  {err}", level_name, policy_name, "NO");
                    serde_json::json!({
                        "faults": level_name,
                        "policy": policy_name,
                        "converged": false,
                        "error": err.to_string(),
                        "attempts": err.attempts.len(),
                    })
                }
            };
            cells.push(cell);
        }
    }

    let artifact = serde_json::json!({
        "seed": seed,
        "ranks": ranks,
        "reference_iterations": reference.iterations,
        "cells": cells,
        "summary": summary_block(&rows),
    });
    gaia_bench::must_write_artifact("chaos/sweep.json", &artifact);

    if failures > 0 {
        eprintln!("{failures} chaos cell(s) failed to converge");
        std::process::exit(1);
    }
}
