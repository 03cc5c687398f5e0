//! Service-level invariant checking over `gaia-serve` event logs.
//!
//! The serving layer's contract is lifecycle-shaped, not numerical:
//! **every submitted request resolves to exactly one typed outcome**.
//! The service appends every transition to its event log; this module
//! replays a log and proves the invariants the overload bench and the CI
//! smoke job rely on:
//!
//! 1. every `Submitted` id is `Admitted` XOR `Shed` (exactly one);
//! 2. every `Admitted` id has exactly one `Finished`;
//! 3. `Finished`, `Started`, and `Retried` appear only for admitted ids;
//! 4. a shed id is never `Started` and never `Finished`;
//! 5. events reference only submitted ids, and per-id ordering is
//!    `Submitted` → (`Admitted` | `Shed`) → `Started`* → `Finished`.
//!
//! Violations are collected (not short-circuited) so a broken log yields
//! the full defect list in one pass — the same style as the metamorphic
//! suite.

use std::collections::HashMap;

use gaia_serve::{OutcomeKind, ServiceEvent};

/// Aggregated result of one invariant pass over an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceAudit {
    /// Requests submitted.
    pub submitted: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Terminal outcomes observed, by kind.
    pub finished: Vec<(OutcomeKind, usize)>,
    /// Invariant violations found (empty = the log is sound).
    pub violations: Vec<String>,
}

impl ServiceAudit {
    /// True when the log satisfied every invariant.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Default)]
struct PerRequest {
    submitted: usize,
    admitted: usize,
    shed: usize,
    started: usize,
    finished: usize,
    /// Event-order markers for the per-id ordering check.
    first_terminal_seen: bool,
}

/// Replay `events` and check every service-level invariant. Each
/// violation is recorded as a failed property in the telemetry verify cell
/// alongside the pass/fail counters of the metamorphic suite.
pub fn audit_service_log(events: &[ServiceEvent]) -> ServiceAudit {
    let mut per: HashMap<u64, PerRequest> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut finished_kinds: HashMap<OutcomeKind, usize> = HashMap::new();

    for event in events {
        let id = event.id();
        if !per.contains_key(&id) {
            if !matches!(event, ServiceEvent::Submitted { .. }) {
                violations.push(format!("id {id}: {event:?} precedes Submitted"));
            }
            order.push(id);
        }
        let r = per.entry(id).or_default();
        match event {
            ServiceEvent::Submitted { .. } => r.submitted += 1,
            ServiceEvent::Admitted { .. } => r.admitted += 1,
            ServiceEvent::Shed { .. } => r.shed += 1,
            ServiceEvent::Started { .. } => {
                if r.admitted == 0 {
                    violations.push(format!("id {id}: Started without Admitted"));
                }
                if r.first_terminal_seen {
                    violations.push(format!("id {id}: Started after Finished"));
                }
                r.started += 1;
            }
            ServiceEvent::Retried { .. } => {
                if r.started == 0 {
                    violations.push(format!("id {id}: Retried without Started"));
                }
            }
            ServiceEvent::Finished { kind, .. } => {
                r.finished += 1;
                r.first_terminal_seen = true;
                *finished_kinds.entry(*kind).or_default() += 1;
            }
        }
    }

    let mut submitted = 0;
    let mut admitted = 0;
    let mut shed = 0;
    for id in &order {
        // `order` only holds keys inserted above; a missing entry would
        // be a bug in this function, not in the log.
        let Some(r) = per.get(id) else { continue };
        submitted += r.submitted;
        admitted += r.admitted;
        shed += r.shed;
        if r.submitted != 1 {
            violations.push(format!("id {id}: submitted {} times", r.submitted));
        }
        if r.admitted + r.shed != 1 {
            violations.push(format!(
                "id {id}: admitted {} + shed {} times (want exactly one of the two)",
                r.admitted, r.shed
            ));
        }
        if r.admitted == 1 && r.finished != 1 {
            violations.push(format!(
                "id {id}: admitted but finished {} times (want exactly 1)",
                r.finished
            ));
        }
        if r.shed == 1 && (r.started > 0 || r.finished > 0) {
            violations.push(format!(
                "id {id}: shed but started {} / finished {} times",
                r.started, r.finished
            ));
        }
    }

    let mut finished: Vec<(OutcomeKind, usize)> = finished_kinds.into_iter().collect();
    finished.sort_by_key(|(k, _)| format!("{k}"));

    gaia_telemetry::record(|t| {
        t.verify.properties += 1;
        t.verify.property_failures += u64::from(!violations.is_empty());
    });
    ServiceAudit {
        submitted,
        admitted,
        shed,
        finished,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_serve::ShedReason;

    fn sound_log() -> Vec<ServiceEvent> {
        vec![
            ServiceEvent::Submitted {
                id: 0,
                tenant: "a".into(),
            },
            ServiceEvent::Admitted { id: 0 },
            ServiceEvent::Submitted {
                id: 1,
                tenant: "b".into(),
            },
            ServiceEvent::Shed {
                id: 1,
                reason: ShedReason::QueueFull,
            },
            ServiceEvent::Started {
                id: 0,
                threads: 2,
                ranks: 1,
            },
            ServiceEvent::Retried { id: 0, attempt: 1 },
            ServiceEvent::Finished {
                id: 0,
                kind: OutcomeKind::Converged,
            },
        ]
    }

    #[test]
    fn a_sound_log_passes_with_correct_tallies() {
        let audit = audit_service_log(&sound_log());
        assert!(audit.is_sound(), "{:?}", audit.violations);
        assert_eq!((audit.submitted, audit.admitted, audit.shed), (2, 1, 1));
        assert_eq!(audit.finished, vec![(OutcomeKind::Converged, 1)]);
    }

    #[test]
    fn a_dropped_admitted_request_is_a_violation() {
        let mut log = sound_log();
        log.retain(|e| !matches!(e, ServiceEvent::Finished { .. }));
        let audit = audit_service_log(&log);
        assert!(!audit.is_sound());
        assert!(audit.violations.iter().any(|v| v.contains("finished 0")));
    }

    #[test]
    fn double_resolution_and_shed_then_started_are_violations() {
        let mut log = sound_log();
        log.push(ServiceEvent::Finished {
            id: 0,
            kind: OutcomeKind::Faulted,
        });
        log.push(ServiceEvent::Started {
            id: 1,
            threads: 1,
            ranks: 1,
        });
        let audit = audit_service_log(&log);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.contains("finished 2 times")));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.contains("shed but started")));
    }

    #[test]
    fn events_for_unknown_ids_are_violations() {
        let log = vec![ServiceEvent::Finished {
            id: 9,
            kind: OutcomeKind::Converged,
        }];
        let audit = audit_service_log(&log);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.contains("precedes Submitted")));
    }
}
