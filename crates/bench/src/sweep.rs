//! Shared summary schema for robustness sweeps.
//!
//! Both chaos (`gaia-bench chaos`: fault level × recovery policy) and
//! overload (`gaia-bench overload`: tenant count × fault × deadline) emit the
//! same aggregate row shape, tagged with [`SWEEP_SUMMARY_SCHEMA`], so
//! downstream tooling can diff resilience across PRs without caring
//! which harness produced the numbers.

use serde::{Deserialize, Serialize};

/// Version tag embedded in every sweep summary block. Bump on any field
/// change; consumers must refuse unknown majors.
pub const SWEEP_SUMMARY_SCHEMA: &str = "gaia-sweep-summary/v1";

/// One aggregate row of a robustness sweep: totals for one group
/// (a recovery policy, an overload cell, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Group label (`policy=eager-checkpoint`, `tenants=8/faults=panic`).
    pub group: String,
    /// Solves (or requests) attempted in the group.
    pub runs: u64,
    /// Runs that converged at full quality.
    pub converged: u64,
    /// Runs that converged under degraded resources or rank count.
    pub degraded: u64,
    /// Recovery actions taken (supervisor retries + service retries).
    pub recoveries: u64,
    /// Runs that terminally failed (unrecoverable / faulted).
    pub failures: u64,
    /// Requests shed at admission (0 for non-serving sweeps).
    pub shed: u64,
    /// Requests that hit a deadline (0 for non-serving sweeps).
    pub deadline_exceeded: u64,
}

/// Wrap rows in the tagged summary block embedded in sweep artifacts.
pub fn summary_block(rows: &[SummaryRow]) -> serde_json::Value {
    serde_json::json!({
        "schema": SWEEP_SUMMARY_SCHEMA,
        "rows": rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_block_is_tagged_and_round_trips() {
        let rows = vec![SummaryRow {
            group: "policy=eager".into(),
            runs: 3,
            converged: 2,
            degraded: 1,
            recoveries: 4,
            ..SummaryRow::default()
        }];
        let block = summary_block(&rows);
        assert_eq!(block["schema"].as_str(), Some(SWEEP_SUMMARY_SCHEMA));
        let back: Vec<SummaryRow> = serde_json::from_value(&block["rows"]).unwrap();
        assert_eq!(back, rows);
    }
}
