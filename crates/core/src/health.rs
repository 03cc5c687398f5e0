//! Per-iteration numerical health guards.
//!
//! The production AVU-GSR solver iterates for weeks; a single NaN produced
//! by a failing node or a corrupted reduction silently poisons the whole
//! Golub–Kahan recurrence, wasting the remainder of the allocation. These
//! guards scan the iterates after each step and surface
//! [`StopReason::NumericalBreakdown`](crate::solution::StopReason::NumericalBreakdown)
//! instead of letting the solve keep iterating on garbage.
//!
//! The checks are **stateless**: everything is recomputed from the current
//! [`LsqrState`](crate::lsqr::LsqrState) (including its `history`), so
//! enabling them adds no fields to the checkpointed state and the on-disk
//! envelope format is unchanged. A healthy trajectory is never altered —
//! the guards can only stop a solve that is already broken.

use crate::lsqr::LsqrState;
use crate::solution::IterationStats;

/// Which guard fired, with enough context for a log line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthIssue {
    /// A non-finite entry appeared in `x`, `u`, or `v` (the vector name
    /// is carried for diagnostics).
    NonFiniteVector {
        /// `'x'`, `'u'`, or `'v'`.
        which: char,
    },
    /// A Golub–Kahan coefficient (α, β) or a residual estimate went
    /// non-finite — the recurrence itself has broken down.
    NonFiniteScalar,
    /// The residual norm has exceeded `factor ×` its best value for
    /// `window` consecutive iterations. LSQR's rnorm is monotonically
    /// non-increasing in exact arithmetic, so sustained growth means the
    /// recurrence lost orthogonality to numerical corruption.
    ResidualDivergence {
        /// Best residual seen before the diverging window.
        best: f64,
        /// Latest residual.
        latest: f64,
    },
}

impl std::fmt::Display for HealthIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthIssue::NonFiniteVector { which } => {
                write!(f, "non-finite entry in vector {which}")
            }
            HealthIssue::NonFiniteScalar => write!(f, "non-finite recurrence coefficient"),
            HealthIssue::ResidualDivergence { best, latest } => {
                write!(f, "residual diverged: best {best:.3e}, latest {latest:.3e}")
            }
        }
    }
}

/// Configuration of the per-iteration guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Master switch; `false` skips every check.
    pub enabled: bool,
    /// Scan `x`/`u`/`v` for NaN/Inf entries each iteration. The scan is
    /// O(m + n) per iteration — negligible next to the two O(nnz) aprods.
    pub scan_vectors: bool,
    /// Trip the divergence watchdog when the last `divergence_window`
    /// residuals all exceed `divergence_factor ×` the best residual seen
    /// before that window. `INFINITY` disables the watchdog.
    pub divergence_factor: f64,
    /// Consecutive diverging iterations required before tripping (guards
    /// against one-off float noise near the noise floor).
    pub divergence_window: usize,
}

impl HealthConfig {
    /// Guards on, with a watchdog loose enough to never fire on a healthy
    /// (even badly conditioned) solve: 1000× growth sustained for 4
    /// iterations.
    pub fn default_on() -> Self {
        HealthConfig {
            enabled: true,
            scan_vectors: true,
            divergence_factor: 1e3,
            divergence_window: 4,
        }
    }

    /// Everything off (the seed's behavior).
    pub fn off() -> Self {
        HealthConfig {
            enabled: false,
            scan_vectors: false,
            divergence_factor: f64::INFINITY,
            divergence_window: usize::MAX,
        }
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::default_on()
    }
}

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Run every enabled guard against `state` (called after an iteration has
/// updated it). Returns the first issue found, or `None` when healthy.
pub fn check_state(cfg: &HealthConfig, state: &LsqrState) -> Option<HealthIssue> {
    if !cfg.enabled {
        return None;
    }
    // Recurrence scalars first: cheapest, and a broken α/β implicates the
    // vectors anyway.
    let scalars = [
        state.alfa,
        state.beta,
        state.rnorm,
        state.arnorm,
        state.xnorm,
    ];
    if !scalars.iter().all(|s| s.is_finite()) {
        return Some(HealthIssue::NonFiniteScalar);
    }
    if cfg.scan_vectors {
        for (which, v) in [('x', &state.x), ('u', &state.u), ('v', &state.v)] {
            if !all_finite(v) {
                return Some(HealthIssue::NonFiniteVector { which });
            }
        }
    }
    divergence(cfg, &state.history)
}

/// The residual-divergence watchdog, recomputed statelessly from the
/// iteration history so resumed solves judge exactly as uninterrupted ones.
fn divergence(cfg: &HealthConfig, h: &[IterationStats]) -> Option<HealthIssue> {
    if !cfg.divergence_factor.is_finite() || cfg.divergence_window == 0 {
        return None;
    }
    if h.len() <= cfg.divergence_window {
        return None;
    }
    let (head, tail) = h.split_at(h.len() - cfg.divergence_window);
    let best = head.iter().map(|s| s.rnorm).fold(f64::INFINITY, f64::min);
    if !best.is_finite() || best <= 0.0 {
        return None;
    }
    let threshold = cfg.divergence_factor * best;
    if tail.iter().all(|s| s.rnorm > threshold) {
        return Some(HealthIssue::ResidualDivergence {
            best,
            latest: tail.last().expect("window nonempty").rnorm,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::IterationStats;

    fn healthy_state(n: usize, m: usize) -> LsqrState {
        LsqrState {
            itn: 3,
            x: vec![1.0; n],
            v: vec![0.5; n],
            w: vec![0.1; n],
            u: vec![0.2; m],
            var: vec![0.0; n],
            alfa: 1.0,
            beta: 2.0,
            rhobar: 1.0,
            phibar: 0.5,
            anorm: 10.0,
            acond: 100.0,
            ddnorm: 1.0,
            res2: 0.0,
            rnorm: 0.5,
            arnorm: 0.01,
            xnorm: 1.0,
            xxnorm: 1.0,
            z: 0.0,
            cs2: -1.0,
            sn2: 0.0,
            bnorm: 4.0,
            stopped: None,
            history: Vec::new(),
        }
    }

    fn stats(iteration: usize, rnorm: f64) -> IterationStats {
        IterationStats {
            iteration,
            rnorm,
            arnorm: 0.0,
            anorm: 1.0,
            acond: 1.0,
            xnorm: 1.0,
            seconds: 0.0,
        }
    }

    #[test]
    fn healthy_state_passes() {
        let cfg = HealthConfig::default_on();
        assert_eq!(check_state(&cfg, &healthy_state(4, 8)), None);
    }

    #[test]
    fn nan_in_each_vector_is_caught_and_named() {
        let cfg = HealthConfig::default_on();
        for which in ['x', 'u', 'v'] {
            let mut s = healthy_state(4, 8);
            match which {
                'x' => s.x[2] = f64::NAN,
                'u' => s.u[5] = f64::INFINITY,
                _ => s.v[0] = f64::NEG_INFINITY,
            }
            assert_eq!(
                check_state(&cfg, &s),
                Some(HealthIssue::NonFiniteVector { which })
            );
        }
    }

    #[test]
    fn non_finite_alfa_beta_is_breakdown() {
        let cfg = HealthConfig::default_on();
        let mut s = healthy_state(4, 8);
        s.alfa = f64::NAN;
        assert_eq!(check_state(&cfg, &s), Some(HealthIssue::NonFiniteScalar));
        let mut s = healthy_state(4, 8);
        s.beta = f64::INFINITY;
        assert_eq!(check_state(&cfg, &s), Some(HealthIssue::NonFiniteScalar));
    }

    #[test]
    fn zero_alfa_beta_is_not_breakdown() {
        // Exact zeros are legitimate LSQR termination events (b in the
        // range of A), handled by the recurrence itself — the guard must
        // not reclassify them.
        let cfg = HealthConfig::default_on();
        let mut s = healthy_state(4, 8);
        s.alfa = 0.0;
        s.beta = 0.0;
        assert_eq!(check_state(&cfg, &s), None);
    }

    #[test]
    fn divergence_watchdog_needs_a_full_window() {
        let cfg = HealthConfig {
            divergence_factor: 10.0,
            divergence_window: 3,
            ..HealthConfig::default_on()
        };
        let mut s = healthy_state(4, 8);
        s.history = vec![stats(1, 1.0), stats(2, 0.5)];
        // Two big residuals, window of three: not yet.
        s.history.push(stats(3, 100.0));
        s.history.push(stats(4, 100.0));
        assert_eq!(check_state(&cfg, &s), None);
        // Third consecutive: trips.
        s.history.push(stats(5, 120.0));
        match check_state(&cfg, &s) {
            Some(HealthIssue::ResidualDivergence { best, latest }) => {
                assert_eq!(best, 0.5);
                assert_eq!(latest, 120.0);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn divergence_ignores_recovery_within_window() {
        let cfg = HealthConfig {
            divergence_factor: 10.0,
            divergence_window: 3,
            ..HealthConfig::default_on()
        };
        let mut s = healthy_state(4, 8);
        s.history = vec![
            stats(1, 1.0),
            stats(2, 0.5),
            stats(3, 100.0),
            stats(4, 0.4), // recovered — float noise, not corruption
            stats(5, 100.0),
        ];
        assert_eq!(check_state(&cfg, &s), None);
    }

    #[test]
    fn disabled_guards_see_nothing() {
        let cfg = HealthConfig::off();
        let mut s = healthy_state(4, 8);
        s.x[0] = f64::NAN;
        s.alfa = f64::NAN;
        assert_eq!(check_state(&cfg, &s), None);
    }

    #[test]
    fn display_forms_are_informative() {
        let a = HealthIssue::NonFiniteVector { which: 'u' };
        assert!(a.to_string().contains('u'));
        let b = HealthIssue::ResidualDivergence {
            best: 1e-3,
            latest: 5.0,
        };
        assert!(b.to_string().contains("diverged"));
    }
}
