//! The harness's one timing routine, [`interleaved`], and the order
//! statistics it reports: a median with its interquartile range per
//! candidate.
//!
//! Every timed study measures its candidates here; nothing else in this
//! crate reads a clock. The shape follows the pSTL-Bench methodology (arXiv
//! 2402.06384): repeated runs, a robust central estimate (median, not
//! mean), and an explicit dispersion measure. The candidates take turns
//! within each round, so a slow minute on a shared host lands on all of
//! them rather than on whichever ran during it.

use std::time::Instant;

use serde::Serialize;

/// Timed rounds per candidate in every timed study.
pub const ROUNDS: usize = 9;

/// Linear-interpolation quantile (R type 7, the numpy default) of an
/// ascending-sorted slice. `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Statistical summary of one candidate's timed rounds: the robust
/// center (median), the dispersion (IQR), the mean and the extremes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of timed rounds summarized.
    pub rounds: u64,
    /// Median seconds across the rounds.
    pub median_s: f64,
    /// Interquartile range in seconds across the rounds.
    pub iqr_s: f64,
    /// Mean seconds across the rounds.
    pub mean_s: f64,
    /// Fastest round, seconds.
    pub min_s: f64,
    /// Slowest round, seconds.
    pub max_s: f64,
}

impl Summary {
    /// Summarize a non-empty sample set of per-round seconds.
    pub fn from_samples(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        Summary {
            rounds: s.len() as u64,
            median_s: quantile_sorted(&s, 0.5),
            iqr_s: quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25),
            mean_s: s.iter().sum::<f64>() / s.len().max(1) as f64,
            min_s: s.first().copied().unwrap_or(0.0),
            max_s: s.last().copied().unwrap_or(0.0),
        }
    }

    /// This summary with every time divided by `n`: the per-call figures
    /// when each round ran `n` calls.
    pub fn per(self, n: usize) -> Summary {
        let n = n.max(1) as f64;
        Summary {
            median_s: self.median_s / n,
            iqr_s: self.iqr_s / n,
            mean_s: self.mean_s / n,
            min_s: self.min_s / n,
            max_s: self.max_s / n,
            ..self
        }
    }
}

/// Time `candidates` candidates in interleaved rounds: one untimed
/// warm-up round, then `rounds` rounds that each time every candidate
/// once, in reverse order on every other round. `run(i)` runs candidate
/// `i` once. Returns one [`Summary`] per candidate, in candidate order.
pub fn interleaved(candidates: usize, rounds: usize, run: impl FnMut(usize)) -> Vec<Summary> {
    // gaia-analyze: allow(timing): the harness's one clock; every timed
    // study measures its candidates through this routine.
    let origin = Instant::now();
    interleaved_on(|| origin.elapsed().as_secs_f64(), candidates, rounds, run)
}

/// [`interleaved`] against any monotone `clock` reading seconds.
fn interleaved_on(
    mut clock: impl FnMut() -> f64,
    candidates: usize,
    rounds: usize,
    mut run: impl FnMut(usize),
) -> Vec<Summary> {
    (0..candidates).for_each(&mut run);
    let mut samples = vec![Vec::with_capacity(rounds); candidates];
    for round in 0..rounds {
        for k in 0..candidates {
            let i = if round % 2 == 0 {
                k
            } else {
                candidates - 1 - k
            };
            let start = clock();
            run(i);
            samples[i].push(clock() - start);
        }
    }
    samples.iter().map(|s| Summary::from_samples(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    #[test]
    fn summary_from_samples_matches_hand_computation() {
        let s = Summary::from_samples(&[10.0, 30.0, 20.0, 40.0, 50.0]);
        assert_eq!(s.rounds, 5);
        assert_eq!(s.median_s, 30.0);
        assert_eq!(s.iqr_s, 20.0);
        assert_eq!(s.mean_s, 30.0);
        assert_eq!(s.min_s, 10.0);
        assert_eq!(s.max_s, 50.0);
        let p = s.per(10);
        assert_eq!((p.rounds, p.median_s, p.iqr_s), (5, 3.0, 2.0));
        assert_eq!((p.mean_s, p.min_s, p.max_s), (3.0, 1.0, 5.0));
    }

    /// A counter stands in for the clock: candidate `i` advances it by
    /// `i + 1` on a timed run and by 1 000 on its warm-up run, so a
    /// summary that saw the warm-up would show it in its max.
    #[test]
    fn rounds_time_each_candidate_once_in_alternating_order_after_a_warm_up() {
        let now = Cell::new(0.0);
        let order = RefCell::new(Vec::new());
        let summaries = interleaved_on(
            || now.get(),
            3,
            4,
            |i| {
                let warm = order.borrow().len() < 3;
                order.borrow_mut().push(i);
                now.set(now.get() + if warm { 1000.0 } else { (i + 1) as f64 });
            },
        );
        assert_eq!(
            order.into_inner(),
            [0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0],
            "warm-up round, then rounds in forward and reverse order"
        );
        assert_eq!(summaries.len(), 3);
        for (i, s) in summaries.iter().enumerate() {
            let t = (i + 1) as f64;
            assert_eq!(s.rounds, 4, "candidate {i}");
            assert_eq!((s.median_s, s.min_s, s.max_s, s.iqr_s), (t, t, t, 0.0));
        }
    }
}
