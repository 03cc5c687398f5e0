//! Order statistics for the auto-tuner: median-of-K summaries with
//! interquartile-range dispersion.
//!
//! Pure arithmetic — no clocks, no I/O. The shape follows the pSTL-Bench
//! methodology (arXiv 2402.06384): repeated runs, a robust central
//! estimate (median, not mean), and an explicit dispersion measure.

use serde::Serialize;

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

/// Statistical summary of K timing repeats of one metric: the robust
/// center (median), the dispersion (IQR), and the extremes. The tuner's
/// search log stores one per measured configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of timing repeats summarized (the K of median-of-K).
    pub repeats: u64,
    /// Median seconds across the repeats.
    pub median_s: f64,
    /// Interquartile range in seconds across the repeats.
    pub iqr_s: f64,
    /// Fastest repeat, seconds.
    pub min_s: f64,
    /// Slowest repeat, seconds.
    pub max_s: f64,
}

impl Summary {
    /// Summarize a non-empty sample set of per-repeat seconds.
    pub fn from_samples(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        Summary {
            repeats: s.len() as u64,
            median_s: quantile_sorted(&s, 0.5),
            iqr_s: quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25),
            min_s: s.first().copied().unwrap_or(0.0),
            max_s: s.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_samples_matches_hand_computation() {
        let s = Summary::from_samples(&[10.0, 30.0, 20.0, 40.0, 50.0]);
        assert_eq!(s.repeats, 5);
        assert_eq!(s.median_s, 30.0);
        assert_eq!(s.iqr_s, 20.0);
        assert_eq!(s.min_s, 10.0);
        assert_eq!(s.max_s, 50.0);
    }
}
