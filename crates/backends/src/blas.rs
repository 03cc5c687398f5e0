//! Scalar BLAS-1 helpers used by LSQR between the sparse products.
//!
//! `nrm2` is one canonical norm: an eight-lane sum of squares
//! ([`sumsq`]), falling back to the scaled (overflow-safe) recurrence of
//! the reference BLAS `DNRM2` only when that sum overflows, underflows or
//! is zero — LSQR feeds it vectors whose magnitude varies over many
//! orders of magnitude as the bidiagonalization converges.

/// Elements per block of [`sumsq`]: each block's eight lanes are folded
/// into the running total before the next block starts.
const SUMSQ_BLOCK: usize = 1024;

/// Below this a sum of squares may have lost the squares of subnormal
/// terms; [`nrm2`] then takes the scaled recurrence.
const SUMSQ_MIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// `Σ vᵢ²`, accumulated in eight lanes over blocks of 1 024 elements,
/// each block's lanes folded into the total in ascending lane order. The
/// order is fixed by the length alone, so equal inputs give equal bits.
pub fn sumsq(v: &[f64]) -> f64 {
    let mut total = 0.0;
    for block in v.chunks(SUMSQ_BLOCK) {
        let mut lanes = [0.0f64; 8];
        let mut eights = block.chunks_exact(8);
        for c in &mut eights {
            for (lane, &x) in lanes.iter_mut().zip(c) {
                *lane += x * x;
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(eights.remainder()) {
            *lane += x * x;
        }
        for lane in lanes {
            total += lane;
        }
    }
    total
}

/// Euclidean norm: `√sumsq(v)`, or the scaled `DNRM2` recurrence when the
/// sum overflowed, underflowed or is zero. A NaN entry gives NaN; an
/// infinite one (and no NaN) gives `+∞`.
pub fn nrm2(v: &[f64]) -> f64 {
    let ss = sumsq(v);
    // NaN only comes from a NaN entry: squares are never negative.
    if ss.is_nan() || (SUMSQ_MIN..f64::INFINITY).contains(&ss) {
        ss.sqrt()
    } else {
        scaled_nrm2(v)
    }
}

/// The reference `DNRM2` recurrence, for a `v` that holds no NaN.
fn scaled_nrm2(v: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &x in v {
        if x != 0.0 {
            let ax = x.abs();
            if ax == f64::INFINITY {
                return ax;
            }
            if scale < ax {
                let r = scale / ax;
                ssq = 1.0 + ssq * r * r;
                scale = ax;
            } else {
                let r = ax / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// `v *= s`.
pub fn scal(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

/// `y += a·x`.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `sqrt(a² + b²)` without undue overflow (LSQR's plane-rotation helper).
pub fn d2norm(a: f64, b: f64) -> f64 {
    let scale = a.abs() + b.abs();
    if scale == 0.0 {
        0.0
    } else {
        let ar = a / scale;
        let br = b / scale;
        scale * (ar * ar + br * br).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nrm2_matches_naive_on_moderate_values() {
        let v: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let naive = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((nrm2(&v) - naive).abs() < 1e-12);
    }

    #[test]
    fn nrm2_survives_extreme_magnitudes() {
        let v = vec![1e-300, 1e300, 1e-300];
        assert!((nrm2(&v) - 1e300).abs() / 1e300 < 1e-12);
        let tiny = vec![1e-308; 4];
        assert!(nrm2(&tiny) > 0.0);
        assert!(nrm2(&tiny).is_finite());
    }

    #[test]
    fn nrm2_of_empty_and_zero() {
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    /// The fallback cases, exactly: huge and tiny entries whose squares
    /// overflow or vanish, zeros, the empty vector, NaN and infinities.
    #[test]
    fn nrm2_edge_cases_are_exact() {
        assert_eq!(nrm2(&[1e300, 1e300]), 2f64.sqrt() * 1e300);
        assert_eq!(nrm2(&[3e300, 4e300]), 5e300);
        assert_eq!(nrm2(&[3e-300, 4e-300]), 5e-300);
        assert_eq!(nrm2(&[1e-300, 1e300, 1e-300]), 1e300);
        assert_eq!(nrm2(&[f64::MIN_POSITIVE / 4.0]), f64::MIN_POSITIVE / 4.0);
        assert_eq!(nrm2(&[-1e-320]), 1e-320);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0; 3000]), 0.0);
        assert_eq!(nrm2(&[0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut v = vec![1.0; 2000];
            v[1500] = bad;
            let want = if bad.is_nan() {
                f64::NAN
            } else {
                f64::INFINITY
            };
            assert_eq!(nrm2(&v).to_bits(), want.to_bits(), "{bad}");
        }
        assert_eq!(nrm2(&[f64::INFINITY, -f64::INFINITY]), f64::INFINITY);
        assert!(nrm2(&[f64::INFINITY, f64::NAN]).is_nan());
        assert!(nrm2(&[f64::NAN, 1e300, 1e300]).is_nan());
    }

    #[test]
    fn sumsq_folds_lanes_in_a_fixed_order() {
        let v: Vec<f64> = (0..2500).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut want = 0.0;
        for block in v.chunks(1024) {
            let mut lanes = [0.0; 8];
            for (i, x) in block.iter().enumerate() {
                lanes[i % 8] += x * x;
            }
            for lane in lanes {
                want += lane;
            }
        }
        assert_eq!(sumsq(&v).to_bits(), want.to_bits());
        assert_eq!(sumsq(&[]), 0.0);
    }

    #[test]
    fn dot_matches_manual_sum() {
        let a = [1.0, -2.0, 3.0];
        let b = [4.0, 5.0, -6.0];
        assert_eq!(dot(&a, &b), 4.0 - 10.0 - 18.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn d2norm_matches_hypot() {
        for (a, b) in [(3.0, 4.0), (-3.0, 4.0), (0.0, 0.0), (1e200, 1e200)] {
            let want = f64::hypot(a, b);
            let got = d2norm(a, b);
            if want == 0.0 {
                assert_eq!(got, 0.0);
            } else {
                assert!((got - want).abs() / want < 1e-12);
            }
        }
    }

    proptest! {
        #[test]
        fn axpy_then_inverse_restores(a in -10.0f64..10.0, n in 1usize..50) {
            prop_assume!(a.abs() > 1e-6);
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut y = y0.clone();
            axpy(&mut y, a, &x);
            axpy(&mut y, -a, &x);
            for (yi, y0i) in y.iter().zip(&y0) {
                prop_assert!((yi - y0i).abs() < 1e-9);
            }
        }

        #[test]
        fn nrm2_matches_the_scaled_recurrence(
            v in proptest::collection::vec(-1e3f64..1e3, 0..3000),
            exp in -100i32..100,
        ) {
            let v: Vec<f64> = v.iter().map(|x| x * 10f64.powi(exp)).collect();
            let (got, want) = (nrm2(&v), scaled_nrm2(&v));
            prop_assert!((got - want).abs() <= 1e-13 * want, "{got} vs {want}");
        }

        #[test]
        fn scal_scales_norm(s in -4.0f64..4.0, n in 1usize..50) {
            let mut v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
            let before = nrm2(&v);
            scal(&mut v, s);
            prop_assert!((nrm2(&v) - s.abs() * before).abs() < 1e-9 * (1.0 + before));
        }
    }
}
