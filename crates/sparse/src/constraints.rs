//! Null-space constraint rows.
//!
//! The AVU-GSR system (paper Eq. 2) is overdetermined but rank-deficient
//! without extra equations: the sphere reconstruction is invariant under
//! small rigid rotations of the attitude reference frame, so "some
//! constraint equations must be set to derive a univocal solution"
//! (§III-B). Following the production solver, we append constraint rows
//! after the observation rows. Each constraint row touches only attitude
//! columns and uses the same 3 × 4 strided storage as observation rows, so
//! the `aprod` attitude kernels process observations and constraints
//! uniformly.

use rand::RngCore;

use crate::generator::below;
use crate::layout::SystemLayout;
use crate::system::ATT_NNZ_PER_ROW;
use crate::{ATT_AXES, ATT_PARAMS_PER_AXIS};

/// Attitude coefficients and axis-segment offsets for the
/// `layout.n_constraint_rows` constraint rows.
///
/// Row `i` constrains axis `i % 3`: its four entries on that axis are set to
/// a normalized positive weight (a discrete "sum of attitude corrections on
/// this axis is zero" equation), while the other two axes' slots hold zero.
/// Offsets sweep the axis segment so that successive constraint rows pin
/// different regions of the attitude spline.
pub fn build_constraint_rows<R: RngCore>(
    layout: &SystemLayout,
    rng: &mut R,
) -> (Vec<f64>, Vec<u32>) {
    let n = layout.n_constraint_rows as usize;
    let mut values = vec![0.0f64; n * ATT_NNZ_PER_ROW];
    let mut offsets = vec![0u32; n];
    let max_off = layout.n_deg_freedom_att - ATT_PARAMS_PER_AXIS as u64;
    for i in 0..n {
        let axis = i % ATT_AXES as usize;
        // Deterministic sweep of the segment, with a little jitter so that
        // constraint rows do not all collide on the same columns.
        let base = if n <= 1 {
            0
        } else {
            (i as u64 * max_off) / (n as u64 - 1).max(1)
        };
        let jitter = below(rng, ATT_PARAMS_PER_AXIS as u64 + 1);
        offsets[i] = u32::try_from((base + jitter).min(max_off))
            .expect("a valid layout keeps attitude offsets inside u32");
        let w = 1.0 / (ATT_PARAMS_PER_AXIS as f64).sqrt();
        for k in 0..ATT_PARAMS_PER_AXIS as usize {
            values[i * ATT_NNZ_PER_ROW + axis * ATT_PARAMS_PER_AXIS as usize + k] = w;
        }
    }
    (values, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constraint_rows_touch_exactly_one_axis() {
        let layout = SystemLayout::small();
        let mut rng = SmallRng::seed_from_u64(1);
        let (values, offsets) = build_constraint_rows(&layout, &mut rng);
        assert_eq!(offsets.len(), layout.n_constraint_rows as usize);
        for i in 0..offsets.len() {
            let row = &values[i * ATT_NNZ_PER_ROW..(i + 1) * ATT_NNZ_PER_ROW];
            let nonzero_axes: Vec<usize> = (0..ATT_AXES as usize)
                .filter(|&a| {
                    row[a * ATT_PARAMS_PER_AXIS as usize..(a + 1) * ATT_PARAMS_PER_AXIS as usize]
                        .iter()
                        .any(|&v| v != 0.0)
                })
                .collect();
            assert_eq!(nonzero_axes, vec![i % ATT_AXES as usize]);
        }
    }

    #[test]
    fn constraint_offsets_stay_in_segment() {
        let layout = SystemLayout::tiny();
        let mut rng = SmallRng::seed_from_u64(2);
        let (_, offsets) = build_constraint_rows(&layout, &mut rng);
        let max = layout.n_deg_freedom_att - ATT_PARAMS_PER_AXIS as u64;
        assert!(offsets.iter().all(|&o| u64::from(o) <= max));
    }

    #[test]
    fn constraint_rows_have_unit_norm() {
        let layout = SystemLayout::small();
        let mut rng = SmallRng::seed_from_u64(3);
        let (values, offsets) = build_constraint_rows(&layout, &mut rng);
        for i in 0..offsets.len() {
            let row = &values[i * ATT_NNZ_PER_ROW..(i + 1) * ATT_NNZ_PER_ROW];
            let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }
}
