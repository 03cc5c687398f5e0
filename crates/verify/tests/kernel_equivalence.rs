//! Strategy equivalence over the committed seed corpus: every conflict
//! strategy the tuner searches must agree with the sequential reference.
//!
//! Determinism classes:
//!
//! * owner-computes sums every column in row order at any thread count, so
//!   every owner-computes cell matches `seq` **bitwise** — any
//!   reassociation sneaking into a kernel or a partition is caught at the
//!   ULP level;
//! * the atomic and lock-striped strategies reduce in schedule-dependent
//!   order, so their matches are bounded by [`TOLERANCE`] instead.
//!
//! `aprod1` never races (each row is owned by exactly one worker, which
//! keeps the scalar per-row order), so it must be bitwise for every
//! strategy.

use gaia_backends::exec::ExecutorPool;
use gaia_backends::{Aprod2Spec, Aprod2Strategy, LaunchPlan, Tuning};
use gaia_sparse::fuzz;
use gaia_verify::corpus;
use proptest::prelude::*;

/// |plan − seq| bound where bitwise identity is not required:
/// far above reduction-order rounding noise on the corpus systems,
/// far below any real kernel defect (a dropped or doubled `a·y` term).
const TOLERANCE: f64 = 1e-12;

/// The strategy configurations checked: the sequential reference shape, owner-computes across threads, and the two
/// contended multi-thread strategies (by their registry names).
fn configs() -> Vec<(&'static str, Tuning, Aprod2Strategy)> {
    vec![
        (
            "seq",
            Tuning {
                threads: 1,
                chunks_per_thread: 1,
            },
            Aprod2Strategy::OwnerComputes,
        ),
        (
            "chunked-t3",
            Tuning {
                threads: 3,
                chunks_per_thread: 1,
            },
            Aprod2Strategy::OwnerComputes,
        ),
        (
            "atomic-t3",
            Tuning {
                threads: 3,
                chunks_per_thread: 1,
            },
            Aprod2Strategy::Atomic,
        ),
        (
            "striped-t3",
            Tuning {
                threads: 3,
                chunks_per_thread: 1,
            },
            Aprod2Strategy::LockStriped { stripes: 8 },
        ),
    ]
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sweep the full corpus × configuration grid with randomized probe
    /// vectors and prior output contents (the accumulate contract).
    #[test]
    fn strategies_match_seq_reference_over_the_corpus(
        bias in -2.0f64..2.0,
        xk in 0.07f64..0.9,
        yk in 0.07f64..0.9,
    ) {
        let pool = ExecutorPool::new(3);
        for seed in corpus::corpus_seeds() {
            let sys = fuzz::system_from_seed(seed);
            let x: Vec<f64> =
                (0..sys.n_cols()).map(|i| ((i + 1) as f64 * xk).sin()).collect();
            let y: Vec<f64> =
                (0..sys.n_rows()).map(|i| ((i + 2) as f64 * yk).cos()).collect();

            let (_, seq_tuning, seq_strategy) = configs()[0];
            let seq = LaunchPlan::new(seq_tuning, Aprod2Spec::uniform(seq_strategy));
            let mut want1 = vec![bias; sys.n_rows()];
            seq.aprod1(&pool, &sys, &x, &mut want1);
            let mut want2 = vec![bias; sys.n_cols()];
            seq.aprod2(&pool, &sys, &y, &mut want2);

            for (cfg_name, tuning, strategy) in configs() {
                let plan = LaunchPlan::new(tuning, Aprod2Spec::uniform(strategy));
                let tag = format!("seed {seed} / {cfg_name}");

                let mut got1 = vec![bias; sys.n_rows()];
                plan.aprod1(&pool, &sys, &x, &mut got1);
                prop_assert!(
                    bits_equal(&got1, &want1),
                    "{tag}: aprod1 not bitwise (max |Δ| {:.3e})",
                    max_abs_diff(&got1, &want1),
                );

                let mut got2 = vec![bias; sys.n_cols()];
                plan.aprod2(&pool, &sys, &y, &mut got2);
                if strategy == Aprod2Strategy::OwnerComputes {
                    prop_assert!(
                        bits_equal(&got2, &want2),
                        "{tag}: aprod2 not bitwise (max |Δ| {:.3e})",
                        max_abs_diff(&got2, &want2),
                    );
                } else {
                    let err = max_abs_diff(&got2, &want2);
                    prop_assert!(
                        err.is_finite() && err <= TOLERANCE,
                        "{tag}: aprod2 off by {err:.3e} (> {TOLERANCE:.0e})",
                    );
                }
            }
        }
    }
}
