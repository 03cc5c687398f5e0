//! Schedule-exploration acceptance tests: every real conflict strategy
//! survives 200+ seeded adversarial schedules, the fixed-reduction-order
//! strategies are bitwise schedule-stable, and the deliberately racy
//! canary is caught (proving the harness can actually see races).

use gaia_verify::corpus;
use gaia_verify::schedule::{self, ScheduleReport};

fn assert_clean(rep: &ScheduleReport) {
    assert!(
        rep.passed(),
        "{}: {}/{} schedules failed (max error {:.3e}, expect_bitwise={}, bitwise_stable={})",
        rep.subject,
        rep.failures,
        rep.schedules,
        rep.max_abs_error,
        rep.expect_bitwise,
        rep.bitwise_stable,
    );
    assert!(
        !rep.statically_flagged,
        "{}: the static plan checker rejected a strategy the dynamic \
         harness accepts",
        rep.subject,
    );
    assert!(
        !rep.write_model_flagged && !rep.read_model_flagged,
        "{}: a static layer flag is set on a clean subject (write={}, read={})",
        rep.subject,
        rep.write_model_flagged,
        rep.read_model_flagged,
    );
}

#[test]
fn every_strategy_survives_200_seeded_schedules() {
    let seeds = corpus::schedule_seeds(200);
    for (name, strategy) in schedule::strategies() {
        let rep = schedule::explore_strategy(name, strategy, false, &seeds);
        assert_eq!(rep.schedules, 200);
        assert_clean(&rep);
        assert_eq!(
            rep.publish_probes_min > 0,
            matches!(name, "atomic" | "casloop"),
            "{}: only the atomic strategies publish",
            rep.subject
        );
    }
}

#[test]
fn streamed_budget_survives_seeded_schedules() {
    // The streamed worker budget changes chunk shapes and barrier timing;
    // a lighter pass per strategy keeps the suite fast.
    let seeds = corpus::schedule_seeds(40);
    for (name, strategy) in schedule::strategies() {
        let rep = schedule::explore_strategy(name, strategy, true, &seeds);
        assert_clean(&rep);
    }
}

#[test]
fn fixed_order_strategies_are_bitwise_stable_across_schedules() {
    let seeds = corpus::schedule_seeds(64);
    for (name, strategy) in schedule::strategies() {
        if !schedule::expect_bitwise(strategy) {
            continue;
        }
        let rep = schedule::explore_strategy(name, strategy, false, &seeds);
        assert!(
            rep.bitwise_stable,
            "{}: result bits changed under some schedule",
            rep.subject
        );
    }
}

/// The atomic strategies issue one atomic add per touched column a job now,
/// not one per non-zero, so an exploration that never reached them would pass
/// vacuously. Under the canary's own race-hostile controller every launch —
/// `aprod2`'s and the one-launch Golub–Kahan pass's — on every seed of the
/// committed corpus, must hit the publish probes of both colliding sections
/// and still agree with the oracle — while the same controller and seeds
/// still expose the canary.
#[test]
fn atomic_publish_is_explored_on_every_launch_and_survives_the_race_window() {
    let seeds = corpus::corpus_seeds();
    for (name, strategy) in schedule::strategies() {
        if !matches!(name, "atomic" | "casloop") {
            continue;
        }
        let rep = schedule::explore_publish(name, strategy, &seeds);
        assert_eq!(rep.schedules, seeds.len());
        assert_clean(&rep);
        assert!(
            rep.publish_probes_min > 0,
            "{}: some launch never reached the publish loop of a colliding section",
            rep.subject
        );
    }
    let canary = schedule::explore_broken(&seeds);
    assert!(
        canary.failures > 0,
        "the race window no longer exposes the canary"
    );
    assert_eq!(canary.publish_probes_min, 0, "the canary has no publish");
}

/// The must-fail canary: a correct harness flags the lost-update fixture.
/// If this test fails, the harness has gone blind to write-write races and
/// every other schedule-exploration result is meaningless.
#[test]
fn broken_strategy_canary_is_caught() {
    let seeds = corpus::schedule_seeds(8);
    let rep = schedule::explore_broken(&seeds);
    assert!(
        rep.failures > 0,
        "harness failed to detect the deliberate lost-update race over {} schedules \
         (max error {:.3e})",
        rep.schedules,
        rep.max_abs_error,
    );
    assert!(
        rep.statically_flagged,
        "the static plan checker failed to flag the canary's colliding \
         plain-shared write model as an illegal strategy/block pairing"
    );
    assert!(
        rep.write_model_flagged,
        "the write-disjointness layer missed the canary"
    );
    assert!(
        rep.read_model_flagged,
        "the read/write access-model layer missed the canary's stale \
         cross-lane reads"
    );
}

/// The static layers alone: the canary's access model is rejected without
/// running a single schedule — by the write-disjointness check *and* by
/// the read/write race check (two independent static detections).
#[test]
fn broken_write_model_is_statically_illegal() {
    let model = schedule::broken_write_model(90, 8);
    let err = gaia_backends::check_sections(&[model]).unwrap_err();
    assert!(
        err.to_string().contains("illegal strategy/block pairing"),
        "{err}"
    );
    assert!(
        err.has_write_violation(),
        "write layer must reject the canary: {err}"
    );
    assert!(
        err.has_read_violation(),
        "read/write layer must reject the canary: {err}"
    );
    assert!(err.to_string().contains("read/write race"), "{err}");
}
