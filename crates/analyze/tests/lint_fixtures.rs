//! Fixture corpus acceptance: every deliberately-bad fixture is flagged
//! with exactly the expected rule, and the clean fixture passes untouched.
//! The fixtures live under `tests/fixtures/` (a directory the workspace
//! walker skips) and are linted here under *virtual* production paths, so
//! the test-location exemptions do not mask them.

use gaia_analyze::analyze_source;

/// Lint fixture `text` as if it lived at `path`; return the rule ids.
fn rules_at(path: &str, text: &str) -> Vec<String> {
    analyze_source(path, text)
        .diagnostics
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn bad_safety_is_flagged() {
    let rules = rules_at(
        "crates/x/src/bad_safety.rs",
        include_str!("fixtures/bad_safety.rs"),
    );
    assert_eq!(rules, vec!["safety-comment"]);
}

#[test]
fn bad_seqcst_is_flagged() {
    let rules = rules_at(
        "crates/x/src/bad_seqcst.rs",
        include_str!("fixtures/bad_seqcst.rs"),
    );
    assert_eq!(rules, vec!["ordering-seqcst"]);
}

#[test]
fn bad_ordering_doc_is_flagged() {
    let rules = rules_at(
        "crates/x/src/bad_ordering_doc.rs",
        include_str!("fixtures/bad_ordering_doc.rs"),
    );
    assert_eq!(rules, vec!["ordering-doc"]);
}

#[test]
fn bad_spawn_is_flagged() {
    let rules = rules_at(
        "crates/x/src/bad_spawn.rs",
        include_str!("fixtures/bad_spawn.rs"),
    );
    assert_eq!(rules, vec!["thread-spawn"]);
}

#[test]
fn bad_timing_is_flagged() {
    let rules = rules_at(
        "crates/x/src/bad_timing.rs",
        include_str!("fixtures/bad_timing.rs"),
    );
    assert_eq!(rules, vec!["timing"]);
}

#[test]
fn bad_unwrap_is_flagged_in_hot_path_only() {
    let text = include_str!("fixtures/bad_unwrap.rs");
    // Under a backend_* file name the hot-path rule fires — the prefix
    // every engine in `crates/backends/src` keeps, the one planned
    // backend included…
    for path in [
        "crates/backends/src/backend_fixture.rs",
        "crates/backends/src/backend_planned.rs",
    ] {
        assert_eq!(rules_at(path, text), vec!["hot-unwrap"], "{path}");
    }
    assert!(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../backends/src/backend_planned.rs")
            .is_file(),
        "the planned backend moved: keep `is_hot_path` covering it"
    );
    // …as it does in the out-of-core tile modules, where a panic between
    // tile loads discards a long streamed solve…
    assert_eq!(
        rules_at("crates/sparse/src/tiled.rs", text),
        vec!["hot-unwrap"]
    );
    assert_eq!(rules_at("crates/core/src/ooc.rs", text), vec!["hot-unwrap"]);
    // …but the same code in a cold path is legal.
    assert!(rules_at("crates/backends/src/registry_fixture.rs", text).is_empty());
}

#[test]
fn bad_suppression_is_flagged_and_does_not_suppress() {
    let rules = rules_at(
        "crates/x/src/bad_suppression.rs",
        include_str!("fixtures/bad_suppression.rs"),
    );
    assert_eq!(rules, vec!["suppression", "timing"]);
}

#[test]
fn bad_atomic_pairing_is_flagged_at_the_relaxed_load() {
    let f = analyze_source(
        "crates/x/src/bad_atomic_pairing.rs",
        include_str!("fixtures/bad_atomic_pairing.rs"),
    );
    let rules: Vec<_> = f.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["atomic-pairing"]);
    let d = &f.diagnostics[0];
    assert_eq!(d.line, 20, "flagged at the Relaxed load, not the store");
    assert!(d.message.contains("Flag::ready"), "{}", d.message);
}

#[test]
fn bad_lock_order_is_flagged_as_a_cycle() {
    let f = analyze_source(
        "crates/x/src/bad_lock_order.rs",
        include_str!("fixtures/bad_lock_order.rs"),
    );
    let rules: Vec<_> = f.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["lock-order"]);
    let d = &f.diagnostics[0];
    assert!(d.message.contains("cycle"), "{}", d.message);
    assert!(d.message.contains("Pair::a"), "{}", d.message);
    assert!(d.message.contains("Pair::b"), "{}", d.message);
}

#[test]
fn bad_unused_suppression_is_flagged_at_its_directive() {
    let f = analyze_source(
        "crates/x/src/bad_unused_suppression.rs",
        include_str!("fixtures/bad_unused_suppression.rs"),
    );
    let rules: Vec<_> = f.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["suppression-unused"]);
    assert_eq!(f.diagnostics[0].line, 5, "flagged at the directive line");
    assert!(
        f.suppressions.is_empty(),
        "an unused directive is not an honored suppression"
    );
}

#[test]
fn bad_ordering_drift_is_flagged_at_the_undocumented_use() {
    let f = analyze_source(
        "crates/x/src/bad_ordering_drift.rs",
        include_str!("fixtures/bad_ordering_drift.rs"),
    );
    let rules: Vec<_> = f.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["ordering-drift"]);
    assert!(
        f.diagnostics[0].message.contains("Acquire"),
        "{}",
        f.diagnostics[0].message
    );
}

#[test]
fn clean_fixture_passes_with_one_honored_suppression() {
    let f = analyze_source("crates/x/src/clean.rs", include_str!("fixtures/clean.rs"));
    assert!(
        f.diagnostics.is_empty(),
        "clean fixture flagged: {:?}",
        f.diagnostics
    );
    assert_eq!(f.suppressions.len(), 1);
    assert_eq!(f.suppressions[0].rule, "timing");
    assert!(!f.suppressions[0].justification.is_empty());
}

#[test]
fn diagnostics_carry_location_and_excerpt() {
    let f = analyze_source(
        "crates/x/src/bad_timing.rs",
        include_str!("fixtures/bad_timing.rs"),
    );
    let d = &f.diagnostics[0];
    assert_eq!(d.path, "crates/x/src/bad_timing.rs");
    assert_eq!(d.line, 6);
    assert!(d.excerpt.contains("Instant::now"));
    assert!(d.message.contains("telemetry"));
}
