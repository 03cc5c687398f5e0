//! Cross-crate acceptance for the static layers together: the
//! `LaunchPlan` checker in gaia-backends must reject the canonical bad
//! plans (overlapping partitions, unsynchronized shared writes, colliding
//! plain read/write pairs) while the lint engine in this crate must find
//! the *workspace itself* clean.

use std::path::Path;

use gaia_analyze::{analyze_workspace, find_workspace_root};
use gaia_backends::{
    check_sections, PlanDims, PlanViolation, ReadAccess, SectionId, SectionModel, WriteAccess,
};

fn owned(writes: Vec<std::ops::Range<usize>>) -> SectionModel {
    SectionModel::new(SectionId::Att, WriteAccess::Owned, 100, writes)
}

#[test]
fn overlapping_owner_computes_partition_is_rejected() {
    let err = check_sections(&[owned(vec![0..60, 40..100])]).unwrap_err();
    assert!(err
        .violations
        .iter()
        .any(|v| matches!(v, PlanViolation::Overlap { .. })));
}

#[test]
fn gapped_owner_computes_partition_is_rejected() {
    let err = check_sections(&[owned(vec![0..40, 60..100])]).unwrap_err();
    assert!(err
        .violations
        .iter()
        .any(|v| matches!(v, PlanViolation::Gap { .. })));
}

#[test]
fn colliding_plain_shared_writes_are_an_illegal_pairing() {
    let racy = SectionModel::new(
        SectionId::Att,
        WriteAccess::PlainShared,
        100,
        vec![0..100; 4],
    );
    let err = check_sections(&[racy]).unwrap_err();
    assert!(
        err.to_string().contains("illegal strategy/block pairing"),
        "{err}"
    );
    assert!(err.has_write_violation());
}

/// The canary shape as gaia-verify builds it: colliding plain writes
/// *and* plain reads of the whole section. Both independent static
/// layers must reject it.
#[test]
fn colliding_plain_reads_of_plain_writes_are_a_read_write_race() {
    let racy = SectionModel::new(
        SectionId::Att,
        WriteAccess::PlainShared,
        100,
        vec![0..100; 4],
    )
    .with_reads(vec![vec![ReadAccess::plain(SectionId::Att, 0..100)]; 4]);
    let err = check_sections(&[racy]).unwrap_err();
    assert!(err.has_write_violation(), "{err}");
    assert!(err.has_read_violation(), "{err}");
    assert!(err.to_string().contains("read/write race"), "{err}");
}

#[test]
fn every_registry_strategy_is_statically_sound() {
    for name in gaia_backends::backend_names() {
        let Some(backend) = gaia_backends::backend_by_name(name, 4) else {
            panic!("{name} not constructible");
        };
        if let Some(plan) = backend.launch_plan() {
            for dims in PlanDims::canonical() {
                plan.analyze(&dims)
                    .unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            }
        }
    }
}

/// Every registry strategy's full access model — reads included — passes
/// the race check, and actually *models* reads (an empty read model would
/// pass vacuously).
#[test]
fn every_registry_strategy_read_model_is_race_free_and_nonempty() {
    for name in gaia_backends::backend_names() {
        let Some(backend) = gaia_backends::backend_by_name(name, 4) else {
            panic!("{name} not constructible");
        };
        let Some(plan) = backend.launch_plan() else {
            continue;
        };
        for dims in PlanDims::canonical() {
            let model = plan.write_model(&dims);
            let reads: usize = model
                .iter()
                .flat_map(|s| s.reads.iter())
                .map(Vec::len)
                .sum();
            assert!(reads > 0, "{name}: access model carries no reads");
            let proof = check_sections(&model).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            assert_eq!(proof.reads, reads, "{name}: proof undercounts reads");
        }
    }
}

/// The workspace lints clean: zero unsuppressed diagnostics, making the
/// `--deny` CI gate a tier-1 property rather than a CI-only one.
#[test]
fn workspace_is_deny_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let report = analyze_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 100, "walker found too few files");
    assert!(
        report.clean(),
        "unsuppressed diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {}:{}: [{}] {}", d.path, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
