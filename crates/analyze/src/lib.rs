//! gaia-analyze: dependency-free static analysis for the workspace.
//!
//! Two layers keep the portability study honest:
//!
//! 1. **This crate** — a source lint engine (tokenizer + rule driver, no
//!    rustc, no syn) that walks every workspace crate and enforces the
//!    concurrency idioms the paper's ports rely on: `SAFETY:` comments on
//!    `unsafe`, `ORDERING:` rationale on atomics (with `SeqCst` denied by
//!    default), pool-only thread creation, telemetry-only timing, and
//!    unwrap-free kernel hot paths. See [`rules`] for the rule set and
//!    the in-source suppression syntax.
//! 2. **`gaia_backends::plan_check`** — the static `LaunchPlan` checker
//!    proving every schedule's write-sets disjoint before a single thread
//!    runs.
//!
//! Entry points: [`analyze_source`] for one in-memory file (fixtures,
//! editors), [`analyze_workspace`] for the whole tree, and the
//! `gaia-analyze` binary for CI (`--deny` exits nonzero on any
//! unsuppressed diagnostic).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dataflow;
pub mod index;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

pub use dataflow::DataflowStats;
pub use index::SymbolIndex;
pub use report::Report;
pub use rules::{Diagnostic, FileFindings, Suppression};

/// Directory names never descended into: third-party code, build output,
/// deliberately-bad lint fixtures, and run artifacts.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "corpus", "results"];

/// Lint one file's text under a workspace-relative `path` (which drives
/// the per-file allow-lists — pass the path the file *would* have). Runs
/// the full pipeline: per-file rules, then the dataflow checkers over a
/// single-file symbol index, then the unused-suppression sweep.
pub fn analyze_source(path: &str, text: &str) -> FileFindings {
    let view = lexer::lex(text);
    let mut findings = vec![rules::check_file(path, &view)];
    let index = SymbolIndex::build(vec![(path.to_owned(), view)]);
    dataflow_pass(&index, &mut findings);
    findings.pop().expect("one file in, one findings out")
}

/// Run the dataflow checkers over `index` and fold their findings into
/// the per-file `findings` (parallel to `index.files`), routing each one
/// through [`rules::emit`] so in-source suppressions apply. The
/// unused-suppression sweep runs last, after every rule family has had
/// the chance to mark its directives used.
fn dataflow_pass(index: &SymbolIndex, findings: &mut [FileFindings]) -> DataflowStats {
    let (atomic_findings, atomic_sites) = dataflow::atomic::check(index);
    let (lock_findings, lock_sites) = dataflow::locks::check(index);
    for f in atomic_findings.into_iter().chain(lock_findings) {
        let entry = &index.files[f.file];
        rules::emit(
            &mut findings[f.file],
            &entry.path,
            &entry.view,
            f.line,
            f.rule,
            f.message,
        );
    }
    for (i, entry) in index.files.iter().enumerate() {
        rules::unused_suppression_pass(&entry.path, &entry.view, &mut findings[i]);
    }
    let functions = index
        .files
        .iter()
        .filter(|e| !lexer::path_is_test(&e.path))
        .map(|e| e.items.fns.iter().filter(|f| !f.is_test).count() as u64)
        .sum();
    DataflowStats {
        functions,
        atomic_sites,
        lock_sites,
    }
}

/// Collect every `.rs` file under `root`, skipping [`SKIP_DIRS`], sorted
/// for deterministic reports. Paths returned are workspace-relative with
/// `/` separators.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.push(PathBuf::from(rel.to_string_lossy().replace('\\', "/")));
        }
    }
    Ok(())
}

/// Lint every workspace source under `root` and assemble the [`Report`]:
/// lex everything once, run the per-file rules, build the workspace
/// [`SymbolIndex`], run the cross-file dataflow checkers, then the
/// unused-suppression sweep. Records the lint and dataflow counts into
/// the telemetry analyze cell when the `telemetry` feature is on.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let sources = workspace_sources(root)?;
    let mut files = Vec::with_capacity(sources.len());
    for rel in &sources {
        let text = fs::read_to_string(root.join(rel))?;
        files.push((rel.to_string_lossy().into_owned(), lexer::lex(&text)));
    }
    let mut findings: Vec<FileFindings> = files
        .iter()
        .map(|(path, view)| rules::check_file(path, view))
        .collect();
    let index = SymbolIndex::build(files);
    let stats = dataflow_pass(&index, &mut findings);
    let mut diagnostics = Vec::new();
    let mut suppressions = Vec::new();
    for f in &mut findings {
        diagnostics.append(&mut f.diagnostics);
        suppressions.append(&mut f.suppressions);
    }
    let report = Report::new(sources.len(), diagnostics, suppressions);
    gaia_telemetry::record(|t| {
        let a = &mut t.analyze;
        a.lint_files += report.files_scanned as u64;
        a.lint_diagnostics += report.diagnostics.len() as u64;
        a.lint_suppressions += report.suppressions.len() as u64;
        a.dataflow_functions += stats.functions;
        a.dataflow_atomic_sites += stats.atomic_sites;
        a.dataflow_lock_sites += stats.lock_sites;
    });
    Ok(report)
}

/// Paths changed relative to `rev`, per `git diff --name-only` (plus
/// files added since), as workspace-relative `/`-separated strings.
/// `None` when git is unavailable or `rev` is unknown — callers fall
/// back to a full scan.
pub fn changed_files(root: &Path, rev: &str) -> Option<BTreeSet<String>> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only", rev])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(
        text.lines()
            .map(|l| l.trim().replace('\\', "/"))
            .filter(|l| !l.is_empty())
            .collect(),
    )
}

/// Find the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_flags_and_suppresses() {
        let bad = "let t = Instant::now();";
        let f = analyze_source("crates/x/src/a.rs", bad);
        assert_eq!(f.diagnostics.len(), 1);
        assert_eq!(f.diagnostics[0].rule, "timing");
        assert_eq!(f.diagnostics[0].line, 1);

        let ok = "// gaia-analyze: allow(timing): warm-up loop outside telemetry\nlet t = Instant::now();";
        let f = analyze_source("crates/x/src/a.rs", ok);
        assert!(f.diagnostics.is_empty());
        assert_eq!(f.suppressions.len(), 1);
    }

    #[test]
    fn workspace_root_is_found_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn walker_skips_vendor_and_fixtures() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let sources = workspace_sources(&root).unwrap();
        assert!(!sources.is_empty());
        for s in &sources {
            let s = s.to_string_lossy();
            assert!(!s.contains("vendor/"), "{s}");
            assert!(!s.contains("target/"), "{s}");
            assert!(!s.contains("fixtures/"), "{s}");
        }
        assert!(sources
            .iter()
            .any(|s| s.to_string_lossy() == "crates/backends/src/exec.rs"));
    }
}
