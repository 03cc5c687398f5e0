//! The dataflow checkers must actually *see* the workspace's concurrency
//! sites. A clean `--deny` run proves nothing if the resolvers silently
//! stopped resolving — this test pins floors on the site counts so a
//! refactor that blinds the checkers fails loudly.

use std::fs;

use gaia_analyze::dataflow::{atomic, locks};
use gaia_analyze::{find_workspace_root, lexer, workspace_sources, SymbolIndex};

fn workspace_index() -> SymbolIndex {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = workspace_sources(&root)
        .expect("workspace sources")
        .iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(rel)).expect("read source");
            (rel.to_string_lossy().into_owned(), lexer::lex(&text))
        })
        .collect();
    SymbolIndex::build(files)
}

#[test]
fn dataflow_checkers_resolve_real_workspace_sites() {
    let index = workspace_index();

    let (atomic_findings, atomic_sites) = atomic::check(&index);
    let shown: Vec<_> = atomic_findings
        .iter()
        .map(|f| {
            format!(
                "{}:{} [{}] {}",
                index.files[f.file].path, f.line, f.rule, f.message
            )
        })
        .collect();
    assert!(
        shown.is_empty(),
        "workspace atomic protocols drifted:\n{shown:#?}"
    );
    // The executor pool alone contributes the shutdown and latch
    // protocols; the telemetry kernel counters contribute a dozen more.
    assert!(
        atomic_sites >= 20,
        "atomic-site classification collapsed: {atomic_sites} site(s)"
    );

    let (lock_findings, lock_sites) = locks::check(&index);
    let shown: Vec<_> = lock_findings
        .iter()
        .map(|f| {
            format!(
                "{}:{} [{}] {}",
                index.files[f.file].path, f.line, f.rule, f.message
            )
        })
        .collect();
    assert!(
        shown.is_empty(),
        "workspace lock-order check failed:\n{shown:#?}"
    );
    // The executor pool, serve queue/breaker, and tiled cache all hold
    // resolvable Mutex/RwLock fields.
    assert!(
        lock_sites >= 8,
        "lock-site resolution collapsed: {lock_sites} site(s)"
    );
}

#[test]
fn the_shutdown_protocol_is_visible_to_the_index() {
    // The pairing the checker is supposed to be guarding: exec.rs's
    // `Shared::shutdown` Release store / Acquire load handshake.
    let index = workspace_index();
    let field = index
        .resolve_field("backends", None, "self.shared.shutdown")
        .expect("Shared::shutdown resolves by unique name within gaia-backends");
    assert_eq!(field.key, "Shared::shutdown");
    assert!(index.files[field.file].path.ends_with("exec.rs"));
}
