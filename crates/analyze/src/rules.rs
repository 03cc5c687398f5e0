//! The project rule set and the per-file rule driver.
//!
//! Every rule matches against the lexed code text (comments and string
//! contents already blanked by [`crate::lexer`]), so a mention of
//! `unsafe` in a doc comment or a `"SeqCst"` in a report string never
//! fires. Diagnostics can be suppressed in place with
//!
//! ```text
//! // gaia-analyze: allow(<rule>): <justification>
//! ```
//!
//! on the offending line or up to [`SUPPRESS_WINDOW`] lines above it; an
//! `allow` with no justification is itself a diagnostic (`suppression`).

use serde::{Deserialize, Serialize};

use crate::lexer::{path_is_test, FileView};

/// Lines above a site in which a `SAFETY:` / `ORDERING:` annotation (or a
/// suppression's own window, [`SUPPRESS_WINDOW`]) is honored. Wide enough
/// for an annotation separated from its `unsafe` keyword by a binding
/// line, narrow enough that an annotation cannot cover a stranger.
pub const ANNOTATION_WINDOW: usize = 6;

/// A `gaia-analyze: allow(...)` comment suppresses a diagnostic on its own
/// line or anywhere in the contiguous comment block directly above the
/// site, up to this many lines back (so a wrapped justification still
/// counts, but a directive stranded above unrelated code does not).
pub const SUPPRESS_WINDOW: usize = 6;

/// The files allowed to spawn OS threads: everything else must go
/// through `ExecutorPool`. Two deliberate entries — the pool's own
/// worker spawn, and the solve service's long-lived worker threads
/// (which exist precisely to multiplex tenants *onto* the shared pool;
/// per-request spawning anywhere in serve is still a violation).
pub const SPAWN_ALLOWED_FILES: &[&str] =
    &["crates/backends/src/exec.rs", "crates/serve/src/service.rs"];

/// The crate allowed to read clocks: all timing flows through telemetry.
pub const TIMING_ALLOWED_PREFIX: &str = "crates/telemetry/";

/// Stable rule identifiers.
pub const RULE_IDS: &[&str] = &[
    "safety-comment",
    "ordering-seqcst",
    "ordering-doc",
    "ordering-drift",
    "atomic-pairing",
    "lock-order",
    "thread-spawn",
    "timing",
    "hot-unwrap",
    "suppression",
    "suppression-unused",
];

/// The rule inventory: `(id, one-line description)`, in [`RULE_IDS`]
/// order. This is what the v2 report embeds so a consumer can interpret
/// per-rule counts without this crate's source.
pub const RULES: &[(&str, &str)] = &[
    (
        "safety-comment",
        "`unsafe` requires a `// SAFETY:` comment within its window",
    ),
    (
        "ordering-seqcst",
        "`SeqCst` requires an `// ORDERING:` rationale at the site",
    ),
    (
        "ordering-doc",
        "files touching atomic orderings need an `// ORDERING:` protocol comment",
    ),
    (
        "ordering-drift",
        "every ordering the code uses must be named by the file's `// ORDERING:` protocol comment",
    ),
    (
        "atomic-pairing",
        "Release-class stores must pair with Acquire-class loads; Relaxed reads of published fields and unpaired fences are flagged",
    ),
    (
        "lock-order",
        "Mutex/RwLock acquisition nesting must be cycle-free, with no re-acquisition under a live guard",
    ),
    (
        "thread-spawn",
        "OS threads may only be created by the executor-pool allowlist",
    ),
    ("timing", "clock reads belong to gaia-telemetry"),
    (
        "hot-unwrap",
        "panicking shortcuts are banned in kernel hot paths",
    ),
    (
        "suppression",
        "suppressions need a justification and must name a known rule",
    ),
    (
        "suppression-unused",
        "a suppression must suppress at least one diagnostic in the current scan",
    ),
];

/// One finding: where, which rule, and what the line looked like.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_IDS`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// One honored suppression, kept for the report so `--deny` runs stay
/// auditable.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Suppression {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the suppressed site.
    pub line: usize,
    /// Rule that was suppressed.
    pub rule: String,
    /// The stated justification.
    pub justification: String,
    /// 1-based line of the `allow(...)` directive itself (feeds the
    /// `suppression-unused` pass).
    #[serde(default)]
    pub directive_line: usize,
}

/// Result of linting one file.
#[derive(Debug, Clone, Default)]
pub struct FileFindings {
    /// Unsuppressed diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Honored suppressions.
    pub suppressions: Vec<Suppression>,
    /// Directive lines that suppressed at least one diagnostic — the
    /// complement (well-formed directives not listed here) is what the
    /// `suppression-unused` pass flags.
    pub used_directives: Vec<usize>,
}

/// Find a substring match of `needle` in `hay` at identifier boundaries
/// (so `unsafe_op_in_unsafe_fn` does not contain the word `unsafe`).
fn find_word(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// The atomic orderings (the `cmp::Ordering` variants never match, so a
/// sort comparator does not trip the atomics rules).
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn line_has_atomic_ordering(code: &str) -> bool {
    ATOMIC_ORDERINGS.iter().any(|o| code.contains(o))
}

/// Does any comment on `line` (1-based) or the `window` lines above it
/// contain `tag`?
fn annotated_within(view: &FileView, line: usize, window: usize, tag: &str) -> bool {
    let idx = line - 1;
    let lo = idx.saturating_sub(window);
    view.lines[lo..=idx].iter().any(|l| l.comment.contains(tag))
}

/// Look for `gaia-analyze: allow(<rule>)` covering `line`; returns the
/// justification (possibly empty) when found.
fn suppression_for(view: &FileView, line: usize, rule: &str) -> Option<(usize, String)> {
    let idx = line - 1;
    // The directive may sit on the site line itself or anywhere in the
    // contiguous comment block directly above it.
    let mut lo = idx;
    while lo > 0 && idx - lo < SUPPRESS_WINDOW && !view.lines[lo - 1].comment.is_empty() {
        lo -= 1;
    }
    for (off, l) in view.lines[lo..=idx].iter().enumerate() {
        let c = &l.comment;
        if let Some(at) = c.find("gaia-analyze: allow(") {
            let rest = &c[at + "gaia-analyze: allow(".len()..];
            if let Some(close) = rest.find(')') {
                if rest[..close].trim() == rule {
                    let after = rest[close + 1..].trim();
                    let justification = after.strip_prefix(':').unwrap_or("").trim().to_owned();
                    return Some((lo + off + 1, justification));
                }
            }
        }
    }
    None
}

fn excerpt_of(view: &FileView, line: usize) -> String {
    let text = view.raw.get(line - 1).map(String::as_str).unwrap_or("");
    let t = text.trim();
    if t.len() > 120 {
        format!(
            "{}…",
            &t[..t.char_indices().nth(117).map(|(i, _)| i).unwrap_or(0)]
        )
    } else {
        t.to_owned()
    }
}

/// Record a candidate finding into `out`, honoring suppressions. This is
/// the single emission path for the per-file rules *and* the cross-file
/// dataflow checkers, so the suppression syntax and the used-directive
/// bookkeeping behave identically everywhere.
pub fn emit(
    out: &mut FileFindings,
    path: &str,
    view: &FileView,
    line: usize,
    rule: &str,
    message: String,
) {
    if let Some((sup_line, justification)) = suppression_for(view, line, rule) {
        if justification.is_empty() {
            out.diagnostics.push(Diagnostic {
                path: path.to_owned(),
                line: sup_line,
                rule: "suppression".into(),
                message: format!(
                    "suppression of `{rule}` carries no justification \
                     (write `// gaia-analyze: allow({rule}): <why>`)"
                ),
                excerpt: excerpt_of(view, sup_line),
            });
        } else {
            out.suppressions.push(Suppression {
                path: path.to_owned(),
                line,
                rule: rule.to_owned(),
                justification,
                directive_line: sup_line,
            });
            out.used_directives.push(sup_line);
            return;
        }
    }
    let excerpt = excerpt_of(view, line);
    out.diagnostics.push(Diagnostic {
        path: path.to_owned(),
        line,
        rule: rule.to_owned(),
        message,
        excerpt,
    });
}

/// Every well-formed suppression directive in the file: a known rule
/// *and* a nonempty justification. Bare or unknown-rule directives are
/// excluded — those are already `suppression` diagnostics and should not
/// be double-reported as unused.
pub fn well_formed_directives(view: &FileView) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, l) in view.lines.iter().enumerate() {
        let c = &l.comment;
        let Some(at) = c.find("gaia-analyze: allow(") else {
            continue;
        };
        let rest = &c[at + "gaia-analyze: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim();
        if !RULE_IDS.contains(&rule) {
            continue;
        }
        let after = rest[close + 1..].trim();
        let justification = after.strip_prefix(':').unwrap_or("").trim();
        // Same-line-nonempty matches exactly what `suppression_for`
        // honors, so "well-formed" here means "would actually suppress".
        if !justification.is_empty() {
            out.push((idx + 1, rule.to_owned()));
        }
    }
    out
}

/// `suppression-unused`: flag every well-formed directive that suppressed
/// nothing in this scan. Must run after every other rule (including the
/// dataflow families) has emitted into `out`.
pub fn unused_suppression_pass(path: &str, view: &FileView, out: &mut FileFindings) {
    for (line, rule) in well_formed_directives(view) {
        if out.used_directives.contains(&line) {
            continue;
        }
        emit(
            out,
            path,
            view,
            line,
            "suppression-unused",
            format!(
                "suppression of `{rule}` matches no diagnostic in this scan — \
                 the allow is dead; remove it (or the code it covered has moved)"
            ),
        );
    }
}

struct Ctx<'a> {
    path: &'a str,
    view: &'a FileView,
    in_test_tree: bool,
    out: FileFindings,
}

impl Ctx<'_> {
    /// Record a candidate finding, honoring suppressions.
    fn emit(&mut self, line: usize, rule: &str, message: String) {
        emit(&mut self.out, self.path, self.view, line, rule, message);
    }

    fn excerpt(&self, line: usize) -> String {
        excerpt_of(self.view, line)
    }

    /// Is line (1-based) test code, by file location or `#[cfg(test)]`?
    fn is_test_line(&self, line: usize) -> bool {
        self.in_test_tree || self.view.lines[line - 1].in_test
    }
}

/// Run every rule over one lexed file. `path` must be workspace-relative
/// with `/` separators (it drives the per-file allow-lists).
pub fn check_file(path: &str, view: &FileView) -> FileFindings {
    let mut ctx = Ctx {
        path,
        view,
        in_test_tree: path_is_test(path),
        out: FileFindings::default(),
    };

    rule_safety_comment(&mut ctx);
    rule_ordering(&mut ctx);
    rule_thread_spawn(&mut ctx);
    rule_timing(&mut ctx);
    rule_hot_unwrap(&mut ctx);
    rule_dangling_suppressions(&mut ctx);

    ctx.out
}

/// `safety-comment`: every `unsafe` keyword needs a `SAFETY:` comment on
/// the same line or within [`ANNOTATION_WINDOW`] lines above. Applies to
/// test code too — tests dereference the same raw pointers.
fn rule_safety_comment(ctx: &mut Ctx<'_>) {
    for line in 1..=ctx.view.lines.len() {
        if find_word(&ctx.view.lines[line - 1].code, "unsafe").is_none() {
            continue;
        }
        if annotated_within(ctx.view, line, ANNOTATION_WINDOW, "SAFETY:") {
            continue;
        }
        ctx.emit(
            line,
            "safety-comment",
            "`unsafe` without a `// SAFETY:` comment explaining why the \
             invariants hold"
                .into(),
        );
    }
}

/// `ordering-seqcst` + `ordering-doc`: every `SeqCst` site needs an
/// `ORDERING:` annotation in its window, and any file touching atomic
/// orderings needs at least one `ORDERING:` rationale comment somewhere.
fn rule_ordering(ctx: &mut Ctx<'_>) {
    let mut first_site = None;
    for line in 1..=ctx.view.lines.len() {
        let code = &ctx.view.lines[line - 1].code;
        if !line_has_atomic_ordering(code) {
            continue;
        }
        if first_site.is_none() {
            first_site = Some(line);
        }
        if code.contains("Ordering::SeqCst")
            && !annotated_within(ctx.view, line, ANNOTATION_WINDOW, "ORDERING:")
        {
            ctx.emit(
                line,
                "ordering-seqcst",
                "`SeqCst` ordering without an `// ORDERING:` rationale — \
                 use the weakest correct ordering or justify the fence"
                    .into(),
            );
        }
    }
    if let Some(line) = first_site {
        let documented = ctx
            .view
            .lines
            .iter()
            .any(|l| l.comment.contains("ORDERING:"));
        if !documented {
            ctx.emit(
                line,
                "ordering-doc",
                "file uses atomic `Ordering::*` but has no `// ORDERING:` \
                 comment documenting the protocol"
                    .into(),
            );
        }
    }
}

/// `thread-spawn`: OS threads are the executor pool's business; nothing
/// outside [`SPAWN_ALLOWED_FILES`] may create them (tests excepted).
fn rule_thread_spawn(ctx: &mut Ctx<'_>) {
    if SPAWN_ALLOWED_FILES.contains(&ctx.path) {
        return;
    }
    for line in 1..=ctx.view.lines.len() {
        let code = &ctx.view.lines[line - 1].code;
        let hit = ["thread::spawn", "thread::scope", "thread::Builder"]
            .iter()
            .find(|p| code.contains(*p));
        let Some(pattern) = hit else { continue };
        if ctx.is_test_line(line) {
            continue;
        }
        ctx.emit(
            line,
            "thread-spawn",
            format!(
                "`{pattern}` outside the spawn allowlist ({}) — route work \
                 through `ExecutorPool` so threads are pooled and observable",
                SPAWN_ALLOWED_FILES.join(", ")
            ),
        );
    }
}

/// `timing`: clocks belong to telemetry; scattered `Instant::now` calls
/// make perf data unattributable (tests excepted).
fn rule_timing(ctx: &mut Ctx<'_>) {
    if ctx.path.starts_with(TIMING_ALLOWED_PREFIX) {
        return;
    }
    for line in 1..=ctx.view.lines.len() {
        let code = &ctx.view.lines[line - 1].code;
        let hit = ["Instant::now", "SystemTime::now"]
            .iter()
            .find(|p| code.contains(*p));
        let Some(pattern) = hit else { continue };
        if ctx.is_test_line(line) {
            continue;
        }
        ctx.emit(
            line,
            "timing",
            format!(
                "`{pattern}` outside `{TIMING_ALLOWED_PREFIX}` — record \
                 through gaia-telemetry scopes/counters instead"
            ),
        );
    }
}

/// Is this file a kernel hot path (launch layer, kernels, ELL layout, or
/// a backend policy struct), the serve request path, or the auto-tuner
/// search loop? Serve source counts: a panic in a service worker silently
/// kills the lane draining every tenant's queue. The tuner counts too:
/// a panic mid-search discards every measurement already taken, so its
/// measurement loop is held to kernel standards. The out-of-core tile
/// modules count for the same reason: a panic mid-solve between tile
/// loads discards hours of streamed iterations that the typed
/// `TileError`/`OperatorError` paths exist to checkpoint around.
fn is_hot_path(path: &str) -> bool {
    if path.starts_with("crates/serve/src/") || path.starts_with("crates/bench/src/tune/") {
        return true;
    }
    let file = path.rsplit('/').next().unwrap_or(path);
    file == "launch.rs"
        || file == "kernels.rs"
        || file == "ell.rs"
        || file == "tiled.rs"
        || file == "ooc.rs"
        || file.starts_with("backend_")
}

/// `hot-unwrap`: panicking shortcuts are banned in kernel hot paths —
/// a panic inside a pool job poisons the whole launch (tests excepted).
fn rule_hot_unwrap(ctx: &mut Ctx<'_>) {
    if !is_hot_path(ctx.path) {
        return;
    }
    for line in 1..=ctx.view.lines.len() {
        let code = &ctx.view.lines[line - 1].code;
        let hit = [".unwrap()", ".expect("].iter().find(|p| code.contains(*p));
        let Some(pattern) = hit else { continue };
        if ctx.is_test_line(line) {
            continue;
        }
        ctx.emit(
            line,
            "hot-unwrap",
            format!(
                "`{pattern}` in a kernel hot path — propagate or handle the \
                 error; a panic here poisons the executor pool launch"
            ),
        );
    }
}

/// `suppression` (dangling): an `allow(...)` comment naming an unknown
/// rule is a typo that silently suppresses nothing.
fn rule_dangling_suppressions(ctx: &mut Ctx<'_>) {
    for line in 1..=ctx.view.lines.len() {
        let c = &ctx.view.lines[line - 1].comment;
        let Some(at) = c.find("gaia-analyze: allow(") else {
            continue;
        };
        let rest = &c[at + "gaia-analyze: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim();
        // Only rule-shaped names count: docs quoting the syntax with a
        // placeholder (`allow(<rule>)`, `allow(...)`) are not directives.
        let rule_shaped =
            !rule.is_empty() && rule.chars().all(|c| c.is_ascii_lowercase() || c == '-');
        if rule_shaped && !RULE_IDS.contains(&rule) {
            let message = format!("suppression names unknown rule `{rule}`");
            let excerpt = ctx.excerpt(line);
            ctx.out.diagnostics.push(Diagnostic {
                path: ctx.path.to_owned(),
                line,
                rule: "suppression".into(),
                message,
                excerpt,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        check_file(path, &lex(src))
            .diagnostics
            .iter()
            .map(|d| d.rule.clone())
            .collect()
    }

    #[test]
    fn word_boundaries_guard_unsafe() {
        assert!(find_word("unsafe {", "unsafe").is_some());
        assert!(find_word("#![deny(unsafe_op_in_unsafe_fn)]", "unsafe").is_none());
        assert!(find_word("not_unsafe()", "unsafe").is_none());
    }

    #[test]
    fn safety_comment_window_is_honored() {
        let ok = "// SAFETY: the slice outlives the call\nlet a = 1;\nunsafe { work() }";
        assert!(rules_of("crates/x/src/a.rs", ok).is_empty());
        let bad = "let a = 1;\nunsafe { work() }";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["safety-comment"]);
    }

    #[test]
    fn seqcst_requires_ordering_annotation() {
        let bad = "// ORDERING: file-level doc\nx.load(Ordering::SeqCst);";
        // The file-level doc covers ordering-doc and sits within the
        // SeqCst window here, so this passes; move it far away and the
        // site fires.
        assert!(rules_of("crates/x/src/a.rs", bad).is_empty());
        let far = format!(
            "// ORDERING: protocol documented here\n{}x.load(Ordering::SeqCst);",
            "let pad = 0;\n".repeat(10)
        );
        assert_eq!(rules_of("crates/x/src/a.rs", &far), vec!["ordering-seqcst"]);
    }

    #[test]
    fn relaxed_needs_a_file_level_rationale_only() {
        let bad = "x.load(Ordering::Relaxed);";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["ordering-doc"]);
        let ok = "// ORDERING: independent counters\nx.load(Ordering::Relaxed);";
        assert!(rules_of("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let src =
            "v.sort_by(|a, b| if a < b { std::cmp::Ordering::Less } else { Ordering::Greater });";
        assert!(rules_of("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn spawn_is_allowlisted_and_test_exempt() {
        let bad = "std::thread::spawn(|| {});";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["thread-spawn"]);
        assert!(rules_of("crates/backends/src/exec.rs", bad).is_empty());
        // The serve worker spawn site is the one deliberate extension;
        // the rest of the serve crate is still spawn-free.
        assert!(rules_of("crates/serve/src/service.rs", bad).is_empty());
        assert_eq!(
            rules_of("crates/serve/src/queue.rs", bad),
            vec!["thread-spawn"]
        );
        assert!(rules_of("crates/x/tests/a.rs", bad).is_empty());
        let in_test_mod =
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|_| {}); }\n}";
        assert!(rules_of("crates/x/src/a.rs", in_test_mod).is_empty());
    }

    #[test]
    fn timing_is_telemetry_only() {
        let bad = "let t = Instant::now();";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["timing"]);
        assert!(rules_of("crates/telemetry/src/lib.rs", bad).is_empty());
        assert!(rules_of("crates/x/tests/bench.rs", bad).is_empty());
    }

    #[test]
    fn unwrap_banned_in_hot_paths_only() {
        let bad = "let v = x.unwrap();";
        assert_eq!(
            rules_of("crates/backends/src/launch.rs", bad),
            vec!["hot-unwrap"]
        );
        assert_eq!(
            rules_of("crates/backends/src/backend_planned.rs", bad),
            vec!["hot-unwrap"]
        );
        // The serve request path is held to kernel standards: a panic in
        // a worker kills the lane draining every tenant's queue.
        assert_eq!(
            rules_of("crates/serve/src/service.rs", bad),
            vec!["hot-unwrap"]
        );
        assert!(rules_of("crates/serve/tests/service.rs", bad).is_empty());
        assert!(rules_of("crates/backends/src/registry.rs", bad).is_empty());
        // The auto-tuner's search loop and the ELL layout are hot paths
        // too: a panic mid-search discards every measurement taken, and
        // the ELL kernels run inside pool jobs.
        assert_eq!(
            rules_of("crates/bench/src/tune/mod.rs", bad),
            vec!["hot-unwrap"]
        );
        assert_eq!(
            rules_of("crates/sparse/src/ell.rs", bad),
            vec!["hot-unwrap"]
        );
        assert!(rules_of("crates/bench/src/studies/tune.rs", bad).is_empty());
    }

    #[test]
    fn suppressions_need_justification() {
        let justified =
            "// gaia-analyze: allow(timing): benchmarks measure wall time\nlet t = Instant::now();";
        let f = check_file("crates/x/src/a.rs", &lex(justified));
        assert!(f.diagnostics.is_empty());
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].rule, "timing");

        // A bare allow does not suppress: both the complaint about the
        // missing justification and the original diagnostic fire.
        let bare = "// gaia-analyze: allow(timing)\nlet t = Instant::now();";
        assert_eq!(
            rules_of("crates/x/src/a.rs", bare),
            vec!["suppression", "timing"]
        );

        let wrong_rule =
            "// gaia-analyze: allow(safety-comment): mismatch\nlet t = Instant::now();";
        assert_eq!(rules_of("crates/x/src/a.rs", wrong_rule), vec!["timing"]);
    }

    #[test]
    fn unknown_rule_suppression_is_flagged() {
        let src = "// gaia-analyze: allow(no-such-rule): whatever\nfn f() {}";
        assert_eq!(rules_of("crates/x/src/a.rs", src), vec!["suppression"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"let s = "unsafe Instant::now thread::spawn Ordering::SeqCst";"#;
        assert!(rules_of("crates/backends/src/launch.rs", src).is_empty());
        let doc = "/// This fn is unsafe to misuse; see Instant::now docs.\nfn f() {}";
        assert!(rules_of("crates/x/src/a.rs", doc).is_empty());
    }
}
