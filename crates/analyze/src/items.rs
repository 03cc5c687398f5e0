//! Item-level parser on top of [`crate::lexer`]: function, struct, and
//! `impl` extraction with just enough resolution for cross-file rules —
//! no rustc, no syn.
//!
//! The parser works on the lexed `code` text (strings and comments
//! already blanked), tracking brace depth character by character. It is
//! deliberately approximate where precision needs a real type system:
//!
//! * `macro_rules!` bodies are skipped wholesale (their token trees are
//!   not item grammar);
//! * `r#ident` raw identifiers are recognized and recorded unprefixed;
//! * generics are skipped by angle-bracket nesting, so a signature like
//!   `fn f<T: Into<Vec<u8>>>(m: Map<K, Vec<(A, B)>>) -> impl Iterator` is
//!   attributed to the right body block;
//! * `impl` in type position (`-> impl Iterator`) is distinguished from
//!   item position by the preceding token;
//! * call sites record the last path segment only — the symbol index
//!   ([`crate::index`]) decides what resolves.

use std::ops::Range;

use crate::lexer::FileView;

/// Classification of a synchronization-relevant field type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SyncKind {
    /// `AtomicBool`, `AtomicUsize`, `AtomicU64`, … (anything `Atomic*`).
    Atomic,
    /// `Mutex<T>` (std or parking_lot).
    Mutex,
    /// `RwLock<T>`.
    RwLock,
    /// `Condvar`.
    Condvar,
}

/// One synchronization-typed named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// The declared type text, trimmed.
    pub ty: String,
    /// Which sync primitive the type is.
    pub kind: SyncKind,
    /// 1-based declaration line.
    pub line: usize,
}

/// One struct with at least its sync-typed fields extracted.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name (raw `r#` prefix stripped).
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields typed `Atomic*`/`Mutex`/`RwLock`/`Condvar`.
    pub sync_fields: Vec<FieldItem>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: the last path segment (`Self::work(` → `work`).
    pub callee: String,
    /// Whether the receiver is exactly `self` (`self.m(...)`) or the
    /// path starts with `Self`.
    pub on_self: bool,
    /// 1-based line of the call.
    pub line: usize,
    /// 0-based column of the callee identifier on that line.
    pub col: usize,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (raw `r#` prefix stripped).
    pub name: String,
    /// Enclosing `impl` type, when the fn is a method / assoc fn.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based half-open line range of the body including its braces;
    /// empty (`line..line`) for bodyless trait declarations.
    pub body: Range<usize>,
    /// Test code: inside `#[cfg(test)]` or carrying a `#[test]`-like
    /// attribute.
    pub is_test: bool,
    /// Approximate call sites in the body.
    pub calls: Vec<CallSite>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// All structs with named fields, in source order.
    pub structs: Vec<StructItem>,
}

/// A flat character stream over the lexed code with line provenance.
struct Flat {
    /// `(0-based line, char)`; lines separated by `'\n'` entries.
    chars: Vec<(usize, char)>,
    /// Index of the first char of each 0-based line.
    line_start: Vec<usize>,
}

fn flatten(view: &FileView) -> Flat {
    let mut chars = Vec::new();
    let mut line_start = Vec::new();
    for (ln, l) in view.lines.iter().enumerate() {
        line_start.push(chars.len());
        for c in l.code.chars() {
            chars.push((ln, c));
        }
        chars.push((ln, '\n'));
    }
    Flat { chars, line_start }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Flat {
    fn ch(&self, i: usize) -> char {
        self.chars.get(i).map(|&(_, c)| c).unwrap_or('\n')
    }

    fn line_of(&self, i: usize) -> usize {
        self.chars.get(i).map(|&(l, _)| l).unwrap_or(0)
    }

    /// Is the identifier starting at `i` a whole word (not a suffix)?
    fn word_starts_at(&self, i: usize) -> bool {
        i == 0 || !is_ident(self.ch(i - 1))
    }

    /// Read the identifier starting at `i`; returns (ident, end).
    fn ident_at(&self, i: usize) -> (String, usize) {
        let mut j = i;
        let mut s = String::new();
        while j < self.chars.len() && is_ident(self.ch(j)) {
            s.push(self.ch(j));
            j += 1;
        }
        (s, j)
    }

    fn skip_ws(&self, mut i: usize) -> usize {
        while i < self.chars.len() && self.ch(i).is_whitespace() {
            i += 1;
        }
        i
    }

    /// Skip a balanced `<...>` group starting at `i` (which must be `<`).
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < self.chars.len() {
            match self.ch(j) {
                '<' => depth += 1,
                // `->` arrows inside generics never appear at depth
                // bookkeeping level: `-` precedes the `>`.
                '>' if self.ch(j.wrapping_sub(1)) != '-' => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                '{' | ';' => return j, // malformed; bail at the block
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// From `i` (which must be `{`), return the index just past the
    /// matching close brace.
    fn skip_block(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < self.chars.len() {
            match self.ch(j) {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// The previous non-whitespace char before `i`, if any.
    fn prev_non_ws(&self, i: usize) -> Option<(usize, char)> {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let c = self.ch(j);
            if !c.is_whitespace() {
                return Some((j, c));
            }
        }
        None
    }
}

/// Is `impl`/`struct` at `i` in *item* position? True when the previous
/// token is a block/item boundary (`{`, `}`, `;`, `]` closing an
/// attribute, start of file) or the `unsafe`/`pub` qualifier.
fn item_position(flat: &Flat, i: usize) -> bool {
    match flat.prev_non_ws(i) {
        None => true,
        Some((j, c)) => match c {
            '{' | '}' | ';' | ']' => true,
            _ if is_ident(c) => {
                // Walk back over the word.
                let mut k = j;
                while k > 0 && is_ident(flat.ch(k - 1)) {
                    k -= 1;
                }
                let (w, _) = flat.ident_at(k);
                matches!(w.as_str(), "unsafe" | "pub" | "default")
            }
            _ => false,
        },
    }
}

/// Extract the implemented type name from an `impl` header starting just
/// past the `impl` keyword; returns (last path segment of the type, index
/// of the opening `{`).
fn parse_impl_header(flat: &Flat, mut i: usize) -> Option<(String, usize)> {
    i = flat.skip_ws(i);
    if flat.ch(i) == '<' {
        i = flat.skip_angles(i);
    }
    // Scan forward to the `{`, remembering the last identifier seen
    // after a `for` (trait impls) or overall (inherent impls).
    let mut last_seg = String::new();
    let mut after_for = false;
    let mut for_seg = String::new();
    while i < flat.chars.len() {
        let c = flat.ch(i);
        if c == '{' {
            let seg = if after_for { &for_seg } else { &last_seg };
            if seg.is_empty() {
                return None;
            }
            return Some((seg.clone(), i));
        }
        if c == ';' {
            return None; // `impl Trait for Type;` has no block (unstable)
        }
        if c == '<' {
            i = flat.skip_angles(i);
            continue;
        }
        if is_ident(c) && flat.word_starts_at(i) {
            let (w, end) = flat.ident_at(i);
            match w.as_str() {
                "for" => after_for = true,
                "where" => {
                    // The type is settled; keep scanning for `{` only.
                    i = end;
                    continue;
                }
                "dyn" | "mut" | "r" => {}
                _ => {
                    if after_for {
                        for_seg = w;
                    } else {
                        last_seg = w;
                    }
                }
            }
            i = end;
            continue;
        }
        i += 1;
    }
    None
}

/// Strip a leading `r#` from a raw identifier.
fn strip_raw(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "as", "in", "move", "unsafe", "let",
    "else", "impl", "pub", "use", "where", "mut", "ref", "break", "continue", "type", "struct",
    "enum", "trait", "mod", "const", "static", "crate", "super", "dyn", "box", "await", "yield",
    "drop",
];

fn classify_sync_type(ty: &str) -> Option<SyncKind> {
    // Word-boundary scan so `MutexGuard` does not classify as `Mutex`
    // and a doc-string `Atomicity` does not classify as atomic.
    let chars: Vec<char> = ty.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if is_ident(chars[i]) && (i == 0 || !is_ident(chars[i - 1])) {
            let mut j = i;
            while j < chars.len() && is_ident(chars[j]) {
                j += 1;
            }
            let word: String = chars[i..j].iter().collect();
            if word == "Mutex" {
                return Some(SyncKind::Mutex);
            }
            if word == "RwLock" {
                return Some(SyncKind::RwLock);
            }
            if word == "Condvar" {
                return Some(SyncKind::Condvar);
            }
            if word.starts_with("Atomic") && word.len() > "Atomic".len() {
                return Some(SyncKind::Atomic);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    None
}

/// Parse the named-field list of a struct block `{ ... }` starting at the
/// opening brace.
fn parse_fields(flat: &Flat, open: usize, out: &mut Vec<FieldItem>) {
    // Scan only up to the closing brace itself, so the last field's type
    // text never swallows the `}`.
    let end = flat.skip_block(open).saturating_sub(1);
    let mut i = open + 1;
    while i < end {
        i = flat.skip_ws(i);
        if i >= end || flat.ch(i) == '}' {
            break;
        }
        // Skip attributes on the field.
        while flat.ch(i) == '#' {
            let mut j = i + 1;
            if flat.ch(j) == '[' {
                let mut depth = 0i32;
                while j < end {
                    match flat.ch(j) {
                        '[' => depth += 1,
                        ']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            i = flat.skip_ws(j);
        }
        // Optional visibility.
        if flat.word_starts_at(i) {
            let (w, wend) = flat.ident_at(i);
            if w == "pub" {
                i = flat.skip_ws(wend);
                if flat.ch(i) == '(' {
                    while i < end && flat.ch(i) != ')' {
                        i += 1;
                    }
                    i = flat.skip_ws(i + 1);
                }
            }
        }
        // Field name.
        let (name, nend) = flat.ident_at(i);
        let name_line = flat.line_of(i);
        let mut j = flat.skip_ws(nend);
        if name.is_empty() || flat.ch(j) != ':' {
            // Not a named field (or parse drift); resync to the next
            // top-level comma.
            i = next_top_level_comma(flat, i, end);
            continue;
        }
        j += 1;
        // Type runs to the next top-level comma or the close brace.
        let ty_end = next_top_level_comma(flat, j, end);
        let ty_stop = if ty_end < end { ty_end - 1 } else { ty_end };
        let ty: String = (j..ty_stop.max(j))
            .map(|k| flat.ch(k))
            .collect::<String>()
            .trim()
            .to_owned();
        if let Some(kind) = classify_sync_type(&ty) {
            out.push(FieldItem {
                name: strip_raw(&name).to_owned(),
                ty,
                kind,
                line: name_line + 1,
            });
        }
        i = ty_end;
    }
}

/// Index just past the next comma at brace/paren/angle depth 0 within
/// `[from, end)`, or `end` if none.
fn next_top_level_comma(flat: &Flat, from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < end {
        match flat.ch(i) {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '<' => depth += 1,
            '>' if flat.ch(i.wrapping_sub(1)) != '-' => depth -= 1,
            ',' if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    end
}

/// Does the contiguous attribute block above 0-based line `ln` carry a
/// `#[test]`-like attribute?
fn has_test_attr(view: &FileView, ln: usize) -> bool {
    let mut i = ln;
    while i > 0 {
        i -= 1;
        let code = view.lines[i].code.trim();
        if code.is_empty() {
            continue;
        }
        if !code.starts_with("#[") {
            return false;
        }
        if code.contains("#[test]") || code.contains("::test]") || code.contains("#[bench]") {
            return true;
        }
    }
    false
}

/// Extract approximate call sites from the char span `[from, to)`.
fn collect_calls(flat: &Flat, from: usize, to: usize, out: &mut Vec<CallSite>) {
    let mut i = from;
    while i < to {
        let c = flat.ch(i);
        if !(is_ident(c) && flat.word_starts_at(i)) {
            i += 1;
            continue;
        }
        let (word, end) = flat.ident_at(i);
        let after = flat.skip_ws(end);
        let is_call = flat.ch(after) == '(' && flat.ch(end) != '!';
        if !is_call
            || KEYWORDS.contains(&word.as_str())
            || word.chars().next().is_some_and(|c| c.is_uppercase())
        {
            i = end;
            continue;
        }
        // Walk the path/receiver backwards: `a::b::word(` or `recv.word(`.
        let mut on_self = false;
        if i >= 1 {
            let prev = flat.ch(i - 1);
            if prev == '.' {
                // Method call: receiver is `self` iff the chars before the
                // dot are exactly the word `self` at a word boundary.
                let mut k = i - 1;
                while k > 0 && is_ident(flat.ch(k - 1)) {
                    k -= 1;
                }
                let (recv, _) = flat.ident_at(k);
                on_self = recv == "self" && (k == 0 || flat.ch(k - 1) != '.');
            } else if prev == ':' && i >= 2 && flat.ch(i - 2) == ':' {
                let mut k = i - 2;
                while k > 0 && is_ident(flat.ch(k - 1)) {
                    k -= 1;
                }
                let (seg, _) = flat.ident_at(k);
                on_self = seg == "Self";
            }
        }
        let line0 = flat.line_of(i);
        out.push(CallSite {
            callee: strip_raw(&word).to_owned(),
            on_self,
            line: line0 + 1,
            col: i - flat.line_start[line0],
        });
        i = end;
    }
}

/// Parse one lexed file into its items.
pub fn parse_items(view: &FileView) -> ParsedFile {
    let flat = flatten(view);
    let n = flat.chars.len();
    let mut out = ParsedFile::default();

    // Pass 0: spans to skip (macro_rules! bodies — token trees, not items).
    let mut skip: Vec<Range<usize>> = Vec::new();
    let mut i = 0;
    while i < n {
        if is_ident(flat.ch(i)) && flat.word_starts_at(i) {
            let (w, end) = flat.ident_at(i);
            if w == "macro_rules" {
                let mut j = flat.skip_ws(end);
                if flat.ch(j) == '!' {
                    j = flat.skip_ws(j + 1);
                    let (_, nend) = flat.ident_at(j);
                    j = flat.skip_ws(nend);
                    if flat.ch(j) == '{' {
                        let close = flat.skip_block(j);
                        skip.push(i..close);
                        i = close;
                        continue;
                    }
                }
            }
            i = end;
            continue;
        }
        i += 1;
    }
    let skipped = |i: usize| skip.iter().any(|r| r.contains(&i));

    // Pass 1: impl regions.
    let mut impls: Vec<(Range<usize>, String)> = Vec::new();
    let mut i = 0;
    while i < n {
        if is_ident(flat.ch(i)) && flat.word_starts_at(i) && !skipped(i) {
            let (w, end) = flat.ident_at(i);
            if w == "impl" && item_position(&flat, i) {
                if let Some((ty, open)) = parse_impl_header(&flat, end) {
                    let close = flat.skip_block(open);
                    impls.push((open..close, ty));
                    i = open + 1; // descend: fns live inside
                    continue;
                }
            }
            i = end;
            continue;
        }
        i += 1;
    }

    // Pass 2: structs and fns.
    let mut i = 0;
    while i < n {
        if !(is_ident(flat.ch(i)) && flat.word_starts_at(i)) || skipped(i) {
            i += 1;
            continue;
        }
        let (w, end) = flat.ident_at(i);
        if w == "struct" && item_position(&flat, i) {
            let j = flat.skip_ws(end);
            let (name, nend) = flat.ident_at(if flat.ch(j) == 'r' && flat.ch(j + 1) == '#' {
                j + 2
            } else {
                j
            });
            if !name.is_empty() {
                let mut k = flat.skip_ws(nend);
                if flat.ch(k) == '<' {
                    k = flat.skip_angles(k);
                }
                // Scan to `{` (named fields), `(` (tuple), or `;` (unit);
                // `where` clauses pass through.
                let mut fields = Vec::new();
                let mut m = k;
                while m < n {
                    match flat.ch(m) {
                        '{' => {
                            parse_fields(&flat, m, &mut fields);
                            m = flat.skip_block(m);
                            break;
                        }
                        '(' | ';' => break,
                        '<' => m = flat.skip_angles(m),
                        _ => m += 1,
                    }
                }
                out.structs.push(StructItem {
                    name: name.clone(),
                    line: flat.line_of(i) + 1,
                    sync_fields: fields,
                });
                i = m.max(nend);
                continue;
            }
        }
        if w == "fn" {
            let j = flat.skip_ws(end);
            // `fn(` is a fn-pointer type, not a definition.
            let name_start = if flat.ch(j) == 'r' && flat.ch(j + 1) == '#' {
                j + 2
            } else {
                j
            };
            let (name, nend) = flat.ident_at(name_start);
            if name.is_empty() {
                i = end;
                continue;
            }
            // Find the body `{` (or `;`) outside parens.
            let mut k = flat.skip_ws(nend);
            if flat.ch(k) == '<' {
                k = flat.skip_angles(k);
            }
            let mut paren = 0i32;
            let mut body: Range<usize> = 0..0;
            let mut body_lines: Range<usize> = 0..0;
            while k < n {
                match flat.ch(k) {
                    '(' | '[' => paren += 1,
                    ')' | ']' => paren -= 1,
                    '<' if paren == 0 => {
                        k = flat.skip_angles(k);
                        continue;
                    }
                    '{' if paren == 0 => {
                        let close = flat.skip_block(k);
                        body = k..close;
                        body_lines =
                            (flat.line_of(k) + 1)..(flat.line_of(close.saturating_sub(1)) + 2);
                        break;
                    }
                    ';' if paren == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let line0 = flat.line_of(i);
            let impl_type = impls
                .iter()
                .filter(|(r, _)| r.contains(&i))
                .min_by_key(|(r, _)| r.end - r.start)
                .map(|(_, ty)| ty.clone());
            let is_test = view.lines[line0].in_test || has_test_attr(view, line0);
            let mut calls = Vec::new();
            if !body.is_empty() {
                collect_calls(&flat, body.start, body.end, &mut calls);
            }
            out.fns.push(FnItem {
                name: strip_raw(&name).to_owned(),
                impl_type,
                line: line0 + 1,
                body: body_lines,
                is_test,
                calls,
            });
            // Continue scanning from just after the signature so nested
            // fns (and the body's call sites) are still visited.
            i = nend;
            continue;
        }
        i = end;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&lex(src))
    }

    #[test]
    fn fns_and_impl_attribution() {
        let src = "\
pub struct Pool { queue: Mutex<Vec<u32>>, ready: Condvar }
impl Pool {
    pub fn push(&self, v: u32) {
        self.enqueue(v);
    }
    fn enqueue(&self, _v: u32) {}
}
fn free_helper() { work(); }
";
        let p = parse(src);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "Pool");
        let kinds: Vec<_> = p.structs[0]
            .sync_fields
            .iter()
            .map(|f| (f.name.as_str(), f.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![("queue", SyncKind::Mutex), ("ready", SyncKind::Condvar)]
        );
        let names: Vec<_> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("push", Some("Pool")),
                ("enqueue", Some("Pool")),
                ("free_helper", None)
            ]
        );
        let push = &p.fns[0];
        assert!(push
            .calls
            .iter()
            .any(|c| c.callee == "enqueue" && c.on_self));
        assert!(p.fns[2]
            .calls
            .iter()
            .any(|c| c.callee == "work" && !c.on_self));
    }

    #[test]
    fn trait_impls_attribute_to_the_self_type() {
        let src = "\
struct Latch { lock: Mutex<()> }
impl std::fmt::Display for Latch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, \"latch\")
    }
}
";
        let p = parse(src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Latch"));
        assert_eq!(p.structs[0].sync_fields[0].kind, SyncKind::Mutex);
    }

    #[test]
    fn impl_trait_in_return_position_is_not_an_impl_block() {
        let src = "\
fn numbers() -> impl Iterator<Item = u32> {
    (0..4).map(double)
}
fn double(x: u32) -> u32 { x * 2 }
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].impl_type, None);
        assert_eq!(p.fns[1].name, "double");
    }

    #[test]
    fn nested_generics_in_signatures_find_the_right_body() {
        let src = "\
fn shuffle<T: Into<Vec<u8>>>(m: std::collections::BTreeMap<String, Vec<(u32, u32)>>) -> Vec<u8>
where
    T: Clone,
{
    helper()
}
fn helper() -> Vec<u8> { Vec::new() }
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "shuffle");
        assert_eq!(p.fns[0].body, 4..7, "body spans the brace lines");
        assert!(p.fns[0].calls.iter().any(|c| c.callee == "helper"));
    }

    #[test]
    fn raw_identifiers_are_recorded_unprefixed() {
        let src = "fn r#loop(r#in: u32) -> u32 { r#in }\nstruct r#Match { guard: Mutex<()> }";
        let p = parse(src);
        assert_eq!(p.fns[0].name, "loop");
        assert_eq!(p.structs[0].name, "Match");
    }

    #[test]
    fn macro_bodies_are_skipped() {
        let src = "\
macro_rules! gen {
    ($n:ident) => {
        fn $n() { phantom(); }
        struct Ghost { m: Mutex<()> }
    };
}
fn real() {}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
        assert!(p.structs.is_empty());
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper_in_test_mod() {}
}
#[test]
fn standalone_test() {}
";
        let p = parse(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test, "cfg(test) mod fn");
        assert!(p.fns[2].is_test, "#[test] attr fn");
    }

    #[test]
    fn fn_pointer_types_and_guards_are_not_defs() {
        let src = "fn takes(f: fn(usize) -> usize) -> usize { f(3) }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "takes");
    }

    #[test]
    fn tuple_and_unit_structs_parse_without_fields() {
        let src = "struct Wrap(Mutex<u32>);\nstruct Marker;\nstruct Named { a: u32 }";
        let p = parse(src);
        let names: Vec<_> = p.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Wrap", "Marker", "Named"]);
        assert!(p.structs.iter().all(|s| s.sync_fields.is_empty()));
    }

    #[test]
    fn sync_kind_classification_is_word_bounded() {
        assert_eq!(classify_sync_type("Mutex<Vec<f64>>"), Some(SyncKind::Mutex));
        assert_eq!(
            classify_sync_type("parking_lot::Mutex<u32>"),
            Some(SyncKind::Mutex)
        );
        assert_eq!(
            classify_sync_type("Arc<RwLock<u32>>"),
            Some(SyncKind::RwLock)
        );
        assert_eq!(classify_sync_type("AtomicU64"), Some(SyncKind::Atomic));
        assert_eq!(classify_sync_type("MutexGuard<'a, u32>"), None);
        assert_eq!(classify_sync_type("Vec<f64>"), None);
    }

    #[test]
    fn calls_skip_macros_keywords_and_constructors() {
        let src = "\
fn f() {
    vec![1, 2];
    format!(\"x\");
    if cond() { Other::new(); }
    let _ = Some(3);
    g();
}
fn g() {}
fn cond() -> bool { true }
";
        let p = parse(src);
        let calls: Vec<_> = p.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(calls.contains(&"cond"));
        assert!(calls.contains(&"g"));
        assert!(
            calls.contains(&"new"),
            "assoc fn via Type::new resolves by segment"
        );
        assert!(!calls.contains(&"vec"));
        assert!(!calls.contains(&"format"));
        assert!(!calls.contains(&"Some"));
        assert!(!calls.contains(&"if"));
    }
}
