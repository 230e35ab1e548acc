//! Item-level parsing: function definitions and call sites.
//!
//! One linear pass over the token stream (comments and whitespace skipped,
//! spans kept) recovers just enough structure for the dataflow passes:
//!
//! * module and `impl` nesting, so every `fn` gets a qualified path like
//!   `binpack::fast::MaxSegTree::update`,
//! * `#[cfg(test)]` / `#[test]` gating, matched against the same list of
//!   gates as the line view (`tokens::is_test_gate`), so test-only
//!   functions stay out of the call graph,
//! * visibility: only a bare `pub` marks a public API; `pub(crate)` and
//!   friends are internal,
//! * call sites inside function bodies — plain calls, qualified path calls
//!   (with turbofish), and method calls — attributed to the innermost
//!   enclosing function.
//!
//! The parser is forgiving by construction: anything it cannot shape is
//! skipped, never an error. Precision lives in the differential tests, not
//! in grammar completeness — this is an analysis substrate, not a compiler
//! front end.

use crate::tokens::{is_test_gate, tokenize, Token, TokenKind};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written, e.g. `["binpack", "fast", "pack_ffd"]` or
    /// `["helper"]`; method calls carry the bare method name.
    pub segs: Vec<String>,
    /// 1-based line of the called name.
    pub line: usize,
    /// True for `.name(…)` method-call syntax.
    pub is_method: bool,
}

/// One `fn` definition recovered from a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Qualified path: crate dir (underscored) + modules/impl types + name.
    pub qual: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Crate directory this file belongs to (`binpack`, `core`, …).
    pub crate_dir: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing `}` (equals `line` for bodyless
    /// declarations), so evidence scans can stay inside the function.
    pub end_line: usize,
    /// Bare `pub` visibility (restricted `pub(…)` does not count).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region or `#[test]` function.
    pub in_test: bool,
    /// Calls made from this function's body.
    pub calls: Vec<CallSite>,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Function definitions, in source order.
    pub defs: Vec<FnDef>,
}

/// Keywords that can never start a call path.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "true", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// A meaningful token: index into the raw stream plus its text.
struct Tok<'a> {
    text: &'a str,
    line: usize,
    start: usize,
    end: usize,
    kind: TokenKind,
}

/// Drop whitespace and comments, keeping byte spans for adjacency checks
/// (`::` is two adjacent `:` puncts).
fn meaningful<'a>(src: &'a str, tokens: &[Token]) -> Vec<Tok<'a>> {
    tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|t| Tok {
            text: t.text(src),
            line: t.line,
            start: t.start,
            end: t.end,
            kind: t.kind,
        })
        .collect()
}

/// Are tokens `i` and `i + 1` the adjacent two-byte operator `op`?
fn is_joint(toks: &[Tok], i: usize, op: &str) -> bool {
    let bytes = op.as_bytes();
    match (toks.get(i), toks.get(i + 1)) {
        (Some(a), Some(b)) => {
            a.kind == TokenKind::Punct
                && b.kind == TokenKind::Punct
                && a.end == b.start
                && a.text.as_bytes() == &bytes[..1]
                && b.text.as_bytes() == &bytes[1..]
        }
        _ => false,
    }
}

/// Skip a balanced `<…>` generic group starting at the `<` in `toks[i]`;
/// returns the index just past the matching `>`. `->` arrows inside are
/// ignored. Gives up (returns the start) after an unbalanced scan.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text {
            "<" => depth += 1,
            ">" => {
                // `->` is an arrow, not a closer.
                let arrow = j > 0 && toks[j - 1].text == "-" && toks[j - 1].end == toks[j].start;
                if !arrow {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            // A body brace or semicolon inside an unclosed scan means the
            // angles were comparisons, not generics; bail.
            "{" | ";" => return i,
            _ => {}
        }
        j += 1;
    }
    i
}

/// Parse one classified library file into its function index.
pub fn parse_file(rel: &str, crate_dir: &str, source: &str) -> FileIndex {
    let raw = tokenize(source);
    let toks = meaningful(source, &raw);
    let crate_seg = crate_dir.replace('-', "_");

    // Nesting state.
    let mut depth: usize = 0;
    // Paren/bracket nesting, so a `;` inside `[u8; 4]` or a signature
    // never ends an item early.
    let mut groups: usize = 0;
    // (name, depth at which the block opened) for `mod` and `impl` scopes.
    let mut scope_stack: Vec<(String, usize)> = Vec::new();
    // Depths at which `#[cfg(test)]`-gated blocks opened.
    let mut test_stack: Vec<usize> = Vec::new();
    // Pending attribute/header state, each tagged with the group depth it
    // was recorded at; a `;` at that same group depth spends it.
    let mut pending_test_attr: Option<usize> = None;
    // A scope name waiting for its opening `{`.
    let mut pending_scope: Option<(String, usize)> = None;
    // A parsed fn header waiting for its body `{` (or a `;` ending a
    // bodyless trait/extern declaration). Holds an index into `defs`.
    let mut pending_fn: Option<(usize, usize)> = None;
    // Open function bodies: (def index, depth at which the body opened).
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();

    let mut defs: Vec<FnDef> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text {
            "#" if toks.get(i + 1).map(|n| n.text) == Some("[") => {
                // Attribute: squash through the matching `]` and look for
                // test gates.
                let mut j = i + 2;
                let mut brackets = 1usize;
                let mut squashed = String::new();
                while j < toks.len() && brackets > 0 {
                    match toks[j].text {
                        "[" => brackets += 1,
                        "]" => brackets -= 1,
                        _ => {}
                    }
                    squashed.push_str(toks[j].text);
                    j += 1;
                }
                if is_test_gate(&squashed) {
                    pending_test_attr = Some(groups);
                }
                i = j;
                continue;
            }
            "mod" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    pending_scope = Some((name.text.to_string(), groups));
                    i += 2;
                    continue;
                }
            }
            "impl" => {
                // Find the implemented type: the first path ident after
                // `for` if present, else after `impl` (skipping generics).
                let mut j = i + 1;
                if toks.get(j).map(|n| n.text) == Some("<") {
                    j = skip_angles(&toks, j).max(j + 1);
                }
                let mut name: Option<String> = None;
                let mut after_for = false;
                while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                    if toks[j].text == "for" {
                        after_for = true;
                        name = None;
                    } else if toks[j].kind == TokenKind::Ident
                        && name.is_none()
                        && !KEYWORDS.contains(&toks[j].text)
                    {
                        name = Some(toks[j].text.to_string());
                        if after_for {
                            break;
                        }
                    } else if toks[j].text == "<" {
                        j = skip_angles(&toks, j).max(j + 1);
                        continue;
                    }
                    j += 1;
                }
                pending_scope = name.map(|n| (n, groups));
            }
            "fn" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    let is_pub = fn_is_pub(&toks, i);
                    let mut qual = crate_seg.clone();
                    for (seg, _) in &scope_stack {
                        qual.push_str("::");
                        qual.push_str(seg);
                    }
                    qual.push_str("::");
                    qual.push_str(name.text);
                    let in_test = pending_test_attr.is_some()
                        || !test_stack.is_empty()
                        || fn_stack
                            .last()
                            .map(|&(d, _)| defs[d].in_test)
                            .unwrap_or(false);
                    defs.push(FnDef {
                        name: name.text.to_string(),
                        qual,
                        file: rel.to_string(),
                        crate_dir: crate_dir.to_string(),
                        line: t.line,
                        end_line: t.line,
                        is_pub,
                        in_test,
                        calls: Vec::new(),
                    });
                    pending_fn = Some((defs.len() - 1, groups));
                    i += 2;
                    continue;
                }
            }
            "(" | "[" => groups += 1,
            ")" | "]" => groups = groups.saturating_sub(1),
            "{" => {
                depth += 1;
                if let Some((d, _)) = pending_fn.take() {
                    fn_stack.push((d, depth));
                    if pending_test_attr.take().is_some() {
                        test_stack.push(depth);
                    }
                } else if let Some((name, _)) = pending_scope.take() {
                    scope_stack.push((name, depth));
                    if pending_test_attr.take().is_some() {
                        test_stack.push(depth);
                    }
                } else if pending_test_attr.take().is_some() {
                    test_stack.push(depth);
                }
            }
            "}" => {
                if scope_stack.last().map(|&(_, d)| d) == Some(depth) {
                    scope_stack.pop();
                }
                if fn_stack.last().map(|&(_, d)| d) == Some(depth) {
                    if let Some((d, _)) = fn_stack.pop() {
                        defs[d].end_line = t.line;
                    }
                }
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            ";" => {
                // A `;` at the group depth a header/attribute was recorded
                // at ends a bodyless declaration (trait method signature,
                // `mod x;`, a gated `use …;`) and spends the pending state.
                // Semicolons nested in `[u8; 4]` or call arguments do not.
                if pending_fn.map(|(_, g)| g) == Some(groups) {
                    pending_fn = None;
                }
                if pending_scope.as_ref().map(|&(_, g)| g) == Some(groups) {
                    pending_scope = None;
                }
                if pending_test_attr == Some(groups) {
                    pending_test_attr = None;
                }
            }
            _ => {}
        }

        // Call-site recognition, only inside some function body.
        if let Some(&(fn_idx, _)) = fn_stack.last() {
            if let Some((site, next)) = match_call(&toks, i) {
                defs[fn_idx].calls.push(site);
                i = next;
                continue;
            }
        }
        i += 1;
    }

    FileIndex { defs }
}

/// Was the `fn` at token index `i` declared with a bare `pub`?
fn fn_is_pub(toks: &[Tok], i: usize) -> bool {
    // Walk back over header modifiers until something that cannot belong
    // to this item's header.
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].text {
            "const" | "async" | "unsafe" | "extern" | "default" => continue,
            _ if toks[j].kind == TokenKind::Str => continue, // extern "C"
            "pub" => return true,
            ")" => {
                // `pub(crate)` / `pub(super)` / `pub(in …)`: restricted
                // visibility is not a public API. Skip to the matching `(`
                // and stop either way.
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// Try to match a call at token index `i`. Returns the call site and the
/// index to resume from.
fn match_call(toks: &[Tok], i: usize) -> Option<(CallSite, usize)> {
    let t = toks.get(i)?;

    // Method call: `.name(` or `.name::<T>(`.
    if t.text == "." {
        let name = toks.get(i + 1)?;
        if name.kind != TokenKind::Ident || name.text == "await" || KEYWORDS.contains(&name.text) {
            return None;
        }
        let mut j = i + 2;
        if is_joint(toks, j, "::") && toks.get(j + 2).map(|n| n.text) == Some("<") {
            j = skip_angles(toks, j + 2);
        }
        if toks.get(j).map(|n| n.text) == Some("(") {
            return Some((
                CallSite {
                    segs: vec![name.text.to_string()],
                    line: name.line,
                    is_method: true,
                },
                j,
            ));
        }
        return None;
    }

    // Plain or qualified path call: `name(`, `a::b::name(`, with optional
    // turbofish before the parens. Skip keywords, macro names (`name!`)
    // and definition headers (`fn name` was consumed by the caller).
    if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text) {
        return None;
    }
    // Not the start of a path if the previous token continues one (`a::b`
    // handled from `a`) or is a field/method dot.
    if i > 0 {
        let prev = &toks[i - 1];
        if prev.text == "." || (prev.text == ":" && i > 1 && toks[i - 2].text == ":") {
            return None;
        }
    }
    let mut segs = vec![t.text.to_string()];
    let mut j = i + 1;
    loop {
        if is_joint(toks, j, "::") {
            match toks.get(j + 2) {
                Some(n) if n.kind == TokenKind::Ident && !KEYWORDS.contains(&n.text) => {
                    segs.push(n.text.to_string());
                    j += 3;
                    continue;
                }
                Some(n) if n.text == "<" => {
                    // Turbofish: `path::<T>(…)`.
                    j = skip_angles(toks, j + 2);
                    break;
                }
                _ => return None,
            }
        }
        break;
    }
    match toks.get(j).map(|n| n.text) {
        Some("(") => Some((
            CallSite {
                segs,
                line: t.line,
                is_method: false,
            },
            j,
        )),
        // `name!…` is a macro invocation, not a call; its argument tokens
        // are still scanned on later iterations.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileIndex {
        parse_file("crates/binpack/src/x.rs", "binpack", src)
    }

    #[test]
    fn fn_defs_get_qualified_paths() {
        let idx = parse(
            "pub fn top() {}\nmod inner {\n    pub(crate) fn mid() {}\n    impl Widget {\n        pub fn method(&self) {}\n        fn private(&self) {}\n    }\n}\n",
        );
        let quals: Vec<(&str, bool)> = idx
            .defs
            .iter()
            .map(|d| (d.qual.as_str(), d.is_pub))
            .collect();
        assert_eq!(
            quals,
            vec![
                ("binpack::top", true),
                ("binpack::inner::mid", false),
                ("binpack::inner::Widget::method", true),
                ("binpack::inner::Widget::private", false),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_scopes_to_the_type() {
        let idx = parse("impl Display for Plan {\n    fn fmt(&self) -> u8 { 0 }\n}\n");
        assert_eq!(idx.defs[0].qual, "binpack::Plan::fmt");
    }

    #[test]
    fn calls_are_attributed_to_the_innermost_fn() {
        let idx = parse(
            "fn outer() {\n    helper(1);\n    fn nested() { deep::call(2); }\n    other();\n}\n",
        );
        let outer = &idx.defs[0];
        let nested = &idx.defs[1];
        assert_eq!(outer.name, "outer");
        let outer_calls: Vec<String> = outer.calls.iter().map(|c| c.segs.join("::")).collect();
        assert_eq!(outer_calls, vec!["helper", "other"]);
        let nested_calls: Vec<String> = nested.calls.iter().map(|c| c.segs.join("::")).collect();
        assert_eq!(nested_calls, vec!["deep::call"]);
    }

    #[test]
    fn method_calls_and_turbofish() {
        let idx = parse(
            "fn f(v: Vec<u64>) {\n    v.sort();\n    let s = v.iter().sum::<u64>();\n    parse::<u32>(\"1\");\n    let _ = s;\n}\n",
        );
        let calls: Vec<(String, bool)> = idx.defs[0]
            .calls
            .iter()
            .map(|c| (c.segs.join("::"), c.is_method))
            .collect();
        assert!(calls.contains(&("sort".to_string(), true)));
        assert!(calls.contains(&("iter".to_string(), true)));
        assert!(calls.contains(&("sum".to_string(), true)));
        assert!(calls.contains(&("parse".to_string(), false)));
    }

    #[test]
    fn paths_inside_macro_args_are_still_seen() {
        let idx = parse("fn f() { log!(\"at {}\", Instant::now()); }\n");
        let calls: Vec<String> = idx.defs[0]
            .calls
            .iter()
            .map(|c| c.segs.join("::"))
            .collect();
        assert!(calls.contains(&"Instant::now".to_string()));
        assert!(
            !calls.contains(&"log".to_string()),
            "macro name itself is not a call"
        );
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let idx = parse(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib(); }\n}\nfn lib2() {}\n",
        );
        assert!(!idx.defs[0].in_test);
        assert!(idx.defs[1].in_test, "fn inside cfg(test) mod");
        assert!(!idx.defs[2].in_test, "after the test mod closes");
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped_cleanly() {
        let idx = parse(
            "trait T {\n    fn sig(&self) -> u8;\n    fn with_default(&self) { helper(); }\n}\n",
        );
        // Both headers are recorded; only the defaulted one carries calls.
        assert_eq!(idx.defs.len(), 2);
        assert!(idx.defs[0].calls.is_empty());
        assert_eq!(idx.defs[1].calls.len(), 1);
    }

    #[test]
    fn strings_and_comments_never_produce_calls() {
        let idx = parse(
            "fn f() {\n    let s = \"Instant::now()\";\n    // Instant::now()\n    let r = r#\"HashMap::new()\"#;\n    let _ = (s, r);\n}\n",
        );
        assert!(idx.defs[0]
            .calls
            .iter()
            .all(|c| !c.segs.contains(&"now".to_string())));
    }
}
