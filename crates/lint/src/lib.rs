//! `reshape-lint`: project-specific static analysis for the corpus-reshape
//! workspace.
//!
//! The workspace has invariants ordinary compiler lints cannot see: packing
//! and planning must be deterministic and bit-reproducible, byte accounting
//! must never truncate, and library crates must surface failures as typed
//! errors rather than panics. This crate enforces them with a
//! dependency-free analysis pipeline:
//!
//! * [`tokens`] — the one lexer: a lossless tokenizer, and the per-line
//!   view built from it (literals and comments masked, `#[cfg(test)]`
//!   regions resolved) that the lexical rules and suppressions read,
//! * [`parse`] — an item-level parser recovering `fn` definitions and call
//!   sites from the tokens,
//! * [`callgraph`] / [`taint`] — cross-crate call resolution and
//!   nondeterminism taint propagation (rules RL007–RL009),
//! * [`rules`] — the registry with stable IDs (`RL001`..`RL010`),
//! * [`context`] — file classification (library vs test vs bench code),
//! * [`baseline`] — the committed ratchet: CI fails only on *new* findings,
//! * [`sarif`] — SARIF 2.1.0 export for GitHub code scanning,
//! * this module — the driver: suppression handling, the unused-suppression
//!   audit (RL010), reports, JSON output.
//!
//! Run it with `cargo run -p lint`; it exits non-zero when any unsuppressed
//! error-severity finding remains and writes `results/LINT.json`.
//!
//! Findings are suppressed inline with
//! `// lint:allow(RLnnn, reason why this one is fine)` on the offending
//! line or the line directly above it. The reason is mandatory — a
//! suppression without one does not suppress, and RL010 flags it.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod context;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod taint;
pub mod tokens;

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

pub use context::{classify, collect_rs_files, Category, FileContext};
pub use rules::{Rule, Severity, RULES};
use tokens::Line;

/// One lint finding, suppressed or not.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Rule ID, e.g. `RL001`.
    pub rule: String,
    /// `error` or `warning`.
    pub severity: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// True when an inline `lint:allow` covers this finding.
    pub suppressed: bool,
    /// The reason given in the suppression, when suppressed.
    pub suppress_reason: Option<String>,
    /// For dataflow findings (RL007): the sink→source call path, one
    /// `qual (file:line)` hop per entry, evidence last. Empty otherwise.
    pub trace: Vec<String>,
}

/// The outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, including suppressed ones, sorted by
    /// (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by a suppression.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Unsuppressed error-severity findings — what fails the gate.
    pub fn error_count(&self) -> usize {
        self.active().filter(|f| f.severity == "error").count()
    }

    /// Suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.suppressed).count()
    }

    /// Render the machine-readable report.
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct JsonReport {
            schema: String,
            files_scanned: usize,
            errors: usize,
            suppressed: usize,
            by_rule: BTreeMap<String, usize>,
            findings: Vec<Finding>,
        }
        let mut by_rule: BTreeMap<String, usize> = BTreeMap::new();
        for r in RULES {
            by_rule.insert(r.id.to_string(), 0);
        }
        for f in self.active() {
            if let Some(n) = by_rule.get_mut(f.rule.as_str()) {
                *n += 1;
            }
        }
        let report = JsonReport {
            schema: "reshape-lint/2".to_string(),
            files_scanned: self.files_scanned,
            errors: self.error_count(),
            suppressed: self.suppressed_count(),
            by_rule,
            findings: self.findings.clone(),
        };
        serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string())
    }
}

/// A parsed `lint:allow(ID[, reason])` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Allow {
    rule: String,
    /// `None` when the allow carries no reason — it then suppresses
    /// nothing and RL010 flags it.
    reason: Option<String>,
}

/// Parse the suppressions in one comment, including reasonless ones (which
/// never suppress but must be visible to the RL010 audit).
/// Is this a well-formed rule id (`RL` + three ASCII digits)? Anything
/// else in a `lint:allow(...)` is treated as prose — documentation often
/// writes placeholder ids like `RLnnn` or `ID` — and ignored entirely.
fn is_rule_id(id: &str) -> bool {
    id.len() == 5 && id.starts_with("RL") && id[2..].bytes().all(|b| b.is_ascii_digit())
}

fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let inner = &rest[pos + "lint:allow(".len()..];
        // The reason may itself contain parentheses; take up to the last
        // closing one so prose like "(the whole point)" survives.
        let Some(close) = inner.rfind(')') else {
            break;
        };
        let body = &inner[..close];
        match body.split_once(',') {
            Some((id, reason)) => {
                let id = id.trim();
                let reason = reason.trim();
                if is_rule_id(id) {
                    out.push(Allow {
                        rule: id.to_string(),
                        reason: (!reason.is_empty()).then(|| reason.to_string()),
                    });
                }
            }
            None => {
                let id = body.trim();
                if is_rule_id(id) {
                    out.push(Allow {
                        rule: id.to_string(),
                        reason: None,
                    });
                }
            }
        }
        rest = &inner[close..];
    }
    out
}

/// Reasoned allows covering line `number`: those written on the line itself
/// or on the line directly above.
fn allows_for_line(lines: &[Line], number: usize) -> Vec<Allow> {
    let mut allows = Vec::new();
    for n in [number.checked_sub(1), Some(number)].into_iter().flatten() {
        if n >= 1 {
            if let Some(line) = lines.get(n - 1) {
                allows.extend(
                    parse_allows(&line.comment)
                        .into_iter()
                        .filter(|a| a.reason.is_some()),
                );
            }
        }
    }
    allows
}

/// Lint one file's line view with the lexical rules.
fn lint_lines(ctx: &FileContext, lines: &[Line]) -> Vec<Finding> {
    let applicable: Vec<&Rule> = RULES.iter().filter(|r| r.applies_to(ctx)).collect();
    if applicable.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for line in lines {
        if line.in_test {
            continue;
        }
        let allows = allows_for_line(lines, line.number);
        for rule in &applicable {
            for message in (rule.check)(line) {
                let allow = allows.iter().find(|a| a.rule == rule.id);
                findings.push(Finding {
                    rule: rule.id.to_string(),
                    severity: rule.severity.label().to_string(),
                    file: ctx.rel.clone(),
                    line: line.number,
                    message,
                    snippet: line.raw.trim().to_string(),
                    suppressed: allow.is_some(),
                    suppress_reason: allow.and_then(|a| a.reason.clone()),
                    trace: Vec::new(),
                });
            }
        }
    }
    findings
}

/// Lint one file's source text under the given context (lexical rules
/// only — the dataflow rules need the whole workspace and run in
/// [`lint_tree`]).
pub fn lint_source(ctx: &FileContext, source: &str) -> Vec<Finding> {
    lint_lines(ctx, &tokens::line_view(source))
}

/// Lint every classified `.rs` file under `root`: lexical rules per line,
/// then the workspace-wide dataflow rules (RL007–RL009) over the call
/// graph, then the suppression audit (RL010).
pub fn lint_tree(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    // Per-file contexts and line views, kept for the taint pass, suppression
    // lookup, snippets and the audit.
    let mut contexts: BTreeMap<String, FileContext> = BTreeMap::new();
    let mut views: BTreeMap<String, Vec<Line>> = BTreeMap::new();
    let mut defs: Vec<parse::FnDef> = Vec::new();

    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = classify(&rel) else {
            continue;
        };
        // rustc rejects a source that is not UTF-8, so this is an error, and
        // it names the file, not just the root.
        let source = std::fs::read_to_string(&path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{rel}: {e}")))?;
        report.files_scanned += 1;
        let lines = tokens::line_view(&source);
        report.findings.extend(lint_lines(&ctx, &lines));
        if ctx.category == Category::Library {
            defs.extend(parse::parse_file(&rel, &ctx.crate_dir, &source).defs);
        }
        views.insert(rel.clone(), lines);
        contexts.insert(rel, ctx);
    }

    // Dataflow rules over the whole-workspace call graph.
    let graph = callgraph::build(defs);
    for tf in taint::run(&graph, &views, rules::DETERMINISM_SENSITIVE) {
        let Some(rule) = rules::rule_by_id(tf.rule) else {
            continue;
        };
        let Some(lines) = views.get(&tf.file) else {
            continue;
        };
        let allows = allows_for_line(lines, tf.line);
        let allow = allows.iter().find(|a| a.rule == rule.id);
        let snippet = lines
            .get(tf.line - 1)
            .map(|l| l.raw.trim().to_string())
            .unwrap_or_default();
        report.findings.push(Finding {
            rule: rule.id.to_string(),
            severity: rule.severity.label().to_string(),
            file: tf.file,
            line: tf.line,
            message: tf.message,
            snippet,
            suppressed: allow.is_some(),
            suppress_reason: allow.and_then(|a| a.reason.clone()),
            trace: tf.trace,
        });
    }

    // RL010: every allow in non-test library code must both carry a reason
    // and suppress at least one finding.
    let mut audits: Vec<Finding> = Vec::new();
    for (rel, ctx) in &contexts {
        let Some(rl010) = rules::rule_by_id("RL010") else {
            break;
        };
        if !rl010.applies_to(ctx) {
            continue;
        }
        let Some(lines) = views.get(rel) else {
            continue;
        };
        for line in lines {
            if line.in_test {
                continue;
            }
            for allow in parse_allows(&line.comment) {
                let used = report.findings.iter().any(|f| {
                    f.suppressed
                        && f.rule == allow.rule
                        && f.file == *rel
                        && (f.line == line.number || f.line == line.number + 1)
                        && allow.reason.is_some()
                });
                if used {
                    continue;
                }
                let message = match &allow.reason {
                    None => format!(
                        "`lint:allow({})` carries no reason; a suppression \
                         without a justification does not suppress",
                        allow.rule
                    ),
                    Some(_) => format!(
                        "unused `lint:allow({})`: no {} finding on this line \
                         or the one below — remove the stale suppression",
                        allow.rule, allow.rule
                    ),
                };
                // RL010 itself honours suppressions, so a deliberate
                // fixture allow can be annotated.
                let meta_allows = allows_for_line(lines, line.number);
                let meta = meta_allows.iter().find(|a| a.rule == "RL010");
                audits.push(Finding {
                    rule: "RL010".to_string(),
                    severity: rl010.severity.label().to_string(),
                    file: rel.clone(),
                    line: line.number,
                    message,
                    snippet: line.raw.trim().to_string(),
                    suppressed: meta.is_some(),
                    suppress_reason: meta.and_then(|a| a.reason.clone()),
                    trace: Vec::new(),
                });
            }
        }
    }
    report.findings.extend(audits);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// The workspace root this crate was built in, for self-linting.
pub fn workspace_root() -> std::path::PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| Path::new(".").to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(rel: &str) -> FileContext {
        classify(rel).expect("classifiable path")
    }

    #[test]
    fn suppression_needs_a_reason() {
        let ctx = lib_ctx("crates/binpack/src/x.rs");
        let bare = "let v = o.unwrap(); // lint:allow(RL001)\n";
        let f = lint_source(&ctx, bare);
        assert_eq!(f.len(), 1);
        assert!(!f[0].suppressed, "reasonless allow must not suppress");

        let good = "let v = o.unwrap(); // lint:allow(RL001, checked two lines up)\n";
        let f = lint_source(&ctx, good);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
        assert_eq!(
            f[0].suppress_reason.as_deref(),
            Some("checked two lines up")
        );
    }

    #[test]
    fn suppression_on_previous_line_counts() {
        let ctx = lib_ctx("crates/binpack/src/x.rs");
        let src =
            "// lint:allow(RL002, sanitizer abort is the whole point)\npanic!(\"invariant\");\n";
        let f = lint_source(&ctx, src);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
    }

    #[test]
    fn suppression_reason_may_contain_parens() {
        let allows = parse_allows(" lint:allow(RL002, aborting here is fine (the whole point))");
        assert_eq!(allows.len(), 1);
        assert_eq!(
            allows[0].reason.as_deref(),
            Some("aborting here is fine (the whole point)")
        );
    }

    #[test]
    fn reasonless_allows_are_parsed_for_the_audit() {
        let allows = parse_allows(" lint:allow(RL001)");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "RL001");
        assert!(allows[0].reason.is_none());
    }

    #[test]
    fn test_code_is_exempt() {
        let ctx = lib_ctx("crates/binpack/src/x.rs");
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source(&ctx, src).is_empty());
    }

    #[test]
    fn scope_is_respected() {
        // HashMap is fine in a crate outside the determinism-sensitive set.
        let lint_crate = lib_ctx("crates/lint/src/x.rs");
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source(&lint_crate, src).is_empty());
        let binpack = lib_ctx("crates/binpack/src/x.rs");
        assert_eq!(lint_source(&binpack, src).len(), 1);
    }

    #[test]
    fn an_unreadable_file_is_an_error_naming_it() {
        let root = std::env::temp_dir().join(format!("reshape-lint-latin-{}", std::process::id()));
        let src = root.join("crates/binpack/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn ok() {}\n").unwrap();
        std::fs::write(src.join("latin.rs"), b"pub const S: &str = \"\xFF\xFE\";\n").unwrap();
        let result = lint_tree(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let err = result.expect_err("a non-UTF-8 source must not lint");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().starts_with("crates/binpack/src/latin.rs: "),
            "{err}"
        );
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let ctx = lib_ctx("crates/binpack/src/x.rs");
        let report = Report {
            files_scanned: 1,
            findings: lint_source(&ctx, "x.unwrap();\n"),
        };
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"schema\": \"reshape-lint/2\""));
        assert!(a.contains("\"RL001\": 1"));
    }
}
