//! The rule registry: stable IDs, severities, scopes and matchers.
//!
//! Rules are lexical checks over [`tokens::Line`](crate::tokens::Line)
//! views — string literals, comments and test code are already resolved by
//! the line view, so a matcher only has to recognise its pattern in real
//! library code.

use crate::context::{Category, FileContext};
use crate::tokens::Line;

/// How bad a finding is. Errors fail the verify gate; warnings are
/// reported but do not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the lint run.
    Warning,
    /// Fails the lint run (non-zero exit).
    Error,
}

impl Severity {
    /// Lowercase label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Where a rule applies.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Library code in every workspace crate (the bench crate, binaries,
    /// tests, benches and examples are exempt).
    AllLibraries,
    /// Library code in the named crate directories only.
    LibrariesOf(&'static [&'static str]),
}

/// One lint rule.
pub struct Rule {
    /// Stable identifier, e.g. `RL001`. Referenced by suppressions.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary for the registry table.
    pub title: &'static str,
    /// Why the rule exists, for `DESIGN.md` and human output.
    pub rationale: &'static str,
    /// Where the rule applies.
    pub scope: Scope,
    /// The matcher: messages for each violation found on the line.
    pub check: fn(&Line) -> Vec<String>,
}

impl Rule {
    /// Does this rule apply to the given file at all?
    pub fn applies_to(&self, ctx: &FileContext) -> bool {
        if ctx.category != Category::Library {
            return false;
        }
        match self.scope {
            Scope::AllLibraries => true,
            Scope::LibrariesOf(names) => names.contains(&ctx.crate_dir.as_str()),
        }
    }
}

/// Crates whose packing / modelling output must be bit-reproducible.
/// `textapps` belongs here: its grep/tokenize/POS counts feed the probe
/// measurements the models are fitted on, so nondeterministic output there
/// skews every downstream plan.
pub const DETERMINISM_SENSITIVE: &[&str] = &[
    "binpack",
    "perfmodel",
    "provision",
    "core",
    "corpus",
    "ec2sim",
    "market",
    "obs",
    "sched",
    "textapps",
];

/// Crates where wall-clock reads would poison model fits and plans —
/// including the simulator, whose clock is simulated seconds and whose
/// fault schedules must replay bit-for-bit. `textapps` processing is pure
/// text transformation; any timing of it belongs in the bench crate.
/// `core` and `corpus` joined when the streaming-ingest path landed: the
/// arrival trace and sealing clock are simulated seconds, so a wall-clock
/// read anywhere on that path breaks same-seed replay. `market` joined
/// with the fleet-market subsystem: spot price paths are counter-seeded
/// functions of simulated time, and a wall-clock read would desync the
/// planner's path from the reclaim schedule scripted off the same seed.
pub const CLOCK_FREE: &[&str] = &[
    "binpack",
    "core",
    "corpus",
    "ec2sim",
    "market",
    "obs",
    "perfmodel",
    "provision",
    "sched",
    "textapps",
];

/// Crates doing byte accounting where a narrowing cast silently corrupts.
const BYTE_ACCOUNTING: &[&str] = &["binpack", "corpus"];

/// The registry, in ID order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "RL001",
        severity: Severity::Error,
        title: "no `unwrap()`/`expect()` in library code",
        rationale: "library crates must surface failures as typed errors; \
                    panicking on `None`/`Err` hides the failure mode from callers",
        scope: Scope::AllLibraries,
        check: check_unwrap,
    },
    Rule {
        id: "RL002",
        severity: Severity::Error,
        title: "no `panic!`/`todo!`/`unimplemented!` in library code",
        rationale: "explicit panics in library paths abort whole pipeline runs; \
                    return an error or finish the implementation",
        scope: Scope::AllLibraries,
        check: check_panic,
    },
    Rule {
        id: "RL003",
        severity: Severity::Error,
        title: "no `HashMap`/`HashSet` in determinism-sensitive code",
        rationale: "iteration order of hashed containers is unspecified; packing \
                    and planning must be bit-reproducible, so use BTreeMap/BTreeSet \
                    or sort explicitly",
        scope: Scope::LibrariesOf(DETERMINISM_SENSITIVE),
        check: check_hash_containers,
    },
    Rule {
        id: "RL004",
        severity: Severity::Error,
        title: "no `==`/`!=` against floating-point literals",
        rationale: "exact float equality is almost always a bug under rounding; \
                    compare with a tolerance, or annotate genuine exact-zero guards",
        scope: Scope::AllLibraries,
        check: check_float_eq,
    },
    Rule {
        id: "RL005",
        severity: Severity::Error,
        title: "no wall-clock reads in packing/modelling/planning code",
        rationale: "`Instant::now`/`SystemTime::now` make packing and planning \
                    outputs depend on the host clock; timing belongs in the bench \
                    crate and the simulator",
        scope: Scope::LibrariesOf(CLOCK_FREE),
        check: check_clock,
    },
    Rule {
        id: "RL006",
        severity: Severity::Error,
        title: "no lossy `as` casts in byte-accounting code",
        rationale: "narrowing `as` casts truncate silently; byte sizes are u64 \
                    end to end, so use `try_from` or widen instead",
        scope: Scope::LibrariesOf(BYTE_ACCOUNTING),
        check: check_lossy_cast,
    },
    // RL007–RL010 are dataflow rules: their findings come from the
    // call-graph taint pass and the suppression audit in the driver, not
    // from a line matcher. They are registered here so severities, SARIF
    // metadata and `lint:allow` suppressions treat them uniformly.
    Rule {
        id: "RL007",
        severity: Severity::Error,
        title: "transitive nondeterminism reaching a determinism-sensitive public API",
        rationale: "a clock, env or hash-order read two calls deep poisons a \
                    public packing/planning API just as surely as a direct one, \
                    but no single line shows it; the taint pass reports the \
                    full source-to-sink call path",
        scope: Scope::LibrariesOf(DETERMINISM_SENSITIVE),
        check: check_none,
    },
    Rule {
        id: "RL008",
        severity: Severity::Error,
        title: "order-sensitive parallel float reduction",
        rationale: "float addition is not associative; `par_iter().reduce/fold/sum` \
                    over floats lets work stealing pick the association order, so \
                    the same input can produce different sums across runs",
        scope: Scope::LibrariesOf(DETERMINISM_SENSITIVE),
        check: check_none,
    },
    Rule {
        id: "RL009",
        severity: Severity::Error,
        title: "non-total comparator in a sort/max/min position",
        rationale: "`partial_cmp().unwrap()` as a comparator panics on NaN and \
                    makes the order input-dependent; use `total_cmp` or handle \
                    the NaN case explicitly",
        scope: Scope::AllLibraries,
        check: check_none,
    },
    Rule {
        id: "RL010",
        severity: Severity::Error,
        title: "unused or reasonless `lint:allow` suppression",
        rationale: "a suppression that no longer matches a finding, or carries \
                    no reason, is debt that silently widens; remove it or \
                    justify it",
        scope: Scope::AllLibraries,
        check: check_none,
    },
];

/// Look up a rule by ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Find `pat` in `code` at identifier boundaries: the characters adjacent
/// to the match must not extend an identifier into or out of it.
fn has_token(code: &str, pat: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let start = from + pos;
        let end = start + pat.len();
        let head = pat.chars().next().map(is_ident).unwrap_or(false);
        let tail = pat.chars().last().map(is_ident).unwrap_or(false);
        let clean_before = !head || start == 0 || !is_ident(bytes[start - 1] as char);
        let clean_after = !tail || end >= bytes.len() || !is_ident(bytes[end] as char);
        if clean_before && clean_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Matcher for dataflow rules, whose findings the driver injects.
fn check_none(_line: &Line) -> Vec<String> {
    Vec::new()
}

fn check_unwrap(line: &Line) -> Vec<String> {
    let mut out = Vec::new();
    if has_token(&line.code, ".unwrap()") {
        out.push("`.unwrap()` in library code; return a typed error instead".into());
    }
    if has_token(&line.code, ".expect(") {
        out.push("`.expect(..)` in library code; return a typed error instead".into());
    }
    out
}

fn check_panic(line: &Line) -> Vec<String> {
    ["panic!", "todo!", "unimplemented!"]
        .iter()
        .filter(|m| has_token(&line.code, m))
        .map(|m| format!("`{m}` in library code; return a typed error instead"))
        .collect()
}

fn check_hash_containers(line: &Line) -> Vec<String> {
    ["HashMap", "HashSet"]
        .iter()
        .filter(|m| has_token(&line.code, m))
        .map(|m| {
            format!(
                "`{m}` in determinism-sensitive code; iteration order is \
                 unspecified — use the BTree equivalent or sort explicitly"
            )
        })
        .collect()
}

/// Does this token look like a floating-point operand? Catches literals
/// (`0.0`, `1.5e9`) and `f64`/`f32`-suffixed numbers; typed variables are
/// beyond a lexical check and are not flagged.
fn looks_float(token: &str) -> bool {
    let t = token.trim_start_matches('-');
    let Some(first) = t.chars().next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    t.contains('.')
        || t.contains('e')
        || t.contains('E')
        || t.ends_with("f64")
        || t.ends_with("f32")
}

/// Extract the operand token ending just before byte `pos`.
fn token_before(code: &str, pos: usize) -> &str {
    let head = code[..pos].trim_end();
    let start = head
        .rfind(|c: char| !(is_ident(c) || c == '.'))
        .map(|i| i + 1)
        .unwrap_or(0);
    &head[start..]
}

/// Extract the operand token starting at or after byte `pos`.
fn token_after(code: &str, pos: usize) -> &str {
    let tail = code[pos..].trim_start();
    let tail = tail.strip_prefix('-').unwrap_or(tail);
    let end = tail
        .find(|c: char| !(is_ident(c) || c == '.'))
        .unwrap_or(tail.len());
    &tail[..end]
}

fn check_float_eq(line: &Line) -> Vec<String> {
    let code = &line.code;
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, pair) in bytes.windows(2).enumerate() {
        let op = match pair {
            b"==" => "==",
            b"!=" => "!=",
            _ => continue,
        };
        // Reject `===`-ish runs, `<=`, `>=`, `+=` neighbours.
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        if op == "==" && i > 0 && matches!(bytes[i - 1], b'=' | b'!' | b'<' | b'>') {
            continue;
        }
        let lhs = token_before(code, i);
        let rhs = token_after(code, i + 2);
        if looks_float(lhs) || looks_float(rhs) {
            out.push(format!(
                "exact float comparison `{lhs} {op} {rhs}`; compare with a \
                 tolerance or annotate an intentional exact-zero guard"
            ));
        }
    }
    out
}

fn check_clock(line: &Line) -> Vec<String> {
    ["Instant::now", "SystemTime::now"]
        .iter()
        .filter(|m| has_token(&line.code, m))
        .map(|m| format!("`{m}` in deterministic planning code; take timings in the bench crate"))
        .collect()
}

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

fn check_lossy_cast(line: &Line) -> Vec<String> {
    let code = &line.code;
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(" as ") {
        let start = from + pos;
        let target = token_after(code, start + 4);
        if NARROW_TARGETS.contains(&target) {
            out.push(format!(
                "lossy `as {target}` cast in byte-accounting code; use \
                 `try_from` or keep the value wide"
            ));
        }
        from = start + 4;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::line_view;

    fn one(src: &str) -> Line {
        line_view(src).into_iter().next().expect("one line")
    }

    #[test]
    fn unwrap_matches_only_the_exact_call() {
        assert_eq!(check_unwrap(&one("x.unwrap();")).len(), 1);
        assert_eq!(check_unwrap(&one("x.expect(\"why\");")).len(), 1);
        assert!(check_unwrap(&one("x.unwrap_or(0);")).is_empty());
        assert!(check_unwrap(&one("x.unwrap_or_else(f);")).is_empty());
        assert!(check_unwrap(&one("x.expect_err(\"e\");")).is_empty());
        assert!(check_unwrap(&one("// x.unwrap() in a comment")).is_empty());
    }

    #[test]
    fn panic_family_respects_boundaries() {
        assert_eq!(check_panic(&one("panic!(\"boom\");")).len(), 1);
        assert_eq!(check_panic(&one("todo!()")).len(), 1);
        assert_eq!(check_panic(&one("unimplemented!()")).len(), 1);
        assert!(check_panic(&one("debug_assert!(x);")).is_empty());
        assert!(check_panic(&one("#[should_panic(expected = \"x\")]")).is_empty());
        assert!(check_panic(&one("let s = \"panic!\";")).is_empty());
    }

    #[test]
    fn hash_containers_flagged() {
        assert_eq!(
            check_hash_containers(&one("use std::collections::HashMap;")).len(),
            1
        );
        assert!(check_hash_containers(&one("use std::collections::BTreeMap;")).is_empty());
    }

    #[test]
    fn float_eq_catches_literals_only() {
        assert_eq!(check_float_eq(&one("if x == 0.0 {")).len(), 1);
        assert_eq!(check_float_eq(&one("if 1.5e9 != total {")).len(), 1);
        assert!(check_float_eq(&one("if n == 0 {")).is_empty());
        assert!(check_float_eq(&one("if x <= 0.5 {")).is_empty());
        assert!(check_float_eq(&one("if x >= 0.5 {")).is_empty());
        assert!(check_float_eq(&one("a += 1; b == c;")).is_empty());
    }

    #[test]
    fn clock_reads_flagged() {
        assert_eq!(check_clock(&one("let t = Instant::now();")).len(), 1);
        assert_eq!(check_clock(&one("std::time::SystemTime::now()")).len(), 1);
        assert!(check_clock(&one("let now = self.clock;")).is_empty());
    }

    #[test]
    fn lossy_casts_flagged_narrow_only() {
        assert_eq!(check_lossy_cast(&one("let x = big as u32;")).len(), 1);
        assert_eq!(check_lossy_cast(&one("let x = v as f32;")).len(), 1);
        assert!(check_lossy_cast(&one("let x = small as u64;")).is_empty());
        assert!(check_lossy_cast(&one("let x = n as usize;")).is_empty());
        assert!(check_lossy_cast(&one("let x = n as f64;")).is_empty());
        assert!(check_lossy_cast(&one("if it has as much")).is_empty());
    }

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "rule IDs must be unique and in order");
        assert!(rule_by_id("RL001").is_some());
        assert!(rule_by_id("RL999").is_none());
    }
}
