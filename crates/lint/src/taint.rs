//! Determinism taint: seed nondeterminism sources in function bodies and
//! propagate them along the call graph to determinism-sensitive sinks.
//!
//! Sources (each anchored at the line where the evidence sits):
//!
//! * **Clock** — `Instant::now()` / `SystemTime::now()` call sites,
//! * **Env** — `std::env::{var,vars,args,…}` reads,
//! * **HashOrder** — `HashMap`/`HashSet` mentioned in a body that also
//!   iterates (`.iter()`, `.keys()`, `for … in …`),
//! * **FloatReduce** — a `par_iter()`-family call followed by
//!   `reduce`/`fold`/`sum` over float evidence (order-sensitive
//!   accumulation under work stealing),
//! * **NonTotalCmp** — `partial_cmp().unwrap()` used as a comparator in a
//!   `sort_by`/`max_by`/`min_by`/`binary_search_by` position.
//!
//! Sinks are the bare-`pub` functions of `DETERMINISM_SENSITIVE` crates
//! (which include the `obs` NDJSON emitters). RL007 fires only when a sink
//! reaches a source *transitively* — a path of at least two functions —
//! because same-function evidence is already covered by the lexical rules
//! (RL003/RL005) and by RL008/RL009 here. Each RL007 finding carries the
//! complete sink→source call path, shortest first, so the report is
//! actionable without re-running the analysis.

use crate::callgraph::CallGraph;
use crate::parse::FnDef;
use crate::tokens::Line;
use std::collections::BTreeMap;

/// What kind of nondeterminism a source introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// Wall-clock reads.
    Clock,
    /// Process environment reads.
    Env,
    /// Hashed-container iteration order.
    HashOrder,
    /// Order-sensitive parallel float accumulation.
    FloatReduce,
    /// Non-total comparator (`partial_cmp().unwrap()`) in a sort position.
    NonTotalCmp,
}

impl SourceKind {
    /// Human label used in messages, article included.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::Clock => "a wall-clock read",
            SourceKind::Env => "an environment read",
            SourceKind::HashOrder => "hashed-iteration order",
            SourceKind::FloatReduce => "an order-sensitive parallel float reduction",
            SourceKind::NonTotalCmp => "a non-total comparator",
        }
    }
}

/// One nondeterminism source, anchored in a function.
#[derive(Debug, Clone)]
pub struct Source {
    /// Index into `graph.defs`.
    pub def: usize,
    /// Kind of nondeterminism.
    pub kind: SourceKind,
    /// 1-based line of the evidence.
    pub line: usize,
    /// What exactly was seen, e.g. `Instant::now()`.
    pub detail: String,
}

/// One finding produced by the dataflow passes (RL007/RL008/RL009).
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// Rule ID.
    pub rule: &'static str,
    /// Workspace-relative file of the anchor line.
    pub file: String,
    /// 1-based anchor line: the sink `fn` for RL007, the evidence line for
    /// RL008/RL009.
    pub line: usize,
    /// What is wrong, including the call path for RL007.
    pub message: String,
    /// Call path hops, sink first, `qual (file:line)` each; empty for
    /// single-function findings.
    pub trace: Vec<String>,
}

/// Does `line` contain `word` on identifier boundaries?
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Masked body lines of a def: 1-based `line..=end_line` clamped to the
/// file, as (line_number, code) pairs.
fn body_lines<'a>(def: &FnDef, lines: &'a [Line]) -> Vec<(usize, &'a str)> {
    let lo = def.line.max(1);
    let hi = def.end_line.min(lines.len());
    (lo..=hi.max(lo).min(lines.len()))
        .filter_map(|n| lines.get(n - 1).map(|l| (n, l.code.as_str())))
        .collect()
}

/// Does any masked line in the window contain float evidence (an `f64`/
/// `f32` spelling or a float literal like `0.0`)?
fn float_evidence(lines: &[(usize, &str)], lo: usize, hi: usize) -> bool {
    lines.iter().any(|&(n, text)| {
        n >= lo
            && n <= hi
            && (has_word(text, "f64") || has_word(text, "f32") || has_float_literal(text))
    })
}

/// `digit '.' digit` anywhere outside masked text is a float literal.
fn has_float_literal(text: &str) -> bool {
    let b = text.as_bytes();
    (1..b.len().saturating_sub(1))
        .any(|i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
}

const PAR_ITER: &[&str] = &["par_iter", "into_par_iter", "par_bridge", "par_chunks"];
const ORDER_SENSITIVE_FOLDS: &[&str] = &["reduce", "fold", "sum"];
const SORT_POSITIONS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os", "args", "args_os"];

/// Detect every source in every (non-test) function of the graph.
/// `views` maps workspace-relative paths to their line views.
pub fn find_sources(graph: &CallGraph, views: &BTreeMap<String, Vec<Line>>) -> Vec<Source> {
    let mut out: Vec<Source> = Vec::new();
    for (di, def) in graph.defs.iter().enumerate() {
        let mut push = |kind: SourceKind, line: usize, detail: String| {
            // One source per (fn, kind): the first piece of evidence names
            // the problem; more of the same kind adds noise, not signal.
            if !out.iter().any(|s| s.def == di && s.kind == kind) {
                out.push(Source {
                    def: di,
                    kind,
                    line,
                    detail,
                });
            }
        };

        for call in &def.calls {
            let segs: Vec<&str> = call.segs.iter().map(String::as_str).collect();
            if let ["Instant" | "SystemTime", "now"] = segs[segs.len().saturating_sub(2)..] {
                push(
                    SourceKind::Clock,
                    call.line,
                    format!("{}::now()", segs[segs.len() - 2]),
                );
            }
            if let Some(p) = segs.iter().position(|&s| s == "env") {
                if let Some(read) = segs.get(p + 1).filter(|r| ENV_READS.contains(r)) {
                    push(SourceKind::Env, call.line, format!("std::env::{read}()"));
                }
            }
        }

        let lines = body_lines(def, views.get(&def.file).map_or(&[][..], Vec::as_slice));

        // HashOrder: a hashed container named in the body plus iteration
        // evidence anywhere in the same body.
        let iterates = lines.iter().any(|&(_, text)| {
            text.contains(".iter()")
                || text.contains(".keys()")
                || text.contains(".values()")
                || text.contains(".into_iter()")
                || text.contains(".drain(")
                || (text.trim_start().starts_with("for ") && text.contains(" in "))
        });
        if iterates {
            for &(n, text) in &lines {
                for container in ["HashMap", "HashSet"] {
                    if has_word(text, container) {
                        push(
                            SourceKind::HashOrder,
                            n,
                            format!("{container} iteration order"),
                        );
                    }
                }
            }
        }

        // FloatReduce: par_iter family then reduce/fold/sum nearby, with
        // float evidence in the window.
        for (ci, call) in def.calls.iter().enumerate() {
            if !(call.is_method && PAR_ITER.contains(&call.segs[0].as_str())) {
                continue;
            }
            for later in &def.calls[ci + 1..] {
                let gap_ok = later.line >= call.line && later.line <= call.line + 8;
                if later.is_method
                    && gap_ok
                    && ORDER_SENSITIVE_FOLDS.contains(&later.segs[0].as_str())
                    && float_evidence(&lines, call.line, later.line + 2)
                {
                    push(
                        SourceKind::FloatReduce,
                        later.line,
                        format!("{}().{}() over floats", call.segs[0], later.segs[0]),
                    );
                }
            }
        }

        // NonTotalCmp: partial_cmp().unwrap() within a few lines of a sort
        // position.
        for (ci, call) in def.calls.iter().enumerate() {
            let followed_by_unwrap = call.is_method
                && call.segs[0] == "partial_cmp"
                && def.calls[ci + 1..]
                    .iter()
                    .take(1)
                    .any(|n| n.is_method && n.segs[0] == "unwrap" && n.line <= call.line + 1);
            if !followed_by_unwrap {
                continue;
            }
            let in_sort_position = def.calls.iter().any(|s| {
                s.is_method
                    && SORT_POSITIONS.contains(&s.segs[0].as_str())
                    && s.line <= call.line
                    && call.line <= s.line + 4
            });
            if in_sort_position {
                push(
                    SourceKind::NonTotalCmp,
                    call.line,
                    "partial_cmp().unwrap() comparator".to_string(),
                );
            }
        }
    }
    out.sort_by_key(|a| (a.def, a.kind, a.line));
    out
}

/// Run the dataflow rules over the graph. `sensitive` is the
/// `DETERMINISM_SENSITIVE` crate-dir list; findings come back unsorted and
/// without snippets — the driver anchors and decorates them.
pub fn run(
    graph: &CallGraph,
    views: &BTreeMap<String, Vec<Line>>,
    sensitive: &[&str],
) -> Vec<TaintFinding> {
    let sources = find_sources(graph, views);
    let mut findings: Vec<TaintFinding> = Vec::new();

    // RL008 / RL009: single-function findings at the evidence line.
    for s in &sources {
        let def = &graph.defs[s.def];
        match s.kind {
            SourceKind::FloatReduce if sensitive.contains(&def.crate_dir.as_str()) => {
                findings.push(TaintFinding {
                    rule: "RL008",
                    file: def.file.clone(),
                    line: s.line,
                    message: format!(
                        "order-sensitive parallel float reduction in `{}`: {} — work-stealing \
                         changes association order and float addition is not associative",
                        def.qual, s.detail
                    ),
                    trace: Vec::new(),
                });
            }
            SourceKind::NonTotalCmp => {
                findings.push(TaintFinding {
                    rule: "RL009",
                    file: def.file.clone(),
                    line: s.line,
                    message: format!(
                        "non-total comparator in `{}`: {} — NaN makes the order \
                         partial, so sort results depend on input order (and unwrap panics)",
                        def.qual, s.detail
                    ),
                    trace: Vec::new(),
                });
            }
            _ => {}
        }
    }

    // RL007: shortest path from each source up the reverse call graph to
    // every determinism-sensitive public sink, transitively (≥ 2 fns).
    let rev = graph.reverse_edges();
    for s in &sources {
        // BFS with parent tracking from the source function.
        let mut parent: Vec<Option<usize>> = vec![None; graph.defs.len()];
        let mut dist: Vec<Option<usize>> = vec![None; graph.defs.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[s.def] = Some(0);
        queue.push_back(s.def);
        while let Some(cur) = queue.pop_front() {
            let next_dist = match dist[cur] {
                Some(d) => d + 1,
                None => continue,
            };
            for &caller in &rev[cur] {
                if dist[caller].is_none() {
                    dist[caller] = Some(next_dist);
                    parent[caller] = Some(cur);
                    queue.push_back(caller);
                }
            }
        }
        for (sink, def) in graph.defs.iter().enumerate() {
            let transitive = matches!(dist[sink], Some(d) if d >= 1);
            if !(transitive && def.is_pub && sensitive.contains(&def.crate_dir.as_str())) {
                continue;
            }
            // Reconstruct sink → … → source following parents.
            let mut hops: Vec<usize> = vec![sink];
            let mut cur = sink;
            while let Some(p) = parent[cur] {
                hops.push(p);
                cur = p;
            }
            let path: Vec<String> = hops.iter().map(|&h| graph.defs[h].qual.clone()).collect();
            let trace: Vec<String> = hops
                .iter()
                .map(|&h| {
                    let d = &graph.defs[h];
                    format!("{} ({}:{})", d.qual, d.file, d.line)
                })
                .chain(std::iter::once(format!(
                    "{} at {}:{}",
                    s.detail, graph.defs[s.def].file, s.line
                )))
                .collect();
            findings.push(TaintFinding {
                rule: "RL007",
                file: def.file.clone(),
                line: def.line,
                message: format!(
                    "public API `{}` transitively reaches {} ({}): {}",
                    def.qual,
                    s.kind.label(),
                    s.detail,
                    path.join(" -> "),
                ),
                trace,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parse::parse_file;
    use crate::tokens::line_view;

    fn analyze(files: &[(&str, &str, &str)], sensitive: &[&str]) -> Vec<TaintFinding> {
        let mut defs = Vec::new();
        let mut masked = BTreeMap::new();
        for (rel, crate_dir, src) in files {
            defs.extend(parse_file(rel, crate_dir, src).defs);
            masked.insert(rel.to_string(), line_view(src));
        }
        run(&build(defs), &masked, sensitive)
    }

    #[test]
    fn three_hop_clock_path_is_reported_exactly() {
        let src = "pub fn api() { mid(); }\nfn mid() { deep(); }\nfn deep() { let _ = std::time::Instant::now(); }\n";
        let f = analyze(&[("crates/binpack/src/a.rs", "binpack", src)], &["binpack"]);
        let rl007: Vec<_> = f.iter().filter(|f| f.rule == "RL007").collect();
        assert_eq!(rl007.len(), 1);
        assert!(rl007[0]
            .message
            .contains("binpack::api -> binpack::mid -> binpack::deep"));
        assert_eq!(rl007[0].line, 1, "anchored at the sink fn");
        assert_eq!(rl007[0].trace.len(), 4, "three hops plus the evidence");
    }

    #[test]
    fn direct_use_is_not_transitive() {
        let src = "pub fn api() { let _ = std::time::Instant::now(); }\n";
        let f = analyze(&[("crates/binpack/src/a.rs", "binpack", src)], &["binpack"]);
        assert!(
            f.iter().all(|f| f.rule != "RL007"),
            "single-fn evidence belongs to the lexical rules"
        );
    }

    #[test]
    fn insensitive_crates_have_no_sinks() {
        let src = "pub fn api() { mid(); }\nfn mid() { let _ = std::time::Instant::now(); }\n";
        let f = analyze(
            &[("crates/textapps/src/a.rs", "textapps", src)],
            &["binpack"],
        );
        assert!(f.iter().all(|f| f.rule != "RL007"));
    }

    #[test]
    fn env_reads_taint_across_crates() {
        let f = analyze(
            &[
                (
                    "crates/corpus/src/knobs.rs",
                    "corpus",
                    "pub fn threshold() -> u64 { lint_helpers::env_knob() }\n",
                ),
                (
                    "crates/lint/src/helpers.rs",
                    "lint",
                    "pub mod lint_helpers { pub fn env_knob() -> u64 { std::env::var(\"K\").map(|v| v.len() as u64).unwrap_or(0) } }\n",
                ),
            ],
            &["corpus"],
        );
        let rl007: Vec<_> = f.iter().filter(|f| f.rule == "RL007").collect();
        assert_eq!(rl007.len(), 1);
        assert!(rl007[0].message.contains("environment read"));
        assert!(rl007[0].message.contains("std::env::var()"));
    }

    #[test]
    fn par_reduce_over_floats_fires_rl008() {
        let src = "pub fn total(xs: &[f64]) -> f64 {\n    xs.par_iter().cloned().reduce(|| 0.0, |a, b| a + b)\n}\n";
        let f = analyze(&[("crates/binpack/src/s.rs", "binpack", src)], &["binpack"]);
        let rl008: Vec<_> = f.iter().filter(|f| f.rule == "RL008").collect();
        assert_eq!(rl008.len(), 1);
        assert_eq!(rl008[0].line, 2);
    }

    #[test]
    fn par_reduce_over_ints_is_fine() {
        let src = "pub fn total(xs: &[u64]) -> u64 {\n    xs.par_iter().cloned().reduce(|| 0, |a, b| a + b)\n}\n";
        let f = analyze(&[("crates/binpack/src/s.rs", "binpack", src)], &["binpack"]);
        assert!(
            f.iter().all(|f| f.rule != "RL008"),
            "integer reduction is associative"
        );
    }

    #[test]
    fn partial_cmp_comparator_fires_rl009_in_any_crate() {
        let src =
            "pub fn rank(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let f = analyze(
            &[("crates/textapps/src/r.rs", "textapps", src)],
            &["binpack"],
        );
        let rl009: Vec<_> = f.iter().filter(|f| f.rule == "RL009").collect();
        assert_eq!(rl009.len(), 1);
        assert_eq!(rl009[0].line, 2);
    }

    #[test]
    fn partial_cmp_outside_sort_position_is_not_rl009() {
        let src = "pub fn cmp1(a: f64, b: f64) -> bool {\n    matches!(a.partial_cmp(&b), Some(std::cmp::Ordering::Less))\n}\n";
        let f = analyze(
            &[("crates/textapps/src/r.rs", "textapps", src)],
            &["binpack"],
        );
        assert!(f.iter().all(|f| f.rule != "RL009"));
    }

    #[test]
    fn hash_iteration_taints_public_api() {
        let files = [(
            "crates/obs/src/agg.rs",
            "obs",
            "pub fn summary() -> u64 { tally() }\nfn tally() -> u64 {\n    let m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();\n    m.values().sum()\n}\n",
        )];
        let f = analyze(&files, &["obs"]);
        let rl007: Vec<_> = f.iter().filter(|f| f.rule == "RL007").collect();
        assert_eq!(rl007.len(), 1);
        assert!(rl007[0].message.contains("hashed-iteration order"));
    }

    #[test]
    fn hash_without_iteration_is_silent() {
        let files = [(
            "crates/obs/src/agg.rs",
            "obs",
            "pub fn summary() -> u64 { tally() }\nfn tally() -> u64 {\n    let mut m = std::collections::HashMap::new();\n    m.insert(1u64, 2u64);\n    m.len() as u64\n}\n",
        )];
        let f = analyze(&files, &["obs"]);
        assert!(
            f.iter().all(|f| f.rule != "RL007"),
            "keyed lookups are deterministic; only iteration order is not"
        );
    }
}
