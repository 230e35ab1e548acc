//! Workspace call graph: resolved edges between parsed `fn` definitions.
//!
//! Resolution is name-based and deliberately conservative — an edge is
//! added only when a call site matches exactly one plausible definition:
//!
//! 1. qualified calls (`corpus::taint::clock_entropy(…)`) suffix-match the
//!    definition's qualified path, with `crate`/`self`/`super`/`Self`
//!    anchors stripped and workspace package aliases (`reshape` → the
//!    `core` crate dir) canonicalised,
//! 2. plain calls (`helper(…)`) prefer a definition in the same file, then
//!    a unique one in the same crate, then a unique one workspace-wide,
//! 3. method calls (`.pack(…)`) resolve like plain calls but never leave
//!    the caller's crate unless the name is unique in the workspace —
//!    method names are too common to guess across crates.
//!
//! Ambiguous or external calls (std, vendored deps) resolve to nothing and
//! are counted, not guessed. A missed edge can hide a taint path; a wrong
//! edge fabricates one. For a ratchet that must stay quiet on clean code,
//! under-approximation is the correct bias, and the seeded end-to-end
//! fixtures pin the recall we rely on.

use crate::parse::FnDef;
use std::collections::BTreeMap;

/// Workspace package names that differ from their crate directory.
const CRATE_ALIASES: &[(&str, &str)] = &[("reshape", "core"), ("corpus_reshape", "corpus-reshape")];

/// The resolved call graph over every parsed definition.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All definitions, in (file, line) order.
    pub defs: Vec<FnDef>,
    /// `edges[i]` = definition indices called by `defs[i]`, deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Call sites that matched no unique definition (std, vendored, or
    /// ambiguous) — reported as a health metric, never guessed at.
    pub unresolved: usize,
}

impl CallGraph {
    /// Callers of each definition: the reverse adjacency list.
    pub fn reverse_edges(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.defs.len()];
        for (caller, callees) in self.edges.iter().enumerate() {
            for &callee in callees {
                rev[callee].push(caller);
            }
        }
        rev
    }
}

/// Normalise a call path: strip `crate`/`self`/`Self`/`super` anchors
/// (substituting the caller's crate for `crate`) and canonicalise package
/// aliases in the leading segment.
fn normalise<'a>(segs: &'a [String], caller_crate: &str) -> (Vec<&'a str>, Option<String>) {
    let mut out: Vec<&str> = Vec::with_capacity(segs.len());
    let mut anchor_crate: Option<String> = None;
    for (i, seg) in segs.iter().enumerate() {
        match seg.as_str() {
            "crate" if i == 0 => anchor_crate = Some(caller_crate.replace('-', "_")),
            "self" | "Self" | "super" => {}
            other => {
                if out.is_empty() && anchor_crate.is_none() {
                    if let Some(&(_, dir)) = CRATE_ALIASES.iter().find(|&&(a, _)| a == other) {
                        anchor_crate = Some(dir.replace('-', "_"));
                        continue;
                    }
                }
                out.push(other);
            }
        }
    }
    (out, anchor_crate)
}

/// Does `qual` (a `::`-joined definition path) end with the given segments,
/// on segment boundaries?
fn qual_ends_with(qual: &str, segs: &[&str]) -> bool {
    let qsegs: Vec<&str> = qual.split("::").collect();
    if segs.is_empty() || qsegs.len() < segs.len() {
        return false;
    }
    qsegs[qsegs.len() - segs.len()..] == segs[..]
}

/// Build the call graph from every parsed definition. Test-gated
/// definitions are excluded up front: they neither taint nor sink.
pub fn build(mut defs: Vec<FnDef>) -> CallGraph {
    defs.retain(|d| !d.in_test);
    defs.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    // Name → definition indices, for candidate lookup.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
    let mut unresolved = 0usize;
    for caller in 0..defs.len() {
        let mut resolved: Vec<usize> = Vec::new();
        for call in &defs[caller].calls {
            let (segs, anchor) = normalise(&call.segs, &defs[caller].crate_dir);
            let Some(&name) = segs.last() else {
                unresolved += 1;
                continue;
            };
            let Some(candidates) = by_name.get(name) else {
                unresolved += 1;
                continue;
            };
            // Candidates whose qualified path matches the written path.
            let path_matched: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| {
                    qual_ends_with(&defs[i].qual, &segs)
                        && anchor
                            .as_deref()
                            .map(|c| defs[i].crate_dir.replace('-', "_") == c)
                            .unwrap_or(true)
                })
                .collect();
            let target = pick(
                &path_matched,
                &defs,
                &defs[caller].file,
                &defs[caller].crate_dir,
                call.is_method || segs.len() == 1,
            );
            match target {
                Some(t) if t != caller => resolved.push(t),
                Some(_) => {} // direct recursion adds nothing
                None => unresolved += 1,
            }
        }
        resolved.sort_unstable();
        resolved.dedup();
        edges[caller] = resolved;
    }

    CallGraph {
        defs,
        edges,
        unresolved,
    }
}

/// Choose among matching candidates: same file first, then unique within
/// the caller's crate, then unique workspace-wide. `short` marks bare-name
/// and method calls, which must not match across crates unless unique.
fn pick(
    matched: &[usize],
    defs: &[FnDef],
    caller_file: &str,
    caller_crate: &str,
    short: bool,
) -> Option<usize> {
    match matched {
        [] => None,
        [one] => {
            // A unique workspace match is trusted even for short names.
            Some(*one)
        }
        many => {
            let in_file: Vec<usize> = many
                .iter()
                .copied()
                .filter(|&i| defs[i].file == caller_file)
                .collect();
            if let [one] = in_file[..] {
                return Some(one);
            }
            let in_crate: Vec<usize> = many
                .iter()
                .copied()
                .filter(|&i| defs[i].crate_dir == caller_crate)
                .collect();
            if let [one] = in_crate[..] {
                return Some(one);
            }
            // Several candidates and no unique narrowing: for qualified
            // paths a cross-crate tie stays ambiguous; for short names too.
            let _ = short;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn graph_of(files: &[(&str, &str, &str)]) -> CallGraph {
        let mut defs = Vec::new();
        for (rel, crate_dir, src) in files {
            defs.extend(parse_file(rel, crate_dir, src).defs);
        }
        build(defs)
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = g.defs.iter().position(|d| d.qual == from);
        let t = g.defs.iter().position(|d| d.qual == to);
        match (f, t) {
            (Some(f), Some(t)) => g.edges[f].contains(&t),
            _ => false,
        }
    }

    #[test]
    fn same_file_calls_resolve() {
        let g = graph_of(&[(
            "crates/binpack/src/a.rs",
            "binpack",
            "pub fn api() { helper(); }\nfn helper() {}\n",
        )]);
        assert!(edge(&g, "binpack::api", "binpack::helper"));
    }

    #[test]
    fn cross_crate_qualified_calls_resolve() {
        let g = graph_of(&[
            (
                "crates/binpack/src/a.rs",
                "binpack",
                "pub fn api() { corpus::jitter::probe(); }\n",
            ),
            (
                "crates/corpus/src/jitter.rs",
                "corpus",
                "pub mod jitter { pub fn probe() {} }\n",
            ),
        ]);
        assert!(edge(&g, "binpack::api", "corpus::jitter::probe"));
    }

    #[test]
    fn package_alias_reshape_maps_to_core_dir() {
        let g = graph_of(&[
            (
                "crates/provision/src/a.rs",
                "provision",
                "pub fn api() { reshape::pipeline::run_once(); }\n",
            ),
            (
                "crates/core/src/pipeline.rs",
                "core",
                "pub mod pipeline { pub fn run_once() {} }\n",
            ),
        ]);
        assert!(edge(&g, "provision::api", "core::pipeline::run_once"));
    }

    #[test]
    fn crate_anchor_resolves_within_caller_crate() {
        let g = graph_of(&[
            (
                "crates/binpack/src/a.rs",
                "binpack",
                "pub fn api() { crate::util::probe(); }\npub mod util { pub fn probe() {} }\n",
            ),
            (
                "crates/corpus/src/b.rs",
                "corpus",
                "pub mod util { pub fn probe() {} }\n",
            ),
        ]);
        assert!(edge(&g, "binpack::api", "binpack::util::probe"));
        assert!(!edge(&g, "binpack::api", "corpus::util::probe"));
    }

    #[test]
    fn ambiguous_short_names_stay_unresolved() {
        let g = graph_of(&[
            (
                "crates/binpack/src/a.rs",
                "binpack",
                "pub fn api() { helper(); }\n",
            ),
            ("crates/corpus/src/b.rs", "corpus", "pub fn helper() {}\n"),
            ("crates/ec2sim/src/c.rs", "ec2sim", "pub fn helper() {}\n"),
        ]);
        assert!(!edge(&g, "binpack::api", "corpus::helper"));
        assert!(!edge(&g, "binpack::api", "ec2sim::helper"));
        assert!(g.unresolved >= 1);
    }

    #[test]
    fn test_gated_defs_are_excluded() {
        let g = graph_of(&[(
            "crates/binpack/src/a.rs",
            "binpack",
            "pub fn api() {}\n#[cfg(test)]\nmod tests {\n    fn t() { api(); }\n}\n",
        )]);
        assert_eq!(g.defs.len(), 1);
    }

    #[test]
    fn reverse_edges_invert() {
        let g = graph_of(&[(
            "crates/binpack/src/a.rs",
            "binpack",
            "pub fn api() { helper(); }\nfn helper() {}\n",
        )]);
        let rev = g.reverse_edges();
        let api = g.defs.iter().position(|d| d.qual == "binpack::api");
        let helper = g.defs.iter().position(|d| d.qual == "binpack::helper");
        if let (Some(a), Some(h)) = (api, helper) {
            assert_eq!(rev[h], vec![a]);
        } else {
            unreachable!("defs must parse");
        }
    }
}
