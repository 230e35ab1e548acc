//! Multi-pattern fixed-string search (the `grep -f patterns.txt` mode) via
//! Aho–Corasick.
//!
//! The paper's usage scenario searches for dictionary words; querying many
//! words at once is the natural batch variant (one corpus traversal for a
//! whole dictionary instead of one per word), and it preserves the
//! full-traversal cost profile the paper models.

use std::collections::VecDeque;

/// A compiled multi-pattern matcher (byte-level Aho–Corasick automaton
/// with goto/fail links flattened into a dense transition table).
#[derive(Debug, Clone)]
pub struct MultiGrep {
    /// Dense next-state table, `states × 256`.
    next: Vec<[u32; 256]>,
    /// Pattern indices that end at each state (via output links).
    outputs: Vec<Vec<u32>>,
    /// The patterns, for reporting.
    patterns: Vec<Vec<u8>>,
}

/// Per-pattern match counts from one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiOutcome {
    /// `counts[i]` = occurrences of pattern `i`.
    pub counts: Vec<usize>,
    /// Bytes scanned.
    pub bytes_scanned: u64,
}

impl MultiOutcome {
    /// Total matches across all patterns.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

impl MultiGrep {
    /// Compile a set of patterns. Empty pattern lists and empty patterns
    /// are rejected.
    pub fn new<S: AsRef<[u8]>>(patterns: &[S]) -> Self {
        assert!(!patterns.is_empty(), "need at least one pattern");
        let patterns: Vec<Vec<u8>> = patterns.iter().map(|p| p.as_ref().to_vec()).collect();
        assert!(
            patterns.iter().all(|p| !p.is_empty()),
            "empty patterns are not allowed"
        );

        // Trie construction.
        let mut next: Vec<[u32; 256]> = vec![[u32::MAX; 256]];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new()];
        for (pi, pattern) in patterns.iter().enumerate() {
            let mut state = 0usize;
            for &b in pattern {
                let slot = next[state][b as usize];
                state = if slot == u32::MAX {
                    next.push([u32::MAX; 256]);
                    outputs.push(Vec::new());
                    let new_state = (next.len() - 1) as u32;
                    next[state][b as usize] = new_state;
                    new_state as usize
                } else {
                    slot as usize
                };
            }
            outputs[state].push(pi as u32);
        }

        // BFS to compute fail links and flatten them into the table
        // (byte loops index `next` and `fail` together; the index form is
        // the clearest rendering of the classic construction).
        #[allow(clippy::needless_range_loop)]
        fn flatten(next: &mut [[u32; 256]], outputs: &mut [Vec<u32>]) {
            let mut fail = vec![0u32; next.len()];
            let mut queue = VecDeque::new();
            for b in 0..256 {
                let s = next[0][b];
                if s == u32::MAX {
                    next[0][b] = 0;
                } else {
                    fail[s as usize] = 0;
                    queue.push_back(s);
                }
            }
            while let Some(state) = queue.pop_front() {
                let state = state as usize;
                let f = fail[state] as usize;
                // Inherit the fail state's outputs (suffix matches).
                let inherited = outputs[f].clone();
                outputs[state].extend(inherited);
                for b in 0..256 {
                    let child = next[state][b];
                    if child == u32::MAX {
                        next[state][b] = next[f][b];
                    } else {
                        fail[child as usize] = next[f][b];
                        queue.push_back(child);
                    }
                }
            }
        }
        flatten(&mut next, &mut outputs);

        MultiGrep {
            next,
            outputs,
            patterns,
        }
    }

    /// Scan `haystack`, counting every (possibly overlapping) occurrence
    /// of every pattern.
    pub fn scan(&self, haystack: &[u8]) -> MultiOutcome {
        let mut counts = vec![0usize; self.patterns.len()];
        let mut state = 0usize;
        for &b in haystack {
            state = self.next[state][b as usize] as usize;
            for &pi in &self.outputs[state] {
                counts[pi as usize] += 1;
            }
        }
        MultiOutcome {
            counts,
            bytes_scanned: haystack.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grep::Grep;

    #[test]
    fn finds_each_pattern() {
        let m = MultiGrep::new(&["he", "she", "his", "hers"]);
        // The classic Aho–Corasick example.
        let o = m.scan(b"ushers");
        assert_eq!(o.counts, vec![1, 1, 0, 1]); // he, she, hers
        assert_eq!(o.total(), 3);
    }

    #[test]
    fn overlapping_and_nested_patterns() {
        let m = MultiGrep::new(&["a", "aa", "aaa"]);
        let o = m.scan(b"aaaa");
        assert_eq!(o.counts, vec![4, 3, 2]);
    }

    #[test]
    fn agrees_with_single_pattern_grep() {
        let text = corpus::text_bytes(5, &corpus::FileSpec::new(0, 20_000));
        let words = ["ka", "tiro", "mensal", "zxqv"];
        let multi = MultiGrep::new(&words);
        let o = multi.scan(&text);
        for (i, w) in words.iter().enumerate() {
            // Single-pattern BMH counts non-overlapping; these words
            // cannot overlap themselves except "ka" in "kaka" — which
            // still cannot self-overlap (no shared prefix/suffix), so
            // the counts must agree.
            let single = Grep::new(w).count(&text);
            assert_eq!(o.counts[i], single, "pattern {w}");
        }
    }

    #[test]
    fn no_match_scans_everything() {
        let m = MultiGrep::new(&["zxqv", "qqqq"]);
        let hay = vec![b'a'; 100_000];
        let o = m.scan(&hay);
        assert_eq!(o.total(), 0);
        assert_eq!(o.bytes_scanned, 100_000);
    }

    #[test]
    fn matches_across_pattern_suffix_chains() {
        // "abcd" contains "bcd" contains "cd": output links must fire all.
        let m = MultiGrep::new(&["abcd", "bcd", "cd"]);
        let o = m.scan(b"xabcdx");
        assert_eq!(o.counts, vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_pattern_list_rejected() {
        MultiGrep::new::<&[u8]>(&[]);
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn empty_pattern_rejected() {
        MultiGrep::new(&[""]);
    }
}
