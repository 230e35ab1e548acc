//! A streaming fixed-string searcher: the `grep` stand-in.
//!
//! The paper restricts grep to "simple patterns consisting of English
//! dictionary words", i.e. fixed-string search, and measures the worst case
//! where the word never occurs (full traversal, no output cost). The core
//! here is Boyer–Moore–Horspool with a safe fallback for tiny patterns, and
//! a line-oriented driver that reports matching lines like `grep` does.

/// Result of running grep over one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrepOutcome {
    /// Number of matching lines.
    pub matching_lines: usize,
    /// Total occurrences of the pattern.
    pub occurrences: usize,
    /// Bytes scanned.
    pub bytes_scanned: u64,
}

/// Compiled fixed-string pattern.
#[derive(Debug, Clone)]
pub struct Grep {
    pattern: Vec<u8>,
    shift: [usize; 256],
}

impl Grep {
    /// Compile a fixed-string pattern. Empty patterns are rejected.
    pub fn new(pattern: &str) -> Self {
        assert!(!pattern.is_empty(), "empty grep pattern");
        let pattern = pattern.as_bytes().to_vec();
        let m = pattern.len();
        let mut shift = [m; 256];
        for (i, &b) in pattern.iter().enumerate().take(m - 1) {
            shift[b as usize] = m - 1 - i;
        }
        Grep { pattern, shift }
    }

    /// The pattern as bytes.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    /// Find the first occurrence at/after `from` in `haystack`
    /// (Boyer–Moore–Horspool).
    pub fn find(&self, haystack: &[u8], from: usize) -> Option<usize> {
        let m = self.pattern.len();
        let n = haystack.len();
        if m > n {
            return None;
        }
        let mut i = from;
        while i + m <= n {
            if haystack[i..i + m] == self.pattern[..] {
                return Some(i);
            }
            i += self.shift[haystack[i + m - 1] as usize];
        }
        None
    }

    /// Count all (possibly overlapping at line granularity, non-overlapping
    /// at match granularity) occurrences in a byte buffer.
    pub fn count(&self, haystack: &[u8]) -> usize {
        let mut n = 0;
        let mut at = 0;
        while let Some(pos) = self.find(haystack, at) {
            n += 1;
            at = pos + self.pattern.len();
        }
        n
    }

    /// Run over a buffer, line-oriented like `grep file`.
    pub fn run(&self, input: &[u8]) -> GrepOutcome {
        let mut outcome = GrepOutcome {
            matching_lines: 0,
            occurrences: 0,
            bytes_scanned: input.len() as u64,
        };
        for line in input.split(|&b| b == b'\n') {
            let c = self.count(line);
            if c > 0 {
                outcome.matching_lines += 1;
                outcome.occurrences += c;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_single_occurrence() {
        let g = Grep::new("needle");
        let hay = b"hay hay needle hay";
        assert_eq!(g.find(hay, 0), Some(8));
    }

    #[test]
    fn nonsense_word_never_matches() {
        // The paper's worst-case scenario: full scan, zero matches.
        let g = Grep::new("zxqvphantasm");
        let hay = b"ordinary text with ordinary words\nrepeated many times\n".repeat(100);
        let o = g.run(&hay);
        assert_eq!(o.occurrences, 0);
        assert_eq!(o.bytes_scanned, hay.len() as u64);
    }

    #[test]
    fn counts_non_overlapping_occurrences() {
        let g = Grep::new("aa");
        assert_eq!(g.count(b"aaaa"), 2);
        assert_eq!(g.count(b"aaa"), 1);
    }

    #[test]
    fn line_matching_like_grep() {
        let g = Grep::new("fox");
        let o = g.run(b"the quick brown fox\nlazy dog\nfox fox\n");
        assert_eq!(o.matching_lines, 2);
        assert_eq!(o.occurrences, 3);
    }

    #[test]
    fn pattern_at_boundaries() {
        let g = Grep::new("ab");
        assert_eq!(g.find(b"ab", 0), Some(0));
        assert_eq!(g.find(b"xxab", 0), Some(2));
        assert_eq!(g.find(b"a", 0), None);
        assert_eq!(g.find(b"", 0), None);
    }

    #[test]
    fn single_byte_pattern() {
        let g = Grep::new("x");
        assert_eq!(g.count(b"axbxcx"), 3);
    }

    #[test]
    fn from_offset_respected() {
        let g = Grep::new("ab");
        assert_eq!(g.find(b"ab ab", 1), Some(3));
    }

    #[test]
    #[should_panic(expected = "empty grep pattern")]
    fn empty_pattern_rejected() {
        Grep::new("");
    }

    #[test]
    fn horspool_matches_naive_on_random_input() {
        // Cross-check BMH against a naive scan.
        let g = Grep::new("tion");
        let src = b"antiodisestablishmentarianification";
        let hay: Vec<u8> = (0..10_000usize).map(|i| src[i % src.len()]).collect();
        let naive = hay.windows(4).filter(|w| *w == b"tion").count();
        // BMH counts non-overlapping, naive counts all; "tion" cannot
        // overlap itself, so the counts agree.
        assert_eq!(g.count(&hay), naive);
    }
}
