//! Matched-size, different-complexity book texts.
//!
//! The paper contrasts POS-tagging time on two Project Gutenberg novels of
//! nearly identical length — Dubliners (67,496 words, 6 min 32 s) and Agnes
//! Grey (67,755 words, 3 min 48 s) — to show runtime depends on language
//! complexity, not just volume. We generate two texts with the same word
//! counts and complexity parameters chosen so the tagger-cost ratio lands
//! near the published ≈1.72×.

use crate::manifest::FileSpec;
use crate::text::TextGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A generated "book": its text plus the metadata the experiments use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Book {
    /// Display title.
    pub title: String,
    /// Full text.
    pub text: String,
    /// Word count (whitespace tokens).
    pub words: usize,
    /// Complexity multiplier used for generation (drives sentence length).
    pub complexity: f64,
}

fn generate(title: &str, words: usize, complexity: f64, seed: u64) -> Book {
    let generator = TextGenerator::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB00C);
    let text = generator.words(&mut rng, complexity, words);
    let actual = text.split_whitespace().count();
    Book {
        title: title.to_string(),
        text,
        words: actual,
        complexity,
    }
}

/// Dubliners-like text: 67,496 words, long complex sentences.
pub fn dubliners_like(seed: u64) -> Book {
    generate("Dubliners (synthetic)", 67_496, 1.62, seed)
}

/// Agnes Grey-like text: 67,755 words, plainer sentences.
pub fn agnes_grey_like(seed: u64) -> Book {
    generate("Agnes Grey (synthetic)", 67_755, 0.94, seed)
}

impl Book {
    /// View the book as a single virtual file for the cost models; the
    /// complexity carries through to the POS cost model.
    pub fn as_file_spec(&self, id: u64) -> FileSpec {
        FileSpec {
            id,
            size: self.text.len() as u64,
            complexity: self.complexity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_counts_match_gutenberg_within_one_sentence() {
        let d = dubliners_like(1);
        let a = agnes_grey_like(1);
        // Paper: difference in document size is less than 300 words.
        assert!((d.words as i64 - 67_496).unsigned_abs() < 60, "{}", d.words);
        assert!((a.words as i64 - 67_755).unsigned_abs() < 60, "{}", a.words);
        assert!((d.words as i64 - a.words as i64).unsigned_abs() < 400);
    }

    #[test]
    fn complexity_differs_but_sizes_comparable() {
        let d = dubliners_like(1);
        let a = agnes_grey_like(1);
        assert!(d.complexity > 1.5 && a.complexity < 1.0);
        let ratio = d.text.len() as f64 / a.text.len() as f64;
        assert!((0.8..1.25).contains(&ratio), "byte ratio {ratio}");
    }

    #[test]
    fn as_file_spec_carries_complexity() {
        let d = dubliners_like(1);
        let f = d.as_file_spec(0);
        assert_eq!(f.size as usize, d.text.len());
        assert!((f.complexity - 1.62).abs() < 1e-12);
    }
}
