//! Deterministic synthetic text and HTML content.
//!
//! File *content* only matters for the real-execution paths (running the
//! actual grep engine or POS tagger over bytes); it is derived from
//! `(corpus seed, file id)` so any file can be materialized independently
//! and reproducibly, without generating its 900 GB corpus first.
//!
//! The generator writes sentences of Zipf-distributed pseudo-English words.
//! The *complexity* parameter scales the mean sentence length, which is the
//! paper's stated driver of POS-tagging cost ("average sentence length is
//! an important parameter for POS tagging", §5.2).

use crate::dist::{Normal, Zipf};
use crate::manifest::FileSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Vocabulary size (distinct word forms).
pub(crate) const VOCAB_SIZE: usize = 5_000;

/// Zipf exponent for word frequencies (≈1 for natural language).
pub(crate) const ZIPF_S: f64 = 1.05;

/// Mean words per sentence at complexity 1.0.
const MEAN_SENTENCE_LEN: f64 = 14.0;

/// Standard deviation of sentence length.
const SD_SENTENCE_LEN: f64 = 5.0;

const SYLLABLES: &[&str] = &[
    "ka", "ti", "ro", "men", "sal", "vor", "ne", "lu", "dra", "pis", "ton", "gar", "bel", "mi",
    "cho", "ren", "ast", "ul", "per", "qua", "den", "fos", "lin", "mar", "eb", "tro", "san", "vel",
];

/// A deterministic text generator over a fixed vocabulary.
#[derive(Debug, Clone)]
pub struct TextGenerator {
    vocab: Vec<String>,
    zipf: Zipf,
    /// Corpus seed: fixes the word forms and each file's word stream.
    seed: u64,
}

impl TextGenerator {
    /// Build the `VOCAB_SIZE`-word vocabulary and its Zipf frequency
    /// table; `seed` only affects word *forms*, not their statistics.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x564f_4341); // "VOCA"
        let vocab = (0..VOCAB_SIZE)
            .map(|_| {
                let syl = rng.random_range(1..=4);
                (0..syl)
                    .map(|_| SYLLABLES[rng.random_range(0..SYLLABLES.len())])
                    .collect::<String>()
            })
            .collect();
        let zipf = Zipf::new(VOCAB_SIZE, ZIPF_S);
        TextGenerator { vocab, zipf, seed }
    }

    /// Generate one sentence with mean length scaled by `complexity`.
    pub fn sentence(&self, rng: &mut impl Rng, complexity: f64) -> String {
        let mut s = String::new();
        self.push_sentence(rng, complexity, &mut s, usize::MAX);
        s
    }

    /// Append one sentence to `out`, drawing no more words once `out`
    /// holds `limit` bytes. Up to that point the bytes are exactly those
    /// of [`TextGenerator::sentence`].
    fn push_sentence(&self, rng: &mut impl Rng, complexity: f64, out: &mut String, limit: usize) {
        let len_dist = Normal::new(MEAN_SENTENCE_LEN * complexity.max(0.1), SD_SENTENCE_LEN);
        let len = len_dist.sample_f64(rng).round().max(1.0) as usize;
        for w in 0..len {
            if out.len() >= limit {
                break;
            }
            let word = &self.vocab[self.zipf.sample_rank(rng)];
            if w == 0 {
                let mut cs = word.chars();
                if let Some(first) = cs.next() {
                    out.extend(first.to_uppercase());
                    out.push_str(cs.as_str());
                }
            } else {
                out.push(' ');
                out.push_str(word);
            }
        }
        out.push('.');
    }

    /// Generate exactly `bytes` of text (sentences separated by spaces,
    /// the last one cut at the byte budget). Words are drawn only until the
    /// budget is reached, so any `complexity` finishes in `O(bytes)`.
    pub fn text(&self, rng: &mut impl Rng, complexity: f64, bytes: usize) -> String {
        let mut out = String::with_capacity(bytes + 64);
        while out.len() < bytes {
            if !out.is_empty() {
                out.push(' ');
            }
            self.push_sentence(rng, complexity, &mut out, bytes);
        }
        // The vocabulary is ASCII, so every byte offset is a character
        // boundary.
        out.truncate(bytes);
        out
    }

    /// The plain text of `file`: exactly `file.size` bytes, unique per
    /// (generator seed, file id).
    pub fn file_text(&self, file: &FileSpec) -> String {
        self.text(
            &mut self.file_rng(file),
            file.complexity,
            file.size as usize,
        )
    }

    /// The word stream of one file, derived from the corpus seed and id.
    fn file_rng(&self, file: &FileSpec) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ file.id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Generate `n` whole words (for word-count-matched texts like the
    /// Dubliners/Agnes Grey experiment).
    pub fn words(&self, rng: &mut impl Rng, complexity: f64, n: usize) -> String {
        let mut out = String::new();
        let mut count = 0usize;
        while count < n {
            let s = self.sentence(rng, complexity);
            let w = s.split_whitespace().count();
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&s);
            count += w;
        }
        out
    }
}

/// Materialize the plain-text bytes of `file` from a corpus `seed`. The
/// stream is unique per (seed, id) and has exactly `file.size` bytes.
/// Builds the generator for one file; to materialize many files, build one
/// [`TextGenerator`] and call [`TextGenerator::file_text`].
pub fn text_bytes(seed: u64, file: &FileSpec) -> Vec<u8> {
    let text = TextGenerator::new(seed).file_text(file);
    text.into_bytes()
}

/// Materialize HTML bytes: the text wrapped in a minimal article skeleton,
/// sized to exactly `file.size` bytes (text is shortened to make room for
/// the markup; files smaller than the skeleton are plain-truncated).
pub fn html_bytes(seed: u64, file: &FileSpec) -> Vec<u8> {
    const HEAD: &[u8] = b"<!DOCTYPE html><html><head><title>article</title></head><body><p>";
    const TAIL: &[u8] = b"</p></body></html>";
    let size = file.size as usize;
    if size <= HEAD.len() + TAIL.len() {
        let mut out = text_bytes(seed, file);
        out.truncate(size);
        return out;
    }
    let body = size - HEAD.len() - TAIL.len();
    let generator = TextGenerator::new(seed);
    let text = generator.text(&mut generator.file_rng(file), file.complexity, body);
    [HEAD, text.as_bytes(), TAIL].concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_has_exact_size() {
        let f = FileSpec::new(7, 1234);
        let b = text_bytes(42, &f);
        assert_eq!(b.len(), 1234);
        assert!(b.is_ascii());
    }

    #[test]
    fn content_deterministic_per_seed_and_id() {
        let f = FileSpec::new(7, 500);
        assert_eq!(text_bytes(42, &f), text_bytes(42, &f));
        assert_ne!(text_bytes(42, &f), text_bytes(43, &f));
        let g = FileSpec::new(8, 500);
        assert_ne!(text_bytes(42, &f), text_bytes(42, &g));
    }

    #[test]
    fn complexity_raises_mean_sentence_length() {
        let generator = TextGenerator::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        let lens_simple: Vec<usize> = (0..200)
            .map(|_| generator.sentence(&mut rng, 0.7).split_whitespace().count())
            .collect();
        let lens_complex: Vec<usize> = (0..200)
            .map(|_| generator.sentence(&mut rng, 1.8).split_whitespace().count())
            .collect();
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
        assert!(
            mean(&lens_complex) > mean(&lens_simple) * 1.8,
            "{} vs {}",
            mean(&lens_complex),
            mean(&lens_simple)
        );
    }

    #[test]
    fn sentences_end_with_period_and_start_uppercase() {
        let generator = TextGenerator::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let s = generator.sentence(&mut rng, 1.0);
            assert!(s.ends_with('.'));
            assert!(s.chars().next().unwrap().is_uppercase());
        }
    }

    #[test]
    fn words_meets_word_count() {
        let generator = TextGenerator::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        let t = generator.words(&mut rng, 1.0, 500);
        let n = t.split_whitespace().count();
        assert!((500..560).contains(&n), "{n}");
    }

    #[test]
    fn text_bytes_is_one_file_of_a_shared_generator() {
        for seed in [0, 7, 42, u64::MAX] {
            let generator = TextGenerator::new(seed);
            for (id, size, complexity) in
                [(0, 0, 1.0), (1, 1, 1.0), (7, 500, 0.7), (99, 4_321, 1.6)]
            {
                let f = FileSpec {
                    id,
                    size,
                    complexity,
                };
                assert_eq!(
                    text_bytes(seed, &f),
                    generator.file_text(&f).into_bytes(),
                    "seed {seed} id {id}"
                );
            }
        }
    }

    #[test]
    fn unbounded_complexity_stops_at_the_byte_budget() {
        let f = FileSpec {
            id: 3,
            size: 100,
            complexity: f64::INFINITY,
        };
        assert_eq!(text_bytes(42, &f).len(), 100);
    }

    #[test]
    fn text_equals_whole_sentences_cut_to_size() {
        // The generator before it stopped drawing at the byte budget:
        // whole sentences, then one truncation.
        let whole_sentences =
            |generator: &TextGenerator, rng: &mut StdRng, c: f64, bytes: usize| {
                let mut out = Vec::new();
                while out.len() < bytes {
                    if !out.is_empty() {
                        out.push(b' ');
                    }
                    out.extend_from_slice(generator.sentence(rng, c).as_bytes());
                }
                out.truncate(bytes);
                out
            };
        let generator = TextGenerator::new(9);
        for complexity in [0.5f64, 1.0, 1.6, 50.0] {
            for bytes in [0, 1, 99, 5_000] {
                let seed = bytes as u64 ^ complexity.to_bits();
                let fast = generator
                    .text(&mut StdRng::seed_from_u64(seed), complexity, bytes)
                    .into_bytes();
                let slow = whole_sentences(
                    &generator,
                    &mut StdRng::seed_from_u64(seed),
                    complexity,
                    bytes,
                );
                assert_eq!(fast, slow, "complexity {complexity}, {bytes} bytes");
            }
        }
    }

    #[test]
    fn html_wrapping_and_exact_size() {
        let f = FileSpec::new(3, 2_000);
        let b = html_bytes(42, &f);
        assert_eq!(b.len(), 2_000);
        assert!(b.starts_with(b"<!DOCTYPE html>"));
        assert!(b.ends_with(b"</body></html>"));
    }

    #[test]
    fn tiny_html_files_are_truncated_text() {
        let f = FileSpec::new(3, 10);
        let b = html_bytes(42, &f);
        assert_eq!(b.len(), 10);
    }
}
