//! A third application: corpus tokenization / word counting.
//!
//! The paper motivates its full-traversal analysis with "basic Natural
//! Language Processing applications (e.g., tokenization)" (§5.1). This is
//! that application: split every document into sentences and tokens and
//! count them — one pass over every byte, moderately CPU-bound (faster
//! than tagging, slower than grep), which puts its preferred unit size
//! between the two headline apps.

use crate::model::{AppCostModel, AppKind, ExecEnv};
use crate::pos::{sentences, tokenize};
use corpus::FileSpec;
use serde::{Deserialize, Serialize};

/// Token statistics from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenStats {
    /// Documents processed.
    pub documents: usize,
    /// Sentences found.
    pub sentences: usize,
    /// Word tokens.
    pub words: usize,
    /// Punctuation tokens.
    pub punct: usize,
    /// Bytes read.
    pub bytes: u64,
}

impl TokenStats {
    /// Merge another run's stats into this one.
    pub fn merge(&mut self, other: &TokenStats) {
        self.documents += other.documents;
        self.sentences += other.sentences;
        self.words += other.words;
        self.punct += other.punct;
        self.bytes += other.bytes;
    }
}

/// The tokenizer application.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// Tokenize one document.
    pub fn run(&self, text: &str) -> TokenStats {
        let mut stats = TokenStats {
            documents: 1,
            bytes: text.len() as u64,
            ..TokenStats::default()
        };
        for sentence in sentences(text) {
            stats.sentences += 1;
            for token in tokenize(sentence) {
                if token.is_punct {
                    stats.punct += 1;
                } else {
                    stats.words += 1;
                }
            }
        }
        stats
    }
}

/// CPU tokenization rate at `cpu_factor == 1`, bytes/second.
const TOKENIZE_CPU_BPS: f64 = 30.0e6;

/// Tokenization per-file fixed cost, seconds.
const TOKENIZE_PER_FILE_S: f64 = 1.5e-3;

/// Cost model: a single CPU pass at tens of MB/s — fast enough that I/O
/// matters on slow storage, slow enough that CPU matters on slow
/// instances. Per-file overhead sits between grep's (open only) and the
/// tagger's (document setup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TokenizeCostModel {}

impl AppCostModel for TokenizeCostModel {
    fn runtime_secs(&self, files: &[FileSpec], env: &ExecEnv) -> f64 {
        let bytes: u64 = files.iter().map(|f| f.size).sum();
        let cpu = bytes as f64 / (TOKENIZE_CPU_BPS * env.cpu_factor.max(1e-9));
        let io = bytes as f64 / env.io_throughput_bps.max(1.0);
        env.startup_s
            + files.len() as f64 * (TOKENIZE_PER_FILE_S + env.per_file_overhead_s)
            + cpu.max(io)
    }

    fn kind(&self) -> AppKind {
        AppKind::Tokenize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_words_sentences_punct() {
        let s = Tokenizer.run("One two three. Four five!");
        assert_eq!(s.documents, 1);
        assert_eq!(s.sentences, 2);
        assert_eq!(s.words, 5);
        assert_eq!(s.punct, 2);
        assert_eq!(s.bytes, 25);
    }

    #[test]
    fn real_corpus_document() {
        let f = corpus::FileSpec::new(0, 5_000);
        let text = String::from_utf8(corpus::text_bytes(3, &f)).unwrap();
        let s = Tokenizer.run(&text);
        assert_eq!(s.bytes, 5_000);
        assert!(s.words > 300, "{s:?}");
        assert!(s.sentences > 10);
    }

    #[test]
    fn cost_sits_between_grep_and_pos() {
        let env = ExecEnv::nominal();
        let files = [FileSpec::new(0, 10_000_000)];
        let grep = crate::model::GrepCostModel::default().runtime_secs(&files, &env);
        let token = TokenizeCostModel::default().runtime_secs(&files, &env);
        let pos = crate::model::PosCostModel::default().runtime_secs(&files, &env);
        assert!(grep < token, "{grep} !< {token}");
        assert!(token < pos, "{token} !< {pos}");
    }

    #[test]
    fn cpu_bound_on_nominal_io() {
        let m = TokenizeCostModel::default();
        let env = ExecEnv::nominal(); // 75 MB/s I/O > 30 MB/s CPU
        let files = [FileSpec::new(0, 30_000_000)];
        let t = m.runtime_secs(&files, &env) - env.startup_s;
        assert!((t - 1.0).abs() < 0.1, "t = {t}"); // 30 MB at 30 MB/s
    }

    #[test]
    fn io_bound_on_slow_storage() {
        let m = TokenizeCostModel::default();
        let env = ExecEnv {
            io_throughput_bps: 10.0e6,
            ..ExecEnv::nominal()
        };
        let files = [FileSpec::new(0, 30_000_000)];
        let t = m.runtime_secs(&files, &env) - env.startup_s;
        assert!((t - 3.0).abs() < 0.1, "t = {t}"); // 30 MB at 10 MB/s
    }
}
