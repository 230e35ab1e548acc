//! Differential test of the borrowing tokenizer against the char-based one
//! it replaced, kept below verbatim as the reference.
//!
//! Inputs are seeded Text_400K generator output and seeded random strings
//! over the characters where the two could part: apostrophes, hyphens, a
//! combining mark, a non-ASCII digit, a vulgar fraction, non-ASCII spaces,
//! tabs, CRLF, Greek capitals and sentence terminators. For each input the
//! tokens of every sentence must match the reference one for one, the
//! tokens of the whole document must be the sentences' tokens in order
//! (so the aggregation's map pass may skip sentence splitting), and the
//! tokenizer app's stats and the POS tagger's output must equal what the
//! reference tokens give. Vendored proptest does not shrink, so the inputs
//! are drawn from plain seeds and a failure prints its seed and input.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textapps::pos::{sentences, tokenize, Token};
use textapps::{PosTagger, TokenStats, Tokenizer};

/// The char-based tokenizer, verbatim.
mod reference {
    /// A token: a word, number or punctuation mark.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Token {
        /// Surface text.
        pub text: String,
        /// True when the token is punctuation.
        pub is_punct: bool,
    }

    /// Tokenize one sentence: maximal runs of alphanumerics (plus internal
    /// apostrophes/hyphens) become word tokens; every other non-whitespace byte
    /// becomes a single-character punctuation token.
    pub fn tokenize(sentence: &str) -> Vec<Token> {
        let mut out = Vec::new();
        let mut word = String::new();
        let flush = |word: &mut String, out: &mut Vec<Token>| {
            if !word.is_empty() {
                out.push(Token {
                    text: std::mem::take(word),
                    is_punct: false,
                });
            }
        };
        let chars: Vec<char> = sentence.chars().collect();
        for (i, &c) in chars.iter().enumerate() {
            let joins_word = (c == '\'' || c == '-')
                && !word.is_empty()
                && chars.get(i + 1).is_some_and(|n| n.is_alphanumeric());
            if c.is_alphanumeric() || joins_word {
                word.push(c);
            } else if c.is_whitespace() {
                flush(&mut word, &mut out);
            } else {
                flush(&mut word, &mut out);
                out.push(Token {
                    text: c.to_string(),
                    is_punct: true,
                });
            }
        }
        flush(&mut word, &mut out);
        out
    }
}

/// The reference tokens as borrowed tokens, for comparison and tagging.
fn borrowed(tokens: &[reference::Token]) -> Vec<Token<'_>> {
    tokens
        .iter()
        .map(|t| Token {
            text: &t.text,
            is_punct: t.is_punct,
        })
        .collect()
}

/// Every check of this file on one input, labelled `case` on failure.
fn check(case: &str, text: &str) {
    let tagger = PosTagger::new();
    let mut stats = TokenStats {
        documents: 1,
        bytes: text.len() as u64,
        ..TokenStats::default()
    };
    let mut per_sentence = Vec::new();
    let mut tags = Vec::new();
    for sentence in sentences(text) {
        let expected = reference::tokenize(sentence);
        let expected = borrowed(&expected);
        let got: Vec<Token> = tokenize(sentence).collect();
        assert_eq!(got, expected, "{case}: sentence {sentence:?} of {text:?}");
        stats.sentences += 1;
        stats.punct += expected.iter().filter(|t| t.is_punct).count();
        stats.words += expected.iter().filter(|t| !t.is_punct).count();
        tags.push(tagger.tag_tokens(&expected));
        per_sentence.extend(got);
    }
    let whole: Vec<Token> = tokenize(text).collect();
    assert_eq!(whole, per_sentence, "{case}: whole document {text:?}");
    assert_eq!(
        Tokenizer.run(text),
        stats,
        "{case}: Tokenizer::run on {text:?}"
    );
    assert_eq!(tagger.tag_text(text), tags, "{case}: tag_text on {text:?}");
}

/// The pieces random inputs are drawn from.
const PIECES: &[&str] = &[
    "a", "b", "Z", "7", " ", " ", "'", "-", "\u{301}", "\u{661}", "½", "\u{a0}", "\u{2003}", "\t",
    "\r\n", "Α", "Σ", "Ω", "Δ", ".", "!", "?",
];

fn random_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.random_range(0..120usize);
    (0..len)
        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
        .collect()
}

#[test]
fn random_strings_tokenize_as_the_reference() {
    for seed in 0..3_000u64 {
        check(&format!("random seed {seed}"), &random_text(seed));
    }
}

#[test]
fn text_400k_documents_tokenize_as_the_reference() {
    for seed in 0..4u64 {
        let manifest = corpus::text_400k(0.0005, seed);
        for file in manifest.files.iter().take(25) {
            let text = String::from_utf8(corpus::text_bytes(seed, file))
                .unwrap_or_else(|e| panic!("corpus seed {seed} file {}: {e}", file.id));
            check(&format!("corpus seed {seed} file {}", file.id), &text);
        }
    }
}

#[test]
fn the_random_pieces_reach_every_token_kind() {
    // The joiner and whitespace cases the differential exists for do occur
    // in the drawn inputs, so a passing run compared them.
    let texts: Vec<String> = (0..3_000).map(random_text).collect();
    let words: Vec<String> = texts
        .iter()
        .flat_map(|t| reference::tokenize(t))
        .filter(|t| !t.is_punct)
        .map(|t| t.text)
        .collect();
    assert!(
        words.iter().any(|w| w.contains('\'')),
        "an apostrophe joins"
    );
    assert!(words.iter().any(|w| w.contains('-')), "a hyphen joins");
    assert!(
        words.iter().any(|w| w.contains('\u{661}')),
        "a non-ASCII digit"
    );
    assert!(words.iter().any(|w| w.contains('½')), "a vulgar fraction");
    assert!(
        texts.iter().any(|t| t.contains(".\u{a0}")),
        "no break after a terminator"
    );
}
