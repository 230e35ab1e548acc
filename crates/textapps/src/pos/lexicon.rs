//! Lexicon and morphological suffix guesser: the emission model.
//!
//! Closed-class English words (determiners, prepositions, pronouns,
//! conjunctions, auxiliaries) are listed exhaustively; open-class and
//! synthetic words fall through to the suffix guesser, which assigns a
//! distribution over open-class tags from the word's ending. All scores are
//! natural-log probabilities over the 13-tag inventory.

use super::tokenize::Token;
use super::Tag;

const NEG_INF: f64 = -1.0e30;
const N_TAGS: usize = 13;

/// Emission model: log P(word | tag) up to a constant.
#[derive(Debug, Clone, Default)]
pub struct Lexicon;

fn logp(dist: &[(Tag, f64)]) -> [f64; N_TAGS] {
    let mut out = [NEG_INF; N_TAGS];
    for &(tag, p) in dist {
        out[tag.index()] = p.ln();
    }
    out
}

/// Distribution over tags for an unknown word, from its suffix.
pub fn suffix_guess(word: &str) -> [f64; N_TAGS] {
    let w = word.to_ascii_lowercase();
    if w.chars()
        .all(|c| c.is_ascii_digit() || c == '-' || c == '.')
    {
        return logp(&[(Tag::Cd, 0.98), (Tag::Nn, 0.02)]);
    }
    if let Some(stem) = w.strip_suffix("ly") {
        if !stem.is_empty() {
            return logp(&[(Tag::Rb, 0.85), (Tag::Jj, 0.10), (Tag::Nn, 0.05)]);
        }
    }
    if w.len() > 4 && w.ends_with("ing") {
        return logp(&[(Tag::Vbg, 0.65), (Tag::Nn, 0.25), (Tag::Jj, 0.10)]);
    }
    if w.len() > 3 && w.ends_with("ed") {
        return logp(&[(Tag::Vbd, 0.75), (Tag::Jj, 0.20), (Tag::Nn, 0.05)]);
    }
    if w.len() > 3
        && (w.ends_with("ous")
            || w.ends_with("ful")
            || w.ends_with("ive")
            || w.ends_with("al")
            || w.ends_with("ic"))
    {
        return logp(&[(Tag::Jj, 0.75), (Tag::Nn, 0.25)]);
    }
    if w.len() > 4 && (w.ends_with("tion") || w.ends_with("ment") || w.ends_with("ness")) {
        return logp(&[(Tag::Nn, 0.92), (Tag::Jj, 0.08)]);
    }
    if w.len() > 2 && w.ends_with('s') && !w.ends_with("ss") {
        return logp(&[
            (Tag::Nns, 0.60),
            (Tag::Vb, 0.20),
            (Tag::Nn, 0.15),
            (Tag::Jj, 0.05),
        ]);
    }
    // Bare unknown stem: mostly noun, could be verb or adjective.
    logp(&[
        (Tag::Nn, 0.55),
        (Tag::Jj, 0.20),
        (Tag::Vb, 0.20),
        (Tag::Rb, 0.05),
    ])
}

impl Lexicon {
    /// The built-in lexicon.
    pub fn builtin() -> Self {
        Lexicon
    }

    /// Log-probability vector over tags for a token.
    pub fn emission_logprobs(&self, token: &Token<'_>) -> [f64; N_TAGS] {
        if token.is_punct {
            return logp(&[(Tag::Punct, 1.0)]);
        }
        let w = token.text.to_ascii_lowercase();
        match w.as_str() {
            "the" | "a" | "an" | "this" | "that" | "these" | "those" | "every" | "each"
            | "some" | "any" | "no" => logp(&[(Tag::Dt, 0.97), (Tag::Nn, 0.03)]),
            "and" | "or" | "but" | "nor" | "yet" => logp(&[(Tag::Cc, 0.98), (Tag::Nn, 0.02)]),
            "in" | "on" | "at" | "of" | "with" | "from" | "to" | "by" | "for" | "over"
            | "under" | "into" | "through" | "during" | "between" | "after" | "before" => {
                logp(&[(Tag::In, 0.95), (Tag::Rb, 0.03), (Tag::Nn, 0.02)])
            }
            "i" | "you" | "he" | "she" | "it" | "we" | "they" | "me" | "him" | "her" | "us"
            | "them" => logp(&[(Tag::Prp, 0.98), (Tag::Nn, 0.02)]),
            "is" | "are" | "am" | "be" | "been" | "being" | "has" | "have" | "do" | "does"
            | "can" | "will" | "may" | "shall" | "must" => {
                logp(&[(Tag::Vb, 0.95), (Tag::Nn, 0.05)])
            }
            "was" | "were" | "had" | "did" | "would" | "could" | "should" | "might" => {
                logp(&[(Tag::Vbd, 0.95), (Tag::Nn, 0.05)])
            }
            "not" | "very" | "too" | "quite" | "never" | "always" | "often" | "here" | "there"
            | "now" | "then" | "quickly" => {
                logp(&[(Tag::Rb, 0.93), (Tag::Jj, 0.05), (Tag::Nn, 0.02)])
            }
            "one" | "two" | "three" | "four" | "five" | "six" | "seven" | "eight" | "nine"
            | "ten" | "hundred" | "thousand" | "million" => {
                logp(&[(Tag::Cd, 0.90), (Tag::Nn, 0.10)])
            }
            "old" | "new" | "good" | "bad" | "big" | "small" | "quick" | "lazy" | "wild"
            | "brown" | "red" | "long" | "short" | "high" | "low" => {
                logp(&[(Tag::Jj, 0.90), (Tag::Nn, 0.10)])
            }
            _ => suffix_guess(token.text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(s: &str) -> Token<'_> {
        Token {
            text: s,
            is_punct: false,
        }
    }

    fn best(scores: [f64; N_TAGS]) -> Tag {
        let (i, _) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        Tag::ALL[i]
    }

    #[test]
    fn closed_class_lookups() {
        let lex = Lexicon::builtin();
        assert_eq!(best(lex.emission_logprobs(&word("the"))), Tag::Dt);
        assert_eq!(best(lex.emission_logprobs(&word("The"))), Tag::Dt);
        assert_eq!(best(lex.emission_logprobs(&word("and"))), Tag::Cc);
        assert_eq!(best(lex.emission_logprobs(&word("from"))), Tag::In);
        assert_eq!(best(lex.emission_logprobs(&word("they"))), Tag::Prp);
        assert_eq!(best(lex.emission_logprobs(&word("was"))), Tag::Vbd);
    }

    #[test]
    fn punct_token_always_punct() {
        let lex = Lexicon::builtin();
        let t = Token {
            text: ".",
            is_punct: true,
        };
        assert_eq!(best(lex.emission_logprobs(&t)), Tag::Punct);
    }

    #[test]
    fn suffix_heuristics() {
        assert_eq!(best(suffix_guess("slowly")), Tag::Rb);
        assert_eq!(best(suffix_guess("jumped")), Tag::Vbd);
        assert_eq!(best(suffix_guess("running")), Tag::Vbg);
        assert_eq!(best(suffix_guess("creation")), Tag::Nn);
        assert_eq!(best(suffix_guess("tables")), Tag::Nns);
        assert_eq!(best(suffix_guess("famous")), Tag::Jj);
        assert_eq!(best(suffix_guess("3117")), Tag::Cd);
        assert_eq!(best(suffix_guess("blorp")), Tag::Nn);
    }

    #[test]
    fn short_words_not_misfired_by_suffix_rules() {
        // "ly", "ed", "is"-like two-letter words must not hit the long
        // suffix rules.
        assert_eq!(best(suffix_guess("ly")), Tag::Nn);
        assert_eq!(best(suffix_guess("ed")), Tag::Nn);
    }

    #[test]
    fn all_vectors_contain_a_finite_entry() {
        let lex = Lexicon::builtin();
        for w in ["the", "zzzz", "42", ".", "running"] {
            let t = Token {
                text: w,
                is_punct: w == ".",
            };
            let v = lex.emission_logprobs(&t);
            assert!(v.iter().any(|&x| x > -1.0e29), "{w} has no support");
        }
    }
}
