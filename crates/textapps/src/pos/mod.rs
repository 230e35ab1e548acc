//! A hidden-Markov-model part-of-speech tagger (the Stanford-tagger
//! stand-in).
//!
//! Pipeline: sentence splitting → tokenization → Viterbi decoding over a
//! bigram tag HMM whose emissions come from a lexicon of closed-class
//! English words plus a morphological suffix guesser for everything else
//! (which also covers the synthetic vocabulary of [`corpus`]).
//!
//! Like the paper's wrapper around the Stanford tagger, [`PosTagger`] tags
//! an entire *set* of documents in one call so per-process startup (the JVM
//! analog in our cost model) is paid once, not per file.

mod hmm;
mod lexicon;
mod tokenize;

pub use hmm::{Hmm, Viterbi};
pub use lexicon::{suffix_guess, Lexicon};
pub use tokenize::{sentences, tokenize, Token};

use serde::{Deserialize, Serialize};

/// The tag set: a compact Penn-Treebank-inspired inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Tag {
    /// Determiner (the, a, an).
    Dt,
    /// Singular/mass noun.
    Nn,
    /// Plural noun.
    Nns,
    /// Verb, base/present.
    Vb,
    /// Verb, past tense.
    Vbd,
    /// Verb, gerund/participle.
    Vbg,
    /// Adjective.
    Jj,
    /// Adverb.
    Rb,
    /// Preposition / subordinating conjunction.
    In,
    /// Personal pronoun.
    Prp,
    /// Coordinating conjunction.
    Cc,
    /// Cardinal number.
    Cd,
    /// Punctuation.
    Punct,
}

impl Tag {
    /// All tags, index order matches the HMM state numbering.
    pub const ALL: [Tag; 13] = [
        Tag::Dt,
        Tag::Nn,
        Tag::Nns,
        Tag::Vb,
        Tag::Vbd,
        Tag::Vbg,
        Tag::Jj,
        Tag::Rb,
        Tag::In,
        Tag::Prp,
        Tag::Cc,
        Tag::Cd,
        Tag::Punct,
    ];

    /// Index of the tag in [`Tag::ALL`].
    pub fn index(self) -> usize {
        Tag::ALL
            .iter()
            .position(|&t| t == self)
            // lint:allow(RL001, Tag::ALL enumerates every variant by construction)
            .expect("tag in ALL")
    }
}

/// One tagged token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaggedWord {
    /// Surface form.
    pub word: String,
    /// Assigned tag.
    pub tag: Tag,
}

/// The tagger: HMM + lexicon, cheap to clone.
#[derive(Debug, Clone)]
pub struct PosTagger {
    hmm: Hmm,
    lexicon: Lexicon,
}

impl Default for PosTagger {
    fn default() -> Self {
        Self::new()
    }
}

impl PosTagger {
    /// Build the tagger with the built-in model.
    pub fn new() -> Self {
        PosTagger {
            hmm: Hmm::builtin(),
            lexicon: Lexicon::builtin(),
        }
    }

    /// Tag a single sentence's tokens.
    pub fn tag_tokens(&self, tokens: &[Token<'_>]) -> Vec<TaggedWord> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let emissions: Vec<[f64; 13]> = tokens
            .iter()
            .map(|t| self.lexicon.emission_logprobs(t))
            .collect();
        let path = Viterbi::decode(&self.hmm, &emissions);
        tokens
            .iter()
            .zip(path)
            .map(|(t, state)| TaggedWord {
                word: t.text.to_owned(),
                tag: Tag::ALL[state],
            })
            .collect()
    }

    /// Tag a document: split into sentences, tag each. Returns sentences of
    /// tagged words.
    pub fn tag_text(&self, text: &str) -> Vec<Vec<TaggedWord>> {
        sentences(text)
            .into_iter()
            .map(|s| self.tag_tokens(&tokenize(s).collect::<Vec<_>>()))
            .collect()
    }

    /// Tag a set of documents in one process (the paper's wrapper).
    /// Returns per-document sentence counts and the total tagged words, a
    /// compact summary suitable for large corpora.
    pub fn tag_documents<'a>(&self, docs: impl IntoIterator<Item = &'a str>) -> DocumentsSummary {
        let mut summary = DocumentsSummary::default();
        for doc in docs {
            let tagged = self.tag_text(doc);
            summary.documents += 1;
            summary.sentences += tagged.len();
            summary.words += tagged.iter().map(|s| s.len()).sum::<usize>();
        }
        summary
    }
}

/// Totals from tagging a document set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocumentsSummary {
    /// Number of documents processed.
    pub documents: usize,
    /// Number of sentences.
    pub sentences: usize,
    /// Number of tagged words (excluding punctuation tokens? no —
    /// punctuation tokens are included and tagged `Punct`).
    pub words: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_class_words_tagged_from_lexicon() {
        let tagger = PosTagger::new();
        let tagged = &tagger.tag_text("The cat sat on the mat.")[0];
        assert_eq!(tagged[0].tag, Tag::Dt, "{tagged:?}");
        assert_eq!(tagged[3].tag, Tag::In, "{tagged:?}");
        assert_eq!(tagged[4].tag, Tag::Dt, "{tagged:?}");
        assert_eq!(tagged.last().unwrap().tag, Tag::Punct);
    }

    #[test]
    fn suffix_guesser_informs_unknown_words() {
        let tagger = PosTagger::new();
        let tagged = &tagger.tag_text("Blorps quickly vanished.")[0];
        // -ly -> adverb, -ed -> past verb
        assert_eq!(tagged[1].tag, Tag::Rb, "{tagged:?}");
        assert_eq!(tagged[2].tag, Tag::Vbd, "{tagged:?}");
    }

    #[test]
    fn determiner_noun_sequence_preferred() {
        let tagger = PosTagger::new();
        let tagged = &tagger.tag_text("The vorpal blade.")[0];
        // After DT, the HMM strongly prefers JJ/NN over verbs.
        assert!(matches!(tagged[1].tag, Tag::Jj | Tag::Nn), "{tagged:?}");
        assert!(matches!(tagged[2].tag, Tag::Nn | Tag::Nns), "{tagged:?}");
    }

    #[test]
    fn numbers_tagged_cd() {
        let tagger = PosTagger::new();
        let tagged = &tagger.tag_text("He bought 42 apples.")[0];
        assert_eq!(tagged[2].tag, Tag::Cd, "{tagged:?}");
    }

    #[test]
    fn multi_sentence_documents_split() {
        let tagger = PosTagger::new();
        let tagged = tagger.tag_text("One sentence here. Another one follows! Third?");
        assert_eq!(tagged.len(), 3);
    }

    #[test]
    fn tagging_is_deterministic() {
        let tagger = PosTagger::new();
        let a = tagger.tag_text("The wild blorp ran over the hills.");
        let b = tagger.tag_text("The wild blorp ran over the hills.");
        assert_eq!(a, b);
    }

    #[test]
    fn document_set_summary_accumulates() {
        let tagger = PosTagger::new();
        let docs = ["First doc. Two sentences.", "Second doc."];
        let s = tagger.tag_documents(docs.iter().copied());
        assert_eq!(s.documents, 2);
        assert_eq!(s.sentences, 3);
        assert!(s.words >= 8);
    }

    #[test]
    fn empty_document_is_fine() {
        let tagger = PosTagger::new();
        assert!(tagger.tag_text("").is_empty());
        let s = tagger.tag_documents([""].iter().copied());
        assert_eq!(s.sentences, 0);
    }

    #[test]
    fn synthetic_corpus_text_is_taggable() {
        // The corpus vocabulary is made-up words: the suffix guesser and
        // HMM must still produce a full tagging.
        let file = corpus::FileSpec::new(0, 2_000);
        let bytes = corpus::text_bytes(11, &file);
        let text = String::from_utf8(bytes).unwrap();
        let tagger = PosTagger::new();
        let tagged = tagger.tag_text(&text);
        assert!(!tagged.is_empty());
        let words: usize = tagged.iter().map(|s| s.len()).sum();
        assert!(words > 100);
    }
}
