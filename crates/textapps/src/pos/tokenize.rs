//! Sentence splitting and tokenization.

/// A token: a word, number or punctuation mark, borrowed from the text it
/// was cut from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Surface text.
    pub text: &'a str,
    /// True when the token is punctuation.
    pub is_punct: bool,
}

/// Split `text` into sentences on `.`, `!`, `?` followed by ASCII
/// whitespace (space, tab, line feed, form feed or carriage return) or end
/// of input. The terminator stays with its sentence. A terminator followed
/// by any other whitespace, such as a no-break space or a vertical tab,
/// does not end one.
pub fn sentences(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if matches!(b, b'.' | b'!' | b'?') {
            let at_end = i + 1 >= bytes.len();
            let before_space = !at_end && bytes[i + 1].is_ascii_whitespace();
            if at_end || before_space {
                let s = text[start..=i].trim();
                if !s.is_empty() {
                    out.push(s);
                }
                start = i + 1;
            }
        }
        i += 1;
    }
    let tail = text[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

/// Tokenize `text`: maximal runs of alphanumerics (plus internal
/// apostrophes/hyphens) become word tokens; every other non-whitespace
/// character becomes a single-character punctuation token.
///
/// Tokens are slices of `text`. No token spans a sentence boundary (one
/// ends at a terminator, and no token holds one), so tokenizing a whole
/// document yields the tokens of its [`sentences`] in order.
pub fn tokenize(text: &str) -> impl Iterator<Item = Token<'_>> {
    let mut at = 0;
    std::iter::from_fn(move || loop {
        let start = at;
        let (c, len) = char_at(text, start)?;
        at += len;
        if c.is_whitespace() {
            continue;
        }
        let is_punct = !c.is_alphanumeric();
        if !is_punct {
            at = word_end(text, at);
        }
        return Some(Token {
            text: &text[start..at],
            is_punct,
        });
    })
}

/// The character at byte `at` of `text` and its length in bytes, read as
/// one byte when it is ASCII.
fn char_at(text: &str, at: usize) -> Option<(char, usize)> {
    let b = *text.as_bytes().get(at)?;
    if b.is_ascii() {
        return Some((char::from(b), 1));
    }
    let c = text.get(at..)?.chars().next()?;
    Some((c, c.len_utf8()))
}

/// Where the word whose next unread byte is `at` ends: it takes
/// alphanumerics, and an apostrophe or hyphen that an alphanumeric follows.
fn word_end(text: &str, mut at: usize) -> usize {
    let bytes = text.as_bytes();
    loop {
        while bytes.get(at).is_some_and(u8::is_ascii_alphanumeric) {
            at += 1;
        }
        let Some((c, len)) = char_at(text, at) else {
            return at;
        };
        let joins_word = (c == '\'' || c == '-')
            && char_at(text, at + len).is_some_and(|(next, _)| next.is_alphanumeric());
        if !(c.is_alphanumeric() || joins_word) {
            return at;
        }
        at += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(text: &str) -> Vec<Token<'_>> {
        tokenize(text).collect()
    }

    fn words<'a>(tokens: &[Token<'a>]) -> Vec<&'a str> {
        tokens.iter().map(|t| t.text).collect()
    }

    #[test]
    fn splits_on_terminators() {
        let s = sentences("First one. Second one! Third one? Tail without dot");
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], "First one.");
        assert_eq!(s[3], "Tail without dot");
    }

    #[test]
    fn period_inside_token_not_a_boundary() {
        let s = sentences("Version 2.5.1 works. Done.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], "Version 2.5.1 works.");
    }

    #[test]
    fn only_ascii_whitespace_after_a_terminator_ends_a_sentence() {
        assert_eq!(sentences("Stop.\u{a0}Go."), vec!["Stop.\u{a0}Go."]);
        assert_eq!(sentences("Stop.\u{2003}Go."), vec!["Stop.\u{2003}Go."]);
        assert_eq!(sentences("Stop.\u{b}Go."), vec!["Stop.\u{b}Go."]);
        assert_eq!(sentences("Stop.\r\nGo."), vec!["Stop.", "Go."]);
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(sentences("").is_empty());
        assert!(sentences("   \n\t ").is_empty());
    }

    #[test]
    fn tokenizes_words_and_punct() {
        let t = tokens("The cat, on a mat.");
        assert_eq!(words(&t), vec!["The", "cat", ",", "on", "a", "mat", "."]);
        assert!(t[2].is_punct);
        assert!(!t[0].is_punct);
    }

    #[test]
    fn keeps_internal_apostrophes_and_hyphens() {
        let t = tokens("don't well-known rock'n'roll");
        assert_eq!(words(&t), vec!["don't", "well-known", "rock'n'roll"]);
    }

    #[test]
    fn trailing_apostrophe_is_punct() {
        let t = tokens("dogs' bone");
        assert_eq!(words(&t), vec!["dogs", "'", "bone"]);
    }

    #[test]
    fn numbers_are_word_tokens() {
        let t = tokens("42 apples");
        assert_eq!(words(&t), vec!["42", "apples"]);
        assert!(!t[0].is_punct);
    }
}
